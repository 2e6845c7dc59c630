"""Trace maps between ranks and the cyclic-to-symmetric quotients.

This module is the one place that decorates letters with matrix
indices: ``decorate`` tensors a graded pairing with the trace form of
Mat_N, so letter (i, p, q) sits at index (i N + p) N + q, is named
``name[p,q]`` and pairs with (j, q, p) through <i,j>: each nonzero of
the base Form gives exactly N^2 nonzeros.  ``decorate_map`` tensors a
structure map with products of elementary matrices and ``decorate_unit``
a unit with the identity: both matrix algebras are built from these.

``MatrixExtension`` packages the odd symplectic space of matrix-valued
letters (letter, row, col), the inflation map M that tensors a cyclic
word with the trace of a product of elementary matrices (and sends nu
to N nu), and the restriction map R to the top-left corner.  Its
inverse form is the base inverse decorated by ``trace_tensor``, which
the space checks instead of solving the N^2-fold pairing.  Like the
quotients below, M and R sum their raw terms in one map per call for
``Element._from_raw``.

``sigma`` is the quotient from cyclic words to polynomials: a word
flattens to the product of its letters, nu goes to 1, and the map is
extended multiplicatively over symmetric products.  ``sigma_K`` is the
weighted variant recording the genus/boundary weight h^{2i+j+n-1} for a
monomial gamma^i nu^j with n word factors (so the bare nu monomial has
weight h^0: it is a single empty word).
"""

import itertools

from .element import COMMUTATIVE, CYCLIC, Element
from .scalar import ZERO, add_to
from .space import Form, GradedSymplecticSpace
from .words import Monomial


def matrix_name(name: str, row: int, col: int) -> str:
    return f"{name}[{row},{col}]"


def matrix_index(letter: int, row: int, col: int, size: int) -> int:
    """Position of the decorated letter (letter, row, col) in V (x) Mat_N."""
    return (letter * size + row) * size + col


def index_chains(size: int, length: int):
    """All length-tuples (p_1, ..., p_L) of matrix indices: the chain
    E_{p_1 p_2} E_{p_2 p_3} ... multiplies to E_{p_1 p_L}."""
    return itertools.product(range(size), repeat=length)


def trace_tensor(form: Form, size: int) -> Form:
    """The Form ``form`` tensored with the trace form of Mat_N: each
    nonzero (i, j) gives its N^2 entries ((i,p,q), (j,q,p)), since
    Tr(E_pq E_qp) = 1 is the only nonzero trace product."""
    cells = list(index_chains(size, 2))
    return tuple({matrix_index(j, q, p, size): entry for j, entry in row.items()}
                 for row in form for p, q in cells)


def decorate(names, degrees, pairing: Form, size: int):
    """Names, degrees and trace-form pairing (a Form, as ``pairing`` is)
    of the letters (i, p, q) of V (x) Mat_N, ordered by ``matrix_index``."""
    if size < 1:
        raise ValueError("matrix size must be at least 1")
    cells = list(index_chains(size, 2))
    return (
        tuple(matrix_name(name, p, q) for name in names for p, q in cells),
        tuple(degree for degree in degrees for _ in cells),
        trace_tensor(pairing, size),
    )


def decorate_map(table: dict, size: int) -> dict:
    """The structure map {args: {out: c}} of V tensored with the product
    of elementary matrices: along each chain p_0 ... p_k, argument t is
    decorated (p_t, p_{t+1}) and each output (p_0, p_k), so a nullary
    map (a curvature m_0) becomes itself times the identity."""
    out = {}
    for args, images in table.items():
        k = len(args)
        for chain in index_chains(size, k + 1):
            cell = out.setdefault(tuple(matrix_index(base, chain[t], chain[t + 1], size)
                                        for t, base in enumerate(args)), {})
            for o, c in images.items():
                add_to(cell, matrix_index(o, chain[0], chain[k], size), c)
    return out


def decorate_unit(unit, size: int) -> tuple:
    """The coefficient vector ``unit`` tensored with the identity of Mat_N."""
    cells = list(index_chains(size, 2))
    return tuple(c if p == q else ZERO for c in unit for p, q in cells)


class MatrixExtension:
    """The decorated space V (x) Mat_N with its inflation/restriction maps."""

    def __init__(self, base: GradedSymplecticSpace, size: int):
        letters, degrees, pairing = decorate(base.letters, base.degrees, base.pairing, size)
        self.base = base
        self.size = size
        self.space = GradedSymplecticSpace(
            letters, degrees, pairing, inverse=trace_tensor(base.inverse, size),
            dual_scales=tuple(s for s in base.dual_scales for _ in range(size * size)),
        )

    def encode(self, letter: int, row: int, col: int) -> int:
        return matrix_index(letter, row, col, self.size)

    def decode(self, index: int) -> tuple[int, int, int]:
        letter, rest = divmod(index, self.size * self.size)
        row, col = divmod(rest, self.size)
        return letter, row, col

    # -- the inflation map M ------------------------------------------

    def inflate_word(self, word) -> Element:
        """Sum over matrix decorations weighted by the trace of the
        product: letter t gets indices (p_t, p_{t+1}), cyclically."""
        raw = {}
        for chain in index_chains(self.size, len(word)):
            decorated = tuple(
                self.encode(letter, chain[t], chain[(t + 1) % len(word)])
                for t, letter in enumerate(word)
            )
            add_to(raw, (0, 0, (decorated,)), 1)
        return Element._from_raw(self.space, CYCLIC, raw)

    def inflate(self, element: Element) -> Element:
        """The map M on S(NCHam): multiplicative over factors, nu -> N nu;
        the words' decorated classes are multiplied as raw terms."""
        if element.space != self.base:
            raise ValueError("element does not live over the base space")
        if element.flavor != CYCLIC:
            raise ValueError("M is defined on cyclic-side elements")
        raw = {}
        for monomial, coeff in element.terms.items():
            products = {(): coeff * self.size ** monomial.nu}
            for word in monomial.words:
                classes = self.inflate_word(word).terms
                products = {words + m.words: c * d
                            for words, c in products.items() for m, d in classes.items()}
            for words, c in products.items():
                add_to(raw, (monomial.gamma, monomial.nu, words), c)
        return Element._from_raw(self.space, CYCLIC, raw)

    # -- the restriction map R ----------------------------------------

    def restrict(self, element: Element) -> Element:
        """Corner restriction: keep letters decorated (0,0), linear over
        nu and gamma."""
        if element.space != self.space:
            raise ValueError("element does not live over the matrix space")
        if element.flavor != CYCLIC:
            raise ValueError("R is defined on cyclic-side elements")
        raw = {}
        for monomial, coeff in element.terms.items():
            decoded = [[self.decode(index) for index in word] for word in monomial.words]
            if not any(row or col for word in decoded for _, row, col in word):
                add_to(raw, (monomial.gamma, monomial.nu,
                             tuple(tuple(letter for letter, _, _ in word) for word in decoded)),
                       coeff)
        return Element._from_raw(self.base, CYCLIC, raw)


def sigma(element: Element) -> Element:
    """Quotient to the commutative side: flatten words, nu -> 1."""
    if element.flavor != CYCLIC:
        raise ValueError("sigma takes cyclic-side elements")
    raw = {}
    for monomial, coeff in element.terms.items():
        if monomial.gamma:
            raise ValueError("sigma is not defined on genus-weighted monomials")
        add_to(raw, (0, 0, _letter_words(monomial)), coeff)
    return Element._from_raw(element.space, COMMUTATIVE, raw)


def _letter_words(monomial: Monomial) -> tuple:
    """The letters of a monomial's words, each as a one-letter word."""
    return tuple((letter,) for word in monomial.words for letter in word)


def sigma_K(element: Element) -> dict[int, Element]:
    """Weighted quotient: returns {h-power: commutative element}.

    A monomial gamma^i nu^j w_1...w_n carries weight h^{2i+j+n-1}; the
    empty symmetric product (i = j = n = 0) is outside the domain.
    """
    if element.flavor != CYCLIC:
        raise ValueError("sigma_K takes cyclic-side elements")
    graded: dict[int, dict] = {}
    for monomial, coeff in element.terms.items():
        n = len(monomial.words)
        if monomial.nu + n == 0:
            raise ValueError("sigma_K needs at least one word or nu factor")
        weight = 2 * monomial.gamma + monomial.nu + n - 1
        add_to(graded.setdefault(weight, {}), (0, 0, _letter_words(monomial)), coeff)
    out = {power: Element._from_raw(element.space, COMMUTATIVE, raw)
           for power, raw in graded.items()}
    return {power: el for power, el in out.items() if not el.is_zero()}

"""The odd bracket, cobracket, differentials and BV Laplacian.

All operators share one sign discipline: a formula produces raw letter
sequences together with the Koszul sign of the rearrangement that
brought the contracted letters to the front, and canonicalization (in
the element layer) supplies every remaining sign.  The conventions are
pinned operationally by the two-dimensional algebra of the GUE engine:
{x,xi} = 1 = {xi,x}, {(x),(xi)} = nu, cobracket(x xi) = nu^2 and the
regression table of moment polynomials.

Word-level contractions bring the paired letters to the front of their
words; the residual signs are

    bracket:    rot(u,i) . rot(v,j) . (-1)^{|b_j| |u - a_i|}
    cobracket:  rot(w,i) . (-1)^{|a_j| |arc between i and j|}

with the rotation signs rot and the arc parities read from the prefix
parities of ``words.prefix_parities``, which also checks the letters.

Every extension to pairs of factors is written once, as the kernel
``OperatorContext._pairs`` holding its transport sign: delta and the
Laplacian contract every pair i < j of a product's factors, each
bracket {a, b} only the cross pairs of the product ab;
the BV identity delta(ab) = delta(a) b + (-1)^{|a|} a delta(b) + {a, b}
is this split of the pairs of ab.  The cyclic and commutative
operators differ only in the contraction: on cyclic words it is
``bracket_words`` (the pair becomes one spliced word), on the one-letter
words of polynomials it is the inverse form (the pair disappears).  On
one-letter words the two agree up to the quotient sigma, which the
tests check.  The internal differential is a bracket too: d = -{q, -}
with q the quadratic part of the encoded structure, and -{sigma(q), -}
on polynomials.  The cobracket is the one odd derivation, replacing
each word in place with sign (-1)^{parity of the words before it}.

Raw terms are summed per call, and each distinct raw monomial is
canonicalized once: each operator call collects its raw terms in one map
{(gamma, nu, raw_words): coeff} (``_pairs`` and ``_cobracket`` write
into their caller's map, so delta_K's gamma-raised pairs share the
cobracket's) and builds its result through ``Element._from_raw``.

A periodic word is contracted once per period: ``bracket_words`` walks
one smallest period of each word, read from the space's word memo
through ``words.word_period``, and counts each term once per pair of
periods.  All m splices of {x^{l-1} xi, x^m}, for instance, are one
term m x^{l+m-2}, spliced once, since x^m has period 1.

Each context memoizes the contraction of cyclic words: ``_splice_words``
stores the terms of ``bracket_words(space, u, v)`` per pair (u, v) as
they come.  No two share a splice: the splice of (i, j) starts with the
rotation of u to u[i + 1] less its last letter, which fixes that
rotation, so i within one period, and then j.  The parities the kernels
need are read from the space's word memo through ``words.word_parity``.
Both memos hold pure functions of their keys, so threads sharing a
context at worst store an equal value twice.
"""

from .element import COMMUTATIVE, CYCLIC, Element
from .morita import sigma
from .scalar import Scalar, add_to
from .words import prefix_parities, rotation_sign, word_parity, word_period


def bracket_words(space, u, v):
    """Raw bracket of two cyclic words: list of (coeff, spliced letters).

    Pairs letter a_i of u with letter b_j of v through the inverse form
    and splices the remaining arcs into one cyclic word.  Positions one
    smallest period p apart carry the same letter, give the same splice
    and, in a nonzero class, the same sign (P_p is even in an even
    word), so i runs over the first p_u letters of u, j over the first
    p_v of v, and each term counts (|u|/p_u)(|v|/p_v) times.  In a zero
    class the terms cancel in pairs one period apart, so a zero class
    contracts to nothing.  A nonzero class has P_p = T mod 2, so the
    prefix parities of one period give every sign.
    """
    period_u, period_v = word_period(space, u), word_period(space, v)
    if period_u is None or period_v is None:
        return []
    copies = len(u) // period_u * (len(v) // period_v)
    inv = space.inverse
    parities = space.parities
    prefix_u = prefix_parities(space, u[:period_u])
    prefix_v = prefix_parities(space, v[:period_v])
    out = []
    for i in range(period_u):
        a = u[i]
        rest_parity = prefix_u[-1] ^ parities[a]
        sign_u = rotation_sign(prefix_u, i)
        row = inv[a]
        for j in range(period_v):
            b = v[j]
            coeff = row.get(b)
            if not coeff:
                continue
            sign = sign_u * rotation_sign(prefix_v, j)
            if rest_parity and parities[b]:
                sign = -sign
            splice = u[i + 1 :] + u[:i] + v[j + 1 :] + v[:j]
            out.append((copies * sign * coeff, splice))
    return out


def cobracket_word(space, word):
    """Raw cobracket of one cyclic word: list of (coeff, arc1, arc2)."""
    inv = space.inverse
    parities = space.parities
    prefix = prefix_parities(space, word)
    out = []
    for i in range(len(word)):
        row = inv[word[i]]
        for j in range(i + 1, len(word)):
            coeff = row.get(word[j])
            if not coeff:
                continue
            sign = rotation_sign(prefix, i)
            arc1_parity = prefix[j] ^ prefix[i + 1]
            if arc1_parity and parities[word[j]]:
                sign = -sign
            arc1 = word[i + 1 : j]
            arc2 = word[j + 1 :] + word[:i]
            out.append((sign * coeff, arc1, arc2))
    return out


def _word_parities(space, words):
    return [word_parity(space, w) for w in words]


class OperatorContext:
    """Shared state: the space and, optionally, the quadratic part q of
    an encoded structure (an even sum of single two-letter cyclic words
    over the space, without gamma or nu), which declares the internal
    differential d = -{q, -}; on polynomials d is -{sigma(q), -}.
    -q and -sigma(q) are built once, here.  ``_splices`` memoizes the
    splices of each pair of cyclic words (``_splice_words``)."""

    def __init__(self, space, quadratic=None):
        self.space = space
        self._splices = {}
        self._minus_q = None
        if quadratic is not None:
            if quadratic.space != space or quadratic.flavor != CYCLIC:
                raise ValueError("the quadratic part must be a cyclic element over this space")
            for m in quadratic.terms:
                if m.gamma or m.nu or len(m.words) != 1 or len(m.words[0]) != 2:
                    raise ValueError("the quadratic part must be a sum of two-letter words")
            if quadratic.parity() != 0:
                raise ValueError("the quadratic part must be even")
            self._minus_q = {CYCLIC: -quadratic, COMMUTATIVE: -sigma(quadratic)}

    def _require(self, element, flavor):
        if element.space != self.space:
            raise ValueError("element lives over a different space than this context")
        if element.flavor != flavor:
            raise ValueError(f"operation requires {flavor}-flavor elements")

    # -- contractions: two factors -> [(coeff, words replacing the pair)] --

    def _splice_words(self, u, v):
        """bracket_words(u, v) as [(c, (splice,))], memoized per (u, v)."""
        pairs = self._splices.get((u, v))
        if pairs is None:
            terms = bracket_words(self.space, u, v)
            pairs = self._splices[u, v] = [(c, (splice,)) for c, splice in terms]
        return pairs

    def _pair_letters(self, u, v):
        c = self.space.inverse[u[0]].get(v[0])
        return [(c, ())] if c else []

    # -- kernels: one transport sign each ----------------------------------

    def _pairs(self, raw, gamma, nu, words, coeff, contract, split=None):
        """Add to the raw terms ``raw`` the contraction of each pair i < j of ``words``
        (only the cross pairs i < split <= j when ``split`` is given),
        both factors moved to the front."""
        pars = _word_parities(self.space, words)
        prefix = [0]
        for p in pars:
            prefix.append(prefix[-1] + p)
        for i in range(len(words) if split is None else split):
            for j in range(i + 1 if split is None else split, len(words)):
                pairs = contract(words[i], words[j])
                if not pairs:
                    continue
                sign = 1
                if pars[i] and prefix[i] % 2:
                    sign = -sign
                if pars[j] and (prefix[j] + pars[i]) % 2:
                    sign = -sign
                rest = words[:i] + words[i + 1 : j] + words[j + 1 :]
                for c, merged in pairs:
                    add_to(raw, (gamma, nu, merged + rest), sign * c * coeff)

    def _biderivation(self, left, right, contract):
        """Contract every factor of ``left`` with every factor of ``right``:
        the cross pairs of the product (Leibniz in each argument)."""
        raw = {}
        for m1, c1 in left.terms.items():
            for m2, c2 in right.terms.items():
                self._pairs(raw, m1.gamma + m2.gamma, m1.nu + m2.nu, m1.words + m2.words,
                            c1 * c2, contract, split=len(m1.words))
        return Element._from_raw(self.space, left.flavor, raw)

    def _second_order(self, element, contract):
        """Contract each pair i < j of factors, moving both to the front."""
        raw = {}
        for m, c in element.terms.items():
            self._pairs(raw, m.gamma, m.nu, m.words, c, contract)
        return Element._from_raw(self.space, element.flavor, raw)

    def _cobracket(self, raw, element):
        """Add to the raw terms ``raw`` the cobracket of ``element``."""
        space = self.space
        for monomial, coeff in element.terms.items():
            words = monomial.words
            before = 0
            for i, word in enumerate(words):
                for c, arc1, arc2 in cobracket_word(space, word):
                    add_to(raw, (monomial.gamma, monomial.nu,
                                 words[:i] + (arc1, arc2) + words[i + 1 :]),
                           -c * coeff if before else c * coeff)
                before ^= word_parity(space, word)

    # -- cyclic side ----------------------------------------------------

    def nc_bracket(self, left: Element, right: Element) -> Element:
        """Odd Lie bracket on S(NCHam(V)), Leibniz-extended over factors."""
        self._require(left, CYCLIC)
        self._require(right, CYCLIC)
        return self._biderivation(left, right, self._splice_words)

    def nc_cobracket(self, element: Element) -> Element:
        """Cobracket, extended to products of words as an odd derivation:
        the two arcs replace word i in place, with sign (-1)^{parity of
        the words before i}."""
        self._require(element, CYCLIC)
        raw = {}
        self._cobracket(raw, element)
        return Element._from_raw(self.space, CYCLIC, raw)

    def ce_delta(self, element: Element) -> Element:
        """Chevalley-Eilenberg differential: bracket each pair of factors."""
        self._require(element, CYCLIC)
        return self._second_order(element, self._splice_words)

    def delta_K(self, element: Element) -> Element:
        """The combined differential: cobracket plus genus-weighted delta,
        the delta pairs added into the cobracket with gamma raised by one."""
        self._require(element, CYCLIC)
        raw = {}
        self._cobracket(raw, element)
        for m, c in element.terms.items():
            self._pairs(raw, m.gamma + 1, m.nu, m.words, c, self._splice_words)
        return Element._from_raw(self.space, CYCLIC, raw)

    # -- commutative side ------------------------------------------------

    def com_poisson(self, left: Element, right: Element) -> Element:
        """Odd Poisson bracket on polynomials, a biderivation on letters."""
        self._require(left, COMMUTATIVE)
        self._require(right, COMMUTATIVE)
        return self._biderivation(left, right, self._pair_letters)

    def bv_laplacian(self, element: Element) -> Element:
        """Second-order BV operator: contract all letter pairs with the
        inverse form; vanishes on constants and linear terms."""
        self._require(element, COMMUTATIVE)
        return self._second_order(element, self._pair_letters)

    # -- internal differential and Maurer-Cartan defect -------------------

    def internal_differential(self, element: Element) -> Element:
        """Degree +1 derivation d = -{q, -} on either flavor: the bracket
        with -q on cyclic elements, with -sigma(q) on polynomials."""
        if self._minus_q is None:
            raise ValueError("this context has no declared internal differential")
        return self.bracket(self._minus_q[element.flavor], element)

    def bracket(self, left: Element, right: Element) -> Element:
        """Flavor-appropriate odd bracket."""
        if left.flavor == CYCLIC:
            return self.nc_bracket(left, right)
        return self.com_poisson(left, right)

    def mc_defect(self, element: Element) -> Element:
        """Maurer-Cartan defect d(x) + (1/2){x,x}; zero iff x solves the
        master equation at this level.  d is the declared internal
        differential when present, zero otherwise."""
        half_sq = self.bracket(element, element).scale(Scalar(1, 2))
        if self._minus_q is None:
            return half_sq
        return self.internal_differential(element) + half_sq

"""Formal linear combinations of monomials over an odd symplectic space.

An Element is a finite map from canonical monomials to nonzero scalars,
tagged with the space it lives over and a flavor:

* ``CYCLIC`` -- elements of S(NCHam(V)): products of cyclic words with
  gamma/nu powers;
* ``COMMUTATIVE`` -- polynomials in the letters (the symmetric algebra
  on V*), represented as products of single-letter words with
  gamma = nu = 0.

Both flavors share the same canonicalization, addition and graded
product; the operators module enforces which operations make sense on
which flavor.

There are two ways in.  Outside terms (the constructor's and
``from_terms``') are coerced and checked once, by ``_coerced``.
Internal results (``sym_product``, the operators, the Morita maps, the
encodings) are trusted: they sum their raw terms in one map
{(gamma, nu, raw_words): coeff} and call ``_from_raw``, which
canonicalizes each distinct raw monomial once, or they filter the
canonical terms of an Element.  Canonicalization is a function of the
raw key, so summing first gives the same Element.
"""

from .scalar import Scalar, _field, add_to, as_int, format_scalar, parse_scalar
from .words import Monomial, canonicalize_monomial, prefix_parities, word_parity

CYCLIC = "cyclic"
COMMUTATIVE = "commutative"


def _coerced(raw_terms, space, flavor) -> dict:
    """Outside ``(gamma, nu, raw_words, coeff)`` items as raw terms summed
    per raw monomial, with every check of outside terms: powers and letters
    through ``as_int``, each word's letters through ``prefix_parities``, and
    on the commutative side gamma = nu = 0 and one-letter words.  Every
    item keeps an entry, at zero if its coefficients sum to zero, so that
    canonicalization still rejects negative powers."""
    raw = {}
    for gamma, nu, raw_words, coeff in raw_terms:
        gamma, nu = as_int(gamma, "gamma power"), as_int(nu, "nu power")
        words = tuple(tuple(as_int(letter, "letter index") for letter in word)
                      for word in raw_words)
        for word in words:
            prefix_parities(space, word)
        if flavor == COMMUTATIVE:
            if gamma or nu:
                raise ValueError("commutative-flavor monomials carry no gamma/nu powers")
            if any(len(word) != 1 for word in words):
                raise ValueError("commutative-flavor monomials are products of letters")
        key = (gamma, nu, words)
        raw[key] = raw.get(key, 0) + Scalar(coeff)
    return raw


class Element:
    __slots__ = ("space", "flavor", "terms")

    def __init__(self, space, flavor, terms=None):
        if flavor not in (CYCLIC, COMMUTATIVE):
            raise ValueError(f"unknown flavor {flavor!r}")
        self.space = space
        self.flavor = flavor
        self.terms: dict[Monomial, Scalar] = {}
        if terms:
            self._add_raw(_coerced(((*key, coeff) for key, coeff in terms.items()),
                                   space, flavor))

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, space, flavor=CYCLIC) -> "Element":
        return cls(space, flavor)

    @classmethod
    def from_terms(cls, space, flavor, raw_terms) -> "Element":
        """Build from ``(gamma, nu, raw_words, coeff)`` items, canonicalizing
        each as the constructor does its {monomial: coeff} entries."""
        return cls._from_raw(space, flavor, _coerced(raw_terms, space, flavor))

    @classmethod
    def _from_raw(cls, space, flavor, raw) -> "Element":
        out = cls(space, flavor)
        out._add_raw(raw)
        return out

    @classmethod
    def unit(cls, space, flavor=CYCLIC) -> "Element":
        return cls(space, flavor, {Monomial(0, 0, ()): Scalar(1)})

    @classmethod
    def cyclic_word(cls, space, letters, coeff=1) -> "Element":
        """The class of one raw cyclic word (canonicalized, possibly zero).

        ``letters`` is a sequence of letter names or indices; a bare
        string denotes a single letter.
        """
        if isinstance(letters, str):
            letters = [letters]
        names = [space.index(l) if isinstance(l, str) else l for l in letters]
        return cls.from_terms(space, CYCLIC, [(0, 0, [names], coeff)])

    @classmethod
    def nu_power(cls, space, power=1, coeff=1) -> "Element":
        return cls(space, CYCLIC, {Monomial(0, power, ()): Scalar(coeff)})

    @classmethod
    def poly_letters(cls, space, letters, coeff=1) -> "Element":
        """Commutative monomial from a sequence of letters."""
        if isinstance(letters, str):
            letters = [letters]
        names = [space.index(l) if isinstance(l, str) else l for l in letters]
        return cls.from_terms(space, COMMUTATIVE, [(0, 0, [[n] for n in names], coeff)])

    def _add_raw(self, raw) -> None:
        """Add the raw terms {(gamma, nu, raw_words): coeff}, canonicalizing
        each distinct raw monomial once."""
        for (gamma, nu, raw_words), coeff in raw.items():
            self._accumulate(gamma, nu, raw_words, coeff)

    def _accumulate(self, gamma, nu, raw_words, coeff) -> None:
        """Add coeff times the class of one raw monomial; a zero ``coeff``
        adds nothing but still canonicalizes the monomial."""
        canon = canonicalize_monomial(self.space, gamma, nu, raw_words)
        if canon is not None:
            monomial, sign = canon
            add_to(self.terms, monomial, coeff if sign > 0 else -coeff)

    # -- linear structure ---------------------------------------------

    def _require_same(self, other: "Element") -> None:
        if self.space != other.space:
            raise ValueError("elements live over different spaces")
        if self.flavor != other.flavor:
            raise ValueError("elements have different flavors")

    # Results of arithmetic on canonical terms fill an empty Element in
    # place; only the constructor and from_terms coerce outside input.

    def __add__(self, other: "Element") -> "Element":
        self._require_same(other)
        out = Element(self.space, self.flavor)
        out.terms = dict(self.terms)
        for monomial, coeff in other.terms.items():
            add_to(out.terms, monomial, coeff)
        return out

    def __neg__(self) -> "Element":
        out = Element(self.space, self.flavor)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, coeff) -> "Element":
        coeff = Scalar(coeff)
        out = Element(self.space, self.flavor)
        if coeff:
            out.terms = {m: Scalar(coeff * c) for m, c in self.terms.items()}
        return out

    def __rmul__(self, coeff) -> "Element":
        return self.scale(coeff)

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.sym_product(other)
        return self.scale(other)

    def sym_product(self, other: "Element") -> "Element":
        """Graded-commutative product, Koszul signs via renormalization."""
        self._require_same(other)
        raw = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                add_to(raw, (m1.gamma + m2.gamma, m1.nu + m2.nu, m1.words + m2.words), c1 * c2)
        return Element._from_raw(self.space, self.flavor, raw)

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.space == other.space
            and self.flavor == other.flavor
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("Elements are not hashable")

    def _parity(self, monomial: Monomial) -> int:
        return sum(word_parity(self.space, word) for word in monomial.words) % 2

    def parity(self):
        """Parity if homogeneous, else None."""
        parities = {self._parity(m) for m in self.terms}
        if not parities:
            return 0
        if len(parities) == 1:
            return parities.pop()
        return None

    def parity_part(self, parity: int) -> "Element":
        out = Element(self.space, self.flavor)
        out.terms = {m: c for m, c in self.terms.items() if self._parity(m) == parity}
        return out

    # -- display and serialization --------------------------------------

    def _format_monomial(self, monomial: Monomial) -> str:
        pieces = []
        if monomial.gamma:
            pieces.append("g" if monomial.gamma == 1 else f"g^{monomial.gamma}")
        if monomial.nu:
            pieces.append("v" if monomial.nu == 1 else f"v^{monomial.nu}")
        for word in monomial.words:
            pieces.append("(" + " ".join(self.space.letters[l] for l in word) + ")")
        return "".join(pieces) if pieces else "1"

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for monomial in sorted(self.terms):
            coeff = self.terms[monomial]
            bits.append(f"{format_scalar(coeff)}*{self._format_monomial(monomial)}")
        return " + ".join(bits)

    def to_json(self) -> list:
        out = []
        for monomial in sorted(self.terms):
            out.append(
                {
                    "gamma": monomial.gamma,
                    "nu": monomial.nu,
                    "words": [[self.space.letters[l] for l in word] for word in monomial.words],
                    "coeff": format_scalar(self.terms[monomial]),
                }
            )
        return out

    @classmethod
    def from_json(cls, space, flavor, data) -> "Element":
        if not isinstance(data, list):
            raise ValueError("an element is not a list of terms")
        raw = []
        for i, item in enumerate(data):
            what = f"element term {i}"
            words = [[space.index(name) for name in word]
                     for word in _field(item, "words", what, list, each=list)]
            raw.append((_field(item, "gamma", what, default=0), _field(item, "nu", what, default=0),
                        words, parse_scalar(_field(item, "coeff", what))))
        return cls.from_terms(space, flavor, raw)

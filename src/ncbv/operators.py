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

with the rotation signs rot from ``words.rotation_signs``.

Each extension to products of factors is written once, as a kernel of
``OperatorContext`` holding its transport sign:

    _biderivation   Leibniz rule in both arguments   (bracket, Poisson)
    _second_order   contraction of a pair of factors (delta, Laplacian)
    _derivation     odd derivation on each factor    (cobracket, d)

The cyclic and commutative operators differ only in the contraction
handed to the first two: on cyclic words it is ``bracket_words`` (the
pair becomes one spliced word), on the one-letter words of polynomials
it is the inverse form (the pair disappears).  On one-letter words the
two agree up to the quotient sigma, which the tests check.
"""

from .element import COMMUTATIVE, CYCLIC, Element
from .scalar import Scalar
from .words import Monomial, rotation_signs, word_parity


def _prefix_parities(space, word):
    """prefix[i] = parity of letters strictly before position i."""
    parities = space.parities
    out = [0] * (len(word) + 1)
    for i, letter in enumerate(word):
        out[i + 1] = out[i] ^ parities[letter]
    return out


def bracket_words(space, u, v):
    """Raw bracket of two cyclic words: list of (coeff, spliced letters).

    Pairs letter a_i of u with letter b_j of v through the inverse form
    and splices the remaining arcs into one cyclic word.
    """
    inv = space.inverse
    parities = space.parities
    rot_u = rotation_signs(space, u)
    rot_v = rotation_signs(space, v)
    parity_u = word_parity(space, u)
    out = []
    for i, a in enumerate(u):
        rest_parity = parity_u ^ parities[a]
        for j, b in enumerate(v):
            coeff = inv[a][b]
            if not coeff:
                continue
            sign = rot_u[i] * rot_v[j]
            if rest_parity and parities[b]:
                sign = -sign
            splice = u[i + 1 :] + u[:i] + v[j + 1 :] + v[:j]
            out.append((sign * coeff, splice))
    return out


def cobracket_word(space, word):
    """Raw cobracket of one cyclic word: list of (coeff, arc1, arc2)."""
    inv = space.inverse
    parities = space.parities
    rot = rotation_signs(space, word)
    prefix = _prefix_parities(space, word)
    out = []
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            coeff = inv[word[i]][word[j]]
            if not coeff:
                continue
            sign = rot[i]
            arc1_parity = prefix[j] ^ prefix[i + 1]
            if arc1_parity and parities[word[j]]:
                sign = -sign
            arc1 = word[i + 1 : j]
            arc2 = word[j + 1 :] + word[:i]
            out.append((sign * coeff, arc1, arc2))
    return out


def _word_parities(space, words):
    return [word_parity(space, w) for w in words]


def _odd_derivation(factors, parities, images):
    """Terms of an odd derivation on the product of ``factors``: factor i
    is replaced by each ``(coeff, replacement factors)`` of
    ``images(factor)``, with sign (-1)^{parity of the factors before i}."""
    prefix = 0
    for i, factor in enumerate(factors):
        for c, replacement in images(factor):
            yield (-c if prefix else c), factors[:i] + replacement + factors[i + 1 :]
        prefix ^= parities[i]


class OperatorContext:
    """Shared read-only state: the space, its inverse form and an optional
    internal differential given on letters (letter -> [(coeff, letter)])."""

    def __init__(self, space, letter_diff=None):
        self.space = space
        if letter_diff is not None:
            letter_diff = {
                letter: tuple((Scalar(c), target) for c, target in images)
                for letter, images in letter_diff.items()
            }
        self.letter_diff = letter_diff

    def _require(self, element, flavor):
        if element.space != self.space:
            raise ValueError("element lives over a different space than this context")
        if element.flavor != flavor:
            raise ValueError(f"operation requires {flavor}-flavor elements")

    # -- contractions: two factors -> [(coeff, words replacing the pair)] --

    def _splice_words(self, u, v):
        return [(c, (splice,)) for c, splice in bracket_words(self.space, u, v)]

    def _pair_letters(self, u, v):
        c = self.space.inverse[u[0]][v[0]]
        return [(c, ())] if c else []

    # -- kernels: one transport sign each ----------------------------------

    def _biderivation(self, left, right, contract):
        """Contract every factor of ``left`` with every factor of ``right``,
        moving both to the front (Leibniz in each argument)."""
        space = self.space
        out = Element.zero(space, left.flavor)
        for m1, c1 in left.terms.items():
            pars1 = _word_parities(space, m1.words)
            total1 = sum(pars1) % 2
            for m2, c2 in right.terms.items():
                pars2 = _word_parities(space, m2.words)
                base = c1 * c2
                pre1 = 0
                for i, w1 in enumerate(m1.words):
                    rest1 = m1.words[:i] + m1.words[i + 1 :]
                    pre2 = 0
                    for j, w2 in enumerate(m2.words):
                        pairs = contract(w1, w2)
                        if pairs:
                            sign = 1
                            if pars1[i] and pre1 % 2:
                                sign = -sign
                            if pars2[j] and (total1 + pars1[i] + pre2) % 2:
                                sign = -sign
                            rest = rest1 + m2.words[:j] + m2.words[j + 1 :]
                            for coeff, merged in pairs:
                                out._accumulate(
                                    m1.gamma + m2.gamma,
                                    m1.nu + m2.nu,
                                    merged + rest,
                                    sign * coeff * base,
                                )
                        pre2 += pars2[j]
                    pre1 += pars1[i]
        return out

    def _second_order(self, element, contract):
        """Contract each pair i < j of factors, moving both to the front."""
        space = self.space
        out = Element.zero(space, element.flavor)
        for monomial, coeff in element.terms.items():
            words = monomial.words
            pars = _word_parities(space, words)
            prefix = [0]
            for p in pars:
                prefix.append(prefix[-1] + p)
            for i in range(len(words)):
                for j in range(i + 1, len(words)):
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
                        out._accumulate(
                            monomial.gamma, monomial.nu, merged + rest, sign * c * coeff
                        )
        return out

    def _derivation(self, element, images):
        """The odd derivation sending each word to ``images(word)``."""
        space = self.space
        out = Element.zero(space, element.flavor)
        for monomial, coeff in element.terms.items():
            words = monomial.words
            for c, new_words in _odd_derivation(words, _word_parities(space, words), images):
                out._accumulate(monomial.gamma, monomial.nu, new_words, c * coeff)
        return out

    # -- cyclic side ----------------------------------------------------

    def nc_bracket(self, left: Element, right: Element) -> Element:
        """Odd Lie bracket on S(NCHam(V)), Leibniz-extended over factors."""
        self._require(left, CYCLIC)
        self._require(right, CYCLIC)
        return self._biderivation(left, right, self._splice_words)

    def nc_cobracket(self, element: Element) -> Element:
        """Cobracket, extended to products of words as an odd derivation;
        the two arcs replace the word in place."""
        self._require(element, CYCLIC)
        space = self.space

        def arcs(word):
            return [(c, (arc1, arc2)) for c, arc1, arc2 in cobracket_word(space, word)]

        return self._derivation(element, arcs)

    def ce_delta(self, element: Element) -> Element:
        """Chevalley-Eilenberg differential: bracket each pair of factors."""
        self._require(element, CYCLIC)
        return self._second_order(element, self._splice_words)

    def delta_K(self, element: Element) -> Element:
        """The combined differential: cobracket plus genus-weighted delta."""
        grad = self.nc_cobracket(element)
        bumped = {
            Monomial(m.gamma + 1, m.nu, m.words): c
            for m, c in self.ce_delta(element).terms.items()
        }
        return grad + Element(self.space, CYCLIC, bumped)

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
        """Degree +1 derivation induced by the declared letter differential.

        Works on both flavors: words of letters and polynomials extend
        the same way, the letter differential acting as an odd derivation
        on the letters of each word."""
        if self.letter_diff is None:
            raise ValueError("this context has no declared internal differential")
        if element.space != self.space:
            raise ValueError("element lives over a different space than this context")
        space = self.space
        letter_diff = self.letter_diff

        def letter_images(letter):
            return [(c, (target,)) for c, target in letter_diff.get(letter, ())]

        def word_images(word):
            parities = [space.parities[letter] for letter in word]
            return [
                (c, (new_word,))
                for c, new_word in _odd_derivation(word, parities, letter_images)
            ]

        return self._derivation(element, word_images)

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
        if self.letter_diff is None:
            return half_sq
        return self.internal_differential(element) + half_sq

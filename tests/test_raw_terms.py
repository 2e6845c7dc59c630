"""Raw terms are summed per call, and each distinct raw monomial is
canonicalized once: the operators, the graded product and the Morita
maps against references that canonicalize every raw term on its own or
build one Element per monomial; no internal result goes through the
check of outside terms."""

import random

import pytest

from ncbv import GueReducer, element
from ncbv.ainfinity import (encode_ainfinity, encode_commutator_linfinity, letter_differential,
                            matrix_ainfinity)
from ncbv.algebras import algebra_a, exterior_line, sigma_a_context, sigma_a_space
from ncbv.element import COMMUTATIVE, CYCLIC, Element
from ncbv.morita import MatrixExtension, sigma, sigma_K
from ncbv.operators import OperatorContext, bracket_words, cobracket_word
from ncbv.reduction import XI, X, _pair_image, _pivot_image
from ncbv.scalar import Scalar
from ncbv.verify import _random_cases, random_commutative_element, random_cyclic_element
from ncbv.words import Monomial, word_parity


def test_equal_splices_are_canonicalized_once(monkeypatch):
    """All 20 splices of {x^19 xi, x^20} are the raw word x^38."""
    _pivot_image.cache_clear()
    _pair_image.cache_clear()
    seen = []
    canonicalize = element.canonicalize_monomial

    def counted(space, gamma, nu, raw_words):
        seen.append(tuple(map(tuple, raw_words)))
        return canonicalize(space, gamma, nu, raw_words)

    monkeypatch.setattr(element, "canonicalize_monomial", counted)
    image = _pair_image(20, 20)
    assert image == {(0, (38,)): 20}
    pivot, power, splice = ((X,) * 19 + (XI,),), ((X,) * 20,), ((X,) * 38,)
    assert seen == [pivot, power, splice]


@pytest.mark.parametrize("gamma, letter", [(-1, 0), (0, 7)])
def test_cancelling_items_are_still_checked(gamma, letter):
    """Outside items are summed per raw monomial before it is canonicalized;
    a monomial whose items cancel, or whose one item is zero, is checked
    all the same."""
    space = sigma_a_space()
    for items in ([(gamma, 0, [[letter]], 1), (gamma, 0, [[letter]], -1)],
                  [(gamma, 0, [[letter]], 0)]):
        with pytest.raises(ValueError):
            Element.from_terms(space, CYCLIC, items)
    with pytest.raises(ValueError):  # "0" and 0 read as the same nu power
        Element(space, CYCLIC, {(gamma, 0, ((letter,),)): 1, (gamma, "0", ((letter,),)): -1})
    with pytest.raises(ValueError):
        Element(space, CYCLIC, {(gamma, 0, ((letter,),)): 0})


# -- term-by-term references ------------------------------------------------


def term_by_term(space, flavor, raw):
    """Sum of ``Element.from_terms`` of each raw term alone."""
    out = Element.zero(space, flavor)
    for term in raw:
        out = out + Element.from_terms(space, flavor, [term])
    return out


def splice(space, u, v):
    return [(c, (w,)) for c, w in bracket_words(space, u, v)]


def pair_letters(space, u, v):
    c = space.inverse[u[0]].get(v[0])
    return [(c, ())] if c else []


def pair_terms(space, gamma, nu, words, coeff, contract, split=None):
    """Raw terms contracting factors i < j (only i < split <= j when given):
    factor i moves to the front past the factors before it, then factor j
    past the factors before it other than i."""
    pars = [word_parity(space, w) for w in words]
    raw = []
    for i in range(len(words) if split is None else split):
        for j in range(i + 1 if split is None else split, len(words)):
            passed = pars[i] * sum(pars[:i]) + pars[j] * (sum(pars[:j]) - pars[i])
            sign = -1 if passed % 2 else 1
            rest = words[:i] + words[i + 1 : j] + words[j + 1 :]
            for c, merged in contract(space, words[i], words[j]):
                raw.append((gamma, nu, merged + rest, sign * c * coeff))
    return raw


def cross_terms(left, right, contract):
    raw = []
    for m1, c1 in left.terms.items():
        for m2, c2 in right.terms.items():
            raw += pair_terms(left.space, m1.gamma + m2.gamma, m1.nu + m2.nu,
                              m1.words + m2.words, c1 * c2, contract, len(m1.words))
    return raw


def all_pair_terms(e, contract, raise_gamma=0):
    raw = []
    for m, c in e.terms.items():
        raw += pair_terms(e.space, m.gamma + raise_gamma, m.nu, m.words, c, contract)
    return raw


def cobracket_terms(e):
    raw = []
    for m, coeff in e.terms.items():
        before = 0
        for i, w in enumerate(m.words):
            for c, arc1, arc2 in cobracket_word(e.space, w):
                words = m.words[:i] + (arc1, arc2) + m.words[i + 1 :]
                raw.append((m.gamma, m.nu, words, -c * coeff if before else c * coeff))
            before ^= word_parity(e.space, w)
    return raw


def product_terms(a, b):
    return [(m1.gamma + m2.gamma, m1.nu + m2.nu, m1.words + m2.words, c1 * c2)
            for m1, c1 in a.terms.items() for m2, c2 in b.terms.items()]


CASES = {
    "nc_bracket": (CYCLIC, lambda ctx, a, b: ctx.nc_bracket(a, b),
                   lambda a, b: cross_terms(a, b, splice)),
    "nc_cobracket": (CYCLIC, lambda ctx, a, b: ctx.nc_cobracket(a), lambda a, b: cobracket_terms(a)),
    "ce_delta": (CYCLIC, lambda ctx, a, b: ctx.ce_delta(a), lambda a, b: all_pair_terms(a, splice)),
    "delta_K": (CYCLIC, lambda ctx, a, b: ctx.delta_K(a),
                lambda a, b: cobracket_terms(a) + all_pair_terms(a, splice, raise_gamma=1)),
    "com_poisson": (COMMUTATIVE, lambda ctx, a, b: ctx.com_poisson(a, b),
                    lambda a, b: cross_terms(a, b, pair_letters)),
    "bv_laplacian": (COMMUTATIVE, lambda ctx, a, b: ctx.bv_laplacian(a),
                     lambda a, b: all_pair_terms(a, pair_letters)),
    "sym_product": (CYCLIC, lambda ctx, a, b: a.sym_product(b), product_terms),
    "sym_product_commutative": (COMMUTATIVE, lambda ctx, a, b: a.sym_product(b), product_terms),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_operator_equals_its_term_by_term_reference(name):
    flavor, operate, terms = CASES[name]
    nonzero = 0
    for _, rng, space, ctx in _random_cases(60, seed=5):
        if flavor == CYCLIC:
            a, b = (random_cyclic_element(rng, space, max_terms=3, max_words=3, allow_gamma=True)
                    for _ in range(2))
        else:
            a, b = (random_commutative_element(rng, space, max_terms=3) for _ in range(2))
        got = operate(ctx, a, b)
        assert got == term_by_term(space, flavor, terms(a, b)), (a, b)
        nonzero += not got.is_zero()
    assert nonzero >= 20


# -- the Morita maps against the formulas they replace -----------------------


def inflate_reference(ext, e):
    """M as a chain of graded products, one Element per monomial."""
    out = Element.zero(ext.space, CYCLIC)
    for monomial, coeff in e.terms.items():
        piece = Element(ext.space, CYCLIC, {Monomial(monomial.gamma, monomial.nu, ()):
                                            coeff * Scalar(ext.size) ** monomial.nu})
        for word in monomial.words:
            piece = piece.sym_product(ext.inflate_word(word))
        out = out + piece
    return out


def restrict_reference(ext, e):
    """R as a loop that flags a monomial dead at its first off-corner letter."""
    raw = []
    for monomial, coeff in e.terms.items():
        words = []
        dead = False
        for word in monomial.words:
            stripped = []
            for index in word:
                letter, row, col = ext.decode(index)
                if row or col:
                    dead = True
                    break
                stripped.append(letter)
            if dead:
                break
            words.append(stripped)
        if not dead:
            raw.append((monomial.gamma, monomial.nu, words, coeff))
    return Element.from_terms(ext.base, CYCLIC, raw)


def corner(ext, e):
    """``e`` with every letter moved to the (0, 0) corner."""
    return Element.from_terms(ext.space, CYCLIC, [
        (m.gamma, m.nu, [[ext.encode(l, 0, 0) for l in w] for w in m.words], c)
        for m, c in e.terms.items()])


@pytest.mark.parametrize("size", [1, 2, 3])
def test_inflate_and_restrict_equal_their_references(size):
    nonzero = 0
    for _, rng, space, _ in _random_cases(16, seed=size):
        ext = MatrixExtension(space, size)
        e = random_cyclic_element(rng, space, max_words=3, allow_gamma=True)
        inflated = ext.inflate(e)
        assert inflated == inflate_reference(ext, e), e
        nonzero += not inflated.is_zero()
        stray = random_cyclic_element(rng, ext.space, max_words=3, allow_gamma=True)
        for upstairs in (inflated, stray, corner(ext, e), corner(ext, e) + stray):
            restricted = ext.restrict(upstairs)
            assert restricted == restrict_reference(ext, upstairs), upstairs
            nonzero += not restricted.is_zero()
    assert nonzero >= 24


# -- internal results never coerce --------------------------------------------


def cold_reduce():
    """A reduction that builds every table it reads."""
    _pivot_image.cache_clear()
    _pair_image.cache_clear()
    return GueReducer().reduce((5, 3, 2))


def test_internal_producers_run_without_the_outside_check(monkeypatch):
    space = sigma_a_space()
    ext = MatrixExtension(space, 2)
    mat = matrix_ainfinity(algebra_a(), 2)
    line = exterior_line()
    ctx = sigma_a_context()
    rng = random.Random(3)
    a, b = (random_cyclic_element(rng, space, max_words=3, allow_gamma=True) for _ in range(2))
    c = random_cyclic_element(rng, space, max_terms=3, max_words=3)
    p, r = (random_commutative_element(rng, space, max_terms=3) for _ in range(2))
    upstairs = random_cyclic_element(rng, ext.space, max_words=2) + ext.inflate(a)
    runs = {
        "inflate": lambda: ext.inflate(a),
        "restrict": lambda: ext.restrict(upstairs),
        "sigma": lambda: sigma(c),
        "sigma_K": lambda: sigma_K(b),
        "letter_differential": lambda: letter_differential(mat, ext.space),
        "encode_ainfinity": lambda: encode_ainfinity(line, space),
        "encode_commutator_linfinity": lambda: encode_commutator_linfinity(line, space),
        "context": lambda: OperatorContext(space, letter_differential(algebra_a(), space))
        .mc_defect(a),
        "nc_bracket": lambda: ctx.nc_bracket(a, b),
        "nc_cobracket": lambda: ctx.nc_cobracket(a),
        "ce_delta": lambda: ctx.ce_delta(a),
        "delta_K": lambda: ctx.delta_K(a),
        "com_poisson": lambda: ctx.com_poisson(p, r),
        "bv_laplacian": lambda: ctx.bv_laplacian(p),
        "internal_differential": lambda: (ctx.internal_differential(a),
                                          ctx.internal_differential(p)),
        "bracket": lambda: (ctx.bracket(a, b), ctx.bracket(p, r)),
        "mc_defect": lambda: (ctx.mc_defect(a), ctx.mc_defect(p)),
        "arithmetic": lambda: (a * b - b.scale(3), -p + r),
        "reduce": cold_reduce,
    }
    expected = {name: run() for name, run in runs.items()}

    def outside_check(*args):
        raise AssertionError("an internal result was coerced as outside input")

    monkeypatch.setattr(element, "_coerced", outside_check)
    with pytest.raises(AssertionError):
        Element.cyclic_word(space, "x")
    for name, run in runs.items():
        assert run() == expected[name], name

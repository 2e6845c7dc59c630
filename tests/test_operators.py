"""The bracket, cobracket, differentials and Laplacian on the
two-dimensional algebra: every pinned value of the moment calculus."""

import random

import pytest

from ncbv import CYCLIC, Element, OperatorContext, Scalar, sigma
from ncbv.algebras import algebra_a, sigma_a_context, sigma_a_space
from ncbv.ainfinity import encode_ainfinity
from ncbv.operators import bracket_words, cobracket_word
from ncbv.verify import random_space
from ncbv.words import Monomial, canonicalize_cyclic

SPACE = sigma_a_space()
CTX = sigma_a_context()


def word(letters, coeff=1):
    return Element.cyclic_word(SPACE, letters, coeff)


def poly(letters, coeff=1):
    return Element.poly_letters(SPACE, letters, coeff)


def nu(power=1, coeff=1):
    return Element.nu_power(SPACE, power, coeff)


def test_bracket_word_against_power():
    assert CTX.nc_bracket(word(["x", "xi"]), word(["x", "x"])) == word(["x", "x"], 2)


def test_bracket_even_letter_self():
    assert CTX.nc_bracket(word("x"), word("x")).is_zero()


def test_bracket_single_letters_gives_nu():
    assert CTX.nc_bracket(word("x"), word("xi")) == nu()


def test_bracket_nu_central():
    e = word(["x", "x", "xi"])
    assert CTX.nc_bracket(nu(2), e).is_zero()


def test_cobracket_two_letter_word():
    assert CTX.nc_cobracket(word(["x", "xi"])) == nu(2)


def test_cobracket_four_letter_word():
    expected = (nu() * word(["x", "x"])).scale(2) + word("x") * word("x")
    assert CTX.nc_cobracket(word(["x", "x", "x", "xi"])) == expected


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_cobracket_vanishes_on_pure_powers(k):
    assert CTX.nc_cobracket(word(["x"] * k)).is_zero()


def _x_power_product(count):
    out = Element.unit(SPACE, CYCLIC)
    for _ in range(count):
        out = out * Element.cyclic_word(SPACE, "x")
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_delta_on_ones_times_xi(n):
    product = word("xi")
    for _ in range(2 * n - 1):
        product = product * word("x")
    expected = (nu() * _x_power_product(2 * n - 2)).scale(2 * n - 1)
    assert CTX.ce_delta(product) == expected


def test_delta_xi_against_cube():
    assert CTX.ce_delta(word("xi") * word(["x", "x", "x"])) == word(["x", "x"], 3)


def test_delta_single_word_vanishes():
    assert CTX.ce_delta(word(["x", "x", "xi"])).is_zero()


def test_delta_k_values():
    got = CTX.delta_K(word("x") * word("xi"))
    assert got == Element(SPACE, CYCLIC, {Monomial(1, 1, ()): Scalar(1)})
    assert CTX.delta_K(word(["x", "xi"])) == nu(2)


def test_delta_k_squares_to_zero_randomized():
    from ncbv.verify import random_cyclic_element, random_space

    rng = random.Random(17)
    for _ in range(80):
        space = random_space(rng)
        ctx = OperatorContext(space)
        e = random_cyclic_element(rng, space, max_words=3)
        assert ctx.delta_K(ctx.delta_K(e)).is_zero()


def test_delta_fails_to_be_a_derivation_by_the_bracket():
    """Cyclic BV identity: delta(ab) = delta(a) b + (-1)^{|a|} a delta(b) + {a, b}."""
    from ncbv.verify import homogeneous, random_cyclic_element, random_space

    rng = random.Random(41)
    for _ in range(400):
        space = random_space(rng)
        ctx = OperatorContext(space)
        a = homogeneous(rng, lambda r: random_cyclic_element(r, space, max_words=3))
        b = random_cyclic_element(rng, space, max_words=3)
        sign = -1 if a.parity() else 1
        rhs = (ctx.ce_delta(a) * b + (a * ctx.ce_delta(b)).scale(sign)
               + ctx.nc_bracket(a, b))
        assert ctx.ce_delta(a * b) == rhs


def test_poisson_pinned_values():
    assert CTX.com_poisson(poly("x"), poly("xi")) == Element.unit(SPACE, "commutative")
    assert CTX.com_poisson(poly("xi"), poly("x")) == Element.unit(SPACE, "commutative")
    assert CTX.com_poisson(poly(["x", "x"]), poly("xi")) == poly("x", 2)
    anything = poly(["x", "x", "xi"], 3)
    assert CTX.com_poisson(anything, Element.unit(SPACE, "commutative")).is_zero()


def test_laplacian_pinned_values():
    assert CTX.bv_laplacian(poly("x")).is_zero()
    assert CTX.bv_laplacian(Element.unit(SPACE, "commutative")).is_zero()
    assert CTX.bv_laplacian(poly(["x", "xi"])) == Element.unit(SPACE, "commutative")
    assert CTX.bv_laplacian(poly(["x", "x", "xi"])) == poly("x", 2)


def test_commutative_operators_are_cyclic_ones_on_letters():
    """On one-letter words the Poisson bracket and the BV Laplacian are
    sigma of the cyclic bracket and delta: only the contraction differs."""
    from ncbv.verify import random_commutative_element, random_space

    rng = random.Random(23)
    for _ in range(300):
        space = random_space(rng)
        ctx = OperatorContext(space)
        f = random_commutative_element(rng, space, max_terms=3, max_len=4)
        g = random_commutative_element(rng, space, max_terms=3, max_len=4)
        f_cyc = Element(space, CYCLIC, f.terms)
        g_cyc = Element(space, CYCLIC, g.terms)
        assert ctx.bv_laplacian(f) == sigma(ctx.ce_delta(f_cyc))
        assert ctx.com_poisson(f, g) == sigma(ctx.nc_bracket(f_cyc, g_cyc))


def test_internal_differential_words():
    for i in (2, 3, 5):
        lhs = CTX.internal_differential(word(["x"] * (i - 1) + ["xi"]))
        assert lhs == word(["x"] * i, -1)
    assert CTX.internal_differential(word("xi") * word(["x", "x", "x"])) == (
        word("x") * word(["x", "x", "x"])
    ).scale(-1)


def test_internal_differential_squares_to_zero():
    from ncbv.verify import random_cyclic_element

    rng = random.Random(29)
    for _ in range(60):
        e = random_cyclic_element(rng, SPACE, max_words=3)
        assert CTX.internal_differential(CTX.internal_differential(e)).is_zero()


def test_mc_defect_encoded_structure():
    plain = OperatorContext(SPACE)  # no internal differential: d = 0
    m_tilde = encode_ainfinity(algebra_a(), SPACE)
    assert plain.mc_defect(m_tilde).is_zero()


def test_mc_defect_negative_control():
    plain = OperatorContext(SPACE)
    m_tilde = encode_ainfinity(algebra_a(), SPACE)
    perturbed = m_tilde + word(["x", "x", "xi"])
    assert not plain.mc_defect(perturbed).is_zero()


def test_operator_requires_matching_space():
    from ncbv.verify import random_space

    other = random_space(random.Random(5))
    with pytest.raises(ValueError, match="different space"):
        CTX.nc_bracket(word("x"), Element.cyclic_word(other, [0]))


def test_missing_differential_rejected():
    plain = OperatorContext(SPACE)
    with pytest.raises(ValueError, match="internal differential"):
        plain.internal_differential(word("x"))


def stepwise_rotation_signs(space, word):
    """sign[i] of rotating ``word`` so position i comes first, one letter
    at a time: an odd letter passing a rest of odd parity flips the sign."""
    parities = [degree % 2 for degree in space.degrees]
    total = sum(parities[letter] for letter in word) % 2
    signs, sign = [1], 1
    for letter in word[:-1]:
        if parities[letter] and (total - parities[letter]) % 2:
            sign = -sign
        signs.append(sign)
    return signs


def reference_bracket_words(space, u, v):
    parities = [degree % 2 for degree in space.degrees]
    rot_u, rot_v = stepwise_rotation_signs(space, u), stepwise_rotation_signs(space, v)
    out = []
    for i, a in enumerate(u):
        rest_parity = (sum(parities[letter] for letter in u) - parities[a]) % 2
        for j, b in enumerate(v):
            coeff = space.inverse[a].get(b)
            if coeff:
                sign = rot_u[i] * rot_v[j] * (-1 if rest_parity and parities[b] else 1)
                out.append((sign * coeff, u[i + 1 :] + u[:i] + v[j + 1 :] + v[:j]))
    return out


def reference_cobracket_word(space, w):
    parities = [degree % 2 for degree in space.degrees]
    rot = stepwise_rotation_signs(space, w)
    out = []
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            coeff = space.inverse[w[i]].get(w[j])
            if coeff:
                arc1 = w[i + 1 : j]
                arc1_parity = sum(parities[letter] for letter in arc1) % 2
                sign = rot[i] * (-1 if arc1_parity and parities[w[j]] else 1)
                out.append((sign * coeff, arc1, w[j + 1 :] + w[:i]))
    return out


def test_word_contractions_match_stepwise_rotation_signs():
    """bracket_words and cobracket_word, entry for entry and in order,
    against rotation signs folded one letter at a time, over random
    canonical words of length 1-8 (periodic words u^m included)."""
    rng = random.Random(83)
    flipped = periodic = 0
    for _ in range(300):
        space = random_space(rng)
        words = []
        for _ in range(4):
            unit = [rng.randrange(space.dim) for _ in range(rng.randint(1, 8))]
            for raw in (unit, unit[:2] * rng.randint(2, 4)):
                canon = canonicalize_cyclic(raw, space)
                if canon is not None:
                    words.append(canon[0])
        for w in words:
            expected = reference_cobracket_word(space, w)
            assert cobracket_word(space, w) == expected
            flipped += -1 in stepwise_rotation_signs(space, w)
            periodic += any(w == w[p:] + w[:p] for p in range(1, len(w)))
        for u, v in zip(words, words[1:]):
            assert bracket_words(space, u, v) == reference_bracket_words(space, u, v)
    assert flipped and periodic

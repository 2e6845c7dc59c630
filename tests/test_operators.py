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


@pytest.mark.parametrize("quadratic, message", [
    (word(["x", "x", "x"]), "two-letter words"),
    (word("x") * word("x"), "two-letter words"),
    (nu() * word(["x", "x"]), "two-letter words"),
    (word(["x", "xi"]), "even"),
    (poly(["x", "x"]), "cyclic element over this space"),
    (Element.cyclic_word(random_space(random.Random(5)), [0, 0]),
     "cyclic element over this space"),
])
def test_context_rejects_a_bad_quadratic_part(quadratic, message):
    with pytest.raises(ValueError, match=message):
        OperatorContext(SPACE, quadratic)


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


def per_splice(pairs):
    """A raw bracket list summed per spliced word, zero sums dropped."""
    summed = {}
    for c, splice in pairs:
        summed[splice] = summed.get(splice, 0) + c
    return {splice: c for splice, c in summed.items() if c}


def test_word_contractions_match_stepwise_rotation_signs():
    """cobracket_word entry for entry and in order, and bracket_words
    summed per splice (it walks one period of each word), against
    rotation signs folded one letter at a time, over random canonical
    words of length 1-8 (periodic words u^m included)."""
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
            expected = per_splice(reference_bracket_words(space, u, v))
            assert per_splice(bracket_words(space, u, v)) == expected
    assert flipped and periodic


def test_a_zero_class_contracts_to_nothing():
    """An odd unit repeated an even number of times is an even word whose
    smallest period has odd parity: a zero class.  The full walk's terms
    cancel per splice, and bracket_words returns no term at all."""
    rng = random.Random(89)
    cancelled = 0
    for _ in range(300):
        space = random_space(rng)
        unit = [rng.randrange(space.dim) for _ in range(rng.randint(1, 4))]
        if sum(space.parities[letter] for letter in unit) % 2 == 0:
            continue
        zero = tuple(unit * rng.choice((2, 4)))
        assert canonicalize_cyclic(zero, space) is None
        other = tuple(rng.randrange(space.dim) for _ in range(rng.randint(1, 5)))
        for u, v in ((zero, other), (other, zero), (zero, zero)):
            full = reference_bracket_words(space, u, v)
            assert per_splice(full) == {}
            assert bracket_words(space, u, v) == []
            cancelled += bool(full)
    assert cancelled


def two_letter_part(element):
    """The single two-letter words of an element, without gamma or nu."""
    return Element(element.space, CYCLIC, {
        m: c for m, c in element.terms.items()
        if not m.gamma and not m.nu and len(m.words) == 1 and len(m.words[0]) == 2
    })


def reference_letter_table(q):
    """d on letters, letter -> [(coeff, letter)], read off d(l) = -{q, (l)}."""
    space = q.space
    plain = OperatorContext(space)
    table = {}
    for letter in range(space.dim):
        image = plain.nc_bracket(q, Element.cyclic_word(space, [letter]))
        table[letter] = [(-c, m.words[0][0]) for m, c in image.terms.items()]
    return table


def reference_differential(table, element):
    """The odd derivation extending ``table`` letter by letter over every
    factor of every monomial, each letter passing the letters before it."""
    parities = element.space.parities
    raw = []
    for m, coeff in element.terms.items():
        before = 0
        for i, w in enumerate(m.words):
            for k, letter in enumerate(w):
                for c, target in table[letter]:
                    new_word = w[:k] + (target,) + w[k + 1 :]
                    words = m.words[:i] + (new_word,) + m.words[i + 1 :]
                    raw.append((m.gamma, m.nu, words, -c * coeff if before else c * coeff))
                before ^= parities[letter]
    return Element.from_terms(element.space, element.flavor, raw)


def context_with(space, q):
    return OperatorContext(space, q)


def random_even_quadratic(rng, space):
    """A random sum of two-letter words (a b) with |a| + |b| even."""
    raw = []
    for _ in range(rng.randint(1, 3)):
        a = rng.randrange(space.dim)
        b = rng.choice([l for l in range(space.dim) if space.parities[l] == space.parities[a]])
        raw.append((0, 0, [[a, b]], rng.choice([1, -1, 2, Scalar(1, 2), Scalar(-3, 2)])))
    return Element.from_terms(space, CYCLIC, raw)


def assert_d_matches_reference(rng, ctx, q, draws):
    from ncbv.verify import random_commutative_element, random_cyclic_element

    table = reference_letter_table(q)
    nonzero = 0
    for _ in range(draws):
        e = random_cyclic_element(rng, ctx.space, max_words=3, allow_gamma=True)
        f = random_commutative_element(rng, ctx.space, max_terms=3)
        for element in (e, f):
            got = ctx.internal_differential(element)
            assert got == reference_differential(table, element), element
            nonzero += not got.is_zero()
    return nonzero


def test_internal_differential_is_the_letter_derivation():
    """d, on both flavors, against the letter-by-letter odd derivation of
    d(l) = -{q, (l)}: on 300 random spaces with a random even two-letter q,
    on the two-dimensional algebra and on its Mat_2 and Mat_3 contexts."""
    from ncbv.ainfinity import letter_differential, matrix_ainfinity
    from ncbv.morita import MatrixExtension

    rng = random.Random(97)
    nonzero = 0
    for _ in range(300):
        space = random_space(rng)
        q = random_even_quadratic(rng, space)
        nonzero += assert_d_matches_reference(rng, context_with(space, q), q, 2)
    q_gue = two_letter_part(encode_ainfinity(algebra_a(), SPACE))
    nonzero += assert_d_matches_reference(rng, CTX, q_gue, 100)
    for size in (2, 3):
        ext = MatrixExtension(SPACE, size)
        mat = matrix_ainfinity(algebra_a(), size)
        ctx = OperatorContext(ext.space, letter_differential(mat, ext.space))
        q_mat = two_letter_part(encode_ainfinity(mat, ext.space))
        nonzero += assert_d_matches_reference(rng, ctx, q_mat, 50)
    assert nonzero > 800  # of 1,600 comparisons


@pytest.mark.parametrize("element, defect", [
    (word(["x", "x"]) + word("xi"), "1*(x)"),
    (word(["x", "x"]) + word(["x", "xi"]) * word("xi"), "-1*(x)(x xi) + 1*(x x)(xi)"),
    (word(["x", "x", "xi"]) + word(["x", "xi", "xi"]), "-1*(x x x) + -1*(x x xi xi)"),
    ((nu() * word(["x", "xi"]) * word("xi")).scale(-1), "-1*v(x)(x xi) + 1*v(x x)(xi)"),
    (word(["x", "x"], Scalar(1, 2)), "0"),
])
def test_mc_defect_with_a_differential(element, defect):
    """d(x) + (1/2){x, x} over the two-dimensional algebra, where d is
    declared: pinned values, with both parts nonzero in the first three."""
    assert str(CTX.mc_defect(element)) == defect


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: CTX.nc_bracket(poly(["x"]), poly(["x"])),
                 "requires cyclic-flavor elements", id="bracket-on-polynomials"),
    pytest.param(lambda: CTX.bv_laplacian(word("x")),
                 "requires commutative-flavor elements", id="laplacian-on-words"),
])
def test_operator_flavor_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()

"""Element arithmetic: linear structure and the graded product."""

import random

import pytest

from ncbv import COMMUTATIVE, CYCLIC, Element, Scalar, canonicalize_cyclic
from ncbv.algebras import sigma_a_space
from ncbv.verify import random_cyclic_element, random_space
from ncbv.words import Monomial

SPACE = sigma_a_space()


def test_add_cancels():
    nu2 = Element.nu_power(SPACE, 2)
    assert (nu2 + nu2.scale(-1)).is_zero()


def test_sym_product_of_letters():
    x = Element.cyclic_word(SPACE, "x")
    prod = x * x
    assert prod == Element.from_terms(SPACE, CYCLIC, [(0, 0, [[0], [0]], 1)])


def test_scale_halves():
    two_nu = Element.nu_power(SPACE, 1, coeff=2)
    assert two_nu.scale(Scalar(1, 2)) == Element.nu_power(SPACE, 1)


def test_mixed_flavor_rejected():
    cyc = Element.cyclic_word(SPACE, "x")
    com = Element.poly_letters(SPACE, "x")
    with pytest.raises(ValueError, match="flavor"):
        cyc + com


def test_mixed_space_rejected():
    rng = random.Random(3)
    other = random_space(rng)
    with pytest.raises(ValueError, match="space"):
        Element.cyclic_word(SPACE, "x") + Element.cyclic_word(other, [0])


def test_commutative_flavor_guards():
    with pytest.raises(ValueError, match="gamma/nu"):
        Element.from_terms(SPACE, COMMUTATIVE, [(0, 1, [[0]], 1)])
    with pytest.raises(ValueError, match="products of letters"):
        Element.from_terms(SPACE, COMMUTATIVE, [(0, 0, [[0, 0]], 1)])
    # xi xi has the zero cyclic class: the shape is checked on the raw item
    with pytest.raises(ValueError, match="products of letters"):
        Element.from_terms(SPACE, COMMUTATIVE, [(0, 0, [[1, 1]], 1)])


def test_sym_product_graded_commutative_and_associative():
    rng = random.Random(11)
    for _ in range(120):
        space = random_space(rng)
        a = random_cyclic_element(rng, space)
        b = random_cyclic_element(rng, space)
        c = random_cyclic_element(rng, space)
        assert (a * b) * c == a * (b * c)
        pa, pb = a.parity(), b.parity()
        if pa is not None and pb is not None:
            sign = -1 if (pa * pb) % 2 else 1
            assert a * b == (b * a).scale(sign)


def test_odd_square_vanishes_in_product():
    xi = Element.cyclic_word(SPACE, "xi")
    assert (xi * xi).is_zero()


def test_json_roundtrip():
    rng = random.Random(23)
    for _ in range(40):
        space = random_space(rng)
        e = random_cyclic_element(rng, space, max_terms=3, max_words=2)
        again = Element.from_json(space, CYCLIC, e.to_json())
        assert again == e


@pytest.mark.parametrize("letter", [-1, SPACE.dim, SPACE.dim + 5])
def test_out_of_range_letter_is_rejected(letter):
    # -1 must not wrap round to the last letter
    with pytest.raises(ValueError, match="out of range"):
        canonicalize_cyclic([0, letter], SPACE)
    with pytest.raises(ValueError, match="out of range"):
        Element.cyclic_word(SPACE, [0, letter])
    with pytest.raises(ValueError, match="out of range"):
        Element.poly_letters(SPACE, [0, letter])
    # the zero class of xi xi does not hide the letter in the next word
    for flavor, words in ((CYCLIC, [[letter, 0]]), (COMMUTATIVE, [[0], [letter]]),
                          (CYCLIC, [[1, 1], [letter]])):
        with pytest.raises(ValueError, match="out of range"):
            Element.from_terms(SPACE, flavor, [(0, 0, words, 1)])


@pytest.mark.parametrize("words, match", [
    ([[True]], "letter index must be an integer, got True"),
    ([["x"]], "letter index must be an integer, got 'x'"),
    (["ab"], "letter index must be an integer, got 'a'"),
])
def test_non_integral_letters_rejected(words, match):
    with pytest.raises(ValueError, match=match):
        Element.from_terms(SPACE, CYCLIC, [(0, 0, words, 1)])


@pytest.mark.parametrize("letter", [-1, SPACE.dim, SPACE.dim + 5])
def test_raw_constructor_rejects_out_of_range_letter(letter):
    # the raw constructor canonicalizes its monomials as from_terms does
    for flavor, words in ((CYCLIC, ((0, letter),)), (COMMUTATIVE, ((0,), (letter,)))):
        with pytest.raises(ValueError, match="out of range"):
            Element(SPACE, flavor, {Monomial(0, 0, words): 1})
    # a zero coefficient still has its letters checked
    with pytest.raises(ValueError, match="out of range"):
        Element(SPACE, CYCLIC, {Monomial(0, 0, ((letter,),)): 0})


def test_raw_constructor_canonicalizes_like_from_terms():
    """A {monomial: coeff} entry is the class of its raw words: rotated to
    the canonical representative, with odd squares killed and negative
    gamma/nu powers rejected."""
    rotated = Element(SPACE, CYCLIC, {Monomial(0, 0, ((1, 0),)): 1})
    assert rotated == Element.cyclic_word(SPACE, [1, 0])
    assert rotated == Element.from_terms(SPACE, CYCLIC, [(0, 0, [[1, 0]], 1)])
    assert Element(SPACE, CYCLIC, {Monomial(0, 0, ((1,), (1,))): 1}).is_zero()
    with pytest.raises(ValueError, match="nonnegative"):
        Element(SPACE, CYCLIC, {Monomial(0, -3, ()): 1})
    with pytest.raises(ValueError, match="nonnegative"):
        Element.nu_power(SPACE, -1)


@pytest.mark.parametrize("gamma, nu, match", [
    (1.5, 0, "gamma power must be an integer"),
    (0, 1.5, "nu power must be an integer"),
    (True, 0, "gamma power must be an integer"),
    (0, "1", None),
])
def test_non_integral_gamma_and_nu_rejected(gamma, nu, match):
    readers = [
        lambda: Element.from_terms(SPACE, CYCLIC, [(gamma, nu, [[0]], 1)]),
        lambda: Element(SPACE, CYCLIC, {(gamma, nu, ((0,),)): 1}),
        lambda: Element.from_json(SPACE, CYCLIC, [
            {"gamma": gamma, "nu": nu, "words": [["x"]], "coeff": "1"}]),
    ]
    for read in readers:
        if match is None:
            assert read() == Element.nu_power(SPACE) * Element.cyclic_word(SPACE, "x")
        else:
            with pytest.raises(ValueError, match=match):
                read()


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: Element(SPACE, "other"), ValueError, "unknown flavor 'other'",
                 id="unknown-flavor"),
    pytest.param(lambda: hash(Element.cyclic_word(SPACE, "x")), TypeError, "not hashable",
                 id="hash"),
])
def test_element_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()

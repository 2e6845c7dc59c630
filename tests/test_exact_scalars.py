"""Exact scalars are held as ints when integral, on every layer.

One rule for every coefficient the package produces: an ``int`` when the
value is integral, else a ``Fraction`` with denominator > 1, never a
``float`` or a ``bool``.
"""

import random
from fractions import Fraction

import pytest

from ncbv import (
    CyclicAInfinity,
    Element,
    GueReducer,
    Monomial,
    NuPolynomial,
    encode_ainfinity,
    encode_commutator_linfinity,
    harer_zagier_closed,
    matrix_ainfinity,
    matrix_frobenius,
    otft_mu,
    suspend,
    truncated_polynomials,
)
from ncbv.algebras import algebra_a, exterior_line, sigma_a_space
from ncbv.frobenius import matrix_trace_product
from ncbv.morita import MatrixExtension
from ncbv.reduction import _pair_image, _pivot_image
from ncbv.scalar import Scalar, add_to, div, parse_scalar
from ncbv.verify import _partitions_up_to, random_space


def is_exact(value) -> bool:
    """An int when integral, else a Fraction with denominator > 1."""
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


def assert_exact(values, what):
    bad = [v for v in values if not is_exact(v)]
    assert not bad, f"{what}: {bad[:3]!r}"


def assert_form_exact(form, what):
    assert_exact([v for row in form for v in row.values()], what)


def test_reducer_polynomials_and_tables_are_exact():
    _pivot_image.cache_clear()
    _pair_image.cache_clear()
    reducer = GueReducer()
    indices = _partitions_up_to(14)
    assert len(indices) == 507
    for idx in indices:
        assert_exact(reducer.reduce(idx).coeffs.values(), f"p_{idx}")
    for state, poly in reducer._cache.items():
        assert_exact(poly.coeffs.values(), f"cached p_{state}")
    assert _pivot_image.cache_info().currsize and _pair_image.cache_info().currsize
    # every table a state of sum <= 14 can read: l <= 14 and l + m <= 14
    for length in range(1, 15):
        assert_exact(_pivot_image(length).values(), f"table {length}")
        for other in range(1, 15 - length):
            assert_exact(_pair_image(length, other).values(), f"table {(length, other)}")


@pytest.mark.parametrize("size", [1, 2, 3])
def test_matrix_frobenius_vectors_are_exact(size):
    frob = matrix_frobenius(size)
    assert_form_exact(frob.pairing, "pairing")
    assert_form_exact(frob.inverse, "inverse")
    for name in ("unit", "counit", "H", "G"):
        assert_exact(getattr(frob, name).values(), name)
    assert frob.H == {i: size for i in frob.unit}


def test_products_of_rational_vectors_are_exact():
    """1/2 against 2: integral values from Fraction products."""
    frob = matrix_frobenius(2)
    half, two = [[Fraction(1, 2)] * 2] * 2, [[2] * 2] * 2
    assert frob.form(sum(half, []), sum(two, [])) == 4
    assert is_exact(frob.form(sum(half, []), sum(two, [])))
    boundaries, expected = matrix_trace_product(2, 1, [[half, two]])
    assert expected == 8 and is_exact(expected)
    assert otft_mu(frob, 0, 1, boundaries) == expected
    assert is_exact(frob.trace_form(boundaries[0]))


def test_truncated_polynomial_vectors_and_values_are_exact():
    rng = random.Random(211)
    for _ in range(40):
        depth = rng.randint(1, 5)
        values = [Scalar(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(depth)]
        values[-1] = values[-1] or Fraction(1, 2)
        frob = truncated_polynomials(depth, values)
        assert_form_exact(frob.inverse, "inverse")
        for name in ("unit", "counit", "H", "G"):
            assert_exact(getattr(frob, name).values(), name)
        boundaries = [[rng.randrange(depth) for _ in range(rng.randint(1, 2))]
                      for _ in range(rng.randint(1, 3))]
        assert is_exact(otft_mu(frob, rng.randint(0, 2), rng.randint(0, 2), boundaries))


def test_random_space_inverses_are_exact():
    rng = random.Random(223)
    for trial in range(200):
        space = random_space(rng)
        assert_form_exact(space.inverse, "hyperbolic inverse")
        if trial % 10 == 0:  # the decorated inverse is solved, not written
            ext = MatrixExtension(space, 2).space
            assert_form_exact(ext.pairing, "decorated pairing")
            assert_form_exact(ext.inverse, "decorated inverse")


@pytest.mark.parametrize("algebra, names, scales", [
    (algebra_a(), ("x", "xi"), (1, -1)),
    (algebra_a(), None, (Fraction(1, 2), 3)),
    (exterior_line(), ("u", "e"), None),
    (exterior_line(), None, (2, Fraction(-2, 3))),
])
def test_encodings_are_exact(algebra, names, scales):
    for size in (1, 2):
        ext = algebra if size == 1 else matrix_ainfinity(algebra, size)
        base = suspend(algebra, names, scales)
        space = base if size == 1 else MatrixExtension(base, size).space
        assert_form_exact(space.pairing, "suspended pairing")
        assert_form_exact(space.inverse, "suspended inverse")
        assert_exact(encode_ainfinity(ext, space).terms.values(), "encode_ainfinity")
        assert_exact(encode_commutator_linfinity(ext, space).terms.values(),
                     "encode_commutator_linfinity")


def test_harer_zagier_closed_is_exact():
    """Exact in value too: a float step would round at N = 10^20 + 1."""
    reducer = GueReducer()
    for k in range(9):
        moment = reducer.reduce((2 * k,))
        for size in [*range(1, 6), 10**20 + 1, Fraction(1, 2), Fraction(-3, 2)]:
            value = harer_zagier_closed(k, size)
            assert is_exact(value) and value == moment(size), (k, size)
    assert harer_zagier_closed(5, 3) == 68985


def test_divisions_by_int_scales_are_exact():
    """An int over an int scale: the suspended pairing, and m_0, whose
    encoding weight is 1."""
    assert suspend(algebra_a(), scales=(2, 3)).pairing == ({1: Fraction(-1, 6)},
                                                           {0: Fraction(1, 6)})
    curved = CyclicAInfinity(("a", "b"), (1, 2), ((0, 1), (1, 0)), {0: {(): {1: 1}}})
    space = suspend(curved, scales=(3, 1))
    assert encode_ainfinity(curved, space).terms == {Monomial(0, 0, ((0,),)): Fraction(1, 3)}


def test_scale_and_evaluation_are_exact():
    half = NuPolynomial({0: Fraction(2), 1: 3}).scale(Fraction(1, 2))
    assert half.coeffs == {0: 1, 1: Fraction(3, 2)}
    assert_exact(half.coeffs.values(), "NuPolynomial.scale")
    assert_exact((2 * half).coeffs.values(), "NuPolynomial.__rmul__")
    assert is_exact(half(Fraction(2, 3))) and half(Fraction(2, 3)) == 2
    two_x = Element.cyclic_word(sigma_a_space(), ["x", "x"], 2)
    for coeff in (Fraction(1, 2), Fraction(3, 4), True, 3):
        assert_exact(two_x.scale(coeff).terms.values(), f"Element.scale({coeff!r})")


def test_scalar_constructor_and_add_to():
    assert Scalar(4, 2) == 2 and type(Scalar(4, 2)) is int
    assert type(Scalar(Fraction(6, 3))) is int
    assert type(Scalar(True)) is int and Scalar(True) == 1
    assert Scalar("3/4") == Fraction(3, 4) and Scalar(0.5) == Fraction(1, 2)
    assert type(Scalar()) is int and Scalar() == 0
    assert type(parse_scalar("6/3")) is int and type(parse_scalar("-2")) is int
    terms = {}
    add_to(terms, "k", Fraction(1, 2))
    add_to(terms, "k", Fraction(1, 2))
    assert terms == {"k": 1} and type(terms["k"]) is int
    add_to(terms, "j", 2 * Fraction(1, 2))
    assert type(terms["j"]) is int
    add_to(terms, "k", -1)
    assert "k" not in terms


@pytest.mark.parametrize("num, den, want", [
    (6, 3, 2),
    (-6, 4, Fraction(-3, 2)),
    (7, -7, -1),
    (0, 5, 0),
    (Fraction(3, 2), 3, Fraction(1, 2)),
    (Fraction(3, 2), Fraction(1, 2), 3),
    (2, Fraction(4, 3), Fraction(3, 2)),
    (True, 1, 1),
    (True, True, 1),
    (1, True, 1),
])
def test_div_is_exact(num, den, want):
    got = div(num, den)
    assert got == want and is_exact(got)


@pytest.mark.parametrize("num", [0, 1, Fraction(1, 2)])
def test_div_by_zero_raises(num):
    with pytest.raises(ZeroDivisionError):
        div(num, 0)
    with pytest.raises(ZeroDivisionError):
        div(num, Fraction(0))

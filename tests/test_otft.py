"""Surface tensors over Frobenius algebras."""

from fractions import Fraction

import pytest

from ncbv import Scalar, ground_field, matrix_frobenius, otft_mu, truncated_polynomials
from ncbv.frobenius import matrix_trace_product


def as_vector(mat, size):
    return tuple(Scalar(mat[p][q]) for p in range(size) for q in range(size))


def mat_mul(a, b, size):
    return [
        [sum(a[p][t] * b[t][q] for t in range(size)) for q in range(size)]
        for p in range(size)
    ]


def trace(mat, size):
    return sum(mat[p][p] for p in range(size))


def test_matrix_tensor_is_trace_product():
    size = 2
    frob = matrix_frobenius(size)
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [-1, 2]]
    c = [[2, 0], [1, 1]]
    boundaries = [[as_vector(a, size), as_vector(b, size)], [as_vector(c, size)]]
    value = otft_mu(frob, 1, 2, boundaries)
    expected = Scalar(size) ** 2 * trace(mat_mul(a, b, size), size) * trace(c, size)
    assert value == expected
    assert matrix_trace_product(size, 2, [[a, b], [c]]) == (boundaries, expected)


def test_matrix_size_zero_rejected():
    with pytest.raises(ValueError, match="at least 1"):
        matrix_frobenius(0)


def test_free_boundary_and_genus_maps():
    for size in (2, 3):
        frob = matrix_frobenius(size)
        mat = [[Fraction(p * size + q + 1) for q in range(size)] for p in range(size)]
        vec = as_vector(mat, size)
        assert frob.free_boundary(vec) == tuple(size * c for c in vec)
        assert frob.genus_map(vec) == vec


def test_ground_field_tensor_multiplies_entries():
    line = ground_field()
    value = otft_mu(line, 2, 3, [[(Scalar(2),), (Scalar(3),)], [(Scalar(5),)]])
    assert value == 30  # beta and gamma are the identity on the line


def test_placement_independence_over_truncated_polynomials():
    frob = truncated_polynomials(4, [1, 0, 2, -1])
    boundaries = [[0, 2], [1], [3]]
    spots = [(0, 0), (0, 1), (1, 0), (2, 0)]
    values = {spot: otft_mu(frob, 1, 1, boundaries, apply_at=spot) for spot in spots}
    assert len(set(values.values())) == 1


def test_arity_errors():
    frob = matrix_frobenius(2)
    with pytest.raises(ValueError, match="boundaries"):
        otft_mu(frob, 0, 0, [])
    with pytest.raises(ValueError, match="boundaries"):
        otft_mu(frob, 0, 0, [[]])
    with pytest.raises(ValueError, match="nonnegative"):
        otft_mu(frob, -1, 0, [[0]])
    with pytest.raises(ValueError, match="dimension"):
        otft_mu(frob, 0, 0, [[(Scalar(1),)]])


def test_frobenius_json_roundtrip():
    from ncbv.frobenius import FrobeniusAlgebra

    for frob in (matrix_frobenius(2), ground_field(), truncated_polynomials(3, [1, 0, 2])):
        clone = FrobeniusAlgebra.from_json(frob.to_json())
        assert clone.basis == frob.basis
        assert clone.mult == frob.mult
        assert clone.pairing == frob.pairing
        assert clone.unit == frob.unit


def test_frobenius_validation():
    from ncbv.frobenius import FrobeniusAlgebra

    one = Scalar(1)
    zero = Scalar(0)
    # non-symmetric pairing on a two-dimensional commutative algebra
    mult = (
        (( one, zero), (zero, one)),
        ((zero, one), (zero, zero)),
    )
    with pytest.raises(ValueError, match="symmetric"):
        FrobeniusAlgebra(("1", "t"), mult, ((zero, one), (Scalar(2), zero)), (one, zero))

"""The Mat_N decoration of structure maps and units, pinned against the
chain loop ``matrix_ainfinity`` and the E_pq E_qs = E_ps comprehension
``matrix_frobenius`` were first written with."""

import pytest

from ncbv import (
    CyclicAInfinity,
    FrobeniusAlgebra,
    MatrixExtension,
    encode_ainfinity,
    ground_field,
    matrix_ainfinity,
    matrix_frobenius,
    suspend,
    truncated_polynomials,
)
from ncbv.algebras import algebra_a, exterior_line
from ncbv.morita import (
    decorate,
    decorate_map,
    decorate_unit,
    index_chains,
    matrix_index,
    matrix_name,
)
from ncbv.scalar import ONE, Scalar

SIZES = (1, 2, 3, 4)


def reference_names(names, size):
    return tuple(matrix_name(name, p, q) for name in names
                 for p in range(size) for q in range(size))


def reference_ops(ops, size):
    """The chain loop: along a chain p_0 ... p_k, argument t of m_k is
    decorated (p_t, p_{t+1}) and each output (p_0, p_k)."""
    decorated = {}
    for k, table in ops.items():
        new_table = {}
        for args, images in table.items():
            for chain in index_chains(size, k + 1):
                new_args = tuple(
                    matrix_index(base, chain[t], chain[t + 1], size)
                    for t, base in enumerate(args)
                )
                new_table[new_args] = {
                    matrix_index(out, chain[0], chain[k], size): coeff
                    for out, coeff in images.items()
                }
        decorated[k] = new_table
    return decorated


def reference_unit(unit, size):
    """The unit fill: each coefficient on the diagonal cells (p, p)."""
    filled = [Scalar(0)] * (len(unit) * size * size)
    for i, c in enumerate(unit):
        for p in range(size):
            filled[matrix_index(i, p, p, size)] = c
    return tuple(filled)


def reference_matrix_mult(size):
    """The comprehension: the N^3 nonzero products E_pq E_qs = E_ps."""
    return {
        (matrix_index(0, p, q, size), matrix_index(0, q, s, size)):
            {matrix_index(0, p, s, size): ONE}
        for p, q, s in index_chains(size, 3)
    }


def nonempty(table):
    """A structure map as {args: {out: c}} without its empty images, in
    whichever cell layout it is held."""
    return {args: dict(images) for args, images in table.items() if images}


def dense_unit(frob):
    return tuple(frob.unit.get(i, Scalar(0)) for i in range(frob.dim))


A_INFINITY = {
    "A": algebra_a,
    "exterior-line": exterior_line,
    "Mat2-A": lambda: matrix_ainfinity(algebra_a(), 2),
}
FROBENIUS = {
    "ground-field": ground_field,
    "truncated-3": lambda: truncated_polynomials(3, [1, 0, 2]),
}


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", A_INFINITY)
def test_matrix_ainfinity_matches_the_chain_loop(name, size):
    algebra = A_INFINITY[name]()
    mat = matrix_ainfinity(algebra, size)
    assert mat.basis == reference_names(algebra.basis, size)
    reference = reference_ops(algebra.ops, size)
    assert mat.ops.keys() == reference.keys()
    assert {k: nonempty(t) for k, t in mat.ops.items()} == \
        {k: nonempty(t) for k, t in reference.items()}
    expected_unit = None if algebra.unit is None else reference_unit(algebra.unit, size)
    assert mat.unit == expected_unit


@pytest.mark.parametrize("size", SIZES)
def test_matrix_frobenius_matches_the_comprehension(size):
    frob = matrix_frobenius(size)
    assert frob.basis == reference_names(("E",), size)
    assert nonempty(frob.mult) == reference_matrix_mult(size)
    assert dense_unit(frob) == reference_unit((ONE,), size)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", FROBENIUS)
def test_chain_loop_decorates_frobenius_algebras(name, size):
    """The chain loop on a Frobenius product and unit gives a Frobenius
    algebra (associative, unital, invariant: the constructor checks
    it), and on the ground field it is the comprehension."""
    base = FROBENIUS[name]()
    basis, _, pairing = decorate(base.basis, (0,) * base.dim, base.pairing, size)
    mult = reference_ops({2: nonempty(base.mult)}, size)[2]
    unit = reference_unit(dense_unit(base), size)
    mat = FrobeniusAlgebra(basis, mult, pairing, unit)
    assert nonempty(mat.mult) == nonempty(mult)
    assert dense_unit(mat) == unit
    if name == "ground-field":
        assert mult == reference_matrix_mult(size)
        line = matrix_frobenius(size)
        assert (mat.pairing, mat.inverse, mat.H) == (line.pairing, line.inverse, line.H)


ALGEBRAS = {**A_INFINITY, **FROBENIUS}


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", ALGEBRAS)
def test_morita_decoration_matches_the_references(name, size):
    """``decorate_map`` and ``decorate_unit``, the one decoration behind
    both matrix builders, on the maps and units of all five algebras."""
    algebra = ALGEBRAS[name]()
    if isinstance(algebra, FrobeniusAlgebra):
        ops, unit = {2: algebra.mult}, dense_unit(algebra)
    else:
        ops, unit = algebra.ops, algebra.unit
    reference = reference_ops(ops, size)
    for k, table in ops.items():
        assert nonempty(decorate_map(table, size)) == nonempty(reference[k])
    if unit is not None:
        assert decorate_unit(unit, size) == reference_unit(unit, size)


@pytest.mark.parametrize("size", SIZES)
def test_curvature_decorates_to_the_identity(size):
    """m_0 tensored with the identity: every diagonal cell, which is what
    inflating the curvature's one-letter word gives."""
    curved = CyclicAInfinity(("a", "b"), (1, 2), ((0, 1), (1, 0)), {0: {(): {1: 1}}})
    mat = matrix_ainfinity(curved, size)
    assert mat.ops[0] == {(): {matrix_index(1, p, p, size): 1 for p in range(size)}}
    base = suspend(curved)
    ext = MatrixExtension(base, size)
    assert ext.inflate(encode_ainfinity(curved, base)) == encode_ainfinity(mat, ext.space)

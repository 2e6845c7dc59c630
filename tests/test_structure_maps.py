"""One structure-map format for cyclic A-infinity and Frobenius algebras:
the index and arity checks, the unit law and the unit's length, through
both constructors and the JSON readers, and one JSON layout for both."""

import pytest

from ncbv import CyclicAInfinity, FrobeniusAlgebra, otft_mu, truncated_polynomials
from ncbv.algebras import algebra_a, exterior_line
from ncbv.scalar import ONE

BAD_ENTRIES = {
    "output-out-of-range": ((0, 0), 5, "has index 5, which leaves the basis indices 0..1"),
    "argument-out-of-range": ((0, 7), 0, "has index 7, which leaves the basis indices 0..1"),
    "negative-output": ((0, 0), -1, "has index -1, which leaves the basis indices 0..1"),
    "negative-argument": ((-1, 0), 0, "has index -1, which leaves the basis indices 0..1"),
    "boolean-argument": ((False, 0), 0, "index must be an integer, got False"),
    "float-argument": ((0.5, 0), 0, "index must be an integer, got 0.5"),
    "float-output": ((0, 0), 0.5, "index must be an integer"),
    "wrong-arity": ((0,), 0, "takes 2 arguments, got 1: \\(0,\\)"),
}


@pytest.mark.parametrize("case", BAD_ENTRIES)
def test_cyclic_algebra_rejects_a_bad_map_entry(case):
    args, out, match = BAD_ENTRIES[case]
    line = exterior_line()
    ops = {2: {args: {out: 1}}}
    with pytest.raises(ValueError, match=f"structure map m_2 {match}"):
        CyclicAInfinity(line.basis, line.degrees, line.pairing, ops, unit=line.unit)
    data = line.to_json()
    data["ops"]["2"] = [{"args": list(args), "out": {str(out): "1"}}]
    with pytest.raises(ValueError, match=f"structure map m_2 {match}"):
        CyclicAInfinity.from_json(data)


@pytest.mark.parametrize("case", BAD_ENTRIES)
def test_frobenius_algebra_rejects_a_bad_product_entry(case):
    args, out, match = BAD_ENTRIES[case]
    frob = truncated_polynomials(2, [0, 1])
    mult = {args: {out: ONE}}
    with pytest.raises(ValueError, match=f"the product {match}"):
        FrobeniusAlgebra(frob.basis, mult, frob.pairing, (ONE, 0))
    data = frob.to_json()
    data["mult"] = [{"args": list(args), "out": {str(out): "1"}}]
    with pytest.raises(ValueError, match=f"the product {match}"):
        FrobeniusAlgebra.from_json(data)


def test_a_frobenius_product_is_written_as_m_2():
    product = truncated_polynomials(2, [0, 1]).to_json()["mult"]
    assert product == exterior_line().to_json()["ops"]["2"]


def test_repeated_entries_are_summed():
    """As ``NuPolynomial.from_json`` sums a repeated exponent, the map
    reader sums entries with equal args."""
    frob = truncated_polynomials(2, [0, 1])
    data = frob.to_json()
    data["mult"][1:2] = [{"args": [0, 1], "out": {"1": "1/2"}}] * 2
    assert FrobeniusAlgebra.from_json(data).mult == frob.mult
    A = algebra_a()
    data = A.to_json()
    data["ops"]["1"] *= 2
    assert CyclicAInfinity.from_json(data).ops == {1: {(0,): {1: 2}}} != A.ops


def test_an_arity_given_twice_is_refused():
    A = algebra_a()
    with pytest.raises(ValueError, match="structure map m_1 is given twice"):
        CyclicAInfinity(A.basis, A.degrees, A.pairing, {1: A.ops[1], "1": A.ops[1]})
    data = A.to_json()
    data["ops"]["01"] = data["ops"]["1"]
    with pytest.raises(ValueError, match="structure map m_1 is given twice"):
        CyclicAInfinity.from_json(data)


def test_a_dense_product_table_is_not_a_map():
    with pytest.raises(ValueError, match="the product must be a mapping"):
        FrobeniusAlgebra(("1",), (((ONE,),),), ((ONE,),), (ONE,))
    with pytest.raises(ValueError, match="structure map m_1 must be a mapping"):
        CyclicAInfinity(("a", "b"), (1, 2), ((0, 1), (1, 0)), {1: [[0, 1], [0, 0]]})


def test_zero_coefficients_and_empty_images_are_dropped():
    """Both constructors hold the same format: nonzero entries only."""
    line = exterior_line()
    assert (1, 1) not in line.ops[2]
    assert all(entry["args"] != [1, 1] for entry in line.to_json()["ops"]["2"])
    ops = {2: {**line.ops[2], (1, 1): {0: 0, 1: 0}}, 1: {(0,): {}}}
    assert CyclicAInfinity(line.basis, line.degrees, line.pairing, ops).ops == \
        {2: line.ops[2], 1: {}}
    frob = truncated_polynomials(2, [0, 1])
    mult = {**frob.mult, (1, 1): {0: 0}, (0, 1): {1: ONE, 0: 0}}
    assert FrobeniusAlgebra(frob.basis, mult, frob.pairing, (ONE, 0)).mult == frob.mult
    assert frob.mult == {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}


@pytest.mark.parametrize("unit", [(1,), (1, 0, 0)])
def test_cyclic_algebra_checks_the_unit_length_first(unit):
    for algebra in (algebra_a(), exterior_line()):
        match = f"the unit has {len(unit)} entries; the algebra has dimension 2"
        with pytest.raises(ValueError, match=match):
            CyclicAInfinity(algebra.basis, algebra.degrees, algebra.pairing, algebra.ops,
                            unit=unit)
        data = algebra.to_json()
        data["unit"] = [str(c) for c in unit]
        with pytest.raises(ValueError, match=match):
            CyclicAInfinity.from_json(data)


def test_one_unit_law_for_both_algebras():
    """The same check and messages on m_2 and on the Frobenius product;
    m_k for k != 2 must vanish on the unit, and a unit needs an m_2."""
    line = exterior_line()
    with pytest.raises(ValueError, match="declared unit fails 1.a = a"):
        CyclicAInfinity(line.basis, line.degrees, line.pairing, line.ops, unit=(0, 1))
    A = algebra_a()
    with pytest.raises(ValueError, match="declared unit fails: m_1 does not vanish on it"):
        CyclicAInfinity(A.basis, A.degrees, A.pairing, A.ops, unit=(1, 0))
    with pytest.raises(ValueError, match="declared unit fails 1.a = a"):
        CyclicAInfinity(A.basis, A.degrees, A.pairing, A.ops, unit=(0, 1))
    frob = truncated_polynomials(2, [0, 1])
    with pytest.raises(ValueError, match="declared unit fails 1.a = a"):
        FrobeniusAlgebra(frob.basis, frob.mult, frob.pairing, (0, ONE))
    left_only = {**frob.mult, (1, 0): {}}
    with pytest.raises(ValueError, match="declared unit fails a.1 = a"):
        FrobeniusAlgebra(frob.basis, left_only, frob.pairing, (ONE, 0))


@pytest.mark.parametrize("value", [True, False])
def test_coerce_rejects_a_boolean_index(value):
    frob = truncated_polynomials(2, [0, 1])
    with pytest.raises(ValueError, match=f"basis index must be an integer, got {value}"):
        frob.coerce(value)
    with pytest.raises(ValueError, match="basis index must be an integer"):
        otft_mu(frob, 0, 0, [[value, value]])
    assert frob.coerce(1) == {1: 1}

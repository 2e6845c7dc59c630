"""JSON and CSV round trips, including validation against the shipped schemas."""

import json
import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbv import (CyclicAInfinity, FrobeniusAlgebra, NuPolynomial, Scalar, ground_field,
                  matrix_frobenius, truncated_polynomials)
from ncbv.ainfinity import encode_ainfinity, matrix_ainfinity, suspend, suspend_matrix
from ncbv.algebras import algebra_a, exterior_line, sigma_a_space
from ncbv.element import CYCLIC, Element
from ncbv.morita import MatrixExtension
from ncbv.multitrace import MultiTraceFunctional
from ncbv.space import GradedSymplecticSpace


def load_schema(name):
    path = resources.files("ncbv") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def make_validator(name):
    """Validator for a shipped schema; skips the calling test without jsonschema."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = load_schema(name)
    registry = None
    try:
        from referencing import Registry, Resource

        registry = Registry().with_resources(
            [
                (f"ncbv/{other}", Resource.from_contents(load_schema(other)))
                for other in ("nupolynomial",)
            ]
        )
        return jsonschema.Draft202012Validator(schema, registry=registry)
    except ImportError:
        store = {"ncbv/nupolynomial": load_schema("nupolynomial")}
        resolver = jsonschema.RefResolver.from_schema(schema, store=store)
        return jsonschema.Draft202012Validator(schema, resolver=resolver)


small_scalars = st.builds(
    Scalar,
    st.integers(min_value=-10**12, max_value=10**12),
    st.integers(min_value=1, max_value=10**6),
)


@given(st.dictionaries(st.integers(min_value=0, max_value=40), small_scalars, max_size=8))
@settings(deadline=None)
def test_nupoly_json_roundtrip(coeffs):
    poly = NuPolynomial(coeffs)
    data = poly.to_json()
    assert NuPolynomial.from_json(data) == poly
    make_validator("nupolynomial").validate(data)


@given(st.dictionaries(st.integers(min_value=0, max_value=40), small_scalars, max_size=8))
@settings(deadline=None)
def test_nupoly_csv_roundtrip(coeffs):
    poly = NuPolynomial(coeffs)
    assert NuPolynomial.from_csv(poly.to_csv()) == poly


def test_csv_header_required():
    with pytest.raises(ValueError, match="header"):
        NuPolynomial.from_csv("0,1,1\n")


def test_negative_exponent_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        NuPolynomial({-1: Scalar(1)})
    # each exponent is checked as it is read, before entries are summed
    with pytest.raises(ValueError, match="nonnegative"):
        NuPolynomial({-1: Scalar(0)})
    with pytest.raises(ValueError, match="nonnegative"):
        NuPolynomial.from_json({"coeffs": {"-1": "1", "-01": "-1"}})
    with pytest.raises(ValueError, match="nonnegative"):
        NuPolynomial.from_csv("exponent,numerator,denominator\n-1,1,1\n-1,-1,1\n")


def test_csv_sums_duplicate_exponents():
    text = "exponent,numerator,denominator\n1,1,1\n1,2,1\n0,1,2\n0,-1,2\n"
    assert NuPolynomial.from_csv(text) == NuPolynomial({1: Scalar(3)})


def test_json_sums_keys_naming_one_exponent():
    data = {"coeffs": {"1": "1", "01": "2", "2": "1/2", "02": "-1/2"}}
    assert NuPolynomial.from_json(data) == NuPolynomial({1: Scalar(3)})


@pytest.mark.parametrize("exp", [1.5, "1.5", True, False, None])
def test_non_integral_exponent_rejected(exp):
    with pytest.raises(ValueError, match="nu exponent must be an integer"):
        NuPolynomial({exp: Scalar(1)})
    with pytest.raises(ValueError, match="nu exponent must be an integer"):
        NuPolynomial.from_json({"coeffs": {exp: "1"}})


def test_integral_exponents_read_as_ints():
    assert NuPolynomial({2.0: 1, "3": 1}) == NuPolynomial({2: 1, 3: 1})
    with pytest.raises(ValueError, match="nu exponent must be an integer"):
        NuPolynomial.from_csv("exponent,numerator,denominator\n1.5,1,1\n")


def test_zero_denominator_is_a_value_error():
    from ncbv.scalar import parse_scalar

    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        parse_scalar("1/0")
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        NuPolynomial.from_csv("exponent,numerator,denominator\n1,1,0\n")
    with pytest.raises(ValueError, match="zero denominator"):
        NuPolynomial.from_json({"coeffs": {"0": "3/00"}})
    assert parse_scalar(" -6/4 ") == Scalar(-3, 2)


DELETE = object()


def _edited(data, path, value):
    """``data`` with the field at ``path`` set to ``value``, or deleted for DELETE."""
    *steps, last = path
    target = data
    for step in steps:
        target = target[step]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return data


SCALAR_READERS = {
    "space": lambda v: GradedSymplecticSpace.from_json(
        _edited(sigma_a_space().to_json(), ("dual_scales", 0), v)),
    "ainfinity": lambda v: CyclicAInfinity.from_json(
        _edited(algebra_a().to_json(), ("ops", "1", 0, "out", "1"), v)),
    "frobenius": lambda v: FrobeniusAlgebra.from_json(
        _edited(ground_field().to_json(), ("pairing", 0, "out", "0"), v)),
    "element": lambda v: Element.from_json(sigma_a_space(), CYCLIC,
                                           [{"words": [["x", "x"]], "coeff": v}]),
    "nupoly": lambda v: NuPolynomial.from_json({"coeffs": {"1": v}}),
    "multitrace": lambda v: MultiTraceFunctional.from_json(
        {"terms": [{"nu_power": 0, "traces": [2], "coeff": v}]}),
}


@pytest.mark.parametrize("reader", SCALAR_READERS)
def test_every_reader_takes_a_json_integer_and_refuses_null(reader):
    """A scalar may be written as a JSON integer: it reads as its string
    does.  Any other non-string value is refused with its value named."""
    read = SCALAR_READERS[reader]
    assert read(2).to_json() == read("2").to_json()
    assert read(2).to_json() != read("1").to_json()
    for bad in (None, True, 1.5, [2]):
        with pytest.raises(ValueError, match=f"a scalar must be a string or an integer, got "
                                             f"{re.escape(repr(bad))}"):
            read(bad)


BAD_FIELDS = {
    "product-null": (FrobeniusAlgebra, ground_field, ("mult",), None,
                     "the product is not a list of entries"),
    "product-missing": (FrobeniusAlgebra, ground_field, ("mult",), DELETE,
                        "the Frobenius algebra has no field 'mult'"),
    "structure-map-not-a-list": (CyclicAInfinity, exterior_line, ("ops", "2"), 5,
                                 "structure map m_2 is not a list of entries"),
    "ops-not-a-mapping": (CyclicAInfinity, exterior_line, ("ops",), [],
                          "the cyclic A-infinity algebra field 'ops' must be a Mapping, not list"),
    "basis-degree-missing": (CyclicAInfinity, exterior_line, ("basis", 0, "degree"), DELETE,
                             "basis vector 0 has no field 'degree'"),
    "basis-name-not-a-string": (CyclicAInfinity, exterior_line, ("basis", 1, "name"), 3,
                                "basis vector 1 field 'name' must be a str, not int"),
    "letter-name-missing": (GradedSymplecticSpace, sigma_a_space, ("letters", 0, "name"), DELETE,
                            "letter 0 has no field 'name'"),
    "letter-not-an-object": (GradedSymplecticSpace, sigma_a_space, ("letters", 0), 7,
                             "letter 0 is not a JSON object"),
    "space-pairing-missing": (GradedSymplecticSpace, sigma_a_space, ("pairing",), DELETE,
                              "the space has no field 'pairing'"),
    "dual-scales-not-a-list": (GradedSymplecticSpace, sigma_a_space, ("dual_scales",), 5,
                               "the space field 'dual_scales' must be a list, not int"),
    "unit-not-a-list": (CyclicAInfinity, exterior_line, ("unit",), 5,
                        "the cyclic A-infinity algebra field 'unit' must be a list, not int"),
    "frobenius-basis-name-a-list": (
        FrobeniusAlgebra, ground_field, ("basis", 0), ["1"],
        "the Frobenius algebra field 'basis' item 0 must be a str, not list"),
    "pairing-row-not-a-list": (FrobeniusAlgebra, ground_field, ("pairing", 0), 5,
                               'the pairing entry 0 is not {"args": [...], "out": {...}}'),
}


@pytest.mark.parametrize("case", BAD_FIELDS)
def test_a_missing_or_ill_typed_field_is_refused_by_name(case):
    """Outside JSON missing a field, or holding one of the wrong kind, is
    refused with a ``ValueError`` naming the object and the field."""
    cls, make, path, value, match = BAD_FIELDS[case]
    data = _edited(make().to_json(), path, value)
    with pytest.raises(ValueError, match=re.escape(match)):
        cls.from_json(data)


def _term(**fields):
    """One JSON term, with a field given as ``DELETE`` left out."""
    return {key: value for key, value in fields.items() if value is not DELETE}


def _functional_term(nu_power=0, traces=None, coeff="1"):
    """A one-term trace functional, 1 * Tr X^2 unless a field is given."""
    traces = [2] if traces is None else traces
    return {"terms": [_term(nu_power=nu_power, traces=traces, coeff=coeff)]}


def _element(words=None, coeff="1"):
    """A one-term element, 1 * xx unless a field is given."""
    words = [["x", "x"]] if words is None else words
    return Element.from_json(sigma_a_space(), CYCLIC, [_term(words=words, coeff=coeff)])


TERM_FIELDS = {
    "polynomial-empty": (lambda: NuPolynomial.from_json({}),
                         "the polynomial has no field 'coeffs'"),
    "polynomial-coeffs-a-list": (lambda: NuPolynomial.from_json({"coeffs": [["1", "1"]]}),
                                 "the polynomial field 'coeffs' must be a Mapping, not list"),
    "polynomial-not-an-object": (lambda: NuPolynomial.from_json([]),
                                 "the polynomial is not a JSON object"),
    "functional-empty": (lambda: MultiTraceFunctional.from_json({}),
                         "the trace functional has no field 'terms'"),
    "functional-nu-power-missing": (
        lambda: MultiTraceFunctional.from_json(_functional_term(nu_power=DELETE)),
        "trace functional term 0 has no field 'nu_power'"),
    "functional-traces-missing": (
        lambda: MultiTraceFunctional.from_json(_functional_term(traces=DELETE)),
        "trace functional term 0 has no field 'traces'"),
    "functional-coeff-missing": (
        lambda: MultiTraceFunctional.from_json(_functional_term(coeff=DELETE)),
        "trace functional term 0 has no field 'coeff'"),
    "functional-term-not-an-object": (
        lambda: MultiTraceFunctional.from_json({"terms": [3]}),
        "trace functional term 0 is not a JSON object"),
    "element-words-missing": (lambda: _element(words=DELETE),
                              "element term 0 has no field 'words'"),
    "element-word-not-a-list": (lambda: _element(words=[5]),
                                "element term 0 field 'words' item 0 must be a list, not int"),
    "element-coeff-missing": (lambda: _element(coeff=DELETE),
                              "element term 0 has no field 'coeff'"),
    "element-term-not-an-object": (
        lambda: Element.from_json(sigma_a_space(), CYCLIC, [["x"]]),
        "element term 0 is not a JSON object"),
    "element-not-a-list": (
        lambda: Element.from_json(sigma_a_space(), CYCLIC, {"words": [["x"]], "coeff": "1"}),
        "an element is not a list of terms"),
}


@pytest.mark.parametrize("case", TERM_FIELDS)
def test_a_missing_term_field_is_refused_by_name(case):
    """The polynomial, trace-functional and element readers name the
    object and the field they miss, as the space and algebra readers do."""
    read, match = TERM_FIELDS[case]
    with pytest.raises(ValueError, match=re.escape(match)):
        read()


def test_space_json_keeps_the_dual_scales():
    """The scales fix how structure maps are encoded in a space's letters,
    so its JSON keeps them and equal spaces have equal scales; a space
    whose scales are all 1 writes none."""
    line = exterior_line()
    scaled = suspend(line, scales=(1, 2))
    again = GradedSymplecticSpace.from_json(json.loads(json.dumps(scaled.to_json())))
    assert again == scaled and again.dual_scales == (1, 2)
    assert encode_ainfinity(line, again) == encode_ainfinity(line, scaled)
    plain = suspend(line)
    assert "dual_scales" not in plain.to_json()
    assert GradedSymplecticSpace.from_json(plain.to_json()) == plain != scaled


def test_a_null_unit_means_no_unit():
    data = algebra_a().to_json()
    assert data["unit"] is None
    assert CyclicAInfinity.from_json(data).unit is None
    del data["unit"]
    assert CyclicAInfinity.from_json(data).unit is None


def _spaces():
    line, a = exterior_line(), algebra_a()
    yield sigma_a_space()
    yield suspend(line)
    yield suspend(line, scales=(1, 2))
    for size in (1, 2, 3):
        yield suspend_matrix(a, size)
        yield suspend_matrix(a, size, names=("x", "xi"), scales=(1, -1))
        yield MatrixExtension(sigma_a_space(), size).space


def _algebras():
    yield algebra_a()
    yield exterior_line()
    yield from (matrix_ainfinity(algebra_a(), size) for size in (1, 2, 3))
    yield ground_field()
    yield truncated_polynomials(3, [0, 0, 1])
    yield truncated_polynomials(4, [1, -2, Scalar(3, 2), Scalar(2, 3)])
    yield from (matrix_frobenius(size) for size in (1, 2, 3, 4))


def _through_text(obj):
    """``obj`` written to JSON text and read back by its class."""
    return type(obj).from_json(json.loads(json.dumps(obj.to_json())))


def test_every_space_reads_back_from_its_json_text():
    for space in _spaces():
        again = _through_text(space)
        assert again == space
        assert (again.inverse, again.dual_scales) == (space.inverse, space.dual_scales)


def test_every_algebra_reads_back_from_its_json_text():
    """Each cyclic A-infinity and Frobenius algebra is rebuilt exactly:
    basis, degrees, pairing, structure maps, unit and every derived table."""
    for algebra in _algebras():
        assert vars(_through_text(algebra)) == vars(algebra)


def _dense_pairing(data):
    """``data`` with its pairing entries laid out as the old n x n table."""
    n = len(data.get("letters", data.get("basis")))
    table = [["0"] * n for _ in range(n)]
    for entry in data["pairing"]:
        (i,) = entry["args"]
        table[i] = [entry["out"].get(str(j), "0") for j in range(n)]
    return {**data, "pairing": table}


@pytest.mark.parametrize("make", [sigma_a_space, exterior_line, ground_field],
                         ids=["space", "ainfinity", "frobenius"])
def test_the_old_dense_pairing_is_refused(make):
    data = _dense_pairing(make().to_json())
    with pytest.raises(ValueError, match=re.escape(
            'the pairing entry 0 is not {"args": [...], "out": {...}}')):
        type(make()).from_json(data)


def test_a_form_is_written_as_its_nonzero_entries():
    """The trace pairing of Mat_16 has 16^2 nonzero entries among 16^4
    cells; its JSON lists the entries alone, one per basis vector."""
    pairing = matrix_frobenius(16).to_json()["pairing"]
    assert len(pairing) == 16**2
    assert len(json.dumps(pairing)) < 10_000


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: NuPolynomial.constant(1).shift(-1), "nu exponents are nonnegative",
                 id="negative-shift"),
])
def test_nupoly_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()

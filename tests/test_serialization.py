"""JSON and CSV round trips, including validation against the shipped schemas."""

import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbv import NuPolynomial, Scalar
from ncbv.ainfinity import encode_ainfinity, suspend
from ncbv.algebras import exterior_line
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


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: NuPolynomial.constant(1).shift(-1), "nu exponents are nonnegative",
                 id="negative-shift"),
])
def test_nupoly_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()

"""Multi-trace functionals and numeric evaluation on explicit matrices."""

import numpy as np
import pytest

from ncbv import (
    Element,
    MultiTraceFunctional,
    monte_carlo_moment,
    reduce_to_polynomial,
    wick_oracle,
)
from ncbv.algebras import sigma_a_space

SPACE = sigma_a_space()


def test_single_trace_square():
    f = MultiTraceFunctional.from_multi_index((2,))
    assert f.evaluate(np.diag([1.0, 2.0])) == 5.0


def test_product_of_traces():
    f = MultiTraceFunctional.from_multi_index((1, 1))
    assert f.evaluate(np.diag([1.0, 2.0])) == 9.0


def test_nu_counts_dimension():
    f = MultiTraceFunctional.from_multi_index((0,))
    for size in (1, 2, 5):
        assert f.evaluate(np.eye(size) * 0.0) == size


def test_from_element_reads_words():
    e = Element.cyclic_word(SPACE, ["x", "x"]) * Element.cyclic_word(SPACE, "x")
    f = MultiTraceFunctional.from_element(e)
    assert f == MultiTraceFunctional({(0, (1, 2)): 1})
    X = np.diag([1.0, -1.0])
    assert f.evaluate(X) == (1 + 1) * (1 - 1)  # Tr(X^2) Tr(X)


def test_from_element_rejects_mixed_words():
    bad = Element.cyclic_word(SPACE, ["x", "xi"])
    with pytest.raises(ValueError, match="single letter"):
        MultiTraceFunctional.from_element(bad)


def test_dimension_mismatch():
    f = MultiTraceFunctional.from_multi_index((2,))
    with pytest.raises(ValueError, match="expected"):
        f.evaluate(np.eye(3), size=2)
    with pytest.raises(ValueError, match="square"):
        f.evaluate(np.ones((2, 3)))


def test_json_roundtrip():
    f = MultiTraceFunctional({(2, (1, 3)): 5, (0, (2,)): -1})
    assert MultiTraceFunctional.from_json(f.to_json()) == f


def test_cancelled_terms_are_dropped():
    f = MultiTraceFunctional({(0, (1, 2)): 1, (0, (2, 1)): -1})
    assert f.is_zero()
    assert f == MultiTraceFunctional()
    assert f.to_json() == {"terms": []}


def test_from_json_sums_duplicate_entries():
    data = {"terms": [
        {"nu_power": 1, "traces": [2], "coeff": "1/2"},
        {"nu_power": 1, "traces": [2], "coeff": "3/2"},
        {"nu_power": 0, "traces": [1, 3], "coeff": "1"},
        {"nu_power": 0, "traces": [3, 1], "coeff": "-1"},
    ]}
    assert MultiTraceFunctional.from_json(data) == MultiTraceFunctional({(1, (2,)): 2})


def test_negative_nu_power_rejected():
    """nu = N is the trace of the empty word: only nonnegative powers
    occur, as in ``NuPolynomial``."""
    with pytest.raises(ValueError, match="nu exponents are nonnegative"):
        MultiTraceFunctional({(-1, (2,)): 1})
    data = {"terms": [{"nu_power": -2, "traces": [], "coeff": "1"}]}
    with pytest.raises(ValueError, match="nu exponents are nonnegative"):
        MultiTraceFunctional.from_json(data)
    # each entry is checked before it is summed, so cancelling pairs fail too
    cancelling = {"terms": [{"nu_power": -2, "traces": [], "coeff": "1"},
                            {"nu_power": -2, "traces": [], "coeff": "-1"}]}
    with pytest.raises(ValueError, match="nu exponents are nonnegative"):
        MultiTraceFunctional.from_json(cancelling)
    zero_traces = {"terms": [{"nu_power": 0, "traces": [0], "coeff": "1"},
                             {"nu_power": 0, "traces": [0], "coeff": "-1"}]}
    with pytest.raises(ValueError, match="trace powers must be positive"):
        MultiTraceFunctional.from_json(zero_traces)
    with pytest.raises(ValueError, match="nu exponents are nonnegative"):
        MultiTraceFunctional({(-1, ()): 0})


@pytest.mark.parametrize("nu_power, traces, match", [
    (1.5, [2], "nu power must be an integer"),
    (1, [2.7], "trace power must be an integer"),
    (True, [2], "nu power must be an integer"),
    (0, [2, False], "trace power must be an integer"),
])
def test_non_integral_powers_rejected(nu_power, traces, match):
    data = {"terms": [{"nu_power": nu_power, "traces": traces, "coeff": "1"}]}
    with pytest.raises(ValueError, match=match):
        MultiTraceFunctional.from_json(data)
    with pytest.raises(ValueError, match=match):
        MultiTraceFunctional({(nu_power, tuple(traces)): 1})


def test_non_integral_multi_index_rejected():
    with pytest.raises(ValueError, match="multi-index entry must be an integer"):
        MultiTraceFunctional.from_multi_index([2, 1.5])
    assert MultiTraceFunctional.from_multi_index(["2", 0]) == MultiTraceFunctional(
        {(1, (2,)): 1})


# Every consumer of a multi-index, each reading it through ncbv.multitrace.
READERS = {
    "reduction": reduce_to_polynomial,
    "wick": wick_oracle,
    "from_multi_index": MultiTraceFunctional.from_multi_index,
    "monte_carlo": lambda idx: monte_carlo_moment(idx, 2, 64, seed=5, threads=1),
}


@pytest.mark.parametrize("raw", [(3, 1, 2), (0, 2, 0), ("2", "0", 1)])
@pytest.mark.parametrize("name", READERS)
def test_readers_read_an_index_alike(name, raw):
    """Unsorted, zero-padded and string entries read as the sorted ints;
    Monte Carlo keeps the caller's order, which fixes its float product."""
    entries = tuple(int(i) for i in raw)
    same = entries if name == "monte_carlo" else tuple(sorted(entries))
    assert READERS[name](raw) == READERS[name](same)


@pytest.mark.parametrize("entry, message", [
    (-1, "multi-index entries are nonnegative"),
    (1.5, "multi-index entry must be an integer, got 1.5"),
    (True, "multi-index entry must be an integer, got True"),
])
@pytest.mark.parametrize("name", READERS)
def test_readers_reject_bad_entries_alike(name, entry, message):
    with pytest.raises(ValueError, match=message):
        READERS[name]((2, entry))

"""Multi-trace functionals and numeric evaluation on explicit matrices."""

import numpy as np
import pytest

from ncbv import Element, MultiTraceFunctional
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

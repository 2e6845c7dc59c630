"""The moment reduction engine."""

import sys
import threading

import pytest

from ncbv import GueReducer, NuPolynomial, Scalar, double_factorial, reduce_to_polynomial
from ncbv import reduction
from ncbv.reduction import canonical_index
from ncbv.sampling import usable_cpus
from ncbv.verify import GOLDEN_TABLE


@pytest.mark.parametrize("idx,coeffs", sorted(GOLDEN_TABLE.items()))
def test_golden_polynomials(idx, coeffs):
    expected = NuPolynomial({e: Scalar(c) for e, c in coeffs.items()})
    assert reduce_to_polynomial(idx) == expected


def test_odd_total_vanishes():
    for idx in [(3,), (1, 2), (5,), (1, 1, 3), (2, 7)]:
        assert reduce_to_polynomial(idx).is_zero()


def test_zero_exponents_contribute_nu():
    base = reduce_to_polynomial((2,))
    assert reduce_to_polynomial((0, 2)) == base.shift(1)
    assert reduce_to_polynomial((0, 0, 2)) == base.shift(2)
    assert reduce_to_polynomial(()) == NuPolynomial.constant(1)
    assert reduce_to_polynomial((0,)) == NuPolynomial.nu()


@pytest.mark.parametrize("n", range(1, 9))
def test_all_ones(n):
    expected = NuPolynomial({n: Scalar(double_factorial(2 * n - 1))})
    assert reduce_to_polynomial((1,) * (2 * n)) == expected


def test_index_canonicalization():
    assert canonical_index((3, 1, 2)) == (1, 2, 3)
    assert reduce_to_polynomial((3, 1)) == reduce_to_polynomial((1, 3))
    with pytest.raises(ValueError, match="nonnegative"):
        canonical_index((-1, 2))


def test_pivot_strategies_agree():
    for idx in [(6,), (2, 4), (1, 1, 2, 2), (8,), (2, 2, 2)]:
        results = {
            reduce_to_polynomial(idx),
            GueReducer("largest").reduce(idx),
            GueReducer("random", seed=3).reduce(idx),
            GueReducer("random", seed=99).reduce(idx),
        }
        assert len(results) == 1


def test_degree_bound():
    # deg p <= (sum idx)/2 + number of entries
    for idx in [(2,), (4, 4), (2, 2, 2), (6, 2), (1, 1, 1, 1)]:
        poly = reduce_to_polynomial(idx)
        assert poly.degree <= sum(idx) // 2 + len(idx)


def test_cache_is_shared_per_reducer():
    reducer = GueReducer()
    reducer.reduce((8,))
    cached_states = len(reducer._cache)
    reducer.reduce((8,))
    assert len(reducer._cache) == cached_states


def test_default_reducer_is_one_instance_across_threads(monkeypatch):
    """Threads racing on the first call all get the one shared reducer."""
    monkeypatch.setattr(reduction, "_default_reducer", None)
    count = usable_cpus() + 8
    barrier = threading.Barrier(count, timeout=30)
    got = [None] * count

    def grab(slot):
        barrier.wait()
        got[slot] = reduction.default_reducer()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grab, args=(slot,)) for slot in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(reducer is reduction._default_reducer for reducer in got)
    assert got[0] is not None

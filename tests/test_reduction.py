"""The moment reduction engine."""

import sys
import threading

import pytest

from ncbv import (
    GueReducer,
    NuPolynomial,
    Scalar,
    double_factorial,
    harer_zagier_closed,
    reduce_to_polynomial,
)
from ncbv import reduction
from ncbv.algebras import sigma_a_context, sigma_a_space
from ncbv.element import CYCLIC, Element
from ncbv.multitrace import canonical_index
from ncbv.operators import OperatorContext
from ncbv.reduction import XI, X, _pair_image, _pivot_image
from ncbv.sampling import usable_cpus
from ncbv.verify import GOLDEN_TABLE, _partitions_up_to


class MonomialReducer(GueReducer):
    """The reduction step taken the long way: every state builds its whole
    product of words as one Element, applies delta + cobracket to it and
    reads the successor states off the canonical monomials of the image."""

    def _reduce_state(self, state):
        cached = self._cache.get(state)
        if cached is not None:
            return cached
        pivot = self._choose_pivot(state)
        element = self._pivot_element(state, pivot)
        ctx = sigma_a_context()
        image = ctx.ce_delta(element) + ctx.nc_cobracket(element)
        total = NuPolynomial.zero()
        for monomial, coeff in image.terms.items():
            lengths = tuple(sorted(len(word) for word in monomial.words))
            part = self._reduce_state(lengths).shift(monomial.nu)
            total = total + part.scale(coeff)
        self._cache[state] = total
        return total

    def _pivot_element(self, state, pivot):
        words = []
        for t, length in enumerate(state):
            if t == pivot:
                words.append((X,) * (length - 1) + (XI,))
            else:
                words.append((X,) * length)
        return Element.from_terms(sigma_a_space(), CYCLIC, [(0, 0, words, Scalar(1))])


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


def _twos_closed_form(n):
    """Tr X^2 is a sum of N^2 squared unit normals (a chi-square with N^2
    degrees of freedom), so E (Tr X^2)^n = nu^2 (nu^2 + 2) ... (nu^2 + 2n - 2)."""
    out = NuPolynomial.constant(1)
    for k in range(n):
        out = out * NuPolynomial({2: 1, 0: 2 * k})
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40])
def test_twos_match_the_chi_square_moments(n):
    assert GueReducer().reduce((2,) * n) == _twos_closed_form(n)


def test_many_ones_match_the_gaussian_moments():
    """Tr X is N(0, N), so 2n ones give (2n-1)!! nu^n; 2,200 ones are one
    1,100-state chain."""
    n = 1100
    expected = NuPolynomial({n: double_factorial(2 * n - 1)})
    assert GueReducer().reduce((1,) * (2 * n)) == expected


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_long_chains_need_no_recursion():
    """300 twos are a 300-state chain; the reducer drives it from its own
    work stack, so it runs under a recursion limit just above this test's
    depth."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        poly = GueReducer().reduce((2,) * 300)
    finally:
        sys.setrecursionlimit(limit)
    assert poly == _twos_closed_form(300)


def test_equal_factors_share_one_table_read(monkeypatch):
    """A state with k equal factors reads the pair table once, and weighs
    its successor by k."""
    reducer = GueReducer()
    reads = []
    monkeypatch.setattr(reduction, "_pair_image",
                        lambda *key: reads.append(key) or _pair_image(*key))
    successors = reducer._reduce_state((1,) * 6)
    assert reads == [(1, 1)]
    assert successors == {(1, (1,) * 4): 5}


def test_state_counts_do_not_depend_on_query_order(monkeypatch):
    """``_reduce_state`` is called once per state lookup, and each new state
    misses the cache once, whatever order the queries come in."""
    queries = _partitions_up_to(12) + [(24,)]
    counts = []
    for order in (queries, queries[::-1]):
        reducer = GueReducer()
        seen = {"lookups": 0, "states": 0}
        step = reducer._reduce_state

        def counted(state, step=step, reducer=reducer, seen=seen):
            seen["lookups"] += 1
            seen["states"] += state not in reducer._cache
            return step(state)

        monkeypatch.setattr(reducer, "_reduce_state", counted)
        for idx in order:
            reducer.reduce(idx)
        assert seen["states"] == len(reducer._cache) - 1  # the empty state is seeded
        counts.append(seen)
    assert counts[0] == counts[1]


def test_index_canonicalization():
    assert canonical_index((3, 1, 2)) == (1, 2, 3)
    assert reduce_to_polynomial((3, 1)) == reduce_to_polynomial((1, 3))
    with pytest.raises(ValueError, match="nonnegative"):
        canonical_index((-1, 2))


@pytest.mark.parametrize("entry", [1.5, True, "x"])
def test_canonical_index_rejects_non_integral_entries(entry):
    with pytest.raises(ValueError, match="multi-index entry must be an integer"):
        canonical_index((2, entry))
    with pytest.raises(ValueError, match="multi-index entry must be an integer"):
        reduce_to_polynomial((2, entry))


def test_pivot_strategies_agree():
    for idx in [(6,), (2, 4), (1, 1, 2, 2), (8,), (2, 2, 2)]:
        results = {
            reduce_to_polynomial(idx),
            GueReducer("largest").reduce(idx),
            GueReducer("random", seed=3).reduce(idx),
            GueReducer("random", seed=99).reduce(idx),
        }
        assert len(results) == 1


@pytest.mark.parametrize(
    "pivot,seed,top",
    [("leftmost", 0, 20), ("largest", 0, 14), ("random", 3, 14)],
)
def test_length_reduction_matches_monomial_reduction(pivot, seed, top):
    """The second-order identity on word lengths gives exactly the
    polynomials of reducing each whole product of words."""
    reducer, reference = GueReducer(pivot, seed), MonomialReducer(pivot, seed)
    indices = _partitions_up_to(top) + ([(40,)] if pivot == "leftmost" else [])
    for idx in indices:
        assert reducer.reduce(idx) == reference.reduce(idx), idx
    assert reducer._cache.keys() == reference._cache.keys()


def _traces(*powers) -> tuple[int, tuple[int, ...]]:
    """The product of Tr X^p over ``powers`` as (nu power, sorted positive
    lengths), with Tr X^0 = nu."""
    return sum(1 for p in powers if p == 0), tuple(sorted(p for p in powers if p))


def test_tables_are_the_gue_loop_equations():
    """Every pivot and pair table equals its closed form:
    cobracket(x^{l-1} xi) = sum_{a+b=l-2} Tr X^a Tr X^b and
    {x^{l-1} xi, x^m} = m Tr X^{l+m-2}."""
    assert _pivot_image(4) == {(1, (2,)): 2, (0, (1, 1)): 1}
    assert _pair_image(1, 1) == {(1, ()): 1}
    for length in range(1, 41):
        expected = {}
        for a in range(length - 1):
            key = _traces(a, length - 2 - a)
            expected[key] = expected.get(key, 0) + 1
        assert _pivot_image(length) == expected, length
        for other in range(1, 31):
            expected = {_traces(length + other - 2): other}
            assert _pair_image(length, other) == expected, (length, other)


def test_fifty_matches_harer_zagier_closed_form():
    """(50,) against the closed formula: degree at most 26, so its values
    at N = 1..27 fix it."""
    poly = reduce_to_polynomial((50,))
    assert poly.degree <= 26
    for size in range(1, 28):
        assert poly(size) == harer_zagier_closed(25, size)


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


def test_a_reducer_holds_only_its_strategy_and_states():
    assert vars(GueReducer()).keys() == {"pivot", "seed", "_cache"}


def test_tables_are_shared_across_reducers(monkeypatch):
    """A second reducer reads the tables the first one built: reducing the
    same index again, from an empty state memo, calls neither operator."""
    expected = GueReducer().reduce((8, 4, 2))

    def no_table(*args):
        raise AssertionError("a table was built a second time")

    monkeypatch.setattr(OperatorContext, "nc_cobracket", no_table)
    monkeypatch.setattr(OperatorContext, "nc_bracket", no_table)
    assert GueReducer().reduce((8, 4, 2)) == expected


def test_threads_building_the_shared_tables_match_a_serial_run():
    """Reducers on more threads than cores fill the emptied table caches at
    once, with a short switch interval, and get the serial polynomials."""
    queries = _partitions_up_to(10) + [(16,), (6, 6)]
    serial = [GueReducer().reduce(idx) for idx in queries]
    _pivot_image.cache_clear()
    _pair_image.cache_clear()
    count = usable_cpus() + 4
    got = [None] * count

    def run(slot):
        reducer = GueReducer()
        order = queries if slot % 2 else queries[::-1]
        polys = {idx: reducer.reduce(idx) for idx in order}
        got[slot] = [polys[idx] for idx in queries]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(polys == serial for polys in got)


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


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: GueReducer("middle"), "unknown pivot strategy 'middle'",
                 id="pivot-strategy"),
])
def test_reduction_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()

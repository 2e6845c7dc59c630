"""Seeded GUE sampling and Monte Carlo estimates."""

import numpy as np
import pytest

from ncbv import gue_rng, monte_carlo_moment, reduce_to_polynomial, sample_gue, sample_gue_batch


def test_samples_are_hermitian():
    rng = gue_rng(1)
    for size in (1, 2, 4):
        matrix = sample_gue(size, rng)
        assert np.allclose(matrix, matrix.conj().T)


def test_fixed_seed_is_bit_identical():
    a = sample_gue_batch(3, 5, gue_rng(123))
    b = sample_gue_batch(3, 5, gue_rng(123))
    assert np.array_equal(a, b)
    c = sample_gue_batch(3, 5, gue_rng(124))
    assert not np.array_equal(a, c)


def test_chunk_streams_are_disjoint():
    a = sample_gue_batch(2, 4, gue_rng(7, chunk=0))
    b = sample_gue_batch(2, 4, gue_rng(7, chunk=1))
    assert not np.array_equal(a, b)


def test_mean_trace_square_at_rank_two():
    # E[Tr X^2] = p_2(2) = 4, within five standard errors of 1e5 draws
    result = monte_carlo_moment((2,), 2, 100_000, seed=2024)
    assert abs(result.estimate - 4.0) <= 5 * result.std_error


@pytest.mark.parametrize(
    "idx,size",
    [((2,), 3), ((1, 3), 2), ((3,), 2)],
)
def test_monte_carlo_tracks_exact_targets(idx, size):
    result = monte_carlo_moment(idx, size, 120_000, seed=99)
    target = float(reduce_to_polynomial(idx)(size))
    assert abs(result.estimate - target) <= 5 * result.std_error


def test_monte_carlo_deterministic_across_threads():
    one = monte_carlo_moment((2, 2), 2, 70_000, seed=5, threads=1)
    four = monte_carlo_moment((2, 2), 2, 70_000, seed=5, threads=4)
    assert one == four


def test_monte_carlo_validates_inputs():
    with pytest.raises(ValueError, match="two samples"):
        monte_carlo_moment((2,), 2, 1, seed=0)
    with pytest.raises(ValueError, match="nonnegative"):
        monte_carlo_moment((-2,), 2, 100, seed=0)
    with pytest.raises(ValueError, match="multi-index entry must be an integer"):
        monte_carlo_moment((2.5,), 2, 100, seed=0)


def test_monte_carlo_rejects_nonpositive_chunk():
    for chunk in (0, -1):
        with pytest.raises(ValueError, match="chunk"):
            monte_carlo_moment((2,), 2, 100, seed=0, chunk=chunk)


def test_pool_size_is_capped_by_chunks_and_cpus(monkeypatch):
    from ncbv import sampling

    monkeypatch.setattr(sampling, "usable_cpus", lambda: 4)
    assert sampling.pool_size(10**6, 3) == 3
    assert sampling.pool_size(10**6, 10**6) == 4
    assert sampling.pool_size(1, 50) == 1
    assert sampling.pool_size(0, 50) == 1
    started = []

    class Recorder(sampling.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(sampling, "usable_cpus", lambda: 2)
    monkeypatch.setattr(sampling, "ThreadPoolExecutor", Recorder)
    big = monte_carlo_moment((2,), 2, 100, seed=0, chunk=10, threads=10**6)
    assert started == [2]
    assert big == monte_carlo_moment((2,), 2, 100, seed=0, chunk=10, threads=1)


def test_thread_count_env(monkeypatch):
    from ncbv.sampling import thread_count

    monkeypatch.setenv("NCBV_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.delenv("NCBV_THREADS")
    assert thread_count() >= 1


def test_covariance_structure():
    """E[X_ab X_cd] = delta_ad delta_bc at modest sample size."""
    size = 2
    draws = sample_gue_batch(size, 60_000, gue_rng(11))
    for a in range(size):
        for b in range(size):
            for c in range(size):
                for d in range(size):
                    mean = float(np.mean(draws[:, a, b] * draws[:, c, d]).real)
                    expected = 1.0 if (a == d and b == c) else 0.0
                    assert abs(mean - expected) < 0.05

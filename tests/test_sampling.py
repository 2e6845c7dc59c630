"""Seeded GUE sampling and Monte Carlo estimates."""

import contextlib
import math
import mmap
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from ncbv import (gue_rng, monte_carlo_moment, reduce_to_polynomial, sample_gue,
                  sample_gue_batch, sampling)
from ncbv.sampling import McResult, standard_normals


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


def test_monte_carlo_bounds_the_chunk():
    """A chunk's values are held whole, so its size has a ceiling."""
    from ncbv.sampling import MAX_CHUNK

    with pytest.raises(ValueError, match="--chunk 4194305 exceeds the largest chunk"):
        monte_carlo_moment((2,), 2, 100, seed=0, chunk=MAX_CHUNK + 1)
    at_most = monte_carlo_moment((2,), 2, 100, seed=0, chunk=MAX_CHUNK, threads=1)
    assert at_most == monte_carlo_moment((2,), 2, 100, seed=0, chunk=100, threads=1)


def test_monte_carlo_bounds_the_normals_drawn(monkeypatch):
    """samples * N^2 normals at most: a draw of exactly the bound runs, and
    one more sample is refused, naming --samples."""
    monkeypatch.setattr(sampling, "MAX_NORMALS", 400)
    assert monte_carlo_moment((2,), 2, 100, seed=0, threads=1).std_error > 0
    with pytest.raises(ValueError, match="--samples 101 at --N 2 draws 404 normals"):
        monte_carlo_moment((2,), 2, 101, seed=0)


def test_pool_size_is_capped_by_chunks_and_cpus(monkeypatch):
    monkeypatch.setattr(sampling, "usable_cpus", lambda: 4)
    assert sampling.pool_size(10**6, 3) == 3
    assert sampling.pool_size(10**6, 10**6) == 4
    assert sampling.pool_size(1, 50) == 1
    assert sampling.pool_size(0, 50) == 1
    kinds, pids = _pool_kinds(monkeypatch)
    big = monte_carlo_moment((2,), 2, 100, seed=0, chunk=10, threads=10**6)
    expected = [("forked", 2)] if FORKS else [("threaded", 2)]
    assert kinds == expected
    assert len(pids) == (2 if FORKS else 0)
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


# Seeded estimates as float.hex() (estimate, std_error), pinned so that any
# change to the draw, the per-matrix values or the summation order shows.
# Odd N makes N^2 odd, so a Box-Muller pair straddles two matrices; every
# sample count leaves a short last chunk.  The first four are small enough
# to rerun at any block size.
PINNED = [
    ((2,), 3, 101, 1, 1, ("0x1.213b4662cc885p+3", "0x1.94d7ee584db94p-2")),
    ((3, 1), 1, 1001, 2, 3, ("0x1.cb4aaa28c50f9p+1", "0x1.a4b44f2cc9f62p-2")),
    ((1, 3), 5, 1000, 9, 3, ("0x1.2e60d8c7e832ep+6", "0x1.e999d355d917cp+1")),
    ((0, 2), 3, 1001, 4, 97, ("0x1.ac05ad406512cp+4", "0x1.91e3ec4d66261p-2")),
    ((0, 2), 3, 10_001, 4, 4097, ("0x1.b0cf8cc81f514p+4", "0x1.07294f3cf2bb8p-3")),
    ((4,), 7, 9_999, 0, 4097, ("0x1.5ae5a1509ca04p+9", "0x1.7df33ff262770p+1")),
    ((4,), 8, 10_001, 0, 8193, ("0x1.02059cf3d1ce5p+10", "0x1.f576f970ee0bbp+1")),
    ((2, 2), 2, 70_001, 5, 65536, ("0x1.7ddfff936e517p+4", "0x1.1acfcd5ba789fp-3")),
]


def _pinned_bits(idx, size, samples, seed, chunk, threads):
    result = monte_carlo_moment(idx, size, samples, seed=seed, chunk=chunk, threads=threads)
    return result.estimate.hex(), result.std_error.hex()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("idx,size,samples,seed,chunk,bits", PINNED)
def test_seeded_estimates_are_pinned(idx, size, samples, seed, chunk, bits, threads):
    assert _pinned_bits(idx, size, samples, seed, chunk, threads) == bits


@pytest.mark.parametrize("block", [2, 6, 10**9])
@pytest.mark.parametrize("idx,size,samples,seed,chunk,bits", PINNED[:4])
def test_estimates_do_not_depend_on_block_size(monkeypatch, block, idx, size, samples, seed,
                                               chunk, bits):
    monkeypatch.setattr(sampling, "BLOCK", block)
    for threads in (1, 2):
        assert _pinned_bits(idx, size, samples, seed, chunk, threads) == bits


def test_block_size_is_even_and_bounded_in_bytes():
    from ncbv.sampling import BLOCK, block_size

    assert [block_size(n) for n in (1, 8, 9, 20, 1000)] == [BLOCK, BLOCK, 3236, 654, 2]
    for n in range(1, 70):
        assert block_size(n) % 2 == 0
        assert block_size(n) * n * n <= BLOCK * 64 or block_size(n) == 2


def test_chunk_memory_is_one_block():
    """A default 65,536-matrix chunk at N = 8 is drawn in blocks: numpy's
    buffers peak under 16 MiB, where one whole-chunk draw takes over 100."""
    tracemalloc.start()
    try:
        monte_carlo_moment((4,), 8, 65_536, seed=0, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# Worker pools.  usable_cpus is fixed at 2 so that the pinned run below
# (18 blocks) starts two workers on any host.
POOLED = PINNED[-1]
FORKS = hasattr(os, "fork")
KINDS = ("forked", "threaded") if FORKS else ("threaded",)
_REAL_FORKS, _PIPE, _FORK = sampling._forks, os.pipe, getattr(os, "fork", None)


def _pool_kinds(monkeypatch, kind=None):
    """Record the kind of each worker pool that ``_block_results`` starts,
    as ``_forks`` decides it (or as ``kind`` forces it), with its size,
    the pipes it opens, and the pid of every child that ``os.fork`` makes."""
    kinds, pids = [], []

    def recording_forks():
        kinds.append((kind or ("forked" if _REAL_FORKS() else "threaded"), 0))
        return kinds[-1][0] == "forked"

    def recording_pipe():
        kinds[-1] = kinds[-1][0], kinds[-1][1] + 1
        return _PIPE()

    monkeypatch.setattr(sampling, "_forks", recording_forks)
    monkeypatch.setattr(os, "pipe", recording_pipe)
    if FORKS:
        def recording_fork():
            pid = _FORK()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(sampling, "usable_cpus", lambda: 2)
    return kinds, pids


def _assert_reaped(kind, pids):
    """Every worker has ended and been waited for: ``waitpid`` no longer
    knows a child, and no thread but the caller's is left."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert len(pids) == (2 if kind == "forked" else 0)
    assert threading.active_count() == 1


@contextlib.contextmanager
def _deadline(seconds=60):
    """Fail, rather than hang, a test whose workers never end."""
    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _pooled_bits():
    idx, size, samples, seed, chunk, _ = POOLED
    return _pinned_bits(idx, size, samples, seed, chunk, threads=2)


def _slow_read(results, started, ahead, timeout=30.0):
    """Take one result from ``results`` and return how many tasks had
    started once the count has stayed at ``ahead`` past it for 0.2 s
    (or failed to reach it within ``timeout``)."""
    next(results)
    deadline = time.monotonic() + timeout
    while sum(started[:]) < ahead and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.2)
    return sum(started[:])


def _assert_blocks_in_flight_are_capped(monkeypatch, kind):
    """A worker blocks on its full pipe: with results larger than a pipe
    buffer, each worker runs one block past what the caller has read.  The
    workers mark the blocks they start in a shared anonymous map."""
    kinds, pids = _pool_kinds(monkeypatch, kind)
    tasks = 40
    started = mmap.mmap(-1, tasks)

    def work(i):
        started[i] = 1
        return np.full(1 << 17, float(i))  # 1 MiB, past any default pipe buffer

    with _deadline():
        results = sampling._block_results(work, lambda: [(i,) for i in range(tasks)], 2)
        assert _slow_read(results, started, 3) == 3  # one read, one ahead per worker
        assert _slow_read(results, started, 4) == 4
        rest = list(results)
    assert [task for task, _ in rest] == [(i,) for i in range(2, tasks)]
    assert all(values[0] == i for (i,), values in rest)
    assert sum(started[:]) == tasks
    assert kinds == [(kind, 2)]
    _assert_reaped(kind, pids)


@pytest.mark.skipif(not FORKS, reason="workers are forked only where the platform has fork")
def test_blocks_in_flight_are_capped(monkeypatch):
    _assert_blocks_in_flight_are_capped(monkeypatch, "forked")


def test_thread_blocks_in_flight_are_capped(monkeypatch):
    """Thread workers share the forked children's pipe bound."""
    _assert_blocks_in_flight_are_capped(monkeypatch, "threaded")


@pytest.mark.skipif(not FORKS, reason="workers are forked only where the platform has fork")
def test_a_single_threaded_caller_forks_its_workers(monkeypatch):
    kinds, pids = _pool_kinds(monkeypatch)
    assert threading.active_count() == 1
    assert _pooled_bits() == POOLED[-1]
    assert kinds == [("forked", 2)]
    _assert_reaped("forked", pids)


def test_workers_are_joined_after_a_worker_raises(monkeypatch):
    """The caller gets the block's own exception, and every worker ends."""
    for kind in KINDS:
        kinds, pids = _pool_kinds(monkeypatch, kind)
        results = sampling._block_results(partial(divmod, 7),
                                          lambda: [(1,), (2,), (0,), (3,)], 2)
        with _deadline():
            assert next(results) == ((1,), (7, 0))
            with pytest.raises(ZeroDivisionError):
                list(results)
        assert kinds == [(kind, 2)]
        _assert_reaped(kind, pids)


def test_workers_are_joined_after_an_early_close(monkeypatch):
    """Closing the results after the first one ends every worker, also
    workers blocked on a full pipe."""
    for kind in KINDS:
        kinds, pids = _pool_kinds(monkeypatch, kind)
        results = sampling._block_results(lambda i: np.zeros(1 << 17),
                                          lambda: [(i,) for i in range(20)], 2)
        with _deadline():
            task, values = next(results)
            results.close()
        assert task == (0,) and values.shape == (1 << 17,)
        assert kinds == [(kind, 2)]
        _assert_reaped(kind, pids)


def test_a_threaded_caller_with_default_sigpipe_stops_early():
    """A thread worker blocks SIGPIPE for itself: when the caller stops
    early, the worker's write to the closed pipe raises in that thread
    rather than ending a caller that restored SIGPIPE's default action."""
    script = ("import signal, threading; from ncbv import sampling\n"
              "signal.signal(signal.SIGPIPE, signal.SIG_DFL)\n"
              "release = threading.Event()\n"
              "other = threading.Thread(target=release.wait); other.start()\n"
              "forks = sampling._forks()\n"
              "results = sampling._block_results(lambda i: bytes(1 << 20),\n"
              "                                  lambda: [(i,) for i in range(8)], 2)\n"
              "next(results); results.close()\n"
              "release.set(); other.join()\n"
              "print(forks, threading.active_count())")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False 1\n", "")


@pytest.mark.skipif(not FORKS, reason="workers are forked only where the platform has fork")
def test_a_worker_that_dies_is_reported(monkeypatch):
    """A child that ends without sending its block's result (killed, or
    unable to pickle it) is named in the caller's error."""
    kinds, pids = _pool_kinds(monkeypatch)
    results = sampling._block_results(lambda i: os._exit(3) if i == 2 else i,
                                      lambda: [(i,) for i in range(6)], 2)
    assert [next(results), next(results)] == [((0,), 0), ((1,), 1)]
    with _deadline(), pytest.raises(RuntimeError, match=f"worker {pids[0]} exited before "
                                                        "its block 2"):
        next(results)
    _assert_reaped("forked", pids)


def test_a_replaced_block_function_runs_on_threads(monkeypatch):
    """A wrapper's state (a tracer's counters) lives in the caller's
    process, so wrapped blocks never run in a forked one."""
    kinds, pids = _pool_kinds(monkeypatch)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return sample_gue_batch(*args, **kwargs)

    monkeypatch.setattr(sampling, "sample_gue_batch", counted)
    assert _pooled_bits() == POOLED[-1]
    assert kinds == [("threaded", 2)] and pids == []
    assert sum(calls) == POOLED[2]


def test_a_threaded_caller_gets_thread_workers(monkeypatch):
    kinds, pids = _pool_kinds(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert _pooled_bits() == POOLED[-1]
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert kinds == [("threaded", 2)] and pids == []


def test_without_fork_workers_are_threads(monkeypatch):
    kinds, pids = _pool_kinds(monkeypatch)
    monkeypatch.delattr(os, "fork", raising=False)
    assert _pooled_bits() == POOLED[-1]
    assert kinds == [("threaded", 2)] and pids == []


def test_an_unguarded_script_runs_pooled(tmp_path):
    """``spawn`` and ``forkserver`` re-import the caller's main module, so a
    script that samples at top level, with no ``__main__`` guard, would
    run again in every worker.  A ``python -c`` script has no main module
    file to re-import, so the script is a file.  Each line is printed
    exactly once: no forked child returns into the script, and none
    flushes the line the script buffered before it forked."""
    idx, size, samples, seed, chunk, bits = POOLED
    script = tmp_path / "unguarded.py"
    script.write_text(
        "from ncbv import monte_carlo_moment, sampling\n"
        "sampling.usable_cpus = lambda: 2\n"
        "print('sampling')\n"
        f"r = monte_carlo_moment({idx!r}, {size}, {samples}, seed={seed}, chunk={chunk}, "
        "threads=2)\n"
        "print(r.estimate.hex(), r.std_error.hex())\n")
    src = Path(__file__).resolve().parent.parent / "src"
    # stdout is a pipe, so without PYTHONUNBUFFERED the first line is still
    # in the script's buffer when it forks
    env = {k: v for k, v in os.environ.items() if k not in ("NCBV_THREADS", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"sampling\n{bits[0]} {bits[1]}\n"


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: standard_normals(gue_rng(0, 0), 2, start=1, total=4),
                 "not an even-aligned slice", id="odd-aligned-normals"),
    pytest.param(lambda: sample_gue_batch(0, 1, gue_rng(0, 0)), "matrix size must be at least 1",
                 id="batch-size-zero"),
    pytest.param(lambda: monte_carlo_moment((2,), 0, 100, seed=0),
                 "matrix size must be at least 1", id="moment-size-zero"),
])
def test_sampling_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("estimate, target, z", [(1.0, 2.0, math.inf), (1.0, 1.0, 0.0)])
def test_z_score_without_spread(estimate, target, z):
    """With a zero standard error only an exact hit has a finite z-score."""
    assert McResult(estimate, 0.0).z_score(target) == z

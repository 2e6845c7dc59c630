"""Seeded GUE sampling and Monte Carlo moment estimation.

The PRNG is pinned: PCG64 seeded through numpy's SeedSequence, with
Gaussian variates produced by an explicit Box-Muller transform on the
generator's 53-bit uniforms.  A run is identified by (seed, chunk
index); chunk c uses SeedSequence(seed, spawn_key=(c,)), so estimates
are independent of the chunk schedule and reproducible for a fixed
seed.  Floating point lives only in this module.

Per matrix the draw order is: N diagonal normals, then the N(N-1)/2
upper-triangle entries row by row, real part before imaginary, each
normal scaled by 1/sqrt(2).  This makes E[X_ab X_cd] = delta_ad
delta_bc, the covariance the Wick oracle assumes.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

DEFAULT_CHUNK = 65536


def thread_count() -> int:
    """Worker cap from NCBV_THREADS, defaulting to available parallelism."""
    env = os.environ.get("NCBV_THREADS")
    if not env:
        return os.cpu_count() or 1
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"NCBV_THREADS must be a positive integer, got {env!r}")
    return int(env)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_size(workers: int, chunks: int) -> int:
    """Worker threads to start: at most one per chunk and per usable CPU."""
    return max(1, min(workers, chunks, usable_cpus()))


def gue_rng(seed: int, chunk: int | None = None) -> np.random.Generator:
    if chunk is None:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chunk,)))
    )


def standard_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """Box-Muller on uniform pairs; draws 2*ceil(count/2) uniforms."""
    pairs = (count + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * math.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def sample_gue_batch(size: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Hermitian matrices with density ~ exp(-Tr(X^2)/2)."""
    if size < 1:
        raise ValueError("matrix size must be at least 1")
    normals = standard_normals(rng, count * size * size)
    normals = normals.reshape(count, size * size)
    out = np.zeros((count, size, size), dtype=complex)
    diag = normals[:, :size]
    for a in range(size):
        out[:, a, a] = diag[:, a]
    pos = size
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for a in range(size):
        for b in range(a + 1, size):
            re = normals[:, pos] * inv_sqrt2
            im = normals[:, pos + 1] * inv_sqrt2
            pos += 2
            out[:, a, b] = re + 1j * im
            out[:, b, a] = re - 1j * im
    return out


def sample_gue(size: int, rng: np.random.Generator) -> np.ndarray:
    """One GUE matrix drawn from the given generator."""
    return sample_gue_batch(size, 1, rng)[0]


def _chunk_sums(idx, size, count, seed, chunk_index):
    """(sum, sum of squares) of the observable over one seeded chunk."""
    rng = gue_rng(seed, chunk_index)
    matrices = sample_gue_batch(size, count, rng)
    eigenvalues = np.linalg.eigvalsh(matrices)
    values = np.ones(count)
    for power in idx:
        if power == 0:
            values = values * size
        else:
            values = values * np.sum(eigenvalues**power, axis=1)
    return float(np.sum(values)), float(np.sum(values * values))


@dataclass
class McResult:
    estimate: float
    std_error: float
    samples: int
    seed: int

    def z_score(self, target: float) -> float:
        if self.std_error == 0.0:
            return 0.0 if self.estimate == target else math.inf
        return (self.estimate - target) / self.std_error


def monte_carlo_moment(idx, size: int, samples: int, seed: int,
                       chunk: int = DEFAULT_CHUNK, threads: int | None = None) -> McResult:
    """Sample mean and standard error of prod_j Tr(X^{i_j}) over GUE draws.

    Deterministic given (idx, size, samples, seed, chunk): chunks are
    seeded independently and accumulated in index order regardless of
    the worker count.
    """
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    idx = tuple(int(i) for i in idx)
    if any(i < 0 for i in idx):
        raise ValueError("multi-index entries are nonnegative")
    if chunk < 1:
        raise ValueError("chunk must be at least 1")
    plan = []
    remaining, chunk_index = samples, 0
    while remaining > 0:
        take = min(chunk, remaining)
        plan.append((chunk_index, take))
        remaining -= take
        chunk_index += 1

    workers = pool_size(threads if threads is not None else thread_count(), len(plan))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(lambda item: _chunk_sums(idx, size, item[1], seed, item[0]), plan)
            )
    else:
        results = [_chunk_sums(idx, size, count, seed, index) for index, count in plan]

    total = 0.0
    total_sq = 0.0
    for part, part_sq in results:  # fixed order: deterministic accumulation
        total += part
        total_sq += part_sq
    mean = total / samples
    variance = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return McResult(mean, math.sqrt(variance / samples), samples, seed)

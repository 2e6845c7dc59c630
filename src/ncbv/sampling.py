"""Seeded GUE sampling and Monte Carlo moment estimation.

The PRNG is pinned: PCG64 seeded through numpy's SeedSequence, with
Gaussian variates produced by an explicit Box-Muller transform on the
generator's 53-bit uniforms.  A run is identified by (seed, chunk
index); chunk c uses SeedSequence(seed, spawn_key=(c,)), so estimates
are independent of the chunk schedule and reproducible for a fixed
seed.  Floating point lives here and in the numeric trace evaluation of
``MultiTraceFunctional.evaluate``.

Per matrix the draw order is: N diagonal normals, then the N(N-1)/2
upper-triangle entries row by row, real part before imaginary, each
normal scaled by 1/sqrt(2).  This makes E[X_ab X_cd] = delta_ad
delta_bc, the covariance the Wick oracle assumes.

A chunk's normals come from one Box-Muller draw: all of its u1
uniforms, then all of its u2.  The chunk is sampled in blocks of at
most ``block_size(N)`` matrices.  A block rebuilds the chunk's generator
and reaches its own share of u1 and of u2 through
``bit_generator.advance`` (one PCG64 output per double); blocks hold an
even number of matrices, so each starts on a Box-Muller pair.  A block
yields its matrices' values, the observable is summed over the whole
chunk's values in one ``np.sum``, and chunks are added in index order,
so estimates do not depend on the block size or the worker count.  A
chunk holds at most ``MAX_CHUNK`` samples, which bounds those values.

A worker is a child forked with ``os.fork`` when the platform can fork
and the caller runs one Python thread, and a thread otherwise; ``_forks``
lists the conditions.  Either kind gets one pipe: worker k of W runs
blocks k, k + W, ... of its own copy of the lazy plan and pickles their
values into its pipe, which the caller reads in block order.  A worker
blocks on its full pipe, so memory is one pipe buffer per worker plus
one chunk's values (8 bytes a sample), whatever the sample count.  A
block is a pure function of (idx, N, seed, chunk index, count, start,
take), so either kind returns the same values.  Forking a process that
runs threads is deprecated from Python 3.12, so ``mc`` forks before it
starts any thread, and a threaded caller gets threads.  No worker
outlives the call.  N is at most ``MAX_SIZE``, since a block holds at
least two matrices, and a run draws at most ``MAX_NORMALS`` normals.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import partial
from itertools import islice

from .multitrace import index_entries, np

DEFAULT_CHUNK = 65536
MAX_CHUNK = 1 << 22  # samples: 32 MiB of values, about three times that while summed
BLOCK = 4096  # matrices per block at N <= 8; see block_size
MAX_SIZE = 2048  # N: a 2-matrix block holds 2 N^2 * 24 B = 192 MiB of matrices and normals
# samples * N^2, the normals a run draws; a run of 2^28 took 27 s at N = 8 and 15 min at
# N = 2048 on two workers of a 2-vCPU Xeon, where the per-entry fill dominates past N = 300
MAX_NORMALS = 1 << 28


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


def pool_size(workers: int, tasks: int) -> int:
    """Workers to start: at most one per task and per usable CPU."""
    return max(1, min(workers, tasks, usable_cpus()))


def block_size(size: int) -> int:
    """Matrices per block: BLOCK, or fewer when N > 8, so that a block's
    stack holds at most BLOCK * 64 complex entries (4 MiB) up to N = 362;
    always even and at least 2."""
    return max(2, min(BLOCK, BLOCK * 64 // (size * size)) // 2 * 2)


def gue_rng(seed: int, chunk: int | None = None) -> np.random.Generator:
    if chunk is None:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chunk,)))
    )


def standard_normals(rng: np.random.Generator, count: int,
                     start: int = 0, total: int | None = None) -> np.ndarray:
    """Normals start..start+count of a Box-Muller draw of ``total`` normals
    (default: the first ``count``).

    The draw takes ceil(total/2) uniforms u1, then as many u2; normals 2k
    and 2k+1 come from the pair (u1[k], u2[k]).  ``start`` must be even,
    so that the slice begins on a pair; the uniforms before it are
    skipped with ``bit_generator.advance``.
    """
    total = count if total is None else total
    if start % 2 or start < 0 or count < 0 or start + count > total:
        raise ValueError(f"normals {start}..{start + count} are not an even-aligned "
                         f"slice of a draw of {total}")
    pairs = (total + 1) // 2
    first, last = start // 2, (start + count + 1) // 2
    if first:
        rng.bit_generator.advance(first)
    u1 = rng.random(last - first)
    if pairs - last + first:
        rng.bit_generator.advance(pairs - last + first)
    u2 = rng.random(last - first)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * math.pi * u2
    out = np.empty(2 * (last - first))
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def sample_gue_batch(size: int, count: int, rng: np.random.Generator,
                     start: int = 0, total: int | None = None) -> np.ndarray:
    """``count`` Hermitian matrices with density ~ exp(-Tr(X^2)/2): matrices
    start..start+count of a draw of ``total`` (default: the first ``count``)."""
    if size < 1:
        raise ValueError("matrix size must be at least 1")
    total = count if total is None else total
    square = size * size
    normals = standard_normals(rng, count * square, start * square, total * square)
    normals = normals.reshape(count, square)
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


def _block_values(idx, size, seed, chunk_index, count, start, take):
    """The observable on matrices start..start+take of a seeded chunk of
    ``count``, one value per matrix."""
    rng = gue_rng(seed, chunk_index)
    matrices = sample_gue_batch(size, take, rng, start, count)
    eigenvalues = np.linalg.eigvalsh(matrices)
    values = np.ones(take)
    for power in idx:
        if power == 0:
            values = values * size
        else:
            values = values * np.sum(eigenvalues**power, axis=1)
    return values


# What a block runs, as this module defines it; see _forks.
_BLOCK_CODE = {name: globals()[name] for name in
               ("np", "gue_rng", "standard_normals", "sample_gue_batch", "_block_values")}


def _chunk_sums(blocks):
    """(sum, sum of squares) of the observable over one chunk, given its
    blocks' values in order."""
    values = np.concatenate(blocks)
    return float(np.sum(values)), float(np.sum(values * values))


def _blocks(samples, chunk, block):
    """(chunk index, chunk size, start, take) of every block, in order."""
    for chunk_index, first in enumerate(range(0, samples, chunk)):
        count = min(chunk, samples - first)
        for start in range(0, count, block):
            yield chunk_index, count, start, min(block, count - start)


def _forks():
    """Whether workers are forked children rather than threads.

    A child is made by ``os.fork``, which runs no import of the caller's
    main module (``spawn`` and ``forkserver`` re-run an unguarded script),
    and only for a caller with one Python thread, since forking a threaded
    process is deprecated.  A block must also run this module's own code:
    a caller that replaced what a block calls (a tracer, a test double)
    keeps the replacement's state in its own process, which only a thread
    updates."""
    own_code = all(globals()[name] is code for name, code in _BLOCK_CODE.items())
    return hasattr(os, "fork") and threading.active_count() == 1 and own_code


def _block_results(work, plan, workers):
    """(task, work(*task)) for each task of the lazy plan ``plan()`` in
    order, on ``workers`` forked children or threads, as ``_forks`` decides.

    Worker k runs tasks k, k + workers, ... of its own ``plan()`` through
    ``_serve``, which pickles each result into the worker's own pipe, and
    the caller reads task i from worker i mod workers.  A worker blocks on
    a full pipe, so it runs at most a pipe buffer ahead of the caller.
    Only the worker holds the write end of its pipe: once the caller
    closes the read ends, a worker's next write fails and it ends, so every
    worker is reaped before the iteration ends, after an early stop too.
    A forking caller loads ``numpy.random`` first, so the children inherit
    it rather than each importing it again."""
    if workers == 1:
        for task in plan():
            yield task, work(*task)
        return
    import pickle

    forks = _forks()
    if forks:
        np.random  # loaded once here, not in each child
    readers, started = [], []  # started: (name, wait) of each worker
    try:
        for k in range(workers):
            read, write = os.pipe()
            readers.append(open(read, "rb"))
            out, tasks = open(write, "wb"), islice(plan(), k, None, workers)
            if not forks:
                # a daemon, so that results left unclosed never hold up exit
                thread = threading.Thread(target=_serve, args=(work, tasks, out), daemon=True)
                thread.start()
                started.append((thread.name, thread.join))
                continue
            with out:
                pid = os.fork()
                if pid == 0:  # the child leaves through os._exit, never into the caller's code
                    try:
                        for reader in readers:
                            reader.close()
                        _serve(work, tasks, out)
                    finally:
                        os._exit(0)
            started.append((pid, partial(os.waitpid, pid, 0)))
        for i, task in enumerate(plan()):
            try:
                ok, value = pickle.load(readers[i % workers])
            except EOFError:
                raise RuntimeError(f"Monte Carlo worker {started[i % workers][0]} "
                                   f"exited before its block {i}") from None
            if not ok:
                raise value
            yield task, value
    finally:
        for reader in readers:
            reader.close()
        for _, wait in started:
            wait()


def _serve(work, tasks, out):
    """Pickle (True, result) or (False, exception) of each task into the
    pipe ``out``, stopping after an exception or once the reader has gone.
    SIGPIPE is blocked for the calling thread, so a write to a closed pipe
    raises rather than ending a caller that restored its default action."""
    import pickle
    import signal

    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPIPE})
    try:
        with out:
            for task in tasks:
                try:
                    result = True, work(*task)
                except Exception as exc:  # sent to the caller, which raises it
                    result = False, exc
                out.write(pickle.dumps(result))
                out.flush()
                if not result[0]:
                    break
    except BrokenPipeError:
        pass  # the caller stopped reading


@dataclass
class McResult:
    estimate: float
    std_error: float

    def z_score(self, target: float) -> float:
        if self.std_error == 0.0:
            return 0.0 if self.estimate == target else math.inf
        return (self.estimate - target) / self.std_error


def monte_carlo_moment(idx, size: int, samples: int, seed: int,
                       chunk: int = DEFAULT_CHUNK, threads: int | None = None) -> McResult:
    """Sample mean and standard error of prod_j Tr(X^{i_j}) over GUE draws.

    Deterministic given (idx, size, samples, seed, chunk): chunks are
    seeded independently and accumulated in index order regardless of
    the worker count and the block size.
    """
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    idx = index_entries(idx)  # the caller's order fixes the float product
    if chunk < 1:
        raise ValueError("chunk must be at least 1")
    if chunk > MAX_CHUNK:
        raise ValueError(f"--chunk {chunk} exceeds the largest chunk, {MAX_CHUNK} samples")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if size < 1:
        raise ValueError("matrix size must be at least 1")
    if size > MAX_SIZE:
        raise ValueError(f"--N {size} exceeds the largest matrix size, {MAX_SIZE}")
    if samples * size * size > MAX_NORMALS:
        raise ValueError(f"--samples {samples} at --N {size} draws {samples * size * size} "
                         f"normals, past the largest draw, {MAX_NORMALS}")
    block = block_size(size)
    full, rest = divmod(samples, chunk)
    blocks = full * -(-chunk // block) + -(-rest // block)
    workers = pool_size(threads if threads is not None else thread_count(), blocks)

    total = 0.0
    total_sq = 0.0
    parts = []
    work = partial(_block_values, idx, size, seed)
    plan = partial(_blocks, samples, chunk, block)
    for (_, count, start, take), values in _block_results(work, plan, workers):
        parts.append(values)
        if start + take == count:  # chunks in index order: deterministic accumulation
            part, part_sq = _chunk_sums(parts)
            total += part
            total_sq += part_sq
            parts = []
    mean = total / samples
    variance = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return McResult(mean, math.sqrt(variance / samples))

"""Independent Wick-pairing oracle for Gaussian multi-trace moments.

E[prod_j Tr(X^{i_j})] with covariance E[X_ab X_cd] = delta_ad delta_bc
expands over perfect matchings pi of the T = sum i_j letter positions:
each matching contributes N^{#cycles(gamma.pi)}, where gamma is the
permutation whose cycles are the consecutive index blocks.  The oracle
tallies these cycle counts by enumeration.  It imports nothing from the
cohomological reduction it cross-checks: both read the observable
through ``multitrace.observable``.

The enumeration has two stages.  A prefix walk in Python, ``_walk``,
pairs the smallest unmatched point with each later free point until at
most ``BLOCK`` points are free; it visits every such prefix exactly once.
Each prefix is then contracted: the cycles of sigma = gamma.pi that lie
entirely among matched points are counted, and every other cycle is seen
through the first-return map of sigma on the free points (from a free
point follow gamma, then sigma through matched points, until a free
point is reached).  The (f-1)!! matchings rho of the f free points then
add #cycles(first_return . rho) to the closed count.

That last histogram depends only on the cycle type of the first-return
map: for any permutation tau, #cycles(rho . tau sigma tau^-1) =
#cycles((tau^-1 rho tau) . sigma), and rho -> tau^-1 rho tau permutes
the matchings.  So it is counted once per cycle type, on the
representative ``block_permutation(cycle_type)``, and looked up at every
other leaf.  That count runs in numpy: the representative is applied to
a table of all partner arrays of the f points, which the same walk run
to the end builds once per f, and the cycles of every row are counted
at once by pointer doubling on the smallest label.  Nothing above the
leaves is memoized, so every prefix is still enumerated.
"""

from __future__ import annotations

from functools import cache
from math import prod

from .multitrace import np, observable
from .nupoly import NuPolynomial
from .scalar import Scalar

DEFAULT_CAP = 16
# The largest cap accepted: 17!! is about 3.4e7 matchings, walked as
# 36,465 prefixes in some 0.3-0.5 s for (18,) on a 2-vCPU Xeon, and each
# further step of 2 multiplies the prefix count by the next odd number.
MAX_CAP = 18
# Free points left to a numpy block; one block holds at most 9!! = 945
# matchings, whatever the input, and is counted once per cycle type (42
# types of 10 points).
BLOCK = 10


def block_permutation(parts) -> list[int]:
    """gamma: one cycle per part, in consecutive blocks of positions."""
    gamma = []
    start = 0
    for size in parts:
        for offset in range(size):
            gamma.append(start + (offset + 1) % size)
        start += size
    return gamma


def _walk(points: int, left: int, visit) -> None:
    """Pair the smallest free point of range(``points``) with each later
    free point, in turn, until at most ``left`` points are free, and call
    ``visit(partner)`` at each stop, where partner[p] is the point matched
    to p, or -1 while p is free.  Every such prefix is visited exactly
    once; ``partner`` is one list, restored after each visit."""
    partner = [-1] * points

    def walk(first: int, free: int) -> None:
        if free <= left:
            visit(partner)
            return
        while partner[first] != -1:
            first += 1
        for other in range(first + 1, points):
            if partner[other] == -1:
                partner[first] = other
                partner[other] = first
                walk(first + 1, free - 2)
                partner[first] = -1
                partner[other] = -1

    walk(0, points)


@cache
def _leaf_table(points: int) -> tuple:
    """For even ``points`` <= BLOCK: the partner arrays of all (points-1)!!
    matchings of range(points), one row each, as indices into the
    flattened table; the flattened local labels; and the pointer-doubling
    rounds ceil(log2 points).  Read-only and built once per size, so
    concurrent oracles share them safely."""
    flat = []
    _walk(points, 0, flat.extend)
    rows = prod(range(1, points, 2))  # one row, and no column, for no points
    partners = np.array(flat, dtype=np.intp).reshape(rows, points)
    partners += (np.arange(rows, dtype=np.intp) * points)[:, None]
    labels = np.tile(np.arange(points, dtype=np.uint8), rows)
    partners.setflags(write=False)
    labels.setflags(write=False)
    return partners, labels, max(points - 1, 0).bit_length()


def _contract(gamma: list[int], partner: list[int]) -> tuple[list[int], int]:
    """First-return map of gamma.pi on the free points (local labels) and
    the number of gamma.pi cycles among the matched points."""
    free = [point for point, other in enumerate(partner) if other == -1]
    local = {point: label for label, point in enumerate(free)}
    seen = [False] * len(partner)
    first_return = []
    for start in free:
        point = gamma[start]
        while partner[point] != -1:
            seen[point] = True
            point = gamma[partner[point]]
        first_return.append(local[point])
    closed = 0
    for start, other in enumerate(partner):
        if other == -1 or seen[start]:
            continue
        closed += 1
        point = start
        while not seen[point]:
            seen[point] = True
            point = gamma[partner[point]]
    return first_return, closed


def _cycle_type(permutation: list[int]) -> tuple[int, ...]:
    """The sorted cycle lengths of a permutation in image form, fixed
    points included."""
    seen = [False] * len(permutation)
    lengths = []
    for start in range(len(permutation)):
        if seen[start]:
            continue
        length = 0
        point = start
        while not seen[point]:
            seen[point] = True
            point = permutation[point]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


@cache
def _type_counts(cycle_type: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The (cycles, matchings) pairs of #cycles(sigma . rho) over every
    matching rho of the f = sum(cycle_type) free points, for any sigma of
    this cycle type; evaluated once, on sigma = block_permutation(cycle_type).

    Each row counts the cycles of rho . sigma, which is conjugate to
    sigma . rho: after the rounds every label is the smallest label of
    its cycle, so the cycles are the points that keep their own.  A pure
    memo of immutable tuples, so concurrent oracles share it safely.
    """
    partners, labels, rounds = _leaf_table(sum(cycle_type))
    step = partners[:, block_permutation(cycle_type)].ravel()
    label = labels
    for done in range(1, rounds + 1):
        label = np.minimum(label, label[step])
        if done < rounds:
            step = step[step]
    cycles = (label == labels).reshape(partners.shape).sum(axis=1, dtype=np.intp)
    return tuple((count, int(rows)) for count, rows in enumerate(np.bincount(cycles)) if rows)


def cycle_counts_by_matching(parts) -> dict[int, int]:
    """Histogram {cycle count of gamma.pi: number of matchings pi}."""
    total = sum(parts)
    if total % 2:
        return {}
    gamma = block_permutation(parts)
    histogram = [0] * (total + 1)

    def leaf(partner: list[int]) -> None:
        first_return, closed = _contract(gamma, partner)
        for cycles, count in _type_counts(_cycle_type(first_return)):
            histogram[closed + cycles] += count

    _walk(total, BLOCK, leaf)
    return {cycles: count for cycles, count in enumerate(histogram) if count}


def wick_oracle(idx, cap: int = DEFAULT_CAP) -> NuPolynomial:
    """Exact Gaussian moment as a polynomial in nu = N."""
    if cap > MAX_CAP:
        raise ValueError(f"--cap {cap} exceeds the largest oracle cap {MAX_CAP}")
    zeros, blocks = observable(idx)
    total = sum(blocks)
    if total % 2:
        return NuPolynomial.zero()
    if total > cap:
        raise ValueError(
            f"total degree {total} exceeds the oracle cap {cap}: "
            f"{total - 1}!! matchings is past the configured budget"
        )
    histogram = cycle_counts_by_matching(blocks)
    poly = NuPolynomial({cycles: Scalar(count) for cycles, count in histogram.items()})
    return poly.shift(zeros)

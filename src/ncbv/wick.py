"""Independent Wick-pairing oracle for Gaussian multi-trace moments.

E[prod_j Tr(X^{i_j})] with covariance E[X_ab X_cd] = delta_ad delta_bc
expands over perfect matchings pi of the T = sum i_j letter positions:
each matching contributes N^{#cycles(gamma.pi)}, where gamma is the
permutation whose cycles are the consecutive index blocks.  The oracle
enumerates every fixed-point-free involution (smallest unmatched point
first) and tallies cycle counts; it shares no code with the cohomological
reduction it cross-checks.
"""

from .nupoly import NuPolynomial
from .reduction import canonical_index
from .scalar import Scalar

DEFAULT_CAP = 16
# The largest cap accepted: 17!! is about 3.4e7 matchings, some two
# minutes of enumeration, and each further step of 2 multiplies the count
# by the next odd number.
MAX_CAP = 18


def block_permutation(parts) -> list[int]:
    """gamma: one cycle per part, in consecutive blocks of positions."""
    gamma = []
    start = 0
    for size in parts:
        for offset in range(size):
            gamma.append(start + (offset + 1) % size)
        start += size
    return gamma


def cycle_counts_by_matching(parts) -> dict[int, int]:
    """Histogram {cycle count of gamma.pi: number of matchings pi}."""
    total = sum(parts)
    gamma = block_permutation(parts)
    counts: dict[int, int] = {}
    partner = [-1] * total

    def count_cycles() -> int:
        seen = [False] * total
        cycles = 0
        for start in range(total):
            if seen[start]:
                continue
            cycles += 1
            point = start
            while not seen[point]:
                seen[point] = True
                point = gamma[partner[point]]
        return cycles

    def walk(first: int) -> None:
        while first < total and partner[first] != -1:
            first += 1
        if first == total:
            cycles = count_cycles()
            counts[cycles] = counts.get(cycles, 0) + 1
            return
        for other in range(first + 1, total):
            if partner[other] == -1:
                partner[first] = other
                partner[other] = first
                walk(first + 1)
                partner[first] = -1
                partner[other] = -1

    walk(0)
    return counts


def wick_oracle(idx, cap: int = DEFAULT_CAP) -> NuPolynomial:
    """Exact Gaussian moment as a polynomial in nu = N."""
    if cap > MAX_CAP:
        raise ValueError(f"--cap {cap} exceeds the largest oracle cap {MAX_CAP}")
    parts = canonical_index(idx)
    zeros = sum(1 for i in parts if i == 0)
    blocks = tuple(i for i in parts if i > 0)
    total = sum(blocks)
    if total % 2:
        return NuPolynomial.zero()
    if total > cap:
        raise ValueError(
            f"total degree {total} exceeds the oracle cap {cap}: "
            f"{total - 1}!! matchings is past the configured budget"
        )
    if not blocks:
        return NuPolynomial.constant(1).shift(zeros)
    histogram = cycle_counts_by_matching(blocks)
    poly = NuPolynomial({cycles: Scalar(count) for cycles, count in histogram.items()})
    return poly.shift(zeros)

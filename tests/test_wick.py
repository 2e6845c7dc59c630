"""The Wick pairing oracle and its hand-checked base cases."""

import random

import pytest

from ncbv import NuPolynomial, Scalar, double_factorial, reduce_to_polynomial, wick_oracle
from ncbv.verify import _partitions_up_to
from ncbv.wick import (BLOCK, MAX_CAP, _cycle_type, _type_counts, block_permutation,
                       cycle_counts_by_matching)


def count_cycles(permutation: list[int]) -> int:
    """The number of cycles of a permutation in image form."""
    seen = [False] * len(permutation)
    cycles = 0
    for start in range(len(permutation)):
        if seen[start]:
            continue
        cycles += 1
        point = start
        while not seen[point]:
            seen[point] = True
            point = permutation[point]
    return cycles


def scalar_cycle_counts(parts) -> dict[int, int]:
    """One matching at a time in pure Python: the reference for the
    blocked enumeration in ``cycle_counts_by_matching``."""
    total = sum(parts)
    gamma = block_permutation(parts)
    counts: dict[int, int] = {}
    partner = [-1] * total

    def walk(first: int) -> None:
        while first < total and partner[first] != -1:
            first += 1
        if first == total:
            cycles = count_cycles([gamma[partner[point]] for point in range(total)])
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


def assert_matches_reference(parts):
    hist = cycle_counts_by_matching(parts)
    assert hist == scalar_cycle_counts(parts), parts
    assert all(type(key) is int and type(value) is int for key, value in hist.items())
    total = sum(parts)
    assert sum(hist.values()) == (0 if total % 2 else double_factorial(total - 1))


def test_block_permutation_cycles():
    # blocks (2, 3): cycles (0 1)(2 3 4) in image form
    assert block_permutation((2, 3)) == [1, 0, 3, 4, 2]


def test_single_pair_hand_count():
    # one matching of two points; gamma pi has two fixed points
    assert cycle_counts_by_matching((2,)) == {2: 1}
    assert wick_oracle((2,)) == NuPolynomial.nu(2)


def test_two_singletons_hand_count():
    # gamma = id, pi = (01): one 2-cycle
    assert cycle_counts_by_matching((1, 1)) == {1: 1}
    assert wick_oracle((1, 1)) == NuPolynomial.nu(1)


def test_four_points_hand_count():
    # three matchings of a 4-cycle: two planar (3 cycles), one crossing (1)
    assert cycle_counts_by_matching((4,)) == {3: 2, 1: 1}
    assert wick_oracle((4,)) == NuPolynomial({3: Scalar(2), 1: Scalar(1)})


def test_odd_total_is_zero():
    assert wick_oracle((3,)).is_zero()
    assert wick_oracle((1, 2)).is_zero()


def test_zero_entries_shift_by_nu():
    assert wick_oracle((0, 4)) == wick_oracle((4,)).shift(1)
    assert wick_oracle(()) == NuPolynomial.constant(1)


def test_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        wick_oracle((18,))
    with pytest.raises(ValueError, match="cap"):
        wick_oracle((10, 4), cap=12)


def test_cap_above_bound_rejected():
    assert wick_oracle((4,), cap=MAX_CAP) == wick_oracle((4,))
    with pytest.raises(ValueError, match=f"--cap 19 .* {MAX_CAP}"):
        wick_oracle((4,), cap=MAX_CAP + 1)
    with pytest.raises(ValueError, match="--cap 30"):
        wick_oracle((30,), cap=30)


def test_matches_reduction_on_samples():
    from ncbv import reduce_to_polynomial

    for idx in [(6,), (2, 4), (1, 1, 4), (2, 2, 2), (8, 2)]:
        assert wick_oracle(idx) == reduce_to_polynomial(idx)


def test_matches_reduction_at_fourteen_and_sixteen():
    from ncbv import reduce_to_polynomial

    for idx in [(14,), (2, 4, 8), (16,), (2, 6, 8)]:
        assert wick_oracle(idx) == reduce_to_polynomial(idx)


def test_blocked_enumeration_matches_reference_up_to_twelve():
    # every partition with sum <= 12, odd sums and 1-parts included; sums
    # 10 and 12 are the block boundary (one block, then one pair of prefix)
    assert cycle_counts_by_matching(()) == scalar_cycle_counts(()) == {0: 1}
    for parts in _partitions_up_to(12):
        assert_matches_reference(parts)


@pytest.mark.parametrize(
    "parts",
    [(BLOCK,), (1,) * BLOCK, (3, 7), (12,), (5, 1, 6), (14,), (1,) * 14, (7, 7), (2, 4, 8),
     (3, 1, 4, 1, 5)],
)
def test_blocked_enumeration_matches_reference_at_block_boundaries(parts):
    # unsorted orders too: the prefix walk must not depend on sorted blocks
    assert_matches_reference(parts)


def test_matches_reduction_on_every_partition_of_fourteen():
    partitions = [idx for idx in _partitions_up_to(14) if sum(idx) == 14]
    assert len(partitions) == 135
    for idx in partitions:
        assert wick_oracle(idx) == reduce_to_polynomial(idx), idx


def test_matches_reduction_on_every_partition_of_sixteen():
    partitions = [idx for idx in _partitions_up_to(16) if sum(idx) == 16]
    assert len(partitions) == 231
    for idx in partitions:
        assert wick_oracle(idx) == reduce_to_polynomial(idx), idx


def matchings(points: list[int]):
    """Every matching of ``points`` as a partner dict, one at a time."""
    if not points:
        yield {}
        return
    first, rest = points[0], points[1:]
    for other in rest:
        for partner in matchings([p for p in rest if p != other]):
            yield {**partner, first: other, other: first}


def brute_cycle_counts(sigma: list[int]) -> dict[int, int]:
    """{#cycles(rho . sigma): number of matchings rho of range(len(sigma))}."""
    counts: dict[int, int] = {}
    for rho in matchings(list(range(len(sigma)))):
        cycles = count_cycles([rho[sigma[point]] for point in range(len(sigma))])
        counts[cycles] = counts.get(cycles, 0) + 1
    return counts


@pytest.mark.parametrize("points", range(0, BLOCK + 1, 2))
def test_leaf_histogram_depends_only_on_cycle_type(points):
    # the identity (all fixed points) and one full cycle have different
    # histograms for every points >= 2, so a lookup keyed by the number of
    # points alone cannot pass
    rng = random.Random(points)
    sigmas = [list(range(points)), [(point + 1) % points for point in range(points)]]
    sigmas += [rng.sample(range(points), points) for _ in range(8)]
    for sigma in sigmas:
        assert dict(_type_counts(_cycle_type(sigma))) == brute_cycle_counts(sigma), sigma


def test_cycle_type_counts_fixed_points():
    assert _cycle_type([]) == ()
    assert _cycle_type([0, 2, 1, 4, 5, 3]) == (1, 2, 3)
    assert _cycle_type(block_permutation((3, 1, 2))) == (1, 2, 3)

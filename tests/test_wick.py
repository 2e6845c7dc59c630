"""The Wick pairing oracle and its hand-checked base cases."""

import pytest

from ncbv import NuPolynomial, Scalar, wick_oracle
from ncbv.wick import MAX_CAP, block_permutation, cycle_counts_by_matching


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

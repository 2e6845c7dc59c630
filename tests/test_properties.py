"""Randomized structural suites at module-test scale.

The acceptance module reruns these at full scale; here each suite runs
with enough cases to catch sign regressions quickly.
"""

import pytest

from ncbv import MatrixExtension, NuPolynomial, verify
from ncbv.element import COMMUTATIVE, CYCLIC
from ncbv.reduction import GueReducer


def test_antisymmetry():
    assert verify.antisymmetry_check(cases=80).passed


@pytest.mark.parametrize("flavor", [CYCLIC, COMMUTATIVE])
def test_odd_jacobi(flavor):
    report = verify.jacobi_check(flavor, cases=80)
    assert report.passed, report.counterexample


def test_bracket_leibniz():
    report = verify.leibniz_check(cases=80)
    assert report.passed, report.counterexample


def test_differentials_square_to_zero():
    report = verify.squares_check(cases=80)
    assert report.passed, report.counterexample


def test_bv_identity():
    report = verify.bv_identity_check(cases=80)
    assert report.passed, report.counterexample


def test_lie_bialgebra_compatibility():
    report = verify.bialgebra_check(cases=80)
    assert report.passed, report.counterexample


def test_sigma_homomorphism():
    report = verify.sigma_homomorphism_check(cases=80)
    assert report.passed, report.counterexample


def test_morita_maps():
    report = verify.morita_check(cases=40)
    assert report.passed, report.counterexample


def test_morita_failure_keeps_the_check_name(monkeypatch):
    monkeypatch.setattr(MatrixExtension, "restrict", lambda self, element: element.scale(2))
    report = verify.morita_check(cases=6)
    assert not report.passed
    assert report.name == "morita-maps"
    assert report.counterexample.startswith("restriction identity")


def test_oracle_mismatch_past_the_default_cap_is_reported(monkeypatch):
    reducer = GueReducer()

    def fake_oracle(idx, cap=16):
        if sum(idx) > cap:
            raise ValueError(f"total degree {sum(idx)} exceeds the oracle cap {cap}")
        poly = reducer.reduce(idx)
        return poly + NuPolynomial.constant(1) if tuple(idx) == (18,) else poly

    monkeypatch.setattr(verify, "wick_oracle", fake_oracle)
    report = verify.oracle_equivalence_check(degree_cap=18, reducer=reducer)
    assert not report.passed
    assert report.name == "oracle-equivalence"
    assert report.counterexample.startswith("idx=(18,)")


def test_oracle_check_rejects_degree_cap_past_the_oracle_bound():
    from ncbv.wick import MAX_CAP

    with pytest.raises(ValueError, match=f"--degree-cap {MAX_CAP + 2} .* {MAX_CAP}"):
        verify.oracle_equivalence_check(degree_cap=MAX_CAP + 2)


def test_encoded_structures():
    report = verify.encode_check()
    assert report.passed, report.counterexample


def test_chain_map():
    report = verify.chain_map_check(cases=30)
    assert report.passed, report.counterexample


def test_sigma_k_chain_map():
    report = verify.sigma_k_check(cases=60)
    assert report.passed, report.counterexample


def test_otft_matrix():
    report = verify.otft_matrix_check(cases=30)
    assert report.passed, report.counterexample


def test_otft_placement():
    report = verify.otft_placement_check(cases=20)
    assert report.passed, report.counterexample


def test_parity_vanishing():
    report = verify.parity_vanishing_check(degree_cap=9)
    assert report.passed, report.counterexample

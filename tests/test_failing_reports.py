"""Every verification check, broken on purpose, is pinned report for report.

Each case patches one piece of the engine (an operator, a reducer, the
closed formula, a surface tensor) and runs one check at a small scale;
the whole failing report -- name, scale and first counterexample -- must
come out exactly as pinned here.
"""

import pytest

from ncbv import ainfinity, harer_zagier, verify
from ncbv.element import COMMUTATIVE, CYCLIC, Element
from ncbv.frobenius import otft_mu
from ncbv.morita import MatrixExtension
from ncbv.nupoly import NuPolynomial
from ncbv.operators import OperatorContext
from ncbv.reduction import GueReducer, default_reducer
from ncbv.report import check_report
from ncbv.scalar import Scalar


class Skewed:
    """A reducer that answers one index with a wrong polynomial."""

    def __init__(self, idx, change, inner=None):
        self.idx, self.change = idx, change
        self.inner = inner or default_reducer()

    def reduce(self, idx):
        poly = self.inner.reduce(idx)
        return self.change(poly) if tuple(sorted(idx)) == self.idx else poly


def negated(poly):
    return poly.scale(-1)


def plus_one(poly):
    return poly + NuPolynomial.constant(1)


def plus_unit(method):
    """Add the unit to every result of one OperatorContext method."""

    def perturb(monkeypatch):
        inner = getattr(OperatorContext, method)

        def perturbed(self, *args):
            out = inner(self, *args)
            return out + Element.unit(out.space, out.flavor)

        monkeypatch.setattr(OperatorContext, method, perturbed)

    return perturb


def times_dim(method):
    """Scale every result of one OperatorContext method by the space's
    dimension, which a rank inflation does not commute with."""

    def perturb(monkeypatch):
        inner = getattr(OperatorContext, method)
        monkeypatch.setattr(OperatorContext, method,
                            lambda self, *args: inner(self, *args).scale(self.space.dim))

    return perturb


def patch(target, attr, value):
    return lambda monkeypatch: monkeypatch.setattr(target, attr, value)


def skewed_pivot(monkeypatch):
    """The 'largest' pivot strategy answers (4,) with the wrong sign."""
    monkeypatch.setattr(
        verify, "GueReducer",
        lambda pivot, seed=0: Skewed((4,), negated, GueReducer(pivot, seed))
        if pivot == "largest" else GueReducer(pivot, seed),
    )


def drop_torus(poly):
    return NuPolynomial({e: c for e, c in poly.coeffs.items() if e != 2})


def otft_shifted(frob, genus, free, boundaries, apply_at=(0, 0)):
    return otft_mu(frob, genus, free, boundaries, apply_at) + 1


def otft_placed(frob, genus, free, boundaries, apply_at=(0, 0)):
    """Off the first argument, beta^b gamma^g acts one too many."""
    value = otft_mu(frob, genus, free, boundaries, apply_at)
    return value if apply_at == (0, 0) else value + 1


def otft_half_placed(frob, genus, free, boundaries, apply_at=(0, 0)):
    """Off the first argument, the value moves by a non-integral 1/2."""
    value = otft_mu(frob, genus, free, boundaries, apply_at)
    return value if apply_at == (0, 0) else value + Scalar(1, 2)


def wrong_encoding(algebra, space):
    return Element.cyclic_word(space, ["x", "x"])


def nonzero_defect(self, element):
    return Element.unit(self.space, element.flavor)


CASES = [
    # (id, perturbation or None, check)
    ("golden-table", None,
     lambda: verify.golden_table_check(Skewed((4,), negated))),
    ("oracle-equivalence", None,
     lambda: verify.oracle_equivalence_check(6, Skewed((2, 2), plus_one))),
    ("reduction-confluence", skewed_pivot,
     lambda: verify.confluence_check(6)),
    ("odd-sum-vanishing", None,
     lambda: verify.parity_vanishing_check(5, Skewed((1, 2), plus_one))),
    ("harer-zagier-recurrence", None,
     lambda: harer_zagier.hz_recurrence_check(4, Skewed((6,), negated))),
    ("harer-zagier-closed-form", patch(harer_zagier, "harer_zagier_closed",
                                       lambda k, size: Scalar(k * size)),
     lambda: harer_zagier.hz_closed_form_check(3, 2)),
    ("catalan-leading", None,
     lambda: harer_zagier.catalan_leading_check(4, Skewed((6,), negated))),
    ("catalan-torus", None,
     lambda: harer_zagier.catalan_leading_check(4, Skewed((6,), drop_torus))),
    ("multitrace-sum-relation", None,
     lambda: harer_zagier.multitrace_sum_check(4, Skewed((1, 3), plus_one))),
    ("all-ones-double-factorial", None,
     lambda: harer_zagier.all_ones_check(4, Skewed((1, 1, 1, 1), negated))),
    ("odd-antisymmetry-cyclic", plus_unit("nc_bracket"),
     lambda: verify.antisymmetry_check(20)),
    ("odd-antisymmetry-commutative", plus_unit("com_poisson"),
     lambda: verify.antisymmetry_check(20)),
    ("odd-jacobi-cyclic", plus_unit("nc_bracket"),
     lambda: verify.jacobi_check(CYCLIC, 20)),
    ("odd-jacobi-commutative", plus_unit("com_poisson"),
     lambda: verify.jacobi_check(COMMUTATIVE, 20)),
    ("bracket-leibniz", plus_unit("nc_bracket"),
     lambda: verify.leibniz_check(20)),
    ("squares-cobracket", plus_unit("nc_cobracket"),
     lambda: verify.squares_check(20)),
    ("squares-delta", plus_unit("ce_delta"),
     lambda: verify.squares_check(20)),
    ("squares-delta-K", plus_unit("delta_K"),
     lambda: verify.squares_check(20)),
    ("squares-laplacian", plus_unit("bv_laplacian"),
     lambda: verify.squares_check(20)),
    ("squares-full", plus_unit("internal_differential"),
     lambda: verify.squares_check(20)),
    ("bv-identity", plus_unit("bv_laplacian"),
     lambda: verify.bv_identity_check(20)),
    ("lie-bialgebra-compatibility", plus_unit("ce_delta"),
     lambda: verify.bialgebra_check(20)),
    ("sigma-bracket-homomorphism", plus_unit("com_poisson"),
     lambda: verify.sigma_homomorphism_check(20)),
    ("morita-bracket", times_dim("nc_bracket"),
     lambda: verify.morita_check(20)),
    ("morita-cobracket", times_dim("nc_cobracket"),
     lambda: verify.morita_check(20)),
    ("morita-restriction", patch(MatrixExtension, "restrict",
                                 lambda self, element: element.scale(2)),
     lambda: verify.morita_check(6)),
    ("encoded-encoding", patch(verify, "encode_ainfinity", wrong_encoding),
     verify.encode_check),
    ("encoded-defect", patch(OperatorContext, "mc_defect", nonzero_defect),
     verify.encode_check),
    ("encoded-commutator", patch(verify, "encode_commutator_linfinity", wrong_encoding),
     verify.encode_check),
    ("encoded-matrix", patch(MatrixExtension, "restrict",
                             lambda self, element: element.scale(2)),
     verify.encode_check),
    ("encoded-negative-control", patch(ainfinity.CyclicAInfinity, "check_cyclic",
                                       lambda self: None),
     verify.encode_check),
    ("quantized-trace-chain-map", plus_unit("bv_laplacian"),
     lambda: verify.chain_map_check(20)),
    ("quantized-trace-chain-map-d", times_dim("internal_differential"),
     lambda: verify.chain_map_check(20)),
    ("sigma-K-graded-chain-map", plus_unit("bv_laplacian"),
     lambda: verify.sigma_k_check(20)),
    ("otft-matrix-value", patch(verify, "otft_mu", otft_shifted),
     lambda: verify.otft_matrix_check(10)),
    ("otft-matrix-placement", patch(verify, "otft_mu", otft_placed),
     lambda: verify.otft_matrix_check(10)),
    ("otft-placement-independence", patch(verify, "otft_mu", otft_placed),
     lambda: verify.otft_placement_check(10)),
    ("otft-placement-half", patch(verify, "otft_mu", otft_half_placed),
     lambda: verify.otft_placement_check(10)),
]

PINNED = {
    'golden-table': (
        'golden-table', '15 polynomials',
        'p_(4,): coefficient of nu^1 is -1, table says 1',
    ),
    'oracle-equivalence': (
        'oracle-equivalence', '29 indices, sum <= 6',
        'idx=(2, 2): reduction nu^4 + 2*nu^2 + 1 != oracle nu^4 + 2*nu^2',
    ),
    'reduction-confluence': (
        'reduction-confluence', '29 indices, sum <= 6',
        'idx=(4,): leftmost 2*nu^3 + nu, largest -2*nu^3 - nu, random 2*nu^3 + nu',
    ),
    'odd-sum-vanishing': (
        'odd-sum-vanishing', 'sum <= 5',
        'idx=(1, 2) gave 1',
    ),
    'harer-zagier-recurrence': (
        'harer-zagier-recurrence', 'k <= 4',
        'k=3: (k+1)p_2k = -20*nu^4 - 40*nu^2 but rhs = 20*nu^4 + 40*nu^2',
    ),
    'harer-zagier-closed-form': (
        'harer-zagier-closed-form', 'k <= 3, N <= 2',
        'k=0, N=1: p=1 formula=0',
    ),
    'catalan-leading': (
        'catalan-leading-coefficient', 'k <= 4',
        'k=3: degree 4, leading -5',
    ),
    'catalan-torus': (
        'catalan-leading-coefficient', 'k <= 4',
        'k=3: torus-stratum coefficient 0 is not positive',
    ),
    'multitrace-sum-relation': (
        'multitrace-sum-relation', 'k <= 4',
        'k=2: lhs = nu^4 + 8*nu^2 + 2, rhs = nu^4 + 8*nu^2',
    ),
    'all-ones-double-factorial': (
        'all-ones-double-factorial', 'n <= 4',
        'n=2: got -3*nu^2, want 3*nu^2',
    ),
    'odd-antisymmetry-cyclic': (
        'odd-antisymmetry', '20 cases',
        'case 2 (cyclic): a=-1*v^2(u0 u0 v1) b=1*v(u1 v1)',
    ),
    'odd-antisymmetry-commutative': (
        'odd-antisymmetry', '20 cases',
        'case 1 (commutative): a=-2*(u0)(v0)(v1) b=-1*(u0)(v0)',
    ),
    'odd-jacobi-cyclic': (
        'odd-jacobi-cyclic', '20 cases',
        'case 0: a=3*v b=2*v(v0 v2) c=1*(v0 u1)',
    ),
    'odd-jacobi-commutative': (
        'odd-jacobi-commutative', '20 cases',
        'case 0: a=1*(u0) b=1*(v0)(u1)(v2) c=1*1',
    ),
    'bracket-leibniz': (
        'bracket-leibniz', '20 cases',
        'case 0: a=-3*v(u0 v0)(u0 v0 v0) b=-2/3*v c=2*v^2(u0 v0 v0)(v0)',
    ),
    'squares-cobracket': (
        'differentials-square-to-zero', '20 cases',
        'case 0: cobracket^2 != 0 on -1*v^2(u0)(u0 v0 v0)(u0 v0 v0)',
    ),
    'squares-delta': (
        'differentials-square-to-zero', '20 cases',
        'case 0: delta^2 != 0 on -1*v^2(u0)(u0 v0 v0)(u0 v0 v0)',
    ),
    'squares-delta-K': (
        'differentials-square-to-zero', '20 cases',
        'case 0: delta_K^2 != 0 on -1*v^2(u0)(u0 v0 v0)(u0 v0 v0)',
    ),
    'squares-laplacian': (
        'differentials-square-to-zero', '20 cases',
        'case 0: laplacian^2 != 0 on -3*(v0)',
    ),
    'squares-full': (
        'differentials-square-to-zero', '20 cases',
        'case 0: (d*+delta+cobracket)^2 != 0 on -1*v',
    ),
    'bv-identity': (
        'bv-identity', '20 cases',
        'case 0: f=1*(u0)(v0) + 1*(v0)(v1) g=13/3*1',
    ),
    'lie-bialgebra-compatibility': (
        'lie-bialgebra-compatibility', '20 cases',
        'case 0: (delta cob + cob delta)(-2/3*v(u0 u0)) = 1*1',
    ),
    'sigma-bracket-homomorphism': (
        'sigma-bracket-homomorphism', '20 cases',
        'case 0: u=4*(v0)(v0 v1 v1) v=3*(u0 v0 v1)',
    ),
    'morita-bracket': (
        'morita-maps', '20 cases, N in (2, 3)',
        'bracket homomorphism, case 16 (N=2): u=2*v(v0 u1) v=1*v(v1)(u2)',
    ),
    'morita-cobracket': (
        'morita-maps', '20 cases, N in (2, 3)',
        'cobracket intertwining, case 0 (N=2): u=1/2*v^2(u0 v0)',
    ),
    'morita-restriction': (
        'morita-maps', '6 cases, N in (2, 3)',
        'restriction identity, case 0 (N=2): u=3*(u0) + 2*(u0 v0)',
    ),
    'encoded-encoding': (
        'encoded-structures', 'A, Mat_2(A), negative controls',
        'algebra A: m~ = 1*(x x), expected 1/2*(x x)',
    ),
    'encoded-defect': (
        'encoded-structures', 'A, Mat_2(A), negative controls',
        'algebra A: mc_defect(m~) != 0',
    ),
    'encoded-commutator': (
        'encoded-structures', 'A, Mat_2(A), negative controls',
        'algebra A: sigma(m~) is not the commutator encoding',
    ),
    'encoded-matrix': (
        'encoded-structures', 'A, Mat_2(A), negative controls',
        'Mat_2(A): R(m~_Mat) != m~',
    ),
    'encoded-negative-control': (
        'encoded-structures', 'A, Mat_2(A), negative controls',
        'negative control: a cyclicity-violating table was accepted',
    ),
    'quantized-trace-chain-map': (
        'quantized-trace-chain-map', '20 cases, N=2',
        'case 0: e=-1*v^2(x xi)(x xi xi)',
    ),
    'quantized-trace-chain-map-d': (
        'quantized-trace-chain-map', '20 cases, N=2',
        'case 0: e=-1*v^2(x xi)(x xi xi)',
    ),
    'sigma-K-graded-chain-map': (
        'sigma-K-graded-chain-map', '20 cases',
        'case 0: e=-2*v',
    ),
    'otft-matrix-value': (
        'otft-matrix-simplification', '10 cases, N in (2, 3)',
        'case 0: N=2 g=2 b=1 ks=[3, 3, 1]: 1 != 0',
    ),
    'otft-matrix-placement': (
        'otft-matrix-simplification', '10 cases, N in (2, 3)',
        'case 0: placement (1, 1) changed the value',
    ),
    'otft-placement-independence': (
        'otft-placement-independence', '10 cases, dim <= 4',
        'case 1: (0, 0) -> 8, (1, 0) -> 9, (1, 1) -> 9',
    ),
    'otft-placement-half': (
        'otft-placement-independence', '10 cases, dim <= 4',
        'case 1: (0, 0) -> 8, (1, 0) -> 17/2, (1, 1) -> 17/2',
    ),
}


@pytest.mark.parametrize("case, perturb, check", CASES, ids=[c[0] for c in CASES])
def test_failing_report_is_pinned(monkeypatch, case, perturb, check):
    if perturb is not None:
        perturb(monkeypatch)
    report = check()
    assert report.passed is False
    assert (report.name, report.scale, report.counterexample) == PINNED[case]


def test_report_stops_at_the_first_counterexample():
    drawn = []

    def counterexamples():
        for text in ("first", "second"):
            drawn.append(text)
            yield text

    report = check_report("probe", "2 cases", counterexamples())
    assert (report.passed, report.counterexample, drawn) == (False, "first", ["first"])
    assert check_report("probe", "0 cases", iter(())).passed


@pytest.mark.parametrize("check", [harer_zagier.hz_recurrence_check,
                                   harer_zagier.multitrace_sum_check])
def test_checks_reject_k_max_below_two(check):
    with pytest.raises(ValueError, match="k = 2"):
        check(1)

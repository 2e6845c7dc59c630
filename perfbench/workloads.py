"""The benchmark's workloads: seeded inputs, timed items and references.

Each workload is a closed loop: one process issues one item at a time
and waits for its result.  ``build(name, seed, threads)`` returns the
items as (label, run, check): ``run()`` is the timed call into ncbv and
``check(output)`` compares its output with an independent reference
after the timed region, returning (ok, note).

* moment-table -- the moment table from one fresh GueReducer: every
  multi-index with entry sum <= 20 (2713 items) in a seeded order, then
  (22,), (24,), ..., (40,).  Exact kernels over the two-letter space,
  words up to 40 letters, heavy state sharing; the set of states, and so
  every work count, does not depend on the order.
* verify-battery -- the 23 checks of ``ncbv verify`` at its defaults, in
  ``verify.run_all`` order, each randomized check's seed offset by the
  workload seed except the two surface-tensor checks (seed 0 is exactly
  ``ncbv verify``).  Random 2-6 letter spaces,
  short words, many tiny Elements and brackets, and all of the
  Frobenius, Morita, space and A-infinity layers.
* crosscheck -- the Wick oracle on 8 seeded partitions of 14 (13!!
  matchings each) and the Monte Carlo acceptance panel plus (4,) at
  N = 8, 200k samples each: the numeric layers, where thread count,
  CPU time and chunk memory move.
"""

import random
from fractions import Fraction

from ncbv import harer_zagier as hz
from ncbv import reduction, sampling, verify, wick
from ncbv.element import COMMUTATIVE, CYCLIC

SWEEP_SUM = 20
DEEP_TAIL = tuple((k,) for k in range(22, 41, 2))
WICK_TOTAL = 14
WICK_CASES = 8
MC_PANEL = ((2,), (4,), (1, 3), (2, 2), (1, 1, 1, 1))
MC_SIZES = (2, 3)
MC_LARGE = ((4,), 8)
MC_SAMPLES = 200_000
MC_SIGMAS = 5.0


def build(name, seed, threads):
    if name == "moment-table":
        return _moment_table(seed)
    if name == "verify-battery":
        return _verify_battery(seed)
    if name == "crosscheck":
        return _crosscheck(seed, threads)
    raise ValueError(f"unknown workload {name!r}")


# -- moment-table ---------------------------------------------------------


def _moment_table(seed):
    queries = verify._partitions_up_to(SWEEP_SUM)
    random.Random(seed).shuffle(queries)
    queries += list(DEEP_TAIL)
    reducer = reduction.GueReducer()
    return [(str(idx), _bind(reducer.reduce, idx), _bind(_check_moment, idx)) for idx in queries]


def _check_moment(idx, poly):
    """p(1) = (T-1)!! (a 1x1 GUE is a scalar Gaussian), zero for odd T;
    the Harer-Zagier closed form fixes single-trace polynomials; the
    golden table fixes 15 of them coefficient for coefficient."""
    total = sum(idx)
    if total % 2:
        return poly.is_zero(), None
    if poly(1) != hz.double_factorial(total - 1):
        return False, f"p(1) = {poly(1)}"
    if len(idx) == 1:
        k = total // 2
        if poly.degree > k + 1:
            return False, f"degree {poly.degree} > {k + 1}"
        for size in range(1, k + 3):  # k + 2 points fix a degree k + 1 polynomial
            if poly(size) != hz.harer_zagier_closed(k, size):
                return False, f"N={size}: p = {poly(size)}"
    want = verify.GOLDEN_TABLE.get(tuple(idx))
    if want is not None and poly.coeffs != {e: Fraction(c) for e, c in want.items()}:
        return False, f"golden table: {poly}"
    return True, None


# -- verify-battery -------------------------------------------------------


def _verify_battery(seed):
    """``verify.run_all()`` at its defaults, one item per check.

    The two surface-tensor checks keep the seeds of ``ncbv verify``: their
    cost grows with the genus and boundary counts they draw, so offsetting
    them moves a repetition's work by up to 40% between workload seeds
    (multiplications per run ranged 51k-88k and 31k-95k over seeds 0-9),
    which is a change of input, not of the program.
    """
    r = reduction.default_reducer()
    s = seed
    v = verify
    checks = [
        ("golden-table", lambda: v.golden_table_check(r)),
        ("oracle-equivalence", lambda: v.oracle_equivalence_check(12, r)),
        ("harer-zagier-recurrence", lambda: hz.hz_recurrence_check(15, r)),
        ("harer-zagier-closed-form", lambda: hz.hz_closed_form_check(10, 6, r)),
        ("catalan-leading-coefficient", lambda: hz.catalan_leading_check(15, r)),
        ("multitrace-sum-relation", lambda: hz.multitrace_sum_check(6, r)),
        ("all-ones-double-factorial", lambda: hz.all_ones_check(8, r)),
        ("odd-sum-vanishing", lambda: v.parity_vanishing_check(11, r)),
        ("odd-antisymmetry", lambda: v.antisymmetry_check(200, seed=103 + s)),
        ("odd-jacobi-cyclic", lambda: v.jacobi_check(CYCLIC, 200, seed=101 + s)),
        ("odd-jacobi-commutative", lambda: v.jacobi_check(COMMUTATIVE, 200, seed=101 + s)),
        ("bracket-leibniz", lambda: v.leibniz_check(200, seed=127 + s)),
        ("differentials-square-to-zero", lambda: v.squares_check(200, seed=107 + s)),
        ("bv-identity", lambda: v.bv_identity_check(200, seed=109 + s)),
        ("lie-bialgebra-compatibility", lambda: v.bialgebra_check(200, seed=113 + s)),
        ("sigma-bracket-homomorphism", lambda: v.sigma_homomorphism_check(200, seed=131 + s)),
        ("morita-maps", lambda: v.morita_check(120, seed=137 + s)),
        ("encoded-structures", lambda: v.encode_check()),
        ("quantized-trace-chain-map", lambda: v.chain_map_check(60, seed=139 + s)),
        ("sigma-K-graded-chain-map", lambda: v.sigma_k_check(120, seed=149 + s)),
        ("otft-matrix-simplification", lambda: v.otft_matrix_check(60, seed=151)),
        ("otft-placement-independence", lambda: v.otft_placement_check(40, seed=157)),
        ("reduction-confluence", lambda: v.confluence_check(12, seed=5 + s)),
    ]
    return [(label, run, _bind(_check_report, label)) for label, run in checks]


def _check_report(label, report):
    if report.name != label:
        return False, f"report named {report.name!r}"
    return report.passed, report.counterexample


# -- crosscheck -----------------------------------------------------------


def _partitions(total, largest=None):
    largest = total if largest is None else largest
    if total == 0:
        return [()]
    return [
        (part,) + rest
        for part in range(min(total, largest), 0, -1)
        for rest in _partitions(total - part, part)
    ]


def _crosscheck(seed, threads):
    rng = random.Random(seed)
    items = []
    for idx in rng.sample(_partitions(WICK_TOTAL), WICK_CASES):
        items.append((f"wick{idx}", _bind(wick.wick_oracle, idx), _bind(_check_wick, idx)))
    cases = [(idx, size) for size in MC_SIZES for idx in MC_PANEL] + [MC_LARGE]
    for case, (idx, size) in enumerate(cases):
        mc_seed = seed * 1000 + case
        run = _bind(sampling.monte_carlo_moment, idx, size, MC_SAMPLES, mc_seed, threads=threads)
        items.append((f"mc{idx}@N={size}", run, _bind(_check_mc, idx, size)))
    return items


_targets = reduction.GueReducer()  # references only: never touched by a timed item


def _check_wick(idx, poly):
    exact = _targets.reduce(idx)
    return poly == exact, None if poly == exact else f"oracle {poly} != reduction {exact}"


def _check_mc(idx, size, result):
    target = float(_targets.reduce(idx)(size))
    z = result.z_score(target)
    note = f"estimate {result.estimate.hex()} stderr {result.std_error.hex()} z {z:+.3f}"
    return abs(z) <= MC_SIGMAS, note


def _bind(func, *args, **kwargs):
    return lambda *more: func(*args, *more, **kwargs)


"""The ncbv benchmark: seeded workloads, timed end to end, traced per layer.

    python3 perfbench/run.py --workload moment-table|verify-battery|crosscheck
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.
Every repetition is a fresh interpreter (``rep.py``), so each starts
from the same cold state, with ``NCBV_THREADS`` removed from its
environment, OpenBLAS held to one thread and Monte Carlo given an
explicit thread count of min(2, nproc); all load comes from that one
process, a closed loop issuing one item at a time.

``--trace 0`` repeats the workload until ``--seconds`` have passed (at
least three times) and reports the end-to-end metrics as medians over the
repetitions.  ``--trace 1`` runs it twice untraced and twice traced with
the same seed (``moment-table`` once more with the next seed) and
reports the per-layer metrics; it fails if the work counts differ
between those traced runs.  Any output that fails its reference makes
the run exit 1.  Details (machine facts, per-repetition figures, the
Monte Carlo estimates bit for bit, spans) go to ``.perfbench/``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("moment-table", "verify-battery", "crosscheck")
MIN_REPS = 3
SETUPS = 9  # set-up measurements per run; the median is reported
DEADLINE_S = 170.0
BLAS_THREADS = "1"
TAIL_BEYOND = 10

VERIFY_CHECKS = (
    "golden-table", "oracle-equivalence", "harer-zagier-recurrence",
    "harer-zagier-closed-form", "catalan-leading-coefficient", "multitrace-sum-relation",
    "all-ones-double-factorial", "odd-sum-vanishing", "odd-antisymmetry",
    "odd-jacobi-cyclic", "odd-jacobi-commutative", "bracket-leibniz",
    "differentials-square-to-zero", "bv-identity", "lie-bialgebra-compatibility",
    "sigma-bracket-homomorphism", "morita-maps", "encoded-structures",
    "quantized-trace-chain-map", "sigma-K-graded-chain-map", "otft-matrix-simplification",
    "otft-placement-independence", "reduction-confluence",
)
# Work counts that must repeat exactly across repetitions with one seed
# (and, for moment-table, across seeds: only the query order changes).
WORK_COUNTS = (
    "reduction.states", "reduction.lookups", "wick.matchings", "sampling.matrices",
    "words.canonicalize_cyclic.calls", "frobenius.multiply.calls",
)
LAYERS = (
    "words", "element", "operators", "nupoly", "reduction", "frobenius", "morita", "space",
    "ainfinity", "algebras", "harer_zagier", "wick", "sampling", "verify",
)


class BenchError(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("NCBV_THREADS", "PYTHONPATH")}
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    return env


class Runner:
    def __init__(self, workload, threads):
        self.workload = workload
        self.threads = threads
        self.start = perf_counter()
        self.env = child_env()

    def rep(self, seed, mode, spans=None):
        """One repetition in a fresh interpreter; its JSON result."""
        remaining = DEADLINE_S - self.elapsed()
        if remaining <= 0:
            raise BenchError("out of time before a repetition could start")
        cmd = [sys.executable, str(HERE / "rep.py"), self.workload, str(seed),
               str(self.threads), mode] + ([str(spans)] if spans else [])
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"a {mode} repetition did not finish in time") from None
        if done.returncode != 0:
            raise BenchError(
                f"a {mode} repetition exited {done.returncode}:\n{done.stderr[-2000:]}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def elapsed(self):
        return perf_counter() - self.start


def harrell_davis(values, q):
    """Harrell-Davis estimate of quantile ``q``: the mean of all order
    statistics weighted by the Beta(q(n+1), (1-q)(n+1)) mass of their rank
    interval (Simpson's rule per interval).  It averages the ranks near the
    quantile instead of taking one item, so one slow moment of a shared
    machine moves it less than the plain order statistic."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)

    def log_density(t):
        return (a - 1) * math.log(t) + (b - 1) * math.log1p(-t) if 0 < t < 1 else -math.inf

    logs = [(log_density(i / n), log_density((i + 0.5) / n), log_density((i + 1) / n))
            for i in range(n)]
    top = max(mid for _, mid, _ in logs)
    weights = [math.exp(lo - top) + 4 * math.exp(mid - top) + math.exp(hi - top)
               for lo, mid, hi in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_percentile(items):
    """Highest 0.1-step percentile with >= 10 pooled items beyond it at
    the minimum repetition count; fixed per workload, so a run with more
    repetitions reports the same percentile."""
    n = items * MIN_REPS
    pct = math.floor(1000.0 * (n - TAIL_BEYOND) / n) / 10.0
    while n - math.ceil(pct / 100.0 * n) < TAIL_BEYOND:
        pct -= 0.1
    return round(pct, 1)


def end_to_end(runner, seed, seconds):
    reps = []
    while len(reps) < MIN_REPS or runner.elapsed() < seconds:
        if len(reps) >= MIN_REPS and runner.elapsed() + reps[-1]["run_s"] * 1.5 > DEADLINE_S:
            break
        reps.append(runner.rep(seed, "run"))
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUPS:
        setups.append(runner.rep(seed, "setup")["setup_s"])
    latencies = [x for r in reps for x in r["latencies"]]
    pct = tail_percentile(len(reps[0]["latencies"]))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(r["run_s"] for r in reps), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "item_p50_ms": (1000.0 * harrell_davis(latencies, 0.5), "ms"),
        "item_tail_ms": (1000.0 * harrell_davis(latencies, pct / 100.0), "ms"),
    }
    notes = [f"item_p50_ms and item_tail_ms are Harrell-Davis estimates of p50 and p{pct} "
             f"of {len(latencies)} items pooled over {len(reps)} repetitions; "
             f"set-up measured {len(setups)} times"]
    check_estimates(reps)
    return reps, metrics, notes


def check_estimates(reps):
    """Seeded Monte Carlo estimates must repeat bit for bit."""
    if any(r["notes"] != reps[0]["notes"] for r in reps):
        reps[0]["failures"].append("seeded Monte Carlo estimates differ between repetitions")


def per_layer(runner, seed):
    """Untraced and traced repetitions alternate, so drift in the machine's
    speed falls on both sides of the tracing overhead."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{runner.workload}-seed{seed}.jsonl"
    plain = [runner.rep(seed, "run")]
    traced = [runner.rep(seed, "trace", spans)]
    plain.append(runner.rep(seed, "run"))
    traced.append(runner.rep(seed, "trace"))
    reps = plain + traced
    check_estimates(reps)
    counts = [work_counts(r["trace"]) for r in traced]
    if counts[0] != counts[1]:
        reps[0]["failures"].append(f"work counts differ between repetitions: {counts}")
    notes = [f"work counts of the traced repetitions: {counts[0]}"]
    if runner.workload == "moment-table":
        other = runner.rep(seed + 1, "trace")
        reps.append(other)
        if work_counts(other["trace"]) != counts[0]:
            reps[0]["failures"].append(
                f"moment-table work counts differ between seeds {seed} and {seed + 1}")
        notes.append(
            f"and of a traced repetition at seed {seed + 1}: {work_counts(other['trace'])}")

    layer = [layer_metrics(r["trace"], runner.threads) for r in traced]
    metrics = {}
    for name, (value, unit) in layer[0].items():
        if unit != "count":  # counts repeat exactly; times are medians
            value = statistics.median([value, layer[1][name][0]])
        metrics[name] = (value, unit)
    for label in VERIFY_CHECKS:
        times = [dict(zip(r["labels"], r["latencies"])).get(label, 0.0) for r in plain]
        metrics[f"verify.{label}_s"] = (statistics.median(times), "s")
    overhead = (statistics.median(r["run_s"] for r in traced)
                / statistics.median(r["run_s"] for r in plain))
    metrics["trace.overhead"] = (overhead, "ratio")
    notes.append(f"tracing overhead: traced run_s / untraced run_s = {overhead:.3f}, "
                 "medians of two repetitions each")
    return reps, metrics, notes


def work_counts(trace):
    metrics = layer_metrics(trace, 0)
    return {name: metrics[name][0] for name in WORK_COUNTS}


def layer_metrics(trace, threads):
    bounds, counters = trace["boundaries"], trace["counters"]

    def calls(name):
        return (bounds.get(name, {}).get("calls", 0), "count")

    def own(*names):
        return (sum(bounds.get(n, {}).get("self_s", 0.0) for n in names), "s")

    def total(name):
        return bounds.get(name, {}).get("total_s", 0.0)

    def ratio(part, whole):
        return (part / whole if whole else 0.0, "ratio")

    def rate(count, seconds):
        return (count / seconds if seconds else 0.0, "1/s")

    cyclic = bounds.get("words.canonicalize_cyclic", {}).get("calls", 0)
    lookups = counters.get("reduction.lookups", 0)
    states = counters.get("reduction.states", 0)
    matchings = counters.get("wick.matchings", 0)
    matrices = counters.get("sampling.matrices", 0)
    m = {
        "words.canonicalize_cyclic.calls": calls("words.canonicalize_cyclic"),
        "words.canonicalize_cyclic.self_s": own("words.canonicalize_cyclic"),
        "words.canonicalize_cyclic.zero_ratio": ratio(
            counters.get("words.canonicalize_cyclic.zero", 0), cyclic),
        "words.sort_words.calls": calls("words.sort_words"),
        "words.sort_words.self_s": own("words.sort_words"),
        "words.canonicalize_monomial.calls": calls("words.canonicalize_monomial"),
        "words.canonicalize_monomial.self_s": own("words.canonicalize_monomial"),
        "element.accumulate.calls": calls("element.accumulate"),
        "element.accumulate.self_s": own("element.accumulate"),
        "element.add.calls": calls("element.add"),
        "element.add.self_s": own("element.add"),
        "element.sym_product.self_s": own("element.sym_product"),
        "element.from_terms.self_s": own("element.from_terms"),
        "operators.bracket_words.calls": calls("operators.bracket_words"),
        "operators.bracket_words.self_s": own("operators.bracket_words"),
        "operators.cobracket_word.calls": calls("operators.cobracket_word"),
        "operators.cobracket_word.self_s": own("operators.cobracket_word"),
        "operators.ce_delta.self_s": own("operators.ce_delta"),
        "operators.nc_cobracket.self_s": own("operators.nc_cobracket"),
        "operators.nc_bracket.self_s": own("operators.nc_bracket"),
        "operators.com_poisson.self_s": own("operators.com_poisson"),
        "operators.bv_laplacian.self_s": own("operators.bv_laplacian"),
        "reduction.states": (states, "count"),
        "reduction.lookups": (lookups, "count"),
        "reduction.hit_ratio": ratio(lookups - states, lookups),
        "reduction.reduce.self_s": own("reduction.reduce", "reduction.reduce_state"),
        "nupoly.add.calls": calls("nupoly.add"),
        "nupoly.add.self_s": own("nupoly.add"),
        "frobenius.multiply.calls": calls("frobenius.multiply"),
        "frobenius.multiply.self_s": own("frobenius.multiply"),
        "frobenius.coerce.calls": calls("frobenius.coerce"),
        "frobenius.coerce.self_s": own("frobenius.coerce"),
        "frobenius.trace_form.self_s": own("frobenius.trace_form"),
        "frobenius.genus_map.self_s": own("frobenius.genus_map"),
        "frobenius.free_boundary.self_s": own("frobenius.free_boundary"),
        "frobenius.otft_mu.calls": calls("frobenius.otft_mu"),
        "frobenius.otft_mu.self_s": own("frobenius.otft_mu"),
        "morita.inflate.self_s": own("morita.inflate"),
        "morita.restrict.self_s": own("morita.restrict"),
        "space.hyperbolic_space.calls": calls("space.hyperbolic_space"),
        "space.hyperbolic_space.self_s": own("space.hyperbolic_space"),
        "ainfinity.encode_ainfinity.self_s": own("ainfinity.encode_ainfinity"),
        "wick.matchings": (matchings, "count"),
        "wick.cycle_counts.self_s": own("wick.cycle_counts"),
        "wick.matchings_per_s": rate(matchings, total("wick.cycle_counts")),
        "sampling.matrices": (matrices, "count"),
        "sampling.sample_gue_batch.self_s": own("sampling.sample_gue_batch"),
        "sampling.eigvalsh_s": own("sampling.eigvalsh"),
        "sampling.matrices_per_s": rate(matrices, total("sampling.monte_carlo_moment")),
        "sampling.threads": (threads if matrices else 0, "count"),
    }
    for module in LAYERS:
        m[f"layer.{module}.self_s"] = own(*(n for n in bounds if n.split(".")[0] == module))
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ncbv" / "__init__.py").is_file():
        print(f"perfbench: no ncbv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    runner = Runner(args.workload, min(2, nproc()))
    try:
        if args.trace:
            reps, metrics, notes = per_layer(runner, args.seed)
        else:
            reps, metrics, notes = end_to_end(runner, args.seed, args.seconds)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    items = [r for r in reps if "latencies" in r]
    attempted = sum(len(r["latencies"]) for r in items)
    failures = [f for r in items for f in r["failures"]]
    machine = dict(reps[0]["machine"], nproc=nproc(), openblas_num_threads=BLAS_THREADS,
                   mc_threads=runner.threads)
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine, "metrics": metrics, "notes": notes, "failures": failures,
        "repetitions": reps,
    }, indent=1))

    print("# machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    print(f"# {args.workload} seed {args.seed}: {len(reps)} repetitions, "
          "each in a fresh interpreter (cold start)")
    for note in notes:
        print(f"# {note}")
    for label, note in sorted(reps[0].get("notes", {}).items()):
        print(f"# {label}: {note}")
    for failure in failures:
        print(f"# FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(f"{'fail_ratio':44s} {len(failures)}/{attempted}")
    print(f"# details in {detail.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

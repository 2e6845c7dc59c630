"""One repetition of one workload, in a fresh interpreter.

Usage: python3 perfbench/rep.py <workload> <seed> <threads> setup|run|trace [spans.jsonl]

A fresh process per repetition makes every repetition start from the
same cold state: ``reduction.default_reducer()`` is a process-global
cache that ``verify`` and the Harer-Zagier checks always use.  Mode
``setup`` stops after set-up; ``trace`` runs the items with every layer
boundary traced.  The last line of standard output is one JSON object
with the repetition's measurements.
"""

import json
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

START = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _machine():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 prints its configuration only
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas}


def main(argv):
    workload, seed, threads, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    import ncbv

    if Path(ncbv.__file__).resolve().parent != ROOT / "src" / "ncbv":
        raise SystemExit(f"imported ncbv from {ncbv.__file__}, not from this checkout")
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads

    items = workloads.build(workload, seed, threads)
    setup_s = perf_counter() - START
    out = {"setup_s": setup_s, "machine": _machine()}
    if mode == "setup":
        print(json.dumps(out))
        return

    if tracer is not None:
        tracer.reset()
    outputs, latencies = [], []
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    for label, run, _ in items:
        t0 = perf_counter()
        if tracer is None:
            outputs.append(run())
        else:
            outputs.append(tracer.item_span(_item_name(workload, label), run))
        latencies.append(perf_counter() - t0)
    run_s = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    out.update(
        run_s=run_s,
        cpu_s=(after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime),
        peak_rss_mb=after.ru_maxrss / 1024.0,
        latencies=latencies,
        labels=[label for label, _, _ in items],
    )
    if tracer is not None:
        out["trace"] = tracer.summary()
        if len(argv) > 4:
            tracer.write_spans(argv[4])

    failures, notes = [], {}
    for (label, _, check), output in zip(items, outputs):
        ok, note = check(output)
        if not ok:
            failures.append(f"{label}: {note}")
        elif note:
            notes[label] = note
    out.update(failures=failures, notes=notes)
    print(json.dumps(out))


def _item_name(workload, label):
    return f"verify.{label}" if workload == "verify-battery" else "bench.item"


if __name__ == "__main__":
    main(sys.argv[1:])

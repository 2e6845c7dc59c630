"""Every boundary the benchmark tracer wraps still exists in ncbv, so a
rename cannot silently break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # reads TARGETS; install() is not called
    return tracer


def test_every_tracer_target_resolves():
    tracer = _tracer_module()
    missing = []
    for name, module, attr, *_ in tracer.TARGETS:
        owner = importlib.import_module("ncbv." + module)
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        if owner is None or method not in vars(owner):
            missing.append(name)
    assert not missing, f"tracer targets missing from ncbv: {missing}"


def test_matrix_counter_sees_every_sample(monkeypatch):
    """``sampling.matrices`` counts each matrix ``sample_gue_batch`` builds,
    so every Monte Carlo draw has to go through it."""
    from ncbv import monte_carlo_moment, sampling

    module = _tracer_module()
    name, _, attr, store, before, after = next(
        row for row in module.TARGETS if row[0] == "sampling.sample_gue_batch"
    )
    tracer = module.Tracer()
    monkeypatch.setattr(
        sampling, attr, tracer.wrap(name, getattr(sampling, attr), store, before, after)
    )
    for threads in (1, 2):
        tracer.reset()
        monte_carlo_moment((2,), 3, 10_001, seed=0, chunk=4097, threads=threads)
        assert tracer.summary()["counters"] == {"sampling.matrices": 10_001}


def test_matching_counter_sees_each_matching_once(monkeypatch):
    """``wick.matchings`` sums the histograms ``cycle_counts_by_matching``
    returns, so the per-cycle-type leaf counts must not go through it."""
    from ncbv import wick

    module = _tracer_module()
    name, _, attr, store, before, after = next(
        row for row in module.TARGETS if row[0] == "wick.cycle_counts"
    )
    tracer = module.Tracer()
    monkeypatch.setattr(wick, attr, tracer.wrap(name, getattr(wick, attr), store, before, after))
    wick._type_counts.cache_clear()  # leaf histograms are built inside the traced calls
    wick.wick_oracle((14,))
    wick.wick_oracle((2, 4, 8))
    assert tracer.summary()["counters"] == {"wick.matchings": 2 * 135_135}

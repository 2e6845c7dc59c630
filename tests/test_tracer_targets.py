"""Every boundary the benchmark tracer wraps still exists in ncbv, so a
rename cannot silently break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # reads TARGETS; install() is not called
    missing = []
    for name, module, attr, *_ in tracer.TARGETS:
        owner = importlib.import_module("ncbv." + module)
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        if owner is None or method not in vars(owner):
            missing.append(name)
    assert not missing, f"tracer targets missing from ncbv: {missing}"

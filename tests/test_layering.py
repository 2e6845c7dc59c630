"""Import layering: the Wick oracle stays independent of the reduction it
cross-checks, and the observable reader in ``ncbv.multitrace`` sits below
both, so each oracle reads the same observable without reaching another.
Worker pools belong to ``ncbv.sampling`` alone, and ``import ncbv`` does
not load ``multiprocessing``, ``concurrent.futures`` or numpy: numpy
loads through the handle ``ncbv.multitrace.np`` on first use, so the
exact commands never load it.  The JSON layout of structure maps and
forms is written and read in ``ncbv.space`` alone, and every ``from_json``
reads each field of its JSON through ``scalar._field``."""

import ast
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ncbv"
FORKS = sys.version_info >= (3, 11) and "fork" in multiprocessing.get_all_start_methods()


def imported_modules(name: str) -> set[str]:
    """Every module that ``ncbv.<name>`` imports, as absolute names; a
    relative ``from . import x`` counts as importing ``ncbv.x``."""
    tree = ast.parse((SRC / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "ncbv." + module if module else "ncbv"
            found.add(module)
            if module == "ncbv":
                found.update(f"ncbv.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize("name, reader", [("wick", "ncbv.multitrace"),
                                          ("reduction", "ncbv.multitrace"),
                                          ("multitrace", "ncbv.element")])
def test_parser_sees_package_imports(name, reader):
    assert reader in imported_modules(name)


def test_wick_imports_nothing_from_reduction():
    assert "ncbv.reduction" not in imported_modules("wick")


def test_multitrace_imports_neither_oracle():
    assert not {"ncbv.reduction", "ncbv.wick"} & imported_modules("multitrace")


def test_only_sampling_imports_pools():
    pools = ("multiprocessing", "concurrent.futures")
    importers = sorted(path.stem for path in SRC.glob("*.py")
                       if any(module == pool or module.startswith(pool + ".")
                              for module in imported_modules(path.stem) for pool in pools))
    assert importers == ["sampling"]


DEFERRED = ("multiprocessing", "concurrent.futures", "concurrent.futures.process", "numpy",
            "numpy.random")


def run_python(script: str) -> str:
    """Standard output of ``script`` run by a fresh interpreter on this ``ncbv``."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_leaves_multiprocessing_out():
    """``ncbv.sampling._pool`` imports ``multiprocessing`` and
    ``concurrent.futures`` when it first makes a pool, and numpy loads on
    first use; importing them up front would add to every ``import ncbv``."""
    script = f"import sys, ncbv; print(sorted(set({DEFERRED!r}) & set(sys.modules)))"
    assert run_python(script) == "[]\n"


@pytest.mark.parametrize("argv", [["moments", "--idx", "8,8"], ["hz", "--kmax", "6"],
                                  ["otft", "--N", "2", "--boundaries", "2,2"]])
def test_exact_commands_never_load_numpy(argv):
    script = ("import io, sys, contextlib; from ncbv import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = cli.main({argv!r})\n"
              "print(code, 'numpy' in sys.modules)")
    assert run_python(script) == "0 False\n"


@pytest.mark.skipif(not FORKS, reason="workers are forked only from Python 3.11 with fork")
def test_a_forking_pool_loads_numpy_random_first():
    """Forked workers inherit ``numpy.random`` from the caller rather than
    each importing it again."""
    script = ("import sys; from ncbv import sampling\n"
              "before = 'numpy.random' in sys.modules\n"
              "pool = sampling._pool(2)\n"
              "print(before, type(pool).__name__, 'numpy.random' in sys.modules)\n"
              "pool.shutdown()")
    assert run_python(script) == "False ProcessPoolExecutor True\n"


def test_no_module_imports_numpy_when_imported():
    """numpy is imported only inside functions (the handle in
    ``ncbv.multitrace``), never by a statement that runs at import."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        stack = [ast.parse(path.read_text())]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if not node.level else []
            else:
                names = []
            if any(name == "numpy" or name.startswith("numpy.") for name in names):
                importers.append(path.stem)
            stack.extend(child for child in ast.iter_child_nodes(node)
                         if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))
    assert importers == []


def test_only_space_spells_the_structure_map_layout():
    """The key ``"args"`` of a structure-map JSON entry appears as a string
    constant in ``ncbv.space`` (``_map_json``, ``_read_map``) and nowhere
    else in the package: every algebra writes and reads its maps there."""
    spellers = sorted(path.stem for path in SRC.glob("*.py")
                      if any(isinstance(node, ast.Constant) and node.value == "args"
                             for node in ast.walk(ast.parse(path.read_text()))))
    assert spellers == ["space"]


def test_every_from_json_reads_its_fields_through_field():
    """No ``from_json`` in the package subscripts its JSON with a string
    key or calls ``.get`` on it: every field, optional ones included, is
    read through ``scalar._field``, which names the object and the field
    it refuses."""
    readers, offenders = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "from_json":
                readers.append(path.stem)
                for inner in ast.walk(node):
                    keyed = (isinstance(inner, ast.Subscript)
                             and isinstance(inner.slice, ast.Constant)
                             and isinstance(inner.slice.value, str))
                    got = (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)
                           and inner.func.attr == "get")
                    if keyed or got:
                        offenders.append(f"{path.stem}:{inner.lineno}")
    assert len(readers) >= 6
    assert offenders == []

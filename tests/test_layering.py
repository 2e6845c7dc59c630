"""Import layering: the Wick oracle stays independent of the reduction it
cross-checks, and the observable reader in ``ncbv.multitrace`` sits below
both, so each oracle reads the same observable without reaching another.
Worker pools belong to ``ncbv.sampling`` alone, and ``import ncbv`` does
not load ``multiprocessing``.  The JSON layout of structure maps is
written and read in ``ncbv.space`` alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ncbv"


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


def test_import_leaves_multiprocessing_out():
    """``ncbv.sampling._pool`` imports ``multiprocessing`` when it first
    forks; importing it up front would add to every ``import ncbv``."""
    script = ("import sys, ncbv; "
              "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_only_space_spells_the_structure_map_layout():
    """The key ``"args"`` of a structure-map JSON entry appears as a string
    constant in ``ncbv.space`` (``_map_json``, ``_read_map``) and nowhere
    else in the package: every algebra writes and reads its maps there."""
    spellers = sorted(path.stem for path in SRC.glob("*.py")
                      if any(isinstance(node, ast.Constant) and node.value == "args"
                             for node in ast.walk(ast.parse(path.read_text()))))
    assert spellers == ["space"]

"""The README's interactive examples, run as doctests."""

import doctest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_examples_run():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_module_table_has_one_row_per_module():
    """The README's library layout names every module of the package once."""
    rows = [line.split("`")[1] for line in README.read_text().splitlines()
            if line.startswith("| `ncbv.")]
    modules = [f"ncbv.{path.stem}" for path in (ROOT / "src" / "ncbv").glob("*.py")
               if path.stem != "__init__"]
    assert sorted(rows) == sorted(modules)


def test_public_names_resolve():
    """Every name ``ncbv.__all__`` exports exists, once."""
    import ncbv

    assert [name for name in ncbv.__all__ if not hasattr(ncbv, name)] == []
    assert len(set(ncbv.__all__)) == len(ncbv.__all__)

"""The wire formats live in ``records`` alone. The modules whose types it
encodes import nothing from it, nor ``json``, ``os`` or ``zipfile``, and
every import of the package sits at module level, so no deferred import
hides a cycle."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fluidswarm"
BELOW_RECORDS = ("primitives", "reference_field", "velocity_plant",
                 "partition", "velocity_fit", "swarm_sim", "plant_suite")
FORBIDDEN = {"records", "json", "os", "zipfile"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def imported(tree: ast.Module):
    """The top-level name of every module an import anywhere in ``tree``
    reaches: ``os`` for ``import os.path``, ``records`` for ``from .records
    import x``, ``from . import records`` and ``from fluidswarm import
    records``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "fluidswarm":
                yield parts[0]
                continue
            parts = parts[1:] if node.level == 0 else parts
            if parts and parts[0]:
                yield parts[0]
            else:
                yield from (a.name for a in node.names)


def test_the_walk_finds_every_form_of_import():
    tree = ast.parse("import os.path\nfrom .records import x\n"
                     "from . import records\nfrom fluidswarm import json\n"
                     "from fluidswarm.zipfile import y\nimport numpy\n"
                     "def f():\n    from .partition import z\n")
    assert list(imported(tree)) == ["os", "records", "records", "json",
                                    "zipfile", "numpy", "partition"]


@pytest.mark.parametrize("module", BELOW_RECORDS)
def test_a_module_below_records_imports_no_file_format(module):
    found = FORBIDDEN.intersection(imported(_tree(PACKAGE / f"{module}.py")))
    assert not found, f"{module} imports {sorted(found)}"


def test_every_import_of_the_package_is_at_module_level():
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        top = {id(node) for node in tree.body}
        nested += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and id(node) not in top]
    assert nested == []

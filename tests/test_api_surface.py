"""The public surface holds only what the package, the demos or the
benchmark use: a name that only tests reach belongs in the tests."""

import ast
from pathlib import Path

import fluidswarm

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fluidswarm"


def _loads(path: Path, in_package: bool):
    """(holder, name) for every identifier a file reads: loaded names,
    attributes and identifier-like strings (perfbench hooks attributes by
    name). ``holder`` is the top-level function or class of a package
    module that holds the use, or None for module-level code and for files
    outside the package. An import ``name as alias`` gives (alias, name)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for top in tree.body:
        holder = None
        if in_package and isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            holder = top.name
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield holder, node.id
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                yield holder, node.attr
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                yield holder, node.value
            elif isinstance(node, ast.alias) and node.asname:
                yield node.asname, node.name


def live_names() -> set[str]:
    """Names reachable from the demos, the benchmark and the package's
    module-level code (``__init__.py`` aside): a use inside a package
    function or class counts once that definition is reached."""
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            uses += _loads(path, in_package=True)
    for folder in ("demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            uses += _loads(path, in_package=False)
    live = {name for holder, name in uses if holder is None}
    while True:
        reached = live | {name for holder, name in uses if holder in live}
        if reached == live:
            return live
        live = reached


def test_every_public_name_is_used_outside_the_tests():
    unused = sorted(set(fluidswarm.__all__) - live_names())
    assert unused == [], (
        f"exported but used only by tests: {unused}; move them to "
        "tests/reference.py or use them")

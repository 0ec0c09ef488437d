"""The public surface holds only what the package, the demos or the
benchmark use: a name that only tests reach belongs in the tests."""

import argparse
import ast
from dataclasses import fields
from pathlib import Path

import fluidswarm
from fluidswarm import (FitConfig, GasModel, NozzleGeometry, PlantParams,
                        SimConfig)
from fluidswarm.cli import _FLAGS, build_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fluidswarm"


def _outside_trees() -> dict:
    """The parsed package modules, demos and benchmark files, by path."""
    paths = sorted(PACKAGE.glob("*.py")) + [
        path for folder in ("demos", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))]
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in paths}


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


def _defaulted(tree: ast.Module):
    """(function, parameter, position) for every parameter with a default
    of every function and method in ``tree``; ``position`` counts the
    arguments a call passes before it (a method's ``self`` or ``cls``
    aside) and is None for a keyword-only parameter."""
    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.FunctionDef):
                yield from visit(child, isinstance(child, ast.ClassDef))
                continue
            a = child.args
            bound = in_class and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in child.decorator_list)
            params = a.posonlyargs + a.args
            first = len(params) - len(a.defaults)
            for i, arg in enumerate(params[first:], start=first):
                yield child.name, arg.arg, i - bound
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield child.name, arg.arg, None
            yield from visit(child, False)
    yield from visit(tree, False)


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    """A parameter only tests set is an option nobody uses: the package,
    the demos or the benchmark must pass it, by keyword or by position, in
    a call to the function by its name or an ``import ... as`` alias."""
    trees = _outside_trees()
    aliases = {a.asname: a.name for tree in trees.values()
               for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for a in node.names if a.asname}
    keywords, positions = set(), {}
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            name = aliases.get(name, name)
            keywords.update((name, k.arg) for k in call.keywords)
            positions[name] = max(positions.get(name, 0), len(call.args))
    unused = [f"{path.stem}.{func}({param})"
              for path in sorted(PACKAGE.glob("*.py"))
              for func, param, position in _defaulted(trees[path])
              if (func, param) not in keywords
              and (position is None or positions.get(func, 0) <= position)]
    assert unused == [], (
        f"defaulted parameters that only tests pass: {unused}; make each a "
        "constant or pass it")


# fields that nothing outside the tests sets, each kept because the
# benchmark reads it; they go with the benchmark's next change
BENCHMARK_FIELDS = {
    "SimConfig.collision_radius":
        "perfbench/tracing.py recounts pairs at 2 * config.collision_radius",
    "PlantParams.tau_thrust":
        "perfbench counts plant sub-steps with substep_count(dt, params)",
}


def _flag_names() -> set[str]:
    """The destination of every flag of every subcommand."""
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {a.dest for p in sub.choices.values() for a in p._actions}


def test_every_config_field_is_set_outside_the_tests():
    """A field only tests set is a setting nobody chooses: the package, the
    demos or the benchmark must pass it by keyword to its class or to
    ``replace()``, or a flag of the command line must set it (under its
    ``_FLAGS`` name where it has one)."""
    keywords = set()
    for tree in _outside_trees().values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id",
                               getattr(call.func, "attr", None))
                keywords.update((name, k.arg) for k in call.keywords)
    flags = _flag_names()
    unset = sorted(f"{cls.__name__}.{f.name}"
                   for cls in (SimConfig, PlantParams, FitConfig, GasModel,
                               NozzleGeometry)
                   for f in fields(cls)
                   if (cls.__name__, f.name) not in keywords
                   and ("replace", f.name) not in keywords
                   and _FLAGS.get(f.name, f.name) not in flags)
    extra = sorted(set(unset) - set(BENCHMARK_FIELDS))
    assert extra == [], (
        f"fields that only tests set: {extra}; make each a module constant "
        "beside the code that reads it, or set it")
    assert unset == sorted(BENCHMARK_FIELDS), (
        "a field kept for the benchmark is now set outside the tests: "
        f"{sorted(set(BENCHMARK_FIELDS) - set(unset))}")

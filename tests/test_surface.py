"""The library surface is the task surface: an AST walk from the entry point
behind `arithdeg run`, `corpus` and `check` must reach every public
module-level function and class of the package.

The walk starts at `cli.main` and follows every name a reached definition
loads: a module-level name, a name imported from a sibling module, or an
attribute of an imported sibling module.  A reached class brings its whole
body (every method) with it.  Local names that shadow a module-level one
count as a reach, so the walk can only over-approximate.
"""

import ast
from pathlib import Path

import arithdeg

PACKAGE = Path(arithdeg.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# reached from no task, kept because the benchmark harness uses them
HARNESS_ONLY = {
    ("groebner", "ideal_power"): "spans.py",     # PER_LAYER names its calls
    ("corpus", "lookup"): "trace_item.py",       # traces one corpus entry
}


class _Module:
    """One source file: its module-level definitions, and what each
    imported name stands for: (module, name), or (module, None) for a
    sibling module itself."""

    def __init__(self, tree):
        self.defs = {}
        self.aliases = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            self.defs[name.id] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    local = a.asname or a.name
                    self.aliases[local] = ((node.module, a.name) if node.module
                                           else (a.name, None))

    def public(self):
        return [name for name, node in self.defs.items()
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not name.startswith("_")]


def _package():
    return {path.stem: _Module(ast.parse(path.read_text(), str(path)))
            for path in sorted(PACKAGE.glob("*.py"))}


def _resolve(modules, module, name):
    """The (module, name) definition a name in module stands for, or
    (module, None) for a sibling module; None when it is not the
    package's."""
    seen = set()
    while (module, name) not in seen:
        seen.add((module, name))
        mod = modules.get(module)
        if mod is None:
            return None
        if name in mod.defs:
            return module, name
        if name not in mod.aliases:
            return None
        module, name = mod.aliases[name]
        if name is None:
            return (module, None) if module in modules else None
    return None


def reached(modules, start=("cli", "main")):
    """Every (module, name) definition the walk reaches from start."""
    seen, todo = {start}, [start]
    while todo:
        module, name = todo.pop()
        for node in ast.walk(modules[module].defs[name]):
            target = None
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                target = _resolve(modules, module, node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)):
                owner = _resolve(modules, module, node.value.id)
                if owner is not None and owner[1] is None:
                    target = _resolve(modules, owner[0], node.attr)
            if target and target[1] is not None and target not in seen:
                seen.add(target)
                todo.append(target)
    return seen


def test_every_public_definition_is_reached_from_the_cli():
    modules = _package()
    seen = reached(modules)
    unreached = sorted((module, name) for module, mod in modules.items()
                       if module != "__init__"
                       for name in mod.public()
                       if (module, name) not in seen)
    assert sorted(HARNESS_ONLY) == [u for u in unreached if u in HARNESS_ONLY], \
        "a harness-only name is now reached from a task: drop its exception"
    extra = ["%s.%s" % u for u in unreached if u not in HARNESS_ONLY]
    assert not extra, "reached from no task: " + ", ".join(extra)


def test_the_harness_exceptions_are_used_by_the_harness():
    for (module, name), path in HARNESS_ONLY.items():
        assert name in (PERFBENCH / path).read_text(), (module, name, path)


def test_the_walk_follows_imports_and_module_attributes():
    """A name imported inside a function and an attribute of an imported
    module are both reached; an unused definition is not."""
    modules = {
        "cli": _Module(ast.parse(
            "from . import b\n"
            "def main():\n"
            "    from .a import f\n"
            "    return f() + b.g()\n")),
        "a": _Module(ast.parse(
            "def f():\n    return C()\n"
            "class C:\n    def m(self):\n        return h()\n"
            "def h():\n    pass\n"
            "def unused():\n    pass\n")),
        "b": _Module(ast.parse("from .a import h as g\n")),
    }
    assert reached(modules) == {("cli", "main"), ("a", "f"), ("a", "C"),
                                ("a", "h")}

"""Static checks on the package source."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pwlab

SRC = Path(pwlab.__file__).resolve().parent
# __init__.py imports names to export them, so it is not scanned
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never refers to."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_an_unused_name():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nprint(np.pi, sep)\n"
    assert unused_imports(source) == ["math", "path"]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    assert unused_imports((SRC / name).read_text()) == []


ROOT = SRC.parents[1]
# the code that may refer to a name of the package
USERS = [p for d in ("src", "tests", "perfbench", "demos") for p in (ROOT / d).rglob("*.py")]


def definitions(source: str) -> list[tuple[str, int, int]]:
    """Module-level functions, classes and UPPER_CASE constants, with the
    lines their definitions span."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno, node.end_lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node.lineno, node.end_lineno) for t in targets
                    if isinstance(t, ast.Name) and t.id.isupper()]
    return out


def references(source: str) -> list[tuple[str, int]]:
    """Each name a source refers to, by name, attribute or string, with its line."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out += [(word, node.lineno) for word in node.value.split(".")]
    return out


def test_reference_scan_skips_the_definition():
    source = "A = 1\nB = A\n\ndef f():\n    return f()\n\ndef g():\n    return 'm.B'\n"
    refs = references(source)
    unused = [name for name, lo, hi in definitions(source)
              if not any(n == name and not lo <= line <= hi for n, line in refs)]
    assert unused == ["f", "g"]


def test_every_module_level_name_is_used():
    found: dict[str, list] = {}
    for p in USERS:
        for name, line in references(p.read_text()):
            found.setdefault(name, []).append((p, line))
    unused = []
    for module in MODULES:
        path = SRC / module
        for name, lo, hi in definitions(path.read_text()):
            if not any(p != path or not lo <= line <= hi for p, line in found.get(name, [])):
                unused.append(f"{module}:{name}")
    assert unused == []


def pwlab_namespace(tree: ast.Module, module: str | None = None) -> dict:
    """The pwlab objects a source can call by name: what it imports from
    pwlab, plus, for a module of the package, its own namespace."""
    names = dict(vars(importlib.import_module(module))) if module else {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update({a.asname or a.name: importlib.import_module(a.name)
                          for a in node.names if a.name.split(".")[0] == "pwlab"})
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "pwlab" + (f".{base}" if base else "")
            if base.split(".")[0] != "pwlab":
                continue
            source = importlib.import_module(base)
            for a in node.names:
                obj = getattr(source, a.name, None)
                if obj is None:         # a submodule not yet imported
                    obj = importlib.import_module(f"{base}.{a.name}")
                names[a.asname or a.name] = obj
    return names


def unbindable_calls(source: str, module: str | None = None) -> list[str]:
    """Calls to a pwlab function or class whose keywords, or number of
    positional arguments, its signature does not accept."""
    tree = ast.parse(source)
    names = pwlab_namespace(tree, module)

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return names.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return getattr(resolve(expr.value), expr.attr, None)
        return None

    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = resolve(node.func)
        owner = getattr(target, "__module__", None) or ""
        if not callable(target) or not owner.startswith("pwlab"):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args):
            continue
        try:
            signature = inspect.signature(target)
        except ValueError:          # exception classes: any arguments
            continue
        keywords = {k.arg: None for k in node.keywords if k.arg is not None}
        try:
            signature.bind_partial(*node.args, **keywords)
        except TypeError as exc:
            out.append(f"line {node.lineno}: {ast.unparse(node.func)}: {exc}")
    return out


def test_call_scan_finds_a_removed_keyword():
    source = ("from pwlab import hardy\nfrom pwlab.nehari import NehariConfig\n"
              "hardy.tent_ratio(1, freq_points=40)\nNehariConfig(p=6.0, seed=1)\n"
              "hardy.tent_ratio(1, 1.0, 40, 4.0)\nNehariConfig(p=6.0, cells=9)\n")
    found = unbindable_calls(source)
    assert [line.split(":")[0] for line in found] == ["line 5", "line 6"]


@pytest.mark.parametrize("path", USERS, ids=lambda p: str(p.relative_to(ROOT)))
def test_calls_match_signatures(path):
    module = None
    if path.parent == SRC:
        module = "pwlab" if path.name == "__init__.py" else f"pwlab.{path.stem}"
    assert unbindable_calls(path.read_text(), module) == []


# Parameters a function keeps without reading them, each with its reason.
UNREAD_PARAMETERS = {
    # run_suite calls every criterion alike; some have no cheaper budget
    "checks.criterion_NN(fast)",
    # abstract: each body variant implements it
    "geometry.ConvexBody.contains_batch(pts)",
    # the disjointness test draws no points; perfbench's `orthogonal sum`
    # item still passes a seed
    "hankel.orthogonal_sum_check(seed)",
}


def unread_parameters(source: str, module: str) -> list[str]:
    """'module.Qualified.name(param)' for each parameter of a function that
    its body never reads; self and cls are not counted, and numbered
    criterion_NN functions share one name."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                name = re.sub(r"^criterion_\d+$", "criterion_NN", child.name)
                out.extend(f"{module}.{prefix}{name}({p})" for p in params
                           if p not in read and p not in ("self", "cls"))
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(source), "")
    return out


def test_unread_scan_finds_a_dropped_parameter():
    source = ("class A:\n    def f(self, x, y):\n        return x\n\n"
              "def criterion_07(fast):\n    return 1\n\n"
              "def g(z, *rest, **kw):\n    h = lambda: z\n    return h, kw\n")
    assert unread_parameters(source, "m") == ["m.A.f(y)", "m.criterion_NN(fast)", "m.g(rest)"]


def test_every_parameter_is_read():
    found = {entry for module in MODULES
             for entry in unread_parameters((SRC / module).read_text(), module[:-3])}
    assert found == UNREAD_PARAMETERS


PERFBENCH = ROOT / "perfbench"


def counter_arguments(source: str) -> dict[str, set[str]]:
    """For each "<function>.<count>" key of a COUNTERS dict, the names its
    counter reads as args["name"], whether the counter is a lambda or a
    module-level function."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "COUNTERS" for t in node.targets))
    out = {}
    for key, value in zip(table.keys, table.values):
        counter = functions[value.id] if isinstance(value, ast.Name) else value
        out[key.value] = {node.slice.value for node in ast.walk(counter)
                          if isinstance(node, ast.Subscript)
                          and isinstance(node.value, ast.Name) and node.value.id == "args"
                          and isinstance(node.slice, ast.Constant)}
    return out


def test_counter_scan_finds_the_arguments():
    source = ("def f(args, result):\n    w = args['which']\n    return args['family'].count\n\n"
              "COUNTERS = {'m.g.n': f, 'm.h.k': lambda args, result: args['A'].shape[0]}\n")
    assert counter_arguments(source) == {"m.g.n": {"which", "family"}, "m.h.k": {"A"}}


def traced_function(name: str):
    """The pwlab object a "module.func" or "module.Class.method" name of
    perfbench/layers.json wraps, or None if it does not resolve."""
    module_name, *path = name.split(".")
    obj = importlib.import_module(f"pwlab.{module_name}")
    for attr in path:
        obj = getattr(obj, attr, None)
    return obj


def test_traced_functions_and_counter_arguments_resolve():
    # a rename in src/pwlab that breaks the traced benchmark run fails here
    layers = json.loads((PERFBENCH / "layers.json").read_text())["functions"]
    counters = counter_arguments((PERFBENCH / "spans.py").read_text())
    broken = []
    for entry in layers:
        fn = traced_function(entry["name"])
        if not callable(fn):
            broken.append(f"{entry['name']}: not a pwlab function")
            continue
        params = set(inspect.signature(fn).parameters)
        for count in entry["counts"]:
            key = f"{entry['name']}.{count}"
            if key not in counters:
                broken.append(f"{key}: no counter")
                continue
            broken += [f"{key}: reads {arg!r}, not a parameter"
                       for arg in sorted(counters[key] - params)]
    assert broken == []
    assert {f"{e['name']}.{c}" for e in layers for c in e["counts"]} == set(counters)


def fresh_modules(imports: str) -> list[str]:
    """The modules a fresh interpreter has loaded after the given imports."""
    probe = f"import json, sys\n{imports}\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return json.loads(done.stdout)


PWLAB_IMPORT = "import pwlab, pwlab.cli, pwlab.checks"
# what pwlab cannot do without: numpy and the four scipy subpackages it calls
SCIPY_FLOOR = "import numpy, scipy.fft, scipy.linalg, scipy.spatial, scipy.special"


def test_import_loads_neither_scipy_signal_nor_stats():
    # scipy.signal, and scipy.stats through it, were about half of the
    # start-up of every run; pwlab.fourier has the two operations pwlab needs
    loaded = fresh_modules(PWLAB_IMPORT)
    assert "pwlab.checks" in loaded and "scipy.fft" in loaded
    assert [m for m in loaded if m.startswith(("scipy.signal", "scipy.stats"))] == []


def test_import_loads_no_scipy_module_beyond_the_floor():
    # scipy.integrate, and scipy.optimize through it, came in for two
    # one-dimensional integrals that fixed Gauss-Legendre rules now take
    floor = set(fresh_modules(SCIPY_FLOOR))
    extra = [m for m in fresh_modules(PWLAB_IMPORT) if m.startswith("scipy") and m not in floor]
    assert extra == []

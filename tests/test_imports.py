"""Every module of the package uses each name it imports, and every
package name the benchmark in perfbench/ traces or imports still exists."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import paracalc

MODULES = sorted(p for p in Path(paracalc.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_names() -> list[str]:
    """Dotted package names the benchmark uses: the tracer's TARGETS, the
    workloads' `from paracalc... import` names, and attributes it reads off
    an imported paracalc module (such as `cli._tanh_function`)."""
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text())
    (targets,) = [ast.literal_eval(node.value) for node in tracer.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    names = [f"paracalc.{name}" for name, _ in targets]
    workloads = list(ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())))
    modules = {}
    for node in workloads:
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "paracalc":
            for alias in node.names:
                names.append(f"{node.module}.{alias.name}")
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in workloads:
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            names.append(f"{modules[node.value.id]}.{node.attr}")
    return sorted(set(names))


def lookup(dotted: str):
    """The object a dotted name resolves to, importing submodules on the
    way, or None."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, attr in enumerate(parts[1:], start=2):
        if not hasattr(obj, attr):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return None
        obj = getattr(obj, attr, None)
    return obj


def test_perfbench_names_resolve():
    names = perfbench_names()
    assert {"paracalc.cli._tanh_function", "paracalc.cli.solve_pam_regularized",
            "paracalc.solvers.trapezoid_exponential_path"} <= set(names)
    assert [n for n in names if lookup(n) is None] == []


def perfbench_calls() -> list[tuple[str, int, list[str]]]:
    """(dotted name, positional count, keyword names) of each call the
    workloads make to a name imported from paracalc or an attribute of one."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    imported = {alias.asname or alias.name: f"{node.module}.{alias.name}"
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "paracalc"
                for alias in node.names}
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in imported:
            name = imported[f.id]
        elif isinstance(f, ast.Attribute) and getattr(f.value, "id", None) in imported:
            name = f"{imported[f.value.id]}.{f.attr}"
        else:
            continue
        calls.append((name, len(node.args), [k.arg for k in node.keywords]))
    return calls


def test_perfbench_calls_bind():
    # the benchmark's files are fixed, so every signature it calls, `part`
    # keywords included, must keep accepting its arguments
    calls = perfbench_calls()
    assert ("paracalc.solve_pam", 4, ["part"]) in calls
    unbound = []
    for name, npos, keywords in calls:
        try:
            inspect.signature(lookup(name)).bind(*[None] * npos, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{name}: {exc}")
    assert unbound == []


# a grid has one partition: `part` stays on the two holders a given
# partition enters through, the six functions perfbench passes one, and
# `pair_resonant`, through which `rde_area` passes its own
TAKE_PART = {"paraproducts.Blocks.__init__", "paraproducts.CausalAverage.__init__",
             "paraproducts.resonant", "enhanced.pair_resonant", "enhanced.rde_area",
             "enhanced.burgers_area", "solvers.solve_rde", "solvers.solve_burgers",
             "solvers.solve_pam"}


def functions(body, prefix):
    """(qualified name, node) of every function and method in a body."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from functions(node.body, f"{prefix}{node.name}.")


def test_only_the_entry_points_take_a_partition():
    found = set()
    for path in MODULES:
        for name, fn in functions(ast.parse(path.read_text()).body, f"{path.stem}."):
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            if "part" in {p.arg for p in params}:
                found.add(name)
    assert found == TAKE_PART

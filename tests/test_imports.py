"""Every module of the package uses each name it imports, and every
package name the benchmark in perfbench/ traces or imports still exists."""

import ast
import importlib
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


def resolves(dotted: str) -> bool:
    """Whether a dotted name resolves, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, attr in enumerate(parts[1:], start=2):
        if not hasattr(obj, attr):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
        obj = getattr(obj, attr)
    return True


def test_perfbench_names_resolve():
    names = perfbench_names()
    assert {"paracalc.cli._tanh_function", "paracalc.cli.solve_pam_regularized",
            "paracalc.solvers.trapezoid_exponential_path"} <= set(names)
    assert [n for n in names if not resolves(n)] == []

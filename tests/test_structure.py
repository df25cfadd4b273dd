"""Source-level guards on the dense basis layer.

Traces on intervals whose homology spreads over several degrees come from
orbit complexes and sparse integer ranks, so no engine path forms a dense
kernel, column-space basis or solve.  ``exactlin.kernel_basis`` and
``exactlin.solve_in_basis`` stay in ``src/`` only because the benchmark
tracer hooks both names (``tests/test_bench_hooks.py``); these checks keep
them, and the deleted ``column_space_basis`` and ``independent_extension``,
from quietly returning to an engine path.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "arrstab"
DENSE_BASIS = {"kernel_basis", "solve_in_basis", "column_space_basis", "independent_extension"}

MODULES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in sorted(SRC.glob("*.py"))
}


def test_every_engine_module_is_parsed():
    assert {"exactlin", "homology", "characters", "arrangement", "cli"} <= set(MODULES)


def test_homology_imports_nothing_from_exactlin():
    for node in ast.walk(MODULES["homology"]):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[-1] != "exactlin"
            assert "exactlin" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(alias.name.endswith("exactlin") for alias in node.names)


def test_no_engine_module_uses_the_dense_basis_names():
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert called not in DENSE_BASIS, f"{name} calls {called}"
            elif isinstance(node, ast.ImportFrom):
                imported = {alias.name for alias in node.names} & DENSE_BASIS
                assert not imported, f"{name} imports {imported}"

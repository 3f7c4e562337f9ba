"""Rules the package source keeps."""

import ast
import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_no_assert_statements_in_src():
    # ``python -O`` strips asserts, so no check may rest on one
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, found


def test_traced_bindings_resolve():
    # perfbench/layers.py wraps these names where the calling module binds
    # them; a renamed function would silently drop out of ``--trace 1``
    path = ROOT / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for module, attr, _ in layers.BINDINGS:
        owner = importlib.import_module(f"bmgraph.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert not missing, missing

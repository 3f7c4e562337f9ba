"""Rules the package source keeps."""

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

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


def test_no_numpy_imports_in_src():
    # the package is pure Python and declares no runtime dependency
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "numpy" for m in modules):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, found


def test_cli_import_leaves_numpy_unloaded():
    # a fresh interpreter, so no module imported by another test can leak in
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, bmgraph.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _traced_bindings() -> tuple:
    """``BINDINGS`` of perfbench/layers.py: (module, attribute, span name)."""
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.BINDINGS


def test_traced_bindings_resolve():
    # perfbench/layers.py wraps these names where the calling module binds
    # them; a renamed function would silently drop out of ``--trace 1``
    missing = []
    for module, attr, _ in _traced_bindings():
        owner = importlib.import_module(f"bmgraph.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert not missing, missing


def _functions(module: str) -> dict[str, ast.FunctionDef]:
    tree = ast.parse((SRC / "bmgraph" / f"{module}.py").read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_pairwise_hot_path_copies_no_pair_graph():
    # a component is a vertex mask of the input graph, the pair layer reads
    # each colour pair off the graph's bitsets and BUILD glues from the
    # pairs' cluster families; a subgraph copy, a thinness partition, a
    # repeated structure check or a tree per pair would bring back the
    # per-component or per-pair graph and tree objects
    forbidden = {
        "induced_subgraph",
        "subgraph_on",
        "thinness_partition",
        "_structure_check",
        "LeafColoredTree",
    }
    helpers = ("two_color", "triples")
    defs = {module: _functions(module) for module in ("n_color", *helpers)}
    work = [("n_color", "_candidate")]
    reached: set[tuple[str, str]] = set()
    calls: dict[str, set[str]] = {}
    while work:
        module, name = work.pop()
        if (module, name) in reached:
            continue
        reached.add((module, name))
        for node in ast.walk(defs[module][name]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                callee = node.func.id
                calls.setdefault(callee, set()).add(f"{module}.{name}")
                for owner in (module, *helpers):  # n_color binds its helpers by name
                    if callee in defs[owner]:
                        work.append((owner, callee))
                        break
    assert {("two_color", "pair_topology"), ("two_color", "hasse_forest")} <= reached, reached
    assert ("triples", "_build_st") in reached, reached
    found = {name: sorted(calls[name]) for name in forbidden & calls.keys()}
    assert not found, found


def _unread_members(module: str, class_name: str) -> tuple[set[str], list[str]]:
    """The methods and properties of ``class_name``, dunders aside, and those
    that no function of the package reads: a method through a call, a
    property through any attribute access, neither counted in its own body."""
    source = ast.parse((SRC / "bmgraph" / f"{module}.py").read_text(encoding="utf-8"))
    [owner] = [n for n in source.body if isinstance(n, ast.ClassDef) and n.name == class_name]
    methods, properties = set(), set()
    for node in owner.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
            is_property = any(getattr(d, "id", None) == "property" for d in node.decorator_list)
            (properties if is_property else methods).add(node.name)
    called, read = set(), set()
    for path in sorted((SRC / "bmgraph").glob("*.py")):
        for top in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(top, ast.FunctionDef):
                for node in ast.walk(top):
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                        if node.func.attr != top.name:
                            called.add(node.func.attr)
                    elif isinstance(node, ast.Attribute) and node.attr != top.name:
                        read.add(node.attr)
    return methods | properties, sorted((methods - called) | (properties - read))


def test_every_tree_method_has_a_caller_in_src():
    # a LeafColoredTree method that no code in the package calls is API kept
    # for tests alone, and belongs in tests/util.py; ``topology`` is exempt as
    # the documented way to read a tree back as nested tuples
    members, unread = _unread_members("tree", "LeafColoredTree")
    unread = [name for name in unread if name != "topology"]
    assert members and not unread, unread


def test_every_digraph_method_and_view_has_a_reader_in_src():
    # the ColoredDigraph twin of the rule above: a method no code in the
    # package calls, or a view (a property, such as a lazily built table)
    # that none reads, is kept for tests alone and belongs in tests/util.py
    members, unread = _unread_members("digraph", "ColoredDigraph")
    assert {"in_masks", "color_masks"} <= members and not unread, unread


def test_every_triple_set_and_thinness_partition_method_has_a_caller_in_src():
    # the same rule for the triple and class containers; ``TripleSet.union``
    # is exempt, as perfbench/layers.py traces it
    for module, class_name, exempt in (("triples", "TripleSet", {"union"}), ("digraph", "ThinnessPartition", set())):
        members, unread = _unread_members(module, class_name)
        assert members and set(unread) <= exempt, (class_name, unread)


def test_every_two_color_function_has_a_caller_or_is_public():
    # a module-level function of two_color or triples that nothing in the
    # package calls, that bmgraph does not export and that perfbench does not
    # trace is a step kept for tests alone, such as a second axiom check or
    # a second count of the triples, and belongs in tests/util.py
    exported = set(importlib.import_module("bmgraph").__all__)
    called = set()
    for path in sorted((SRC / "bmgraph").glob("*.py")):
        for top in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(top, ast.FunctionDef):
                called |= {
                    getattr(node.func, "id", getattr(node.func, "attr", None))
                    for node in ast.walk(top)
                    # a call inside a function's own body does not count for it
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) != top.name
                }
    uncalled = []
    for module in ("two_color", "triples"):
        # traced where this module or a caller binds it, by this module's span name
        traced = {attr for owner, attr, span in _traced_bindings() if module in (owner, span.split(".")[0])}
        functions = set(_functions(module))
        assert functions, module
        uncalled += [f"{module}.{name}" for name in sorted(functions - called - exported - traced)]
    assert not uncalled, uncalled


def test_one_gate_calls_bmg_of_tree():
    # recognition has one exact gate, the final comparison in
    # ``recognize_ncbmg``; a second caller would be a second gate
    callers = set()
    for path in sorted((SRC / "bmgraph").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                # a bare name, or an attribute such as ``bmg.bmg_of_tree``
                if getattr(node.func, "id", getattr(node.func, "attr", None)) == "bmg_of_tree":
                    callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {
        "n_color.recognize_ncbmg",
        "n_color.redundant_edges_n",
        "bmg.simulate",
        "cli.cmd_from_tree",
    }, sorted(callers)

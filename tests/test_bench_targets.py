"""The bench reaches into the library by name; each name must exist.

perfbench/tracing.py wraps functions and methods by name and skips a name
that is missing, so a rename would silently zero a bench counter.
perfbench/workloads.py imports library names and reads attributes of
graphs, so a rename there fails the bench run.  These tests read the names
from both files' source and look each one up.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")

# patched by the tracer but gone from the library, so their counters read 0;
# each is named by a FOUND line in CHANGES.md
KNOWN_STALE = {
    # FOUND: "`perfbench/tracing.py` wraps `SampleSpace.iter_support` and
    # `basisfind._support_vectors`, which this change removes"
    ("edgewise.samplespace", "SampleSpace.iter_support"),
    ("edgewise.basisfind", "_support_vectors"),
    # FOUND: "`perfbench/tracing.py` still patches the deleted `_rows_none_set`"
    ("edgewise.experiments", "_rows_none_set"),
}


def _tracer_targets():
    """(module, dotted name) of every string-named _patch_function or
    _patch_method call, and the tracer's EXPERIMENTS names."""
    tree = ast.parse(TRACING.read_text())
    modules = {}  # local alias -> module, from `import edgewise.x as x`
    experiments = None
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("edgewise"):
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "EXPERIMENTS" for t in node.targets
        ):
            experiments = ast.literal_eval(node.value)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id not in ("_patch_function", "_patch_method"):
            continue
        owner, attr = node.args[0], node.args[1]
        if not isinstance(attr, ast.Constant):
            continue  # the EXPERIMENTS loop, checked below
        if isinstance(owner, ast.Attribute):  # module.Class
            targets.add((modules[owner.value.id], f"{owner.attr}.{attr.value}"))
        else:
            targets.add((modules[owner.id], attr.value))
    return targets, experiments


def _exists(module: str, dotted: str) -> bool:
    mod = importlib.import_module(module)
    if "." in dotted:  # _patch_method reads the class's own __dict__
        cls, attr = dotted.split(".")
        return attr in vars(getattr(mod, cls))
    return getattr(mod, dotted, None) is not None


def test_tracer_patch_targets_exist():
    targets, _ = _tracer_targets()
    assert len(targets) > 15  # the parse found the patch calls
    missing = {t for t in targets if not _exists(*t)}
    assert missing == KNOWN_STALE


def test_tracer_experiment_names_exist():
    _, experiments = _tracer_targets()
    assert experiments
    for name in experiments:
        assert _exists("edgewise.experiments", name), name


def _workload_names():
    """(imports, package attributes, Graph attributes, union-find attributes)
    that perfbench/workloads.py reads: every (module, name) it imports from
    edgewise.*, every name it reads off the package alias, every attribute it
    reads on a local ``g``, and every attribute on a name bound to
    ``g.union_find()``."""
    tree = ast.parse(WORKLOADS.read_text())
    imports, package, graph_attrs, uf_attrs = set(), set(), set(), set()
    aliases, uf_names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "edgewise"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("edgewise"):
            imports |= {(node.module, a.name) for a in node.names}
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Attribute)
              and node.value.func.attr == "union_find"):
            uf_names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = node.value.id
            if owner in aliases:
                package.add(node.attr)
            elif owner == "g":
                graph_attrs.add(node.attr)
            elif owner in uf_names:
                uf_attrs.add(node.attr)
    return imports, package, graph_attrs, uf_attrs


def test_workload_library_names_exist():
    import edgewise
    from edgewise.graph import Graph

    imports, package, graph_attrs, uf_attrs = _workload_names()
    # the parse found what the workloads use today
    assert {name for _, name in imports} >= {"Graph", "exact_builder", "with_marginal"}
    assert len(package) >= 16
    assert graph_attrs >= {"component_count", "components", "union_find", "m", "n"}
    assert uf_attrs == {"find"}
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)
    for name in package:
        assert hasattr(edgewise, name), name
    g = Graph(3, [(0, 1), (1, 2)])
    for attr in graph_attrs:
        assert hasattr(g, attr), attr
    uf = g.union_find()
    for attr in uf_attrs:
        assert hasattr(uf, attr), attr

"""The bench tracer patches library names given as strings; each must exist.

perfbench/tracing.py wraps functions and methods by name and skips a name
that is missing, so a rename would silently zero a bench counter.  This
test reads those names from the tracer's source and looks each one up.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

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

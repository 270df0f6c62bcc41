"""Span tracing for the traced benchmark run.

``install(tracer)`` replaces edgewise's public layer entry points with
wrappers that record a span (name, start, end, parent span, job) for every
call made inside a timed job.  Nothing in ``src/`` changes: the wrappers are
installed from here, in the traced run only, and every module that imported
an entry point by name gets the wrapper too.

Hot inner calls are never spanned.  ``Graph.components`` (once per support
row on the per-row union-find path) gets a bare call counter and timer whose
time is still subtracted from its caller's self time; ``GF2Field.mul`` and
the experiments' per-event mask helpers get counters only.  Private helpers
that a later version may drop are patched only when present; their counters
then read 0.  A layer's self time
is its span minus its child spans and those timed inner calls.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    ("gf2.mul_calls", "count"),
    ("samplespace.support_rows", "count"),
    ("samplespace.support_s", "s"),
    ("samplespace.support_rows_per_s", "1/s"),
    ("samplespace.verify_calls", "count"),
    ("samplespace.subsets_tested", "count"),
    ("samplespace.verify_s", "s"),
    ("samplespace.subsets_per_s", "1/s"),
    ("samplespace.iter_rows", "count"),
    ("samplespace.iter_s", "s"),
    ("graph.enumerate_cuts_calls", "count"),
    ("graph.cuts_enumerated", "count"),
    ("graph.enumerate_cuts_s", "s"),
    ("graph.enumerate_cycles_calls", "count"),
    ("graph.cycles_enumerated", "count"),
    ("graph.enumerate_cycles_s", "s"),
    ("graph.components_calls", "count"),
    ("graph.components_s", "s"),
    ("graph.min_cut_calls", "count"),
    ("graph.min_cut_s", "s"),
    ("experiments.rows", "count"),
    ("experiments.events", "count"),
    ("experiments.row_events", "count"),
    ("experiments.row_events_per_s", "1/s"),
    ("experiments.self_s", "s"),
    ("experiments.distinct_mask_ratio", "ratio"),
    ("matroid.queries", "count"),
    ("matroid.rounds", "count"),
    ("matroid.graphic_queries_per_s", "1/s"),
    ("matroid.cographic_queries_per_s", "1/s"),
    ("matroid.round_s", "s"),
    ("basisfind.outer_iterations", "count"),
    ("basisfind.sweep_windows", "count"),
    ("basisfind.circuits_listed", "count"),
    ("basisfind.support_vectors", "count"),
    ("basisfind.independent_ratio", "ratio"),
    ("basisfind.self_s", "s"),
    ("spectral.leverage_calls", "count"),
    ("spectral.leverage_s", "s"),
    ("spectral.rdiam_calls", "count"),
    ("spectral.rdiam_s", "s"),
    ("spectral.verdict_rows", "count"),
    ("spectral.verdict_rows_per_s", "1/s"),
    ("spectral.kernel_failures", "count"),
    ("reweight.levels", "count"),
    ("reweight.cluster_calls", "count"),
    ("reweight.alpha_doublings", "count"),
    ("reweight.cluster_s", "s"),
    ("reweight.self_s", "s"),
    ("reweight.max_weight_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

EXPERIMENTS = (
    "connectivity_experiment",
    "cyclefree_experiment",
    "unique_cut_survival_experiment",
    "unique_cycle_survival_experiment",
    "sparsify_experiment",
    "reweight_then_connectivity",
)
HARVEST_LABELS = ("flis-graphic", "flis-cographic")


class Tracer:
    """Spans and counters of the jobs run while ``job`` is set."""

    def __init__(self):
        self.job: str | None = None  # None: wrappers pass straight through
        self.group: str | None = None
        self.pass_no = 0
        self.spans: list[list] = []  # [name, start, end, parent, job, attrs]
        self.stack: list[int] = []
        self.inner: dict[int, float] = defaultdict(float)  # span -> timed inner calls
        self.counts: dict[str, float] = defaultdict(float)
        self.masks: set = set()

    def begin_job(self, name: str, group: str | None) -> None:
        self.job, self.group = name, group or name

    def end_job(self) -> None:
        self.job = self.group = None
        self.stack.clear()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf(), None, parent, self.job, {}])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, **attrs) -> None:
        span = self.spans[idx]
        span[2] = perf()
        span[5].update(attrs)
        if idx in self.stack:
            self.stack.remove(idx)

    def add_inner(self, dt: float) -> None:
        if self.stack:
            self.inner[self.stack[-1]] += dt

    # -- wrapper factories -----------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, error=type(exc).__name__)
                raise
            self.close(idx)
            if on_result is not None:
                on_result(self.spans[idx][5], args, kwargs, result)
            return result

        return wrapper

    def timed_inner(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self.counts[name + "_calls"] += 1
                self.counts[name + "_s"] += dt
                self.add_inner(dt)

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            if self.job is not None:
                counts[name] += 1
            return fn(*args)

        return wrapper


# -- installation ----------------------------------------------------------------


def _replace_everywhere(old, new) -> None:
    """Point every edgewise module attribute that holds ``old`` at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "edgewise" or modname.startswith("edgewise.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def _patch_function(module, attr: str, make) -> None:
    old = getattr(module, attr, None)
    if old is not None:
        _replace_everywhere(old, make(old))


def _patch_method(cls, attr: str, make) -> None:
    old = cls.__dict__.get(attr)
    if old is not None:
        setattr(cls, attr, make(old))


def install(tracer: Tracer) -> None:
    import edgewise.basisfind as basisfind
    import edgewise.experiments as experiments
    import edgewise.gf2 as gf2
    import edgewise.graph as graph
    import edgewise.matroid as matroid
    import edgewise.reweight as reweight
    import edgewise.samplespace as samplespace
    import edgewise.spectral as spectral

    t = tracer

    # gf2: call count only; it runs a million times per support build
    _patch_method(gf2.GF2Field, "mul", lambda fn: t.counted("gf2.mul_calls", fn))

    # samplespace
    def support_words(fn):
        @functools.wraps(fn)
        def wrapper(self, budget=None):
            if t.job is None or getattr(self, "_support", None) is not None:
                return fn(self, budget)  # cached support: no work to trace
            idx = t.open("samplespace.support_words")
            try:
                words = fn(self, budget)
            except BaseException as exc:
                t.close(idx, error=type(exc).__name__)
                raise
            t.close(idx, rows=int(words.shape[0]))
            return words

        return wrapper

    def iter_support(fn):
        def traced(gen):
            idx = t.open("samplespace.iter_support")
            rows = 0
            try:
                for vec in gen:
                    rows += 1
                    yield vec
            finally:
                t.close(idx, rows=rows)

        @functools.wraps(fn)
        def wrapper(self, budget=None):
            gen = fn(self, budget)
            return gen if t.job is None else traced(gen)

        return wrapper

    def verify_done(attrs, args, kwargs, report):
        attrs["subsets"] = report.subsets_tested

    _patch_method(samplespace.SampleSpace, "support_words", support_words)
    _patch_method(samplespace.SampleSpace, "iter_support", iter_support)
    _patch_function(samplespace, "verify_independence",
                    lambda fn: t.span("samplespace.verify_independence", fn, verify_done))

    # graph
    def sized(attrs, args, kwargs, result):
        attrs["items"] = len(result)

    _patch_method(graph.Graph, "enumerate_cuts",
                  lambda fn: t.span("graph.enumerate_cuts", fn, sized))
    _patch_method(graph.Graph, "enumerate_cycles",
                  lambda fn: t.span("graph.enumerate_cycles", fn, sized))
    _patch_method(graph.Graph, "components", lambda fn: t.timed_inner("graph.components", fn))
    _patch_method(graph.Graph, "min_cut", lambda fn: t.span("graph.min_cut", fn))

    # experiments: one span per experiment, counters on the per-event masks
    def experiment_done(attrs, args, kwargs, report):
        attrs["rows"] = report.trials

    for name in EXPERIMENTS:
        _patch_function(experiments, name,
                        lambda fn: t.span("experiments.experiment", fn, experiment_done))

    def mask(kind):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(words, positions):
                if t.job is None:
                    return fn(words, positions)
                positions = tuple(positions)
                t.counts["experiments.events"] += 1
                t.counts["experiments.row_events"] += words.shape[0]
                t.masks.add((t.pass_no, t.group, kind, positions))
                return fn(words, positions)

            return wrapper

        return make

    _patch_function(experiments, "_rows_all_set", mask("all"))
    _patch_function(experiments, "_rows_none_set", mask("none"))

    # matroid: one span per oracle round
    def round_done(attrs, args, kwargs, answers):
        session, label = args[0], args[1]
        attrs.update(kind=session.kind, queries=len(answers))
        if label in HARVEST_LABELS:
            attrs["harvest_queries"] = len(answers)
            attrs["harvest_independent"] = sum(1 for a in answers if a)

    _patch_method(matroid.OracleSession, "run_round",
                  lambda fn: t.span("matroid.run_round", fn, round_done))

    # basisfind
    def basis_done(attrs, args, kwargs, report):
        sweeps = [step for outer in report.phase_trace for step in outer["sweep"]]
        attrs.update(
            queries=report.queries_total,
            rounds=report.rounds_used,
            outer=report.outer_iterations,
            windows=len(sweeps),
            circuits=sum(step["circuits"] for step in sweeps),
        )

    def support_vectors(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            vectors = fn(*args, **kwargs)
            if t.job is not None:
                t.counts["basisfind.support_vectors"] += len(vectors)
            return vectors

        return wrapper

    _patch_function(basisfind, "find_basis",
                    lambda fn: t.span("basisfind.find_basis", fn, basis_done))
    _patch_function(basisfind, "_support_vectors", support_vectors)

    # spectral
    def verdicts_done(attrs, args, kwargs, result):
        attrs["rows"] = int(args[1].shape[0])

    def eig(fn):
        @functools.wraps(fn)
        def wrapper(g):
            try:
                return fn(g)
            except RuntimeError:
                if t.job is not None:
                    t.counts["spectral.kernel_failures"] += 1
                raise

        return wrapper

    _patch_function(spectral, "leverage_scores", lambda fn: t.span("spectral.leverage_scores", fn))
    _patch_function(spectral, "resistance_diameter",
                    lambda fn: t.span("spectral.resistance_diameter", fn))
    _patch_method(spectral.FormChecker, "batch_verdicts",
                  lambda fn: t.span("spectral.batch_verdicts", fn, verdicts_done))
    _patch_function(spectral, "_eig", eig)

    # reweight
    def cluster_done(attrs, args, kwargs, part):
        alpha = kwargs.get("alpha", args[1] if len(args) > 1 else reweight.ALPHA0)
        attrs["doublings"] = round(math.log2(part.alpha_used / alpha))

    def reweight_done(attrs, args, kwargs, result):
        attrs.update(levels=result.level_count, weight_ratio=float(result.weight_ratio))

    _patch_function(reweight, "cluster_low_rdiam",
                    lambda fn: t.span("reweight.cluster_low_rdiam", fn, cluster_done))
    _patch_function(reweight, "reweight_min_cut",
                    lambda fn: t.span("reweight.reweight_min_cut", fn, reweight_done))


# -- per-layer metrics -------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, passes: int, untraced_walls, traced_walls) -> dict:
    """Per-pass per-layer numbers from the spans and counters of ``passes`` passes."""
    spans = tracer.spans
    child = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if end is not None and parent is not None:
            child[parent] += end - start
    total = defaultdict(float)  # name -> inclusive seconds
    own = defaultdict(float)  # name -> self seconds
    calls = defaultdict(int)
    attr = defaultdict(float)  # "name.attr" -> summed attribute
    support_top_rows = support_top_s = 0.0
    by_kind = defaultdict(float)  # "<kind>_queries" / "<kind>_s"
    max_ratio = 0.0
    for idx, (name, start, end, parent, _, attrs) in enumerate(spans):
        if end is None:  # a span never closed
            continue
        dur = end - start
        total[name] += dur
        own[name] += dur - child[idx] - tracer.inner.get(idx, 0.0)
        calls[name] += 1
        for key, val in attrs.items():
            if key == "kind":
                by_kind[val + "_queries"] += attrs["queries"]
                by_kind[val + "_s"] += dur
            elif key == "weight_ratio":
                max_ratio = max(max_ratio, val)
            elif not isinstance(val, str):
                attr[f"{name}.{key}"] += val
        if name == "samplespace.support_words" and (
            parent is None or spans[parent][0] != "samplespace.support_words"
        ):
            support_top_rows += attrs.get("rows", 0)
            support_top_s += dur

    c = tracer.counts
    m = {
        "gf2.mul_calls": c["gf2.mul_calls"],
        "samplespace.support_rows": support_top_rows,
        "samplespace.support_s": support_top_s,
        "samplespace.support_rows_per_s": _ratio(support_top_rows, support_top_s),
        "samplespace.verify_calls": calls["samplespace.verify_independence"],
        "samplespace.subsets_tested": attr["samplespace.verify_independence.subsets"],
        "samplespace.verify_s": own["samplespace.verify_independence"],
        "samplespace.subsets_per_s": _ratio(
            attr["samplespace.verify_independence.subsets"], own["samplespace.verify_independence"]
        ),
        "samplespace.iter_rows": attr["samplespace.iter_support.rows"],
        "samplespace.iter_s": own["samplespace.iter_support"],
        "graph.enumerate_cuts_calls": calls["graph.enumerate_cuts"],
        "graph.cuts_enumerated": attr["graph.enumerate_cuts.items"],
        "graph.enumerate_cuts_s": total["graph.enumerate_cuts"],
        "graph.enumerate_cycles_calls": calls["graph.enumerate_cycles"],
        "graph.cycles_enumerated": attr["graph.enumerate_cycles.items"],
        "graph.enumerate_cycles_s": total["graph.enumerate_cycles"],
        "graph.components_calls": c["graph.components_calls"],
        "graph.components_s": c["graph.components_s"],
        "graph.min_cut_calls": calls["graph.min_cut"],
        "graph.min_cut_s": total["graph.min_cut"],
        "experiments.rows": attr["experiments.experiment.rows"],
        "experiments.events": c["experiments.events"],
        "experiments.row_events": c["experiments.row_events"],
        "experiments.row_events_per_s": _ratio(
            c["experiments.row_events"], own["experiments.experiment"]
        ),
        "experiments.self_s": own["experiments.experiment"],
        "experiments.distinct_mask_ratio": _ratio(len(tracer.masks), c["experiments.events"]),
        "matroid.queries": attr["basisfind.find_basis.queries"],
        "matroid.rounds": attr["basisfind.find_basis.rounds"],
        "matroid.graphic_queries_per_s": _ratio(by_kind["graphic_queries"], by_kind["graphic_s"]),
        "matroid.cographic_queries_per_s": _ratio(
            by_kind["cographic_queries"], by_kind["cographic_s"]
        ),
        "matroid.round_s": total["matroid.run_round"],
        "basisfind.outer_iterations": attr["basisfind.find_basis.outer"],
        "basisfind.sweep_windows": attr["basisfind.find_basis.windows"],
        "basisfind.circuits_listed": attr["basisfind.find_basis.circuits"],
        "basisfind.support_vectors": c["basisfind.support_vectors"],
        "basisfind.independent_ratio": _ratio(
            attr["matroid.run_round.harvest_independent"], attr["matroid.run_round.harvest_queries"]
        ),
        "basisfind.self_s": own["basisfind.find_basis"],
        "spectral.leverage_calls": calls["spectral.leverage_scores"],
        "spectral.leverage_s": total["spectral.leverage_scores"],
        "spectral.rdiam_calls": calls["spectral.resistance_diameter"],
        "spectral.rdiam_s": total["spectral.resistance_diameter"],
        "spectral.verdict_rows": attr["spectral.batch_verdicts.rows"],
        "spectral.verdict_rows_per_s": _ratio(
            attr["spectral.batch_verdicts.rows"], total["spectral.batch_verdicts"]
        ),
        "spectral.kernel_failures": c["spectral.kernel_failures"],
        "reweight.levels": attr["reweight.reweight_min_cut.levels"],
        "reweight.cluster_calls": calls["reweight.cluster_low_rdiam"],
        "reweight.alpha_doublings": attr["reweight.cluster_low_rdiam.doublings"],
        "reweight.cluster_s": total["reweight.cluster_low_rdiam"],
        "reweight.self_s": own["reweight.reweight_min_cut"],
        "reweight.max_weight_ratio": max_ratio,
        "trace.spans": sum(calls.values()),
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
    }
    # totals become per-pass figures; rates, ratios and maxima already are
    out = {}
    for name, unit in PER_LAYER:
        val = float(m[name])
        if unit in ("count", "s") and name != "trace.overhead_s":
            val /= passes
        out[name] = {"value": val, "unit": unit}
    return out


def write_spans(tracer: Tracer, path) -> None:
    """Spans as JSON lines, times in seconds from the first span."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for idx, (name, start, end, parent, job, attrs) in enumerate(tracer.spans):
            fh.write(json.dumps({
                "id": idx, "name": name, "start": start - origin, "end": end - origin,
                "parent": parent, "job": job, "attrs": attrs,
            }) + "\n")

"""Empirical verification harness over edge-sampling sample spaces.

Each experiment walks a bit-vector distribution whose coordinates are a
graph's edges (bit set = edge kept), checks a structural property per
vector, and reports exact rational rates with up to ten failure witnesses.
Enumeration mode visits every seed of the space once, so rates are exact
counts over the support; sample mode is a seeded Monte Carlo estimate and
says so in the report.

Also here: the named instance generators the experiments and the CLI run
on, and the union-bound oracle that predicts a floor for the component
preservation rate from the cut structure.
"""

from __future__ import annotations

import functools
import json
import math
import random
from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .basisfind import PreconditionError, _deviation_lines, _window_end
from .graph import Graph
from .matroid import COGRAPHIC, GRAPHIC, _nullities
from .reweight import reweight_min_cut
from .samplespace import (
    SampleSpace,
    _all_set,
    _as_int,
    _pack_words,
    _row_popcounts,
    _unpack_words,
    build_kwise,
    group_heterogeneous,
    mode_blocks,
)
from .spectral import edge_form_checker, leverage_scores, sparsify_rates

__all__ = [
    "ExperimentReport",
    "ExperimentSpec",
    "conditional_bias_check",
    "connectivity_experiment",
    "cyclefree_experiment",
    "gen_graph",
    "graph_summary",
    "instance_label",
    "load_graph",
    "reweight_then_connectivity",
    "sparsify_experiment",
    "union_bound_component_floor",
    "unique_cut_survival_experiment",
    "unique_cycle_survival_experiment",
]


# -- instance generators -----------------------------------------------------


def _require_int(params: Mapping, key: str, low: int, default=None) -> int:
    if key not in params:
        if default is not None:
            return default
        raise ValueError(f"missing parameter {key!r}")
    return _as_int(params[key], f"parameter {key!r}", low)


def _gen_cycle(params: Mapping, seed: int) -> Graph:
    length = _require_int(params, "length", 2)
    return Graph(length, [(i, (i + 1) % length) for i in range(length)])


def _gen_theta(params: Mapping, seed: int) -> Graph:
    """Two hub vertices joined by internally disjoint paths."""
    lengths = params.get("lengths")
    if not isinstance(lengths, (list, tuple)) or len(lengths) < 2:
        raise ValueError(f"parameter 'lengths' needs >= 2 path lengths, not {lengths!r}")
    lengths = [_as_int(x, "each of 'lengths'", 1) for x in lengths]
    edges = []
    nxt = 2
    for ln in lengths:
        chain = [0] + list(range(nxt, nxt + ln - 1)) + [1]
        nxt += ln - 1
        edges.extend((chain[i], chain[i + 1]) for i in range(ln))
    return Graph(nxt, edges)


def _gen_complete(params: Mapping, seed: int) -> Graph:
    h = _require_int(params, "vertices", 1)
    return Graph(h, [(u, v) for u in range(h) for v in range(u + 1, h)])


def _gen_multi_cycle(params: Mapping, seed: int) -> Graph:
    copies = _require_int(params, "copies", 1)
    return _gen_cycle(params, seed).duplicate_edges(copies)


def _gen_expander_like(params: Mapping, seed: int) -> Graph:
    """Union of seeded random Hamiltonian cycles (plus a matching when the
    degree is odd): a d-regular multigraph without self-loops."""
    n = _require_int(params, "vertices", 3)
    d = _require_int(params, "degree", 1)
    if d % 2 == 1 and n % 2 == 1:
        raise ValueError("odd degree needs an even vertex count")
    rng = random.Random(f"expander-{n}-{d}-{seed}")
    edges = []
    for _ in range(d // 2):
        perm = list(range(n))
        rng.shuffle(perm)
        edges.extend((perm[i], perm[(i + 1) % n]) for i in range(n))
    if d % 2 == 1:
        perm = list(range(n))
        rng.shuffle(perm)
        edges.extend((perm[2 * i], perm[2 * i + 1]) for i in range(n // 2))
    return Graph(n, edges)


def _gen_subdivided(params: Mapping, seed: int) -> Graph:
    base = _gen_complete(params, seed)
    pieces = _require_int(params, "pieces", 1)
    return base.subdivide(pieces)


def _gen_dumbbell(params: Mapping, seed: int) -> Graph:
    left = _require_int(params, "left", 1)
    right = _require_int(params, "right", 1, default=left)
    edges = [(u, v) for u in range(left) for v in range(u + 1, left)]
    edges += [
        (left + u, left + v) for u in range(right) for v in range(u + 1, right)
    ]
    edges.append((0, left))  # the bridge
    return Graph(left + right, edges)


# generator and the parameter keys it reads, per family
_FAMILIES = {
    "cycle": (_gen_cycle, ("length",)),
    "theta": (_gen_theta, ("lengths",)),
    "complete": (_gen_complete, ("vertices",)),
    "multi_cycle": (_gen_multi_cycle, ("length", "copies")),
    "expander_like": (_gen_expander_like, ("vertices", "degree")),
    "subdivided": (_gen_subdivided, ("vertices", "pieces")),
    "dumbbell": (_gen_dumbbell, ("left", "right")),
}


def gen_graph(family: str, params: Mapping | None = None, *, seed: int = 0) -> Graph:
    """Build a named instance; deterministic given (family, params, seed).

    A parameter key the family does not read is an error; the seed is the
    keyword, never a parameter key.
    """
    if family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown family {family!r} (known: {known})")
    gen, keys = _FAMILIES[family]
    params = params or {}
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise ValueError(
            f"family {family!r} does not read {', '.join(map(repr, unknown))} "
            f"(allowed: {', '.join(keys)})"
        )
    return gen(params, seed)


def instance_label(family: str, params: Mapping | None = None, seed: int = 0) -> str:
    parts = [f"{k}={params[k]}" for k in sorted(params)] if params else []
    if family == "expander_like" or seed:
        parts.append(f"seed={seed}")
    return f"{family}({','.join(parts)})"


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith(("{", "[")):
        return Graph.from_json(text)
    return Graph.from_text(text)


def graph_summary(g: Graph) -> dict:
    """Measured shape of an instance: size, components, min cut, girth."""
    cut = None
    if g.n >= 2:
        cut = _rat(g.min_cut().value)
    return {
        "vertices": g.n,
        "edges": g.m,
        "components": g.component_count(),
        "min_cut": cut,
        "girth": g.girth(),
        "unit_weights": all(w == 1 for _, _, _, w in g.edges()),
    }


# -- report plumbing ----------------------------------------------------------


def _rat(f: Fraction) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def _const(name: str, full, used) -> tuple[str, str, str]:
    return (name, str(full), str(used))


def _full_order(count: int) -> int:
    """The full-strength independence order 2 ceil(log2 count), count >= 2."""
    return 2 * max(1, math.ceil(math.log2(max(count, 2))))


@dataclass(frozen=True)
class ExperimentSpec:
    """What was run: instance, property, constants, space, evaluation mode."""

    generator: str
    theorem: str
    constants: tuple  # (name, full_strength, used) triples
    space: dict  # space descriptor (exact rationals inside)
    mode: str
    trials: int | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "generator": self.generator,
            "theorem": self.theorem,
            "constants": [list(c) for c in self.constants],
            "space": self.space,
            "mode": self.mode,
            "trials": self.trials,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    trials: int
    successes: int
    rates: dict  # name -> Fraction; "success" always present
    failure_witnesses: tuple
    deviations: tuple
    notes: tuple = ()
    extras: dict | None = None

    @property
    def success_rate(self) -> Fraction:
        return self.rates["success"]

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "counts": {"trials": self.trials, "successes": self.successes},
            "rates": {k: _rat(v) for k, v in sorted(self.rates.items())},
            "witnesses": list(self.failure_witnesses),
            "deviations": list(self.deviations),
            "notes": list(self.notes),
            "extras": self.extras or {},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _mode_notes(mode: str, trials: int) -> tuple[str, ...]:
    if mode != "sample":
        return ()
    # two-sided Hoeffding at 95%
    hw = math.sqrt(math.log(2 / 0.05) / (2 * trials))
    return (
        "sampled run, not a support enumeration; rates are estimates",
        f"hoeffding 95% half-width {hw:.4f} at {trials} trials",
    )


# -- vectorized support evaluation --------------------------------------------


def _rows_all_set(words: np.ndarray, positions) -> np.ndarray:
    """Boolean row mask: every listed coordinate is 1.  The events of the
    experiments go through this name, so a tracer patched onto it counts
    them and not the grouped spaces' own uses of the same test."""
    return _all_set(words, positions)


def _kept_ids(vector: int, order: Sequence[int]) -> list[int]:
    return [eid for j, eid in enumerate(order) if (vector >> j) & 1]


def _first_kept(edge_sets, pos: Mapping[int, int], vector: int):
    """First edge set whose every edge is kept in the vector (~vector: dropped)."""
    for eids in edge_sets:
        mask = sum(1 << pos[e] for e in eids)
        if vector & mask == mask:
            return eids
    return None


_Run = namedtuple("_Run", "rows successes tallies witnesses")  # summed over blocks


def _fold(blocks, order: Sequence[int], verdict, table: bool = True, cap: int = 10) -> _Run:
    """Walk row blocks in order.  verdict(words) returns (ok, tallies, reason)
    for any word rows: a boolean array over them, name -> boolean array over
    them (each tally counts its true rows), and reason(i, vector) explaining
    failing row i.  The first `cap` failing rows, numbered across all
    blocks, become witnesses; no block is searched once `cap` are held.

    A row's verdict depends only on its kept pattern, so with `table` set,
    m = len(order) in 1..16 and a first block of at least 2^m rows (a walk of
    more than one block comes in 2^16-row blocks), verdict runs once on the
    table of all 2^m patterns (row i keeps the bits of i) and each block is
    answered by its pattern histogram; otherwise verdict runs on each block.
    """
    m = len(order)
    tabled = None  # decided by the first block
    rows = successes = 0
    tallies: Counter = Counter()
    witnesses = []
    for block in blocks:
        if tabled is None:
            tabled = table and 0 < m <= 16 and block.shape[0] >= 1 << m
            if tabled:
                ok, arrays, reason = verdict(np.arange(1 << m, dtype=np.uint64)[:, None])
        if tabled:
            pattern = block[:, 0].astype(np.intp)
            total = np.bincount(pattern, minlength=1 << m).__matmul__  # histogram . table
        else:
            ok, arrays, reason = verdict(block)
            total = np.count_nonzero
        successes += int(total(ok))
        for name, hits in arrays.items():
            tallies[name] += int(total(hits))
        if len(witnesses) < cap:
            failed = np.flatnonzero(~(ok[pattern] if tabled else ok))
            for i in failed[: cap - len(witnesses)].tolist():
                # the row's bits as one int: its table index when tabled
                vec = int.from_bytes(block[i].astype("<u8").tobytes(), "little")
                witnesses.append({"row": rows + i, "vector": vec, "kept": _kept_ids(vec, order),
                                  "reason": reason(vec if tabled else i, vec)})
        rows += block.shape[0]
    return _Run(rows, successes, tallies, tuple(witnesses))


def _report(
    g: Graph,
    run: _Run,
    *,
    theorem: str,
    constants: tuple,
    descriptor: dict,
    mode: str,
    seed: int,
    generator: str | None,
    rates: Mapping | None = None,
    extras: dict | None = None,
    deviations: tuple = (),
    notes: tuple = (),
) -> ExperimentReport:
    """One report from a folded run; rates holds the rates besides success."""
    spec = ExperimentSpec(
        generator=generator or f"custom(n={g.n},m={g.m})",
        theorem=theorem,
        constants=constants,
        space=descriptor,
        mode=mode,
        trials=None if mode == "enumerate" else run.rows,
        seed=None if mode == "enumerate" else seed,
    )
    return ExperimentReport(
        spec=spec,
        trials=run.rows,
        successes=run.successes,
        rates={"success": Fraction(run.successes, run.rows), **(rates or {})},
        failure_witnesses=run.witnesses,
        deviations=_deviation_lines(constants) + tuple(deviations),
        notes=_mode_notes(mode, run.rows) + tuple(notes),
        extras=extras,
    )


def _check_space_matches(g: Graph, space: SampleSpace) -> list[int]:
    order = g.edge_ids()
    if space.params.n != len(order):
        raise ValueError(
            f"space has {space.params.n} coordinates for {len(order)} edges"
        )
    return order


# -- union-bound oracle --------------------------------------------------------


def union_bound_component_floor(g: Graph, space: SampleSpace) -> Fraction:
    """Predicted floor for the component preservation rate.

    Components change exactly when some enumerated cut loses every edge.
    For one cut, the probability all its edges drop is at most the product
    of the min(k, |cut|) smallest per-edge drop probabilities, plus the
    space's independence defect delta (an event over <= k coordinates).
    Subtracting the sum over all distinct cut edge sets gives the floor;
    clamped at zero.  Exact rational.
    """
    order = _check_space_matches(g, space)
    return _union_bound_floor(g.enumerate_cuts(), order, space)


def _union_bound_floor(cuts, order: Sequence[int], space: SampleSpace) -> Fraction:
    """1 - sum over cuts of (product of its min(k, |cut|) smallest drop
    probabilities + delta), clamped at zero.  A cut's term depends only on
    which drops those are, so cuts are counted by the sorted ranks of their
    drops and each distinct product is formed once."""
    marg = space.coordinate_marginals()
    drops = sorted({1 - q for q in marg})
    rank = {q: r for r, q in enumerate(drops)}
    pos_rank = {eid: rank[1 - marg[j]] for j, eid in enumerate(order)}
    k = space.params.k
    delta = space.params.delta
    profiles = Counter(tuple(sorted(pos_rank[e] for e in eids)[:k]) for eids, _, _ in cuts)
    total_fail = Fraction(0)
    for profile, count in profiles.items():
        pr = Fraction(1)
        for r in profile:
            pr *= drops[r]
        total_fail += count * (pr + delta)
    floor = 1 - total_fail
    return floor if floor > 0 else Fraction(0)


# -- the experiments -----------------------------------------------------------


def _components_kept(g: Graph, order: Sequence[int], space):
    """The verdict that a row's kept edges leave the components of g intact,
    the union-bound floor and the cut list.  Cuts are listed when g is within
    Graph.enumerate_cuts' cap; a witness then names its first fully dropped
    cut, else the floor is 0.  No space (the all-ones row) has floor 1."""
    try:
        cuts = g.enumerate_cuts()
    except ValueError:  # past the cut enumeration cap
        cuts = None
    if space is None:
        floor = Fraction(1)
    else:
        floor = Fraction(0) if cuts is None else _union_bound_floor(cuts, order, space)
    pos = {eid: j for j, eid in enumerate(order)}

    def reason(i: int, vec: int) -> str:
        if cuts is None:
            return "component partition changed"
        eids = _first_kept((c for c, _, _ in cuts), pos, ~vec)
        return f"cut {sorted(eids)} fully dropped"

    def verdict(words):
        return g.component_counts(words) == g.component_count(), {}, reason

    return verdict, floor, cuts


def connectivity_experiment(
    g: Graph,
    space: SampleSpace,
    *,
    mode: str = "enumerate",
    trials: int | None = None,
    seed: int = 0,
    budget: int | None = None,
    generator: str | None = None,
) -> ExperimentReport:
    """Rate at which the kept subgraph preserves the components of g.

    For disconnected inputs success means the component partition is
    unchanged, not that the sample is connected: the kept subgraph has as
    many components as g.  When g is small enough to enumerate its cuts the
    report carries the cut count and the union-bound floor, and a witness
    names a fully dropped cut.
    """
    order = _check_space_matches(g, space)
    blocks = mode_blocks(space, mode, budget, trials, seed)
    verdict, floor, cuts = _components_kept(g, order, space)
    return _report(
        g, _fold(blocks, order, verdict),
        theorem="kept subgraph preserves components",
        constants=(
            _const("independence_order", _full_order(len(order)), space.params.k),
            _const("marginal", Fraction(1, 2), space.params.marginal),
            _const("independence_defect", 0, space.params.delta),
        ),
        descriptor=space.descriptor(),
        mode=mode,
        seed=seed,
        generator=generator,
        rates={"union_bound_floor": floor},
        extras={} if cuts is None else {"cut_count": len(cuts)},
    )


def cyclefree_experiment(
    g: Graph,
    space: SampleSpace,
    *,
    mode: str = "enumerate",
    trials: int | None = None,
    seed: int = 0,
    budget: int | None = None,
    generator: str | None = None,
) -> ExperimentReport:
    """Rates of acyclicity and of keeping at least a tenth of the edges.

    success = both at once (the existence claim is success rate > 0, which
    the caller asserts).  A kept edge set is acyclic when its graphic
    nullity is 0.  A witness names its first surviving cycle when the
    graph is small enough to list them.
    """
    order = _check_space_matches(g, space)
    blocks = mode_blocks(space, mode, budget, trials, seed)
    m = len(order)
    pos = {eid: j for j, eid in enumerate(order)}
    floor = -(-m // 10)  # >= m/10 edges, integer form
    cycles = functools.cache(g.enumerate_cycles)

    def verdict(words):
        big_enough = _row_popcounts(words) >= floor
        acyclic = _nullities(g, GRAPHIC, words) == 0

        def reason(i: int, vec: int) -> str:
            if acyclic[i]:
                return "fewer than the edge floor survived"
            try:
                return f"cycle {sorted(_first_kept(cycles(), pos, vec))} survived"
            except ValueError:  # past the cycle enumeration cap
                return "a cycle survived"

        return acyclic & big_enough, {"acyclic": acyclic, "enough_edges": big_enough}, reason

    run = _fold(blocks, order, verdict)
    return _report(
        g, run,
        theorem="kept subgraph is cycle-free and not too small",
        constants=(
            _const("independence_order", _full_order(m), space.params.k),
            _const("marginal", Fraction(1, 2), space.params.marginal),
            _const("independence_defect", Fraction(1, max(m, 2) ** 200), space.params.delta),
        ),
        descriptor=space.descriptor(),
        mode=mode,
        seed=seed,
        generator=generator,
        rates={
            "acyclic": Fraction(run.tallies["acyclic"], run.rows),
            "enough_edges": Fraction(run.tallies["enough_edges"], run.rows),
        },
        extras={"edge_floor": floor},
    )


def _window_check(size: int, ell: int, what: str) -> None:
    if not (ell <= size <= _window_end(ell)):
        raise ValueError(
            f"{what} size {size} outside the sampling window [{ell}, 1.01*{ell}]"
        )


def _unique_survival(
    g: Graph, family: str, target_edges, space: SampleSpace,
    mode: str, trials, seed: int, budget, generator,
) -> ExperimentReport:
    """Rate at which the chosen cut or cycle is fully kept and no other
    member of its family is.

    With the target kept, it is the only whole member of its family exactly
    when the kept edges have nullity 1 in the family's matroid: cographic
    for cuts, graphic for cycles.
    """
    order = _check_space_matches(g, space)
    target = frozenset(target_edges)
    if family == "cut":
        kind, members = COGRAPHIC, [eids for eids, _, _ in g.enumerate_cuts()]
    else:
        kind, members = GRAPHIC, g.enumerate_cycles()
    if target not in members:
        raise ValueError(f"the chosen edge set is not a {family} of the graph")
    ell = min(len(eids) for eids in members)
    _window_check(len(target), ell, family)

    blocks = mode_blocks(space, mode, budget, trials, seed)
    m = len(order)
    pos = {eid: j for j, eid in enumerate(order)}

    def verdict(words):
        kept_target = _rows_all_set(words, [pos[e] for e in sorted(target)])
        ok = np.zeros(words.shape[0], dtype=bool)
        ok[kept_target] = _nullities(g, kind, words[kept_target]) == 1

        def reason(i: int, vec: int) -> str:
            if not kept_target[i]:
                return f"chosen {family} lost an edge"
            rival = _first_kept((s for s in members if s != target), pos, vec)
            return f"rival {family} {sorted(rival)} also survived"

        return ok, {"target": kept_target}, reason

    run = _fold(blocks, order, verdict)
    log_m = _full_order(m) // 2  # ceil(log2 m)
    if family == "cut":
        k_full, scale, defect, size_key = 2 * math.ceil(_window_end(ell)), 10, 0, "min_cut_size"
    else:
        k_full, scale, defect, size_key = 2 * ell, 200, Fraction(1, max(m, 2) ** 500), "girth"
    return _report(
        g, run,
        theorem=f"chosen {family} survives alone",
        constants=(
            _const("independence_order", k_full, space.params.k),
            _const("marginal_exponent", math.ceil(scale * log_m / ell), space.params.p_log_inv),
            _const("independence_defect", defect, space.params.delta),
        ),
        descriptor=space.descriptor(),
        mode=mode,
        seed=seed,
        generator=generator,
        rates={"target_survives": Fraction(run.tallies["target"], run.rows)},
        extras={
            size_key: ell,
            "target_size": len(target),
            f"{family}_count": len(members),
        },
    )


def unique_cut_survival_experiment(
    g: Graph,
    cut_edges,
    space: SampleSpace,
    *,
    mode: str = "enumerate",
    trials: int | None = None,
    seed: int = 0,
    budget: int | None = None,
    generator: str | None = None,
) -> ExperimentReport:
    """Rate at which the chosen cut survives while every other cut loses
    an edge.

    The chosen edge set must be one of the graph's cut edge sets, with size
    inside the window [l, 1.01 l] for l the smallest cut cardinality.  Cut
    enumeration validates the target, so the graph must be small enough
    for it.
    """
    return _unique_survival(g, "cut", cut_edges, space, mode, trials, seed, budget, generator)


def unique_cycle_survival_experiment(
    g: Graph,
    cycle_edges,
    space: SampleSpace,
    *,
    mode: str = "enumerate",
    trials: int | None = None,
    seed: int = 0,
    budget: int | None = None,
    generator: str | None = None,
) -> ExperimentReport:
    """Rate at which the chosen cycle is fully kept and no other cycle is."""
    return _unique_survival(g, "cycle", cycle_edges, space, mode, trials, seed, budget, generator)


# -- sparsification pipeline ----------------------------------------------------


def _dyadic_floor(p: Fraction, max_level: int) -> int:
    """Level L with 2^-L <= p, smallest such (round the rate down)."""
    if p >= 1:
        return 0
    level = 0
    bound = Fraction(1)
    while bound > p:
        level += 1
        bound /= 2
        if level > max_level:
            raise ValueError(
                f"marginal quantization infeasible: rate {float(p):.3g} needs "
                f"level > {max_level}"
            )
    return level


def _rate_space(rates: Mapping, order: Sequence[int], k: int, max_level: int,
                mode: str, trials, seed: int, budget):
    """(levels, space, blocks, descriptor) for per-edge keep rates.

    Each rate is rounded down to 2^-level, and the space is an exact k-wise
    space whose coordinate i has marginal 2^-levels[i].  When every level is
    0 (all rates clamped to 1) the space is None and its one block is the
    single all-ones row.
    """
    m = len(order)
    levels = [_dyadic_floor(Fraction(rates[eid]), max_level) for eid in order]
    if sum(levels) == 0:
        descriptor = {"construction": "constant_ones", "n": m, "seed_bits": 0}
        return levels, None, iter((_pack_words(np.ones((1, m), dtype=np.uint8)),)), descriptor
    underlying = build_kwise(sum(levels), k * max(levels))
    space = group_heterogeneous(underlying, levels, k, Fraction(0))
    return levels, space, mode_blocks(space, mode, budget, trials, seed), space.descriptor()


def sparsify_experiment(
    g: Graph,
    k: int,
    epsilon: float,
    delta: float,
    *,
    rate_scale: float = 1.0,
    max_level: int = 20,
    mode: str = "enumerate",
    trials: int | None = None,
    seed: int = 0,
    budget: int | None = None,
    generator: str | None = None,
) -> ExperimentReport:
    """Leverage-proportional sampling with reweighting, checked spectrally.

    Per-edge keep rates min(1, w * Reff * s) are rounded down to dyadic
    2^-L so a k-wise space with heterogeneous marginals can realize them;
    kept edges are reweighted by w/p (p the rounded rate) and the sample
    passes when its quadratic form stays within (1 +- epsilon) of g's.
    Reports the pass rate, the kept-edge-count histogram, and the exact
    expected kept count for the linearity cross-check.
    """
    if g.n < 2 or not g.is_connected():
        raise ValueError("sparsification check expects a connected graph")
    order = g.edge_ids()
    m = len(order)
    table = leverage_scores(g)
    plan = sparsify_rates(g, table, k, epsilon, delta, rate_scale)
    levels, space, blocks, descriptor = _rate_space(
        plan.rates, order, k, max_level, mode, trials, seed, budget
    )
    rounded = {eid: Fraction(1, 1 << lv) for eid, lv in zip(order, levels)}

    checker = edge_form_checker(g, epsilon)
    wtilde = g.edge_record().floats * np.ldexp(1.0, levels)  # w / 2^-level, exactly

    kept = Counter()  # rows by kept-edge count; reports sort its keys as strings

    def verdict(block):
        kept.update(_row_popcounts(block).tolist())
        ok, lo, hi = checker.batch_verdicts(_unpack_words(block, m) * wtilde[None, :])

        def reason(i: int, vec: int) -> str:
            return f"quadratic form ratio [{lo[i]:.4f}, {hi[i]:.4f}] outside 1+-{epsilon}"

        return ok, {}, reason

    # block by block: a float verdict may round differently in another batch
    run = _fold(blocks, order, verdict, table=False)
    hist = {str(c): count for c, count in kept.items()}
    kept_total = sum(c * count for c, count in kept.items())
    marginals = [Fraction(1)] * m if space is None else space.coordinate_marginals()

    return _report(
        g, run,
        theorem="reweighted sample approximates the quadratic form",
        constants=(
            _const("oversample_scale", 1.0, rate_scale),
            _const("independence_order", _full_order(g.n), k),
        ),
        descriptor=descriptor,
        mode=mode,
        seed=seed,
        generator=generator,
        rates={
            "mean_kept_edges": Fraction(kept_total, run.rows),
            "expected_kept_edges": sum(marginals, Fraction(0)),
        },
        extras={
            "oversample_factor": repr(plan.s),
            "epsilon": repr(epsilon),
            "failure_budget": repr(delta),
            "target_pass_rate": repr(1.0 - 2.0 * delta),
            "rates_raw": {str(e): repr(plan.rates[e]) for e in order},
            "rates_rounded": {str(e): _rat(rounded[e]) for e in order},
            "kept_histogram": hist,
        },
        deviations=tuple(plan.flags),
        notes=("per-edge rates rounded down to dyadic marginals",),
    )


def reweight_then_connectivity(
    g: Graph,
    k: int,
    *,
    epsilon: float = 0.5,
    delta: float = 0.25,
    rate_scale: float = 1.0,
    max_level: int = 20,
    mode: str = "enumerate",
    trials: int | None = None,
    seed: int = 0,
    budget: int | None = None,
    generator: str | None = None,
) -> ExperimentReport:
    """End-to-end pipeline: weight the graph so leverage is spread, derive
    keep rates from the weighted leverage, sample k-wise, check components.

    The input must be unweighted and connected with minimum cut at least 2;
    a bridge forces a keep rate of 1 on itself and the guarantee gives
    nothing, so such inputs are rejected.
    """
    if g.n < 2:
        raise PreconditionError("pipeline needs at least 2 vertices")
    cut_value = g.min_cut().value
    if cut_value < 2:
        raise PreconditionError(
            "pipeline expects minimum cut >= 2 (got "
            f"{cut_value}); a bridge cannot be sampled away"
        )
    weighting = reweight_min_cut(g)
    gw = g.with_weights(weighting.weights)
    plan = sparsify_rates(gw, weighting.table, k, epsilon, delta, rate_scale)

    order = g.edge_ids()
    levels, space, blocks, descriptor = _rate_space(
        plan.rates, order, k, max_level, mode, trials, seed, budget
    )
    verdict, floor, _ = _components_kept(g, order, space)
    return _report(
        g, _fold(blocks, order, verdict),
        theorem="weighted rates keep the graph in one piece",
        constants=(
            _const("oversample_scale", 1.0, rate_scale),
            _const("independence_order", _full_order(len(order)), k),
        ),
        descriptor=descriptor,
        mode=mode,
        seed=seed,
        generator=generator,
        rates={"union_bound_floor": floor},
        extras={
            "weighting_levels": weighting.level_count,
            "weighting_delta": weighting.delta_param,
            "max_leverage": repr(weighting.max_leverage),
            "oversample_factor": repr(plan.s),
            "marginal_levels": {str(e): lv for e, lv in zip(order, levels)},
        },
        deviations=tuple(plan.flags),
    )


# -- distribution-level diagnostics ---------------------------------------------


@dataclass(frozen=True)
class ConditionalBiasReport:
    """How far conditioning on a survival event bends small events."""

    pr_condition: Fraction
    bound: Fraction | None  # 2*delta / Pr[condition]; None when Pr = 0
    worst_deviation: Fraction
    ok: bool  # every applicable event within the bound
    events: tuple  # (coords, applicable, pr_conditional, pr_reference, deviation)


def conditional_bias_check(
    space: SampleSpace,
    condition: Sequence[int],
    events: Sequence[Sequence[int]],
    budget: int | None = None,
) -> ConditionalBiasReport:
    """Exact check of the conditioning inequality on all-ones events.

    condition and each event are coordinate index sets required to be all 1.
    An event is applicable when |condition united with event| fits within the
    space's independence order; only applicable events are held to the
    2*delta / Pr[condition] bound.
    """
    marg = space.coordinate_marginals()
    cond = sorted(set(condition))
    events = [sorted(set(ev)) for ev in events]

    def verdict(words):
        # success is the condition; each event is tallied jointly with it
        cond_mask = _rows_all_set(words, cond)
        joint = {j: _rows_all_set(words, ev) & cond_mask for j, ev in enumerate(events)}
        return cond_mask, joint, None

    blocks = space.support_blocks(budget)
    run = _fold(blocks, range(space.params.n), verdict, cap=0)
    cond_count = run.successes
    pr_cond = Fraction(cond_count, run.rows)
    bound = None
    if cond_count:
        bound = 2 * space.params.delta / pr_cond

    rows = []
    worst = Fraction(0)
    ok = True
    for j, ev in enumerate(events):
        joint = run.tallies[j]
        pr_ref = Fraction(1)
        for c in ev:
            pr_ref *= marg[c]
        applicable = len(set(ev) | set(cond)) <= space.params.k and cond_count > 0
        pr_cond_ev = Fraction(joint, cond_count) if cond_count else Fraction(0)
        dev = abs(pr_cond_ev - pr_ref)
        if applicable:
            worst = max(worst, dev)
            if dev > bound:
                ok = False
        rows.append((tuple(ev), applicable, pr_cond_ev, pr_ref, dev))
    return ConditionalBiasReport(
        pr_condition=pr_cond,
        bound=bound,
        worst_deviation=worst,
        ok=ok,
        events=tuple(rows),
    )


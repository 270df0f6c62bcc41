"""Recursive edge reweighting tying minimum cuts to leverage scores.

The pipeline clusters a unit-weight multigraph into parts of low effective
resistance diameter, assigns weight 1/Delta^i to edges inside level-i parts,
contracts, and repeats until one vertex remains.  Under the produced weights
the maximum leverage score is small whenever the minimum cut is large, and
conversely a weighting with all leverage scores <= 1/c certifies min cut >= c.

Clustering is greedy ball growing in the (global) effective resistance
metric; each attempted radius keeps only the connected piece around the seed
vertex, and the radius with the least crossing weight wins.  The contract is
verified after the fact: crossing weight at most half the total, induced part
diameters within alpha * n / w(E).  Failing that, alpha doubles and the pass
reruns.  alpha is always measured from what was achieved, never assumed.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import Graph
from .samplespace import _as_int
from .spectral import ResistanceTable, leverage_scores, resistance_diameter, resistance_matrix

ALPHA0 = 1.0
MAX_ALPHA_DOUBLINGS = 40
_SLACK = 1e-9


@dataclass(frozen=True)
class ClusterPartition:
    parts: tuple  # tuple of sorted vertex tuples
    crossing_weight: Fraction
    max_part_rdiam: float
    alpha_used: float  # the alpha the successful attempt ran with
    alpha_eff: float  # smallest alpha the result actually satisfies

    @property
    def h(self) -> int:
        return len(self.parts)


def _grow_partition(g: Graph, R: np.ndarray, A: np.ndarray, rho: float, rdiam) -> list[tuple]:
    """Greedy resistance-ball cover; every part induces a connected subgraph.

    Candidate balls are filtered by their induced-subgraph diameter, not the
    global-metric radius: a ball torn out of its surroundings loses parallel
    paths, so its induced diameter can far exceed the radius (path carved from
    a cycle).  Only balls whose induced diameter fits under rho compete; the
    least crossing weight wins, ties prefer the larger part (all-singleton
    covers cross too much), then the smaller radius.  A seed's balls are
    nested prefixes of the free vertices by distance, so its piece grows once
    over the ascending radii, from new ball vertices that touch it; x joining
    adds deg(x) - 2 link(x) (link: weight to the piece) to the crossing, exact
    over A = g.scaled_adjacency()[0].  One seed's keys (crossing, -size,
    radius) never tie: the first in order whose ball fits, by rdiam(sorted
    tuple), is the unpruned search's part, and no losing ball is solved.
    """
    nbrs = [{y for y, _ in nb} for nb in g.adjacency().values()]
    deg = A.sum(axis=1).tolist()  # A's diagonal is 0: loops are dropped
    free = np.ones(g.n, dtype=bool)
    parts = []
    while free.any():
        v0 = int(np.argmax(free))  # smallest free vertex
        row = R[v0].tolist()
        order = sorted(np.flatnonzero(free).tolist(), key=row.__getitem__)
        piece, ball = {v0: None}, set()  # ball is order[:len(ball)]; piece in joining order
        link, cross, keys = A[v0].copy(), deg[v0], []
        for r in sorted({row[x] for x in order if row[x] <= rho + _SLACK}):
            new = order[len(ball) : bisect.bisect_right(order, r + _SLACK, key=row.__getitem__)]
            ball.update(new)
            stack = [x for x in new if any(y in piece for y in nbrs[x])]
            while stack:
                z = stack.pop()
                if z not in piece:
                    piece[z] = None
                    cross += deg[z] - 2 * int(link[z])
                    link += A[z]
                    stack.extend(y for y in nbrs[z] if y in ball and y not in piece)
            keys.append((cross, -len(piece), r))
        for _, neg_size, _ in sorted(keys):
            part = tuple(sorted(list(piece)[:-neg_size]))
            if len(part) == 1 or rdiam(part) <= rho + _SLACK:  # a vertex has diameter 0
                break
        parts.append(part)
        free[list(part)] = False
    return parts


def cluster_low_rdiam(
    g: Graph,
    alpha: float = ALPHA0,
    max_doublings: int = MAX_ALPHA_DOUBLINGS,
) -> ClusterPartition:
    """Partition with small crossing weight and low part resistance diameters.

    Guarantees (verified, not assumed): crossing weight <= w(E)/2, and each
    part's induced resistance diameter <= alpha_used * n / w(E).  alpha
    doubles until both hold; the single-part partition satisfies them once
    alpha * n / w(E) reaches the graph's own diameter, so termination only
    needs enough doublings.  alpha must be positive and finite.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, not {alpha!r}")
    max_doublings = _as_int(max_doublings, "max_doublings")
    if g.n == 0:
        raise ValueError("empty graph")
    if not g.is_connected():
        raise ValueError("clustering needs a connected graph")
    if g.n == 1:
        return ClusterPartition(
            parts=((0,),),
            crossing_weight=Fraction(0),
            max_part_rdiam=0.0,
            alpha_used=alpha,
            alpha_eff=0.0,
        )
    w_total = g.total_weight()
    if w_total == 0:
        raise ValueError("total weight is zero")
    R = resistance_matrix(g)
    A, scale = g.scaled_adjacency()
    # equal balls recur across radii and alpha doublings; solve each once
    rdiam = functools.cache(lambda part: resistance_diameter(g, part))
    a = alpha
    for _ in range(max_doublings + 1):
        rho = a * g.n / float(w_total)
        parts = _grow_partition(g, R, A, rho, rdiam)
        inside = sum(A[np.ix_(p, p)].sum() for p in parts)
        crossing = Fraction(int(A.sum() - inside) // 2, scale)
        max_rdiam = max((rdiam(p) for p in parts if len(p) > 1), default=0.0)
        if crossing <= w_total / 2 and max_rdiam <= rho + _SLACK:
            return ClusterPartition(
                parts=tuple(parts),
                crossing_weight=crossing,
                max_part_rdiam=max_rdiam,
                alpha_used=a,
                alpha_eff=max_rdiam * float(w_total) / g.n,
            )
        a *= 2
    raise RuntimeError(f"no valid clustering within {max_doublings} alpha doublings")


@dataclass(frozen=True)
class ConverseReport:
    ok: bool
    c: float  # certified lower bound, 1 / max leverage
    min_cut_value: Fraction
    witness_side: frozenset | None  # a violating cut, present only on failure


@dataclass(frozen=True)
class WeightingResult:
    weights: dict  # eid -> Fraction 1/Delta^level
    levels: dict  # eid -> level index
    delta_param: int
    max_leverage: float
    weight_ratio: Fraction
    alpha_eff: float  # max over levels of the achieved clustering alpha
    level_alphas: tuple
    level_edge_counts: tuple  # |E_i| entering each level
    level_min_cuts: tuple  # unit-weight min cut of each level graph
    level_partitions_original: tuple  # per level: parts as original-vertex tuples
    table: ResistanceTable  # leverage table of the reweighted graph

    @property
    def level_count(self) -> int:
        return len(self.level_alphas)

    def to_csv(self) -> str:
        lines = ["edge,level,weight_num,weight_den,leverage"]
        for eid in sorted(self.weights):
            w = self.weights[eid]
            lines.append(
                f"{eid},{self.levels[eid]},{w.numerator},{w.denominator},"
                f"{self.table.leverage(eid)!r}"
            )
        return "\n".join(lines) + "\n"

    def summary_json(self) -> str:
        return json.dumps(
            {
                "delta": self.delta_param,
                "levels": self.level_count,
                "alpha_eff": self.alpha_eff,
                "max_leverage": self.max_leverage,
                "c": (1.0 / self.max_leverage) if self.max_leverage > 0 else None,
            },
            sort_keys=True,
        )


def auto_delta(n: int, m: int) -> int:
    """Default contraction base: 2n * ceil(ln m), at least 2.

    Large enough that (1 + n/Delta)^levels stays below 2 across the at most
    ceil(log2 m) + 1 levels the halving argument allows.
    """
    if m <= 1:
        return 2
    return max(2, 2 * n * math.ceil(math.log(m)))


def reweight_min_cut(g: Graph, delta_param="auto") -> WeightingResult:
    """Assign weights 1/Delta^i by recursive cluster-and-contract.

    Input must be connected with unit weights.  Each level clusters the
    current unit multigraph, gives the current weight to edges inside parts,
    and contracts the parts; crossing edges carry on to the next level.  The
    edge count at least halves per level, and the unit min cut never drops
    under contraction (both asserted).
    """
    if any(w != 1 for *_, w in g.edges()):
        raise ValueError("reweighting expects unit input weights")
    if not g.is_connected():
        raise ValueError("reweighting expects a connected graph")
    delta = auto_delta(g.n, g.m) if delta_param == "auto" else _as_int(delta_param, "delta_param")
    if delta < 2:
        raise ValueError("delta_param must be >= 2")

    weights: dict[int, Fraction] = {}
    levels: dict[int, int] = {}
    level_alphas = []
    level_edge_counts = []
    level_min_cuts = []
    level_partitions_original = []

    cur = g
    to_orig = [frozenset([v]) for v in range(g.n)]
    level = 0
    prev_cut = None
    while cur.n > 1 or cur.m > 0:
        level_edge_counts.append(cur.m)
        cut_val = cur.min_cut().value if cur.n > 1 else Fraction(0)
        level_min_cuts.append(cut_val)
        if prev_cut is not None and cut_val < prev_cut:
            raise AssertionError(
                f"min cut dropped from {prev_cut} to {cut_val} at level {level}"
            )
        prev_cut = cut_val

        part_info = cluster_low_rdiam(cur)
        level_alphas.append(part_info.alpha_eff)
        nxt, vmap = cur.contract_partition(part_info.parts)
        if nxt.m > cur.m // 2:
            raise AssertionError(
                f"edge count {cur.m} -> {nxt.m} did not halve at level {level}"
            )
        w_level = Fraction(1, delta**level)
        for eid, u, v, _ in cur.edges():
            if vmap[u] == vmap[v]:
                weights[eid] = w_level
                levels[eid] = level
        # sorted parts are in order of smallest vertex, as nxt numbers them
        to_orig = [frozenset().union(*(to_orig[v] for v in p)) for p in sorted(part_info.parts)]
        level_partitions_original.append(tuple(tuple(sorted(p)) for p in to_orig))
        cur = nxt
        level += 1

    reweighted = g.with_weights(weights)
    table = leverage_scores(reweighted)
    w_vals = list(weights.values())
    ratio = (max(w_vals) / min(w_vals)) if w_vals else Fraction(1)
    return WeightingResult(
        weights=weights,
        levels=levels,
        delta_param=delta,
        max_leverage=table.max_leverage(),
        weight_ratio=ratio,
        alpha_eff=max(level_alphas) if level_alphas else 0.0,
        level_alphas=tuple(level_alphas),
        level_edge_counts=tuple(level_edge_counts),
        level_min_cuts=tuple(level_min_cuts),
        level_partitions_original=tuple(level_partitions_original),
        table=table,
    )


def verify_converse(g: Graph, weights, c: float | None = None) -> ConverseReport:
    """Check the cut direction: leverage scores <= 1/c force min cut >= c.

    The leverage scores are computed under the supplied weights; the min cut
    is taken on the graph with unit weights (the statement being certified is
    about edge counts).  With c omitted, it defaults to 1 / max leverage.
    """
    table = leverage_scores(g.with_weights(weights))
    max_lev = table.max_leverage()
    if max_lev <= 0:
        raise ValueError("graph has no edges")
    if c is None:
        c = 1.0 / max_lev
    elif max_lev > 1.0 / c + _SLACK:
        raise ValueError(
            f"precondition violated: max leverage {max_lev} exceeds 1/c = {1.0 / c}"
        )
    cut = g.with_unit_weights().min_cut()
    ok = float(cut.value) >= c - _SLACK
    return ConverseReport(
        ok=ok,
        c=c,
        min_cut_value=cut.value,
        witness_side=None if ok else cut.side,
    )

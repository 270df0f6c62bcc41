"""Test-only reference oracles: exhaustive or enumerative, slow and simple.

Each one computes what a library routine computes by a different method, so
the tests can require the two to agree.
"""

import functools
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, islice
from math import comb

import numpy as np

from edgewise.gf2 import field
from edgewise.graph import Graph, MinCut
from edgewise.reweight import _SLACK, ALPHA0, MAX_ALPHA_DOUBLINGS, ClusterPartition
from edgewise.samplespace import (
    GroupedSpace,
    IndependenceReport,
    PolynomialSpace,
    SampleSpace,
    SmallBiasSpace,
)
from edgewise.spectral import KERNEL_REL_TOL

_WORD = 64


def vector(space: SampleSpace, seed: int) -> int:
    """Support vector of one seed as an int (bit i = coordinate i), by scalar
    field arithmetic: an independent reference for support and sample rows."""
    if isinstance(space, PolynomialSpace):
        # seed bit j * r + b is bit b of coefficient j; output i is the low
        # bit of the polynomial evaluated at the field element encoded as i
        f = field(space.field_bits)
        r = space.field_bits
        coeffs = [(seed >> (j * r)) & ((1 << r) - 1) for j in range(space.params.k)]
        out = 0
        for i in range(space.params.n):
            value, power = 0, 1
            for c in coeffs:
                value ^= f.mul(c, power)
                power = f.mul(power, i)
            out |= (value & 1) << i
        return out
    if isinstance(space, SmallBiasSpace):
        a = space.half_bits
        x, state = seed >> a, seed & ((1 << a) - 1)
        # bit i = low bit of x^i * y
        f = field(a)
        out = 0
        for i in range(space.params.n):
            out |= (state & 1) << i
            state = f.mul(state, x)
        return out
    if isinstance(space, GroupedSpace):
        base = vector(space.underlying, seed)
        out = 0
        for i, grp in enumerate(space.groups):
            bit = int(all((base >> p) & 1 for p in grp))
            out |= (bit ^ space.params.complemented) << i
        return out
    raise TypeError(f"no reference for {type(space).__name__}")


def word_ints(words) -> list[int]:
    """Rows of a uint64 word matrix as ints (bit i = coordinate i)."""
    out = [0] * len(words)
    for j in range(words.shape[1] - 1, -1, -1):
        out = [(v << _WORD) | w for v, w in zip(out, words[:, j].tolist())]
    return out


def support_ints(space: SampleSpace, budget: int | None = None) -> list[int]:
    """The support as ints, seed order."""
    return word_ints(space.support_words(budget))


def enumerated_independence(
    space: SampleSpace,
    k_check: int | None = None,
    subset_cap: int | None = None,
    budget: int | None = None,
) -> IndependenceReport:
    """verify_independence by counting patterns over the enumerated support.

    Subsets come in the same order (combinations, stride-sampled above
    subset_cap), and worst_subset is the first one that attains max_tv.
    """
    params = space.params
    k_eff = params.k if k_check is None else k_check
    size = min(k_eff, params.n)
    words = space.support_words(budget)
    total = words.shape[0]
    cols = np.empty((params.n, total), dtype=np.int64)
    for p in range(params.n):
        w, off = divmod(p, _WORD)
        cols[p] = ((words[:, w] >> np.uint64(off)) & np.uint64(1)).astype(np.int64)
    marginals = space.coordinate_marginals()

    combos = combinations(range(params.n), size)
    n_subsets = comb(params.n, size)
    if subset_cap is not None and n_subsets > subset_cap:
        combos = islice(combos, 0, None, -(-n_subsets // subset_cap))

    max_tv = Fraction(0)
    worst: tuple[int, ...] = ()
    tested = 0
    for subset in combos:
        tested += 1
        proj = np.zeros(total, dtype=np.int64)
        for b, p in enumerate(subset):
            proj |= cols[p] << b
        counts = np.bincount(proj, minlength=1 << size)
        tv = Fraction(0)
        for z in range(1 << size):
            ref = Fraction(1)
            for b, p in enumerate(subset):
                ref *= marginals[p] if (z >> b) & 1 else 1 - marginals[p]
            tv += abs(Fraction(int(counts[z]), total) - ref)
        tv /= 2
        if tv > max_tv:
            max_tv = tv
            worst = subset
    return IndependenceReport(max_tv=max_tv, worst_subset=worst, subsets_tested=tested)


def brute_force_min_cut(g: Graph) -> MinCut:
    """Reference minimum cut by exhausting bipartitions (small graphs only)."""
    if g.n < 2:
        raise ValueError("min cut needs at least 2 vertices")
    if g.n > 20:
        raise ValueError("brute force capped at 20 vertices")
    best: tuple[Fraction, tuple] | None = None
    verts = list(range(g.n))
    for bits in range(1 << (g.n - 1)):
        side = {verts[0]}
        for i in range(1, g.n):
            if (bits >> (i - 1)) & 1:
                side.add(verts[i])
        if len(side) == g.n:
            continue
        value = g.cut_weight(side)
        cand = (value, g._canon_side(side))
        if best is None or cand < best:
            best = cand
    value, side_t = best
    side = frozenset(side_t)
    return MinCut(value=value, side=side, edge_ids=g.crossing_edges(side))


def fraction_min_cut(g: Graph) -> MinCut:
    """Reference minimum cut: Stoer-Wagner over Fraction dicts, one phase at a
    time, with the same start, tie-breaks, merges and canonical side as the
    library's dense integer sweep, so the whole (value, side, edge_ids)
    triple must agree."""
    if g.n < 2:
        raise ValueError("min cut needs at least 2 vertices")
    comps = g.components()
    if len(comps) > 1:
        candidates = [(Fraction(0), comp) for comp in comps]
    else:
        candidates = _fraction_sw_candidates(g)
    value, side_t = min((value, g._canon_side(side)) for value, side in candidates)
    side = frozenset(side_t)
    return MinCut(value=value, side=side, edge_ids=g.crossing_edges(side))


def _fraction_sw_candidates(g: Graph):
    """Cut-of-the-phase candidates of a connected graph."""
    weights: dict[int, dict[int, Fraction]] = {v: defaultdict(Fraction) for v in range(g.n)}
    for _, u, v, w in g.edges():
        weights[u][v] += w
        weights[v][u] += w
    groups = {v: frozenset([v]) for v in range(g.n)}
    active = list(range(g.n))
    while len(active) > 1:
        start = active[0]
        in_a = {start}
        order = [start]
        conn: dict[int, Fraction] = defaultdict(Fraction)
        for x, wx in weights[start].items():
            conn[x] += wx
        while len(order) < len(active):
            pick = min(
                (x for x in active if x not in in_a),
                key=lambda x: (-conn[x], x),
            )
            order.append(pick)
            in_a.add(pick)
            for y, wy in weights[pick].items():
                if y not in in_a:
                    conn[y] += wy
        t = order[-1]
        s = order[-2]
        yield sum(weights[t].values(), Fraction(0)), groups[t]
        # merge t into s
        groups[s] = groups[s] | groups[t]
        for y, wy in weights[t].items():
            if y == s:
                continue
            weights[s][y] += wy
            weights[y][s] += wy
            del weights[y][t]
        weights[s].pop(t, None)
        del weights[t]
        active.remove(t)


def is_simple_cycle(g: Graph, eids) -> bool:
    """True when the edge subset forms one connected, all-degree-2 subgraph."""
    eids = set(eids)
    if len(eids) < 2:
        return False
    deg: dict[int, int] = defaultdict(int)
    for eid in eids:
        u, v, _ = g.edge(eid)
        deg[u] += 1
        deg[v] += 1
    if any(d != 2 for d in deg.values()):
        return False
    touched = sorted(deg)
    sub, vmap = g.induced_subgraph(touched)
    sub = sub.keep_edges(eids & set(sub.edge_ids()))
    if sub.m != len(eids):
        return False
    return sub.is_connected()


def brute_force_cycles(g: Graph, max_edges: int = 14):
    """All simple cycles by subset exhaustion (tiny graphs only)."""
    if g.m > max_edges:
        raise ValueError(f"subset exhaustion capped at {max_edges} edges")
    ids = g.edge_ids()
    out = []
    for size in range(2, g.m + 1):
        for sub in combinations(ids, size):
            if is_simple_cycle(g, sub):
                out.append(frozenset(sub))
    return sorted(out, key=lambda c: (len(c), tuple(sorted(c))))


def loop_laplacian(g: Graph) -> np.ndarray:
    """Dense Laplacian by four float updates per edge, edges in id order."""
    L = np.zeros((g.n, g.n))
    for _, u, v, w in g.edges():
        wf = float(w)
        L[u, u] += wf
        L[v, v] += wf
        L[u, v] -= wf
        L[v, u] -= wf
    return L


def loop_resistances(g: Graph) -> np.ndarray:
    """Pairwise effective resistances from loop_laplacian, by the library's
    float steps: eigh, the kernel check against the component count, the
    spectral pseudoinverse (vecs * inv) @ vecs.T, then diag sums."""
    vals, vecs = np.linalg.eigh(loop_laplacian(g))
    top = max(float(vals[-1]), 0.0) if g.n else 0.0
    tol = KERNEL_REL_TOL * top if top > 0 else KERNEL_REL_TOL
    kernel_dim = int(np.sum(np.abs(vals) <= tol))
    n_comp = g.component_count()
    if kernel_dim != n_comp:
        raise RuntimeError(f"Laplacian kernel dimension {kernel_dim} != component count {n_comp}")
    inv = np.zeros_like(vals)
    inv[kernel_dim:] = 1.0 / vals[kernel_dim:]
    P = (vecs * inv) @ vecs.T
    d = np.diag(P)
    return d[:, None] + d[None, :] - 2.0 * P


def induced_resistance_diameter(g: Graph, part) -> float:
    """Resistance diameter of the Graph that g.induced_subgraph(part) builds."""
    sub, _ = g.induced_subgraph(part)
    if sub.n <= 1:
        return 0.0
    if not sub.is_connected():
        raise ValueError("induced subgraph is disconnected")
    return float(loop_resistances(sub).max())


def greedy_partition_reference(
    g: Graph,
    alpha: float = ALPHA0,
    max_doublings: int = MAX_ALPHA_DOUBLINGS,
    solve=induced_resistance_diameter,
) -> ClusterPartition:
    """cluster_low_rdiam without pruning: every candidate ball that is not a
    singleton has its diameter solved (once per distinct ball, memoized
    across radii and doublings), by solve(g, part) on an induced Graph, and
    every crossing weight is a Fraction sum over a rescan of all edges."""
    if not g.is_connected() or g.n < 2:
        raise ValueError("the reference needs a connected graph on 2+ vertices")
    w_total = g.total_weight()
    R = loop_resistances(g)
    rdiam = functools.cache(lambda part: solve(g, part))

    def crossing(part) -> Fraction:
        return sum(
            (w for _, u, v, w in g.edges() if (u in part) != (v in part)), Fraction(0)
        )

    adj = g.adjacency()
    a = alpha
    for _ in range(max_doublings + 1):
        rho = a * g.n / float(w_total)
        unassigned = set(range(g.n))
        parts = []
        while unassigned:
            v0 = min(unassigned)
            radii = sorted({float(R[v0, u]) for u in unassigned if R[v0, u] <= rho + _SLACK})
            best = None  # (crossing weight, -part size, radius, part)
            for r in radii:
                ball = {u for u in unassigned if R[v0, u] <= r + _SLACK}
                part = {v0}
                stack = [v0]
                while stack:
                    for y, _ in adj[stack.pop()]:
                        if y in ball and y not in part:
                            part.add(y)
                            stack.append(y)
                if len(part) > 1 and rdiam(tuple(sorted(part))) > rho + _SLACK:
                    continue
                cand = (crossing(part), -len(part), r, tuple(sorted(part)))
                if best is None or cand < best:
                    best = cand
            parts.append(best[3])
            unassigned -= set(best[3])
        part_of = {v: i for i, p in enumerate(parts) for v in p}
        cross = sum(
            (w for _, u, v, w in g.edges() if part_of[u] != part_of[v]), Fraction(0)
        )
        max_rdiam = max(rdiam(p) for p in parts)
        if cross <= w_total / 2 and max_rdiam <= rho + _SLACK:
            return ClusterPartition(
                parts=tuple(parts),
                crossing_weight=cross,
                max_part_rdiam=max_rdiam,
                alpha_used=a,
                alpha_eff=max_rdiam * float(w_total) / g.n,
            )
        a *= 2
    raise RuntimeError(f"no valid clustering within {max_doublings} alpha doublings")


def label_propagation_counts(g: Graph, words, chunk: int = 1 << 15) -> np.ndarray:
    """Component counts per word row by min-label propagation.

    Each vertex starts with its own label and every kept edge lowers both
    endpoints to the smaller one.  A dropped edge is an all-ones mask, so each
    update is min(lab[u], lab[v] | drop).  Sweeps alternate direction until no
    label changes; a component then has exactly one vertex still holding its
    own label.  Bits at or beyond m are ignored.
    """
    words = np.asarray(words, dtype=np.uint64)
    rows = words.shape[0]
    ends = [(u, v) for _, u, v, _ in g.edges()]
    dtype = np.min_scalar_type(max(g.n - 1, 0))
    ids = np.arange(g.n, dtype=dtype)[:, None]
    out = np.empty(rows, dtype=np.int64)
    for lo in range(0, rows, chunk):
        block = words[lo : lo + chunk].astype("<u8")
        size = block.shape[0]
        octets = np.ascontiguousarray(block.view(np.uint8).T)  # row i: bits 8i..8i+7
        drop = np.empty((g.m, size), dtype=dtype)
        for j in range(g.m):
            np.bitwise_and(octets[j >> 3] >> (j & 7), 1, out=drop[j])
        drop -= 1  # kept: 0, dropped: all ones
        lab = np.repeat(ids, size, axis=1)
        tmp = np.empty(size, dtype=dtype)
        total = -1
        order = list(enumerate(ends))
        while True:
            for j, (u, v) in order:
                np.bitwise_or(lab[u], drop[j], out=tmp)
                np.minimum(lab[v], tmp, out=lab[v])
                np.bitwise_or(lab[v], drop[j], out=tmp)
                np.minimum(lab[u], tmp, out=lab[u])
            now = int(lab.sum(dtype=np.int64))
            if now == total:
                break
            total = now
            order.reverse()
        out[lo : lo + chunk] = (lab == ids).sum(axis=0)
    return out


def loop_enumerate_cuts(g: Graph, max_vertices: int = 20):
    """Graph.enumerate_cuts by one crossing_edges scan and one Fraction sum
    per side, deduplicated by edge set (first side in bits order kept), and
    sorted by (Fraction value, sorted side)."""
    if g.n > max_vertices:
        raise ValueError(f"cut enumeration capped at {max_vertices} vertices")
    out: dict[frozenset, tuple[Fraction, frozenset]] = {}
    for comp in g.components():
        if len(comp) < 2:
            continue
        pin, rest = comp[0], comp[1:]
        for bits in range(1 << len(rest)):
            if bits == (1 << len(rest)) - 1:
                continue  # side == whole component
            side = {pin}
            for i, v in enumerate(rest):
                if (bits >> i) & 1:
                    side.add(v)
            eids = g.crossing_edges(side)
            if eids in out:
                continue
            value = sum((g.weight(e) for e in eids), Fraction(0))
            out[eids] = (value, frozenset(side))
    return sorted(
        ((eids, side, value) for eids, (value, side) in out.items()),
        key=lambda t: (t[2], tuple(sorted(t[1]))),
    )


def loop_union_bound_floor(cuts, order, space: SampleSpace) -> Fraction:
    """The union-bound floor by one Fraction product per cut."""
    pos = {eid: j for j, eid in enumerate(order)}
    marg = space.coordinate_marginals()
    k = space.params.k
    total_fail = Fraction(0)
    for eids, _, _ in cuts:
        drops = sorted(1 - marg[pos[e]] for e in eids)[: min(k, len(eids))]
        pr = Fraction(1)
        for q in drops:
            pr *= q
        total_fail += pr + space.params.delta
    floor = 1 - total_fail
    return floor if floor > 0 else Fraction(0)


def _reach_labels(n: int, edges) -> tuple:
    """Per vertex, the smallest vertex it reaches over the (u, v) pairs, by search."""
    adj: dict[int, list[int]] = defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    label = [-1] * n
    for root in range(n):
        if label[root] < 0:
            label[root] = root
            stack = [root]
            while stack:
                for y in adj[stack.pop()]:
                    if label[y] < 0:
                        label[y] = root
                        stack.append(y)
    return tuple(label)


def _acyclic(g: Graph, eids) -> bool:
    """No cycle among the edges: a search meets a seen vertex only through
    the edge it came by (a parallel pair is a cycle)."""
    adj: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for eid in eids:
        u, v, _ = g.edge(eid)
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    seen: set[int] = set()
    for root in range(g.n):
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, None)]
        while stack:
            x, via = stack.pop()
            for y, eid in adj[x]:
                if eid == via:
                    continue
                if y in seen:
                    return False
                seen.add(y)
                stack.append((y, eid))
    return True


def brute_force_ranks(g: Graph, kind: str, given=frozenset()) -> dict[frozenset, int]:
    """Rank of every set S of edges outside `given`: the size of the largest
    X within S such that X with `given` is a forest ("graphic") or leaves the
    components of g when removed ("cographic").  By subset exhaustion with
    graph search, m <= 10; `given` must itself be independent."""
    if g.m > 10:
        raise ValueError("rank exhaustion capped at 10 edges")
    whole = _reach_labels(g.n, [g.edge(e)[:2] for e in g.edge_ids()])

    def independent(X) -> bool:
        if kind == "graphic":
            return _acyclic(g, X)
        rest = [g.edge(e)[:2] for e in g.edge_ids() if e not in X]
        return _reach_labels(g.n, rest) == whole

    ids = [e for e in g.edge_ids() if e not in given]
    ranks: dict[frozenset, int] = {}
    for size in range(len(ids) + 1):
        for combo in combinations(ids, size):
            S = frozenset(combo)
            if independent(S | given):
                ranks[S] = size
            else:
                ranks[S] = max(ranks[S - {e}] for e in S)  # empty S: `given` dependent
    return ranks

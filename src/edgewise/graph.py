"""Weighted multigraphs with stable edge identifiers.

Graphs are immutable; surgery operations (contract, delete, subdivide,
duplicate) return new graphs.  Edge ids survive contraction and deletion so
that sampling decisions indexed by edge id stay meaningful across minors.
Self-loops are dropped on construction; a dropped loop still consumes its id.

Vertices are 0-based ints internally.  The text format is 1-based:

    n m
    u v [w]

with one edge per line in id order (ids become 1..m on read).  Weights are
exact rationals, written as "3" or "3/2".  The JSON form preserves edge ids.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .samplespace import _WORD, _as_int, _descriptor_field, _exact_dtype

_CHUNK = 1 << 15  # most rows per component-count block
_ONE = Fraction(1)


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.count = n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.count -= 1
        return True


@dataclass(frozen=True)
class MinCut:
    value: Fraction
    side: frozenset
    edge_ids: frozenset


@dataclass(frozen=True)
class _Elimination:
    """Vertex elimination schedule; vertices are named by elimination position.

    dtype and words: the mask of one vertex is `words` integers of `dtype`,
    bit p of the mask (word p // bits, bit p % bits) standing for position p.
    ends: per edge, in edge-id order, its (earlier, later) endpoint positions.
    fills: (i, later, word, shift, reach) for each position i with later
    neighbours in the filled graph: `later` lists them ascending, word and
    shift locate each one's bit, and reach is the (words, 1) mask of them all.
    """

    dtype: np.dtype
    words: int
    ends: tuple
    fills: tuple


def _elimination_schedule(n: int, ends) -> _Elimination:
    """Minimum-degree elimination order (ties to the smaller vertex), its
    filled later-neighbour lists, and the edges relabelled by position."""
    nbrs = [set() for _ in range(n)]
    for u, v in ends:
        nbrs[u].add(v)
        nbrs[v].add(u)
    alive = set(range(n))
    order, later = [], []
    while alive:
        v = min(alive, key=lambda x: (len(nbrs[x]), x))
        alive.remove(v)
        order.append(v)
        later.append(nbrs[v])
        for x in nbrs[v]:
            nbrs[x] |= nbrs[v]
            nbrs[x] -= {x, v}
    pos = {v: p for p, v in enumerate(order)}
    bits = 8
    while bits < min(n, _WORD):
        bits *= 2
    words = -(-n // bits)
    dtype = np.dtype(f"uint{bits}")
    fills = []
    for i, nb in enumerate(later):
        if nb:
            xs = sorted(pos[x] for x in nb)
            reach = sum(1 << x for x in xs)
            fills.append((
                i, xs,
                np.array([x // bits for x in xs], dtype=np.intp),
                np.array([x % bits for x in xs], dtype=dtype)[:, None],
                np.array([(reach >> (bits * w)) & ((1 << bits) - 1) for w in range(words)],
                         dtype=dtype)[:, None],
            ))
    return _Elimination(
        dtype=dtype,
        words=words,
        ends=tuple(tuple(sorted((pos[u], pos[v]))) for u, v in ends),
        fills=tuple(fills),
    )


def _row_lists(matrix: np.ndarray, labels=None) -> list[list]:
    """Per row of a boolean matrix, its set columns ascending (or their labels)."""
    rows, cols = np.nonzero(matrix)
    flat = (cols if labels is None else labels[cols]).tolist()
    stops = np.cumsum(np.bincount(rows, minlength=matrix.shape[0])).tolist()
    return [flat[a:b] for a, b in zip([0] + stops, stops)]


def _as_fraction(x, what: str) -> Fraction:
    """x as an exact Fraction >= 0, from a number or a rational string ("3/2")."""
    try:
        x = Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ValueError(f"{what} must be a number or a rational string, not {x!r}") from None
    if x < 0:
        raise ValueError(f"{what} must be >= 0, not {x}")
    return x


def _checked(n: int, items):
    """Yield (id, u, v, w) of each (id, (u, v) or (u, v, w)) item, checked
    against n vertices; w is 1 when absent."""
    for eid, e in items:
        if len(e) == 2:
            (u, v), w = e, _ONE
        else:
            u, v, w = e
            w = _as_fraction(w, "edge weights")
        if not (type(eid) is type(u) is type(v) is int):  # the common case is checked fast
            eid, u, v = (_as_int(x, "edge id or endpoint") for x in (eid, u, v))
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {eid} endpoint out of range")
        if eid < 1:
            raise ValueError("edge ids must be >= 1")
        yield eid, u, v, w


@dataclass(frozen=True)
class EdgeRecord:
    """A graph's edges as read-only arrays, in id order (Graph.edge_record).

    ints are the weights times scale, the LCM of their denominators: exact,
    int64 while twice their sum stays below 2^62 (so any sum of entries
    fits), Python ints beyond.  floats are float(w) of each weight, not
    ints / scale, which rounds once scale passes 2^53.
    """

    ids: np.ndarray  # (m,) intp
    ends: np.ndarray  # (m, 2) intp endpoints
    ints: np.ndarray
    scale: int
    floats: np.ndarray


class Graph:
    """Immutable weighted multigraph; edges keyed by stable positive ids."""

    def __init__(self, n: int, edges=()):
        n = _as_int(n, "n")
        self._fill(n, _checked(n, enumerate(edges, 1)))

    def _fill(self, n: int, edges) -> None:
        """Set up from (id, u, v, w) edges in ascending id order, trusted;
        loops are dropped, their ids consumed."""
        self.n = n
        self._edges = {eid: (u, v, w) for eid, u, v, w in edges if u != v}
        self._adj: dict[int, list[tuple[int, int]]] | None = None
        self._schedule: _Elimination | None = None
        self._count: int | None = None  # components of the whole graph
        self._record: EdgeRecord | None = None

    @classmethod
    def _trusted(cls, n: int, edges) -> "Graph":
        """The derived-graph path: _fill without validating anything."""
        g = cls.__new__(cls)
        g._fill(n, edges)
        return g

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._edges)

    def edge_ids(self) -> list[int]:
        return list(self._edges)

    def edge(self, eid: int) -> tuple[int, int, Fraction]:
        return self._edges[eid]

    def has_edge(self, eid: int) -> bool:
        return eid in self._edges

    def edges(self):
        """Yield (id, u, v, w) in id order."""
        for eid, (u, v, w) in self._edges.items():
            yield eid, u, v, w

    def weight(self, eid: int) -> Fraction:
        return self._edges[eid][2]

    def total_weight(self) -> Fraction:
        return sum((w for _, _, _, w in self.edges()), Fraction(0))

    def edge_record(self) -> EdgeRecord:
        """The edges as arrays (EdgeRecord), built on first use and cached."""
        if self._record is None:
            edges = self._edges.values()
            scale = math.lcm(*(w.denominator for _, _, w in edges))
            ints = [w.numerator * (scale // w.denominator) for _, _, w in edges]
            rec = EdgeRecord(
                ids=np.fromiter(self._edges, dtype=np.intp, count=self.m),
                ends=np.array([(u, v) for u, v, _ in edges], dtype=np.intp).reshape(-1, 2),
                ints=np.array(ints, dtype=_exact_dtype(sum(ints).bit_length())),
                scale=scale,
                floats=np.array([float(w) for _, _, w in edges]),
            )
            for a in (rec.ids, rec.ends, rec.ints, rec.floats):
                a.flags.writeable = False
            self._record = rec
        return self._record

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """vertex -> [(neighbor, edge_id)], sorted; parallel edges repeat."""
        if self._adj is None:
            adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(self.n)}
            for eid, u, v, _ in self.edges():
                adj[u].append((v, eid))
                adj[v].append((u, eid))
            for v in adj:
                adj[v].sort()
            self._adj = adj
        return self._adj

    def degree(self, v: int) -> int:
        return len(self.adjacency()[v])

    # -- connectivity ------------------------------------------------------

    def union_find(self, eids=None) -> UnionFind:
        """Union-find over the vertices, joined by the edge ids eids (every
        edge when None).  An unknown id raises KeyError."""
        uf = UnionFind(self.n)
        for eid in self.edge_ids() if eids is None else eids:
            u, v, _ = self._edges[eid]
            uf.union(u, v)
        return uf

    def components(self, eids=None) -> list[list[int]]:
        """Vertex lists of the subgraph kept by eids (every edge when None),
        each sorted, ordered by smallest member."""
        uf = self.union_find(eids)
        if eids is None:
            self._count = uf.count
        groups: dict[int, list[int]] = defaultdict(list)
        for v in range(self.n):
            groups[uf.find(v)].append(v)
        return sorted(groups.values())

    def component_count(self, eids=None) -> int:
        """Components of the subgraph kept by eids (every edge when None)."""
        if eids is None and self._count is None:
            self._count = self.union_find().count
        return self._count if eids is None else self.union_find(eids).count

    def component_counts(self, words) -> np.ndarray:
        """Component count of the kept subgraph, one per row of a word matrix.

        words is an integer (rows, ceil(m/64)) matrix of uint64 words; bit j of
        a row (word j // 64, bit j % 64) keeps edge edge_ids()[j], and bits at
        or beyond m are ignored.  Every row runs through one pass of vertex
        elimination on a schedule cached per graph (``_elimination_schedule``): a
        minimum-degree order and, for each vertex, its later neighbours in the
        filled graph.  Each vertex holds a bit mask of its later neighbours in
        the kept subgraph, one bit per elimination position, in the narrowest
        unsigned dtype of at least n bits (uint8 to uint64), or in ceil(n/64)
        uint64 words past n = 64.  Eliminating vertex i hands its mask to each
        later neighbour x it actually reaches (bit x set), which joins all of
        i's later neighbours to x.  Paths through i survive the elimination
        and none is invented, so when i comes up its mask holds exactly the
        later vertices of its component; the last vertex of each component
        finds none, and the count is the number of such vertices.  Rows run in
        blocks of at most _CHUNK rows, fewer when their masks would pass
        _CHUNK * (n + m) bytes, and each block's arrays are freed before the
        next block's are made.  Counts come in the narrowest unsigned dtype
        that holds n (uint8 up to 255 vertices).
        """
        words = np.asarray(words)
        if not np.issubdtype(words.dtype, np.integer):
            raise ValueError(f"word matrix must have an integer dtype, not {words.dtype}")
        if words.ndim != 2 or words.shape[1] * _WORD < self.m:
            raise ValueError(f"need a (rows, {-(-self.m // _WORD)}) word matrix")
        if self._schedule is None:
            self._schedule = _elimination_schedule(self.n, self.edge_record().ends.tolist())
        plan = self._schedule
        row_bytes = self.n * plan.words * plan.dtype.itemsize
        step = max(1, min(_CHUNK, _CHUNK * (self.n + self.m) // max(row_bytes, 1)))
        out = np.empty(words.shape[0], dtype=np.min_scalar_type(self.n))
        for lo in range(0, words.shape[0], step):
            out[lo : lo + step] = self._block_counts(plan, words[lo : lo + step])
        return out

    def _block_counts(self, plan: "_Elimination", words: np.ndarray) -> np.ndarray:
        """component_counts of one block of rows, in one elimination pass."""
        n, bits, size = self.n, plan.dtype.itemsize * 8, words.shape[0]
        block = np.ascontiguousarray(words, dtype="<u8")
        cols = np.ascontiguousarray(block.view(plan.dtype).T)  # row c: bits c*bits..
        masks = np.zeros((n, plan.words, size), dtype=plan.dtype)
        tmp = np.empty(size, dtype=plan.dtype)
        for j, (u, v) in enumerate(plan.ends):
            t, s = j % bits, v % bits  # edge j kept: bit t of its column, bit s of u's mask
            np.bitwise_and(cols[j // bits], 1 << t, out=tmp)
            if s < t:
                np.right_shift(tmp, t - s, out=tmp)
            else:
                np.multiply(tmp, 1 << (s - t), out=tmp)  # faster than a left shift
            np.bitwise_or(masks[u, v // bits], tmp, out=masks[u, v // bits])
        count = np.full(size, n, dtype=np.min_scalar_type(n))
        part = np.empty((plan.words, size), dtype=plan.dtype)
        for i, later, word, shift, reach in plan.fills:
            flags = masks[i, word]
            np.right_shift(flags, shift, out=flags)
            np.bitwise_and(flags, 1, out=flags)
            np.negative(flags, out=flags)  # all ones where i reaches x
            for x, flag in zip(later, flags):
                np.bitwise_and(masks[i], flag, out=part)
                np.bitwise_or(masks[x], part, out=masks[x])
            np.bitwise_and(masks[i], reach, out=part)
            np.subtract(count, part.any(axis=0), out=count)
        return count

    def is_connected(self) -> bool:
        return self.n <= 1 or self.component_count() == 1

    def crossing_edges(self, side) -> frozenset:
        s = set(side)
        return frozenset(
            eid for eid, u, v, _ in self.edges() if (u in s) != (v in s)
        )

    def cut_weight(self, side) -> Fraction:
        return sum((self.weight(e) for e in self.crossing_edges(side)), Fraction(0))

    # -- minimum cut ---------------------------------------------------------

    def min_cut(self) -> MinCut:
        """Global minimum weighted cut, deterministic.

        Runs a max-adjacency (Stoer-Wagner) sweep in exact integers: weights
        are scaled by the LCM of their denominators into one dense n x n
        matrix (n^2 entries of 8 bytes), int64 while twice the scaled total
        stays below 2^62, Python ints beyond.  Each phase starts at the
        smallest active vertex and adds the most tightly connected one next,
        ties going to the smaller vertex.  Ties between cuts break toward
        the lexicographically smallest side (the side is canonicalized to the
        lex-smaller of itself and its complement).  A disconnected graph has
        a zero cut.
        """
        if self.n < 2:
            raise ValueError("min cut needs at least 2 vertices")
        comps = self.components()
        if len(comps) > 1:
            value, side_t = Fraction(0), min(self._canon_side(c) for c in comps)
        else:
            value, side_t = self._stoer_wagner()
        side = frozenset(side_t)
        return MinCut(value=value, side=side, edge_ids=self.crossing_edges(side))

    def _canon_side(self, side) -> tuple:
        inside = tuple(sorted(side))
        outside = tuple(sorted(set(range(self.n)) - set(side)))
        return min(inside, outside)

    def scaled_adjacency(self) -> tuple[np.ndarray, int]:
        """(A, scale): symmetric n x n sums of the record's scaled weights
        (edge_record), int64 or Python ints by the same rule."""
        rec = self.edge_record()
        A = np.zeros((self.n, self.n), dtype=rec.ints.dtype)
        np.add.at(A, (rec.ends[:, 0], rec.ends[:, 1]), rec.ints)
        return A + A.T, rec.scale

    def _stoer_wagner(self) -> tuple[Fraction, tuple]:
        """(value, canonical side) of the least cut of the phase; connected graph."""
        n = self.n
        weights, scale = self.scaled_adjacency()
        groups = [[v] for v in range(n)]
        merged = np.zeros(n, dtype=bool)  # rows and columns of merged vertices go stale
        cuts = []  # (cut-of-the-phase value, t); groups[t] stays fixed once t is merged
        for phase in range(n - 1):
            taken = merged.copy()
            conn = np.zeros(n, dtype=weights.dtype)
            conn[taken] = -1  # all active vertices tie at 0, so the smallest starts
            s = t = -1
            for _ in range(n - phase):
                s, t = t, int(np.argmax(conn))
                value = conn[t]
                taken[t] = True
                conn += weights[t]
                conn[taken] = -1
            cuts.append((value, t))
            groups[s] += groups[t]
            weights[s] += weights[t]
            weights[:, s] = weights[s]
            weights[s, s] = 0
            merged[t] = True
        low = min(cuts)[0]
        side = min(self._canon_side(groups[t]) for value, t in cuts if value == low)
        return Fraction(int(low), scale), side

    def enumerate_cuts(self, max_vertices: int = 20):
        """All distinct cut edge sets, one component at a time.

        For each component the pinned smallest vertex stays on one side, so
        each vertex bipartition is visited once: side number b holds the pin
        and the i-th other vertex when bit i of b is set, for every b but the
        whole component.  No two sides share a crossing edge set: two sides
        through the pin cross the same edges only when their symmetric
        difference is a union of components, and inside one component that
        leaves only equal sides.  The sides of a component are one boolean
        matrix, their crossing edges one comparison of its endpoint columns,
        and their values integer sums of the record's scaled weights.  Returns a list of
        (edge_ids frozenset, side frozenset, value) sorted by (value, sorted
        side).
        """
        if self.n > max_vertices:
            raise ValueError(f"cut enumeration capped at {max_vertices} vertices")
        rec = self.edge_record()
        ids, ends, ints = rec.ids, rec.ends, rec.ints
        cuts = []
        for comp in self.components():
            r = len(comp) - 1
            if r < 1:
                continue
            bits = np.arange((1 << r) - 1)
            member = np.zeros((bits.size, self.n), dtype=bool)
            member[:, comp[0]] = True
            member[:, comp[1:]] = (bits[:, None] >> np.arange(r)) & 1
            cross = member[:, ends[:, 0]] != member[:, ends[:, 1]]
            cuts.extend(zip((cross @ ints).tolist(), _row_lists(member), _row_lists(cross, ids)))
        cuts.sort(key=lambda t: t[:2])  # (value, sorted side); sides are distinct
        return [
            (frozenset(eids), frozenset(side), Fraction(value, rec.scale))
            for value, side, eids in cuts
        ]

    # -- girth and cycles ----------------------------------------------------

    def girth(self) -> int | None:
        """Number of edges on a shortest cycle; None if the graph is a forest."""
        simple = [sorted({x for x, _ in nbrs}) for nbrs in self.adjacency().values()]
        if sum(map(len, simple)) < 2 * self.m:
            return 2  # parallel pair
        best: int | None = None
        for root in range(self.n):
            dist = {root: 0}
            parent = {root: -1}
            q = deque([root])
            while q:
                u = q.popleft()
                if best is not None and dist[u] * 2 >= best:
                    continue
                for v in simple[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        q.append(v)
                    elif v != parent[u]:
                        cand = dist[u] + dist[v] + 1
                        if best is None or cand < best:
                            best = cand
        return best

    def enumerate_cycles(self, max_edges: int = 40):
        """All simple cycles as frozensets of edge ids (length >= 2).

        Anchored search: a cycle is discovered from its smallest vertex, with
        interior vertices restricted to larger indices.  Parallel edges give
        2-cycles.  Exponential in general; refuses m > max_edges.
        """
        if self.m > max_edges:
            raise ValueError(f"cycle enumeration capped at {max_edges} edges")
        adj = self.adjacency()
        cycles: set[frozenset] = set()

        def dfs(anchor, v, visited, path_edges):
            for w, eid in adj[v]:
                if eid in path_edges:
                    continue
                if w == anchor:
                    cycles.add(frozenset(path_edges | {eid}))
                elif w > anchor and w not in visited:
                    dfs(anchor, w, visited | {w}, path_edges | {eid})

        for anchor in range(self.n):
            for w, eid in adj[anchor]:
                if w > anchor:
                    dfs(anchor, w, {anchor, w}, {eid})
        return sorted(cycles, key=lambda c: (len(c), tuple(sorted(c))))

    def is_forest(self) -> bool:
        return self.m == self.n - self.component_count()

    def spanning_forest(self) -> list[int]:
        """Edge ids of the smallest-id-first spanning forest."""
        uf = UnionFind(self.n)
        out = []
        for eid, u, v, _ in self.edges():
            if uf.union(u, v):
                out.append(eid)
        return out

    # -- surgery -------------------------------------------------------------

    def _known(self, eids) -> set:
        ids = set(eids)
        missing = ids - self._edges.keys()
        if missing:
            raise KeyError(f"unknown edge ids {sorted(missing)}")
        return ids

    def delete_edges(self, eids) -> "Graph":
        return self.keep_edges(self._edges.keys() - self._known(eids))

    def keep_edges(self, eids) -> "Graph":
        keep = self._known(eids)
        return Graph._trusted(self.n, (e for e in self.edges() if e[0] in keep))

    def contract_partition(self, parts) -> tuple["Graph", dict[int, int]]:
        """Merge each part to one vertex.  Returns (graph, old->new map).

        Parts must partition the vertex set; they are renumbered 0.. in order
        of smallest member.  Edges inside a part vanish (ids consumed); edges
        across parts survive with their ids.
        """
        norm = sorted(sorted(set(part)) for part in parts)  # disjoint: by smallest member
        if norm and not norm[0]:
            raise ValueError("empty part")
        flat = [v for part in norm for v in part]
        if len(flat) != len(set(flat)):
            raise ValueError("parts overlap")
        if set(flat) != set(range(self.n)):
            raise ValueError("parts must cover all vertices")
        vmap = {v: i for i, part in enumerate(norm) for v in part}
        g = Graph._trusted(len(norm), ((e, vmap[u], vmap[v], w) for e, u, v, w in self.edges()))
        return g, vmap

    def contract_edges(self, eids) -> tuple["Graph", dict[int, int]]:
        """Contract the given edges (identify their endpoints)."""
        return self.contract_partition(self.components(eids))

    def subdivide(self, s: int) -> "Graph":
        """Replace each edge by a path of s edges.

        Edge i becomes ids (i-1)*s + 1 .. i*s, each with the original weight;
        the s-1 fresh interior vertices are appended in edge-id order, walking
        from u to v.
        """
        if s < 1:
            raise ValueError("s must be >= 1")
        edges = []
        next_v = self.n
        for eid, u, v, w in self.edges():
            chain = [u] + list(range(next_v, next_v + s - 1)) + [v]
            next_v += s - 1
            for j in range(s):
                edges.append(((eid - 1) * s + j + 1, chain[j], chain[j + 1], w))
        return Graph._trusted(next_v, edges)

    def duplicate_edges(self, s: int) -> "Graph":
        """Replace each edge by s parallel copies, ids (i-1)*s + 1 .. i*s."""
        if s < 1:
            raise ValueError("s must be >= 1")
        return Graph._trusted(self.n, (
            ((eid - 1) * s + j + 1, u, v, w) for eid, u, v, w in self.edges() for j in range(s)
        ))

    def induced_subgraph(self, vertices) -> tuple["Graph", dict[int, int]]:
        """Subgraph on the given vertices, relabeled 0.. in sorted order.

        Edges with both endpoints inside survive with their ids.
        """
        vs = sorted(set(vertices))
        if vs and not (0 <= vs[0] and vs[-1] < self.n):
            raise ValueError("vertex out of range")
        vmap = {v: i for i, v in enumerate(vs)}
        g = Graph._trusted(len(vs), (
            (e, vmap[u], vmap[v], w) for e, u, v, w in self.edges() if u in vmap and v in vmap
        ))
        return g, vmap

    def with_weights(self, mapping) -> "Graph":
        """Same graph with weights replaced per edge id (others unchanged);
        only the supplied weights of this graph's edges are checked."""
        return Graph._trusted(self.n, (
            (e, u, v, _as_fraction(mapping[e], "edge weights") if e in mapping else w)
            for e, u, v, w in self.edges()
        ))

    def with_unit_weights(self) -> "Graph":
        return Graph._trusted(self.n, ((e, u, v, _ONE) for e, u, v, _ in self.edges()))

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        """1-based text form; edge ids are renumbered 1..m in id order."""
        lines = [f"{self.n} {self.m}"]
        for _, u, v, w in self.edges():
            lines.append(f"{u + 1} {v + 1}" + ("" if w == 1 else f" {w}"))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        rows = [ln.split() for ln in text.splitlines() if ln.strip()]
        if not rows:
            raise ValueError("empty graph text")
        if len(rows[0]) != 2 or any(len(row) not in (2, 3) for row in rows[1:]):
            raise ValueError("graph text must be an 'n m' line, then one 'u v [w]' line per edge")
        n, m = int(rows[0][0]), int(rows[0][1])
        if len(rows) - 1 != m:
            raise ValueError(f"expected {m} edge lines, got {len(rows) - 1}")
        return cls(n, [(int(r[0]) - 1, int(r[1]) - 1, *r[2:]) for r in rows[1:]])

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "edges": [
                {"id": eid, "u": u, "v": v, "w": str(w)}
                for eid, u, v, w in self.edges()
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        payload = json.loads(text)
        n = _as_int(_descriptor_field(payload, "n", subject="graph JSON"), "n")
        items = (
            [_descriptor_field(e, key, subject="edge JSON") for key in ("id", "u", "v", "w")]
            for e in _descriptor_field(payload, "edges", list, "graph JSON")
        )
        edges = sorted(_checked(n, ((eid, ends) for eid, *ends in items)))
        if len({e[0] for e in edges}) < len(edges):
            raise ValueError("duplicate edge ids")
        return cls._trusted(n, edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

"""Graph tests; minimum cuts and cycle listings are checked against
exhaustive reference implementations."""

import ast
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import edgewise.graph as graph_module
from edgewise.experiments import gen_graph
from edgewise.graph import Graph
from edgewise.reweight import reweight_min_cut
from oracles import (
    brute_force_cycles,
    brute_force_min_cut,
    fraction_min_cut,
    is_simple_cycle,
    label_propagation_counts,
    loop_enumerate_cuts,
)


def random_multigraph(seed, n_lo=4, n_hi=8, extra_parallel=2, weighted=False):
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    edges = []
    # random spanning tree to keep most instances connected
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v))
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    for _ in range(rng.randint(0, extra_parallel)):
        if edges:
            edges.append(rng.choice(edges)[:2])
    if weighted:
        edges = [
            (u, v, rng.choice([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)]))
            for u, v in edges
        ]
    return Graph(n, edges)


def cycle_graph(L):
    return Graph(L, [(i, (i + 1) % L) for i in range(L)])


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_self_loops_dropped_but_consume_ids():
    g = Graph(3, [(0, 1), (1, 1), (1, 2)])
    assert g.m == 2
    assert g.edge_ids() == [1, 3]


def test_edges_and_weights():
    g = Graph(2, [(0, 1, Fraction(3, 2)), (0, 1)])
    assert g.weight(1) == Fraction(3, 2)
    assert g.weight(2) == 1
    assert g.total_weight() == Fraction(5, 2)
    with pytest.raises(ValueError):
        Graph(2, [(0, 1, -1)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_components_and_connectivity():
    g = Graph(5, [(0, 1), (3, 4)])
    assert g.components() == [[0, 1], [2], [3, 4]]
    assert not g.is_connected()
    assert g.component_count() == 3
    assert cycle_graph(4).is_connected()


@pytest.mark.parametrize("seed", range(30))
def test_edge_subset_connectivity_matches_kept_subgraph(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    # endpoints may coincide (a dropped loop consumes its id); some pairs repeat
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 9))]
    edges += rng.sample(edges, min(2, len(edges)))
    g = Graph(n + rng.randint(0, 2), edges)  # trailing vertices are isolated
    ids = g.edge_ids()
    subsets = [set(), set(ids)] + [{e for e in ids if rng.random() < 0.5} for _ in range(6)]
    for S in subsets:
        h = g.keep_edges(S)
        assert g.union_find(S).count == h.union_find().count
        assert g.component_count(S) == h.component_count()
        assert g.components(S) == h.components()


def test_edge_subset_unknown_id_raises():
    g = Graph(3, [(0, 1), (1, 1), (1, 2)])  # id 2 is a dropped loop
    for call in (g.union_find, g.component_count, g.components, g.contract_edges):
        for bad in ([1, 2], [9]):
            with pytest.raises(KeyError):
                call(bad)


@pytest.mark.parametrize(
    "g,value",
    [
        (complete_graph(4), Fraction(3)),
        (cycle_graph(5), Fraction(2)),
        (Graph(2, [(0, 1), (0, 1), (0, 1)]), Fraction(3)),
        (Graph(4, [(0, 1, 5), (1, 2, 1), (2, 3, 5), (3, 0, 1)]), Fraction(2)),
    ],
)
def test_min_cut_known_values(g, value):
    cut = g.min_cut()
    assert cut.value == value
    assert g.cut_weight(cut.side) == value
    assert cut.edge_ids == g.crossing_edges(cut.side)


def test_min_cut_disconnected_is_zero():
    g = Graph(4, [(0, 1), (2, 3)])
    cut = g.min_cut()
    assert cut.value == 0
    assert cut.edge_ids == frozenset()


def test_min_cut_single_vertex_rejected():
    with pytest.raises(ValueError):
        Graph(1).min_cut()


@pytest.mark.parametrize("seed", range(30))
def test_min_cut_matches_brute_force(seed):
    g = random_multigraph(seed, weighted=(seed % 2 == 0))
    fast = g.min_cut()
    ref = brute_force_min_cut(g)
    assert fast.value == ref.value
    assert g.cut_weight(fast.side) == fast.value


def test_min_cut_deterministic():
    g = random_multigraph(99)
    a, b = g.min_cut(), g.min_cut()
    assert (a.value, a.side, a.edge_ids) == (b.value, b.side, b.edge_ids)


def cut_triple(cut):
    return cut.value, cut.side, cut.edge_ids


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("seed", range(30))
def test_min_cut_matches_fraction_oracle(seed, weighted):
    g = random_multigraph(seed, weighted=weighted)
    assert cut_triple(g.min_cut()) == cut_triple(fraction_min_cut(g))


@pytest.mark.parametrize(
    "g",
    [
        Graph(4, [(0, 1, 0), (1, 2, 3), (2, 3, 0), (3, 0, 2)]),
        Graph(3, [(0, 1, 0), (1, 2, 0)]),
        Graph(5, [(0, 1), (0, 1), (1, 2, 0), (2, 3), (2, 3), (3, 4, Fraction(1, 3)), (4, 0)]),
        Graph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2, Fraction(5, 2))]),
        Graph(4, [(0, 1), (2, 3)]),
        Graph(5, [(1, 2, 4), (2, 3, Fraction(1, 2)), (3, 1, 0)]),
        Graph(3),
    ],
)
def test_min_cut_zero_parallel_and_disconnected_match_oracle(g):
    assert cut_triple(g.min_cut()) == cut_triple(fraction_min_cut(g))


@pytest.mark.parametrize("delta", [10**12, 3**40])
def test_min_cut_huge_scale_takes_object_dtype(delta, monkeypatch):
    exact_dtype, picked = graph_module._exact_dtype, []

    def spy(bits):
        picked.append(exact_dtype(bits))
        return picked[-1]

    monkeypatch.setattr(graph_module, "_exact_dtype", spy)
    rng = random.Random(7)
    n = 9
    edges = [(v - 1, v) for v in range(1, n)] + [
        (rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)
    ]
    g = Graph(n, [(u, v, Fraction(1, delta ** (i % 4))) for i, (u, v) in enumerate(edges)])
    assert cut_triple(g.min_cut()) == cut_triple(fraction_min_cut(g))
    assert picked == [object]


@pytest.mark.parametrize(
    "g",
    [
        gen_graph("cycle", {"length": 60}),
        gen_graph("cycle", {"length": 48}).duplicate_edges(2),
        gen_graph("expander_like", {"vertices": 48, "degree": 6}),
    ],
    ids=["cycle60", "cycle48x2", "expander48d6"],
)
def test_min_cut_matches_oracle_on_every_reweight_level(g, monkeypatch):
    seen = []
    dense = Graph.min_cut

    def record(self):
        seen.append(self)
        return dense(self)

    monkeypatch.setattr(Graph, "min_cut", record)
    result = reweight_min_cut(g)
    monkeypatch.setattr(Graph, "min_cut", dense)
    assert len(seen) == result.level_count
    for level in seen:
        assert cut_triple(level.min_cut()) == cut_triple(fraction_min_cut(level))


@pytest.mark.parametrize("seed", range(8))
def test_min_cut_value_matches_networkx(seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    n = rng.randint(21, 60)  # beyond brute_force_min_cut's reach
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(n, 3 * n))]
    edges += rng.choices(edges, k=rng.randint(0, n))
    g = Graph(n, edges)
    merged = nx.Graph()
    merged.add_nodes_from(range(n))
    for _, u, v, w in g.edges():
        merged.add_edge(u, v, weight=merged.get_edge_data(u, v, {"weight": 0})["weight"] + int(w))
    value, _ = nx.stoer_wagner(merged)
    assert g.min_cut().value == value


def test_min_cut_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        n = draw(st.integers(2, 10))
        vertex = st.integers(0, n - 1)
        weight = st.fractions(min_value=0, max_value=5, max_denominator=6)
        return Graph(n, draw(st.lists(st.tuples(vertex, vertex, weight), max_size=25)))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(graphs())
    def check(g):
        cut = g.min_cut()
        assert cut.value == g.cut_weight(cut.side)
        assert cut.edge_ids == g.crossing_edges(cut.side)
        inside = tuple(sorted(cut.side))
        outside = tuple(sorted(set(range(g.n)) - cut.side))
        assert inside and outside and inside < outside
        degree = [Fraction(0)] * g.n
        for _, u, v, w in g.edges():
            degree[u] += w
            degree[v] += w
        assert cut.value <= min(degree)

    check()


def test_enumerate_cuts_covers_all_edge_sets():
    g = cycle_graph(4)
    cuts = g.enumerate_cuts()
    # cuts of a cycle are the even edge subsets: all six pairs plus the
    # full edge set
    sizes = sorted(len(eids) for eids, _, _ in cuts)
    assert sizes == [2, 2, 2, 2, 2, 2, 4]
    assert min(v for _, _, v in cuts) == g.min_cut().value
    for eids, side, value in cuts:
        assert g.crossing_edges(side) == eids
        assert g.cut_weight(side) == value


def test_enumerate_cuts_respects_cap():
    with pytest.raises(ValueError):
        complete_graph(6).enumerate_cuts(max_vertices=5)


def random_words(g, rows, seed):
    """Seeded word rows, random tail bits included; and the row ints."""
    rng = random.Random(seed)
    width = max(1, -(-g.m // 64))
    ints = [rng.getrandbits(64 * width) for _ in range(rows)]
    words = np.array(
        [[(x >> (64 * j)) & (2**64 - 1) for j in range(width)] for x in ints],
        dtype=np.uint64,
    ).reshape(rows, width)
    return words, ints


def per_row_counts(g, ints):
    order = g.edge_ids()
    return [
        g.keep_edges([e for j, e in enumerate(order) if (x >> j) & 1]).component_count()
        for x in ints
    ]


@pytest.mark.parametrize(
    "g",
    [
        # isolated vertex 6, two components besides it, parallel edges
        Graph(7, [(0, 1), (1, 2), (2, 0), (0, 1), (3, 4), (4, 5), (4, 5)]),
        # m > 64: two words, bits past m must be ignored
        Graph(70, [(i, (i + 1) % 70) for i in range(70)] + [(0, 35), (10, 60), (20, 21)]),
        # n = 256 fills the smallest label type, n > 256 needs the next one
        Graph(256, [(i, (i + 1) % 256) for i in range(0, 256, 2)] + [(255, 0), (3, 200)]),
        Graph(300, [(i, i + 1) for i in range(299)] + [(0, 299), (17, 280), (5, 5)]),
    ],
)
def test_component_counts_match_per_row_union_find(g):
    words, ints = random_words(g, 64, seed=g.m)
    got = g.component_counts(words)
    assert got.tolist() == per_row_counts(g, ints)
    full = np.full((1, words.shape[1]), 2**64 - 1, dtype=np.uint64)
    assert g.component_counts(full).tolist() == [g.component_count()]
    assert g.component_counts(np.zeros_like(full)).tolist() == [g.n]


def test_component_counts_edge_cases():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert g.component_counts(np.zeros((0, 1), dtype=np.uint64)).shape == (0,)
    assert Graph(3).component_counts(np.zeros((2, 0), dtype=np.uint64)).tolist() == [3, 3]
    assert Graph(0).component_counts(np.zeros((1, 0), dtype=np.uint64)).tolist() == [0]
    with pytest.raises(ValueError):
        g.component_counts(np.zeros((2, 0), dtype=np.uint64))


@pytest.mark.parametrize("n,dtype", [(255, np.uint8), (256, np.uint16)])
def test_component_counts_dtype_holds_n(n, dtype):
    # counts come in the narrowest unsigned dtype holding n; the edgeless row
    # counts all n vertices, and a 0-row input keeps the dtype
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    words = np.zeros((3, -(-g.m // 64)), dtype=np.uint64)
    words[1] = 2**64 - 1
    words[2, 0] = 1
    got = g.component_counts(words)
    assert got.dtype == dtype
    assert got.tolist() == [n, 1, n - 1]
    assert (g.n - got).tolist() == [0, n - 1, 1]
    empty = g.component_counts(words[:0])
    assert empty.shape == (0,) and empty.dtype == dtype


def ints_to_words(ints, width):
    return np.array(
        [[(x >> (64 * j)) & (2**64 - 1) for j in range(width)] for x in ints],
        dtype=np.uint64,
    ).reshape(len(ints), width)


def kernel_graph(n, seed):
    """Random multigraph on n vertices with parallel edges, loops (their ids
    consumed) and, from n = 3 on, isolated vertices."""
    rng = random.Random(seed)
    live = list(range(n))
    for v in rng.sample(live, n // 3):
        live.remove(v)
    edges = [(rng.choice(live), rng.choice(live)) for _ in range(rng.randint(0, 2 * n))] if live else []
    edges += rng.choices(edges, k=min(len(edges), 4))
    rng.shuffle(edges)
    return Graph(n, edges)


@pytest.mark.parametrize("n", [0, 1, 2, 8, 9, 16, 17, 32, 33, 64, 65, 70])
@pytest.mark.parametrize("seed", range(3))
def test_component_counts_match_label_propagation_and_union_find(n, seed):
    # n covers every mask dtype (8, 16, 32, 64 bits) and both sides of each
    # width and of the one-word / multiword boundary
    g = kernel_graph(n, seed)
    rng = random.Random(seed)
    width = max(1, -(-g.m // 64))
    bits = 64 * width
    ints = [rng.getrandbits(bits) for _ in range(24)]  # tail bits past m set too
    ints += [rng.getrandbits(bits) & rng.getrandbits(bits) & rng.getrandbits(bits) for _ in range(12)]
    ints += [rng.getrandbits(bits) | rng.getrandbits(bits) for _ in range(12)]
    ints += [0, 2**bits - 1, (2**bits - 1) ^ ((1 << g.m) - 1)]  # the last keeps only tail bits
    words = ints_to_words(ints, width)
    want = per_row_counts(g, ints)
    assert g.component_counts(words).tolist() == want
    assert label_propagation_counts(g, words).tolist() == want
    assert want[-3:] == [g.n, g.component_count(), g.n]
    empty = np.zeros((0, width), dtype=np.uint64)
    assert g.component_counts(empty).shape == (0,)
    assert label_propagation_counts(g, empty).shape == (0,)


def test_component_counts_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(0, 70))
        vertex = st.integers(0, max(n - 1, 0))
        edges = draw(st.lists(st.tuples(vertex, vertex), max_size=90)) if n else []
        g = Graph(n, edges)
        width = max(1, -(-g.m // 64))
        ints = draw(st.lists(st.integers(0, 2 ** (64 * width) - 1), max_size=6))
        return g, ints, width

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    def check(case):
        g, ints, width = case
        words = ints_to_words(ints, width)
        want = per_row_counts(g, ints)
        assert g.component_counts(words).tolist() == want
        assert label_propagation_counts(g, words).tolist() == want

    check()


def test_component_counts_schedule_built_once_per_graph(monkeypatch):
    built = []
    real = graph_module._elimination_schedule

    def counting(n, ends):
        built.append(n)
        return real(n, ends)

    monkeypatch.setattr(graph_module, "_elimination_schedule", counting)
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    h = g.delete_edges([1])
    assert built == []  # neither construction nor surgery builds it
    words = np.array([[7], [0], [5]], dtype=np.uint64)
    assert g.component_counts(words).tolist() == [2, 5, 3]
    assert g.component_counts(words[:1]).tolist() == [2]
    assert built == [5]
    assert h.component_counts(words).tolist() == [3, 5, 4]
    assert built == [5, 5]


def test_elimination_schedule_is_min_degree():
    # star centred on 0: leaves go first, so no fill appears; with one leaf
    # left the centre ties it at degree 1 and goes first as the smaller vertex
    star = graph_module._elimination_schedule(9, [(0, v) for v in range(1, 9)])
    assert star.ends == tuple((v - 1, 7) for v in range(1, 8)) + ((7, 8),)
    assert [(i, later) for i, later, *_ in star.fills] == [(p, [7]) for p in range(7)] + [(7, [8])]
    assert (star.dtype, star.words) == (np.dtype(np.uint16), 1)
    # path 3-1-0-2 eliminates 2, 0, 1, 3 (degree ties to the smaller vertex)
    path = graph_module._elimination_schedule(4, [(3, 1), (1, 0), (0, 2)])
    assert path.ends == ((2, 3), (1, 2), (0, 1))
    assert graph_module._elimination_schedule(65, []).words == 2


def test_component_counts_rejects_non_integer_words():
    g = Graph(2, [(0, 1)])
    for bad in (np.array([[1.5]]), np.array([[1.0]]), np.array([[True]]), np.array([["1"]])):
        with pytest.raises(ValueError, match="integer dtype"):
            g.component_counts(bad)
    with pytest.raises(ValueError, match="word matrix"):
        g.component_counts(np.ones(3, dtype=np.uint64))
    assert g.component_counts(np.array([[1], [2]], dtype=np.int8)).tolist() == [1, 2]


def test_component_counts_blocks_stay_within_budget():
    g = Graph(300, [(i, i + 1) for i in range(299)] + [(0, 299), (17, 280)])
    width = -(-g.m // 64)
    rng = np.random.default_rng(3)
    words = rng.integers(0, 2**63, size=(1 << 14, width), dtype=np.uint64)
    words |= rng.integers(0, 2**63, size=words.shape, dtype=np.uint64) << np.uint64(1)
    g.component_counts(words[:1])  # schedule built outside the measurement
    tracemalloc.start()
    try:
        got = g.component_counts(words)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the masks of all 16384 rows (300 vertices, 5 words each) would take
    # 197 MB; one block's masks stay within _CHUNK * (n + m) = 19.7 MB
    assert peak < 24 * 2**20
    assert got.tolist() == label_propagation_counts(g, words).tolist()


def rational_multigraph(seed):
    """Random multigraph on 0..8 vertices with rational weights, zero
    weights and loops; every tenth one has weights whose LCM scaling
    overflows int64 sums, so the values are Python ints."""
    rng = random.Random(seed)
    n = rng.randint(0, 8)
    weights = [0, 1, 3, Fraction(1, 3), Fraction(2, 7), Fraction(5, 2)]
    if seed % 10 == 0:
        weights = [Fraction(10**15, 3), Fraction(1, 7), Fraction(2, 11), Fraction(5, 13)]
    edges = [
        (rng.randrange(n), rng.randrange(n), rng.choice(weights))
        for _ in range(rng.randint(0, 2 * n) if n else 0)
    ]
    return Graph(n, edges)


def test_enumerate_cuts_matches_per_side_loop():
    dtypes, disconnected = set(), 0
    for seed in range(300):
        g = rational_multigraph(seed)
        cuts = g.enumerate_cuts()
        assert cuts == loop_enumerate_cuts(g)
        # no two sides of a component share an edge set, so nothing is deduplicated
        assert len(cuts) == sum(2 ** (len(c) - 1) - 1 for c in g.components())
        dtypes.add(g.edge_record().ints.dtype)
        disconnected += sum(len(c) > 1 for c in g.components()) > 1
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
    assert disconnected > 20
    for g in (Graph(0), Graph(1), Graph(1, [(0, 0)]), Graph(3, [(0, 1, 0)])):
        assert g.enumerate_cuts() == loop_enumerate_cuts(g)


def per_edge_record(g):
    """(ids, ends, ints, dtype, scale, floats) built edge by edge from edges()."""
    es = list(g.edges())
    scale = math.lcm(*(w.denominator for *_, w in es))
    ints = [w.numerator * (scale // w.denominator) for *_, w in es]
    dtype = np.dtype(np.int64) if 2 * sum(ints) < 2**62 else np.dtype(object)
    return (
        [e for e, *_ in es], [[u, v] for _, u, v, _ in es], ints, dtype, scale,
        [float(w) for *_, w in es],
    )


def record_of(g):
    rec = g.edge_record()
    assert rec.ends.shape == (g.m, 2)
    assert not any(a.flags.writeable for a in (rec.ids, rec.ends, rec.ints, rec.floats))
    assert rec.floats.dtype == np.float64
    return (
        rec.ids.tolist(), rec.ends.tolist(), rec.ints.tolist(), rec.ints.dtype, rec.scale,
        rec.floats.tolist(),
    )


def validated(n, edges):
    """Graph built through the validating JSON constructor from (id, u, v, w)."""
    payload = {"n": n, "edges": [{"id": e, "u": u, "v": v, "w": str(w)} for e, u, v, w in edges]}
    return Graph.from_json(json.dumps(payload))


def reference_surgery(g, rng):
    """(name, derived graph, the same graph through the validating constructor)."""
    es = list(g.edges())
    subset = {e for e, *_ in es if rng.random() < 0.5}
    verts = [v for v in range(g.n) if rng.random() < 0.6]
    vmap = {v: i for i, v in enumerate(verts)}
    order = list(range(g.n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, g.n), rng.randint(0, g.n - 1))) if g.n > 1 else []
    parts = [order[a:b] for a, b in zip([0] + cuts, cuts + [g.n])] if g.n else []
    pmap = {v: i for i, p in enumerate(sorted(parts, key=min)) for v in p}
    mapping = {e: rng.choice([0, 2, Fraction(1, 6), Fraction(10**20, 7)]) for e in subset}
    mapping[10**6] = -1  # not an edge of g: ignored, and not checked
    s = rng.randint(1, 3)
    yield "keep", g.keep_edges(subset), validated(g.n, [t for t in es if t[0] in subset])
    yield "delete", g.delete_edges(subset), validated(g.n, [t for t in es if t[0] not in subset])
    yield "contract", g.contract_partition(parts)[0], validated(
        len(parts), [(e, pmap[u], pmap[v], w) for e, u, v, w in es]
    )
    yield "induced", g.induced_subgraph(verts)[0], validated(
        len(verts), [(e, vmap[u], vmap[v], w) for e, u, v, w in es if u in vmap and v in vmap]
    )
    fresh = iter(range(g.n, g.n + len(es) * (s - 1)))  # interior vertices, in edge-id order
    chains = [[u, *(next(fresh) for _ in range(s - 1)), v] for _, u, v, _ in es]
    yield "subdivide", g.subdivide(s), validated(g.n + len(es) * (s - 1), [
        ((e - 1) * s + j + 1, c[j], c[j + 1], w)
        for (e, _, _, w), c in zip(es, chains)
        for j in range(s)
    ])
    yield "duplicate", g.duplicate_edges(s), validated(g.n, [
        ((e - 1) * s + j + 1, u, v, w) for e, u, v, w in es for j in range(s)
    ])
    yield "with_weights", g.with_weights(mapping), validated(
        g.n, [(e, u, v, mapping.get(e, w)) for e, u, v, w in es]
    )
    yield "unit", g.with_unit_weights(), validated(g.n, [(e, u, v, 1) for e, u, v, _ in es])


def test_edge_record_and_surgery_match_validating_constructor():
    dtypes, names = set(), set()
    for seed in range(300):
        g = rational_multigraph(seed)
        assert record_of(g) == per_edge_record(g)
        assert g.edge_ids() == sorted(g.edge_ids())
        dtypes.add(g.edge_record().ints.dtype)
        rng = random.Random(seed)
        for name, got, want in reference_surgery(g, rng):
            names.add(name)
            assert (got.n, list(got.edges())) == (want.n, list(want.edges())), (seed, name)
            assert got.to_json() == want.to_json(), (seed, name)
            assert record_of(got) == record_of(want) == per_edge_record(want), (seed, name)
            dtypes.add(got.edge_record().ints.dtype)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
    assert len(names) == 8


def test_edge_record_floats_are_rounded_from_each_weight():
    # reweighting's scales pass 2^53, where ints / scale rounds the scale first
    ws = [Fraction(k, 3**34) for k in range(1, 30)]
    g = Graph(2, [(0, 1, w) for w in ws])
    rec = g.edge_record()
    assert rec.scale > 2**53 and rec.ints.dtype == np.int64
    assert rec.floats.tolist() == [float(w) for w in ws]
    assert (rec.ints / rec.scale).tolist() != rec.floats.tolist()
    assert g.edge_record() is rec  # built once


def test_constructor_rejects_non_int_ids_and_endpoints():
    for bad in ([(0.0, 1)], [(0, True)], [(0, 1.5, 2)], [("0", 1)], [(0, np.float64(1))]):
        with pytest.raises(ValueError, match="edge id or endpoint must be an int"):
            Graph(2, bad)
    for n in (2.0, -1, True):
        with pytest.raises(ValueError, match="n must be an int >= 0"):
            Graph(n, [(0, 1)])
    assert Graph(np.int64(2), [(np.int64(0), np.intp(1))]).to_json() == Graph(2, [(0, 1)]).to_json()
    good = {"n": 2, "edges": [{"id": 1, "u": 0, "v": 1, "w": "1"}]}
    assert Graph.from_json(json.dumps(good)).edge_ids() == [1]
    for key, value in (("id", 1.5), ("id", True), ("id", "1"), ("u", 0.0), ("v", False)):
        payload = json.loads(json.dumps(good))
        payload["edges"][0][key] = value
        with pytest.raises(ValueError, match="must be an int"):
            Graph.from_json(json.dumps(payload))
    with pytest.raises(ValueError, match="weights must be >= 0"):
        Graph(2, [(0, 1)]).with_weights({1: -1})
    twice = {"n": 2, "edges": good["edges"] * 2}
    with pytest.raises(ValueError, match="duplicate edge ids"):
        Graph.from_json(json.dumps(twice))


def test_zero_denominator_weight_is_a_value_error():
    # every reader of a weight turns Fraction's ZeroDivisionError into a
    # ValueError naming the value
    json_text = '{"n": 2, "edges": [{"id": 1, "u": 0, "v": 1, "w": "1/0"}]}'
    for build in (
        lambda: Graph(2, [(0, 1, "1/0")]),
        lambda: Graph.from_text("2 1\n1 2 1/0\n"),
        lambda: Graph.from_json(json_text),
        lambda: Graph(2, [(0, 1)]).with_weights({1: "1/0"}),
    ):
        with pytest.raises(ValueError, match="edge weights must be a number or a rational string"):
            build()
    assert Graph.from_text("2 1\n1 2 3/2\n").weight(1) == Fraction(3, 2)


@pytest.mark.parametrize(
    "payload,field",
    [
        ({"n": 2}, "'edges'"),
        ({"edges": []}, "'n'"),
        ({"n": 2, "edges": [{"id": 1, "u": 0, "v": 1}]}, "'w'"),
        ({"n": 2, "edges": [{"u": 0, "v": 1, "w": "1"}]}, "'id'"),
        ({"n": 2, "edges": [7]}, "'id'"),
        ({"n": 2, "edges": 5}, "'edges'"),
        ([], "'n'"),
        ({"n": 2, "edges": [{"id": 1, "u": 0, "v": 1, "w": None}]}, "weight"),
        ({"n": 2, "edges": [{"id": 1, "u": 0, "v": 1, "w": [1]}]}, "weight"),
        ({"n": 2, "edges": [{"id": 1, "u": 0, "v": 1, "w": "x"}]}, "weight"),
    ],
)
def test_from_json_names_the_missing_or_mistyped_field(payload, field):
    with pytest.raises(ValueError, match=field):
        Graph.from_json(json.dumps(payload))


def test_from_text_rejects_malformed_lines():
    for text in ("3\n", "2 1\n1\n", "2 1 0\n1 2\n", "2 1\n1 2 3 4\n"):
        with pytest.raises(ValueError, match="graph text must be"):
            Graph.from_text(text)


def _attribute_writes(tree):
    """(line, text) of each assignment to an attribute of a name other than
    self (or to an item of such an underscore attribute), and of each
    getattr/setattr/delattr of an underscore name on one."""
    def owner(node):
        return node.id if isinstance(node, ast.Name) else None

    def written(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from written(elt)
        elif isinstance(target, ast.Starred):
            yield from written(target.value)
        elif isinstance(target, ast.Attribute) and owner(target.value) != "self":
            yield target
        elif (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr.startswith("_")
        ):
            yield from written(target.value)

    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for attr in written(target):
                yield node.lineno, ast.unparse(attr)
        if (
            isinstance(node, ast.Call)
            and owner(node.func) in ("getattr", "setattr", "delattr")
            and len(node.args) >= 2
            and owner(node.args[0]) != "self"
            and isinstance(node.args[1], ast.Constant)
            and str(node.args[1].value).startswith("_")
        ):
            yield node.lineno, ast.unparse(node)


def test_only_graph_module_sets_attributes_on_other_objects():
    src = Path(graph_module.__file__).parent
    found = [
        f"{path.name}:{line}: {text}"
        for path in sorted(src.glob("*.py"))
        if path.name != "graph.py"
        for line, text in _attribute_writes(ast.parse(path.read_text()))
    ]
    assert found == []
    # the guard sees what it is meant to catch
    probe = ast.parse(
        "g._x = 1\ng.y += 1\na, h.z = 1, 2\ng._d[k] = 1\ngetattr(g, '_x')\nsetattr(g, '_y', 1)\n"
        "self.ok = 1\ngetattr(g, 'ok')\nrows[np.arange(3)] = 1\ng.d[k] = 1\nself._d[k] = 1"
    )
    assert [line for line, _ in _attribute_writes(probe)] == [1, 2, 3, 4, 5, 6]


def test_girth_known_values():
    assert cycle_graph(5).girth() == 5
    assert complete_graph(4).girth() == 3
    assert Graph(2, [(0, 1), (0, 1)]).girth() == 2
    assert Graph(4, [(0, 1), (1, 2), (2, 3)]).girth() is None
    assert Graph(3).girth() is None


@pytest.mark.parametrize("seed", range(20))
def test_girth_matches_shortest_enumerated_cycle(seed):
    g = random_multigraph(seed, n_lo=3, n_hi=6)
    cycles = g.enumerate_cycles()
    if cycles:
        assert g.girth() == len(cycles[0])
    else:
        assert g.girth() is None


@pytest.mark.parametrize("seed", range(20))
def test_enumerate_cycles_matches_subset_exhaustion(seed):
    g = random_multigraph(seed, n_lo=3, n_hi=5, extra_parallel=3)
    if g.m > 12:
        g = g.keep_edges(g.edge_ids()[:12])
    assert g.enumerate_cycles() == brute_force_cycles(g, max_edges=12)


@pytest.mark.parametrize("seed", range(12))
def test_girth_and_cycles_match_networkx(seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
    g = Graph(n, pairs[:14])
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(pairs[:14])
    want = nx.girth(h)
    assert g.girth() == (None if want == float("inf") else want)
    eid = {frozenset((u, v)): e for e, u, v, _ in g.edges()}
    cycles = {
        frozenset(eid[frozenset((c[i], c[i - 1]))] for i in range(len(c)))
        for c in nx.simple_cycles(h)
    }
    assert set(g.enumerate_cycles()) == cycles
    assert len(g.enumerate_cycles()) == len(cycles)


def test_enumerate_cycles_all_simple():
    g = complete_graph(5)
    cycles = g.enumerate_cycles()
    assert all(is_simple_cycle(g, c) for c in cycles)
    # K5: C(5,3) + C(5,4)*3 + C(5,5)*12 = 37 cycles
    assert len(cycles) == 37


def test_spanning_forest_and_is_forest():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.is_forest()
    assert g.spanning_forest() == [1, 2, 3]
    g2 = cycle_graph(3)
    assert not g2.is_forest()
    assert len(g2.spanning_forest()) == 2


def test_delete_and_keep_edges():
    g = cycle_graph(4)
    h = g.delete_edges([2])
    assert h.edge_ids() == [1, 3, 4]
    assert h.n == g.n
    k = g.keep_edges({1, 2})
    assert k.edge_ids() == [1, 2]
    with pytest.raises(KeyError):
        g.delete_edges([9])


def test_contract_partition_keeps_parallel_drops_internal():
    g = cycle_graph(4)  # edges 1:(0,1) 2:(1,2) 3:(2,3) 4:(3,0)
    h, vmap = g.contract_partition([[0, 1], [2, 3]])
    assert h.n == 2
    assert vmap == {0: 0, 1: 0, 2: 1, 3: 1}
    # edges 1 and 3 became internal; 2 and 4 survive as a parallel pair
    assert h.edge_ids() == [2, 4]
    assert h.girth() == 2


def test_contract_partition_validates():
    g = cycle_graph(3)
    with pytest.raises(ValueError):
        g.contract_partition([[0, 1]])
    with pytest.raises(ValueError):
        g.contract_partition([[0, 1], [1, 2]])


def test_contract_edges():
    g = cycle_graph(5)
    h, vmap = g.contract_edges([1, 2])  # contract path 0-1-2 to a point
    assert h.n == 3
    assert h.m == 3
    assert sorted(vmap.values()) == [0, 0, 0, 1, 2]
    assert h.min_cut().value == 2


def test_subdivide_index_arithmetic():
    g = Graph(3, [(0, 1), (1, 2)])
    h = g.subdivide(3)
    # edge i -> ids (i-1)*3+1 .. 3i; interior vertices appended in edge order
    assert h.n == 3 + 2 * 2
    assert h.edge_ids() == [1, 2, 3, 4, 5, 6]
    assert h.edge(1)[0] == 0 and h.edge(3)[1] == 1
    assert h.edge(4)[0] == 1 and h.edge(6)[1] == 2
    gc = cycle_graph(4)
    assert gc.subdivide(2).girth() == 8


def test_subdivide_keeps_weights():
    g = Graph(2, [(0, 1, Fraction(3, 2))])
    h = g.subdivide(2)
    assert [h.weight(e) for e in h.edge_ids()] == [Fraction(3, 2)] * 2


def test_duplicate_edges():
    g = cycle_graph(3)
    h = g.duplicate_edges(2)
    assert h.m == 6
    assert h.edge_ids() == [1, 2, 3, 4, 5, 6]
    assert h.edge(3)[:2] == h.edge(4)[:2]  # copies of original edge 2
    assert h.girth() == 2
    assert h.min_cut().value == 4


def test_induced_subgraph():
    g = complete_graph(4)
    h, vmap = g.induced_subgraph([1, 2, 3])
    assert h.n == 3 and h.m == 3
    assert set(vmap) == {1, 2, 3}
    # surviving ids are those of edges within {1,2,3}
    survivors = [eid for eid, u, v, _ in g.edges() if u != 0 and v != 0]
    assert h.edge_ids() == survivors


def test_with_weights_and_unit_weights():
    g = Graph(2, [(0, 1, 3)])
    h = g.with_weights({1: Fraction(1, 4)})
    assert h.weight(1) == Fraction(1, 4)
    assert g.weight(1) == 3  # original untouched
    assert h.with_unit_weights().weight(1) == 1


def test_text_round_trip():
    g = Graph(3, [(0, 1), (1, 2, Fraction(1, 2)), (0, 2, 4)])
    text = g.to_text()
    assert text.splitlines()[0] == "3 3"
    assert Graph.from_text(text).to_text() == text
    with pytest.raises(ValueError):
        Graph.from_text("2 2\n1 2\n")
    with pytest.raises(ValueError, match="empty graph text"):
        Graph.from_text(" \n\n")


def test_json_round_trip_preserves_ids():
    g = cycle_graph(4).delete_edges([2])
    h = Graph.from_json(g.to_json())
    assert h.edge_ids() == [1, 3, 4]
    assert h.to_json() == g.to_json()


def test_from_json_refuses_edge_id_zero():
    text = json.dumps({"n": 2, "edges": [{"id": 0, "u": 0, "v": 1, "w": "1"}]})
    with pytest.raises(ValueError, match="edge ids must be >= 1"):
        Graph.from_json(text)


def test_contract_partition_refuses_an_empty_part():
    with pytest.raises(ValueError, match="empty part"):
        cycle_graph(4).contract_partition([[0, 1], [], [2, 3]])


@pytest.mark.parametrize("vertices", [[0, 4], [-1, 2]])
def test_induced_subgraph_refuses_an_out_of_range_vertex(vertices):
    with pytest.raises(ValueError, match="vertex out of range"):
        cycle_graph(4).induced_subgraph(vertices)


@pytest.mark.parametrize("method", ["subdivide", "duplicate_edges"])
def test_subdivide_and_duplicate_refuse_zero(method):
    with pytest.raises(ValueError, match="s must be >= 1"):
        getattr(cycle_graph(4), method)(0)


def test_adjacency_sorted_with_multiplicity():
    g = Graph(3, [(0, 1), (0, 1), (0, 2)])
    assert g.adjacency()[0] == [(1, 1), (1, 2), (2, 3)]
    assert g.degree(0) == 3

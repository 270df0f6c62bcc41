"""Independence oracles, the query ledger, and oracle sessions.

The exhaustive axiom checks enumerate every subset of small ground sets, so
they certify downward closure and the exchange property with no sampling.
Duality is checked against full-rank complements computed straight from the
graph.
"""

import itertools
import json
import random

import pytest

from edgewise.graph import Graph, UnionFind
from edgewise.matroid import (
    COGRAPHIC,
    GRAPHIC,
    OracleSession,
    QueryLedger,
    _rank,
    ind_cographic,
    ind_graphic,
)
from oracles import brute_force_ranks


def random_multigraph(seed: int, n_max: int = 6, m_max: int = 8) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    m = rng.randint(0, m_max)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            v = (v + 1) % n
        edges.append((u, v))
    return Graph(n, edges)


def graphic_rank(g: Graph, subset) -> int:
    uf = UnionFind(g.n)
    r = 0
    for eid in sorted(subset):
        u, v, _ = g.edge(eid)
        if uf.union(u, v):
            r += 1
    return r


# -- raw oracles -------------------------------------------------------------


def test_ind_graphic_forest_and_cycle():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert ind_graphic(g, set())
    assert ind_graphic(g, {1, 2, 3})
    assert not ind_graphic(g, {1, 2, 3, 4})


def test_ind_graphic_parallel_pair_dependent():
    g = Graph(2, [(0, 1), (0, 1)])
    assert ind_graphic(g, {1})
    assert ind_graphic(g, {2})
    assert not ind_graphic(g, {1, 2})


def test_ind_cographic_bridge_dependent():
    # removing a bridge splits a component, so {bridge} is dependent
    g = Graph(3, [(0, 1), (1, 2)])
    assert not ind_cographic(g, {1})
    assert ind_cographic(g, set())


def test_ind_cographic_cycle_edge_independent():
    g = Graph(3, [(0, 1), (1, 2), (2, 0)])
    assert ind_cographic(g, {1})
    assert ind_cographic(g, {2})
    assert not ind_cographic(g, {1, 2})


def test_ind_unknown_edge_raises():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(KeyError):
        ind_graphic(g, {7})
    with pytest.raises(KeyError):
        ind_cographic(g, {7})


# -- matroid axioms, exhaustively on small ground sets -----------------------


def check_axioms(ind) -> None:
    """ind: dict frozenset -> bool over the full power set."""
    ground = max(ind, key=len)
    assert ind[frozenset()]
    for s, ok in ind.items():
        if not ok:
            continue
        # downward closure
        for e in s:
            assert ind[s - {e}], f"subset of independent {sorted(s)} dependent"
    for s, s_ok in ind.items():
        if not s_ok:
            continue
        for t, t_ok in ind.items():
            if not t_ok or len(t) <= len(s):
                continue
            # exchange: some element of the larger set extends the smaller
            assert any(
                ind[s | {e}] for e in t - s
            ), f"no exchange from {sorted(t)} into {sorted(s)}"
    assert ground is not None


@pytest.mark.parametrize("kind", [GRAPHIC, COGRAPHIC])
@pytest.mark.parametrize("seed", range(8))
def test_axioms_exhaustive(kind, seed):
    g = random_multigraph(seed, n_max=5, m_max=8)
    oracle = ind_graphic if kind == GRAPHIC else ind_cographic
    ids = list(g.edge_ids())
    table = {}
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            table[frozenset(combo)] = oracle(g, set(combo))
    check_axioms(table)


@pytest.mark.parametrize("seed", range(8))
def test_duality_complement_spans(seed):
    # S independent in the cut matroid iff E-S has full cycle-matroid rank
    g = random_multigraph(seed, n_max=5, m_max=8)
    ids = set(g.edge_ids())
    full = graphic_rank(g, ids)
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(sorted(ids), r):
            s = set(combo)
            expect = graphic_rank(g, ids - s) == full
            assert ind_cographic(g, s) == expect


# -- query ledger -------------------------------------------------------------


def test_ledger_counts_and_phases():
    led = QueryLedger()
    led.record("probe", 2)
    led.record("probe", 1)
    led.record("sweep", 0)
    assert led.rounds == [("probe", 2), ("probe", 1), ("sweep", 0)]
    assert led.total_rounds == 3
    assert led.total_queries == 3
    d = led.to_dict()
    assert d["total_rounds"] == 3
    assert d["total_queries"] == 3
    assert d["phases"] == [
        {"label": "probe", "rounds": [2, 1]},
        {"label": "sweep", "rounds": [0]},
    ]
    # round-trips through json
    assert json.loads(led.to_json()) == d


def test_query_is_one_adhoc_round_of_one():
    s = OracleSession(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), GRAPHIC)
    assert s.query({1, 2})
    assert s.ledger.rounds == [("adhoc", 1)]
    s.run_round("batch", s.query_rows([{1}, {2}, {1, 2, 3, 4}]))
    assert not s.query({1, 2, 3, 4})
    assert s.ledger.rounds == [("adhoc", 1), ("batch", 3), ("adhoc", 1)]


def test_ledger_totals_equal_round_counts_across_session_calls():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # (op, seed): query one subset, run a round of several, or try a contraction
    ops = st.lists(st.tuples(st.sampled_from(["query", "round", "contract"]), st.integers(0, 2**32)),
                   max_size=12)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, 40), st.sampled_from([GRAPHIC, COGRAPHIC]), ops)
    def check(graph_seed, kind, steps):
        s = OracleSession(random_multigraph(graph_seed), kind)
        billed = []  # (label, count) of every round the calls should have opened
        for op, seed in steps:
            rng = random.Random(seed)
            elems = s.elements()
            if op == "query":
                s.query({e for e in elems if rng.random() < 0.5})
                billed.append(("adhoc", 1))
            elif op == "round":
                sets = [{e for e in elems if rng.random() < 0.5} for _ in range(rng.randint(0, 5))]
                answers = s.run_round("batch", s.query_rows(sets))
                assert len(answers) == len(sets)
                billed.append(("batch", len(sets)))
            elif elems:
                try:
                    s.contract({rng.choice(elems)})  # bills nothing, answered or refused
                except ValueError:
                    pass
        assert s.ledger.rounds == billed
        assert s.ledger.total_rounds == len(billed)
        assert s.ledger.total_queries == sum(c for _, c in billed)
        assert s.ledger.to_dict()["total_queries"] == sum(
            sum(phase["rounds"]) for phase in s.ledger.to_dict()["phases"]
        )

    check()


# -- oracle sessions -----------------------------------------------------------


def test_session_query_counts_rounds():
    g = Graph(3, [(0, 1), (1, 2), (2, 0)])
    s = OracleSession(g, GRAPHIC)
    assert s.query({1, 2})
    assert not s.query({1, 2, 3})
    assert s.ledger.total_rounds == 2
    assert s.ledger.total_queries == 2
    assert s.ledger.to_dict()["phases"][0]["label"] == "adhoc"


def test_session_run_round_batches():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    s = OracleSession(g, GRAPHIC)
    answers = s.run_round("window", s.query_rows([{1}, {2}, {1, 2, 3, 4}, set()]))
    assert answers.tolist() == [True, True, False, True]
    assert s.ledger.total_rounds == 1
    assert s.ledger.total_queries == 4


def test_session_run_round_validates_before_opening():
    g = Graph(3, [(0, 1), (1, 2)])
    s = OracleSession(g, GRAPHIC)
    with pytest.raises(KeyError):
        s.run_round("bad", s.query_rows([{1}, {9}]))
    with pytest.raises(ValueError, match="matrix"):
        s.run_round("bad", [[1, 0, 1]])  # three columns over two elements
    for bad in ([[2, 0]], [[0.5, 1]], [[-1, 0]], [["1", "0"]]):
        with pytest.raises(ValueError, match=r"need a \(queries, 2\) 0/1 matrix over elements\(\)"):
            s.run_round("bad", bad)
    # the failed batch must not have opened or counted a round
    assert s.ledger.total_rounds == 0
    assert s.ledger.total_queries == 0
    # any dtype holding only 0 and 1 is a query matrix
    assert s.run_round("good", [[True, False], [1.0, 1.0]]).tolist() == [True, True]
    assert s.ledger.rounds == [("good", 2)]


def test_session_contract_changes_answers():
    # triangle: after contracting edge 1, edges 2 and 3 become parallel
    g = Graph(3, [(0, 1), (1, 2), (2, 0)])
    s = OracleSession(g, GRAPHIC)
    s.contract({1})
    assert s.query({2})
    assert s.query({3})
    assert not s.query({2, 3})


def test_session_contract_dependent_rejected():
    g = Graph(2, [(0, 1), (0, 1)])
    s = OracleSession(g, GRAPHIC)
    with pytest.raises(ValueError):
        s.contract({1, 2})


def test_session_contract_is_checked_off_the_ledger():
    # a bridge is a loop of the cographic matroid: contracting it is refused,
    # and neither the refusal nor a good contraction is billed
    g = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    s = OracleSession(g, COGRAPHIC)
    with pytest.raises(ValueError, match="dependent"):
        s.contract({4})
    s.contract({1})
    with pytest.raises(ValueError, match="dependent"):
        s.contract({2})  # {1, 2} leaves vertex 1 alone
    assert s.contracted == {1}
    assert s.ledger.rounds == []


def test_session_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown matroid kind 'bogus'"):
        OracleSession(Graph(2, [(0, 1)]), "bogus")


def test_session_delete_then_access_rejected():
    g = Graph(3, [(0, 1), (1, 2), (2, 0)])
    s = OracleSession(g, GRAPHIC)
    s.delete({2})
    with pytest.raises(ValueError):
        s.query({2})
    with pytest.raises(KeyError):
        s.query({17})
    assert s.elements() == [1, 3]


def test_session_contract_spanning_tree_exhausts_graphic():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
    s = OracleSession(g, GRAPHIC)
    s.contract({1, 2, 3})
    assert s.rank() == 0
    for eid in s.elements():
        assert not s.query({eid})


@pytest.mark.parametrize("kind", [GRAPHIC, COGRAPHIC])
@pytest.mark.parametrize("seed", range(6))
def test_session_query_is_minor_independence(kind, seed):
    # Ind_{M/T\D}(S) must equal Ind_M(S | T) for surviving S
    g = random_multigraph(seed + 50, n_max=5, m_max=8)
    base = ind_graphic if kind == GRAPHIC else ind_cographic
    s = OracleSession(g, kind)
    rng = random.Random(seed)
    ids = sorted(s.elements())
    # contract a random independent singleton when one exists, delete another
    for eid in rng.sample(ids, min(len(ids), 4)):
        if eid not in s.elements():
            continue
        if rng.random() < 0.5 and base(g, s.contracted | {eid}):
            s.contract({eid})
        elif len(s.elements()) > 1:
            s.delete({eid})
    for r in range(len(s.elements()) + 1):
        for combo in itertools.combinations(sorted(s.elements()), r):
            expect = base(g, set(combo) | s.contracted)
            assert s.query(set(combo)) == expect


@pytest.mark.parametrize("kind", [GRAPHIC, COGRAPHIC])
def test_session_round_answers_match_union_find_past_one_word(kind):
    # m > 64 spreads a query over two words; the batched answers must agree
    # with the union-find references, with contracted edges riding along
    rng = random.Random(9)
    g = Graph(40, [(rng.randrange(40), rng.randrange(40)) for _ in range(90)])
    assert g.m > 64
    base = ind_graphic if kind == GRAPHIC else ind_cographic
    s = OracleSession(g, kind)
    for eid in g.edge_ids()[:30]:
        if base(g, s.contracted | {eid}):
            s.contract({eid})
    assert s.contracted
    ids = s.elements()
    queries = [set(rng.sample(ids, rng.randint(0, 12))) for _ in range(300)]
    answers = s.run_round("mixed", s.query_rows(queries)).tolist()
    assert answers == [base(g, q | s.contracted) for q in queries]
    assert True in answers and False in answers
    assert s.ledger.rounds[-1] == ("mixed", 300)


# -- rank and minor oracles ----------------------------------------------------


def test_rank_examples():
    path = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert OracleSession(path, GRAPHIC).rank() == 4
    assert OracleSession(path, COGRAPHIC).rank() == 0
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert OracleSession(c5, GRAPHIC).rank() == 4
    assert OracleSession(c5, COGRAPHIC).rank() == 1
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert OracleSession(k4, GRAPHIC).rank() == 3
    assert OracleSession(k4, COGRAPHIC).rank() == 3


@pytest.mark.parametrize("kind", [GRAPHIC, COGRAPHIC])
@pytest.mark.parametrize("seed", range(6))
def test_rank_drops_by_one_per_contraction(kind, seed):
    g = random_multigraph(seed + 100, n_max=5, m_max=8)
    base = ind_graphic if kind == GRAPHIC else ind_cographic
    s = OracleSession(g, kind)
    r0 = s.rank()
    taken = 0
    for eid in sorted(s.elements()):
        if base(g, s.contracted | {eid}):
            s.contract({eid})
            taken += 1
            assert s.rank() == r0 - taken
    assert taken == r0  # greedy reaches a basis


def rank_test_graph(seed: int) -> Graph:
    """Seeded multigraph of at most 10 edges on two vertex blocks, plus an
    isolated vertex and a parallel copy of its first edge."""
    rng = random.Random(seed)
    n = rng.randint(5, 8)
    cut = rng.randint(2, n - 3)
    blocks = [list(range(cut)), list(range(cut, n - 1))]
    edges = [tuple(rng.sample(blocks[i % 2], 2)) for i in range(rng.randint(6, 9))]
    return Graph(n, edges + [edges[0]])


@pytest.mark.parametrize("kind", [GRAPHIC, COGRAPHIC])
@pytest.mark.parametrize("seed", range(6))
def test_rank_matches_brute_force_on_every_subset(kind, seed):
    g = rank_test_graph(seed)
    assert g.degree(g.n - 1) == 0 and g.component_count() >= 3
    ranks = brute_force_ranks(g, kind)
    assert len(ranks) == 2**g.m
    for S, r in ranks.items():
        assert _rank(g, kind, S) == r, sorted(S)


def test_cographic_rank_sweep_counts_the_whole_graph_once(monkeypatch):
    # c(E) is the same for every subset, so a sweep joins every edge once
    whole = []
    union_find = Graph.union_find

    def counting(self, eids=None):
        if eids is None:
            whole.append(self)
        return union_find(self, eids)

    graphs = [rank_test_graph(seed) for seed in range(3)]
    sweeps = [list(itertools.islice(brute_force_ranks(g, COGRAPHIC), 64)) for g in graphs]
    monkeypatch.setattr(Graph, "union_find", counting)
    for g, subsets in zip(graphs, sweeps):
        for S in subsets:
            _rank(g, COGRAPHIC, S)
    assert whole == graphs


@pytest.mark.parametrize("kind", [GRAPHIC, COGRAPHIC])
@pytest.mark.parametrize("seed", range(6))
def test_session_rank_is_minor_rank(kind, seed):
    # rank of M/T\D: the largest X outside T and D with X | T independent
    g = rank_test_graph(seed + 20)
    rng = random.Random(seed)
    ground = frozenset(g.edge_ids())
    for _ in range(4):
        s = OracleSession(g, kind)
        for eid in rng.sample(sorted(ground), rng.randint(0, g.m)):
            if rng.random() < 0.5:
                if s.query({eid}):
                    s.contract({eid})
            else:
                s.delete({eid})
        T, D = frozenset(s.contracted), frozenset(s.deleted)
        assert s.rank() == brute_force_ranks(g, kind, given=T)[ground - T - D]


def test_rank_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 6))
        vertex = st.integers(0, n - 1)
        g = Graph(n, draw(st.lists(st.tuples(vertex, vertex), max_size=9)))
        steps = draw(st.lists(st.tuples(st.sampled_from(g.edge_ids() or [0]), st.booleans())))
        return g, draw(st.sampled_from([GRAPHIC, COGRAPHIC])), steps

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    def check(case):
        g, kind, steps = case
        ranks = brute_force_ranks(g, kind)
        for S, r in ranks.items():
            assert _rank(g, kind, S) == r
        s = OracleSession(g, kind)
        for eid, contract in steps:
            if eid not in s.elements():
                continue
            if not contract:
                s.delete({eid})
            elif s.query({eid}):
                s.contract({eid})
        T, D = frozenset(s.contracted), frozenset(s.deleted)
        assert s.rank() == brute_force_ranks(g, kind, given=T)[frozenset(g.edge_ids()) - T - D]

    check()


def test_rank_survives_selfloop_dropping_minors():
    # cographic: deleting an element parallel to another makes the survivor a
    # coloop of the minor; a count on the self-loop-dropping minor graph
    # would say 1, but {2,3} really is independent there (checked below)
    g = Graph(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
    s = OracleSession(g, COGRAPHIC)
    assert s.rank() == 2
    s.delete({1})
    assert s.rank() == 2
    assert s.query({2, 3})
    assert not s.query({2, 3, 4})
    # graphic: contracting one of a parallel pair turns the other into a loop
    g2 = Graph(2, [(0, 1), (0, 1)])
    s2 = OracleSession(g2, GRAPHIC)
    s2.contract({1})
    assert s2.rank() == 0
    assert s2.min_circuit_size() == 1


def test_min_circuit_size_examples():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert OracleSession(c5, GRAPHIC).min_circuit_size() == 5
    assert OracleSession(c5, COGRAPHIC).min_circuit_size() == 2
    tree = Graph(3, [(0, 1), (1, 2)])
    assert OracleSession(tree, GRAPHIC).min_circuit_size() is None
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert OracleSession(k4, GRAPHIC).min_circuit_size() == 3
    assert OracleSession(k4, COGRAPHIC).min_circuit_size() == 3
    lonely = Graph(2, [(0, 1)])
    assert OracleSession(lonely, COGRAPHIC).min_circuit_size() == 1


def test_minor_graph_edge_ids_preserved():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    s = OracleSession(g, GRAPHIC)
    s.delete({5})
    s.contract({1})
    h = s.minor_graph()
    assert set(h.edge_ids()) == {2, 3, 4}
    assert h.n == 3

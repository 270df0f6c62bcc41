"""Reweighting tests: clustering contract, recursion invariants, and both
directions of the cut/leverage correspondence."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

import edgewise.reweight as reweight_module
from edgewise.experiments import gen_graph
from edgewise.graph import Graph
from edgewise.reweight import (
    auto_delta,
    cluster_low_rdiam,
    reweight_min_cut,
    verify_converse,
)
from edgewise.spectral import leverage_scores, resistance_diameter
from oracles import greedy_partition_reference, induced_resistance_diameter


def cycle_graph(L):
    return Graph(L, [(i, (i + 1) % L) for i in range(L)])


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def dumbbell():
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u + 5, v + 5) for u in range(5) for v in range(u + 1, 5)]
    edges += [(0, 5)]
    return Graph(10, edges)


def check_partition_contract(g, cp):
    covered = sorted(v for p in cp.parts for v in p)
    assert covered == list(range(g.n))
    w_total = g.total_weight()
    assert cp.crossing_weight <= w_total / 2
    rho = cp.alpha_used * g.n / float(w_total)
    for part in cp.parts:
        sub, _ = g.induced_subgraph(part)
        assert sub.is_connected()
        assert resistance_diameter(g, part) <= rho + 1e-9
    assert abs(cp.max_part_rdiam * float(w_total) / g.n - cp.alpha_eff) < 1e-12


def test_cluster_single_edge():
    g = Graph(2, [(0, 1)])
    cp = cluster_low_rdiam(g)
    assert cp.parts == ((0, 1),)
    assert cp.crossing_weight == 0
    check_partition_contract(g, cp)


def test_cluster_single_vertex():
    cp = cluster_low_rdiam(Graph(1))
    assert cp.parts == ((0,),)
    assert cp.crossing_weight == 0 and cp.max_part_rdiam == 0.0


def test_cluster_complete_graph_single_part():
    g = complete_graph(8)
    cp = cluster_low_rdiam(g)
    assert cp.h == 1
    assert cp.alpha_used == 1.0
    check_partition_contract(g, cp)


def test_cluster_dumbbell_splits_at_bridge():
    g = dumbbell()
    cp = cluster_low_rdiam(g)
    assert sorted(len(p) for p in cp.parts) == [5, 5]
    assert cp.crossing_weight == 1
    check_partition_contract(g, cp)


@pytest.mark.parametrize("n", [12, 30, 61])
def test_cluster_cycle(n):
    g = cycle_graph(n)
    cp = cluster_low_rdiam(g)
    check_partition_contract(g, cp)
    assert cp.h > 1  # big cycles cannot be one low-diameter part


def test_cluster_deterministic():
    g = dumbbell()
    assert cluster_low_rdiam(g) == cluster_low_rdiam(g)


def test_cluster_rejects_disconnected():
    with pytest.raises(ValueError):
        cluster_low_rdiam(Graph(4, [(0, 1), (2, 3)]))


@pytest.mark.parametrize(
    "key,value",
    [
        ("alpha", -1),
        ("alpha", 0),
        ("alpha", 0.0),
        ("alpha", math.nan),
        ("alpha", math.inf),
        ("max_doublings", -1),
        ("max_doublings", 1.5),
        ("max_doublings", True),
        ("max_doublings", "3"),
    ],
)
def test_cluster_rejects_bad_alpha_and_doublings(key, value):
    with pytest.raises(ValueError, match=key):
        cluster_low_rdiam(cycle_graph(12), **{key: value})


def test_auto_delta():
    assert auto_delta(10, 1) == 2
    assert auto_delta(60, 90) == 2 * 60 * math.ceil(math.log(90))
    assert auto_delta(2, 2) == 2 * 2 * 1


def test_reweight_c3_all_unit_weights():
    res = reweight_min_cut(cycle_graph(3))
    assert res.level_count == 1
    assert all(w == 1 for w in res.weights.values())
    assert abs(res.max_leverage - 2.0 / 3.0) < 1e-9
    assert res.max_leverage <= 4 * res.alpha_eff / 2 + 1e-9


def test_reweight_k4_half():
    res = reweight_min_cut(complete_graph(4))
    assert abs(res.max_leverage - 0.5) < 1e-9
    assert res.max_leverage <= 4 * res.alpha_eff / 3 + 1e-9


def test_reweight_rejects_bad_input():
    with pytest.raises(ValueError, match="unit"):
        reweight_min_cut(Graph(2, [(0, 1, 2)]))
    with pytest.raises(ValueError, match="connected"):
        reweight_min_cut(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError, match="delta"):
        reweight_min_cut(cycle_graph(3), delta_param=1)
    for bad in (2.7, "7", True):  # never truncated to Delta = 2 or parsed
        with pytest.raises(ValueError, match="delta_param must be an int"):
            reweight_min_cut(cycle_graph(3), delta_param=bad)


def test_reweight_delta_param_auto_and_ints_still_work():
    g = complete_graph(5)
    assert reweight_min_cut(g, delta_param="auto").delta_param == reweight_min_cut(g).delta_param
    for delta in (2, 7):
        assert reweight_min_cut(g, delta_param=delta).delta_param == delta


@pytest.mark.parametrize(
    "g,c",
    [
        (cycle_graph(20), 2),
        (cycle_graph(9).duplicate_edges(2), 4),
        (complete_graph(7), 6),
        (dumbbell(), 1),
        (cycle_graph(30).duplicate_edges(3), 6),
    ],
)
def test_reweight_end_to_end_bound(g, c):
    assert g.min_cut().value == c
    res = reweight_min_cut(g)
    assert res.max_leverage <= 4 * res.alpha_eff / c + 1e-9
    # halving and monotonicity across levels
    counts = res.level_edge_counts
    assert all(counts[i + 1] <= counts[i] // 2 for i in range(len(counts) - 1))
    cuts = res.level_min_cuts
    assert all(cuts[i + 1] >= cuts[i] for i in range(len(cuts) - 1))
    assert res.level_count <= math.ceil(math.log2(g.m)) + 1
    # every edge got a weight 1/delta^level
    assert set(res.weights) == set(g.edge_ids())
    for eid, w in res.weights.items():
        assert w == Fraction(1, res.delta_param ** res.levels[eid])
    expected_ratio = Fraction(res.delta_param) ** (res.level_count - 1)
    assert res.weight_ratio == expected_ratio


def test_reweight_inductive_diameter_bound():
    # clusters formed at level i, read back in original vertices, have
    # weighted resistance diameter <= 2 * alpha_eff * delta^i * (1+n/delta)^i / c
    for g, c in [(cycle_graph(12), 2), (cycle_graph(8).duplicate_edges(2), 4)]:
        res = reweight_min_cut(g)
        gw = g.with_weights(res.weights)
        n, d = g.n, res.delta_param
        for i, parts in enumerate(res.level_partitions_original):
            bound = 2 * res.alpha_eff * d**i * (1 + n / d) ** i / c
            for part in parts:
                if len(part) > 1:
                    assert resistance_diameter(gw, part) <= bound + 1e-9


def test_reweight_csv_and_summary():
    res = reweight_min_cut(cycle_graph(5))
    lines = res.to_csv().splitlines()
    assert lines[0] == "edge,level,weight_num,weight_den,leverage"
    assert len(lines) == 6
    summary = res.summary_json()
    assert '"delta"' in summary and '"alpha_eff"' in summary


def test_verify_converse_tree():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    rep = verify_converse(g, {e: Fraction(1) for e in g.edge_ids()})
    assert rep.ok
    assert abs(rep.c - 1.0) < 1e-9
    assert rep.min_cut_value == 1


def test_verify_converse_c5():
    g = cycle_graph(5)
    rep = verify_converse(g, {e: Fraction(1) for e in g.edge_ids()})
    # uniform C5 leverage 4/5 certifies min cut >= 5/4; true cut is 2
    assert rep.ok
    assert abs(rep.c - 1.25) < 1e-9
    assert rep.min_cut_value == 2


def test_verify_converse_k4_with_explicit_c():
    g = complete_graph(4)
    weights = {e: Fraction(1) for e in g.edge_ids()}
    rep = verify_converse(g, weights, c=2.0)
    assert rep.ok and rep.min_cut_value == 3
    with pytest.raises(ValueError, match="precondition"):
        verify_converse(g, weights, c=4.0)  # leverage 1/2 > 1/4


def test_verify_converse_after_reweight():
    for g in [cycle_graph(10), complete_graph(6), dumbbell()]:
        res = reweight_min_cut(g)
        rep = verify_converse(g, res.weights)
        assert rep.ok, f"certified {rep.c} but cut is {rep.min_cut_value}"


# -- pruned clustering against the unpruned reference -------------------------


def weighted(g, pool):
    """g with edge i (in id order) weighted pool[i % len(pool)]."""
    return g.with_weights({eid: pool[i % len(pool)] for i, eid in enumerate(g.edge_ids())})


def tree_plus_chords(seed):
    """Random tree plus n // 8 chords: once parts are taken, balls around a
    seed often split into pieces that do not touch it."""
    rng = random.Random(seed)
    n = rng.randint(12, 30)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 8)]
    return Graph(n, edges)


THIRDS_SEVENTHS = [Fraction(1, 3), Fraction(2, 7)]
TENTHS = [Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)]

REFERENCE_GRAPHS = {
    "cycle12": cycle_graph(12),
    "cycle30": cycle_graph(30),
    "cycle61": cycle_graph(61),
    "dumbbell": dumbbell(),
    "complete8": complete_graph(8),
    "multi_cycle(5,3)": gen_graph("multi_cycle", {"length": 5, "copies": 3}),
    "multi_cycle(4,6)": gen_graph("multi_cycle", {"length": 4, "copies": 6}),
    **{
        f"expander({n},{d})#{seed}": gen_graph(
            "expander_like", {"vertices": n, "degree": d}, seed=seed
        )
        for n, d in ((24, 4), (48, 6))
        for seed in range(5)
    },
    # float sums of these weights round
    "cycle20/thirds": weighted(cycle_graph(20), THIRDS_SEVENTHS),
    "dumbbell/tenths": weighted(dumbbell(), TENTHS),
    "complete7/mixed": weighted(complete_graph(7), THIRDS_SEVENTHS + TENTHS),
    "expander(24,4)/mixed": weighted(
        gen_graph("expander_like", {"vertices": 24, "degree": 4}), TENTHS + THIRDS_SEVENTHS
    ),
    "cycle9x2/tenths": weighted(cycle_graph(9).duplicate_edges(2), TENTHS),
    **{f"tree+chords#{seed}": tree_plus_chords(seed) for seed in range(5)},
    # scaled weights past int64, so crossing weights are Python ints
    "cycle10+chords/wide": weighted(
        Graph(10, [(i, (i + 1) % 10) for i in range(10)] + [(0, 5), (2, 7), (3, 8)]),
        [Fraction(1, 3**10), Fraction(1, 7**9), Fraction(2, 11**8), Fraction(5, 13**7)],
    ),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
def test_cluster_equals_unpruned_reference(name):
    g = REFERENCE_GRAPHS[name]
    assert cluster_low_rdiam(g) == greedy_partition_reference(g)


@pytest.mark.parametrize(
    "g",
    [
        gen_graph("cycle", {"length": 60}),
        gen_graph("cycle", {"length": 48}).duplicate_edges(2),
        gen_graph("expander_like", {"vertices": 48, "degree": 6}),
    ],
    ids=["cycle60", "cycle48x2", "expander48d6"],
)
def test_cluster_equals_reference_on_every_reweight_level(g, monkeypatch):
    seen = []
    pruned = reweight_module.cluster_low_rdiam

    def record(level, *args, **kwargs):
        seen.append(level)
        return pruned(level, *args, **kwargs)

    monkeypatch.setattr(reweight_module, "cluster_low_rdiam", record)
    result = reweight_min_cut(g)
    assert len(seen) == result.level_count
    for level in seen:
        assert pruned(level) == greedy_partition_reference(level)


def test_pruning_solves_fewer_diameters_through_the_named_entry_point(monkeypatch):
    # the bench counts part solves by wrapping resistance_diameter by name: a
    # bypass reads 0 calls, a lost pruning as many as the unpruned search, and
    # a one-vertex part, of diameter 0, is not a call (48 of 49 here if it were)
    g = gen_graph("expander_like", {"vertices": 48, "degree": 4})
    calls, ref_calls = [], []
    real = reweight_module.resistance_diameter

    def counted(graph, part=None):
        calls.append(part)
        return real(graph, part)

    def ref_counted(graph, part):
        ref_calls.append(part)
        return induced_resistance_diameter(graph, part)

    monkeypatch.setattr(reweight_module, "resistance_diameter", counted)
    assert cluster_low_rdiam(g) == greedy_partition_reference(g, solve=ref_counted)
    assert 0 < len(calls) < len(ref_calls)
    assert all(len(part) > 1 for part in calls)


# sha256 of summary_json() + to_csv() + repr(level_partitions_original),
# captured before clustering grew each seed's piece incrementally; shapes as
# in the reweight benchmark
REWEIGHT_PINS = {
    "cycle60": (
        lambda: gen_graph("cycle", {"length": 60}),
        "065c7a45cd8cdc8b3e8fe098767a79d7f505c0f8efc717613d264adfaa6e76a0",
    ),
    "cycle48x2": (
        lambda: gen_graph("cycle", {"length": 48}).duplicate_edges(2),
        "d424bfb9fb6b8a479397ee0de536e4f013528b0a57a5e68e6b22bf81acb6b270",
    ),
    "complete9": (
        lambda: gen_graph("complete", {"vertices": 9}),
        "99a4bdc3f67898d8aa03693ea2c9ed2fc550a375773bb0f88a382f30a7731efb",
    ),
    "multi_cycle(6,5)": (
        lambda: gen_graph("multi_cycle", {"length": 6, "copies": 5}),
        "22e55d8a5c1d6c3db816f8f77c7d886c9a71138bee230e583dcb9f0fba37cf17",
    ),
    "expander48d6#7": (
        lambda: gen_graph("expander_like", {"vertices": 48, "degree": 6}, seed=7),
        "2f9190343184857b9e1ce064b8b1f25c1f42353976daddc30c3ea1ae4e74c7ce",
    ),
}


@pytest.mark.parametrize("name", sorted(REWEIGHT_PINS))
def test_reweight_report_bytes_pinned(name):
    make, digest = REWEIGHT_PINS[name]
    res = reweight_min_cut(make())
    blob = res.summary_json() + res.to_csv() + repr(res.level_partitions_original)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "g",
    [gen_graph("expander_like", {"vertices": 48, "degree": 4}), cycle_graph(30)],
    ids=["expander48d4", "cycle30"],
)
def test_solved_balls_become_parts_or_do_not_fit(g, monkeypatch):
    # balls are tried in key order, so within one pass a solved multi-vertex
    # ball that fits is the winner; a search in radius order would also
    # solve fitting balls that lose later (1 here on expander48d4, 9 on cycle30)
    solved = []
    real = reweight_module.resistance_diameter

    def counted(graph, part=None):
        solved.append((part, real(graph, part)))
        return solved[-1][1]

    monkeypatch.setattr(reweight_module, "resistance_diameter", counted)
    alpha = 2.0  # the first alpha both graphs cluster at
    cp = cluster_low_rdiam(g, alpha=alpha, max_doublings=0)
    rho = alpha * g.n / float(g.total_weight())
    assert solved and len(solved) <= 50
    for part, diam in solved:
        assert len(part) == 1 or part in cp.parts or diam > rho + 1e-9


def test_clustering_rejects_an_empty_or_weightless_graph():
    with pytest.raises(ValueError, match="empty graph"):
        cluster_low_rdiam(Graph(0), 1.0)
    with pytest.raises(ValueError, match="total weight is zero"):
        cluster_low_rdiam(Graph(2, [(0, 1, 0)]), 1.0)


def test_converse_needs_an_edge():
    with pytest.raises(ValueError, match="graph has no edges"):
        verify_converse(Graph(3), {})

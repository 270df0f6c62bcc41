"""Tests for the experiment harness: generators, rate experiments, reports."""

import hashlib
import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from edgewise import experiments as experiments_module
from edgewise import reweight as reweight_module
from edgewise import samplespace
from edgewise.basisfind import PreconditionError
from edgewise.experiments import (
    ExperimentReport,
    conditional_bias_check,
    connectivity_experiment,
    cyclefree_experiment,
    gen_graph,
    graph_summary,
    instance_label,
    load_graph,
    reweight_then_connectivity,
    sparsify_experiment,
    union_bound_component_floor,
    unique_cut_survival_experiment,
    unique_cycle_survival_experiment,
)
from edgewise.graph import Graph
from edgewise.reweight import reweight_min_cut
from edgewise.samplespace import (
    SupportTooLargeError,
    almost_builder,
    build_almost_kwise,
    build_kwise,
    dump_support,
    exact_builder,
    group_heterogeneous,
    verify_independence,
    with_marginal,
)
from edgewise.spectral import edge_form_checker, leverage_scores, sparsify_rates, spectral_approx_check
from oracles import loop_union_bound_floor, word_ints

HALF = Fraction(1, 2)


def full_space(m):
    # k = n makes the polynomial space the full cube, handy for exact counts
    return build_kwise(m, m)


# ---------------------------------------------------------------------------
# generators


def test_cycle_generator_basics():
    g = gen_graph("cycle", {"length": 7})
    assert (g.n, g.m) == (7, 7)
    s = graph_summary(g)
    assert s["girth"] == 7
    assert s["min_cut"] == "2/1"


def test_multi_cycle_min_cut_scales_with_copies():
    g = gen_graph("multi_cycle", {"length": 5, "copies": 3})
    assert g.m == 15
    assert graph_summary(g)["min_cut"] == "6/1"


def test_subdivided_clique_girth():
    g = gen_graph("subdivided", {"vertices": 4, "pieces": 4})
    # every K4 edge becomes a 4-edge path, so triangles become 12-cycles
    assert graph_summary(g)["girth"] == 12
    assert g.m == 24


def test_complete_generator():
    g = gen_graph("complete", {"vertices": 4})
    assert (g.n, g.m) == (4, 6)


def test_theta_girth_from_two_shortest_paths():
    g = gen_graph("theta", {"lengths": [3, 4, 5]})
    assert g.m == 12
    assert graph_summary(g)["girth"] == 7


def test_dumbbell_degenerate_is_single_edge():
    g = gen_graph("dumbbell", {"left": 1, "right": 1})
    assert (g.n, g.m) == (2, 1)


def test_expander_like_deterministic_in_seed():
    a = gen_graph("expander_like", {"vertices": 6, "degree": 4}, seed=9)
    b = gen_graph("expander_like", {"vertices": 6, "degree": 4}, seed=9)
    c = gen_graph("expander_like", {"vertices": 6, "degree": 4}, seed=10)
    assert a.to_text() == b.to_text()
    assert a.to_text() != c.to_text()
    assert all(a.degree(v) == 4 for v in range(6))


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="cycle"):
        gen_graph("moebius", {})


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        gen_graph("cycle", {"length": 1})
    with pytest.raises(ValueError):
        gen_graph("expander_like", {"vertices": 5, "degree": 3})  # odd sum
    with pytest.raises(ValueError):
        gen_graph("theta", {"lengths": [3]})
    # integers are never truncated or parsed from strings
    for family, params in (
        ("cycle", {"length": 4.7}),
        ("cycle", {"length": "5"}),
        ("complete", {"vertices": True}),
        ("dumbbell", {"left": 3, "right": 2.0}),
        ("theta", {"lengths": 5}),
        ("theta", {}),
        ("theta", {"lengths": [2, 3.5]}),
        ("theta", {"lengths": [2, 0]}),
    ):
        with pytest.raises(ValueError, match="parameter|lengths"):
            gen_graph(family, params)
    # graph files are read by load_graph (the CLI's --graph), not a family
    with pytest.raises(ValueError, match="unknown family 'custom'"):
        gen_graph("custom", {})


def test_expander_like_odd_degree_adds_a_matching():
    for seed in range(4):
        g = gen_graph("expander_like", {"vertices": 8, "degree": 3}, seed=seed)
        assert (g.n, g.m) == (8, 12)  # no loop was dropped
        assert all(g.degree(v) == 3 for v in range(8))
        assert all(u != v for _, u, v, _ in g.edges())


def test_dumbbell_right_defaults_to_left():
    one = gen_graph("dumbbell", {"left": 4})
    assert one.to_json() == gen_graph("dumbbell", {"left": 4, "right": 4}).to_json()
    assert (one.n, one.m) == (8, 13)


def test_unread_param_keys_rejected():
    with pytest.raises(ValueError, match=r"'bogus'.*allowed: length"):
        gen_graph("cycle", {"length": 5, "bogus": 3})
    # the seed is the keyword, not a parameter key
    with pytest.raises(ValueError, match=r"'seed'.*allowed: vertices, degree"):
        gen_graph("expander_like", {"vertices": 6, "degree": 4, "seed": 1})
    with pytest.raises(ValueError, match="allowed: left, right"):
        gen_graph("dumbbell", {"left": 3, "length": 2})


def test_load_graph_reads_text(tmp_path):
    g = gen_graph("theta", {"lengths": [2, 2, 3]})
    p = tmp_path / "g.txt"
    p.write_text(g.to_text())
    h = load_graph(str(p))
    assert h.to_text() == g.to_text()


def test_load_graph_sniffs_json(tmp_path):
    g = gen_graph("cycle", {"length": 4})
    p = tmp_path / "g.json"
    p.write_text(g.to_json())
    assert load_graph(str(p)).to_text() == g.to_text()


def test_instance_label_mentions_seed_only_when_it_matters():
    assert instance_label("cycle", {"length": 5}) == "cycle(length=5)"
    assert "seed" in instance_label("expander_like", {"vertices": 6, "degree": 4}, seed=0)
    assert "seed=3" in instance_label("cycle", {"length": 5}, seed=3)


# ---------------------------------------------------------------------------
# connectivity


def test_single_edge_survives_exactly_half_the_time():
    g = gen_graph("dumbbell", {"left": 1, "right": 1})
    r = connectivity_experiment(g, build_kwise(1, 1))
    assert r.success_rate == HALF
    assert r.rates["union_bound_floor"] == HALF
    assert r.trials == 2


def test_disconnected_input_preserves_components_not_connectivity():
    # two disjoint edges: both must survive for both components to stay whole
    g = Graph(4, [(0, 1), (2, 3)])
    r = connectivity_experiment(g, full_space(2))
    assert r.success_rate == Fraction(1, 4)


def test_connectivity_floor_never_exceeds_rate():
    for params, k in (({"length": 2, "copies": 10}, 4), ({"length": 3, "copies": 4}, 4)):
        g = gen_graph("multi_cycle", params)
        r = connectivity_experiment(g, build_kwise(g.m, k))
        assert r.rates["union_bound_floor"] <= r.success_rate


def test_connectivity_slow_path_matches_direct_recount():
    # n > 20: no cut listing, so the rate is checked against a direct recount
    g = gen_graph("cycle", {"length": 22})
    space = build_almost_kwise(g.m, 3, Fraction(1, 8))
    r = connectivity_experiment(g, space, mode="sample", trials=200, seed=3)
    order = g.edge_ids()
    hits = 0
    for row in word_ints(space.sample_words(200, seed=3)):
        kept = [order[i] for i in range(g.m) if (row >> i) & 1]
        if g.keep_edges(kept).components() == g.components():
            hits += 1
    assert r.success_rate == Fraction(hits, 200)
    assert r.spec.mode == "sample"
    assert any("95%" in note for note in r.notes)


def test_sampled_connectivity_reports_pinned():
    # digests of the reports built from per-seed int vectors, captured
    # before sample rows came from generator rows
    g = gen_graph("expander_like", {"vertices": 24, "degree": 4}, seed=5)
    space = build_almost_kwise(g.m, 4, Fraction(1, 8))
    r = connectivity_experiment(g, space, mode="sample", trials=300, seed=7)
    digest = "b2ae8c3fee6671b46b98571d4a605b18df8f66054ae64b9c66d4afd2fd73dae9"
    assert hashlib.sha256(r.to_json().encode()).hexdigest() == digest
    g = gen_graph("cycle", {"length": 22})
    space = with_marginal(exact_builder, 22, 2, 0, 2, complemented=True)
    r = connectivity_experiment(g, space, mode="sample", trials=150, seed=4)
    digest = "9f66ffab1150cf4ad7efef5529c9e0b5f04e359ee0abc58ef62cdafd7c061ad0"
    assert hashlib.sha256(r.to_json().encode()).hexdigest() == digest


def test_connectivity_witnesses_name_the_dead_cut():
    g = gen_graph("cycle", {"length": 4})
    r = connectivity_experiment(g, full_space(4))
    assert 0 < r.success_rate < 1
    assert r.failure_witnesses
    assert len(r.failure_witnesses) <= 10
    for w in r.failure_witnesses:
        assert "cut" in w["reason"]


def test_space_size_mismatch_rejected():
    g = gen_graph("cycle", {"length": 5})
    with pytest.raises(ValueError, match="coordinates"):
        connectivity_experiment(g, build_kwise(4, 2))


# ---------------------------------------------------------------------------
# cycle-freeness


def test_forest_is_always_acyclic():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    r = cyclefree_experiment(g, build_kwise(4, 2))
    assert r.rates["acyclic"] == 1


def test_five_cycle_acyclic_and_joint_rates_exact():
    g = gen_graph("cycle", {"length": 5})
    r = cyclefree_experiment(g, full_space(5))
    # only the all-ones row keeps the cycle
    assert r.rates["acyclic"] == Fraction(31, 32)
    # edge floor is ceil(5/10) = 1, so only the empty row also misses it
    assert r.success_rate == Fraction(15, 16)
    assert r.extras["edge_floor"] == 1


def test_cyclefree_beyond_cycle_listing_matches_forest_recount():
    # m > 40: acyclicity comes from component counts alone, and witnesses
    # say a cycle survived without naming it
    g = gen_graph("expander_like", {"vertices": 24, "degree": 4}, seed=5)
    assert g.m > 40
    space = build_almost_kwise(g.m, 4, Fraction(1, 8))
    r = cyclefree_experiment(g, space, mode="sample", trials=200, seed=2)
    order = g.edge_ids()
    forests = 0
    for row in word_ints(space.sample_words(200, seed=2)):
        forests += g.keep_edges([order[i] for i in range(g.m) if (row >> i) & 1]).is_forest()
    assert r.rates["acyclic"] == Fraction(forests, 200)
    assert forests < 200
    assert any(w["reason"] == "a cycle survived" for w in r.failure_witnesses)
    for w in r.failure_witnesses:
        if w["reason"] == "a cycle survived":
            assert not g.keep_edges(w["kept"]).is_forest()


@pytest.mark.parametrize("n", [255, 256])
def test_rates_at_the_count_dtype_edge(n):
    # a triangle among n - 3 isolated vertices: the component counts reach n
    # (uint8 at 255, uint16 at 256), and n - c and |kept| - n + c must not wrap
    g = Graph(n, [(0, 1), (1, 2), (2, 0)])
    assert cyclefree_experiment(g, full_space(3)).rates["acyclic"] == Fraction(7, 8)
    assert connectivity_experiment(g, full_space(3)).success_rate == Fraction(1, 2)
    alone = unique_cycle_survival_experiment(g, {1, 2, 3}, full_space(3))
    assert alone.success_rate == Fraction(1, 8)


def test_theta_joint_rate_positive():
    g = gen_graph("theta", {"lengths": [3, 4, 5]})
    r = cyclefree_experiment(g, build_almost_kwise(g.m, 4, Fraction(1, 8)))
    assert r.success_rate > 0
    assert r.rates["enough_edges"] >= r.success_rate


# ---------------------------------------------------------------------------
# unique survival


def test_unique_cut_single_edge_rate_equals_marginal():
    g = gen_graph("dumbbell", {"left": 1, "right": 1})
    space = with_marginal(exact_builder, 1, 2, Fraction(0), 2)
    r = unique_cut_survival_experiment(g, g.edge_ids(), space)
    assert r.success_rate == Fraction(1, 4)
    assert r.rates["target_survives"] == Fraction(1, 4)


def test_unique_cut_bridge_positive():
    g = gen_graph("dumbbell", {"left": 3, "right": 3})
    bridge = next(eids for eids, _, _ in g.enumerate_cuts() if len(eids) == 1)
    r = unique_cut_survival_experiment(g, bridge, build_kwise(g.m, 2))
    assert r.success_rate > 0


def test_unique_cut_k4_star_matches_brute_force():
    g = gen_graph("complete", {"vertices": 4})
    star = [e for e in g.edge_ids() if 0 in g.edge(e)[:2]]
    assert len(star) == 3
    r = unique_cut_survival_experiment(g, star, full_space(6))
    assert r.success_rate > 0

    order = g.edge_ids()
    others = [
        [e for e in g.edge_ids() if v in g.edge(e)[:2]] for v in range(1, 4)
    ]
    hits = 0
    for bits in itertools.product((0, 1), repeat=6):
        kept = {order[i] for i in range(6) if bits[i]}
        if not set(star) <= kept:
            continue
        if any(set(o) <= kept for o in others):
            continue
        hits += 1
    assert r.success_rate == Fraction(hits, 64)


def test_unique_cut_rejects_non_cuts_and_window_misses():
    g = gen_graph("cycle", {"length": 4})
    with pytest.raises(ValueError, match="not a cut"):
        unique_cut_survival_experiment(g, g.edge_ids()[:1], full_space(4))
    d = gen_graph("dumbbell", {"left": 3, "right": 3})
    pair = sorted(d.edge_ids())[:2]
    # min cut is the bridge alone, so a 2-edge cut sits outside the window
    with pytest.raises(ValueError, match="window"):
        unique_cut_survival_experiment(d, pair, build_kwise(d.m, 2))


def test_unique_cycle_on_plain_cycle_is_exact_power():
    g = gen_graph("cycle", {"length": 5})
    cyc = g.edge_ids()
    r = unique_cycle_survival_experiment(g, cyc, full_space(5))
    assert r.success_rate == Fraction(1, 32)


def test_unique_cycle_disjoint_triangles():
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    target = g.edge_ids()[:3]
    r = unique_cycle_survival_experiment(g, target, full_space(6))
    # target triangle kept, other triangle not fully kept
    assert r.success_rate == Fraction(1, 8) * Fraction(7, 8)


def test_unique_cycle_theta_positive():
    g = gen_graph("theta", {"lengths": [3, 4, 5]})
    cycles = g.enumerate_cycles()
    seven = next(c for c in cycles if len(c) == 7)
    r = unique_cycle_survival_experiment(
        g, seven, build_almost_kwise(g.m, 4, Fraction(1, 16))
    )
    assert r.success_rate > 0


def brute_unique_rate(g, members, target):
    """Share of the full cube keeping the target and no other member whole."""
    order = g.edge_ids()
    hits = 0
    for bits in range(1 << g.m):
        kept = {order[i] for i in range(g.m) if (bits >> i) & 1}
        if target <= kept and not any(s <= kept for s in members if s != target):
            hits += 1
    return Fraction(hits, 1 << g.m)


def check_rival_witnesses(report, family, members, target):
    """Each rival a witness names is another member, kept whole in its row."""
    rivals = 0
    for w in report.failure_witnesses:
        if w["reason"].startswith("rival"):
            rival = json.loads(w["reason"].split(f"rival {family} ")[1].split(" also")[0])
            assert frozenset(rival) in members and frozenset(rival) != target
            assert set(rival) <= set(w["kept"])
            rivals += 1
    assert rivals


@pytest.mark.parametrize(
    "g",
    [
        Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        gen_graph("multi_cycle", {"length": 3, "copies": 2}),
    ],
    ids=["two_triangles", "multi_cycle(3,2)"],
)
def test_unique_cut_matches_brute_force_on_every_window_target(g):
    cuts = [eids for eids, _, _ in g.enumerate_cuts()]
    ell = min(len(c) for c in cuts)
    targets = [c for c in cuts if 100 * len(c) <= 101 * ell]
    assert targets
    for target in targets:
        r = unique_cut_survival_experiment(g, target, full_space(g.m))
        assert r.success_rate == brute_unique_rate(g, cuts, target)
        assert r.extras["cut_count"] == len(cuts)
        check_rival_witnesses(r, "cut", cuts, target)


def test_unique_cycle_two_cycles_match_brute_force():
    # six parallel edges: every pair is a 2-cycle, and a third kept edge
    # always closes a rival
    g = gen_graph("multi_cycle", {"length": 2, "copies": 3})
    cycles = g.enumerate_cycles()
    assert len(cycles) == 15 and {len(c) for c in cycles} == {2}
    for target in cycles:
        r = unique_cycle_survival_experiment(g, target, full_space(g.m))
        assert r.success_rate == brute_unique_rate(g, cycles, target) == Fraction(1, 64)
        assert r.rates["target_survives"] == Fraction(1, 4)
        assert r.extras["girth"] == 2
        check_rival_witnesses(r, "cycle", cycles, target)


# ---------------------------------------------------------------------------
# union bound floor


def test_union_bound_floor_hand_computed():
    # 8 parallel edges: one cut, product of the 3 smallest drop probs = 1/8
    g = gen_graph("multi_cycle", {"length": 2, "copies": 4})
    floor = union_bound_component_floor(g, build_kwise(8, 3))
    assert floor == Fraction(7, 8)


def test_union_bound_floor_clamps_at_zero():
    g = gen_graph("cycle", {"length": 4})
    floor = union_bound_component_floor(g, build_kwise(4, 2))
    assert floor == 0


def floor_spaces(m):
    """Spaces over m coordinates with every marginal kind the floor reads."""
    sizes = [(j * 5) % 4 for j in range(m)]  # group sizes 0..3, empty groups included
    yield with_marginal(exact_builder, m, 2, 0, 2)
    yield with_marginal(exact_builder, m, 3, 0, 3, complemented=True)
    yield group_heterogeneous(build_kwise(sum(sizes), 9), sizes, 3, Fraction(0))
    yield group_heterogeneous(build_kwise(sum(sizes), 6), sizes, 2, Fraction(0), complemented=True)
    yield build_almost_kwise(m, 8, Fraction(1, 8))  # delta > 0, k above most cut sizes
    yield with_marginal(almost_builder, m, 3, Fraction(1, 16), 2, complemented=True)


def test_union_bound_floor_matches_per_cut_loop():
    graphs = [
        gen_graph("cycle", {"length": 6}),
        gen_graph("multi_cycle", {"length": 3, "copies": 3}),
        gen_graph("theta", {"lengths": [2, 3, 3]}),
        gen_graph("complete", {"vertices": 5}),
        Graph(7, [(0, 1), (1, 2), (2, 0), (0, 1), (3, 4), (4, 5), (5, 3), (5, 3)]),  # + isolated 6
    ]
    inside = [0] * 6
    for g in graphs:
        cuts = g.enumerate_cuts()
        for i, space in enumerate(floor_spaces(g.m)):
            floor = union_bound_component_floor(g, space)
            assert floor == loop_union_bound_floor(cuts, g.edge_ids(), space)
            inside[i] += 0 < floor < 1
    # the clamp at zero hides no comparison: past the first space (drop
    # probability 3/4 on every edge) each space has floors strictly inside (0, 1)
    assert all(inside[1:])


# ---------------------------------------------------------------------------
# sparsification


def test_sparsify_clamped_rates_keep_everything():
    g = gen_graph("cycle", {"length": 5})
    r = sparsify_experiment(g, 2, 0.5, 0.25, rate_scale=1.0)
    assert r.success_rate == 1
    assert r.trials == 1
    assert r.rates["mean_kept_edges"] == 5
    assert r.rates["expected_kept_edges"] == 5
    assert "kept_histogram" in r.extras


def test_sparsify_kept_count_expectation_is_linear():
    g = gen_graph("cycle", {"length": 5})
    lev = 4.0 / 5.0  # every C5 edge has the same leverage
    base = sparsify_rates(g, leverage_scores(g), 2, 0.5, 0.25, 1.0).s
    for target in (0.55, 0.3):
        r = sparsify_experiment(g, 2, 0.5, 0.25, rate_scale=target / (base * lev))
        assert r.rates["mean_kept_edges"] == r.rates["expected_kept_edges"]
        assert r.rates["expected_kept_edges"] < 5


def test_sparsify_dumbbell_passes_despite_real_sampling():
    g = gen_graph("dumbbell", {"left": 5, "right": 5})
    r = sparsify_experiment(g, 2, 0.9, 0.45, rate_scale=5e-4)
    # bridge clamps to 1, the twenty clique edges genuinely flip coins
    assert r.success_rate == Fraction(3, 8)
    assert r.success_rate >= Fraction(1, 10)  # 1 - 2*delta
    assert r.rates["mean_kept_edges"] == r.rates["expected_kept_edges"]
    assert any("dyadic" in note for note in r.notes)


def test_sparsify_quantization_can_be_infeasible():
    g = gen_graph("dumbbell", {"left": 5, "right": 5})
    with pytest.raises(ValueError, match="quantization infeasible"):
        sparsify_experiment(g, 2, 0.9, 0.45, rate_scale=5e-4, max_level=0)


def test_sparsify_rejects_disconnected_input():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        sparsify_experiment(g, 2, 0.5, 0.25)


def test_form_checker_agrees_with_direct_spectral_check():
    g = gen_graph("dumbbell", {"left": 3, "right": 3})
    checker = edge_form_checker(g, 0.5)
    order = list(checker.edge_order)
    for bits in itertools.product((0, 1), repeat=g.m):
        # one weight row over checker.edge_order
        (ok,), (lo,), (hi,) = checker.batch_verdicts(2.0 * np.array([bits], dtype=float))
        kept = [order[i] for i in range(g.m) if bits[i]]
        slow = spectral_approx_check(
            g, g.keep_edges(kept).with_weights({e: Fraction(2) for e in kept}), 0.5
        )
        assert ok == slow.ok
        assert lo == pytest.approx(slow.min_ratio, abs=1e-9)
        assert hi == pytest.approx(slow.max_ratio, abs=1e-9)


# ---------------------------------------------------------------------------
# reweight pipeline


def test_reweight_pipeline_parallel_bundle():
    g = gen_graph("multi_cycle", {"length": 2, "copies": 8})
    r = reweight_then_connectivity(g, 2, rate_scale=5.75e-3)
    assert r.success_rate == Fraction(31, 32)
    assert r.rates["union_bound_floor"] == Fraction(3, 4)
    assert r.success_rate >= r.rates["union_bound_floor"]


def test_reweight_pipeline_multi_cycle_meets_target():
    g = gen_graph("multi_cycle", {"length": 4, "copies": 4})
    r = reweight_then_connectivity(g, 2, rate_scale=5e-4)
    assert r.success_rate == Fraction(25, 32)
    assert r.success_rate >= Fraction(3, 4)
    assert "weighting_levels" in r.extras


def test_reweight_pipeline_solves_no_leverage_of_its_own(monkeypatch):
    # the weighting carries the reweighted graph's leverage table; the
    # pipeline reads it instead of solving the same graph again
    calls = []

    def counting(g):
        calls.append(g)
        return leverage_scores(g)

    monkeypatch.setattr(experiments_module, "leverage_scores", counting)
    monkeypatch.setattr(reweight_module, "leverage_scores", counting)
    g = gen_graph("multi_cycle", {"length": 4, "copies": 4})
    r = reweight_then_connectivity(g, 2, rate_scale=5e-4)
    assert len(calls) == 1  # reweight_min_cut's own solve
    assert r.success_rate == Fraction(25, 32)


@pytest.mark.parametrize(
    "family,params",
    [
        ("multi_cycle", {"length": 2, "copies": 8}),
        ("multi_cycle", {"length": 4, "copies": 4}),
        ("complete", {"vertices": 6}),
        ("expander_like", {"vertices": 12, "degree": 4}),
    ],
)
def test_weighting_table_is_a_fresh_solve_of_the_reweighted_graph(family, params):
    g = gen_graph(family, params)
    weighting = reweight_min_cut(g)
    fresh = leverage_scores(g.with_weights(weighting.weights))
    assert weighting.table.to_csv() == fresh.to_csv()
    assert weighting.table.component_rdiam == fresh.component_rdiam


def test_reweight_pipeline_rejects_bridges():
    g = gen_graph("dumbbell", {"left": 1, "right": 1})
    with pytest.raises(PreconditionError, match="minimum cut"):
        reweight_then_connectivity(g, 2)


# ---------------------------------------------------------------------------
# conditional bias and strength sweeps


def test_conditional_bias_zero_for_exact_spaces():
    space = build_kwise(6, 3)
    rep = conditional_bias_check(space, [0], [[1], [2], [1, 2]])
    assert rep.ok
    assert rep.worst_deviation == 0
    assert all(ev[1] for ev in rep.events)  # every event fits within k


def test_conditional_bias_bounded_for_almost_spaces():
    space = build_almost_kwise(10, 3, Fraction(1, 8))
    rep = conditional_bias_check(space, [0], [[1], [2]])
    assert rep.ok
    assert rep.bound == Fraction(1, 4) / rep.pr_condition
    assert rep.worst_deviation <= rep.bound


def test_conditional_bias_flags_oversized_events():
    space = build_kwise(6, 2)
    rep = conditional_bias_check(space, [0], [[1, 2, 3]])
    assert not rep.events[0][1]  # 4 coordinates exceed k = 2


def test_conditional_bias_reports_a_violation():
    # each output bit is the AND of two bits of a 1-wise space, too weak an
    # order for the claimed 2-wise, 0-defect space: bit 1 follows bit 0
    space = group_heterogeneous(build_kwise(4, 1), [2, 2], 2, Fraction(0))
    rep = conditional_bias_check(space, [0], [[1]])
    assert not rep.ok
    assert rep.bound == 0
    assert rep.worst_deviation == Fraction(3, 4)
    assert rep.events == (((1,), True, Fraction(1), Fraction(1, 4), Fraction(3, 4)),)


def test_strength_sweep_exact_space_is_flat_zero():
    for k in [1, 2, 3]:
        assert verify_independence(exact_builder(8, k, Fraction(0))).max_tv == 0


def test_strength_sweep_almost_space_stays_under_delta():
    delta = Fraction(1, 8)
    for k in [1, 2, 3]:
        assert verify_independence(build_almost_kwise(10, k, delta)).max_tv <= delta


# ---------------------------------------------------------------------------
# report plumbing


def test_reports_are_byte_identical_across_runs():
    g = gen_graph("multi_cycle", {"length": 3, "copies": 2})
    a = connectivity_experiment(g, build_kwise(6, 3), generator="multi_cycle(copies=2,length=3)")
    b = connectivity_experiment(g, build_kwise(6, 3), generator="multi_cycle(copies=2,length=3)")
    assert a.to_json() == b.to_json()
    s = sparsify_experiment(g, 2, 0.9, 0.45, rate_scale=1.0)
    t = sparsify_experiment(g, 2, 0.9, 0.45, rate_scale=1.0)
    assert s.to_json() == t.to_json()


def test_sampled_reports_deterministic_given_seed():
    g = gen_graph("cycle", {"length": 8})
    space = build_kwise(8, 2)
    a = connectivity_experiment(g, space, mode="sample", trials=64, seed=11)
    b = connectivity_experiment(g, space, mode="sample", trials=64, seed=11)
    c = connectivity_experiment(g, space, mode="sample", trials=64, seed=12)
    assert a.to_json() == b.to_json()
    assert a.spec.seed == 11 and c.spec.seed == 12


def test_report_json_shape():
    g = gen_graph("cycle", {"length": 4})
    r = cyclefree_experiment(g, build_kwise(4, 2), generator="cycle(length=4)")
    blob = json.loads(r.to_json())
    assert blob["spec"]["generator"] == "cycle(length=4)"
    assert blob["spec"]["mode"] == "enumerate"
    assert blob["counts"]["trials"] == r.trials
    assert "/" in blob["rates"]["success"]
    assert isinstance(blob["deviations"], list)
    assert isinstance(r, ExperimentReport)


def test_constants_record_full_strength_and_used_values():
    g = gen_graph("cycle", {"length": 6})
    r = connectivity_experiment(g, build_kwise(6, 2))
    names = [c[0] for c in r.spec.constants]
    assert "independence_order" in names
    # desk-size k = 2 differs from the full-strength order, so it is a deviation
    assert any("independence_order" in d for d in r.deviations)


def test_support_too_large_propagates():
    g = gen_graph("multi_cycle", {"length": 2, "copies": 10})
    with pytest.raises(SupportTooLargeError):
        connectivity_experiment(g, build_kwise(20, 8), budget=1 << 10)


# ---------------------------------------------------------------------------
# support blocks


def _two_triangles():
    return Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


# each builds its space afresh, so no support is kept from an earlier run
BLOCK_RUNS = {
    # 256 failing rows; the ten witnesses span rows 0..34
    "connectivity": lambda: connectivity_experiment(
        gen_graph("multi_cycle", {"length": 2, "copies": 4}), build_kwise(8, 3)
    ).to_json(),
    # witnesses alternate "fewer than the edge floor" and a named cycle
    "cyclefree": lambda: cyclefree_experiment(
        gen_graph("cycle", {"length": 5}), build_kwise(5, 3)
    ).to_json(),
    "unique_cut": lambda: unique_cut_survival_experiment(
        _two_triangles(), [1, 2], build_kwise(6, 4)
    ).to_json(),
    "unique_cycle": lambda: unique_cycle_survival_experiment(
        gen_graph("multi_cycle", {"length": 2, "copies": 3}), [1, 2], build_kwise(6, 4)
    ).to_json(),
    "sparsify": lambda: sparsify_experiment(
        gen_graph("dumbbell", {"left": 5, "right": 5}), 2, 0.9, 0.45, rate_scale=5e-4
    ).to_json(),
    "reweight": lambda: reweight_then_connectivity(
        gen_graph("multi_cycle", {"length": 4, "copies": 4}), 2, rate_scale=5e-4
    ).to_json(),
    "conditional_bias": lambda: repr(
        conditional_bias_check(build_almost_kwise(10, 3, Fraction(1, 8)), [0], [[1], [2], [1, 2]])
    ),
    "dump_support": lambda: dump_support(build_almost_kwise(6, 2, Fraction(1, 4))),
}


@pytest.mark.parametrize("name", sorted(BLOCK_RUNS))
def test_reports_do_not_depend_on_the_block_size(name, monkeypatch):
    whole = BLOCK_RUNS[name]()
    monkeypatch.setattr(samplespace, "_BLOCK_ROWS", 1 << 3)
    assert BLOCK_RUNS[name]() == whole


def test_block_runs_cross_block_boundaries():
    # witness rows are numbered over the whole support, so at blocks of 2^3
    # rows these runs keep witnesses from more than one block
    conn = json.loads(BLOCK_RUNS["connectivity"]())
    assert conn["counts"]["trials"] - conn["counts"]["successes"] > 10
    assert len({w["row"] // 8 for w in conn["witnesses"]}) > 1
    cyclefree = json.loads(BLOCK_RUNS["cyclefree"]())["witnesses"]
    assert len({w["row"] // 8 for w in cyclefree}) > 1
    assert {w["reason"].split()[0] for w in cyclefree} == {"fewer", "cycle"}
    for name in ("unique_cut", "unique_cycle", "sparsify", "reweight"):
        assert json.loads(BLOCK_RUNS[name]())["counts"]["trials"] > 8, name


def test_streamed_connectivity_holds_one_block():
    # a 2^22-row support: 32 MB as one array, 0.5 MB per block
    g = gen_graph("expander_like", {"vertices": 8, "degree": 8})
    space = build_almost_kwise(32, 8, Fraction(1, 8))
    assert space.support_size == 1 << 22
    tracemalloc.start()
    try:
        connectivity_experiment(g, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


# ---------------------------------------------------------------------------
# report byte pins


def _pin_target(g, family):
    # the first window target, as the survival benchmark picks them
    members = [c for c, _, _ in g.enumerate_cuts()] if family == "cut" else g.enumerate_cycles()
    ell = min(len(c) for c in members)
    return next(c for c in members if 100 * len(c) <= 101 * ell)


def _seventeen_edges():
    # complete(5) and seven parallel edges beside its ring and two chords
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    return Graph(5, k5 + [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)])


# graph -> (build_kwise orders of the enumerated spaces, the sampled space's
# order); the first order's support is at least 2^m rows only below 17 edges,
# the second's is smaller except on multi_cycle(3,2), where it is exactly 2^m
PIN_GRAPHS = {
    "cycle(7)": (lambda: gen_graph("cycle", {"length": 7}), (3, 2)),
    "complete(5)": (lambda: gen_graph("complete", {"vertices": 5}), (3, 2)),
    "theta(2,3,4)": (lambda: gen_graph("theta", {"lengths": [2, 3, 4]}), (3, 2)),
    "multi_cycle(3,2)": (lambda: gen_graph("multi_cycle", {"length": 3, "copies": 2}), (3, 2)),
    "multi_cycle(8,2)": (lambda: gen_graph("multi_cycle", {"length": 8, "copies": 2}), (4, 3)),
    "complete(5)+7": (lambda: _seventeen_edges(), (3, 2)),
}
PIN_EXPERIMENTS = {
    "connectivity": lambda g, space, **kw: connectivity_experiment(g, space, **kw),
    "cyclefree": lambda g, space, **kw: cyclefree_experiment(g, space, **kw),
    "unique_cut": lambda g, space, **kw: unique_cut_survival_experiment(
        g, _pin_target(g, "cut"), space, **kw),
    "unique_cycle": lambda g, space, **kw: unique_cycle_survival_experiment(
        g, _pin_target(g, "cycle"), space, **kw),
}


def _pin_blob(graph, experiment):
    """to_json of every run of one experiment on one graph, newline-joined:
    each enumerated space, then sampled runs of fewer and of more than 2^m
    trials; unique survival adds a 3/4-marginal space, where rivals survive."""
    make, orders = PIN_GRAPHS[graph]
    g = make()
    run = PIN_EXPERIMENTS[experiment]
    reports = [run(g, build_kwise(g.m, k)) for k in orders]
    sampled = build_kwise(g.m, orders[0])
    for trials in ((1 << g.m) // 2, (1 << g.m) + 5):
        reports.append(run(g, sampled, mode="sample", trials=trials, seed=3))
    if experiment.startswith("unique") and g.m <= 7:
        reports.append(run(g, with_marginal(exact_builder, g.m, 2, 0, 2, complemented=True)))
    return "\n".join(r.to_json() for r in reports)


# sha256 of _pin_blob, captured before row verdicts were tabulated per kept pattern
PIN_DIGESTS = {
    ('complete(5)', 'connectivity'): "61da857d62936f5ee1af118038b89d5c0c3704e17b90aae10055ff2da6738eed",
    ('complete(5)', 'cyclefree'): "ba98ebce6dd2d8bb4a38260cdb0bc01a32ec08719f1a03a07d6f2062dfd01706",
    ('complete(5)', 'unique_cut'): "ab695e9f8319a2f0d07167c596afdbd9a64be35cb90d280568558e144127f8d1",
    ('complete(5)', 'unique_cycle'): "36363166df21e6ab139bf77f4503a6bf18102bbf4c759b4c1fa9ba8efd2f426b",
    ('complete(5)+7', 'connectivity'): "48beacb0dc585439bd3380801595ef50c5f05c4155cbf559a57881383460104c",
    ('complete(5)+7', 'cyclefree'): "8f04d39b02362f2f4284e0400a0087357dd141608fd0f68ef72d27035aa764f5",
    ('complete(5)+7', 'unique_cut'): "574a0d062c5f62cbbc740c1df851aa588f499271ff85136a0aa1bed4e45c0e30",
    ('complete(5)+7', 'unique_cycle'): "eae50a668370294b136fed13f8be88b6d1e77fc91c381b4039653248671935ff",
    ('cycle(7)', 'connectivity'): "5c4ad5b27ef47845aab7080ba8c2d9c46338e1afedb382c6e66969dfbf4572af",
    ('cycle(7)', 'cyclefree'): "f328ded41ed82b0aa87adeefe4d5dabd327adc12f2f418eeec9148e4cddfedc0",
    ('cycle(7)', 'unique_cut'): "cfd32917699d419b88a9fd7976a850547137f83825731756b0ad3ef4baa43045",
    ('cycle(7)', 'unique_cycle'): "96f1fb9e32b23bfde5668636f8c4ad6f6869d91e457abb237dd0e7f91edb069c",
    ('multi_cycle(3,2)', 'connectivity'): "2a15042fdc842e261fec76edf980dafc5444b688cd870ecbc0430fcfb0c116cc",
    ('multi_cycle(3,2)', 'cyclefree'): "663cc1e4bb7f7f69b1109de912c6165486937622d3bca99779772d078b77e881",
    ('multi_cycle(3,2)', 'unique_cut'): "3a6f69a5974190c7ccf22cf9c1cc8d553d1978110ddffb7bd74680ed9c006af9",
    ('multi_cycle(3,2)', 'unique_cycle'): "7420fb8db5e58b41a00e827381ce6622e77d8d1d958d1c8362b15eabe8d56c66",
    ('multi_cycle(8,2)', 'connectivity'): "f1af2b93a660187c495ce02ec05c3d165923b713bd4b7921cecca0593d3b3cef",
    ('multi_cycle(8,2)', 'cyclefree'): "a30641e5da2091764146176f0e3f1597f9716074a94843ee8adefd3ee7c15047",
    ('multi_cycle(8,2)', 'unique_cut'): "e37c76a0823e4e8ff5511c4303d1e9d5012d6d63d045ce4a35ffbcf516f1b33b",
    ('multi_cycle(8,2)', 'unique_cycle'): "5bc0974d272e995a45a1d9af60bf59533cbe4e0ceb70e493ce3f551c536ffeb8",
    ('theta(2,3,4)', 'connectivity'): "45e88d65e5e5e229be61966bee7b2e3c8a56c1fc64d77a2f8ba431a99d6c6fb7",
    ('theta(2,3,4)', 'cyclefree'): "65fbaa85ea0953133e85dd1ad00282336e578cfea01ccb57e186e8c10f49f9cb",
    ('theta(2,3,4)', 'unique_cut'): "14a630255f997cc31c6eb3ea7876aa9167b71bac2b42b78d141e1f680e5e3f8a",
    ('theta(2,3,4)', 'unique_cycle'): "828de53e7181ddb37acbb2a257f965ea8b42a951658ff69381e4a4d80e08a737",
}


@pytest.mark.parametrize("graph,experiment", sorted(itertools.product(PIN_GRAPHS, PIN_EXPERIMENTS)))
def test_survival_report_bytes_pinned(graph, experiment):
    blob = _pin_blob(graph, experiment)
    assert hashlib.sha256(blob.encode()).hexdigest() == PIN_DIGESTS[graph, experiment]


# sha256 of the reports' to_json, captured as PIN_DIGESTS: 64 rows over 6
# edges; sparsify also in sample mode at more rows than patterns
PIPELINE_PINS = {
    "sparsify": (
        lambda g: [
            sparsify_experiment(g, 2, 0.9, 0.45, rate_scale=3e-3),
            sparsify_experiment(g, 2, 0.9, 0.45, rate_scale=3e-3, mode="sample", trials=200, seed=5),
        ],
        "eef688159d9ff2df0bbc34e9aff4e5622ebc7736285e6c3c036580f622984d29",
    ),
    "reweight": (lambda g: [reweight_then_connectivity(g, 2, rate_scale=5e-4)],
                 "3392eb5d707c521a0e9dc6fbb0e37dc94383ea6bdef27a3ab54460f1bbfa38fb"),
}


@pytest.mark.parametrize("name", sorted(PIPELINE_PINS))
def test_pipeline_report_bytes_pinned(name):
    run, digest = PIPELINE_PINS[name]
    reports = run(gen_graph("multi_cycle", {"length": 3, "copies": 2}))
    assert all(r.failure_witnesses for r in reports)
    blob = "\n".join(r.to_json() for r in reports)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the kept-pattern table


@pytest.fixture
def kernel_words(monkeypatch):
    """The word rows of every Graph.component_counts call, in call order."""
    calls = []
    real = Graph.component_counts

    def recorded(self, words):
        calls.append(words.copy())
        return real(self, words)

    monkeypatch.setattr(Graph, "component_counts", recorded)
    return calls


def _is_table(words, m):
    return words.shape == (1 << m, 1) and (words[:, 0] == np.arange(1 << m)).all()


def test_unique_cycle_reads_the_pattern_table(kernel_words):
    # the survival benchmark's complete(5) cycle space: 2^20 rows, of which
    # 131,072 keep a triangle; the kernel sees only the table's 2^10
    # patterns, and of those only the 2^7 that keep the target
    g = gen_graph("complete", {"vertices": 5})
    space = build_kwise(g.m, 5)
    assert space.support_size == 1 << 20
    r = unique_cycle_survival_experiment(g, [1, 2, 5], space)
    assert r.trials == 1 << 20 and r.rates["target_survives"] == Fraction(1, 8)
    assert [len(w) for w in kernel_words] == [1 << 7]
    target = sum(1 << j for j, eid in enumerate(g.edge_ids()) if eid in (1, 2, 5))
    patterns = kernel_words[0][:, 0]
    assert (patterns & target == target).all() and (np.diff(patterns) > 0).all()


def test_seventeen_edges_pass_the_whole_support(kernel_words):
    g = _seventeen_edges()
    space = build_kwise(g.m, 4)
    assert space.support_size > 1 << g.m
    connectivity_experiment(g, space)
    assert sum(len(w) for w in kernel_words) == space.support_size


def test_sixteen_edges_take_the_table_from_2_to_the_16_rows(kernel_words):
    g = gen_graph("multi_cycle", {"length": 8, "copies": 2})
    space = build_kwise(g.m, 3)
    assert space.support_size == 1 << 15
    connectivity_experiment(g, space)
    connectivity_experiment(g, space, mode="sample", trials=(1 << 16) - 1, seed=2)
    connectivity_experiment(g, space, mode="sample", trials=1 << 16, seed=2)
    assert [len(w) for w in kernel_words] == [1 << 15, (1 << 16) - 1, 1 << 16]
    assert [_is_table(w, g.m) for w in kernel_words] == [False, False, True]
    # an enumerated support of 16 blocks: the first holds exactly 2^16 rows
    kernel_words.clear()
    space = build_kwise(g.m, 4)
    assert space.support_size == 1 << 20
    assert [len(b) for b in space.support_blocks()] == [1 << 16] * 16
    connectivity_experiment(g, space)
    assert len(kernel_words) == 1 and _is_table(kernel_words[0], g.m)


class _Watched(np.ndarray):
    """A verdict array that counts the failures searches made on it."""

    searches = 0

    def __invert__(self):
        _Watched.searches += 1
        return super().__invert__()


@pytest.mark.parametrize("table", [False, True], ids=["direct", "table"])
@pytest.mark.parametrize("cap,searched", [(0, 0), (3, 1), (10, 2)])
def test_fold_stops_searching_once_cap_witnesses_are_held(table, cap, searched, monkeypatch):
    # five blocks of 8 failing rows over 3 coordinates
    monkeypatch.setattr(_Watched, "searches", 0)
    blocks = [np.arange(8, dtype=np.uint64)[:, None] for _ in range(5)]

    def verdict(words):
        return np.zeros(len(words), dtype=bool).view(_Watched), {}, lambda i, vec: "failed"

    run = experiments_module._fold(blocks, [1, 2, 3], verdict, table, cap=cap)
    assert (run.rows, run.successes) == (40, 0)
    assert [w["row"] for w in run.witnesses] == list(range(cap))
    assert _Watched.searches == searched


def test_gen_graph_names_a_missing_parameter():
    with pytest.raises(ValueError, match="missing parameter 'length'"):
        gen_graph("cycle", {})


def test_reweight_pipeline_needs_two_vertices():
    with pytest.raises(PreconditionError, match="at least 2 vertices"):
        reweight_then_connectivity(Graph(1), 2)


@pytest.mark.parametrize("trials", [2.5, "3", True])
def test_sample_mode_reads_trials_as_an_int(trials):
    g = gen_graph("cycle", {"length": 5})
    with pytest.raises(ValueError, match="trials must be an int >= 1"):
        connectivity_experiment(g, build_kwise(5, 2), mode="sample", trials=trials)

"""Acceptance battery: one test per numbered criterion.

Each test finishes by printing a single PASS line with the measured
quantities; a failing assertion is the corresponding FAIL line.  Run
`pytest tests/test_acceptance.py -v -s` to see the lines as they land.

The battery favors exact arithmetic: rates are Fractions, tolerances are
only used where floating-point linear algebra is involved.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from edgewise.basisfind import find_basis
from edgewise.experiments import (
    connectivity_experiment,
    cyclefree_experiment,
    gen_graph,
    reweight_then_connectivity,
    sparsify_experiment,
    unique_cut_survival_experiment,
    unique_cycle_survival_experiment,
)
from edgewise.graph import Graph
from edgewise.matroid import COGRAPHIC, GRAPHIC, OracleSession, ind_cographic, ind_graphic
from edgewise.reweight import reweight_min_cut, verify_converse
from edgewise.samplespace import (
    build_almost_kwise,
    build_kwise,
    exact_builder,
    verify_independence,
    with_marginal,
)
from edgewise.spectral import (
    effective_resistance,
    flow_energy,
    leverage_scores,
    resistance_diameter,
)

ZERO = Fraction(0)


def _passed(num, detail):
    print(f"PASS  criterion {num:2d}: {detail}", flush=True)


# ---------------------------------------------------------------------------
# shared instance builders


def _two_triangles():
    return Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


def _bundle(copies):
    return Graph(2, [(0, 1)] * copies)


def _cut_space(m, ell):
    # Sparse marginals make exact survival of a small cut reachable: the
    # keep-probability drops like 2^-L per edge, so grouped coordinates with
    # L scaled as log(m)/ell put the cut's all-kept pattern inside the
    # support.  L is capped so the underlying seed stays enumerable.
    want = max(1, math.ceil(math.log2(max(m, 2)) / ell))
    for L in range(want, 0, -1):
        if L == 1:
            return build_kwise(m, min(m, 4))
        space = with_marginal(exact_builder, m, 2, ZERO, L)
        if space.seed_bits <= 24:
            return space
    raise AssertionError("unreachable")


def _cycle_space(m, girth):
    cap = 20 // max(1, m.bit_length())
    k = max(2, min(m, max(4, 2 * girth), cap))
    return build_kwise(m, k)


# ---------------------------------------------------------------------------
# 1. exact bounded independence


def test_c01_exact_spaces_are_uniform_on_small_subsets():
    t0 = time.time()
    spaces = 0
    for n in range(2, 17):
        for k in range(1, min(4, n) + 1):
            space = build_kwise(n, k)
            for size in range(1, k + 1):
                report = verify_independence(space, k_check=size)
                assert report.max_tv == ZERO, (n, k, size, report.max_tv)
            spaces += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _passed(1, f"{spaces} exact spaces, every subset size, max_tv = 0 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. almost bounded independence


def test_c02_almost_spaces_meet_bias_with_short_seeds():
    t0 = time.time()
    deltas = (Fraction(1, 8), Fraction(1, 16))
    worst_tv = ZERO
    seed_threshold = 0
    spaces = 0
    for n in range(2, 33):
        for k in range(1, 4):
            for delta in deltas:
                space = build_almost_kwise(n, k, delta)
                report = verify_independence(space, k_check=min(k, n))
                assert report.max_tv <= delta, (n, k, delta, report.max_tv)
                worst_tv = max(worst_tv, report.max_tv)
                if space.seed_bits >= n:
                    seed_threshold = max(seed_threshold, n + 1)
                spaces += 1
    # A support below 2^n vectors cannot chase delta at tiny n; the seed
    # economy is only required once it is information-theoretically possible,
    # and it kicks in for every (k, delta) combination from n = 21 on.
    assert seed_threshold <= 21, seed_threshold
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _passed(2, f"{spaces} spaces, worst tv {worst_tv}, seed_bits < n from "
               f"n = {seed_threshold} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. marginal transform


def test_c03_grouped_spaces_hit_exact_power_of_two_marginals():
    t0 = time.time()
    combos = ((6, 2, 2), (5, 3, 2), (4, 2, 3), (8, 1, 3))
    checked = 0
    for n, k, L in combos:
        for complemented in (False, True):
            space = with_marginal(exact_builder, n, k, ZERO, L,
                                  complemented=complemented)
            rows = space.support_words()[:, 0]
            total = len(rows)
            want = Fraction(1, 2 ** L)
            if complemented:
                want = 1 - want
            for i in range(n):
                count = int(((rows >> i) & 1).sum())
                assert Fraction(count, total) == want, (n, k, L, complemented, i)
            checked += 1
    elapsed = time.time() - t0
    _passed(3, f"{checked} grouped spaces, exact 2^-L marginals both polarities "
               f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. resistance oracle closed forms


def test_c04_leverage_sums_and_closed_forms():
    rng = random.Random(20260819)
    for trial in range(100):
        n = rng.randint(2, 50)
        m_cap = min(3 * n, n * (n - 1) // 2 + 2)
        m = rng.randint(1, m_cap)
        edges = []
        for _ in range(m):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                v = (v + 1) % n
            edges.append((u, v, rng.choice([1.0, 1.0, 2.0, 0.5])))
        g = Graph(n, edges)
        table = leverage_scores(g)
        total = sum(table.leverage(e) for e in g.edge_ids())
        assert abs(total - (g.n - g.component_count())) <= 1e-6, trial

    triangle = gen_graph("cycle", {"length": 3})
    assert abs(effective_resistance(triangle, 0, 1) - Fraction(2, 3)) <= 1e-9

    k4 = gen_graph("complete", {"vertices": 4})
    table = leverage_scores(k4)
    for e in k4.edge_ids():
        assert abs(table.leverage(e) - Fraction(1, 2)) <= 1e-9

    path = Graph(5, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0), (3, 4, 5.0)])
    series = 1.0 + 0.5 + 0.25 + 0.2
    assert abs(effective_resistance(path, 0, 4) - series) <= 1e-9
    _passed(4, "100 random leverage sums to 1e-6; triangle, clique and series "
               "closed forms to 1e-9")


# ---------------------------------------------------------------------------
# 5. reweighting pipeline bounds


def _c05_instances():
    out = []
    for length in (5, 12, 25, 40, 60):
        out.append(gen_graph("cycle", {"length": length}))
    for length in (6, 15, 30):
        out.append(gen_graph("cycle", {"length": length}).duplicate_edges(2))
    for length in (8, 20):
        out.append(gen_graph("cycle", {"length": length}).duplicate_edges(3))
    for v in (4, 5, 7, 9, 13):
        out.append(gen_graph("complete", {"vertices": v}))
    for length, copies in ((3, 2), (4, 3), (5, 4), (6, 5), (4, 6)):
        out.append(gen_graph("multi_cycle", {"length": length, "copies": copies}))
    for n, d, s in ((10, 4, 1), (12, 6, 1), (14, 8, 1), (20, 4, 2), (16, 10, 1)):
        out.append(gen_graph("expander_like", {"vertices": n, "degree": d}, seed=s))
    return out


def test_c05_reweighting_meets_leverage_and_level_bounds():
    t0 = time.time()
    instances = _c05_instances()
    assert len(instances) == 25
    worst_ratio = 0.0
    max_levels = 0
    for g in instances:
        assert g.n <= 60
        c = g.min_cut().value
        assert 2 <= c <= 12, c
        result = reweight_min_cut(g)
        bound = 4.0 * result.alpha_eff / float(c)
        assert result.max_leverage <= bound + 1e-9, (c, result.max_leverage, bound)
        worst_ratio = max(worst_ratio, result.max_leverage / bound)
        assert result.level_count <= math.ceil(math.log2(g.m)) + 1
        max_levels = max(max_levels, result.level_count)
        cuts = result.level_min_cuts
        assert all(cuts[i] <= cuts[i + 1] for i in range(len(cuts) - 1)), cuts
        assert verify_converse(g, result.weights).ok
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _passed(5, f"25 instances, leverage within 4a/c (worst ratio "
               f"{worst_ratio:.3f}), levels <= {max_levels}, converse ok "
               f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 6. energy and contraction inequalities


def _random_connected(rng, n, extra):
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return Graph(n, edges)


def _connected_partition(g, rng, parts_cap):
    # grow connected chunks outward; every chunk stays inside one ball
    adj = {u: [] for u in range(g.n)}
    for e in g.edge_ids():
        a, b, _ = g.edge(e)
        adj[a].append(b)
        adj[b].append(a)
    h = rng.randint(2, parts_cap)
    cap = max(1, math.ceil(g.n / h))
    label = [-1] * g.n
    parts = []
    for root in range(g.n):
        if label[root] >= 0:
            continue
        chunk = [root]
        label[root] = len(parts)
        frontier = [root]
        while frontier and len(chunk) < cap:
            u = frontier.pop()
            for v in adj[u]:
                if label[v] < 0 and len(chunk) < cap:
                    label[v] = label[root]
                    chunk.append(v)
                    frontier.append(v)
        parts.append(chunk)
    return parts


def test_c06_energy_and_contraction_diameter_inequalities():
    rng = random.Random(7)
    for trial in range(25):
        n = rng.randint(6, 24)
        g = _random_connected(rng, n, rng.randint(n // 2, 2 * n))
        rdiam = resistance_diameter(g)

        verts = list(range(n))
        rng.shuffle(verts)
        ns = rng.randint(1, max(1, n // 3))
        nt = rng.randint(1, max(1, n // 3))
        demand = [0.0] * n
        for u in verts[:ns]:
            demand[u] = 1.0 / ns
        for v in verts[ns:ns + nt]:
            demand[v] -= 1.0 / nt
        energy = flow_energy(g, demand)
        assert energy <= rdiam + 1e-6, (trial, energy, rdiam)

        parts = _connected_partition(g, rng, 5)
        h = len(parts)
        inner = 0.0
        for part in parts:
            if len(part) > 1:
                inner = max(inner, resistance_diameter(g, vertex_subset=part))
        contracted, _ = g.contract_partition(parts)
        outer = resistance_diameter(contracted) if contracted.n > 1 else 0.0
        assert rdiam <= outer + h * inner + 1e-6, (trial, rdiam, outer, h, inner)
    _passed(6, "25 energy and 25 contraction-diameter inequalities to 1e-6")


# ---------------------------------------------------------------------------
# 7. window cut and cycle structure


def _c07_instances():
    return [
        gen_graph("cycle", {"length": 5}),
        gen_graph("cycle", {"length": 8}),
        gen_graph("theta", {"lengths": [2, 2, 3]}),
        gen_graph("theta", {"lengths": [3, 4, 5]}),
        gen_graph("complete", {"vertices": 4}),
        gen_graph("complete", {"vertices": 5}),
        gen_graph("multi_cycle", {"length": 2, "copies": 3}),
        gen_graph("multi_cycle", {"length": 3, "copies": 3}),
        gen_graph("dumbbell", {"left": 4, "right": 4}),
        gen_graph("subdivided", {"vertices": 4, "pieces": 2}),
        gen_graph("expander_like", {"vertices": 6, "degree": 4}, seed=1),
        _two_triangles(),
    ]


def _min_nonempty_cut(g):
    best = None
    for part in g.components():
        if len(part) < 2:
            continue
        sub, _ = g.induced_subgraph(part)
        value = sub.min_cut().value
        if best is None or value < best:
            best = value
    return best


def test_c07_window_cuts_and_cycles_leave_structured_remainders():
    cuts_checked = cycles_checked = 0
    for g in _c07_instances():
        cuts = g.enumerate_cuts()
        ell = min(len(eids) for eids, _, _ in cuts)
        for eids, _, _ in cuts:
            if 100 * len(eids) > 101 * ell:
                continue
            rest = g.delete_edges(eids)
            assert rest.component_count() == g.component_count() + 1
            floor = _min_nonempty_cut(rest)
            if floor is not None:
                assert 5 * floor >= ell, (sorted(eids), floor, ell)
            cuts_checked += 1
        cycles = g.enumerate_cycles()
        if not cycles:
            continue
        girth = min(len(c) for c in cycles)
        for cyc in cycles:
            if 100 * len(cyc) > 101 * girth:
                continue
            shrunk, _ = g.contract_edges(cyc)
            left = shrunk.girth()
            if left is not None:
                assert 5 * left >= girth, (sorted(cyc), left, girth)
            cycles_checked += 1
    _passed(7, f"{cuts_checked} window cuts and {cycles_checked} window cycles, "
               "zero exceptions")


# ---------------------------------------------------------------------------
# 8. connectivity preservation


def test_c08_subsampling_keeps_wellconnected_instances_connected():
    cases = [
        (gen_graph("multi_cycle", {"length": 2, "copies": 10}), build_kwise(20, 4)),
        (gen_graph("multi_cycle", {"length": 3, "copies": 4}), build_kwise(12, 4)),
        (gen_graph("multi_cycle", {"length": 3, "copies": 6}), build_kwise(18, 4)),
        (gen_graph("expander_like", {"vertices": 6, "degree": 10}, seed=1),
         build_almost_kwise(30, 8, Fraction(1, 8))),
        (gen_graph("expander_like", {"vertices": 8, "degree": 8}, seed=1),
         build_almost_kwise(32, 8, Fraction(1, 8))),
    ]
    worst = Fraction(1)
    for g, space in cases:
        assert g.m <= 60
        report = connectivity_experiment(g, space)
        rate = report.rates["success"]
        assert rate >= Fraction(9, 10), (report.spec, rate)
        assert rate >= report.rates["union_bound_floor"]
        worst = min(worst, rate)
    _passed(8, f"5 instances connected with rate >= union-bound floor, "
               f"worst rate {worst}")


# ---------------------------------------------------------------------------
# 9. cycle-freeness


def test_c09_high_girth_sampling_clears_joint_target():
    girthy = [
        gen_graph("theta", {"lengths": [3, 4, 5]}),
        gen_graph("cycle", {"length": 12}),
        gen_graph("subdivided", {"vertices": 4, "pieces": 3}),
        gen_graph("subdivided", {"vertices": 5, "pieces": 2}),
    ]
    for g in girthy:
        girth = g.girth()
        assert girth is not None and girth > math.log2(g.m)
        report = cyclefree_experiment(g, build_almost_kwise(g.m, 4, Fraction(1, 8)))
        assert report.rates["success"] > 0, report.spec

    for length in (4, 5, 6):
        g = gen_graph("cycle", {"length": length})
        report = cyclefree_experiment(g, build_kwise(length, length))
        denom = 2 ** length
        assert report.rates["acyclic"] == Fraction(denom - 1, denom)
        assert report.rates["success"] == Fraction(denom - 2, denom)
    _passed(9, "4 high-girth instances with joint rate > 0; single-cycle "
               "baselines match closed forms exactly")


# ---------------------------------------------------------------------------
# 10. unique survival


def _c10_instances():
    return [
        gen_graph("cycle", {"length": 5}),
        gen_graph("cycle", {"length": 6}),
        gen_graph("theta", {"lengths": [2, 2, 3]}),
        gen_graph("theta", {"lengths": [3, 4, 5]}),
        gen_graph("complete", {"vertices": 4}),
        gen_graph("complete", {"vertices": 5}),
        gen_graph("multi_cycle", {"length": 2, "copies": 3}),
        gen_graph("multi_cycle", {"length": 3, "copies": 2}),
        gen_graph("dumbbell", {"left": 3, "right": 3}),
        _two_triangles(),
    ]


def test_c10_every_window_cut_and_cycle_survives_uniquely_somewhere():
    t0 = time.time()
    targets = 0
    for g in _c10_instances():
        cuts = g.enumerate_cuts()
        ell = min(len(eids) for eids, _, _ in cuts)
        space = _cut_space(g.m, ell)
        for eids, _, _ in cuts:
            if 100 * len(eids) > 101 * ell:
                continue
            report = unique_cut_survival_experiment(g, eids, space)
            assert report.rates["success"] > 0, (report.spec, sorted(eids))
            targets += 1
        cycles = g.enumerate_cycles()
        if not cycles:
            continue
        girth = min(len(c) for c in cycles)
        space = _cycle_space(g.m, girth)
        for cyc in cycles:
            if 100 * len(cyc) > 101 * girth:
                continue
            report = unique_cycle_survival_experiment(g, cyc, space)
            assert report.rates["success"] > 0, (report.spec, sorted(cyc))
            targets += 1
    elapsed = time.time() - t0
    _passed(10, f"{targets} window targets, unique-survival rate > 0 on every "
                f"one ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 11. graphic basis finding end to end


def _c11_instances():
    out = []
    for length in (3, 4, 5, 6, 8, 10, 12, 16, 20, 30, 40, 48):
        out.append(gen_graph("cycle", {"length": length}))
    for v in (4, 5, 6, 7):
        out.append(gen_graph("complete", {"vertices": v}))
    for length, copies in ((2, 3), (2, 6), (2, 10), (3, 4), (3, 8), (4, 6),
                           (5, 4), (6, 8)):
        out.append(gen_graph("multi_cycle", {"length": length, "copies": copies}))
    for lens in ((2, 2, 3), (3, 4, 5), (2, 3, 4, 5), (4, 4, 4, 4)):
        out.append(gen_graph("theta", {"lengths": list(lens)}))
    for side in ((1, 1), (3, 3), (4, 4), (5, 5)):
        out.append(gen_graph("dumbbell", {"left": side[0], "right": side[1]}))
    for v, pieces in ((4, 2), (5, 3), (6, 2)):
        out.append(gen_graph("subdivided", {"vertices": v, "pieces": pieces}))
    for n, d, s in ((8, 4, 1), (10, 4, 1), (12, 6, 1), (16, 6, 1), (12, 8, 1),
                    (20, 4, 1), (10, 8, 1)):
        out.append(gen_graph("expander_like", {"vertices": n, "degree": d}, seed=s))
    out.append(Graph(7, [(i, i + 1) for i in range(6)]))
    out.append(Graph(6, [(0, i) for i in range(1, 6)]))
    out.append(_two_triangles())
    out.append(Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)]))
    out.append(_bundle(4))
    out.append(Graph(4, [(0, 0), (0, 1), (1, 2), (2, 3), (3, 1), (2, 2)]))
    out.append(gen_graph("complete", {"vertices": 5}).duplicate_edges(2))
    out.append(gen_graph("cycle", {"length": 9}).duplicate_edges(3))
    return out


def _check_basis_run(g, kind, rank, certify):
    first = find_basis(OracleSession(g, kind))
    second = find_basis(OracleSession(g, kind))
    assert len(first.basis) == rank
    certify(g, first.basis)
    assert first.verified
    assert abs(first.rounds_used - second.rounds_used) <= 1
    assert first.to_json() == second.to_json()
    constant = first.round_bound_constant()
    if constant is not None:
        assert constant <= 4.0, (g.m, constant)
    return constant or 0.0


def test_c11_graphic_bases_are_certified_fast_and_reproducible():
    t0 = time.time()
    instances = _c11_instances()
    assert len(instances) == 50
    worst = 0.0

    def certify(g, basis):
        kept = g.keep_edges(basis)
        assert kept.is_forest()
        assert kept.component_count() == g.component_count()

    for g in instances:
        assert g.m <= 48
        rank = g.n - g.component_count()
        worst = max(worst, _check_basis_run(g, GRAPHIC, rank, certify))
    elapsed = time.time() - t0
    _passed(11, f"50 instances, certified forests, rounds within "
                f"{worst:.2f} * log m * loglog m, reruns byte-equal "
                f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 12. cographic basis finding end to end


def _c12_instances():
    out = []
    for v in (4, 5, 7, 8):
        out.append(gen_graph("complete", {"vertices": v}))
    for copies in (4, 6, 8, 12):
        out.append(_bundle(copies))
    for length, copies in ((2, 3), (2, 5), (2, 8), (2, 10), (3, 3), (3, 5), (4, 4)):
        out.append(gen_graph("multi_cycle", {"length": length, "copies": copies}))
    for lens in ((1, 2, 2), (1, 1, 2)):
        out.append(gen_graph("theta", {"lengths": list(lens)}))
    for length, d in ((3, 3), (4, 3), (5, 2), (6, 3), (7, 3), (8, 2)):
        out.append(gen_graph("cycle", {"length": length}).duplicate_edges(d))
    for n, d, s in ((8, 6, 1), (10, 6, 1), (12, 8, 1), (8, 8, 2), (10, 8, 1)):
        out.append(gen_graph("expander_like", {"vertices": n, "degree": d}, seed=s))
    out.append(gen_graph("complete", {"vertices": 4}).duplicate_edges(2))
    two_k4 = Graph(8, [(a, b) for a in range(4) for b in range(a + 1, 4)]
                      + [(a + 4, b + 4) for a in range(4) for b in range(a + 1, 4)])
    out.append(two_k4)
    return out


def test_c12_cographic_bases_leave_spanning_complements():
    t0 = time.time()
    instances = _c12_instances()
    assert len(instances) == 30
    worst = 0.0

    def certify(g, basis):
        rest = g.delete_edges(basis)
        assert rest.component_count() == g.component_count()

    for g in instances:
        rank = g.m - g.n + g.component_count()
        worst = max(worst, _check_basis_run(g, COGRAPHIC, rank, certify))
    elapsed = time.time() - t0
    _passed(12, f"30 instances, |basis| = m - n + components, complements span, "
                f"rounds within {worst:.2f} * log m * loglog m ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 13. matroid axioms


def _c13_instances():
    return [
        gen_graph("cycle", {"length": 3}),
        gen_graph("cycle", {"length": 5}),
        gen_graph("theta", {"lengths": [2, 2, 3]}),
        gen_graph("theta", {"lengths": [2, 3, 3]}),
        gen_graph("complete", {"vertices": 4}),
        gen_graph("multi_cycle", {"length": 2, "copies": 3}),
        gen_graph("multi_cycle", {"length": 2, "copies": 4}),
        gen_graph("multi_cycle", {"length": 4, "copies": 2}),
        gen_graph("dumbbell", {"left": 3, "right": 3}),
        Graph(5, [(i, i + 1) for i in range(4)]),
        _two_triangles(),
        Graph(3, [(0, 0), (0, 1), (1, 2), (2, 2), (2, 0)]),
        _bundle(3),
        _bundle(8),
    ]


def test_c13_both_oracle_kinds_satisfy_matroid_axioms_exhaustively():
    subsets_checked = 0
    for g in _c13_instances():
        assert g.m <= 8
        eids = g.edge_ids()
        for ind in (ind_graphic, ind_cographic):
            flags = {}
            for r in range(g.m + 1):
                for sub in itertools.combinations(eids, r):
                    flags[frozenset(sub)] = ind(g, list(sub))
            for s, independent in flags.items():
                if independent:
                    for e in s:
                        assert flags[s - {e}], (ind.__name__, sorted(s), e)
            for a, fa in flags.items():
                if not fa:
                    continue
                for b, fb in flags.items():
                    if fb and len(b) > len(a):
                        assert any(flags[a | {e}] for e in b - a), \
                            (ind.__name__, sorted(a), sorted(b))
            subsets_checked += len(flags)
    _passed(13, f"14 instances x 2 oracle kinds, {subsets_checked} subsets, "
                "downward closure and exchange hold everywhere")


# ---------------------------------------------------------------------------
# 14. determinism


def _report_battery():
    blobs = []
    g = gen_graph("multi_cycle", {"length": 2, "copies": 10})
    blobs.append(connectivity_experiment(g, build_kwise(20, 4)).to_json())

    g = gen_graph("theta", {"lengths": [3, 4, 5]})
    blobs.append(cyclefree_experiment(
        g, build_almost_kwise(12, 4, Fraction(1, 8))).to_json())

    g = gen_graph("cycle", {"length": 5})
    cuts = g.enumerate_cuts()
    ell = min(len(eids) for eids, _, _ in cuts)
    target = next(sorted(eids) for eids, _, _ in cuts if len(eids) == ell)
    blobs.append(unique_cut_survival_experiment(
        g, target, _cut_space(g.m, ell)).to_json())

    g = gen_graph("dumbbell", {"left": 5, "right": 5})
    blobs.append(sparsify_experiment(
        g, 2, 0.9, 0.45, rate_scale=5e-4).to_json())

    g = gen_graph("multi_cycle", {"length": 2, "copies": 8})
    blobs.append(reweight_then_connectivity(g, 2, rate_scale=5.75e-3).to_json())

    blobs.append(reweight_min_cut(
        gen_graph("complete", {"vertices": 5})).summary_json())

    g = gen_graph("complete", {"vertices": 5})
    blobs.append(find_basis(OracleSession(g, GRAPHIC)).to_json())
    blobs.append(find_basis(OracleSession(g, COGRAPHIC)).to_json())

    space = build_almost_kwise(16, 3, Fraction(1, 16))
    report = verify_independence(space)
    blobs.append(str(space.descriptor()) + "|" + str(report.max_tv))
    return "\n".join(blobs).encode()


def test_c14_full_battery_is_byte_identical_across_runs():
    first = _report_battery()
    second = _report_battery()
    assert first == second
    _passed(14, f"{len(first)} report bytes, two builds byte-identical")

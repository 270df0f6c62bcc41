"""Spectral tests against closed-form electrical values (series, parallel,
symmetry plus the sum rule) and small random instances."""

import ast
import hashlib
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from edgewise import spectral as spectral_module
from edgewise.experiments import gen_graph
from edgewise.graph import Graph
from edgewise.spectral import (
    edge_form_checker,
    effective_resistance,
    flow_energy,
    laplacian,
    leverage_scores,
    pseudoinverse,
    resistance_diameter,
    solve_potentials,
    sparsify_rates,
    spectral_approx_check,
)
from oracles import induced_resistance_diameter, loop_laplacian


def cycle_graph(L):
    return Graph(L, [(i, (i + 1) % L) for i in range(L)])


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_connected(seed, n_lo=4, n_hi=10):
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(1, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return Graph(n, edges)


def test_laplacian_small():
    L = laplacian(Graph(2, [(0, 1)]))
    assert np.array_equal(L, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    L3 = laplacian(complete_graph(3))
    assert np.array_equal(np.diag(L3), [2.0, 2.0, 2.0])
    assert L3[0, 1] == -1.0


def test_laplacian_quadratic_form():
    g = random_connected(3)
    L = laplacian(g)
    assert np.allclose(L.sum(axis=1), 0.0)
    rng = random.Random(0)
    for _ in range(5):
        x = np.array([rng.uniform(-1, 1) for _ in range(g.n)])
        direct = sum(float(w) * (x[u] - x[v]) ** 2 for _, u, v, w in g.edges())
        assert abs(x @ L @ x - direct) < 1e-9


def test_pseudoinverse_projects_kernel():
    g = random_connected(5)
    P = pseudoinverse(g)
    L = laplacian(g)
    proj = np.eye(g.n) - np.ones((g.n, g.n)) / g.n
    assert np.allclose(P @ L, proj, atol=1e-8)
    assert np.allclose(P.sum(axis=1), 0.0, atol=1e-8)


def test_effective_resistance_series_parallel():
    path = Graph(3, [(0, 1), (1, 2)])
    assert abs(effective_resistance(path, 0, 2) - 2.0) < 1e-9
    tri = complete_graph(3)
    assert abs(effective_resistance(tri, 0, 1) - 2.0 / 3.0) < 1e-9
    lone = Graph(2, [(0, 1, Fraction(5, 2))])
    assert abs(effective_resistance(lone, 0, 1) - 0.4) < 1e-9
    par = Graph(2, [(0, 1, 1), (0, 1, 3)])
    assert abs(effective_resistance(par, 0, 1) - 0.25) < 1e-9
    square = cycle_graph(4)
    assert abs(effective_resistance(square, 0, 2) - 1.0) < 1e-9
    assert effective_resistance(square, 1, 1) == 0.0


def test_effective_resistance_rejects_vertices_out_of_range():
    path = Graph(3, [(0, 1), (1, 2)])
    for u, v in ((-1, 0), (0, -1), (5, 5), (5, 0), (0, 3), (3, 3)):
        with pytest.raises(ValueError, match="vertex out of range"):
            effective_resistance(path, u, v)
    assert effective_resistance(path, 2, 2) == 0.0


def test_effective_resistance_across_components():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="infinite"):
        effective_resistance(g, 0, 3)


def test_leverage_tree_is_all_ones():
    g = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    table = leverage_scores(g)
    for eid in g.edge_ids():
        assert abs(table.leverage(eid) - 1.0) < 1e-9


@pytest.mark.parametrize("n", [3, 5, 8])
def test_leverage_cycle(n):
    table = leverage_scores(cycle_graph(n))
    for eid in range(1, n + 1):
        assert abs(table.leverage(eid) - (n - 1) / n) < 1e-9


def test_leverage_k4_is_half():
    table = leverage_scores(complete_graph(4))
    for eid in table.entries:
        assert abs(table.leverage(eid) - 0.5) < 1e-9
    assert abs(table.max_leverage() - 0.5) < 1e-9


@pytest.mark.parametrize("seed", range(15))
def test_leverage_sum_rule(seed):
    g = random_connected(seed)
    table = leverage_scores(g)
    total = sum(table.leverage(e) for e in g.edge_ids())
    assert abs(total - (g.n - 1)) < 1e-6


def test_leverage_sum_rule_disconnected():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    table = leverage_scores(g)
    total = sum(table.leverage(e) for e in g.edge_ids())
    assert abs(total - (g.n - 2)) < 1e-6
    assert len(table.component_rdiam) == 2
    assert abs(table.component_rdiam[0] - 2.0 / 3.0) < 1e-9
    assert abs(table.component_rdiam[1] - 1.0) < 1e-9


def test_resistance_table_csv():
    csv = leverage_scores(Graph(2, [(0, 1)])).to_csv()
    lines = csv.splitlines()
    assert lines[0] == "edge_index,u,v,w,reff,leverage"
    assert lines[1].startswith("1,0,1,1,")


def test_resistance_diameter():
    assert abs(resistance_diameter(Graph(2, [(0, 1, 2)])) - 0.5) < 1e-9
    path = Graph(5, [(i, i + 1) for i in range(4)])
    assert abs(resistance_diameter(path) - 4.0) < 1e-9
    assert abs(resistance_diameter(cycle_graph(5)) - 6.0 / 5.0) < 1e-9
    assert resistance_diameter(path, [2]) == 0.0


def test_resistance_diameter_induced_not_global():
    # the subset {0, 2} of C4 induces an edgeless graph even though both
    # vertices are connected through the rest of the cycle
    with pytest.raises(ValueError, match="disconnected"):
        resistance_diameter(cycle_graph(4), [0, 2])


@pytest.mark.parametrize("seed", range(8))
def test_rayleigh_monotonicity(seed):
    g = random_connected(seed)
    P_before = pseudoinverse(g)
    d = np.diag(P_before)
    R_before = d[:, None] + d[None, :] - 2 * P_before
    rng = random.Random(seed)
    eid = rng.choice(g.edge_ids())
    h = g.delete_edges([eid])
    if not h.is_connected():
        return
    P_after = pseudoinverse(h)
    d = np.diag(P_after)
    R_after = d[:, None] + d[None, :] - 2 * P_after
    assert (R_after - R_before).min() > -1e-9


def test_sparsify_rates_formula_and_clamp():
    g = Graph(2, [(0, 1), (0, 1)])
    table = leverage_scores(g)
    plan = sparsify_rates(g, table, k=2, epsilon=0.5, delta=0.25)
    s = (18 * math.e * math.log2(2) / 0.25) * (2 / 0.25) ** 1.0
    assert abs(plan.s - s) < 1e-9
    assert plan.rates == {1: 1.0, 2: 1.0}  # leverage 1/2 each, huge s
    assert plan.clamped() == [1, 2]
    assert plan.flags == ("k_above_log2_n",)  # k = 2 > log2(2)


def test_sparsify_rates_epsilon_scaling():
    g = cycle_graph(8)
    table = leverage_scores(g)
    a = sparsify_rates(g, table, k=2, epsilon=0.25, delta=0.25)
    b = sparsify_rates(g, table, k=2, epsilon=0.5, delta=0.25)
    assert abs(a.s - 4 * b.s) < 1e-6


def test_sparsify_rates_logn_regime():
    # with k = log2 n and delta = 1/n the oversampling factor is a constant
    # multiple of log2 n
    ratios = []
    for j in [4, 6, 8]:
        n = 1 << j
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        table = leverage_scores(g)
        plan = sparsify_rates(g, table, k=j, epsilon=0.5, delta=1.0 / n)
        ratios.append(plan.s / math.log2(n))
    assert max(ratios) - min(ratios) < 1e-6


def test_sparsify_rates_flags_and_validation():
    g = cycle_graph(4)
    table = leverage_scores(g)
    assert "k_odd" in sparsify_rates(g, table, 3, 0.5, 0.25).flags
    assert "k_above_log2_n" in sparsify_rates(g, table, 4, 0.5, 0.25).flags
    assert any(
        f.startswith("rate_scale") for f in sparsify_rates(g, table, 2, 0.5, 0.25, rate_scale=0.5).flags
    )
    with pytest.raises(ValueError):
        sparsify_rates(g, table, 2, 1.5, 0.25)
    with pytest.raises(ValueError):
        sparsify_rates(g, table, 2, 0.5, 0.75)


def test_spectral_approx_identity_and_scaling():
    g = random_connected(7)
    rep = spectral_approx_check(g, g, 0.01)
    assert rep.ok and abs(rep.min_ratio - 1) < 1e-9 and abs(rep.max_ratio - 1) < 1e-9
    scaled = g.with_weights({e: g.weight(e) * Fraction(21, 20) for e in g.edge_ids()})
    rep = spectral_approx_check(g, scaled, 0.1)
    assert rep.ok and abs(rep.max_ratio - 1.05) < 1e-9
    rep = spectral_approx_check(g, scaled, 0.01)
    assert not rep.ok


def test_spectral_approx_missing_bridge_fails():
    g = Graph(4, [(0, 1), (1, 2), (1, 2), (2, 3)])
    h = g.delete_edges([4])  # drop the bridge 2-3
    rep = spectral_approx_check(g, h, 0.99)
    assert not rep.ok
    assert abs(rep.min_ratio) < 1e-9


def test_spectral_approx_cross_component_edge_rejected():
    g = Graph(4, [(0, 1), (2, 3)])
    h = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="crosses"):
        spectral_approx_check(g, h, 0.5)


def test_solve_potentials_and_energy():
    g = Graph(2, [(0, 1, Fraction(1, 3))])
    e = flow_energy(g, [1.0, -1.0])
    assert abs(e - 3.0) < 1e-9  # energy of a unit flow = resistance
    path = Graph(3, [(0, 1), (1, 2)])
    assert abs(flow_energy(path, [1.0, 0.0, -1.0]) - 2.0) < 1e-9
    x = solve_potentials(path, [1.0, 0.0, -1.0])
    assert abs((x[0] - x[1]) - 1.0) < 1e-9  # unit current through unit edge
    with pytest.raises(ValueError, match="balance"):
        solve_potentials(path, [1.0, 0.0, 0.0])


def test_energy_bounded_by_resistance_diameter():
    # spread unit current over sources and sinks: energy stays within the
    # resistance diameter
    g = complete_graph(5)
    R = resistance_diameter(g)
    rng = random.Random(1)
    for _ in range(10):
        b = np.zeros(5)
        b[0], b[1] = 0.3, 0.7
        t = rng.uniform(0.1, 0.9)
        b[3], b[4] = -t, -(1 - t)
        assert flow_energy(g, b) <= R + 1e-9


# weights whose float sums round: thirds, sevenths and powers of ten
INEXACT = [Fraction(1, 3), Fraction(2, 7), Fraction(1, 10), Fraction(1, 100),
           Fraction(1, 10**6), Fraction(1, 10**12), Fraction(3, 2), Fraction(1)]


def random_rational_multigraph(seed):
    """Parallel edges, dropped loops, zero weights, isolated vertices and
    gaps in the edge ids."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        w = rng.choice(INEXACT + [Fraction(0), Fraction(rng.randint(1, 50), rng.randint(1, 50))])
        edges.append((u, v, w))
    g = Graph(n, edges)
    drop = [eid for eid in g.edge_ids() if rng.random() < 0.2]
    return g.delete_edges(drop)


def test_laplacian_bitwise_equals_edge_loop():
    mismatches = [
        seed for seed in range(300)
        if laplacian(g := random_rational_multigraph(seed)).tobytes()
        != loop_laplacian(g).tobytes()
    ]
    assert mismatches == []


def connected_parts(g, rng, count):
    """Vertex sets that induce connected subgraphs: BFS prefixes."""
    adj = g.adjacency()
    out = []
    for _ in range(count):
        root = rng.randrange(g.n)
        order, seen = [root], {root}
        for x in order:
            for y, _ in adj[x]:
                if y not in seen:
                    seen.add(y)
                    order.append(y)
        out.append(order[: rng.randint(2, len(order))])
    return out


def outcome(fn, *args):
    """The value, or the error (type and text) when the kernel check fails:
    weight ratios up to 10^12 put some Laplacians past KERNEL_REL_TOL."""
    try:
        return fn(*args)
    except RuntimeError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("seed", range(20))
def test_resistance_diameter_bitwise_equals_induced_subgraph(seed):
    rng = random.Random(seed)
    g = random_connected(seed, 5, 14)
    g = g.with_weights({eid: rng.choice(INEXACT) for eid in g.edge_ids()})
    for part in connected_parts(g, rng, 8) + [list(range(g.n))]:
        got = outcome(resistance_diameter, g, part)
        assert got == outcome(induced_resistance_diameter, g, part)
        assert got == outcome(resistance_diameter, g.induced_subgraph(part)[0])
    assert outcome(resistance_diameter, g) == outcome(induced_resistance_diameter, g, range(g.n))


def test_resistance_diameter_subset_validation():
    g = cycle_graph(6)
    for bad in ([-1, 0, 1], [0, 1, 6], [-1]):
        with pytest.raises(ValueError, match="out of range"):
            resistance_diameter(g, bad)
    with pytest.raises(ValueError, match="disconnected"):
        resistance_diameter(g, [0, 1, 3, 4])
    assert resistance_diameter(g, [2, 0, 1, 1, 0]) == resistance_diameter(g, [0, 1, 2])
    assert resistance_diameter(g, []) == 0.0
    assert resistance_diameter(g, [3, 3, 3]) == 0.0
    assert resistance_diameter(Graph(1, [])) == 0.0


def test_leverage_scores_builds_one_whole_graph_union_find(monkeypatch):
    # _eig's component count comes from the cache components() fills
    whole = []
    real = Graph.union_find

    def counted(self, eids=None):
        whole.append(eids is None)
        return real(self, eids)

    monkeypatch.setattr(Graph, "union_find", counted)
    leverage_scores(gen_graph("expander_like", {"vertices": 24, "degree": 4}))
    assert whole.count(True) == 1


def test_leverage_scores_pinned_on_disconnected_rational_multigraph():
    # three components (a weighted triangle with a parallel edge, a 1/10^k
    # path, an isolated vertex), edge ids interleaved across components;
    # sha256 of the CSV and component diameters captured before the
    # component sums moved to one components() pass
    edges = [(0, 1, Fraction(1, 3)), (3, 4, Fraction(1, 10)), (1, 2, Fraction(2, 7)),
             (4, 5, Fraction(1, 100)), (2, 0, Fraction(1, 3)), (5, 6, Fraction(1, 1000)),
             (0, 1, Fraction(2, 7)), (3, 6, Fraction(1, 10**6))]
    t = leverage_scores(Graph(8, edges))
    blob = t.to_csv() + repr(t.component_rdiam)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "19b3b9b49aebbea81be5f30ea8ac67b0af0c1a0c184c0f0415e55f5d9c92e297"
    )


def test_leverage_scores_pinned_on_expander():
    # sha256 of the CSV and component diameters, captured before per-edge
    # data moved to edge_record() arrays
    t = leverage_scores(gen_graph("expander_like", {"vertices": 256, "degree": 6}, seed=7))
    assert hashlib.sha256((t.to_csv() + repr(t.component_rdiam)).encode()).hexdigest() == (
        "1eeba1d2ef222d935eba4bd29e525bc4f09ee1320496a0b1c7e54528b5f02f15"
    )


def _private_spectral_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of each underscore name imported from edgewise.spectral."""
    return [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module in ("spectral", "edgewise.spectral")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_only_spectral_reads_its_private_names():
    # the electrical solver can then be swapped inside spectral.py alone
    src = Path(spectral_module.__file__).parent
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(src.glob("*.py"))
        if path.name != "spectral.py"
        for line, name in _private_spectral_imports(ast.parse(path.read_text()))
    ]
    assert found == []
    # the guard sees what it is meant to catch
    probe = ast.parse(
        "from .spectral import _eig, laplacian\nfrom edgewise.spectral import _pinv\n"
        "from .graph import _WORD\nfrom .spectral import pseudoinverse\n"
    )
    assert _private_spectral_imports(probe) == [(1, "_eig"), (2, "_pinv")]


def test_sparsify_rates_edge_cases():
    c4 = gen_graph("cycle", {"length": 4})
    with pytest.raises(ValueError, match="k must be >= 1"):
        sparsify_rates(c4, leverage_scores(c4), 0, 0.5, 0.25)
    plan = sparsify_rates(Graph(1), leverage_scores(Graph(1)), 2, 0.5, 0.25)
    assert (plan.s, plan.rates, plan.flags) == (0.0, {}, ())


def test_spectral_approx_check_edge_cases():
    with pytest.raises(ValueError, match="vertex sets differ"):
        spectral_approx_check(Graph(3), Graph(4), 0.5)
    # an edgeless g leaves an empty image: h, edgeless too, matches it
    report = spectral_approx_check(Graph(3), Graph(3), 0.5)
    assert (report.ok, report.min_ratio, report.max_ratio) == (True, 1.0, 1.0)


def test_edge_form_checker_needs_an_edge():
    with pytest.raises(ValueError, match="no edges to compare against"):
        edge_form_checker(Graph(3), 0.5)


def test_solve_potentials_needs_one_demand_per_vertex():
    with pytest.raises(ValueError, match="one entry per vertex"):
        solve_potentials(gen_graph("cycle", {"length": 4}), [1, -1])

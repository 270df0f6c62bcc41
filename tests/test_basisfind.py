"""Circuit detection, window listing, harvest, and the basis driver.

Listing results are checked against the exhaustive cycle/cut enumerators on
small graphs, and every driver run is certified directly on the graph:
acyclic + spanning for the graphic kind, complement-spanning + exact size for
the cographic kind.
"""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from edgewise.basisfind import (
    BasisReport,
    CircuitList,
    ClaimViolation,
    Constants,
    PreconditionError,
    delete_circuits,
    detect_single_circuit,
    find_basis,
    find_large_independent_set,
    list_circuits,
)
from edgewise.experiments import gen_graph
from edgewise.graph import Graph
from edgewise.matroid import COGRAPHIC, GRAPHIC, OracleSession, ind_cographic, ind_graphic
from oracles import brute_force_ranks


def theta(a: int, b: int, c: int) -> Graph:
    """Two hub vertices joined by three internally disjoint paths."""
    edges = []
    n = 2
    for length in (a, b, c):
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, n))
            prev = n
            n += 1
        edges.append((prev, 1))
    return Graph(n, edges)


def random_multigraph(seed: int, n: int, m: int) -> Graph:
    rng = random.Random(seed)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            v = (v + 1) % n
        edges.append((u, v))
    return Graph(n, edges)


TRIANGLE_PENDANTS = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
TWO_TRIANGLES = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
K4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


# -- detection ----------------------------------------------------------------


def test_detect_forest_is_none():
    s = OracleSession(Graph(4, [(0, 1), (1, 2), (2, 3)]), GRAPHIC)
    assert detect_single_circuit(s, {1, 2, 3}) == (None, "none")


def test_detect_unique_triangle_among_pendants():
    s = OracleSession(TRIANGLE_PENDANTS, GRAPHIC)
    circuit, status = detect_single_circuit(s, {1, 2, 3, 4, 5})
    assert status == "unique"
    assert circuit == frozenset({1, 2, 3})


def test_detect_two_disjoint_triangles_is_multiple():
    s = OracleSession(TWO_TRIANGLES, GRAPHIC)
    assert detect_single_circuit(s, set(range(1, 7))) == (None, "multiple")


def test_detect_two_overlapping_triangles_is_multiple():
    g = Graph(4, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 2)])
    s = OracleSession(g, GRAPHIC)
    assert detect_single_circuit(s, {1, 2, 3, 4, 5}) == (None, "multiple")


def test_detect_uses_one_round():
    s = OracleSession(TRIANGLE_PENDANTS, GRAPHIC)
    detect_single_circuit(s, {1, 2, 3, 4})
    assert s.ledger.total_rounds == 1
    assert s.ledger.total_queries == 5


# -- simultaneous deletion -------------------------------------------------------


def test_delete_circuits_takes_largest_index():
    out = delete_circuits({1, 2, 3, 4}, [frozenset({1, 2, 3})])
    assert out == {1, 2, 4}


def test_delete_circuits_shared_nominee_removed_once():
    circuits = [frozenset({1, 2, 5}), frozenset({3, 4, 5})]
    out = delete_circuits({1, 2, 3, 4, 5, 6}, circuits)
    assert out == {1, 2, 3, 4, 6}


def test_delete_circuits_empty_list_is_identity():
    assert delete_circuits({1, 2, 3}, []) == {1, 2, 3}


def test_delete_circuits_empty_circuit_rejected():
    with pytest.raises(ValueError, match="empty circuit"):
        delete_circuits({1, 2}, [frozenset({1, 2}), frozenset()])


def test_delete_circuits_foreign_circuit_rejected():
    with pytest.raises(ValueError):
        delete_circuits({1, 2}, [frozenset({2, 3})])


@pytest.mark.parametrize("seed", range(8))
def test_delete_circuits_preserves_rank(seed):
    g = random_multigraph(seed, 6, 14)
    s = OracleSession(g, GRAPHIC)
    girth = g.girth()
    if girth is None:
        pytest.skip("forest draw")
    before = s.rank()
    clist = list_circuits(s, girth, dataclasses.replace(Constants.desk(), girth_mult=3.0))
    kept = delete_circuits(s.elements(), clist.circuits)
    removed = set(s.elements()) - kept
    if removed:
        s.delete(removed)
    assert s.rank() == before


# -- window listing ---------------------------------------------------------------


def test_list_cycles_matches_enumeration_on_k4():
    s = OracleSession(K4, GRAPHIC)
    clist = list_circuits(s, 3, dataclasses.replace(Constants.desk(), girth_mult=2.0))
    expected = {frozenset(c) for c in K4.enumerate_cycles() if len(c) == 3}
    assert set(clist.circuits) == expected
    assert len(expected) == 4
    assert clist.mode == "brute"


def test_list_cycles_theta_window_seven():
    th = theta(3, 4, 5)
    consts = dataclasses.replace(Constants.desk(), girth_mult=2.0)
    s = OracleSession(th, GRAPHIC)
    clist = list_circuits(s, 7, consts)
    assert clist.size_window == (7, 7)
    assert [sorted(c) for c in clist.circuits] == [[1, 2, 3, 4, 5, 6, 7]]


def test_list_cycles_theta_below_girth_is_empty():
    th = theta(3, 4, 5)
    consts = dataclasses.replace(Constants.desk(), girth_mult=2.0)
    assert list_circuits(OracleSession(th, GRAPHIC), 3, consts).circuits == ()


def test_list_cycles_forest_empty():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert list_circuits(OracleSession(g, GRAPHIC), 1).circuits == ()


@pytest.mark.parametrize("seed", range(6))
def test_list_cycles_at_girth_complete(seed):
    g = random_multigraph(seed + 20, 7, 12)
    girth = g.girth()
    if girth is None:
        pytest.skip("forest draw")
    consts = dataclasses.replace(Constants.desk(), girth_mult=3.0)
    clist = list_circuits(OracleSession(g, GRAPHIC), girth, consts)
    expected = {frozenset(c) for c in g.enumerate_cycles() if len(c) == girth}
    assert set(clist.circuits) == expected


def test_list_cuts_bridge():
    g = Graph(4, [(0, 1), (1, 2), (1, 2), (2, 3), (2, 3)])
    clist = list_circuits(OracleSession(g, COGRAPHIC), 1)
    assert [sorted(c) for c in clist.circuits] == [[1]]


def test_list_cuts_parallel_pair_between_triangles():
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (0, 3)])
    consts = dataclasses.replace(Constants.desk(), cut_mult=1.0)
    clist = list_circuits(OracleSession(g, COGRAPHIC), 2, consts)
    assert frozenset({7, 8}) in set(clist.circuits)
    # everything listed really is a 2-cut
    expected = {eids for eids, _, _ in g.enumerate_cuts() if len(eids) == 2}
    assert set(clist.circuits) == expected


def test_list_cuts_k4_star_cuts():
    consts = dataclasses.replace(Constants.desk(), cut_mult=2.0)
    clist = list_circuits(OracleSession(K4, COGRAPHIC), 3, consts)
    expected = {eids for eids, _, _ in K4.enumerate_cuts() if len(eids) == 3}
    assert set(clist.circuits) == expected
    assert len(expected) == 4


def test_listing_window_and_kind_validation():
    s = OracleSession(K4, GRAPHIC)
    with pytest.raises(PreconditionError):
        list_circuits(s, 0)
    with pytest.raises(PreconditionError):
        # desk threshold is 0.5*log2(6) < 3
        list_circuits(s, 3)


def test_listing_returns_circuits_shorter_than_the_window():
    # the window is [3, 3], yet the three parallel pairs come back beside
    # the eight triangles: every circuit up to the window's end is listed
    g = gen_graph("multi_cycle", {"length": 3, "copies": 2})
    consts = dataclasses.replace(Constants.desk(), girth_mult=3.0)
    clist = list_circuits(OracleSession(g, GRAPHIC), 3, consts)
    assert clist.size_window == (3, 3)
    assert sorted(len(c) for c in clist.circuits) == [2] * 3 + [3] * 8
    assert set(clist.circuits) == set(g.enumerate_cycles())


@pytest.mark.parametrize(
    "call,kwargs,message",
    [
        (find_basis, {"mode": "sample", "sample_count": 2.5}, "trials must be an int >= 1"),
        (find_basis, {"mode": "bogus"}, "unknown mode 'bogus'"),
        (lambda s, **kw: list_circuits(s, 1, **kw), {"mode": "bogus"}, "unknown mode 'bogus'"),
        (find_large_independent_set, {"mode": "bogus"}, "unknown mode 'bogus'"),
        (find_large_independent_set, {"mode": "sample", "sample_count": 0}, "trials >= 1"),
    ],
    ids=["basis-count", "basis-mode", "listing-mode", "harvest-mode", "harvest-count"],
)
def test_bad_mode_or_count_is_refused_before_any_round(call, kwargs, message):
    s = OracleSession(K4, GRAPHIC)
    with pytest.raises(ValueError, match=message):
        call(s, **kwargs)
    assert s.ledger.rounds == []


def test_brute_listing_over_budget_names_its_subset_count():
    # window [1, 1] on complete(7) queries every subset of up to 2 of its 21
    # edges: 21 + 210 = 231 queries, refused before any round is run
    g = Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
    session = OracleSession(g, GRAPHIC)
    consts = dataclasses.replace(Constants.desk(), enum_budget=50)
    with pytest.raises(PreconditionError, match="queries 231 subsets of up to 2 elements") as ei:
        list_circuits(session, 1, consts)
    assert "budget is 50 (needs a budget of at least 231)" in str(ei.value)
    assert session.ledger.total_rounds == 0
    assert len(list_circuits(session, 1, dataclasses.replace(consts, enum_budget=231)).circuits) == 0


def minor_circuits(g, kind, contracted, deleted, ell):
    """Every circuit of at most ell elements of g's minor with `contracted`
    contracted and `deleted` deleted, from exhaustive ranks: by size, then in
    itertools.combinations order over the remaining ids."""
    ranks = brute_force_ranks(g, kind, given=frozenset(contracted))
    elems = [e for e in g.edge_ids() if e not in contracted | deleted]
    return [
        frozenset(c)
        for size in range(1, ell + 1)
        for c in combinations(elems, size)
        if ranks[frozenset(c)] < size and all(ranks[frozenset(c) - {e}] == size - 1 for e in c)
    ]


@pytest.mark.parametrize("kind", [GRAPHIC, COGRAPHIC])
@pytest.mark.parametrize("seed", range(8))
def test_brute_listing_on_a_minor_matches_exhaustive_ranks_in_order(seed, kind):
    g = random_multigraph(seed + 60, 5, 9)
    singles = brute_force_ranks(g, kind)
    contracted = next(e for e in g.edge_ids() if singles[frozenset({e})] == 1)
    deleted = max(e for e in g.edge_ids() if e != contracted)
    session = OracleSession(g, kind)
    session.contract({contracted})
    session.delete({deleted})
    consts = dataclasses.replace(Constants.desk(), girth_mult=3.0, cut_mult=3.0)
    listed = 0
    for ell in (1, 2, 3):
        clist = list_circuits(session, ell, consts)
        assert clist.mode == "brute"
        expected = minor_circuits(g, kind, {contracted}, {deleted}, ell)
        assert list(clist.circuits) == expected
        listed += len(expected)
    assert listed > 0


def test_listing_sampled_regime_enumerated_cuts():
    # force the sample-space path with a zero cutoff; exact pairwise space at
    # marginal 1/2 still isolates the parallel-pair cut
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (0, 3)])
    consts = dataclasses.replace(
        Constants.desk(), small_ell_cutoff=0, cut_mult=1.0, k_list_mult=1.0, c_cut=0.5
    )
    clist = list_circuits(OracleSession(g, COGRAPHIC), 2, consts)
    assert clist.mode == "enumerate"
    assert frozenset({7, 8}) in set(clist.circuits)
    real = {eids for eids, _, _ in g.enumerate_cuts() if len(eids) == 2}
    assert set(clist.circuits) <= real


def test_listing_sampled_regime_monte_carlo_cycles():
    consts = dataclasses.replace(
        Constants.desk(), small_ell_cutoff=0, girth_mult=2.0, k_list_mult=1.0,
        list_delta_exp=0.5,
    )
    s = OracleSession(TRIANGLE_PENDANTS, GRAPHIC)
    clist = list_circuits(s, 3, consts, mode="sample", sample_count=300, seed=11)
    assert clist.mode == "sample"
    assert set(clist.circuits) == {frozenset({1, 2, 3})}


def _sampled_mode_bytes() -> str:
    """Report bytes of the sample-space paths: sampled-regime listing of each
    kind in both modes (circuits and ledger), then sample-mode find_basis on
    both kinds, with the desk profile and with the sampled listing regime."""
    graphic = dataclasses.replace(
        Constants.desk(), small_ell_cutoff=0, girth_mult=2.0, k_list_mult=1.0,
        list_delta_exp=0.5,
    )
    cographic = dataclasses.replace(
        Constants.desk(), small_ell_cutoff=0, cut_mult=1.0, k_list_mult=1.0, c_cut=0.5
    )
    pair = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (0, 3)])
    out = []
    for g, kind, consts, ell in (
        (TRIANGLE_PENDANTS, GRAPHIC, graphic, 3), (pair, COGRAPHIC, cographic, 2),
    ):
        for mode in ("enumerate", "sample"):
            s = OracleSession(g, kind)
            out.append(list_circuits(s, ell, consts, mode=mode, sample_count=300, seed=11).to_json())
            out.append(json.dumps(s.ledger.to_dict(), sort_keys=True))
    g = random_multigraph(2, 6, 14)
    for kind in (GRAPHIC, COGRAPHIC):
        for consts in (Constants.desk(), graphic if kind == GRAPHIC else cographic):
            report = find_basis(
                OracleSession(g, kind), constants=consts, mode="sample", sample_count=200, seed=3
            )
            out.append(report.to_json())
    return "\n".join(out)


def test_sampled_mode_report_bytes_are_pinned():
    # captured before the listing and the harvest moved to mode_blocks
    digest = hashlib.sha256(_sampled_mode_bytes().encode()).hexdigest()
    assert digest == "4e6565705128bcfa4b53b67ca52a01a7f9fcd2204224d9e7ded288639937cab5"


# -- harvest ---------------------------------------------------------------------


def test_flis_graphic_forest_returns_everything():
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    s = OracleSession(g, GRAPHIC)
    assert find_large_independent_set(s) == {1, 2, 3, 4}
    # the full-set ride-along answers it in a single round
    assert s.ledger.total_rounds == 1


def test_flis_graphic_long_cycle():
    g = Graph(12, [(i, (i + 1) % 12) for i in range(12)])
    s = OracleSession(g, GRAPHIC)
    got = find_large_independent_set(s)
    assert got and len(got) >= g.m // 10
    assert ind_graphic(g, got)
    assert len(got) < g.m


def test_flis_graphic_precondition():
    consts = dataclasses.replace(Constants.desk(), girth_mult=2.0)
    s = OracleSession(Graph(3, [(0, 1), (1, 2), (2, 0)]), GRAPHIC)
    with pytest.raises(PreconditionError):
        find_large_independent_set(s, constants=consts)


def test_flis_threshold_reads_the_original_ground_set():
    # a minor of 8 of multi_cycle(8,2)'s 16 edges still holds 2-circuits: the
    # threshold is 0.5 log2(16) = 2.00 at m = 16 (1.50 at the minor's size)
    g = gen_graph("multi_cycle", {"length": 8, "copies": 2})
    session = OracleSession(g, GRAPHIC)
    session.delete(range(1, 9))
    with pytest.raises(PreconditionError, match="size 2 is within the sweep threshold 2.00"):
        find_large_independent_set(session)
    assert session.ledger.total_rounds == 0


def test_flis_cographic_tripled_triangle():
    edges = [(0, 1), (1, 2), (2, 0)] * 3
    g = Graph(3, edges)
    assert g.min_cut().value == 6
    s = OracleSession(g, COGRAPHIC)
    got = find_large_independent_set(s)
    assert len(got) >= g.m // 10
    assert ind_cographic(g, got)
    # complement spans: deleting the returned set keeps the graph connected
    assert g.delete_edges(got).is_connected()


def test_flis_cographic_bridge_precondition():
    g = Graph(4, [(0, 1), (1, 2), (1, 2), (2, 3), (2, 3)])
    with pytest.raises(PreconditionError):
        find_large_independent_set(OracleSession(g, COGRAPHIC))


@pytest.mark.parametrize(
    "kind,listing,harvest",
    [(GRAPHIC, "list-cycles", "flis-graphic"), (COGRAPHIC, "list-cuts", "flis-cographic")],
)
def test_round_labels_and_threshold_follow_session_kind(kind, listing, harvest):
    consts = dataclasses.replace(Constants.desk(), girth_mult=2.0, cut_mult=0.1)
    s = OracleSession(K4, kind)
    list_circuits(s, 1, consts)
    find_large_independent_set(s)
    assert [label for label, _ in s.ledger.rounds] == [listing, harvest]
    # window 3 fits the girth threshold 2 log2(6) but not the cut threshold
    if kind == GRAPHIC:
        assert list_circuits(s, 3, consts).size_window == (3, 3)
    else:
        with pytest.raises(PreconditionError):
            list_circuits(s, 3, consts)


# -- the driver --------------------------------------------------------------------


def certify_forest(g: Graph, basis) -> None:
    kept = g.keep_edges(basis)
    assert kept.is_forest()
    assert len(basis) == g.n - g.component_count()
    assert kept.components() == g.components()


def certify_cobasis(g: Graph, basis) -> None:
    assert len(basis) == g.m - (g.n - g.component_count())
    rest = g.delete_edges(basis)
    assert rest.components() == g.components()


def test_find_basis_tree():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    report = find_basis(OracleSession(g, GRAPHIC))
    assert report.basis == (1, 2, 3, 4)
    assert report.outer_iterations == 1
    assert report.verified
    certify_forest(g, report.basis)


def test_find_basis_c5_and_k4():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    r = find_basis(OracleSession(c5, GRAPHIC))
    assert r.rank == 4 and r.verified
    certify_forest(c5, r.basis)
    r = find_basis(OracleSession(K4, GRAPHIC))
    assert r.rank == 3 and r.verified
    certify_forest(K4, r.basis)


@pytest.mark.parametrize("seed", range(12))
def test_find_basis_graphic_random(seed):
    g = random_multigraph(seed, 4 + seed % 7, 8 + (seed * 3) % 28)
    report = find_basis(OracleSession(g, GRAPHIC))
    assert report.verified
    certify_forest(g, report.basis)
    assert sum(report.queries_per_round) == report.queries_total
    assert report.mode == "derandomized"


@pytest.mark.parametrize("seed", range(8))
def test_find_basis_cographic_random(seed):
    g = random_multigraph(seed + 200, 4 + seed % 5, 8 + (seed * 3) % 20)
    report = find_basis(OracleSession(g, COGRAPHIC))
    assert report.verified
    certify_cobasis(g, report.basis)


def test_find_basis_cographic_examples():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert find_basis(OracleSession(c5, COGRAPHIC)).rank == 1
    assert find_basis(OracleSession(K4, COGRAPHIC)).rank == 3
    tree = Graph(4, [(0, 1), (1, 2), (2, 3)])
    r = find_basis(OracleSession(tree, COGRAPHIC))
    assert r.basis == () and r.verified


@pytest.mark.parametrize("kind", [GRAPHIC, COGRAPHIC])
def test_every_kernel_row_is_a_billed_query(kind, monkeypatch):
    # run_round is the session's only way into the component_counts kernel:
    # contraction and the rank checks count with union-find, off the ledger
    rows = []
    counts = Graph.component_counts

    def counting(self, words):
        rows.append(len(words))
        return counts(self, words)

    monkeypatch.setattr(Graph, "component_counts", counting)
    report = find_basis(OracleSession(gen_graph("complete", {"vertices": 5}), kind))
    assert report.verified
    assert sum(rows) == report.queries_total


def test_find_basis_deterministic_rerun():
    g = random_multigraph(77, 9, 30)
    a = find_basis(OracleSession(g, GRAPHIC)).to_json()
    b = find_basis(OracleSession(g, GRAPHIC)).to_json()
    assert a == b


def test_find_basis_requires_fresh_session():
    s = OracleSession(K4, GRAPHIC)
    s.contract({1})
    with pytest.raises(ValueError):
        find_basis(s)


def test_find_basis_sampled_mode_is_labeled():
    g = random_multigraph(5, 6, 14)
    report = find_basis(OracleSession(g, GRAPHIC), mode="sample", sample_count=400)
    assert report.mode == "NON-DERANDOMIZED"
    assert any("NON-DERANDOMIZED" in d for d in report.deviations)
    assert report.verified
    certify_forest(g, report.basis)


def _bundled_instances():
    """126 small instances of the bundled families."""
    for h in range(3, 10):
        yield "complete", {"vertices": h}, 0
    for length in range(3, 17):
        yield "cycle", {"length": length}, 0
    for length in range(2, 7):
        for copies in (2, 3, 4, 6, 8):
            yield "multi_cycle", {"length": length, "copies": copies}, 0
    for h in range(4, 7):
        for pieces in (2, 3):
            yield "subdivided", {"vertices": h, "pieces": pieces}, 0
    for left in range(3, 7):
        yield "dumbbell", {"left": left}, 0
    for n, d in ((8, 4), (10, 4), (10, 6), (12, 4), (8, 6), (6, 6), (16, 4)):
        for seed in range(10):
            yield "expander_like", {"vertices": n, "degree": d}, seed


def test_find_basis_verifies_on_every_bundled_instance():
    # sparse cographic minors (cycle(L) has rank 1) can starve the rate-1/2
    # harvest; its rate-1/4 rerun rescues them and the report says so
    rescued = []
    for family, params, seed in _bundled_instances():
        g = gen_graph(family, params, seed=seed)
        for kind in (GRAPHIC, COGRAPHIC):
            report = find_basis(OracleSession(g, kind))
            assert report.verified, (family, params, seed, kind)
            (certify_forest if kind == GRAPHIC else certify_cobasis)(g, report.basis)
            reruns = [d for d in report.deviations if "rate-1/4 rerun" in d]
            if reruns:
                assert len(reruns) == 1
                rescued.append((family, params, kind))
    assert len(rescued) == 14
    assert {kind for _, _, kind in rescued} == {COGRAPHIC}


def test_starved_harvest_reruns_once_at_quarter_rate():
    g = gen_graph("cycle", {"length": 6})
    report = find_basis(OracleSession(g, COGRAPHIC))
    assert report.verified and report.rank == 1
    # rate-1/2 round over build_kwise(6, 2), then rate-1/4 over 12 positions, 4-wise
    harvests = [p["rounds"] for p in report.ledger["phases"] if p["label"] == "flis-cographic"]
    assert harvests == [[65, 65537]]
    assert report.deviations[-1] == (
        "harvest: full-strength one round at rate 1/2, using a rate-1/4 rerun "
        "after 1 empty harvest(s)"
    )
    # the standalone harvest stays one round at rate 1/2, and comes back empty
    session = OracleSession(g, COGRAPHIC)
    assert find_large_independent_set(session) == set()
    assert session.ledger.rounds == [("flis-cographic", 65)]


def test_sample_count_is_read_as_an_int():
    with pytest.raises(ValueError, match="trials must be an int >= 1, not 2.5"):
        find_basis(OracleSession(K4, GRAPHIC), mode="sample", sample_count=2.5)


def test_sweep_clears_short_circuits():
    # after the window at ell is processed, no circuit of size <= ell survives
    for seed in range(5):
        g = random_multigraph(seed + 40, 6, 16)
        s = OracleSession(g, GRAPHIC)
        consts = dataclasses.replace(Constants.desk(), girth_mult=3.0)
        for ell in (1, 2, 3):
            clist = list_circuits(s, ell, consts)
            kept = delete_circuits(s.elements(), clist.circuits)
            gone = set(s.elements()) - kept
            if gone:
                s.delete(gone)
            mc = s.min_circuit_size()
            assert mc is None or mc > ell


# -- constants and report plumbing ----------------------------------------------


def test_constants_profiles():
    assert Constants.paper().deviations() == []
    desk = Constants.desk()
    assert desk.deviations()
    assert desk.k_flis(48) >= 2
    assert desk.threshold(48, GRAPHIC) > desk.threshold(4, GRAPHIC)
    assert 0 < desk.flis_delta(48) <= Fraction(1, 2)


def test_report_json_shape():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    report = find_basis(OracleSession(g, GRAPHIC))
    d = report.to_dict()
    assert set(d) >= {
        "basis", "rank", "rounds", "queries", "phases",
        "constants_used", "deviations", "mode", "verified",
    }
    assert d["queries_total"] == sum(d["queries"])
    assert report.round_bound_constant() > 0

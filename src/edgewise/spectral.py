"""Electrical view of a weighted graph.

Dense exact-ish linear algebra (numpy eigendecomposition) for Laplacians,
effective resistances, leverage scores, resistance diameters, edge sampling
rates, and two-sided spectral approximation checks.  Desk scale: n up to a
few hundred vertices.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .graph import Graph

KERNEL_REL_TOL = 1e-9
LEVERAGE_SUM_TOL = 1e-6

# per-graph solves, dropped with their graph
_EIGS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_PINVS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _build_laplacian(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Laplacian of the edges (u[i], v[i], w[i]) by one unbuffered np.add.at
    over the updates (u,u) += w, (v,v) += w, (u,v) -= w, (v,u) -= w of edge
    0, then edge 1, ...: each entry gets its additions in edge order, so the
    matrix is bitwise a per-edge loop's (x - w is x + (-w) in IEEE)."""
    L = np.zeros((n, n))
    rows = np.stack([u, v, u, v], axis=1).reshape(-1)
    cols = np.stack([u, v, v, u], axis=1).reshape(-1)
    np.add.at(L, (rows, cols), np.stack([w, w, -w, -w], axis=1).reshape(-1))
    return L


def laplacian(g: Graph) -> np.ndarray:
    """Dense Laplacian: degree matrix minus weighted adjacency, from g's
    edge record in id order by the builder resistance_diameter also uses."""
    rec = g.edge_record()
    return _build_laplacian(g.n, rec.ends[:, 0], rec.ends[:, 1], rec.floats)


def _checked_eigh(L: np.ndarray, n_comp: int):
    """(vals, vecs, kernel_dim) of a Laplacian with n_comp components."""
    vals, vecs = np.linalg.eigh(L)
    top = max(float(vals[-1]), 0.0) if len(vals) else 0.0
    tol = KERNEL_REL_TOL * top if top > 0 else KERNEL_REL_TOL
    kernel_dim = int(np.sum(np.abs(vals) <= tol))
    if kernel_dim != n_comp:
        raise RuntimeError(
            f"Laplacian kernel dimension {kernel_dim} != component count {n_comp}"
        )
    return vals, vecs, kernel_dim


def _eig(g: Graph):
    """Cached eigendecomposition of the Laplacian, kernel dimension checked."""
    if g not in _EIGS:
        _EIGS[g] = _checked_eigh(laplacian(g), g.component_count())
    return _EIGS[g]


def _pinv(vals, vecs, kernel_dim) -> np.ndarray:
    """Moore-Penrose pseudoinverse from a checked eigendecomposition."""
    inv = np.zeros_like(vals)
    if kernel_dim < len(vals):
        inv[kernel_dim:] = 1.0 / vals[kernel_dim:]
    return (vecs * inv) @ vecs.T


def pseudoinverse(g: Graph) -> np.ndarray:
    """Moore-Penrose pseudoinverse of the Laplacian."""
    if g not in _PINVS:
        _PINVS[g] = _pinv(*_eig(g))
    return _PINVS[g]


def effective_resistance(g: Graph, u: int, v: int) -> float:
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex out of range")
    if u == v:
        return 0.0
    uf = g.union_find()
    if uf.find(u) != uf.find(v):
        raise ValueError(f"infinite resistance: {u} and {v} are in different components")
    P = pseudoinverse(g)
    return float(P[u, u] + P[v, v] - 2.0 * P[u, v])


def _resistances(P: np.ndarray) -> np.ndarray:
    d = np.diag(P)
    return d[:, None] + d[None, :] - 2.0 * P


def resistance_matrix(g: Graph) -> np.ndarray:
    """Effective resistance between every pair of vertices of g, read off the
    pseudoinverse (entries between components are meaningless)."""
    return _resistances(pseudoinverse(g))


@dataclass(frozen=True)
class ResistanceTable:
    """Per-edge electrical data plus per-component resistance diameters."""

    entries: dict  # eid -> (u, v, weight, reff, leverage)
    component_rdiam: tuple  # rdiam per component, component order of Graph.components()

    def resistance(self, eid: int) -> float:
        return self.entries[eid][3]

    def leverage(self, eid: int) -> float:
        return self.entries[eid][4]

    def max_leverage(self) -> float:
        return max((e[4] for e in self.entries.values()), default=0.0)

    def to_csv(self) -> str:
        lines = ["edge_index,u,v,w,reff,leverage"]
        for eid in sorted(self.entries):
            u, v, w, r, lev = self.entries[eid]
            lines.append(f"{eid},{u},{v},{w},{r!r},{lev!r}")
        return "\n".join(lines) + "\n"


def leverage_scores(g: Graph) -> ResistanceTable:
    """Effective resistance and leverage (weight times resistance) per edge.

    Enforces the sum rule: leverage scores inside one component add up to the
    component's vertex count minus one.
    """
    comps = g.components()  # first: it fills the component count _eig reads
    R = resistance_matrix(g)
    rec = g.edge_record()
    u, v = rec.ends.T
    reff = R[u, v]
    lev = rec.floats * reff
    comp_of = np.empty(g.n, dtype=np.intp)
    for i, comp in enumerate(comps):
        comp_of[comp] = i
    comp_sum = np.bincount(comp_of[u], weights=lev, minlength=len(comps))  # in edge-id order
    rows = zip(u.tolist(), v.tolist(), (w for *_, w in g.edges()), reff.tolist(), lev.tolist())
    entries = dict(zip(rec.ids.tolist(), rows))
    rdiams = []
    for comp, got in zip(comps, comp_sum.tolist()):
        rdiams.append(float(R[np.ix_(comp, comp)].max()) if len(comp) > 1 else 0.0)
        want = len(comp) - 1
        if abs(got - want) > LEVERAGE_SUM_TOL:
            raise RuntimeError(f"leverage sum {got} != {want} on component {comp[:5]}...")
    return ResistanceTable(entries=entries, component_rdiam=tuple(rdiams))


def resistance_diameter(g: Graph, vertex_subset=None) -> float:
    """Max pairwise effective resistance, computed on the induced subgraph.

    g's edge record, masked to the subset and relabeled in sorted
    vertex order, go through laplacian(g)'s builder: the entries get the same
    additions in the same edge-id order as g.induced_subgraph(subset)'s
    Laplacian, so the value is bitwise equal and no Graph is built.
    Duplicates are ignored; a vertex outside 0..n-1 or a disconnected
    induced subgraph is a ValueError.
    """
    vs = range(g.n) if vertex_subset is None else sorted(set(vertex_subset))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        raise ValueError("vertex out of range")
    if len(vs) <= 1:
        return 0.0
    rec = g.edge_record()
    u, v = rec.ends[:, 0], rec.ends[:, 1]
    pos = np.full(g.n, -1, dtype=np.intp)
    pos[vs] = np.arange(len(vs))
    keep = (pos[u] >= 0) & (pos[v] >= 0)
    # the vertices outside the subset stay singletons
    if g.component_count(rec.ids[keep].tolist()) != g.n - len(vs) + 1:
        raise ValueError("induced subgraph is disconnected")
    L = _build_laplacian(len(vs), pos[u[keep]], pos[v[keep]], rec.floats[keep])
    return float(_resistances(_pinv(*_checked_eigh(L, 1))).max())


@dataclass(frozen=True)
class SparsifyPlan:
    """Edge keep-probabilities for the sampling-based sparsifier."""

    s: float
    rates: dict  # eid -> probability in (0, 1]
    flags: tuple  # precondition deviations, empty when none

    def clamped(self) -> list[int]:
        return sorted(e for e, p in self.rates.items() if p == 1.0)


def sparsify_rates(
    g: Graph,
    resistances: ResistanceTable,
    k: int,
    epsilon: float,
    delta: float,
    rate_scale: float = 1.0,
) -> SparsifyPlan:
    """Per-edge keep probability min(1, w * Reff * s).

    The oversampling factor is s = (18 e log2(n) / eps^2) * (n/delta)^(2/k).
    The analyzed regime wants k even and k <= log2(n); calls outside it are
    allowed but flagged.  rate_scale multiplies s (desk-scale knob; flagged
    when not 1).
    """
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must be in (0, 1)")
    if not (0 < delta < 0.5):
        raise ValueError("delta must be in (0, 1/2)")
    if k < 1:
        raise ValueError("k must be >= 1")
    flags = []
    if k % 2 == 1:
        flags.append("k_odd")
    if g.n >= 2 and k > math.log2(g.n):
        flags.append("k_above_log2_n")
    if rate_scale != 1.0:
        flags.append(f"rate_scale={rate_scale!r}")
    if g.n < 2:
        return SparsifyPlan(s=0.0, rates={}, flags=tuple(flags))
    s = (18.0 * math.e * math.log2(g.n) / epsilon**2) * (g.n / delta) ** (2.0 / k)
    s *= rate_scale
    rates = {
        eid: min(1.0, float(w) * resistances.resistance(eid) * s) for eid, _, _, w in g.edges()
    }
    return SparsifyPlan(s=s, rates=rates, flags=tuple(flags))


APPROX_SLACK = 1e-9


@dataclass(frozen=True)
class ApproxReport:
    ok: bool
    min_ratio: float
    max_ratio: float
    epsilon: float


def _image_basis(g: Graph):
    """(U, d): the Laplacian's eigenvectors off its kernel, as columns, and
    their eigenvalues; None when g has no edges (the image is empty)."""
    vals, vecs, kernel_dim = _eig(g)
    return None if kernel_dim == g.n else (vecs[:, kernel_dim:], vals[kernel_dim:])


def _ratio_verdict(lo, hi, epsilon: float):
    """Whether [lo, hi] lies within 1 +- epsilon; elementwise on arrays."""
    return (lo >= 1.0 - epsilon - APPROX_SLACK) & (hi <= 1.0 + epsilon + APPROX_SLACK)


def spectral_approx_check(g: Graph, h: Graph, epsilon: float) -> ApproxReport:
    """Two-sided check: the quadratic form of h within (1 +- eps) of g's.

    Restricted to the image of g's Laplacian via generalized eigenvalues.
    h must live on g's vertex set; an edge of h crossing between components
    of g is an error (the comparison is not defined there).
    """
    if g.n != h.n:
        raise ValueError("vertex sets differ")
    uf = g.union_find()
    for eid, u, v, _ in h.edges():
        if uf.find(u) != uf.find(v):
            raise ValueError(f"edge {eid} of h crosses components of g")
    basis = _image_basis(g)
    if basis is None:
        # g has no edges; h is then also empty (checked above)
        return ApproxReport(ok=True, min_ratio=1.0, max_ratio=1.0, epsilon=epsilon)
    U, d = basis
    M = U.T @ laplacian(h) @ U
    S = M / np.sqrt(d)[:, None] / np.sqrt(d)[None, :]
    ratios = np.linalg.eigvalsh(S)
    lo, hi = float(ratios[0]), float(ratios[-1])
    ok = _ratio_verdict(lo, hi, epsilon)
    return ApproxReport(ok=ok, min_ratio=lo, max_ratio=hi, epsilon=epsilon)


@dataclass(frozen=True)
class FormChecker:
    """Prepared comparison against one graph's quadratic form.

    Holds the normalized rank-one form of every edge so that reweighted
    subsamples can be checked without rebuilding graphs or re-solving the
    base eigenproblem.  Subsample forms are linear in the edge weights:
    stack[i] is edge edge_order[i]'s contribution at weight 1.
    """

    epsilon: float
    edge_order: tuple
    stack: np.ndarray  # (m, r, r)

    _CHUNK = 1 << 14

    def batch_verdicts(self, weight_rows: np.ndarray):
        """Vectorized verdicts for many subsamples at once.

        weight_rows[j, i] is the weight of edge edge_order[i] in subsample
        j (0 = dropped).  Returns (ok, min_ratio, max_ratio) arrays.
        """
        rows = weight_rows.shape[0]
        m, r, _ = self.stack.shape
        flat = self.stack.reshape(m, r * r)
        lo = np.empty(rows)
        hi = np.empty(rows)
        for start in range(0, rows, self._CHUNK):
            chunk = weight_rows[start : start + self._CHUNK]
            mats = (chunk @ flat).reshape(-1, r, r)
            ratios = np.linalg.eigvalsh(mats)
            lo[start : start + self._CHUNK] = ratios[:, 0]
            hi[start : start + self._CHUNK] = ratios[:, -1]
        return _ratio_verdict(lo, hi, self.epsilon), lo, hi


def edge_form_checker(g: Graph, epsilon: float) -> FormChecker:
    """Prepare a FormChecker for g (g must have at least one edge)."""
    basis = _image_basis(g)
    if basis is None:
        raise ValueError("the reference graph has no edges to compare against")
    U, d = basis
    rec = g.edge_record()
    b = (U[rec.ends[:, 0]] - U[rec.ends[:, 1]]) / np.sqrt(d)
    mats = b[:, :, None] * b[:, None, :]
    return FormChecker(epsilon=epsilon, edge_order=tuple(rec.ids.tolist()), stack=mats)


def solve_potentials(g: Graph, demand) -> np.ndarray:
    """Vertex potentials for the given external currents (L x = demand).

    The demand must balance to zero on every component.
    """
    b = np.asarray(demand, dtype=float)
    if b.shape != (g.n,):
        raise ValueError("demand must have one entry per vertex")
    for comp in g.components():
        if abs(b[comp].sum()) > 1e-9:
            raise ValueError(f"demand does not balance on component {comp[:5]}")
    return pseudoinverse(g) @ b


def flow_energy(g: Graph, demand) -> float:
    """Electrical energy of the unique electric flow with these currents."""
    b = np.asarray(demand, dtype=float)
    x = solve_potentials(g, b)
    return float(b @ x)

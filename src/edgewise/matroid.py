"""Independence oracles over graph edge sets, with round/query accounting.

Two matroid kinds share the oracle interface: independent means forest
(graphic) or removal-preserves-components (cographic).  A session tracks a
symbolic minor (contracted set T, deleted set D) and answers queries against
it through the identity Ind(S in minor) = Ind(S union T in the full matroid),
so no graph surgery happens per query.  A batch of queries is a 0/1 matrix
whose row i selects the elements() where it holds a 1; query_rows builds
one from edge-id sets.  Every answer comes from one batched nullity
(_nullities, one component count per row): S union T is independent when
its nullity is 0.  Nothing else in a session reaches that kernel, so every
row it counts is a billed query.

A round is a batch of queries fixed before any of them is answered:
run_round takes the whole batch up front, answers it, and records one
(label, query count) entry in the ledger.  A lone query() is a round of one.
"""

from __future__ import annotations

import json

import numpy as np

from .graph import Graph
from .samplespace import _pack_words, _row_popcounts

GRAPHIC = "graphic"
COGRAPHIC = "cographic"


def _rank(g: Graph, kind: str, S) -> int:
    """Rank of the edge-id set S: n - c(S) in the graphic matroid and, by
    duality, |S| + c(E) - c(E - S) in the cographic one, where c(X) counts
    the components the edges X leave.  A union-find count, independent of
    the component_counts kernel that answers queries, so it can check them."""
    S = set(S)
    for eid in S:
        if not g.has_edge(eid):
            raise KeyError(f"unknown edge id {eid}")
    if kind == GRAPHIC:
        return g.n - g.component_count(S)
    return len(S) + g.component_count() - g.component_count(set(g.edge_ids()) - S)


def _nullities(g: Graph, kind: str, words) -> np.ndarray:
    """|X| - r(X) per word row X (as in Graph.component_counts, no bit past
    m - 1), the batched twin of _rank from one component_counts call:
    |X| - n + c(X) graphic, c(E - X) - c(E) >= 0 cographic."""
    if kind == GRAPHIC:
        out = _row_popcounts(words)
        out -= g.n - g.component_counts(words)  # in place: one int64 array per block
        return out
    return g.component_counts(~words) - g.component_count()


def ind_graphic(g: Graph, S) -> bool:
    """Independent iff the edge set contains no cycle."""
    S = set(S)
    return _rank(g, GRAPHIC, S) == len(S)


def ind_cographic(g: Graph, S) -> bool:
    """Independent iff removing the edge set keeps every component intact."""
    S = set(S)
    return _rank(g, COGRAPHIC, S) == len(S)


class QueryLedger:
    """Per-round query counts with phase labels."""

    def __init__(self):
        self.rounds: list[tuple[str, int]] = []

    @property
    def total_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_queries(self) -> int:
        return sum(c for _, c in self.rounds)

    def record(self, label: str, count: int):
        """Bill one whole round of count queries."""
        self.rounds.append((label, count))

    def to_dict(self) -> dict:
        phases = []
        for label, count in self.rounds:
            if phases and phases[-1]["label"] == label:
                phases[-1]["rounds"].append(count)
            else:
                phases.append({"label": label, "rounds": [count]})
        return {
            "phases": phases,
            "total_rounds": self.total_rounds,
            "total_queries": self.total_queries,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class OracleSession:
    """Oracle access to a graphic or cographic matroid minor.

    The ground set is the edge-id set of the graph.  run_round() answers a
    whole batch of queries for the current minor and bills it as one round;
    query() is a round of one.  rank(), min_circuit_size() and minor_graph()
    are test oracles computed directly from the graph; they never touch the
    ledger.
    """

    def __init__(self, g: Graph, kind: str):
        if kind not in (GRAPHIC, COGRAPHIC):
            raise ValueError(f"unknown matroid kind {kind!r}")
        self.graph = g
        self.kind = kind
        self.contracted: set[int] = set()
        self.deleted: set[int] = set()
        self.ledger = QueryLedger()
        self._col = {eid: j for j, eid in enumerate(g.edge_ids())}

    # -- element bookkeeping ------------------------------------------------

    def elements(self) -> list[int]:
        """Ground set of the current minor, ascending edge ids."""
        gone = self.contracted | self.deleted
        return [e for e in self.graph.edge_ids() if e not in gone]

    def query_rows(self, sets) -> np.ndarray:
        """0/1 query matrix over elements(), one row per edge-id set."""
        col = {e: j for j, e in enumerate(self.elements())}
        sets = list(sets)
        rows = np.zeros((len(sets), len(col)), dtype=np.uint8)
        for i, S in enumerate(sets):
            for eid in S:
                if eid not in col:
                    if not self.graph.has_edge(eid):
                        raise KeyError(f"unknown edge id {eid}")
                    raise ValueError(f"element {eid} is not in the current minor")
                rows[i, col[eid]] = 1
        return rows

    # -- the oracle ---------------------------------------------------------

    def query(self, S) -> bool:
        """Ind(S) in the current minor, billed as its own "adhoc" round."""
        return bool(self.run_round("adhoc", self.query_rows([S]))[0])

    def run_round(self, label: str, rows) -> np.ndarray:
        """One parallel round: all queries are fixed before any answer.

        rows is a (queries, len(elements())) 0/1 matrix; the result is one
        boolean answer per row, Ind(S union T) in the full matroid.
        """
        rows = np.asarray(rows)
        elems = self.elements()
        if rows.ndim != 2 or rows.shape[1] != len(elems) or not ((rows == 0) | (rows == 1)).all():
            raise ValueError(f"need a (queries, {len(elems)}) 0/1 matrix over elements()")
        full = np.zeros((rows.shape[0], self.graph.m), dtype=np.uint8)
        full[:, [self._col[e] for e in elems]] = rows
        full[:, [self._col[e] for e in self.contracted]] = 1
        answers = _nullities(self.graph, self.kind, _pack_words(full)) == 0
        self.ledger.record(label, rows.shape[0])
        return answers

    # -- minor surgery ------------------------------------------------------

    def contract(self, S):
        """Move S into T; S union T must stay independent, checked off the ledger."""
        self.query_rows([S])  # validates S
        both = self.contracted | set(S)
        if _rank(self.graph, self.kind, both) != len(both):
            raise ValueError("cannot contract a dependent set")
        self.contracted = both

    def delete(self, S):
        self.query_rows([S])  # validates S
        self.deleted |= set(S)

    # -- test oracles (no ledger) --------------------------------------------

    def minor_graph(self) -> Graph:
        """Graph view of the current minor (graphic: delete D, contract T;
        cographic: delete T, contract D).  Edge ids are preserved.

        Caveat: elements whose endpoints collapse together are dropped with
        the self-loops.  For the graphic kind those are loops of the matroid
        minor (1-element circuits); for the cographic kind they are coloops.
        rank() and min_circuit_size() account for them; this view does not.
        """
        drop, merge = self.deleted, self.contracted
        if self.kind == COGRAPHIC:
            drop, merge = merge, drop
        h = self.graph.delete_edges(drop)
        if merge:
            h, _ = h.contract_edges(merge)
        return h

    def rank(self) -> int:
        """Rank of the current minor, from the graph, not the oracle:
        r(E - D) - |T| for either kind (T is contracted only while
        independent).  Coloops lost to self-loop dropping in the cographic
        graph view still count, since the rank is read off the full graph.
        """
        rest = set(self.graph.edge_ids()) - self.deleted
        return _rank(self.graph, self.kind, rest) - len(self.contracted)

    def min_circuit_size(self) -> int | None:
        """Smallest circuit size of the current minor; None when independent.

        Graphic circuits are the minor's cycles, including 1-cycles from
        elements parallel to the contracted forest.  Cographic circuits are
        the minimal fully-surviving cuts, read off the minor graph (its
        dropped self-loops are coloops, which lie in no circuit).
        """
        if self.kind == GRAPHIC:
            uf = self.graph.union_find(self.contracted)
            for eid in self.elements():
                u, v, _ = self.graph.edge(eid)
                if uf.find(u) == uf.find(v):
                    return 1
            g = self.minor_graph()
            return g.girth()
        h = self.minor_graph()
        best = None
        for comp in h.components():
            if len(comp) < 2:
                continue
            sub, _ = h.induced_subgraph(comp)
            val = int(sub.with_unit_weights().min_cut().value)
            if best is None or val < best:
                best = val
        return best

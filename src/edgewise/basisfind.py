"""Finding a matroid basis with batched independence queries.

The driver alternates two phases on an oracle session.  A sweep phase walks a
size window upward, listing every short circuit of the current minor and
deleting one element of each, until the minimum circuit size clears a
threshold.  A harvest phase then extracts one large independent set in a
single round and contracts it.  Listing is done either by querying all small
subsets outright or, for larger windows, by enumerating the support of a
bounded-independence sample space and running single-circuit detection on
every support vector.  Each subroutine batches its queries into one oracle
round, a 0/1 query matrix built straight from the space's word rows, so the
round ledger directly measures the parallel complexity.

Full-strength thresholds make the supports astronomically large, so the
constants are configuration: `Constants.paper()` records the full-strength
values, `Constants.desk()` is a scaled profile that keeps every enumeration
small enough to run, and every report lists the substitutions in force.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain, combinations
from math import ceil, comb, floor, log2

import numpy as np

from .matroid import COGRAPHIC, GRAPHIC, OracleSession, _rank
from .samplespace import DEFAULT_ENUM_BUDGET, _mode_count, _unpack_words, build_space, mode_blocks

MODE_ENUMERATE = "enumerate"

# round labels per matroid kind: (listing, harvest)
_LABELS = {GRAPHIC: ("list-cycles", "flis-graphic"), COGRAPHIC: ("list-cuts", "flis-cographic")}


class ClaimViolation(AssertionError):
    """A subroutine broke a guarantee the caller relies on."""


class PreconditionError(ValueError):
    """The instance is outside the regime the subroutine is specified for."""


def _window_end(ell: int) -> Fraction:
    """1.01 ell, exactly: a listing or survival window is [ell, 1.01 ell]."""
    return Fraction(101 * ell, 100)


def _deviation_lines(constants) -> tuple[str, ...]:
    """One line per (name, full-strength, used) triple whose values differ."""
    return tuple(
        f"{name}: full-strength {full}, using {used}"
        for name, full, used in constants
        if full != used
    )


@dataclass(frozen=True)
class Constants:
    """Threshold and sample-space knobs, in units of log2.

    girth_mult / cut_mult scale the sweep stopping threshold (times log2 m).
    k_flis_mult and flis_delta_exp size the harvest-phase space (k at least 2,
    bias 1/m**exp with the denominator floored at 2).  c_cyc / c_cut set the
    listing marginal exponent ceil(c * log2(m) / ell); k_list_mult sizes the
    listing independence order; small_ell_cutoff bounds the brute-subsets
    regime.  enum_budget caps any single support enumeration or subset batch.
    """

    girth_mult: float
    cut_mult: float
    k_flis_mult: float
    flis_delta_exp: float
    c_cyc: float
    c_cut: float
    k_list_mult: float
    list_delta_exp: float
    small_ell_cutoff: int = 100
    enum_budget: int = DEFAULT_ENUM_BUDGET

    @classmethod
    def paper(cls) -> "Constants":
        """Full-strength profile; listings and harvests will not fit a desk."""
        return cls(
            girth_mult=20.0,
            cut_mult=20.0,
            k_flis_mult=40.0,
            flis_delta_exp=200.0,
            c_cyc=200.0,
            c_cut=200.0,
            k_list_mult=2.0,
            list_delta_exp=200.0,
        )

    @classmethod
    def desk(cls) -> "Constants":
        """Scaled-down profile sized for exhaustive runs on small graphs."""
        return cls(
            girth_mult=0.5,
            cut_mult=0.5,
            k_flis_mult=0.0,
            flis_delta_exp=0.2,
            c_cyc=1.0,
            c_cut=1.0,
            k_list_mult=2.0,
            list_delta_exp=0.2,
        )

    # -- derived parameters ---------------------------------------------------

    def threshold(self, m: int, kind: str) -> float:
        # floored at 1: the window at ell = 1 must always be sweepable, since
        # single-element circuits can never join an independent set
        mult = self.girth_mult if kind == GRAPHIC else self.cut_mult
        return max(1.0, mult * log2(max(m, 2)))

    def k_flis(self, m: int) -> int:
        return max(2, ceil(self.k_flis_mult * log2(max(m, 2))))

    def flis_delta(self, m: int) -> Fraction:
        return Fraction(1, max(2, round(max(m, 2) ** self.flis_delta_exp)))

    def list_marginal_exp(self, m: int, ell: int, kind: str) -> int:
        c = self.c_cyc if kind == GRAPHIC else self.c_cut
        return max(1, ceil(c * log2(max(m, 2)) / ell))

    def k_list(self, ell: int) -> int:
        return max(2, ceil(self.k_list_mult * ell))

    def list_delta(self, m: int) -> Fraction:
        return Fraction(1, max(2, round(max(m, 2) ** self.list_delta_exp)))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def deviations(self) -> list[str]:
        """Substitutions relative to the full-strength profile."""
        ref = Constants.paper()
        return list(_deviation_lines(
            (f.name, getattr(ref, f.name), getattr(self, f.name)) for f in fields(self)
        ))


@dataclass(frozen=True)
class CircuitList:
    """Circuits recovered for one size window, in discovery order."""

    circuits: tuple[frozenset[int], ...]
    size_window: tuple[int, int]
    mode: str  # "brute" | "enumerate" | "sample"
    queries: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "circuits": [sorted(c) for c in self.circuits],
                "size_window": list(self.size_window),
                "mode": self.mode,
                "queries": self.queries,
            },
            sort_keys=True,
        )


# -- single-circuit detection --------------------------------------------------


def _detect(session: OracleSession, label: str, sel: np.ndarray):
    """One detection round (see detect_single_circuit) per row of a selection.

    sel is a 0/1 matrix over session.elements().  Row i contributes its whole
    selection, then one copy per selected element with that element cleared.
    Returns (dependent, circuits): circuits[i] marks the elements whose
    removal makes dependent selection i independent.
    """
    vi, cj = np.nonzero(sel)
    removal = np.arange(len(vi)) + vi + 1  # query index of each cleared copy
    rows = sel[np.repeat(np.arange(sel.shape[0]), sel.sum(axis=1, dtype=np.int64) + 1)]
    rows[removal, cj] = 0
    answers = session.run_round(label, rows)
    whole = np.ones(len(answers), dtype=bool)
    whole[removal] = False
    dependent = ~answers[whole]
    hit = answers[removal] & dependent[vi]
    circuits = np.zeros_like(sel)
    circuits[vi[hit], cj[hit]] = 1
    return dependent, circuits


def detect_single_circuit(session: OracleSession, elements):
    """Identify the circuit of a set that contains exactly one.

    One round of |E'|+1 queries: the whole set, then each single-element
    removal.  When the set holds exactly one circuit, that circuit is the
    elements whose removal makes the rest independent.  Returns
    (circuit, "unique"), or (None, "none" | "multiple").
    """
    dependent, circuits = _detect(session, "detect", session.query_rows([elements]))
    if not dependent[0]:
        return None, "none"
    if not circuits[0].any():
        # every single removal stays dependent, so two or more circuits exist:
        # an element of only one of them leaves the other intact, and a shared
        # element leaves the circuit their elimination produces
        return None, "multiple"
    elems = session.elements()
    return frozenset(elems[j] for j in np.flatnonzero(circuits[0])), "unique"


def delete_circuits(elements, circuits):
    """Remove the largest element of every circuit, simultaneously.

    Distinct circuits may nominate the same element; the nominated set is
    removed in one shot.  Rank is preserved: processing nominees in
    descending order, each one still lies inside its own circuit when
    removed (any earlier nominee in that circuit would have been larger
    than the circuit's maximum).
    """
    elements = set(elements)
    doomed = set()
    for circuit in circuits:
        if not set(circuit) <= elements:
            raise ValueError(f"circuit {sorted(circuit)} is not within the element set")
        if not circuit:
            raise ValueError("empty circuit")
        doomed.add(max(circuit))
    return elements - doomed


def _space_rows(session, k, delta, L, constants, mode, sample_count, seed) -> np.ndarray:
    """0/1 rows over session.elements() of one space-driven round, from the
    build_space (k, delta, L) space, joined: a round is fixed before any
    answer.  Cographic rounds use exact spaces (delta = 0)."""
    n = len(session.elements())
    space = build_space(n, k, delta if session.kind == GRAPHIC else 0, L)
    blocks = mode_blocks(space, mode, constants.enum_budget, sample_count, seed)
    return _unpack_words(np.concatenate(list(blocks)), n)


# -- circuit listing -------------------------------------------------------------


def _brute_circuits(session, label, elems, cap, window_hi, budget):
    """Query every subset of up to cap elements; the circuits are the
    dependent ones up to window_hi that hold no smaller circuit.  Returns
    (circuits, queries)."""
    n = len(elems)
    total = sum(comb(n, s) for s in range(1, cap + 1))
    if total > budget:
        raise PreconditionError(
            f"brute listing queries {total} subsets of up to {cap} elements; enumeration "
            f"budget is {budget} (needs a budget of at least {total})"
        )
    combos = [
        np.fromiter(chain.from_iterable(combinations(range(n), s)), dtype=np.intp).reshape(-1, s)
        for s in range(1, cap + 1)
    ]
    rows = np.zeros((total, n), dtype=np.uint8)
    first = np.cumsum([0] + [len(c) for c in combos])
    for c, lo in zip(combos, first):
        rows[lo + np.arange(len(c))[:, None], c] = 1
    answers = session.run_round(label, rows)
    sets = rows.view(bool)
    circuits = sets[:0]
    # size by size, every smaller circuit is already read: a dependent set
    # is a circuit exactly when each of them has an element outside it
    for lo, hi in zip(first[:window_hi], first[1 : window_hi + 1]):
        dependent = sets[lo:hi][~answers[lo:hi]]
        circuits = np.vstack([circuits, dependent[(circuits @ ~dependent.T).all(axis=0)]])
    return [frozenset(elems[j] for j in np.flatnonzero(row)) for row in circuits], total


def list_circuits(
    session: OracleSession,
    ell: int,
    constants: Constants | None = None,
    mode: str = MODE_ENUMERATE,
    sample_count: int = 1024,
    seed: int = 0,
) -> CircuitList:
    """Circuits of the current minor of size at most floor(1.01 ell), the end
    of the window [ell, floor(1.01 ell)]: shorter circuits are not dropped,
    though find_basis's sweep has deleted them all before it lists at ell.
    The brute regime returns every such circuit, the sampled regime those its
    support vectors isolate.

    Circuits are cycles for a graphic session and minimal fully-surviving
    cuts for a cographic one; the threshold and round label follow the kind.
    """
    _mode_count(mode, sample_count)
    constants = constants or Constants.desk()
    m = session.graph.m
    threshold = constants.threshold(m, session.kind)
    label = _LABELS[session.kind][0]
    if ell < 1:
        raise PreconditionError("window start must be >= 1")
    if ell > threshold:
        raise PreconditionError(
            f"window start {ell} exceeds the sweep threshold {threshold:.2f}"
        )
    window_hi = floor(_window_end(ell))
    elems = session.elements()

    if ell <= constants.small_ell_cutoff:
        # brute regime: query every subset up to just past the window, then
        # read circuits off as the minimal dependent sets
        cap = min(ceil(_window_end(ell)), len(elems))
        found, queries = _brute_circuits(
            session, label, elems, cap, window_hi, constants.enum_budget
        )
        return CircuitList(tuple(found), (ell, window_hi), "brute", queries)

    # sampled regime: one round holding a full detection batch per support
    # vector of the window's bounded-independence space
    sel = _space_rows(
        session, constants.k_list(ell), constants.list_delta(m),
        constants.list_marginal_exp(m, ell, session.kind), constants, mode, sample_count, seed,
    )
    _, circuits = _detect(session, label, sel)
    size = circuits.sum(axis=1)
    short = circuits[(size >= 1) & (size <= window_hi)]
    distinct, first = np.unique(short, axis=0, return_index=True)
    found = [
        frozenset(elems[j] for j in np.flatnonzero(row)) for row in distinct[np.argsort(first)]
    ]
    return CircuitList(tuple(found), (ell, window_hi), mode, len(sel) + int(sel.sum()))


# -- large independent sets ------------------------------------------------------


def find_large_independent_set(
    session: OracleSession,
    constants: Constants | None = None,
    mode: str = MODE_ENUMERATE,
    sample_count: int = 1024,
    seed: int = 0,
) -> set[int]:
    """One-round harvest at rate 1/2 of a large independent set from a minor
    with no circuit within the sweep threshold: a forest (graphic) or a
    co-independent set, whose complement spans (cographic)."""
    _mode_count(mode, sample_count)
    constants = constants or Constants.desk()
    threshold = constants.threshold(session.graph.m, session.kind)
    mc = session.min_circuit_size()
    if mc is not None and mc <= threshold:
        raise PreconditionError(
            f"minimum circuit size {mc} is within the sweep threshold "
            f"{threshold:.2f}; sweep first"
        )
    return _harvest(session, 1, constants, mode, sample_count, seed)


def _harvest(session, L, constants, mode, sample_count, seed) -> set[int]:
    """The largest independent row of one round over the harvest space at
    rate 2^-L; empty when no nonempty row is independent."""
    m = session.graph.m
    elems = session.elements()
    # the whole element set rides along as query zero, so an already
    # independent minor is taken in full
    rows = np.vstack([
        np.ones((1, len(elems)), dtype=np.uint8),
        _space_rows(session, constants.k_flis(m), constants.flis_delta(m), L,
                    constants, mode, sample_count, seed),
    ])
    answers = session.run_round(_LABELS[session.kind][1], rows)
    if answers[0]:
        return set(elems)
    sizes = np.where(answers, rows.sum(axis=1), 0)
    best = int(np.argmax(sizes))
    return {elems[j] for j in np.flatnonzero(rows[best])} if sizes[best] else set()


# -- the driver --------------------------------------------------------------------


@dataclass(frozen=True)
class BasisReport:
    basis: tuple[int, ...]
    rank: int
    kind: str
    mode: str  # "derandomized" | "NON-DERANDOMIZED"
    rounds_used: int
    queries_total: int
    queries_per_round: tuple[int, ...]
    ledger: dict
    outer_iterations: int
    phase_trace: tuple[dict, ...]
    constants_used: dict
    deviations: tuple[str, ...]
    verified: bool

    def round_bound_constant(self) -> float:
        """Measured rounds over log2(m) * log2 log2(m), the report's C_r."""
        m = self.ledger.get("ground_size", 0)
        denom = max(log2(max(m, 2)) * log2(max(log2(max(m, 2)), 2)), 1.0)
        return self.rounds_used / denom

    def to_dict(self) -> dict:
        return {
            "basis": list(self.basis),
            "rank": self.rank,
            "kind": self.kind,
            "mode": self.mode,
            "rounds": self.rounds_used,
            "queries": list(self.queries_per_round),
            "queries_total": self.queries_total,
            "phases": self.ledger["phases"],
            "outer_iterations": self.outer_iterations,
            "phase_trace": list(self.phase_trace),
            "constants_used": self.constants_used,
            "deviations": list(self.deviations),
            "round_bound_constant": round(self.round_bound_constant(), 6),
            "verified": self.verified,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def find_basis(
    session: OracleSession,
    constants: Constants | None = None,
    mode: str = MODE_ENUMERATE,
    sample_count: int = 1024,
    seed: int = 0,
) -> BasisReport:
    """Assemble a basis of the session's matroid, counting rounds and queries.

    Repeats until no elements remain: sweep the circuit-size window upward
    from 1, deleting one element of every listed circuit, until the minimum
    circuit size clears the threshold; then harvest one independent set and
    contract it.  An empty harvest runs once more at rate 1/4, a desk
    deviation the report names.  Thresholds always use the original
    ground-set size.  The returned basis is re-verified against the graph
    directly (independence plus full rank), outside the query ledger.
    """
    _mode_count(mode, sample_count)
    if session.contracted or session.deleted:
        raise ValueError("needs a fresh session")
    constants = constants or Constants.desk()
    kind = session.kind
    m = session.graph.m
    threshold = constants.threshold(m, kind)
    full_rank = session.rank()

    trace: list[dict] = []
    outer = reruns = 0
    while session.elements():
        outer += 1
        sweep_steps = []
        ell = 1
        while ell <= threshold and session.elements():
            clist = list_circuits(
                session, ell, constants,
                mode=mode, sample_count=sample_count, seed=seed,
            )
            kept = delete_circuits(session.elements(), clist.circuits)
            removed = sorted(set(session.elements()) - kept)
            if removed:
                session.delete(removed)
            sweep_steps.append(
                {
                    "ell": ell,
                    "window": list(clist.size_window),
                    "circuits": len(clist.circuits),
                    "deleted": removed,
                    "queries": clist.queries,
                }
            )
            ell = max(ell + 1, ceil(_window_end(ell)))
        # T is independent, so only a sweep deletion can move the rank off full_rank - |T|
        if session.rank() != full_rank - len(session.contracted):
            raise ClaimViolation("deleting one element per listed circuit changed the rank")
        if not session.elements():
            trace.append({"outer": outer, "sweep": sweep_steps, "harvested": 0})
            break
        got = find_large_independent_set(
            session, constants,
            mode=mode, sample_count=sample_count, seed=seed,
        )
        if not got:
            # a sparse rate-1/2 space can hold no row of at most rank elements
            reruns += 1
            got = _harvest(session, 2, constants, mode, sample_count, seed)
        if not got:
            raise ClaimViolation(
                "large-independent-set harvest came back empty on a nonempty minor"
            )
        session.contract(got)
        trace.append({"outer": outer, "sweep": sweep_steps, "harvested": len(got)})

    basis = set(session.contracted)
    verified = _rank(session.graph, kind, basis) == len(basis) == full_rank

    ledger = session.ledger.to_dict()
    ledger["ground_size"] = m
    per_round = tuple(count for _, count in session.ledger.rounds)
    dev = list(constants.deviations())
    if mode != MODE_ENUMERATE:
        dev.append(
            f"NON-DERANDOMIZED: sampled {sample_count} support points per space "
            "instead of enumerating"
        )
    if reruns:
        dev.append(
            "harvest: full-strength one round at rate 1/2, using a rate-1/4 rerun "
            f"after {reruns} empty harvest(s)"
        )
    return BasisReport(
        basis=tuple(sorted(basis)),
        rank=len(basis),
        kind=kind,
        mode="derandomized" if mode == MODE_ENUMERATE else "NON-DERANDOMIZED",
        rounds_used=session.ledger.total_rounds,
        queries_total=session.ledger.total_queries,
        queries_per_round=per_round,
        ledger=ledger,
        outer_iterations=outer,
        phase_trace=tuple(trace),
        constants_used=constants.to_dict(),
        deviations=tuple(dev),
        verified=verified,
    )

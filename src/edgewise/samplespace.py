"""Small explicit sample spaces for bounded-independence bit vectors.

Three constructions:

* ``PolynomialSpace`` (``build_kwise``): exactly k-wise independent bits with
  marginal 1/2.  A seed is k coefficients of a degree-(k-1) polynomial over
  GF(2^r), r = ceil(log2(n+1)); output bit i is the low bit of the polynomial
  evaluated at the i-th field point.  Any <= k evaluations are jointly uniform
  (Vandermonde), so any <= k output bits are jointly uniform.

* ``SmallBiasSpace`` (``build_almost_kwise``): delta-almost k-wise independent
  bits with nominal marginal 1/2.  A seed is a pair (x, y) in GF(2^a)^2; output
  bit i is the low bit of x^i * y, i.e. the low bit of a state evolving by the
  linear feedback map "multiply by x".  For any nonzero test vector of support
  size <= n the parity is biased only when x is a root of the test polynomial,
  so the bias is at most (n-1)/2^(a+1); the total-variation slack over any k
  coordinates is at most 2^ceil(k/2) times the bias, and a is sized so that
  slack <= delta.

* ``GroupedSpace`` (``with_marginal``): marginal 2^-L (or 1 - 2^-L) bits built
  by ANDing disjoint groups of L bits from an underlying space over n*L
  positions with independence order k*L.

All spaces are uniform over seeds in {0,1}^seed_bits, so every support vector
has probability a multiple of 2^-seed_bits and enumerating seeds enumerates
the distribution.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .gf2 import field

DEFAULT_ENUM_BUDGET = 1 << 24

_WORD = 64


class SupportTooLargeError(RuntimeError):
    """Enumeration would exceed the configured budget."""

    def __init__(self, seed_bits: int, budget: int):
        self.seed_bits = seed_bits
        self.budget = budget
        super().__init__(
            f"support has 2^{seed_bits} vectors; enumeration budget is {budget} "
            f"(needs a budget of at least {1 << seed_bits})"
        )


@dataclass(frozen=True)
class SpaceParams:
    """Declared parameters of a sample space.

    n: number of output coordinates, k: independence order, delta: allowed
    total-variation slack per <=k-coordinate restriction (0 means exact),
    p_log_inv: L with nominal marginal 2^-L, complemented: emitted bits are
    complements (marginal 1 - 2^-L).
    """

    n: int
    k: int
    delta: Fraction
    p_log_inv: int = 1
    complemented: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (0 <= self.delta < 1):
            raise ValueError("delta must be in [0, 1)")
        if self.p_log_inv < 1:
            raise ValueError("p_log_inv must be >= 1")

    @property
    def marginal(self) -> Fraction:
        p = Fraction(1, 1 << self.p_log_inv)
        return 1 - p if self.complemented else p


def _words(n_positions: int) -> int:
    return (n_positions + _WORD - 1) // _WORD


def _rows_to_words(rows: list[int], n_positions: int) -> np.ndarray:
    w = _words(n_positions)
    out = np.empty((len(rows), w), dtype=np.uint64)
    mask = (1 << _WORD) - 1
    for j in range(w):
        column = ((row >> (j * _WORD)) & mask for row in rows)
        out[:, j] = np.fromiter(column, dtype=np.uint64, count=len(rows))
    return out


def _span_words(row_words: np.ndarray) -> np.ndarray:
    """All subset-XORs of the given rows, ordered by the subset bitmask."""
    w = row_words.shape[1] if row_words.ndim == 2 else 1
    out = np.zeros((1, w), dtype=np.uint64)
    for row in row_words:
        out = np.concatenate([out, out ^ row])
    return out


class SampleSpace:
    """Common plumbing: seed enumeration, support caching, serialization."""

    construction = "abstract"

    def __init__(self, params: SpaceParams, seed_bits: int):
        self.params = params
        self.seed_bits = seed_bits
        self._support: np.ndarray | None = None

    # subclasses fill these in
    def vector(self, seed: int) -> int:
        raise NotImplementedError

    def _support_words(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def support_size(self) -> int:
        return 1 << self.seed_bits

    def support_words(self, budget: int | None = None) -> np.ndarray:
        """Support as a (2^seed_bits, ceil(n/64)) uint64 array, seed order."""
        limit = DEFAULT_ENUM_BUDGET if budget is None else budget
        if self.support_size > limit:
            raise SupportTooLargeError(self.seed_bits, limit)
        if self._support is None:
            self._support = self._support_words()
        return self._support

    def iter_support(self, budget: int | None = None):
        """Yield support vectors as ints (bit i = coordinate i), seed order."""
        words = self.support_words(budget)
        w = words.shape[1]
        for row in words:
            v = 0
            for j in range(w - 1, -1, -1):
                v = (v << _WORD) | int(row[j])
            yield v

    def sample_vectors(self, count: int, seed: int = 0) -> list[int]:
        """Monte Carlo fallback: vectors for `count` independently drawn seeds.

        Not derandomized; reports built from this path must say so.
        """
        rng = random.Random(seed)
        top = self.support_size
        return [self.vector(rng.randrange(top)) for _ in range(count)]

    def coordinate_marginals(self) -> tuple[Fraction, ...]:
        """Nominal marginal of each output coordinate."""
        return (self.params.marginal,) * self.params.n

    def descriptor(self) -> dict:
        p = self.params
        return {
            "construction": self.construction,
            "n": p.n,
            "k": p.k,
            "delta": {"num": p.delta.numerator, "den": p.delta.denominator},
            "p_log_inv": p.p_log_inv,
            "complemented": p.complemented,
            "seed_bits": self.seed_bits,
        }

    def descriptor_json(self) -> str:
        return json.dumps(self.descriptor(), sort_keys=True)


class PolynomialSpace(SampleSpace):
    """Exactly k-wise independent bits via polynomial evaluation."""

    construction = "poly_eval"

    def __init__(self, n: int, k: int):
        params = SpaceParams(n=n, k=k, delta=Fraction(0))
        self.field_bits = max(1, (n + 1 - 1).bit_length())  # ceil(log2(n+1))
        super().__init__(params, seed_bits=k * self.field_bits)
        self._rows: list[int] | None = None

    def _gen_rows(self) -> list[int]:
        # Row for seed bit (coeff j, coeff-bit b): output i gets the low bit
        # of t^b * x_i^j, where x_i is the field element encoded as i.
        if self._rows is not None:
            return self._rows
        f = field(self.field_bits)
        n, k = self.params.n, self.params.k
        pts = [f.powers(x, k) for x in range(n)]
        rows = []
        for j in range(k):
            for b in range(self.field_bits):
                row = 0
                e_b = 1 << b
                for i in range(n):
                    if f.mul(e_b, pts[i][j]) & 1:
                        row |= 1 << i
                rows.append(row)
        self._rows = rows
        return rows

    def vector(self, seed: int) -> int:
        out = 0
        for t, row in enumerate(self._gen_rows()):
            if (seed >> t) & 1:
                out ^= row
        return out

    def _support_words(self) -> np.ndarray:
        return _span_words(_rows_to_words(self._gen_rows(), self.params.n))


class SmallBiasSpace(SampleSpace):
    """delta-almost k-wise independent bits via a small-bias generator."""

    construction = "small_bias"

    def __init__(self, n: int, k: int, delta: Fraction, budget: int | None = None):
        delta = Fraction(delta)
        if not (0 < delta < 1):
            raise ValueError("delta must be in (0, 1)")
        params = SpaceParams(n=n, k=k, delta=delta)
        self.half_bits = self._half_bits(n, k, delta)
        seed_bits = 2 * self.half_bits
        limit = DEFAULT_ENUM_BUDGET if budget is None else budget
        if (1 << seed_bits) > limit:
            raise SupportTooLargeError(seed_bits, limit)
        super().__init__(params, seed_bits=seed_bits)

    @staticmethod
    def _half_bits(n: int, k: int, delta: Fraction) -> int:
        # smallest a with 2^(a+1) >= (n-1) * 2^ceil(k/2) / delta
        need = Fraction(max(n - 1, 1) * (1 << ((k + 1) // 2)), 1) / delta
        need_int = -(-need.numerator // need.denominator)
        return max(1, (need_int - 1).bit_length() - 1)

    def vector(self, seed: int) -> int:
        a = self.half_bits
        x = seed >> a
        y = seed & ((1 << a) - 1)
        # bit i = low bit of x^i * y
        f = field(self.half_bits)
        out = 0
        state = y
        for i in range(self.params.n):
            if state & 1:
                out |= 1 << i
            state = f.mul(state, x)
        return out

    def _y_rows(self, x: int) -> list[int]:
        # row for y-bit b: output i gets the low bit of x^i * t^b,
        # i.e. the low bit of (x^i << b) reduced by the field modulus
        f = field(self.half_bits)
        n = self.params.n
        pw = f.powers(x, n)
        rows = []
        for b in range(self.half_bits):
            row = 0
            for i in range(n):
                if f.mul(pw[i], 1 << b) & 1:
                    row |= 1 << i
            rows.append(row)
        return rows

    def _support_words(self) -> np.ndarray:
        a = self.half_bits
        blocks = []
        for x in range(1 << a):
            rows = _rows_to_words(self._y_rows(x), self.params.n)
            blocks.append(_span_words(rows))
        return np.concatenate(blocks)


class GroupedSpace(SampleSpace):
    """Bits with marginal 2^-L (or the complement) by ANDing bit groups.

    groups[i] lists the underlying positions whose AND is output bit i.  An
    empty group emits a constant 1 (marginal 1), used for clamped rates.
    """

    construction = "grouped"

    def __init__(
        self,
        underlying: SampleSpace,
        groups: tuple[tuple[int, ...], ...],
        params: SpaceParams,
    ):
        self.underlying = underlying
        self.groups = groups
        super().__init__(params, seed_bits=underlying.seed_bits)

    def vector(self, seed: int) -> int:
        base = self.underlying.vector(seed)
        out = 0
        for i, grp in enumerate(self.groups):
            bit = 1
            for p in grp:
                bit &= (base >> p) & 1
            out |= bit << i
        if self.params.complemented:
            out ^= (1 << len(self.groups)) - 1
        return out

    def _support_words(self) -> np.ndarray:
        base = self.underlying.support_words()
        n_out = len(self.groups)
        out = np.zeros((base.shape[0], _words(n_out)), dtype=np.uint64)
        one = np.uint64(1)
        for i, grp in enumerate(self.groups):
            bit = np.ones(base.shape[0], dtype=np.uint64)
            for p in grp:
                w, off = divmod(p, _WORD)
                bit &= (base[:, w] >> np.uint64(off)) & one
            if self.params.complemented:
                bit ^= one
            w, off = divmod(i, _WORD)
            out[:, w] |= bit << np.uint64(off)
        return out

    def coordinate_marginals(self) -> tuple[Fraction, ...]:
        out = []
        for grp in self.groups:
            m = Fraction(1, 1 << len(grp))
            out.append(1 - m if self.params.complemented else m)
        return tuple(out)

    def descriptor(self) -> dict:
        desc = super().descriptor()
        desc["group_sizes"] = [len(g) for g in self.groups]
        desc["underlying"] = self.underlying.descriptor()
        return desc


def build_kwise(n: int, k: int) -> PolynomialSpace:
    """Exactly k-wise independent space on n bits, marginal 1/2."""
    return PolynomialSpace(n, k)


def build_almost_kwise(
    n: int, k: int, delta: Fraction | float | str, budget: int | None = None
) -> SmallBiasSpace:
    """delta-almost k-wise independent space on n bits, nominal marginal 1/2."""
    return SmallBiasSpace(n, k, Fraction(delta), budget=budget)


def with_marginal(
    space_builder,
    n: int,
    k: int,
    delta: Fraction | float | str,
    L: int,
    complemented: bool = False,
) -> GroupedSpace:
    """Marginal-2^-L transform: AND disjoint groups of L underlying bits.

    space_builder(n_positions, order, delta) supplies the underlying space;
    it is invoked with n*L positions and independence order k*L, so any k
    output bits depend on at most k*L jointly-near-uniform underlying bits.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    delta = Fraction(delta)
    underlying = space_builder(n * L, k * L, delta)
    groups = tuple(tuple(range(i * L, (i + 1) * L)) for i in range(n))
    params = SpaceParams(n=n, k=k, delta=delta, p_log_inv=L, complemented=complemented)
    return GroupedSpace(underlying, groups, params)


def group_heterogeneous(
    underlying: SampleSpace,
    group_sizes: list[int],
    k: int,
    delta: Fraction,
    complemented: bool = False,
) -> GroupedSpace:
    """Per-coordinate group sizes (marginal 2^-L_i; empty group = always on).

    The caller is responsible for sizing the underlying independence order to
    cover any k output groups (k * max(L_i) suffices).
    """
    total = sum(group_sizes)
    if underlying.params.n != total:
        raise ValueError("underlying space must have sum(group_sizes) positions")
    groups = []
    pos = 0
    for size in group_sizes:
        groups.append(tuple(range(pos, pos + size)))
        pos += size
    params = SpaceParams(
        n=len(group_sizes),
        k=k,
        delta=delta,
        p_log_inv=max(max(group_sizes, default=1), 1),
        complemented=complemented,
    )
    return GroupedSpace(underlying, tuple(groups), params)


def exact_builder(n: int, k: int, delta) -> PolynomialSpace:
    """Adapter for with_marginal: ignores delta (must be 0)."""
    if Fraction(delta) != 0:
        raise ValueError("exact_builder only supports delta = 0")
    return build_kwise(n, k)


def almost_builder(n: int, k: int, delta) -> SmallBiasSpace:
    """Adapter for with_marginal over the small-bias construction."""
    return build_almost_kwise(n, k, delta)


@dataclass
class IndependenceReport:
    max_tv: Fraction
    worst_subset: tuple[int, ...]
    subsets_tested: int


def _reference_probs(size: int, marginal: Fraction) -> list[Fraction]:
    """Product-measure probabilities over {0,1}^size, pattern-indexed."""
    out = []
    p, q = marginal, 1 - marginal
    for z in range(1 << size):
        ones = z.bit_count()
        out.append(p**ones * q ** (size - ones))
    return out


def _project(words: np.ndarray, positions: tuple[int, ...]) -> np.ndarray:
    proj = np.zeros(words.shape[0], dtype=np.int64)
    for out_bit, p in enumerate(positions):
        w, off = divmod(p, _WORD)
        proj |= (((words[:, w] >> np.uint64(off)) & np.uint64(1)) << np.uint64(out_bit)).astype(
            np.int64
        )
    return proj


def _subset_iter(n: int, size: int, cap: int | None):
    total = comb(n, size)
    combos = itertools.combinations(range(n), size)
    if cap is None or total <= cap:
        return combos, total
    stride = -(-total // cap)
    return itertools.islice(combos, 0, None, stride), -(-total // stride)


def verify_independence(
    space: SampleSpace,
    k_check: int | None = None,
    subset_cap: int | None = None,
    budget: int | None = None,
) -> IndependenceReport:
    """Exact TV distance to the product reference over coordinate subsets.

    Counts patterns over the full enumerated support with integer arithmetic;
    TV values are exact rationals.  Only subsets of size exactly min(k_check,
    n) are tested: marginalizing both the space and the product reference can
    only shrink TV, so the maximum over all subsets of size <= k_check is
    attained at full size.  When the subset count exceeds subset_cap, a
    deterministic stride-sample of subsets is tested instead.
    """
    params = space.params
    k_eff = params.k if k_check is None else k_check
    size = min(k_eff, params.n)
    words = space.support_words(budget)
    total = words.shape[0]
    marginal = params.marginal

    # Fold identical full-width patterns first when the pattern space is
    # smaller than the support: subset projections then run over <= 2^n
    # pattern weights instead of the raw support.
    weights = None
    if params.n <= 22 and (1 << params.n) < total:
        full = _project(words, tuple(range(params.n)))
        weights = np.bincount(full, minlength=1 << params.n).astype(np.int64)
        patterns = np.arange(1 << params.n, dtype=np.int64)
        cols = np.empty((params.n, patterns.shape[0]), dtype=np.uint8)
        for p in range(params.n):
            cols[p] = ((patterns >> p) & 1).astype(np.uint8)
    else:
        cols = np.empty((params.n, total), dtype=np.uint8)
        one = np.uint64(1)
        for p in range(params.n):
            w, off = divmod(p, _WORD)
            cols[p] = ((words[:, w] >> np.uint64(off)) & one).astype(np.uint8)

    proj_dtype = np.uint8 if size <= 8 else np.int64
    marginals = space.coordinate_marginals()
    homogeneous = len(set(marginals)) <= 1
    if homogeneous:
        ref = _reference_probs(size, marginal)
        # all reference probs share the denominator marginal.denominator^size
        ref_den = marginal.denominator**size
        ref_num = np.asarray([int(r * ref_den) for r in ref], dtype=object)

    max_tv = Fraction(0)
    worst: tuple[int, ...] = ()
    tested = 0
    combos, _ = _subset_iter(params.n, size, subset_cap)
    for subset in combos:
        tested += 1
        if not homogeneous:
            ref_den = 1
            for p in subset:
                ref_den *= marginals[p].denominator
            nums = []
            for z in range(1 << size):
                pr = Fraction(1)
                for b, p in enumerate(subset):
                    m = marginals[p]
                    pr *= m if (z >> b) & 1 else 1 - m
                nums.append(int(pr * ref_den))
            ref_num = np.asarray(nums, dtype=object)
        proj = cols[subset[0]].astype(proj_dtype)
        for out_bit, p in enumerate(subset[1:], start=1):
            proj |= cols[p].astype(proj_dtype) << out_bit
        if weights is None:
            counts = np.bincount(proj, minlength=1 << size).astype(np.int64)
        else:
            counts = np.bincount(proj, weights=weights, minlength=1 << size).astype(np.int64)
        # TV = 1/2 * sum |counts/total - ref_num/ref_den|; all integer math
        dev = abs(counts.astype(object) * ref_den - total * ref_num)
        tv = Fraction(int(dev.sum()), 2 * total * ref_den)
        if tv > max_tv:
            max_tv = tv
            worst = subset
    return IndependenceReport(max_tv=max_tv, worst_subset=worst, subsets_tested=tested)


def space_from_descriptor(desc: dict) -> SampleSpace:
    """Rebuild a space from its descriptor; bit-exact regeneration."""
    kind = desc["construction"]
    delta = Fraction(desc["delta"]["num"], desc["delta"]["den"])
    if kind == "poly_eval":
        return build_kwise(desc["n"], desc["k"])
    if kind == "small_bias":
        return build_almost_kwise(desc["n"], desc["k"], delta, budget=1 << 62)
    if kind == "grouped":
        sizes = desc["group_sizes"]
        underlying = space_from_descriptor(desc["underlying"])
        return group_heterogeneous(
            underlying,
            sizes,
            desc["k"],
            delta,
            complemented=desc["complemented"],
        )
    raise ValueError(f"unknown construction {kind!r}")


def dump_support(space: SampleSpace, budget: int | None = None) -> str:
    """Newline-separated bitstrings, position 0 leftmost, seed order."""
    n = space.params.n
    lines = []
    for v in space.iter_support(budget):
        lines.append("".join("1" if (v >> i) & 1 else "0" for i in range(n)))
    return "\n".join(lines) + "\n"

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
the distribution.  Support vectors are always word rows: uint64 arrays with
bit j % 64 of word j // 64 holding coordinate j.  The two base constructions
are GF(2)-linear on blocks of seeds: seed s lies in block s >> r, and its low
r bits pick which of the block's r generator rows (``_generators``) to XOR.
``support_blocks`` spans the support from them by XOR doubling, in seed
order and blocks of at most 2^16 rows, so a consumer holds one block at a
time; ``sample_words`` XORs the generator rows of drawn seeds, building rows
only for the blocks it drew.  ``GroupedSpace`` ANDs groups of underlying rows.

``verify_independence`` measures the exact TV distance without enumerating.
Both base constructions are GF(2)-linear in the seed (the small-bias one on
each block of seeds with a fixed x), so the parity of any set of coordinates
is constant 0 or balanced on a block.  The parity biases follow from one XOR
of precomputed columns per block (x^i for every x in GF(2^a), or the seed-bit
vectors of the polynomial space), and the pattern counts over a subset from a
Walsh-Hadamard transform of the biases (the Vazirani XOR lemma).  Grouped
spaces push their underlying counts forward through the AND.
"""

from __future__ import annotations

import itertools
import json
import numbers
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

import numpy as np

from .gf2 import field

DEFAULT_ENUM_BUDGET = 1 << 24

_WORD = 64
_BLOCK_ROWS = 1 << 16  # most rows in one support block; a power of two


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


def _as_int(x, what: str, low: int = 0) -> int:
    """x as a Python int >= low; bools, floats and strings are rejected."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < low:
        raise ValueError(f"{what} must be an int >= {low}, not {x!r}")
    return int(x)


def _words(n_positions: int) -> int:
    return (n_positions + _WORD - 1) // _WORD


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 bytes along the last axis into little-endian uint64 words."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out = np.zeros(packed.shape[:-1] + (_words(bits.shape[-1]) * 8,), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view("<u8").astype(np.uint64, copy=False)


def _row_popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits per word row; every packed row leaves its tail bits clear."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def _span_into(out: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Fill out[..., s, :] with the XOR of rows[..., b, :] over the bits b of s.

    out has shape (..., 2^r, w) and rows (..., r, w); the span is built by
    doubling in place, so no block is allocated beyond out itself.
    """
    out[..., 0, :] = 0
    for b in range(rows.shape[-2]):
        h = 1 << b
        np.bitwise_xor(out[..., :h, :], rows[..., b : b + 1, :], out=out[..., h : 2 * h, :])
    return out


def _all_set(words: np.ndarray, positions) -> np.ndarray:
    """Boolean row mask of word rows: every listed position is 1 (true for
    no positions).  One mask test per octet the positions touch."""
    by_octet: dict[int, int] = {}
    for p in positions:
        by_octet[p >> 3] = by_octet.get(p >> 3, 0) | (1 << (p & 7))
    if 8 * words.shape[1] <= max(by_octet, default=0):
        raise ValueError("coordinate outside the word matrix")
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    out = np.ones(words.shape[0], dtype=bool)
    for o, mask in by_octet.items():
        out &= (octets[:, o] & mask) == mask
    return out


def _unpack_words(words: np.ndarray, n_positions: int) -> np.ndarray:
    """(rows, n_positions) 0/1 uint8 matrix of the leading coordinates of word rows."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, bitorder="little")[:, :n_positions]


class SampleSpace:
    """Common plumbing: support and sample rows, budget, serialization.

    A linear subclass sets _span_bits = r and supplies _generators: seed s
    is the XOR of the generator rows of block s >> r picked by its low r bits.
    """

    construction = "abstract"

    def __init__(self, params: SpaceParams, seed_bits: int):
        self.params = params
        self.seed_bits = seed_bits
        self._support: np.ndarray | None = None
        self._table: tuple[np.ndarray, int] | None = None

    # subclasses fill these in
    def _generators(self, blocks: np.ndarray) -> np.ndarray:
        """(len(blocks), r, n) 0/1 uint8: row b of block x is the output of seed x * 2^r + 2^b."""
        raise NotImplementedError

    def _parity_table(self) -> tuple[np.ndarray, int]:
        """Columns of a space that is GF(2)-linear on blocks of seeds.

        Returns (table, block): table has shape (n, blocks, width) and the
        seeds split into `blocks` blocks of `block` seeds each.  On a block,
        the parity of the bits in T is 0 for every seed when the XOR of the
        columns table[i, block] over i in T is all zero, and is balanced
        otherwise.
        """
        raise NotImplementedError

    def _pattern_counts(self, subsets: np.ndarray) -> np.ndarray:
        """Exact support counts of every pattern over each row of subsets.

        subsets is a (rows, s) array of coordinates; the result has shape
        (rows, 2^s) and bit b of a pattern is coordinate subsets[:, b].
        """
        if self._table is None:
            self._table = self._parity_table()
        return _linear_counts(*self._table, subsets)

    @property
    def support_size(self) -> int:
        return 1 << self.seed_bits

    def _check_budget(self, budget: int | None) -> None:
        limit = DEFAULT_ENUM_BUDGET if budget is None else budget
        if self.support_size > limit:
            raise SupportTooLargeError(self.seed_bits, limit)

    def support_blocks(self, budget: int | None = None):
        """Support in seed order as (rows, ceil(n/64)) uint64 blocks of at most
        _BLOCK_ROWS rows, checking the budget first; one block is kept."""
        self._check_budget(budget)
        if self.support_size > _BLOCK_ROWS:
            return self._blocks()
        if self._support is None:
            self._support = next(self._blocks())
        return iter((self._support,))

    def support_words(self, budget: int | None = None) -> np.ndarray:
        """Support as a (2^seed_bits, ceil(n/64)) uint64 array, seed order."""
        return np.concatenate(list(self.support_blocks(budget)))

    def sample_words(self, count: int, seed: int = 0) -> np.ndarray:
        """Monte Carlo fallback: word rows of `count` independently drawn seeds.

        Not derandomized; reports built from this path must say so.
        """
        rng = random.Random(seed)
        top = self.support_size
        return self._seed_words([rng.randrange(top) for _ in range(count)])

    def _blocks(self):
        """Blocks of support_blocks: the span of the low generator rows of
        `per` generator blocks, then, when a block is smaller than one, that
        span XOR each nonzero offset the high rows span."""
        r = self._span_bits
        size = min(_BLOCK_ROWS, self.support_size)
        low_bits = min(r, size.bit_length() - 1)
        per = size >> low_bits
        gens = _pack_words(self._generators(np.arange(self.support_size >> r)))
        w = gens.shape[2]
        for x in range(0, gens.shape[0], per):
            low = np.empty((per, 1 << low_bits, w), dtype=np.uint64)
            low = _span_into(low, gens[x : x + per, :low_bits]).reshape(size, w)
            high = np.empty((1 << (r - low_bits), w), dtype=np.uint64)
            yield low
            yield from (low ^ offset for offset in _span_into(high, gens[x, low_bits:])[1:])

    def _seed_words(self, seeds: list[int]) -> np.ndarray:
        r = self._span_bits
        highs = np.array([s >> r for s in seeds], dtype=np.int64)
        blocks, which = np.unique(highs, return_inverse=True)
        rows = _pack_words(self._generators(blocks))
        size = -(-r // 8)
        low = b"".join((s & ((1 << r) - 1)).to_bytes(size, "little") for s in seeds)
        octets = np.frombuffer(low, dtype=np.uint8).reshape(len(seeds), size)
        bits = np.unpackbits(octets, axis=1, bitorder="little")
        out = np.zeros((len(seeds), rows.shape[2]), dtype=np.uint64)
        for b in range(r):
            out ^= rows[which, b] * bits[:, b : b + 1]
        return out

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
        self._span_bits = self.seed_bits

    def _generators(self, blocks: np.ndarray) -> np.ndarray:
        # One block.  Row for seed bit t = j * field_bits + b: output i gets
        # the low bit of t^b * x_i^j, where x_i is the field element encoded as i.
        f = field(self.field_bits)
        n, k = self.params.n, self.params.k
        planes = f.low_bit_planes(f.power_table(np.arange(n), k))  # (b, j, i)
        rows = planes.transpose(1, 0, 2).reshape(self.seed_bits, n)
        return np.broadcast_to(rows, (len(blocks), self.seed_bits, n))

    def _parity_table(self) -> tuple[np.ndarray, int]:
        # one block of all seeds; column i packs coordinate i's seed bits
        cols = _pack_words(self._generators(np.arange(1)).transpose(2, 0, 1))
        return cols, self.support_size


class SmallBiasSpace(SampleSpace):
    """delta-almost k-wise independent bits via a small-bias generator."""

    construction = "small_bias"

    def __init__(self, n: int, k: int, delta: Fraction):
        delta = Fraction(delta)
        if not (0 < delta < 1):
            raise ValueError("delta must be in (0, 1)")
        params = SpaceParams(n=n, k=k, delta=delta)
        self.half_bits = self._half_bits(n, k, delta)
        super().__init__(params, seed_bits=2 * self.half_bits)
        self._span_bits = self.half_bits

    @staticmethod
    def _half_bits(n: int, k: int, delta: Fraction) -> int:
        # smallest a with 2^(a+1) >= (n-1) * 2^ceil(k/2) / delta
        need = Fraction(max(n - 1, 1) * (1 << ((k + 1) // 2)), 1) / delta
        need_int = -(-need.numerator // need.denominator)
        return max(1, (need_int - 1).bit_length() - 1)

    def _powers(self, xs: np.ndarray) -> np.ndarray:
        # (n, len(xs)): x^i for each field element x
        return field(self.half_bits).power_table(xs, self.params.n)

    def _generators(self, blocks: np.ndarray) -> np.ndarray:
        # seed (x, y) is x * 2^a + y; row b of block x has bit i = low bit of
        # x^i * t^b, so the bits of y pick the rows whose XOR is x^i * y's
        planes = field(self.half_bits).low_bit_planes(self._powers(blocks))  # (b, i, x)
        return planes.transpose(2, 0, 1)

    def _parity_table(self) -> tuple[np.ndarray, int]:
        # for fixed x, the parity over T is the low bit of (sum_T x^i) * y:
        # identically 0 in y when the sum is 0, balanced otherwise
        a = self.half_bits
        cols = self._powers(np.arange(1 << a)).astype(np.min_scalar_type((1 << a) - 1))
        return cols[:, :, None], 1 << a


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

    def _blocks(self):
        return map(self._and_groups, self.underlying._blocks())

    def _seed_words(self, seeds: list[int]) -> np.ndarray:
        return self._and_groups(self.underlying._seed_words(seeds))

    def _and_groups(self, base: np.ndarray) -> np.ndarray:
        """Output word rows from underlying word rows: each group is one
        all-set test per octet it touches, its verdict ORed into its output
        bit; the complement flips every output bit at the end."""
        octets = np.zeros((base.shape[0], 8 * _words(len(self.groups))), dtype=np.uint8)
        for i, grp in enumerate(self.groups):
            bit = _all_set(base, grp).view(np.uint8)
            np.multiply(bit, 1 << (i & 7), out=bit)
            np.bitwise_or(octets[:, i >> 3], bit, out=octets[:, i >> 3])
        out = octets.view("<u8").astype(np.uint64, copy=False)
        if self.params.complemented:
            out ^= _pack_words(np.ones(len(self.groups), dtype=bool))
        return out

    def _pattern_counts(self, subsets: np.ndarray) -> np.ndarray:
        # Count the underlying patterns over the concatenated groups, then
        # push each one forward through the AND (and the complement).  Rows
        # are batched by the sizes of their groups, which fix the push-forward.
        rows, s = subsets.shape
        out = np.zeros((rows, 1 << s), dtype=_exact_dtype(self.seed_bits + 1))
        sizes = np.array([len(g) for g in self.groups], dtype=np.intp)[subsets]
        shapes, which = np.unique(sizes, axis=0, return_inverse=True)
        for shape_id, shape in enumerate(shapes):
            picked = np.flatnonzero(which.reshape(-1) == shape_id)
            width = int(shape.sum())
            positions = np.array(
                [[p for i in subsets[r] for p in self.groups[i]] for r in picked],
                dtype=np.intp,
            ).reshape(len(picked), width)
            base = self.underlying._pattern_counts(positions)
            image = self._push_forward(shape)
            for z in range(1 << s):
                out[picked, z] = base[:, image == z].sum(axis=1)
        return out

    def _push_forward(self, shape: np.ndarray) -> np.ndarray:
        """Output pattern of each underlying pattern over groups of these sizes."""
        u = np.arange(1 << int(shape.sum()))
        z = np.zeros_like(u)
        offset = 0
        for b, size in enumerate(shape.tolist()):
            full = ((1 << size) - 1) << offset
            z |= ((u & full) == full).astype(u.dtype) << b
            offset += size
        if self.params.complemented:
            z ^= (1 << len(shape)) - 1
        return z

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


def build_almost_kwise(n: int, k: int, delta: Fraction | float | str) -> SmallBiasSpace:
    """delta-almost k-wise independent space on n bits, nominal marginal 1/2.
    Any size builds and samples; the budget applies where a support is
    enumerated or verified."""
    return SmallBiasSpace(n, k, Fraction(delta))


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
    return group_heterogeneous(space_builder(n * L, k * L, delta), [L] * n, k, delta, complemented)


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
    if any(size < 0 for size in group_sizes):
        raise ValueError("group sizes must be non-negative")
    if underlying.params.n != sum(group_sizes):
        raise ValueError("underlying space must have sum(group_sizes) positions")
    starts = itertools.accumulate(group_sizes, initial=0)
    groups = tuple(tuple(range(pos, pos + size)) for pos, size in zip(starts, group_sizes))
    params = SpaceParams(
        n=len(group_sizes),
        k=k,
        delta=delta,
        p_log_inv=max(max(group_sizes, default=1), 1),
        complemented=complemented,
    )
    return GroupedSpace(underlying, groups, params)


def exact_builder(n: int, k: int, delta) -> PolynomialSpace:
    """Adapter for with_marginal: ignores delta (must be 0)."""
    if Fraction(delta) != 0:
        raise ValueError("exact_builder only supports delta = 0")
    return build_kwise(n, k)


def build_space(n: int, k: int, delta, L: int = 1) -> SampleSpace:
    """The space a (k, delta, L) choice names: exactly k-wise when delta is
    0, else delta-almost k-wise, with each bit the AND of L such bits when
    L > 1 (marginal 2^-L).  L < 1 is a ValueError, as in with_marginal."""
    builder = exact_builder if delta == 0 else build_almost_kwise
    return builder(n, k, delta) if L == 1 else with_marginal(builder, n, k, delta, L)


@dataclass
class IndependenceReport:
    max_tv: Fraction
    worst_subset: tuple[int, ...]
    subsets_tested: int


# bytes of XOR work per batch of subsets in _linear_counts
_BATCH_BYTES = 1 << 23
# subsets per batch in verify_independence
_SUBSET_BATCH = 4096


def _exact_dtype(bits: int):
    """int64 when every value stays below 2^bits < 2^62, else Python ints."""
    return np.int64 if bits < 62 else object


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """In-place unnormalized Walsh-Hadamard transform along axis 1."""
    rows, size = a.shape
    h = 1
    while h < size:
        v = a.reshape(rows, size // (2 * h), 2, h)
        low = v[:, :, 0].copy()
        v[:, :, 0] += v[:, :, 1]
        np.subtract(low, v[:, :, 1], out=v[:, :, 1])
        h *= 2
    return a


def _linear_counts(table: np.ndarray, block: int, subsets: np.ndarray) -> np.ndarray:
    """Pattern counts of a blockwise-linear space from parity biases.

    For T a subset of the row's coordinates, F(T) = sum over seeds of
    (-1)^(parity over T) = block * #{blocks where T's columns XOR to 0}.
    The Vazirani XOR lemma gives count(z) = 2^-s * sum_T (-1)^|T & z| F(T),
    one Walsh-Hadamard transform of F per row; every step is exact.
    """
    rows, s = subsets.shape
    _, blocks, width = table.shape
    dtype = _exact_dtype(s + (blocks * block).bit_length())
    out = np.empty((rows, 1 << s), dtype=dtype)
    step = max(1, _BATCH_BYTES // ((1 << s) * blocks * width * table.itemsize))
    for lo in range(0, rows, step):
        part = subsets[lo : lo + step]
        xor = np.empty((len(part), 1 << s, blocks * width), dtype=table.dtype)
        _span_into(xor, table[part].reshape(len(part), s, blocks * width))
        zero = (xor.reshape(len(part), 1 << s, blocks, width) == 0).all(axis=3).sum(axis=2)
        bias = zero.astype(dtype) * block
        out[lo : lo + step] = _walsh_hadamard(bias) // (1 << s)
    return out


def _subset_iter(n: int, size: int, cap: int | None):
    """Size-subsets of range(n) in combinations order, stride-sampled to at most cap."""
    total = comb(n, size)
    combos = itertools.combinations(range(n), size)
    if cap is None or total <= cap:
        return combos
    return itertools.islice(combos, 0, None, -(-total // cap))


def verify_independence(
    space: SampleSpace,
    k_check: int | None = None,
    subset_cap: int | None = None,
    budget: int | None = None,
) -> IndependenceReport:
    """Exact TV distance to the product reference over coordinate subsets.

    The support is never built.  Both constructions are GF(2)-linear in the
    seed (the small-bias one for each fixed x), so the parity of any set T
    of coordinates is either constant 0 or balanced on each block of seeds,
    and the exact pattern counts over a subset S follow from these parity
    biases by one Walsh-Hadamard transform of size 2^|S| (the Vazirani XOR
    lemma).  Grouped spaces push the counts of their underlying positions
    forward through the AND.  Counts and TV values are exact: integers, and
    TV as a rational.

    Only subsets of size exactly min(k_check, n) are tested: marginalizing
    both the space and the product reference can only shrink TV, so the
    maximum over all subsets of size <= k_check is attained at full size.
    When the subset count exceeds subset_cap, a deterministic stride-sample
    of subsets is tested instead.  worst_subset is the first subset tested
    that attains max_tv, and is empty when max_tv is 0.  budget bounds the
    support size as for support_words, and SupportTooLargeError is raised
    above it.
    """
    params = space.params
    k_eff = params.k if k_check is None else _as_int(k_check, "k_check", 1)
    if subset_cap is not None:
        subset_cap = _as_int(subset_cap, "subset_cap", 1)
    space._check_budget(budget)
    size = min(k_eff, params.n)
    total = space.support_size

    # Reference probabilities over a subset share the denominator den^size;
    # scale is a multiple of it and of total, so 2 * scale * TV is an integer.
    marginals = space.coordinate_marginals()
    den = lcm(*(m.denominator for m in marginals))
    scale = lcm(total, den**size)
    dtype = _exact_dtype(size + scale.bit_length())
    ones = np.array([int(m * den) for m in marginals], dtype=dtype)
    zeros = den - ones

    best = 0
    worst: tuple[int, ...] = ()
    tested = 0
    combos = _subset_iter(params.n, size, subset_cap)
    while batch := list(itertools.islice(combos, _SUBSET_BATCH)):
        subsets = np.array(batch, dtype=np.intp).reshape(len(batch), size)
        ref = np.full((len(batch), 1), scale // den**size, dtype=dtype)
        for b in range(size):
            col = subsets[:, b : b + 1]
            ref = np.concatenate([ref * zeros[col], ref * ones[col]], axis=1)
        counts = space._pattern_counts(subsets).astype(dtype)
        dev = np.abs(counts * (scale // total) - ref).sum(axis=1)
        i = int(np.argmax(dev))
        if dev[i] > best:
            best = int(dev[i])
            worst = tuple(int(p) for p in subsets[i])
        tested += len(batch)
    return IndependenceReport(
        max_tv=Fraction(best, 2 * scale), worst_subset=worst, subsets_tested=tested
    )


def _descriptor_field(desc, name: str, kind: type = object, subject: str = "space descriptor"):
    """desc[name], a JSON value of the given kind (a bool is never an int);
    ValueError naming subject and field when it is missing or of another kind."""
    if not isinstance(desc, dict) or name not in desc:
        raise ValueError(f"{subject} has no field {name!r}")
    value = desc[name]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{subject} field {name!r} must be {kind.__name__}, not {value!r}")
    return value


def space_from_descriptor(desc: dict) -> SampleSpace:
    """Rebuild a space from its descriptor; bit-exact regeneration.

    The descriptor is outside input: an unknown construction, a missing
    field, one of the wrong JSON type, and one that differs from the rebuilt
    space's own descriptor() (an edited seed_bits, say) are each a
    ValueError naming it.
    """
    kind = _descriptor_field(desc, "construction", str)
    if kind not in ("poly_eval", "small_bias", "grouped"):
        raise ValueError(f"unknown construction {kind!r}")
    n, k = _descriptor_field(desc, "n", int), _descriptor_field(desc, "k", int)
    frac = _descriptor_field(desc, "delta", dict)
    num, den = _descriptor_field(frac, "num", int), _descriptor_field(frac, "den", int)
    if den == 0:
        raise ValueError("space descriptor field 'den' must not be 0")
    delta = Fraction(num, den)
    if kind == "poly_eval":
        space = build_kwise(n, k)
    elif kind == "small_bias":
        space = build_almost_kwise(n, k, delta)
    else:
        sizes = _descriptor_field(desc, "group_sizes", list)
        if not all(isinstance(size, int) and not isinstance(size, bool) for size in sizes):
            raise ValueError(f"space descriptor field 'group_sizes' must list ints, not {sizes!r}")
        space = group_heterogeneous(
            space_from_descriptor(_descriptor_field(desc, "underlying", dict)),
            sizes,
            k,
            delta,
            complemented=_descriptor_field(desc, "complemented", bool),
        )
    own = space.descriptor()
    for name in sorted(own.keys() | desc.keys(), key=str):
        if name not in own:
            raise ValueError(f"space descriptor has an unknown field {name!r}")
        if _descriptor_field(desc, name, type(own[name])) != own[name]:  # typed: True is not 1
            raise ValueError(
                f"space descriptor field {name!r} is {desc[name]!r}, "
                f"but the space it rebuilds has {own[name]!r}"
            )
    return space


def _mode_count(mode: str, count) -> int | None:
    """The draws a mode takes: None to enumerate the support, else count read
    as an int >= 1 for "sample"; any other mode is an error."""
    if mode == "enumerate":
        return None
    if mode != "sample":
        raise ValueError(f"unknown mode {mode!r}")
    if not count:
        raise ValueError("sample mode needs trials >= 1")
    return _as_int(count, "trials", 1)


def mode_blocks(space: SampleSpace, mode: str, budget: int | None, count, seed: int):
    """Row blocks to evaluate: the support in seed order ("enumerate") or one
    block of `count` seeded draws ("sample").  The mode, the count and the
    budget are checked here, before any block is built."""
    count = _mode_count(mode, count)
    if count is None:
        return space.support_blocks(budget)
    return iter((space.sample_words(count, seed),))


def dump_blocks(space: SampleSpace, budget: int | None = None):
    """dump_support one support block of text at a time."""
    for block in space.support_blocks(budget):
        bits = _unpack_words(block, space.params.n)
        newline = np.full((bits.shape[0], 1), ord("\n"), dtype=np.uint8)
        yield np.concatenate([bits + ord("0"), newline], axis=1).tobytes().decode("ascii")


def dump_support(space: SampleSpace, budget: int | None = None) -> str:
    """Newline-separated bitstrings, position 0 leftmost, seed order."""
    return "".join(dump_blocks(space, budget))

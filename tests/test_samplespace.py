"""Sample-space tests against brute-force counting oracles.

The oracles are collections.Counter over the enumerated support with exact
Fraction arithmetic, the support-enumerating verifier in oracles.py, and the
scalar per-seed vectors there; all are independent of verify_independence,
which never builds the support, and of the vectorized row builders.
"""

import copy
import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from edgewise import gf2, samplespace
from edgewise.experiments import gen_graph, sparsify_experiment
from edgewise.gf2 import field
from edgewise.samplespace import (
    GroupedSpace,
    SpaceParams,
    SupportTooLargeError,
    almost_builder,
    build_almost_kwise,
    build_kwise,
    build_space,
    dump_support,
    exact_builder,
    group_heterogeneous,
    mode_blocks,
    space_from_descriptor,
    verify_independence,
    with_marginal,
)
from oracles import enumerated_independence, support_ints, vector, word_ints


def subset_counts(space, positions):
    c = Counter()
    for v in support_ints(space):
        pat = 0
        for b, p in enumerate(positions):
            pat |= ((v >> p) & 1) << b
        c[pat] += 1
    return c


def exact_tv(space, positions, marginals):
    """TV between the projected support distribution and the product measure."""
    counts = subset_counts(space, positions)
    total = space.support_size
    tv = Fraction(0)
    for pat in range(1 << len(positions)):
        ref = Fraction(1)
        for b, p in enumerate(positions):
            m = marginals[p]
            ref *= m if (pat >> b) & 1 else 1 - m
        tv += abs(Fraction(counts.get(pat, 0), total) - ref)
    return tv / 2


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_exact_space_uniform_on_k_subsets(n, k):
    space = build_kwise(n, k)
    size = min(k, n)
    for positions in itertools.combinations(range(n), size):
        counts = subset_counts(space, positions)
        expect = space.support_size // (1 << size)
        assert all(counts[pat] == expect for pat in range(1 << size))


def test_exact_space_seed_bits():
    for n, k in [(1, 1), (3, 2), (7, 3), (8, 4), (16, 4)]:
        space = build_kwise(n, k)
        r = n.bit_length()  # ceil(log2(n+1))
        assert space.seed_bits == k * r


def test_exact_space_complement_closure():
    # constant-term generator rows include the all-ones vector, so the
    # support multiset is closed under complement
    space = build_kwise(5, 3)
    mask = (1 << 5) - 1
    c = Counter(support_ints(space))
    for v, cnt in c.items():
        assert c[v ^ mask] == cnt


@pytest.mark.parametrize(
    "n,k,delta",
    [(6, 2, Fraction(1, 4)), (8, 3, Fraction(1, 8)), (12, 2, Fraction(1, 16))],
)
def test_almost_space_tv_within_delta(n, k, delta):
    space = build_almost_kwise(n, k, delta)
    marginals = [Fraction(1, 2)] * n
    worst = max(
        exact_tv(space, positions, marginals)
        for positions in itertools.combinations(range(n), k)
    )
    assert worst <= delta


def test_almost_space_seed_shorter_than_input():
    space = build_almost_kwise(32, 3, Fraction(1, 8))
    assert space.seed_bits < 32
    space = build_almost_kwise(32, 3, Fraction(1, 16))
    assert space.seed_bits < 32


def test_almost_space_coordinate_marginals():
    # coordinate 0 reads the low bit of y directly: exactly 1/2.  For i >= 1
    # the bit is a nonzero linear functional of y unless x = 0, so the ones
    # frequency is (1 - 2^-a)/2.
    space = build_almost_kwise(7, 2, Fraction(1, 4))
    a = space.half_bits
    total = space.support_size
    ones = [0] * 7
    for v in support_ints(space):
        for i in range(7):
            ones[i] += (v >> i) & 1
    assert Fraction(ones[0], total) == Fraction(1, 2)
    expect = (1 - Fraction(1, 1 << a)) / 2
    for i in range(1, 7):
        assert Fraction(ones[i], total) == expect


def test_almost_space_requires_positive_delta():
    with pytest.raises(ValueError):
        build_almost_kwise(4, 2, Fraction(0))


@pytest.mark.parametrize("n,L", [(3, 1), (3, 2), (2, 3)])
def test_grouped_marginal_is_two_to_minus_L(n, L):
    space = with_marginal(exact_builder, n, 2, Fraction(0), L)
    total = space.support_size
    for i in range(n):
        ones = sum((v >> i) & 1 for v in support_ints(space))
        assert Fraction(ones, total) == Fraction(1, 1 << L)


def test_grouped_complemented_marginal():
    space = with_marginal(exact_builder, 3, 2, Fraction(0), 2, complemented=True)
    total = space.support_size
    for i in range(3):
        ones = sum((v >> i) & 1 for v in support_ints(space))
        assert Fraction(ones, total) == Fraction(3, 4)


def test_grouped_joint_distribution_exact():
    # underlying order k*L covers any k output groups, so the joint law of any
    # k grouped bits is exactly the product measure
    space = with_marginal(exact_builder, 4, 2, Fraction(0), 2)
    marginals = space.coordinate_marginals()
    for positions in itertools.combinations(range(4), 2):
        assert exact_tv(space, positions, marginals) == 0


def test_grouped_L1_matches_underlying():
    space = with_marginal(exact_builder, 5, 2, Fraction(0), 1)
    assert support_ints(space) == support_ints(space.underlying)


def test_grouped_over_almost_space_within_delta():
    delta = Fraction(1, 8)
    space = with_marginal(almost_builder, 4, 2, Fraction(1, 8), 2)
    rep = verify_independence(space)
    assert rep.max_tv <= delta


def test_heterogeneous_groups():
    under = build_kwise(6, 6)
    space = group_heterogeneous(under, [2, 0, 3, 1], 2, Fraction(0))
    assert space.coordinate_marginals() == (
        Fraction(1, 4),
        Fraction(1, 1),
        Fraction(1, 8),
        Fraction(1, 2),
    )
    # empty group emits a constant 1
    assert all((v >> 1) & 1 for v in support_ints(space))
    assert verify_independence(space, k_check=2).max_tv == 0


# sha256 of support_words() bytes (little-endian uint64 rows), recorded from
# the per-position shift-and-AND construction this one replaced
GROUPED_SUPPORT_SHA256 = {
    "marginal(5,3,L=2)": "24a86bd3be77245bcc871b1537e2570c28cc9fc7a5f7f3a4389a13c39a82e822",
    "complemented(6,2,L=2)": "a9a2f4a8ac91730f71b22e91f7bed5faef7c82782d1fa770aeab39f00361a202",
    "heterogeneous-empty-group": "d894f4828ab5ac0fa8cacaae6df98fcecbd7774ba9b38559ea6494b1fd1217d5",
    "heterogeneous-straddling-word": "fcf9a09d7b3168c585112a28de421addabbcddf46121b772f4a34cc23aa5d9d1",
}


def grouped_space(name):
    if name == "marginal(5,3,L=2)":
        return with_marginal(exact_builder, 5, 3, 0, 2)
    if name == "complemented(6,2,L=2)":
        return with_marginal(exact_builder, 6, 2, 0, 2, complemented=True)
    if name == "heterogeneous-empty-group":
        return group_heterogeneous(build_kwise(6, 6), [2, 0, 1, 3], 2, Fraction(0))
    # 68 output bits over two words; group 63 takes underlying positions
    # 63..65, across the first word boundary
    under = build_almost_kwise(70, 4, Fraction(1, 4))
    return group_heterogeneous(under, [1] * 63 + [3] + [1] * 4, 1, Fraction(1, 4), complemented=True)


@pytest.mark.parametrize("name", sorted(GROUPED_SUPPORT_SHA256))
def test_grouped_support_bytes_pinned(name):
    space = grouped_space(name)
    words = space.support_words()
    assert words.shape[1] == -(-space.params.n // 64)
    digest = hashlib.sha256(np.ascontiguousarray(words, dtype="<u8").tobytes()).hexdigest()
    assert digest == GROUPED_SUPPORT_SHA256[name]
    # the sampled path ANDs the same groups
    seeds = [0, 1, space.support_size - 1]
    assert word_ints(space._seed_words(seeds)) == word_ints(words[seeds])


def test_heterogeneous_size_mismatch():
    under = build_kwise(5, 2)
    with pytest.raises(ValueError):
        group_heterogeneous(under, [2, 2], 2, Fraction(0))


def test_heterogeneous_rejects_negative_group_size():
    # [-1, 5] sums to the underlying n = 4 but would index position -1
    with pytest.raises(ValueError, match="non-negative"):
        group_heterogeneous(build_kwise(4, 2), [-1, 5], 2, Fraction(0))


def test_budget_rejected_at_enumeration_for_almost():
    space = build_almost_kwise(32, 3, Fraction(1, 16))  # builds at any size
    with pytest.raises(SupportTooLargeError) as ei:
        space.support_words(budget=1 << 10)
    assert ei.value.seed_bits == 20
    assert "2^20" in str(ei.value)


def test_budget_rejected_at_enumeration_for_exact():
    space = build_kwise(16, 4)  # builds fine; 2^16 support
    with pytest.raises(SupportTooLargeError):
        space.support_words(budget=1 << 10)


def almost_grouped_space():
    return with_marginal(almost_builder, 4, 2, Fraction(1, 8), 2)


def test_descriptor_roundtrip():
    for space in [
        build_kwise(6, 3),
        build_almost_kwise(9, 2, Fraction(1, 4)),
        almost_grouped_space(),
        with_marginal(exact_builder, 3, 2, Fraction(0), 2, complemented=True),
        group_heterogeneous(build_kwise(6, 6), [2, 0, 3, 1], 2, Fraction(0)),
    ]:
        for desc in (space.descriptor(), json.loads(space.descriptor_json())):
            clone = space_from_descriptor(desc)
            assert clone.descriptor_json() == space.descriptor_json()
            assert dump_support(clone) == dump_support(space)


def _edited(path, value):
    """The grouped descriptor with the field at path set to value (None: removed)."""
    desc = copy.deepcopy(almost_grouped_space().descriptor())
    *outer, last = path
    target = desc
    for key in outer:
        target = target[key]
    if value is None:
        del target[last]
    else:
        target[last] = value
    return desc


@pytest.mark.parametrize("path, value, named", [
    (("k",), None, "no field 'k'"),
    (("n",), None, "no field 'n'"),
    (("delta",), None, "no field 'delta'"),
    (("delta", "den"), None, "no field 'den'"),
    (("p_log_inv",), None, "no field 'p_log_inv'"),
    (("underlying", "construction"), None, "no field 'construction'"),
    (("k",), "2", "field 'k' must be int"),
    (("k",), 2.0, "field 'k' must be int"),
    (("n",), True, "field 'n' must be int"),
    (("delta",), "1/8", "field 'delta' must be dict"),
    (("delta", "num"), 0.5, "field 'num' must be int"),
    (("delta", "den"), 0, "field 'den' must not be 0"),
    (("complemented",), 0, "field 'complemented' must be bool"),
    (("group_sizes",), 2, "field 'group_sizes' must be list"),
    (("group_sizes",), [2.0, 2, 2, 2], "field 'group_sizes' must list ints"),
    (("underlying",), [], "field 'underlying' must be dict"),
    (("seed_bits",), 12, "field 'seed_bits' is 12"),
    (("underlying", "seed_bits"), 5, "field 'seed_bits' is 5"),
    (("p_log_inv",), 3, "field 'p_log_inv' is 3"),
    (("delta", "num"), 2, "field 'delta' is"),
    (("extra",), 1, "unknown field 'extra'"),
    ((3,), 1, "unknown field 3"),
    (("construction",), "bogus", "unknown construction 'bogus'"),
])
def test_descriptor_reader_names_the_bad_field(path, value, named):
    with pytest.raises(ValueError, match=named):
        space_from_descriptor(_edited(path, value))


def test_descriptor_reader_refuses_a_non_object():
    with pytest.raises(ValueError, match="no field 'construction'"):
        space_from_descriptor([])


def test_all_ones_row_descriptor_is_not_a_space():
    # every rate clamped to 1: the report's space is the single all-ones row
    report = sparsify_experiment(gen_graph("cycle", {"length": 5}), 2, 0.5, 0.25)
    assert report.spec.space["construction"] == "constant_ones"
    with pytest.raises(ValueError, match="unknown construction 'constant_ones'"):
        space_from_descriptor(report.spec.space)


def test_rebuild_is_deterministic():
    a = dump_support(build_almost_kwise(6, 2, Fraction(1, 4)))
    b = dump_support(build_almost_kwise(6, 2, Fraction(1, 4)))
    assert a == b


def test_verify_matches_counter_oracle():
    space = build_almost_kwise(6, 2, Fraction(1, 4))
    marginals = [Fraction(1, 2)] * 6
    oracle = max(
        exact_tv(space, positions, marginals)
        for positions in itertools.combinations(range(6), 2)
    )
    rep = verify_independence(space)
    assert rep.max_tv == oracle
    assert rep.subsets_tested == 15


def test_verify_subset_cap_strides():
    space = build_kwise(10, 2)
    rep = verify_independence(space, subset_cap=10)
    assert rep.subsets_tested <= 10
    assert rep.max_tv == 0


def test_sample_words_deterministic():
    space = build_kwise(8, 3)
    assert np.array_equal(space.sample_words(20, seed=7), space.sample_words(20, seed=7))
    assert not np.array_equal(space.sample_words(20, seed=7), space.sample_words(20, seed=8))


def test_param_validation():
    with pytest.raises(ValueError):
        build_kwise(0, 2)
    with pytest.raises(ValueError):
        build_kwise(4, 0)
    with pytest.raises(ValueError):
        with_marginal(exact_builder, 4, 2, Fraction(0), 0)
    with pytest.raises(ValueError):
        exact_builder(4, 2, Fraction(1, 8))


def test_build_space_names_one_space_per_choice():
    same = lambda a, b: a.descriptor_json() == b.descriptor_json()  # noqa: E731
    eighth = Fraction(1, 8)
    assert same(build_space(6, 3, 0), build_kwise(6, 3))
    assert same(build_space(6, 3, eighth), build_almost_kwise(6, 3, eighth))
    assert same(build_space(4, 2, 0, 3), with_marginal(exact_builder, 4, 2, 0, 3))
    assert same(build_space(4, 2, eighth, 2), with_marginal(almost_builder, 4, 2, eighth, 2))
    for L in (0, -3):
        with pytest.raises(ValueError, match="L must be >= 1"):
            build_space(4, 2, 0, L)


# -- the parity-bias verifier against the support-enumerating oracle ----------

HALF, QUARTER, EIGHTH = Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)

DIFFERENTIAL_CASES = {
    # small-bias spaces, most with max_tv > 0
    **{
        f"almost(n={n},k={k},delta={d})": (build_almost_kwise(n, k, d), None, None)
        for n in (2, 3, 5, 8, 11)
        for k in (1, 2, 3)
        for d in (HALF, EIGHTH)
    },
    "kwise(n=9,k=3)": (build_kwise(9, 3), None, None),
    # k_check above k, and k_check = n
    "almost(8,2) k_check=4": (build_almost_kwise(8, 2, QUARTER), 4, None),
    "almost(6,2) k_check=n": (build_almost_kwise(6, 2, HALF), 6, None),
    "kwise(5,2) k_check=n": (build_kwise(5, 2), 5, None),
    # subset_cap striding
    "almost(12,3) cap=37": (build_almost_kwise(12, 3, EIGHTH), None, 37),
    "kwise(10,3) cap=50, k_check=4": (build_kwise(10, 3), 4, 50),
    # n = 1
    "kwise(1,1)": (build_kwise(1, 1), None, None),
    "almost(1,1) k_check=3": (build_almost_kwise(1, 1, HALF), 3, None),
    # complemented grouped spaces
    "grouped almost comp": (
        with_marginal(almost_builder, 4, 2, EIGHTH, 2, complemented=True), None, None
    ),
    "grouped exact comp k_check=3": (
        with_marginal(exact_builder, 5, 1, Fraction(0), 2, complemented=True), 3, None
    ),
    # heterogeneous grouping with an empty group
    "hetero exact": (group_heterogeneous(build_kwise(6, 6), [2, 0, 3, 1], 2, Fraction(0)), 3, None),
    "hetero almost comp": (
        group_heterogeneous(build_almost_kwise(7, 4, HALF), [2, 0, 3, 2], 2, HALF, True),
        3,
        None,
    ),
    # group_heterogeneous over a GroupedSpace
    "hetero over grouped": (
        group_heterogeneous(with_marginal(almost_builder, 6, 2, HALF, 2), [1, 0, 2, 3], 2, HALF),
        4,
        None,
    ),
}


def _as_tuple(rep):
    return rep.max_tv, rep.worst_subset, rep.subsets_tested


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
def test_verify_matches_enumeration_oracle(name):
    space, k_check, cap = DIFFERENTIAL_CASES[name]
    got = verify_independence(space, k_check=k_check, subset_cap=cap)
    want = enumerated_independence(space, k_check=k_check, subset_cap=cap)
    assert _as_tuple(got) == _as_tuple(want)
    assert all(type(p) is int for p in got.worst_subset)


def test_verify_heterogeneous_grouped_pinned():
    # the CLI cannot express a heterogeneous grouping, so this pin sits at
    # library level; values captured from the support-enumerating verifier
    space = group_heterogeneous(build_almost_kwise(7, 4, HALF), [2, 0, 3, 2], 2, HALF, True)
    rep = verify_independence(space)
    assert _as_tuple(rep) == (Fraction(3, 128), (0, 3), 6)
    assert rep.max_tv <= space.params.delta


def test_differential_cases_cover_nonzero_tv():
    # the cases above would prove little if every space measured zero
    positive = [
        name for name, (space, k_check, cap) in DIFFERENTIAL_CASES.items()
        if verify_independence(space, k_check=k_check, subset_cap=cap).max_tv > 0
    ]
    assert "hetero almost comp" in positive
    assert "grouped exact comp k_check=3" in positive
    assert sum(name.startswith("almost(n=") for name in positive) >= 10


def test_verify_python_int_path_matches_int64(monkeypatch):
    spaces = [
        (build_almost_kwise(9, 3, EIGHTH), None),
        (group_heterogeneous(build_almost_kwise(7, 4, HALF), [2, 0, 3, 2], 2, HALF, True), 3),
    ]
    fast = [_as_tuple(verify_independence(sp, k_check=kc)) for sp, kc in spaces]
    monkeypatch.setattr(samplespace, "_exact_dtype", lambda bits: object)
    slow = [_as_tuple(verify_independence(sp, k_check=kc)) for sp, kc in spaces]
    assert slow == fast


def test_verify_seed_columns_wider_than_64_bits():
    # 16-wise over 8 points in GF(2^4): 64 seed bits, far past any
    # enumeration, so counts run in Python ints over 8-byte columns
    space = build_kwise(8, 16)
    assert space.seed_bits == 64
    rep = verify_independence(space, k_check=3, budget=1 << 64)
    assert _as_tuple(rep) == (Fraction(0), (), 56)
    counts = space._pattern_counts(np.array([[0, 3, 7], [1, 2, 5]]))
    assert counts.tolist() == [[1 << 61] * 8] * 2
    grouped = group_heterogeneous(space, [2, 0, 3, 1, 2], 2, Fraction(0), complemented=True)
    rep = verify_independence(grouped, k_check=3, budget=1 << 64)
    assert _as_tuple(rep) == (Fraction(0), (), 10)


def test_verify_respects_budget_without_building_the_support():
    space = build_kwise(16, 4)
    with pytest.raises(SupportTooLargeError) as ei:
        verify_independence(space, budget=1 << 10)
    assert ei.value.seed_bits == 20
    rep = verify_independence(space, budget=1 << 20)
    assert rep.max_tv == 0 and rep.subsets_tested == 1820
    assert space._support is None


def test_verify_rejects_nonpositive_k_check():
    with pytest.raises(ValueError):
        verify_independence(build_kwise(4, 2), k_check=0)


# -- the vectorized support builder --------------------------------------------


@pytest.mark.parametrize(
    "n,k,delta,a",
    [(2, 1, Fraction(3, 4), 1), (3, 1, HALF, 2), (9, 2, QUARTER, 5), (65, 1, Fraction(99, 100), 7)],
)
def test_small_bias_support_rows_equal_vector(n, k, delta, a):
    space = build_almost_kwise(n, k, delta)
    assert space.half_bits == a
    words = space.support_words()
    assert words.shape == (1 << (2 * a), (n + 63) // 64)
    rows = word_ints(words)
    assert rows == [vector(space, seed) for seed in range(space.support_size)]


@pytest.mark.parametrize(
    "space,digest",
    [
        (
            build_almost_kwise(32, 3, Fraction(1, 16)),
            "4b5298f64ee2f52cbff207cba1d12842d0bb00d093a7be2ae34a00953b590477",
        ),
        (
            build_almost_kwise(70, 2, QUARTER),
            "53df79da5166584e1010d76480c86130adc5eaafe3d6b5f49aa581cf5da6b863",
        ),
        (
            build_kwise(20, 3),
            "7fe978e336436b9921a87ae953099a6880915a7876555943d8dbe3e0e0e0926d",
        ),
    ],
    ids=["almost(32,3,1/16)", "almost(70,2,1/4)", "kwise(20,3)"],
)
def test_support_words_bytes_pinned(space, digest):
    # digests of the support built by per-element field multiplications
    words = space.support_words(1 << 20)
    assert words.dtype == np.uint64 and words.flags.c_contiguous
    assert hashlib.sha256(words.tobytes()).hexdigest() == digest


# sha256 of whole-support bytes, recorded from the builder that made the
# support as one array before supports came in blocks
BLOCK_SPACES = {
    # 2^20 seeds in one span: each block is the low span XOR a high offset
    "kwise(20,4)": (
        lambda: build_kwise(20, 4),
        "be52eb33f91cb5763e39a50f604b4e71b6ae9f91f4a8733211cf38e2430f2095",
    ),
    "kwise(70,3)": (
        lambda: build_kwise(70, 3),
        "7d4a32273839d6f2998f72984e738153e9fac5fe1e01e1031689716e41df14e5",
    ),
    # 2^8 x-blocks of 2^8 seeds in one block
    "almost(12,4,1/8)": (
        lambda: build_almost_kwise(12, 4, Fraction(1, 8)),
        "58f3155bbd2a7dada4cefc14cbb046874898ecb3ae0af4ceccacea63cabb2a3d",
    ),
    "almost(32,3,1/16)": (
        lambda: build_almost_kwise(32, 3, Fraction(1, 16)),
        "4b5298f64ee2f52cbff207cba1d12842d0bb00d093a7be2ae34a00953b590477",
    ),
    "marginal(almost(18,4,1/8),L=2)": (
        lambda: with_marginal(almost_builder, 9, 2, Fraction(1, 8), 2),
        "a37c7150f6ac47c96580e3cac3f268ac7222c0ce37573d8518a01d29203e5a72",
    ),
    "complemented(almost(18,4,1/8),L=2)": (
        lambda: with_marginal(almost_builder, 9, 2, Fraction(1, 8), 2, complemented=True),
        "daaf7044ab5a98549084f0c9521ecc96badd4d868d5db012a8e1df78982e00b8",
    ),
    "heterogeneous-empty-group": (
        lambda: grouped_space("heterogeneous-empty-group"),
        GROUPED_SUPPORT_SHA256["heterogeneous-empty-group"],
    ),
}


@pytest.mark.parametrize("name", sorted(BLOCK_SPACES))
def test_support_blocks_join_to_the_pinned_support(name):
    build, digest = BLOCK_SPACES[name]
    space = build()
    blocks = list(space.support_blocks(1 << 22))
    assert all(0 < len(b) <= samplespace._BLOCK_ROWS for b in blocks)
    words = np.concatenate(blocks)
    assert words.shape == (space.support_size, -(-space.params.n // 64))
    assert hashlib.sha256(words.tobytes()).hexdigest() == digest
    assert hashlib.sha256(space.support_words(1 << 22).tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "space",
    [
        build_kwise(5, 3),
        build_almost_kwise(6, 2, Fraction(1, 4)),
        build_almost_kwise(70, 2, QUARTER),
        with_marginal(almost_builder, 3, 1, HALF, 2, complemented=True),
    ],
    ids=["kwise(5,3)", "almost(6,2,1/4)", "almost(70,2,1/4)", "complemented"],
)
def test_small_blocks_split_every_span(space, monkeypatch):
    # at 2^3 rows a block is smaller than every small-bias x-block too
    whole = space.support_words()
    monkeypatch.setattr(samplespace, "_BLOCK_ROWS", 1 << 3)
    blocks = list(space.support_blocks())
    assert {len(b) for b in blocks} == {8}
    assert np.array_equal(np.concatenate(blocks), whole)


def test_support_blocks_check_the_budget_before_any_block(monkeypatch):
    space = build_kwise(20, 4)
    monkeypatch.setattr(space, "_blocks", lambda: pytest.fail("a block was built"))
    with pytest.raises(SupportTooLargeError):
        space.support_blocks(budget=1 << 10)
    with pytest.raises(SupportTooLargeError):
        next(samplespace.dump_blocks(space, budget=1 << 10))


def test_mode_blocks_walk_the_support_or_one_block_of_draws():
    space = build_almost_kwise(12, 4, EIGHTH)
    enumerated = list(mode_blocks(space, "enumerate", None, None, 0))
    assert np.array_equal(np.concatenate(enumerated), space.support_words())
    (drawn,) = mode_blocks(space, "sample", None, 50, 7)
    assert np.array_equal(drawn, space.sample_words(50, 7))


@pytest.mark.parametrize(
    "mode,budget,count,error,message",
    [
        ("enumerate", 1 << 10, None, SupportTooLargeError, "enumeration budget"),
        ("sample", None, None, ValueError, "sample mode needs trials >= 1"),
        ("sample", None, 0, ValueError, "sample mode needs trials >= 1"),
        ("sample", None, 2.5, ValueError, "trials must be an int >= 1, not 2.5"),
        ("sample", None, "3", ValueError, "trials must be an int >= 1, not '3'"),
        ("sample", None, True, ValueError, "trials must be an int >= 1, not True"),
        ("sample", None, -1, ValueError, "trials must be an int >= 1, not -1"),
        ("shuffle", None, 5, ValueError, "unknown mode 'shuffle'"),
    ],
)
def test_mode_blocks_check_at_the_call_before_any_block(
    monkeypatch, mode, budget, count, error, message
):
    space = build_kwise(20, 4)
    monkeypatch.setattr(space, "_blocks", lambda: pytest.fail("a block was built"))
    monkeypatch.setattr(space, "_seed_words", lambda seeds: pytest.fail("a row was drawn"))
    with pytest.raises(error, match=message):
        mode_blocks(space, mode, budget, count, 0)


@pytest.mark.parametrize("builder,delta", [(exact_builder, 0), (almost_builder, EIGHTH)])
@pytest.mark.parametrize("complemented", [False, True])
def test_with_marginal_is_group_heterogeneous_of_equal_groups(builder, delta, complemented):
    n, k, L = 5, 2, 2
    got = with_marginal(builder, n, k, delta, L, complemented=complemented)
    via = group_heterogeneous(builder(n * L, k * L, delta), [L] * n, k, Fraction(delta), complemented)
    # the layout with_marginal documents: group i is positions i*L .. i*L + L - 1
    params = SpaceParams(n=n, k=k, delta=Fraction(delta), p_log_inv=L, complemented=complemented)
    groups = tuple(tuple(range(i * L, (i + 1) * L)) for i in range(n))
    by_hand = GroupedSpace(builder(n * L, k * L, delta), groups, params)
    for other in (via, by_hand):
        assert got.descriptor_json() == other.descriptor_json()
        assert got.groups == other.groups == groups
        assert got.params == other.params == params
        assert got.support_words().tobytes() == other.support_words().tobytes()


def test_only_a_one_block_support_is_kept():
    small = build_kwise(12, 4)  # 2^16 seeds: one block
    first = next(small.support_blocks())
    assert next(small.support_blocks()) is first
    big = build_kwise(20, 4)
    assert sum(len(b) for b in big.support_blocks()) == 1 << 20
    assert big._support is None


def test_dump_support_pinned():
    # captured from the per-row int walk the bitstrings were built with
    text = dump_support(build_kwise(5, 3))
    assert text.count("\n") == 2 ** 9 and text.endswith("\n")
    digest = "c3f1e1c8a8dc61317ed2975ee89635be8e50493a0c0ed5cdad269ff3f7a4aa88"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- seeded sample rows against the scalar reference ----------------------------

SAMPLED_SPACES = {
    # 9 coefficients over GF(2^8): 72 seed bits, past any machine integer
    "kwise(200,9)": lambda: build_kwise(200, 9),
    # 2^40 seeds, far over the enumeration budget
    "almost over budget": lambda: build_almost_kwise(40, 4, Fraction(1, 1 << 12)),
    "grouped almost comp": lambda: with_marginal(
        almost_builder, 9, 2, Fraction(1, 8), 2, complemented=True
    ),
    "hetero empty group": lambda: group_heterogeneous(
        build_kwise(70, 8), [2, 0, 3, 1] * 10 + [4, 6], 2, Fraction(0)
    ),
}


@pytest.mark.parametrize("name", sorted(SAMPLED_SPACES))
def test_sample_words_match_scalar_vectors(name):
    space = SAMPLED_SPACES[name]()
    words = space.sample_words(97, seed=11)
    assert words.shape == (97, (space.params.n + 63) // 64)
    rng = random.Random(11)
    draws = [rng.randrange(space.support_size) for _ in range(97)]
    assert word_ints(words) == [vector(space, seed) for seed in draws]
    assert space._support is None  # no support was built to sample


def test_sampled_spaces_are_past_enumeration():
    assert SAMPLED_SPACES["kwise(200,9)"]().seed_bits == 72
    big = SAMPLED_SPACES["almost over budget"]()
    assert big.support_size > samplespace.DEFAULT_ENUM_BUDGET


@pytest.mark.parametrize("a", [1, 2, 3, 5, 8, 9, 17])
def test_vectorized_field_arithmetic_matches_scalar(a):
    # 8 and 9 have a non-primitive modulus; 17 is past the tables (chain path)
    f = field(a)
    xs = np.arange(1 << a) if a <= 9 else np.array([0, 1, 2, 3, 12345, (1 << a) - 1])
    table = f.power_table(xs, 7)
    planes = f.low_bit_planes(table)
    for y in range(0, 1 << min(a, 9), 3):
        assert f.mul_array(xs, y).tolist() == [f.mul(int(x), y) for x in xs]
    for j, x in enumerate(xs.tolist()):
        powers = [1]
        for _ in range(6):
            powers.append(f.mul(powers[-1], x))
        assert table[:, j].tolist() == powers
        for b in range(a):
            assert planes[b, :, j].tolist() == [f.mul(p, 1 << b) & 1 for p in powers]


@pytest.mark.parametrize("a", range(1, gf2.TABLE_MAX_DEGREE + 1))
def test_power_table_by_log_tables_matches_mul_array_chain(a):
    # every x, 0 included; degrees 8, 9, 12, 14 and 16 have a non-primitive modulus
    f = field(a)
    xs = np.arange(1 << a)
    for count in (1, 2, 33):
        assert np.array_equal(f.power_table(xs, count), f._power_chain(xs.astype(np.uint64), count))


@pytest.mark.parametrize("a", range(1, gf2.TABLE_MAX_DEGREE + 1))
def test_exp_table_is_a_permutation_of_the_nonzero_elements(a):
    f = field(a)
    exp, log = f.log_tables()
    assert exp.dtype == np.min_scalar_type((1 << a) - 1)
    assert np.array_equal(np.sort(exp), np.arange(1, 1 << a))
    assert np.array_equal(log[exp], np.arange((1 << a) - 1))
    # exp lists the powers of one element, so covering every nonzero element
    # proves that element primitive
    assert exp[0] == 1 and exp[1 % len(exp)] == f.primitive_element()


@pytest.mark.parametrize("a", [3, 20])  # table path and mul_array chain
def test_power_table_rejects_elements_outside_the_field(a):
    f = field(a)
    for bad in ([1 << a], [0, -1], [1, (1 << a) + 5]):
        with pytest.raises(ValueError, match="field elements"):
            f.power_table(np.array(bad), 3)
    with pytest.raises(ValueError, match="count"):
        f.power_table(np.array([1]), -1)
    empty = f.power_table(np.array([0, 1, 2]), 0)
    assert empty.shape == (0, 3) and empty.dtype == np.uint64


def test_warm_verifier_makes_no_mul_array_calls(monkeypatch):
    space = build_almost_kwise(32, 2, Fraction(1, 8))
    first = verify_independence(space)  # warms the field's tables
    calls = []
    mul_array = gf2.GF2Field.mul_array

    def counted(self, x, y):
        calls.append(1)
        return mul_array(self, x, y)

    monkeypatch.setattr(gf2.GF2Field, "mul_array", counted)
    again = verify_independence(build_almost_kwise(32, 2, Fraction(1, 8)))
    assert calls == []
    assert (again.max_tv, again.worst_subset, again.subsets_tested) == (
        first.max_tv, first.worst_subset, first.subsets_tested,
    )


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"subset_cap": 0}, "subset_cap must be an int >= 1, not 0"),
        ({"subset_cap": 2.5}, "subset_cap must be an int >= 1, not 2.5"),
        ({"k_check": 2.5}, "k_check must be an int >= 1, not 2.5"),
    ],
)
def test_verify_independence_reads_counts_as_ints(kwargs, message):
    with pytest.raises(ValueError, match=message):
        verify_independence(build_kwise(6, 2), **kwargs)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"delta": Fraction(1)}, "delta must be in"),
        ({"delta": Fraction(0), "p_log_inv": 0}, "p_log_inv must be >= 1"),
    ],
)
def test_space_params_reject_out_of_range(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SpaceParams(n=3, k=2, **kwargs)


def test_all_set_rejects_a_position_past_the_word_matrix():
    words = samplespace._pack_words(np.ones((2, 10), dtype=np.uint8))
    assert not samplespace._all_set(words, [63]).any()  # a clear tail bit
    with pytest.raises(ValueError, match="coordinate outside the word matrix"):
        samplespace._all_set(words, [64])


def test_field_checks_its_degree():
    with pytest.raises(ValueError, match="degree must be >= 1"):
        gf2.irreducible_poly(0)
    with pytest.raises(ValueError, match=f"log tables need degree <= {gf2.TABLE_MAX_DEGREE}"):
        field(gf2.TABLE_MAX_DEGREE + 1).log_tables()
    with pytest.raises(ValueError, match="mul_array needs degree <= 31"):
        field(32).mul_array(np.array([1]), np.array([1]))

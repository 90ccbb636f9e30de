"""Counting: enumeration vs generating-function coefficients, derived
quantities, and the anchored-vs-raw diagnostic for the C family."""

import tracemalloc
from functools import lru_cache, partial
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qpart import counting, series
from qpart.counting import (
    CountTable,
    c_family_ambiguity,
    count_ak_doubled,
    count_by_enumeration,
    count_by_series,
    count_row,
    count_table,
    derive_dk_relation,
    enumerate_class,
    gf,
    gf_parity_difference,
    pentagonal_indicator,
)
from qpart.partitions import AnchoredPartition, ClassSpec, Partition, PartitionError, is_member
from qpart.series import (
    MINUS,
    PLUS,
    CoefficientOverflowError,
    TruncatedSeries,
    pochhammer_infinite_starts,
    series_sum,
)

P = Partition.from_parts


ALL_CLASS_IDS = [
    "A", "B", "C", "Dk", "Dk_e", "Dk_o", "Bk_e", "Bk_o", "Ck_e", "Ck_o",
    "E", "F", "P1", "P2", "Pprime", "Pdprime", "Pe_d", "Po_d",
    "Pe_bounded", "Po_bounded", "SptKd",
]


def _specs(kmax):
    from qpart.partitions import CLASS_INFO
    for cid in ALL_CLASS_IDS:
        if CLASS_INFO[cid][0]:
            for k in range(1, kmax + 1):
                yield ClassSpec(cid, k)
        else:
            yield ClassSpec(cid)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_repeated_smallest_k4_weight8():
    got = {p.parts for p in enumerate_class(ClassSpec("Dk", 4), 8)}
    expected = {
        (8, 0, 0, 0, 0),
        (6, 2, 0, 0, 0, 0),
        (7, 1, 0, 0, 0, 0),
        (5, 3, 0, 0, 0, 0),
        (5, 2, 1, 0, 0, 0, 0),
        (4, 3, 1, 0, 0, 0, 0),
        (4, 1, 1, 1, 1),
        (2, 2, 2, 2),
    }
    assert got == expected


def test_enumerate_windowed_small_weights():
    # the two forced smallest cases of the k=3 window classes
    bko = {p.parts for p in enumerate_class(ClassSpec("Bk_o", 3), 7)}
    assert (4, 1, 1, 1) in bko and bko == {(4, 1, 1, 1), (6, 1)}
    cko = {(ap.anchor, ap.partition.parts) for ap in enumerate_class(ClassSpec("Ck_o", 3), 8)}
    assert (2, (4, 2, 2)) in cko and cko == {(2, (4, 2, 2)), (2, (6, 2))}


def test_enumerate_parity_table_weight8():
    be = {p.parts for p in enumerate_class(ClassSpec("Bk_e", 2), 8)}
    assert be == {(7, 1), (5, 3), (5, 1, 1, 1), (3, 3, 1, 1),
                  (3, 1, 1, 1, 1, 1), (1,) * 8}
    ce = {(ap.anchor, ap.partition.parts) for ap in enumerate_class(ClassSpec("Ck_e", 2), 9)}
    assert ce == {(8, (8, 1)), (6, (6, 3)), (6, (6, 2, 1)), (4, (4, 4, 1)),
                  (4, (4, 3, 2)), (2, (2, 2, 2, 2, 1))}
    assert {p.parts for p in enumerate_class(ClassSpec("Bk_o", 2), 8)} == {(4, 1, 1, 1, 1)}
    only = enumerate_class(ClassSpec("Ck_o", 2), 9)
    assert only == [AnchoredPartition(2, P([4, 2, 2, 1]))]


def test_enumerate_odd_class_empty_at_zero():
    assert enumerate_class(ClassSpec("B"), 0) == []
    assert enumerate_class(ClassSpec("A"), 0) == [Partition(())]
    assert enumerate_class(ClassSpec("Dk", 3), 0) == [Partition((0, 0, 0))]


def test_enumerate_lists_are_duplicate_free_members():
    for spec in _specs(3):
        for n in (0, 5, 9):
            members = enumerate_class(spec, n)
            assert len(members) == len(set(members))
            for m in members:
                assert is_member(spec, m)
                weight = m.weight
                assert weight == n


def test_counts_match_worked_values():
    assert count_by_enumeration(ClassSpec("Bk_e", 2), 8) == 6
    assert count_by_enumeration(ClassSpec("Ck_e", 2), 9) == 6
    assert count_by_enumeration(ClassSpec("Bk_o", 2), 8) == 1
    assert count_by_enumeration(ClassSpec("Ck_o", 2), 9) == 1
    assert count_by_enumeration(ClassSpec("Dk", 2), 7) == 8
    assert count_by_enumeration(ClassSpec("Dk_e", 2), 7) == 4
    assert count_by_enumeration(ClassSpec("Dk_o", 2), 7) == 4
    assert count_by_enumeration(ClassSpec("Dk", 4), 8) == 8


def test_parity_example_split_weight7():
    even = {p.parts for p in enumerate_class(ClassSpec("Dk_e", 2), 7)}
    odd = {p.parts for p in enumerate_class(ClassSpec("Dk_o", 2), 7)}
    assert even == {(6, 1, 0, 0), (5, 2, 0, 0), (4, 3, 0, 0), (3, 2, 1, 1)}
    assert odd == {(7, 0, 0), (4, 2, 1, 0, 0), (5, 1, 1), (3, 2, 2)}


def _clear_enumeration_caches():
    count_by_enumeration.cache_clear()
    counting._rows.clear()


def test_count_walk_matches_materialised_members():
    # the row walks against the generators, weight 0 included: the whole
    # row, each single weight walked on its own, and a window that starts
    # above 0
    for spec in _specs(5):
        want = tuple(len(enumerate_class(spec, n)) for n in range(31))
        _clear_enumeration_caches()
        assert tuple(count_by_enumeration(spec, n) for n in range(31)) == want, spec
        assert count_row(spec, 30, 11) == want[11:], spec
        _clear_enumeration_caches()
        assert count_row(spec, 30) == want, spec


@lru_cache(maxsize=None)
def _generator_counts(spec, hi):
    """The numbers of members of weights 0..hi, counted off the generators."""
    return tuple(sum(1 for _ in counting._members(spec, n)) for n in range(hi + 1))


def test_count_walk_matches_generators_in_every_window():
    # every window up to weight 16, each walked on its own from weight 0 and
    # sliced, covers the slot past hi that takes the ends of runs; then the
    # whole row at weight 40
    for spec in _specs(5):
        want = _generator_counts(spec, 40)
        for hi in range(17):
            for lo in range(hi + 1):
                counting._rows.clear()
                assert count_row(spec, hi, lo) == want[lo:hi + 1], (spec, lo, hi)
        counting._rows.clear()
        assert count_row(spec, 40) == want, spec
    _clear_enumeration_caches()


# the classes whose heads end in the C core and in the odd fill; every other
# class ends in the distinct fill
_CORE_FILL_CLASSES = frozenset({"C", "Ck_e", "Ck_o"})
_ODD_FILL_CLASSES = frozenset({"B", "E", "F", "Bk_e", "Bk_o"})


def _walk_specs(family):
    """The specs with k = 1..5 whose heads end in the given fill."""
    def fill(spec):
        if spec.class_id in _CORE_FILL_CLASSES:
            return "core"
        return "odd" if spec.class_id in _ODD_FILL_CLASSES else "distinct"
    return [spec for spec in _specs(5) if fill(spec) == family]


def _assert_walks_match_the_knapsack_rows(specs):
    # the specs at weight 100 (the walk limit in CI) against the knapsack
    # rows of oracles.py, which equalled the pre-change walks at weights 90,
    # 120 and 140 before those copies were retired: each fill the heads end
    # in, from an empty row cache; every row with rows kept, in both orders;
    # and each spec walked from an empty row cache to 70, whole, and to 60
    # and 65, where runs end at a lower weight than in the walk to 100
    assert oracles.walk_mismatches(specs, 100, [(0, 70), (60, 60), (65, 65)]) == []
    _clear_enumeration_caches()


def test_distinct_walks_match_the_pre_change_walk():
    specs = _walk_specs("distinct")
    assert len(specs) == 45
    _assert_walks_match_the_knapsack_rows(specs)


def test_core_walks_match_the_pre_change_walk():
    # C, Ck_e(k) and Ck_o(k), k = 1..5, with every core (v, l) their heads
    # end in
    specs = _walk_specs("core")
    assert len(specs) == 11
    _assert_walks_match_the_knapsack_rows(specs)


def test_odd_walks_match_the_pre_change_walk():
    # B, E, F, Bk_e(k) and Bk_o(k), k = 1..5, with every odd fill their
    # heads end in
    specs = _walk_specs("odd")
    assert len(specs) == 13
    _assert_walks_match_the_knapsack_rows(specs)


def test_walk_families_cover_every_spec():
    # the three walk comparisons above read all 69 specs with k = 1..5
    assert sum(len(_walk_specs(f)) for f in ("distinct", "core", "odd")) == 69


def _partitions(n, top):
    """The partitions of n into parts <= top, a plain recursion."""
    if n == 0:
        yield ()
    for p in range(min(n, top), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def test_knapsack_rows_count_the_members_is_member_accepts():
    # the reference rests on the class definitions: for weights up to 20,
    # every partition with up to 5 zeros appended (a Dk member with smallest
    # part 0 carries k zeros) and, for anchored classes, every partition
    # with each of its even parts as anchor, counted if is_member accepts it
    plain = [[Partition(p + (0,) * z) for p in _partitions(n, n) for z in range(6)]
             for n in range(21)]
    anchored = [[AnchoredPartition(a, Partition(p)) for p in _partitions(n, n)
                 for a in sorted(set(p)) if a % 2 == 0] for n in range(21)]
    for spec in _specs(5):
        values = anchored if spec.anchored else plain
        want = tuple(sum(map(partial(is_member, spec), values[n])) for n in range(21))
        assert oracles.class_row(spec, 20) == want, spec


def test_pair_walk_visits_each_prefix_with_room_for_a_third_part(monkeypatch):
    # one visit for the empty prefix, and one for each set P of smallest
    # parts that the next two parts max(P)+1 and max(P)+2 still fit above
    visits = []
    original = counting._walk_pairs

    def recording(*args):
        visits.append(args)
        return original(*args)

    monkeypatch.setattr(counting, "_walk_pairs", recording)
    _clear_enumeration_caches()
    count_row(ClassSpec("A"), 62)
    prefixes = sum(1 for t in range(1, 63) for p in counting._distinct(t, 62)
                   if t + 2 * p[0] + 3 <= 62)
    assert len(visits) == 1 + prefixes == 2514
    _clear_enumeration_caches()


def test_window_subsets_keep_their_order():
    # the window heads that visit only the subsets that fit, against the
    # combinations of the whole window filtered by sum (oracles.py), which
    # fixes the order of the Bk and Ck members
    for l in range(1, 8):
        for k in range(1, 12):
            for budget in range(80):
                for want_even in (True, False):
                    args = l, k, budget, want_even
                    want = [*oracles._window_subsets(*args)]
                    assert [*counting._window_subsets(*args)] == want, args


def test_window_heads_visit_only_the_subsets_that_fit(monkeypatch):
    # past k = 28 no more window values fit under weight 60, so Bk_e's
    # heads visit as many candidate subsets at k = 60 as at k = 40; an
    # unpruned window would visit 2**29 of them, so the count stops early
    visits = 0
    original = counting.combinations

    def recording(values, r):
        nonlocal visits
        for combo in original(values, r):
            visits += 1
            assert visits <= 10_000, "the window heads visit subsets that cannot fit"
            yield combo

    monkeypatch.setattr(counting, "combinations", recording)
    counts = {}
    for k in (40, 60):
        spec = ClassSpec("Bk_e", k)
        visits = 0
        _clear_enumeration_caches()
        assert count_row(spec, 60, 60) == (count_by_series(spec, 60),)
        counts[k] = visits
    assert counts == {40: 6151, 60: 6151}
    _clear_enumeration_caches()


def test_kept_row_serves_shorter_requests(monkeypatch):
    # every walk starts at weight 0 and is kept, a single weight's too, so
    # the whole row to 22 after the window [22, 22] walks nothing
    walks = []
    original = counting._walk

    def recording(hi, shape, args):
        walks.append((hi, shape, args))
        return original(hi, shape, args)

    monkeypatch.setattr(counting, "_walk", recording)
    _clear_enumeration_caches()
    row = count_row(ClassSpec("Dk", 2), 20)
    assert count_row(ClassSpec("Dk", 2), 12, 5) == row[5:13]
    assert count_by_enumeration(ClassSpec("Dk", 2), 20) == row[20]
    assert count_row(ClassSpec("Dk", 2), 22, 22) == (count_row(ClassSpec("Dk", 2), 22)[22],)
    dk2 = counting._smallest_repeated, (2, 0)
    assert walks == [(20, *dk2), (22, *dk2)]
    _clear_enumeration_caches()


def test_kept_rows_match_cold_walks_in_either_order():
    # every spec with k <= 5 at weight 62, the most report --all reads, with
    # the structure and fill rows kept from spec to spec, forward and in
    # reverse: each row equals its walk from an empty cache, and that walk
    # the generators (to weight 40 here, to 62 in CI)
    specs = list(_specs(5))
    cold = {}
    for spec in specs:
        counting._rows.clear()
        cold[spec] = count_row(spec, 62)
        assert cold[spec][:41] == _generator_counts(spec, 40), spec
    for order in (specs, specs[::-1]):
        counting._rows.clear()
        assert {spec: count_row(spec, 62) for spec in order} == cold
    _clear_enumeration_caches()


@pytest.mark.parametrize("first, then, fill", [
    (ClassSpec("C"), ClassSpec("Ck_o", 5), "core"),  # the C core under each anchor 2l
    (ClassSpec("C"), ClassSpec("Ck_e", 3), "core"),
    (ClassSpec("B"), ClassSpec("Bk_e", 5), "odd"),  # odd parts up to an odd bound
    (ClassSpec("B"), ClassSpec("F"), "odd"),
    (ClassSpec("Dk", 2), ClassSpec("SptKd", 3), "distinct"),  # distinct parts above s
])
def test_classes_share_the_fills_their_heads_end_in(monkeypatch, first, then, fill):
    # the second class's heads end in fills the first one walked as far as
    # they need, so its row walks no fill
    walks = []
    original = counting._walk_fill

    def recording(hi, fill, fill_args):
        walks.append(fill)
        return original(hi, fill, fill_args)

    monkeypatch.setattr(counting, "_walk_fill", recording)
    _clear_enumeration_caches()
    assert count_row(first, 40) == _generator_counts(first, 40)
    # a core's free parts are heads over the distinct parts up to l
    assert set(walks) == ({fill, "distinct"} if fill == "core" else {fill})
    walks.clear()
    assert count_row(then, 40) == _generator_counts(then, 40)
    assert walks == []
    _clear_enumeration_caches()


def test_a_fill_is_walked_as_far_as_its_lightest_head_needs():
    # the heavier head comes first, so the fill's reach is the lighter
    # head's, whichever head a shape yields first: A's fill under the heads
    # (3,) and ()
    def shape(n):
        yield (3,), (), "distinct", (n, 1)
        yield (), (), "distinct", (n, 1)

    _clear_enumeration_caches()
    rows = counting._walk(20, shape, ())
    for row, spec in zip(rows, (ClassSpec("Pe_d"), ClassSpec("Po_d"))):
        half = _generator_counts(spec, 20)
        assert row == [half[n] + (half[n - 3] if n >= 3 else 0) for n in range(21)], spec
    _clear_enumeration_caches()


def test_row_cache_is_bounded():
    # structure rows and fill rows share the one bound: each Pe_bounded(k)
    # keeps its structure and its fill, the distinct parts below k
    _clear_enumeration_caches()
    for k in range(1, counting.ROW_CACHE_SIZE + 6):
        count_row(ClassSpec("Pe_bounded", k), 3)
    assert len(counting._rows) == counting.ROW_CACHE_SIZE
    assert (counting._distinct_parts, (1,)) not in counting._rows
    assert ("distinct", (0, 1)) not in counting._rows
    assert {type(shape) for shape, _ in counting._rows} == {str, type(counting._distinct_parts)}
    _clear_enumeration_caches()


def test_no_row_walks_past_the_walk_weight_limit(monkeypatch):
    # a weight past WALK_WEIGHT_MAX is refused before any walk, on every
    # path that counts through count_row; the limit itself still walks, on
    # a row that is cheap there: an even number of distinct parts below 18,
    # which reach weight 153 in at most 2**17 sets
    limit = counting.WALK_WEIGHT_MAX
    assert limit >= 90  # the CI row walks reach weight 90
    walks = []
    monkeypatch.setattr(counting, "_walk", lambda *args: walks.append(args))
    message = f"weight {limit + 1} is past {limit}, the largest weight a row walk takes"
    for call in (lambda: count_row(ClassSpec("C"), limit + 1),
                 lambda: count_row(ClassSpec("Dk", 2), limit + 1, limit + 1),
                 lambda: count_by_enumeration(ClassSpec("A"), limit + 1),
                 lambda: count_table(ClassSpec("B"), limit + 1)):
        with pytest.raises(PartitionError, match=message):
            call()
    assert walks == []
    monkeypatch.undo()
    _clear_enumeration_caches()
    bounded = ClassSpec("Pe_bounded", 18)
    at_limit = count_row(bounded, limit, limit)
    assert at_limit == (count_by_series(bounded, limit),) and at_limit[0] > 0
    _clear_enumeration_caches()


def test_no_member_is_built_past_the_member_weight_limit(monkeypatch):
    # a weight past MEMBER_WEIGHT_MAX is refused before any fill generator
    # runs, on both library paths that build members; the limit itself is
    # still accepted
    limit = counting.MEMBER_WEIGHT_MAX
    assert limit >= 62  # CI reads the generators to weight 62
    runs = []
    for fill, (generator, walk) in list(counting.FILLS.items()):
        def recording(*args, generator=generator):
            runs.append(args)
            return generator(*args)
        monkeypatch.setitem(counting.FILLS, fill, (recording, walk))
    message = f"weight {limit + 1} is past {limit}, the largest weight whose members are built"
    for call in (lambda: enumerate_class(ClassSpec("Dk", 1), limit + 1),
                 lambda: c_family_ambiguity(2, limit + 1)):
        with pytest.raises(PartitionError, match=message):
            call()
    assert runs == []
    assert enumerate_class(ClassSpec("Pe_bounded", 3), limit) == []
    assert len(runs) == 1
    _clear_enumeration_caches()


def test_count_walk_never_reads_the_series_path(monkeypatch):
    grid = [(spec, n) for spec in _specs(3) for n in (0, 1, 7, 18)]
    expected = {cell: len(enumerate_class(*cell)) for cell in grid}
    rows = {spec: tuple(len(enumerate_class(spec, n)) for n in range(19)) for spec in _specs(3)}

    def forbidden(*args, **kwargs):
        raise AssertionError("enumeration oracle touched the series path")

    for name in ("gf", "gf_parity_difference", "count_by_series", "pochhammer_finite",
                 "_pochhammer", "_mul_factor", "_div_factor", "_halve"):
        monkeypatch.setattr(counting, name, forbidden)
    for name in ("pochhammer_finite", "pochhammer_infinite", "pochhammer_infinite_starts",
                 "_pochhammer", "series_sum", "_mul_factor", "_div_factor", "_halve",
                 "_kronecker_product"):
        monkeypatch.setattr(series, name, forbidden)
    for name in ("__mul__", "reciprocal"):
        monkeypatch.setattr(series.TruncatedSeries, name, forbidden)
    # the series path is really cut off: no kept build stands in front of it
    for cache in (counting._signed, counting._window_sums, counting._euler_reciprocals):
        cache.cache_clear()
    with pytest.raises(AssertionError):
        gf.__wrapped__(ClassSpec("A"), 4)
    _clear_enumeration_caches()
    assert {cell: count_by_enumeration(*cell) for cell in grid} == expected
    _clear_enumeration_caches()
    assert {spec: count_row(spec, 18) for spec in rows} == rows
    _clear_enumeration_caches()
    assert {spec: tuple(count_table(spec, 18).values.values()) for spec in rows} == rows


def test_count_rejects_negative_weight():
    for spec in _specs(2):
        with pytest.raises(PartitionError):
            count_by_enumeration(spec, -1)
        with pytest.raises(PartitionError):
            enumerate_class(spec, -1)
        for hi, lo in ((-1, 0), (3, -1)):
            with pytest.raises(PartitionError):
                count_row(spec, hi, lo)
        for method in ("enumeration", "series"):
            with pytest.raises(PartitionError):
                count_table(spec, -1, method)


@pytest.mark.parametrize("value", [2.5, 2.0, "3", True])
def test_weights_and_orders_must_be_ints(value):
    # 2.0 and True equal cached int keys, so each entry point is warmed at
    # the int first: a cache hit must not let them through
    a = ClassSpec("A")
    entries = {
        "weight": [lambda v: enumerate_class(a, v), lambda v: count_row(a, v),
                   lambda v: count_row(a, 5, v), lambda v: count_by_enumeration(a, v),
                   lambda v: count_by_series(a, v), lambda v: count_table(a, v),
                   lambda v: count_table(a, v, "series"), lambda v: count_ak_doubled(2, v)],
        "order": [lambda v: gf(a, v), lambda v: gf_parity_difference("Dk", 2, v)],
    }
    for what, calls in entries.items():
        for call in calls:
            call(2)
            with pytest.raises(PartitionError) as raised:
                call(value)
            assert str(raised.value) == f"{what} must be a non-negative int, not {value!r}"


def test_definition_and_engine_tables_cover_the_same_classes():
    from qpart import partitions
    assert set(partitions._CLASSES) == set(counting._ENGINES) == set(ALL_CLASS_IDS)


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------


def test_gf_repeated_smallest_values():
    d2 = gf(ClassSpec("Dk", 2), 7)
    assert d2.coefficient(7) == 8
    for k in (1, 2, 3, 5, 8):
        assert gf(ClassSpec("Dk", k), 6).coefficient(0) == 1


def test_series_counts_do_not_depend_on_the_build_order():
    # every builder is lower-triangular, so coefficient n is the same at
    # every order >= n: a series count builds to order n and no further
    for spec in _specs(5):
        for n in (0, 1, 6, 17, 29, 40):
            assert count_by_series(spec, n) == gf(spec, 2 * n + 7).coeffs[n] \
                == gf(spec, 120).coeffs[n], (spec, n)


def test_gf_matches_enumeration_for_distinct_class():
    assert gf(ClassSpec("A"), 8).coefficient(8) == count_by_enumeration(ClassSpec("A"), 8)


def test_oracle_equivalence_all_classes():
    # dual-path agreement on every class; weight 0 covered where the
    # enumeration convention includes a weight-0 member (see B below)
    nmax = 40
    for spec in _specs(5):
        series = gf(spec, nmax)
        for n in range(1, nmax + 1):
            assert series.coefficient(n) == count_by_enumeration(spec, n), (spec, n)


def test_weight_zero_conventions():
    # the odd-parts product has constant term 1 but the class counts
    # partitions with at least one part, so n=0 is enumeration-only
    expectations = {
        ("A", None): 1, ("B", None): 0, ("C", None): 0,
        ("Dk", 3): 1, ("Dk_e", 3): 1, ("Dk_o", 3): 0,
        ("Pe_d", None): 1, ("Po_d", None): 0,
        ("Pprime", 1): 1, ("Pprime", 2): 0,
        ("Pe_bounded", 1): 1, ("SptKd", 2): 0,
    }
    for (cid, k), want in expectations.items():
        assert count_by_enumeration(ClassSpec(cid, k), 0) == want
    for cid, k in expectations:
        if cid == "B":
            continue
        spec = ClassSpec(cid, k)
        assert gf(spec, 4).coefficient(0) == count_by_enumeration(spec, 0)


def test_anchored_degenerates_to_plain_at_k1():
    for n in range(0, 41):
        assert count_by_enumeration(ClassSpec("Ck_e", 1), n) \
            == count_by_enumeration(ClassSpec("C"), n)
        assert count_by_enumeration(ClassSpec("Ck_o", 1), n) == 0
        assert count_by_enumeration(ClassSpec("Bk_e", 1), n) \
            == count_by_enumeration(ClassSpec("B"), n)
        assert count_by_enumeration(ClassSpec("Bk_o", 1), n) == 0


def test_parity_difference_rejects_unsplit_family():
    # Pe/Po halves come from a signed builder too, but only Dk, Bk and Ck
    # have a public difference series
    for family in ("Pe", "Pe_d", "Dk_e", "A"):
        with pytest.raises(PartitionError):
            gf_parity_difference(family, 2, 10)


@pytest.mark.parametrize("family, k", [("Bk", 0), ("Ck", -1), ("Dk", 0), ("Dk", True),
                                       ("Bk", 2.0), ("Ck", "2")])
def test_parity_difference_needs_a_positive_int_k(family, k):
    with pytest.raises(PartitionError, match=f"^family {family} needs a positive k$"):
        gf_parity_difference(family, k, 10)


@pytest.mark.parametrize("family", ["Dk", "Bk", "Ck"])
def test_parity_difference_rejects_negative_order_as_gf_does(family):
    with pytest.raises(PartitionError, match="^order must be non-negative$"):
        gf_parity_difference(family, 2, -1)
    with pytest.raises(PartitionError, match="^order must be non-negative$"):
        gf(ClassSpec(f"{family}_e", 2), -1)


@pytest.mark.parametrize("family, core", [("Ck", "_window_series"), ("Bk", "_window_series"),
                                          ("Dk", "_tail_sum")])
def test_split_family_builds_each_signed_series_once(monkeypatch, family, core):
    # both halves, the difference and (Dk) the whole family share one
    # S(+1) and one S(-1) pass of the family's core builder
    signs = []
    original = getattr(counting, core)

    def recording(*args):
        signs.append(args[0] if core == "_tail_sum" else args[4])
        return original(*args)

    monkeypatch.setattr(counting, core, recording)
    for cache in (gf, gf_parity_difference, counting._signed):
        cache.cache_clear()
    k, order = 3, 57
    halves = [gf(ClassSpec(f"{family}_{p}", k), order) for p in ("e", "o")]
    diff = gf_parity_difference(family, k, order)
    if family == "Dk":
        assert gf(ClassSpec("Dk", k), order) == halves[0] + halves[1]
    assert sorted(signs) == [series.MINUS, series.PLUS]
    assert halves[0] - halves[1] == diff


def test_parity_difference_series_match_enumeration():
    for family, cid_e, cid_o, k in [("Dk", "Dk_e", "Dk_o", 3),
                                    ("Bk", "Bk_e", "Bk_o", 2),
                                    ("Ck", "Ck_e", "Ck_o", 2)]:
        diff = gf_parity_difference(family, k, 25)
        for n in range(1, 26):
            expected = (count_by_enumeration(ClassSpec(cid_e, k), n)
                        - count_by_enumeration(ClassSpec(cid_o, k), n))
            assert diff.coefficient(n) == expected, (family, k, n)


def _tail_family_sum(tails, terms):
    """Sum of q^s * tail(i) over the (s, i) in `terms` with s <= order, read
    off the whole tail family tails[m-1] = tail(m) for m = 1 .. order+1;
    tail(i) for i > order + 1 is 1 up to the order, as tail(order + 1) is."""
    order = tails[0].order
    return series_sum([tails[min(i, order + 1) - 1].shift(s) for s, i in terms if s <= order],
                      order)


def test_smallest_part_builders_match_tail_family_sums():
    # sum over the smallest part j of q^(jk) * prod_(m > j) (1 +- q^m), and
    # the 2*A_k pieces, against the tail family they were once summed from
    for order in sorted({0, 1, 2, 60, 300, 745} | set(range(10))):
        plus, minus = (pochhammer_infinite_starts(sign, order) for sign in (PLUS, MINUS))
        p1 = [(s, s + 1) for s in range(2, order + 1)]
        assert gf(ClassSpec("P1"), order) == _tail_family_sum(plus, p1), order
        for k in range(1, 9):
            if order not in {0, 1, 2, k - 1, k, k + 1, 60, 300, 745}:
                continue
            dk = [(j * k, j + 1) for j in range(order // k + 1)]
            whole, diff = _tail_family_sum(plus, dk), _tail_family_sum(minus, dk)
            assert gf(ClassSpec("Dk", k), order) == whole, (k, order)
            assert gf(ClassSpec("SptKd", k), order) == _tail_family_sum(plus, dk[1:]), (k, order)
            assert gf_parity_difference("Dk", k, order) == diff, (k, order)
            assert gf(ClassSpec("Dk_e", k), order) == (whole + diff).halve(), (k, order)
            assert gf(ClassSpec("Dk_o", k), order) == (whole - diff).halve(), (k, order)
            pdprime = _tail_family_sum(plus, [(s * k + k - 1, s + 2) for s in range(1, order + 1)])
            assert gf(ClassSpec("Pdprime", k), order) == pdprime, (k, order)
            if k == 1:
                assert gf(ClassSpec("P2"), order) == pdprime, order


# The largest order at which each smallest-part series fits below 2**63, and
# the message one order more raises: each series stops where its own
# coefficients leave the bound, and names the first that does.  A is tail(1)
# itself, and Pprime(k) is q^(k-1) * tail(2), the one unchecked product
# tail(2) shifted by k-1, whose first coefficient past the bound is at q^792:
# so Pprime(k) stops at 790 + k.
SMALLEST_PART_EDGES = [
    (ClassSpec("A"), 769, 9322334643320220726),
    (ClassSpec("Pprime", 1), 791, 9465882482837068524),
    (ClassSpec("Pprime", 2), 792, 9465882482837068524),
    (ClassSpec("Pprime", 5), 795, 9465882482837068524),
    (ClassSpec("Dk", 2), 748, 9234859427653261696),
    (ClassSpec("Dk", 8), 753, 9281046515468703324),
    (ClassSpec("Dk", 10), 755, 9498789159012851362),
    (ClassSpec("Dk", 12), 756, 9453045468566700448),
    (ClassSpec("SptKd", 2), 771, 9312860572454354816),
    (ClassSpec("P1"), 791, 9465882482837068524),
    (ClassSpec("P2"), 790, 9465882482837068524),
    (ClassSpec("Pdprime", 2), 793, 9446889356224923742),
    (ClassSpec("Dk_e", 4), 772, 9376662804616113574),
]


@pytest.mark.parametrize("spec, largest, magnitude", SMALLEST_PART_EDGES,
                         ids=[str(edge[0]) for edge in SMALLEST_PART_EDGES])
def test_smallest_part_builders_keep_their_overflow_edges(spec, largest, magnitude):
    assert gf(spec, largest).order == largest
    with pytest.raises(CoefficientOverflowError) as raised:
        gf(spec, largest + 1)
    assert str(raised.value) == (f"coefficient magnitude {magnitude} exceeds 2**63; "
                                 f"the largest order that builds for {spec} is {largest}")
    for cache in (gf, counting._signed):
        cache.cache_clear()


def test_odd_parts_by_division_match_the_inverted_product():
    # B's series against the inverted product it replaced, on every order up
    # to 120 and at its overflow edge: 769 builds, and 770 stops on the same
    # coefficient with the same message, to which gf adds the largest order
    b = ClassSpec("B")
    for order in (*range(121), 740, 769):
        assert gf(b, order) == oracles.odd_parts_by_reciprocal(order), order
    with pytest.raises(CoefficientOverflowError) as old:
        oracles.odd_parts_by_reciprocal(770)
    with pytest.raises(CoefficientOverflowError) as new:
        gf(b, 770)
    assert new.value.exponent == old.value.exponent == 770
    assert str(new.value) == f"{old.value}; the largest order that builds for B is 769"
    gf.cache_clear()


def test_dk_parity_difference_builds_past_the_whole_family_edge():
    # the even-minus-odd difference stays far below the bound at order 800
    for k in range(1, 9):
        assert gf_parity_difference("Dk", k, 800).order == 800
    for cache in (gf_parity_difference, counting._signed):
        cache.cache_clear()


def _running_sum(order, shift, update, k=1, sign=PLUS):
    """The Bk/Ck/E/F builder before the window sums, kept as the reference:
    one core sweep per (k, sign), each term multiplied by its k-1 window
    factors, on plain integers."""
    acc = [0] * (order + 1)
    core = [1] + [0] * order
    l = 1
    while (s := shift(l)) <= order:
        del core[order - s + 1:]
        update(core, l)
        term = core
        window = oracles._window_values(l, k)
        if window:
            term = core.copy()
            for v in window:
                series._mul_factor(term, v, sign)
        acc[s:] = map(add, acc[s:], term)
        l += 1
    return tuple(acc)


def test_window_rows_stop_at_the_order():
    # e_j for j < k, each padded with zeros to the order, against one factor
    # for every window value; a row the capped sweep does not build is zero
    # below the order, as e_j starts at q^(j(j+1))
    def padded(rows, k, order):
        full = [row + [0] * (order + 1 - len(row)) for row in rows]
        return full + [[0] * (order + 1)] * (k - len(rows))

    cases = [(k, 740) for k in range(1, 6)]
    cases += [(k, order) for order in (0, 1, 2, 3, 7, 20, 61)
              for k in (*range(1, 13), 30, 31, 32, 33, 79)]
    cases += [(k, 250) for k in (125, 126, 127, 130)]
    for k, order in cases:
        got = counting._window_rows(k, order)
        assert len(got) <= k and all(len(row) <= order + 1 for row in got), (k, order)
        want = oracles.window_rows_uncapped(k, order)
        assert padded(got, k, order) == padded(want, k, order), (k, order)


def test_window_builders_match_per_window_sweep():
    # sum_j sign^j * e_j * T_j against the window product taken term by term
    odd, c_core = lambda l: 2 * l - 1, lambda l: 2 * l
    for order in (0, 1, 2, 3, 7, 50, 300, 740):
        for k in range(1, 9):
            for sign in (PLUS, MINUS):
                assert counting._gf_bk(k, order, sign) == \
                    _running_sum(order, odd, counting._grow_odd_core, k, sign), (k, order, sign)
                assert counting._gf_ck(k, order, sign) == \
                    _running_sum(order, c_core, counting._grow_c_core, k, sign), (k, order, sign)
        assert gf(ClassSpec("E"), order).coeffs == _running_sum(order, odd, counting._grow_e_core)
        assert gf(ClassSpec("F"), order).coeffs == \
            _running_sum(order, c_core, counting._grow_odd_core)
    for cache in (gf, counting._signed, counting._window_sums):
        cache.cache_clear()


# The largest order at which each window series fits below 2**63, and the
# message one order more raises: each series stops where its own
# coefficients leave the bound, and names the first that does; the halves
# are added and halved on plain integers, so S(+1) may leave it first.
WINDOW_EDGES = [
    (ClassSpec("C"), 770, 9322334643320220726),
    (ClassSpec("E"), 771, 9322334643320220726),
    (ClassSpec("F"), 770, 9322334643320220726),
    (ClassSpec("Bk_e", 2), 769, 9322334643320220726),
    (ClassSpec("Bk_o", 2), 864, 9282105177903063166),
    (ClassSpec("Ck_e", 2), 770, 9322334643320220726),
    (ClassSpec("Ck_o", 2), 865, 9282105177903063166),
    (ClassSpec("Bk_e", 3), 769, 9374896185637793388),
    (ClassSpec("Bk_o", 3), 842, 9387455831954702390),
    (ClassSpec("Ck_e", 3), 770, 9374896185637793388),
    (ClassSpec("Ck_o", 3), 843, 9387455831954702390),
    (ClassSpec("Bk_e", 4), 769, 9470814835554340778),
    (ClassSpec("Ck_e", 4), 770, 9470814835554340778),
    (ClassSpec("Bk_e", 5), 768, 9303700557606623802),
    (ClassSpec("Bk_o", 5), 820, 9261383812089741348),
    (ClassSpec("Ck_e", 5), 769, 9303700557606623802),
    (ClassSpec("Ck_o", 5), 821, 9261383812089741348),
]


@pytest.mark.parametrize("spec, largest, magnitude", WINDOW_EDGES,
                         ids=[str(edge[0]) for edge in WINDOW_EDGES])
def test_window_builders_keep_their_overflow_edges(spec, largest, magnitude):
    assert gf(spec, largest).order == largest
    with pytest.raises(CoefficientOverflowError) as raised:
        gf(spec, largest + 1)
    assert str(raised.value) == (f"coefficient magnitude {magnitude} exceeds 2**63; "
                                 f"the largest order that builds for {spec} is {largest}")
    for cache in (gf, counting._signed, counting._window_sums):
        cache.cache_clear()


def test_window_parity_differences_build_at_order_760_up_to_k_8():
    # S(-1) stays below the bound at order 760, where S(+1) of k = 8 has left it
    for family in ("Bk", "Ck"):
        for k in range(1, 9):
            assert gf_parity_difference(family, k, 760).order == 760
    for cache in (gf_parity_difference, counting._signed, counting._window_sums):
        cache.cache_clear()


def test_edges_past_their_parts_match_plain_integer_references():
    # each series whose own coefficients fit past the edge of a series it is
    # built from or beside (SptKd = Dk - A; the halves (S(+1) +- S(-1))/2 of
    # Dk, Bk and Ck; P1, P2 and Pdprime(2) past tail(1) = A, whose edge is
    # 769), against references on plain integers that never check the bound:
    # the tail-family sums, the per-window sweep and a product of plain
    # loops.  At its pinned edge each series equals its reference, whose
    # first coefficient past 2**63 is the next one, of the pinned magnitude.
    edges = {spec: (largest, magnitude)
             for spec, largest, magnitude in SMALLEST_PART_EDGES + WINDOW_EDGES}
    top = 794
    spt2, p1, p2, pdprime2, dk4 = oracles.tail_family_sums(
        PLUS, top, [(2 * j, j + 1) for j in range(1, top)], [(s, s + 1) for s in range(2, top)],
        [(s, s + 2) for s in range(1, top)], [(2 * s + 1, s + 2) for s in range(1, top)],
        [(4 * j, j + 1) for j in range(top)])
    dk4_diff, = oracles.tail_family_sums(MINUS, top, [(4 * j, j + 1) for j in range(top)])
    references = {ClassSpec("SptKd", 2): spt2, ClassSpec("P1"): p1, ClassSpec("P2"): p2,
                  ClassSpec("Pdprime", 2): pdprime2,
                  ClassSpec("Dk_e", 4): tuple((a + b) // 2 for a, b in zip(dk4, dk4_diff))}
    odd, c_core = lambda l: 2 * l - 1, lambda l: 2 * l
    for family, shift, update in (("Bk", odd, counting._grow_odd_core),
                                  ("Ck", c_core, counting._grow_c_core)):
        for k in range(2, 6):
            halves = [ClassSpec(f"{family}_{p}", k) for p in ("e", "o")]
            order = max(edges[spec][0] for spec in halves if spec in edges) + 1
            plus, minus = (_running_sum(order, shift, update, k, sign) for sign in (PLUS, MINUS))
            for spec, op in zip(halves, (add, sub)):
                if spec in edges:
                    assert not any(map((1).__and__, map(op, plus, minus))), spec
                    references[spec] = tuple(c // 2 for c in map(op, plus, minus))
    assert len(references) == 19
    a = [1] + [0] * 864  # (-q; q)_inf up to q^864, one plain loop per factor
    for m in range(1, 865):
        a[m:] = [c + d for c, d in zip(a[m:], a)]
    # Bk_o(2) = (q^3 - q^5) * A - q^3 - q^4 + q^5, whose q^0 .. q^4 are 0
    bko2 = [0] * 5 + [a[n - 3] - a[n - 5] + (n == 5) for n in range(5, 865)]
    assert references[ClassSpec("Bk_o", 2)][:865] == tuple(bko2)
    for spec, reference in references.items():
        largest, magnitude = edges[spec]
        assert gf(spec, largest).coeffs == reference[:largest + 1], spec
        assert next(i for i, c in enumerate(reference) if abs(c) >= 1 << 63) == largest + 1, spec
        assert abs(reference[largest + 1]) == magnitude, spec
    for cache in (gf, counting._signed, counting._window_sums):
        cache.cache_clear()


def test_window_sums_serve_every_k_and_both_signs(monkeypatch):
    # one core sweep per (core, offset, order) serves k = 1..5 and both
    # signs, whether k is asked for ascending or descending
    runs = []

    def recording(update, offset, order, windowed):
        runs.append(update)
        return original(update, offset, order, windowed)

    original = counting._window_sums.__wrapped__
    monkeypatch.setattr(counting, "_window_sums",
                        lru_cache(maxsize=counting.WINDOW_SUM_CACHE_SIZE)(recording))
    for ks in (range(1, 6), range(5, 0, -1)):
        counting._window_sums.cache_clear()
        # a cold sweep, then one that rebuilds every series from the kept sums
        for sweeps in (1, 0):
            runs.clear()
            for cache in (gf, counting._signed):
                cache.cache_clear()
            for k in ks:
                for class_id in ("Bk_e", "Bk_o", "Ck_e", "Ck_o"):
                    gf(ClassSpec(class_id, k), 90)
            assert runs.count(counting._grow_odd_core) == sweeps, list(ks)
            assert runs.count(counting._grow_c_core) == sweeps, list(ks)
    for cache in (gf, counting._signed):
        cache.cache_clear()


def test_smallest_part_builder_holds_no_tail_family():
    # the tail family at order 740 would be 741 series, 6.9 MiB; the kept
    # reciprocals 1/(q; q)_j, cut as the tail sums read them, are 0.68 MiB
    for cache in (gf, counting._signed, counting._euler_reciprocals):
        cache.cache_clear()
    tracemalloc.start()
    try:
        gf(ClassSpec("Dk", 2), 740)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert not hasattr(counting, "_tails") and not hasattr(counting, "_tail_families")


def test_smallest_part_sums_cost_two_divisions_per_euler_term(monkeypatch):
    # sum_j sign^j * q^e_j / ((q; q)_j * (1 - q^(step+j))) over the j with
    # e_j = shift + first*j + j(j-1)/2 <= order: one division makes term j,
    # and a cold order first extends 1/(q; q)_j once for each j >= 1 with
    # j(j+1)/2 <= order, a sweep that every tail sum of the order then
    # reads, so about two divisions per term cold and one warm; no series
    # product is taken
    calls = {}

    def counted(name, kernel):
        def count(*args):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args)
        return count

    monkeypatch.setattr(counting, "_div_factor", counted("div", counting._div_factor))
    monkeypatch.setattr(series, "_kronecker_product", counted("kron", series._kronecker_product))
    order = 740
    sweep = sum(1 for j in range(1, order + 1) if j * (j + 1) // 2 <= order)
    builds = [  # (build, shift, first) of the one _tail_sum behind it
        (lambda: gf(ClassSpec("Dk", 2), order), 0, 1),
        (lambda: gf(ClassSpec("P1"), order), 2, 3),
        (lambda: gf(ClassSpec("Pdprime", 2), order), 3, 3),
        (lambda: gf_parity_difference("Dk", 4, order), 0, 1),
    ]
    divisions = {False: [], True: []}  # warm -> divisions per build
    for build, shift, first in builds:
        terms = sum(1 for j in range(order + 1) if shift + first * j + j * (j - 1) // 2 <= order)
        for warm in (False, True):
            for cache in (gf, gf_parity_difference, counting._signed):
                cache.cache_clear()
            if not warm:
                counting._euler_reciprocals.cache_clear()
            calls.clear()
            build()
            assert calls == {"div": terms + (0 if warm else sweep)}, (shift, first, warm)
            divisions[warm].append(calls["div"])
    assert sweep == 37
    assert divisions == {False: [75, 74, 73, 75], True: [38, 37, 36, 38]}
    for cache in (gf, gf_parity_difference, counting._signed, counting._euler_reciprocals):
        cache.cache_clear()


def test_repeated_smallest_decomposes_into_distinct_plus_positive():
    for k in (2, 3, 4):
        for n in range(1, 31):
            dk = count_by_enumeration(ClassSpec("Dk", k), n)
            a = count_by_enumeration(ClassSpec("A"), n)
            spt = count_by_enumeration(ClassSpec("SptKd", k), n)
            assert dk == a + spt


def test_k1_doubles_distinct_counts():
    for n in range(1, 41):
        assert count_by_enumeration(ClassSpec("Dk", 1), n) \
            == 2 * count_by_enumeration(ClassSpec("A"), n)


def test_distinct_parity_difference_is_pentagonal():
    even, odd = gf(ClassSpec("Pe_d"), 60), gf(ClassSpec("Po_d"), 60)
    for n in range(0, 61):
        assert even.coefficient(n) - odd.coefficient(n) == pentagonal_indicator(n)


def test_pentagonal_indicator_values():
    values = {0: 1, 1: -1, 2: -1, 3: 0, 4: 0, 5: 1, 6: 0, 7: 1,
              11: 0, 12: -1, 15: -1, 22: 1, 26: 1, 35: -1, 40: -1}
    for n, v in values.items():
        assert pentagonal_indicator(n) == v


# ---------------------------------------------------------------------------
# derived counts
# ---------------------------------------------------------------------------


def test_ak_doubled_worked_values():
    assert count_by_enumeration(ClassSpec("P1"), 7) == 3
    assert count_by_enumeration(ClassSpec("Pprime", 4), 7) == 1
    assert count_by_enumeration(ClassSpec("P2"), 7) == 3
    assert count_by_enumeration(ClassSpec("Pdprime", 4), 7) == 1
    assert count_ak_doubled(4, 7) == 8
    assert count_ak_doubled(2, 1) == count_by_enumeration(ClassSpec("Dk", 2), 2)
    k1 = count_ak_doubled(1, 7)
    assert k1 == 2 * (count_by_enumeration(ClassSpec("P1"), 7)
                      + count_by_enumeration(ClassSpec("P2"), 7))
    assert count_ak_doubled(4, 7, "series") == 8


def test_unknown_counting_method_is_refused():
    # each reads its path from PATHS, which names exactly two
    assert set(counting.PATHS) == {"enumeration", "series"}
    for call in (lambda: count_table(ClassSpec("A"), 5, "both"),
                 lambda: count_ak_doubled(2, 5, "enum")):
        with pytest.raises(PartitionError, match="^unknown counting method '"):
            call()


def test_derive_dk_relation():
    rel3 = derive_dk_relation(3)
    assert rel3.coefficients == (1, -1, 0, 1)
    assert rel3.threshold == 3
    rel1 = derive_dk_relation(1)
    assert rel1.coefficients == (1,) and rel1.threshold == 0
    for k in (1, 2, 3):
        rel = derive_dk_relation(k)
        a_counts = [count_by_enumeration(ClassSpec("A"), n) for n in range(61)]
        dk = gf(ClassSpec("Dk", k), 60)
        for n in range(rel.threshold + 1, 61):
            expected = 2 * sum(c * a_counts[n - m]
                               for m, c in enumerate(rel.coefficients) if n >= m)
            assert dk.coefficient(n) == expected, (k, n)


# ---------------------------------------------------------------------------
# tables and the ambiguity diagnostic
# ---------------------------------------------------------------------------


def test_count_table_formats():
    table = count_table(ClassSpec("A"), 6)
    assert table.values == {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 4}
    assert table.to_csv().splitlines()[0] == "n,count"
    assert table.to_csv().splitlines()[3] == "2,1"
    assert table.to_json_dict()["values"]["6"] == 4
    assert "| 6 | 4 |" in table.to_markdown()
    series_table = count_table(ClassSpec("A"), 6, "series")
    assert series_table.values == table.values
    with pytest.raises(PartitionError):
        count_table(ClassSpec("A"), 6, "guesswork")


def test_ambiguity_detected_at_weight6():
    report = c_family_ambiguity(2, 6)
    assert report.diverges
    assert report.anchored_even == 3 and report.anchored_odd == 1
    assert report.raw_distinct_multisets == 3
    witnesses = {p.parts for p, _ in report.ambiguous}
    assert witnesses == {(4, 2)}
    (_, decomps), = report.ambiguous
    assert sorted(ap.anchor for ap in decomps) == [2, 4]
    data = report.to_json_dict()
    assert data["diverges"] is True
    assert data["ambiguous"][0]["parts"] == [4, 2]


def test_ambiguity_absent_at_tiny_weight():
    report = c_family_ambiguity(2, 3)
    assert not report.diverges
    assert report.ambiguous == ()


@given(st.integers(1, 4), st.integers(1, 16))
@settings(max_examples=40, deadline=None)
def test_enumeration_counts_are_series_coefficients(k, n):
    for cid in ("Dk", "Bk_e", "Ck_o", "Pdprime"):
        spec = ClassSpec(cid, k)
        assert count_by_enumeration(spec, n) == gf(spec, 16 + 1).coefficient(n)

"""Counting: enumeration vs generating-function coefficients, derived
quantities, and the anchored-vs-raw diagnostic for the C family."""

import tracemalloc
from functools import lru_cache
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_kept_row_serves_shorter_requests(monkeypatch):
    walks = []
    original = counting._walk_dk

    def recording(rows, lo, hi, k, *rest):
        walks.append((lo, hi, k))
        return original(rows, lo, hi, k, *rest)

    monkeypatch.setitem(counting._ENGINES, "Dk", counting._ENGINES["Dk"]._replace(
        walk=lambda k: (recording, (k, 0), None)))
    _clear_enumeration_caches()
    row = count_row(ClassSpec("Dk", 2), 20)
    assert count_row(ClassSpec("Dk", 2), 12, 5) == row[5:13]
    assert count_by_enumeration(ClassSpec("Dk", 2), 20) == row[20]
    assert count_row(ClassSpec("Dk", 2), 22, 22) == (count_row(ClassSpec("Dk", 2), 22)[22],)
    assert walks == [(0, 20, 2), (22, 22, 2), (0, 22, 2)]
    _clear_enumeration_caches()


def test_row_cache_is_bounded():
    _clear_enumeration_caches()
    for k in range(1, counting.ROW_CACHE_SIZE + 6):
        count_row(ClassSpec("Pe_bounded", k), 3)
    assert len(counting._rows) == counting.ROW_CACHE_SIZE
    assert (counting._walk_a, (1,)) not in counting._rows
    _clear_enumeration_caches()


def test_count_walk_never_reads_the_series_path(monkeypatch):
    grid = [(spec, n) for spec in _specs(3) for n in (0, 1, 7, 18)]
    expected = {cell: len(enumerate_class(*cell)) for cell in grid}
    rows = {spec: tuple(len(enumerate_class(spec, n)) for n in range(19)) for spec in _specs(3)}

    def forbidden(*args, **kwargs):
        raise AssertionError("enumeration oracle touched the series path")

    for name in ("gf", "gf_parity_difference", "count_by_series", "pochhammer_finite",
                 "pochhammer_infinite", "_mul_factor", "_div_factor", "_kronecker_product"):
        monkeypatch.setattr(counting, name, forbidden)
    for name in ("pochhammer_finite", "pochhammer_infinite", "pochhammer_infinite_starts",
                 "series_sum", "_mul_factor", "_div_factor", "_kronecker_product"):
        monkeypatch.setattr(series, name, forbidden)
    for name in ("__mul__", "reciprocal"):
        monkeypatch.setattr(series.TruncatedSeries, name, forbidden)
    with pytest.raises(AssertionError):  # the series path is really cut off
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
# the message one order more raises: the first coefficient of the result
# that leaves the bound, or of the distinct-part product tail(1), which every
# builder reads first, where that fails before the result does.
SMALLEST_PART_EDGES = [
    (ClassSpec("Dk", 2), 748, 9234859427653261696),
    (ClassSpec("Dk", 8), 753, 9281046515468703324),
    (ClassSpec("Dk", 10), 755, 9498789159012851362),
    (ClassSpec("Dk", 12), 756, 9453045468566700448),
    (ClassSpec("SptKd", 2), 769, 9322334643320220726),
    (ClassSpec("P1"), 769, 9322334643320220726),
    (ClassSpec("P2"), 769, 9322334643320220726),
    (ClassSpec("Pdprime", 2), 769, 9322334643320220726),
    (ClassSpec("Dk_e", 4), 750, 9290184424880516576),
]


@pytest.mark.parametrize("spec, largest, magnitude", SMALLEST_PART_EDGES,
                         ids=[str(edge[0]) for edge in SMALLEST_PART_EDGES])
def test_smallest_part_builders_keep_their_overflow_edges(spec, largest, magnitude):
    assert gf(spec, largest).order == largest
    with pytest.raises(CoefficientOverflowError) as raised:
        gf(spec, largest + 1)
    assert str(raised.value) == f"coefficient magnitude {magnitude} exceeds 2**63"
    for cache in (gf, counting._signed):
        cache.cache_clear()


def test_dk_parity_difference_builds_past_the_whole_family_edge():
    # the even-minus-odd difference stays far below the bound at order 800
    for k in range(1, 9):
        assert gf_parity_difference("Dk", k, 800).order == 800
    for cache in (gf_parity_difference, counting._signed):
        cache.cache_clear()


def _running_sum(order, shift, update, k=1, sign=PLUS):
    """The Bk/Ck/E/F builder before the window sums, kept verbatim as the
    reference: one core sweep per (k, sign), each term multiplied by its
    k-1 window factors."""
    acc = [0] * (order + 1)
    core = [1] + [0] * order
    l = 1
    while (s := shift(l)) <= order:
        del core[order - s + 1:]
        update(core, l)
        term = core
        window = counting._window_values(l, k)
        if window:
            term = core.copy()
            for v in window:
                series._mul_factor(term, v, sign)
        acc[s:] = map(add, acc[s:], term)
        l += 1
    return TruncatedSeries(tuple(acc))


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
        assert gf(ClassSpec("E"), order) == _running_sum(order, odd, counting._grow_e_core)
        assert gf(ClassSpec("F"), order) == _running_sum(order, c_core, counting._grow_odd_core)
    for cache in (gf, counting._signed, counting._window_sum):
        cache.cache_clear()


# The largest order at which each window series fits below 2**63, and the
# message one order more raises: the first coefficient of S(+1), or of the
# class series, that leaves the bound.  Measured on the per-window sweep.
WINDOW_EDGES = [
    (ClassSpec("C"), 770, 9322334643320220726),
    (ClassSpec("E"), 771, 9322334643320220726),
    (ClassSpec("F"), 770, 9322334643320220726),
    (ClassSpec("Bk_e", 2), 747, 9234859427653261696),
    (ClassSpec("Bk_o", 2), 767, 9239655354309336716),
    (ClassSpec("Ck_e", 2), 748, 9234859427653261696),
    (ClassSpec("Ck_o", 2), 768, 9239655354309336716),
    (ClassSpec("Bk_e", 3), 747, 9288151756146833256),
    (ClassSpec("Bk_o", 3), 766, 9445700503124866542),
    (ClassSpec("Ck_e", 3), 748, 9288151756146833256),
    (ClassSpec("Ck_o", 3), 767, 9445700503124866542),
    (ClassSpec("Bk_e", 4), 747, 9385281999739531812),
    (ClassSpec("Ck_e", 4), 748, 9385281999739531812),
    (ClassSpec("Bk_e", 5), 747, 9519291012607657864),
    (ClassSpec("Bk_o", 5), 762, 9242113116615256591),
    (ClassSpec("Ck_e", 5), 748, 9519291012607657864),
    (ClassSpec("Ck_o", 5), 763, 9242113116615256591),
]


@pytest.mark.parametrize("spec, largest, magnitude", WINDOW_EDGES,
                         ids=[str(edge[0]) for edge in WINDOW_EDGES])
def test_window_builders_keep_their_overflow_edges(spec, largest, magnitude):
    assert gf(spec, largest).order == largest
    with pytest.raises(CoefficientOverflowError) as raised:
        gf(spec, largest + 1)
    assert str(raised.value) == f"coefficient magnitude {magnitude} exceeds 2**63"
    for cache in (gf, counting._signed, counting._window_sum):
        cache.cache_clear()


def test_window_parity_differences_build_past_the_halves_edge():
    # S(-1) stays below the bound where S(+1), and so each half, has left it
    for family in ("Bk", "Ck"):
        for k in range(1, 9):
            assert gf_parity_difference(family, k, 760).order == 760
    for cache in (gf_parity_difference, counting._signed, counting._window_sum):
        cache.cache_clear()


def test_window_sums_serve_every_k_and_both_signs(monkeypatch):
    # one core sweep per (family, j, order): k = 1..5 needs j = 0..4
    runs = []

    def recording(update, offset, j, order):
        runs.append(update)
        return original(update, offset, j, order)

    original = counting._window_sum.__wrapped__
    monkeypatch.setattr(counting, "_window_sum",
                        lru_cache(maxsize=counting.WINDOW_SUM_CACHE_SIZE)(recording))
    # a cold sweep, then one that rebuilds every series from the kept sums
    for bk_runs, ck_runs in ((5, 5), (0, 0)):
        runs.clear()
        for cache in (gf, counting._signed):
            cache.cache_clear()
        for k in range(1, 6):
            for class_id in ("Bk_e", "Bk_o", "Ck_e", "Ck_o"):
                gf(ClassSpec(class_id, k), 90)
        assert runs.count(counting._grow_odd_core) == bk_runs
        assert runs.count(counting._grow_c_core) == ck_runs
    for cache in (gf, counting._signed):
        cache.cache_clear()


def test_smallest_part_builder_holds_no_tail_family():
    # the tail family at order 740 would be 741 series, 6.9 MiB
    for cache in (gf, counting._signed):
        cache.cache_clear()
    tracemalloc.start()
    try:
        gf(ClassSpec("Dk", 2), 740)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert not hasattr(counting, "_tails") and not hasattr(counting, "_tail_families")


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
    for n in range(0, 61):
        diff = (count_by_series(ClassSpec("Pe_d"), n, 60)
                - count_by_series(ClassSpec("Po_d"), n, 60))
        assert diff == pentagonal_indicator(n)


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


def test_derive_dk_relation():
    rel3 = derive_dk_relation(3)
    assert rel3.coefficients == (1, -1, 0, 1)
    assert rel3.threshold == 3
    rel1 = derive_dk_relation(1)
    assert rel1.coefficients == (1,) and rel1.threshold == 0
    for k in (1, 2, 3):
        rel = derive_dk_relation(k)
        a_counts = [count_by_enumeration(ClassSpec("A"), n) for n in range(61)]
        for n in range(rel.threshold + 1, 61):
            expected = 2 * sum(c * a_counts[n - m]
                               for m, c in enumerate(rel.coefficients) if n >= m)
            assert count_by_series(ClassSpec("Dk", k), n, 60) == expected, (k, n)


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
        assert count_by_enumeration(spec, n) == count_by_series(spec, n, 16 + 1)

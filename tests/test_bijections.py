"""Bijections: worked examples, exhaustive round-trips, target membership,
and the disjoint-coverage properties the maps promise."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpart import bijections, counting
from qpart.bijections import (
    AKY_SKETCH,
    RANK,
    SOURCE_DK,
    SOURCE_DK_MINUS_1,
    BijectionError,
    SketchMembershipError,
    akdk_inverse,
    akdk_map,
    base_bc_inverse,
    base_bc_map,
    bkck_inverse,
    bkck_map,
    dk_recurrence_inverse,
    dk_recurrence_map,
    dk_recurrence_subrange,
    ef_shift,
    glaisher_merge,
    glaisher_split,
    sketch_harness,
)
from qpart.counting import enumerate_class
from qpart.partitions import AnchoredPartition, ClassSpec, Partition, is_member

import oracles

P = Partition.from_parts


# ---------------------------------------------------------------------------
# binary merge / split
# ---------------------------------------------------------------------------


def test_glaisher_worked_example():
    assert glaisher_merge(P([1, 1, 1, 1])) == P([4])
    assert glaisher_split(P([4])) == P([1, 1, 1, 1])
    assert glaisher_merge(P([3, 3, 3, 1])) == P([6, 3, 1])


def test_glaisher_rejects_bad_input():
    with pytest.raises(BijectionError):
        glaisher_merge(P([4, 1]))


def test_glaisher_round_trips_exhaustively():
    for n in range(0, 26):
        for p in enumerate_class(ClassSpec("B"), n):
            merged = glaisher_merge(p)
            assert is_member(ClassSpec("A"), merged)
            assert merged.weight == n
            assert glaisher_split(merged) == p
        for p in enumerate_class(ClassSpec("A"), n):
            if p.parts:
                split = glaisher_split(p)
                assert is_member(ClassSpec("B"), split)
                assert glaisher_merge(split) == p


@given(st.lists(st.integers(0, 8), min_size=1, max_size=6),
       st.lists(st.integers(1, 5), min_size=1, max_size=6))
def test_glaisher_merge_properties(halves, mults):
    odd_parts = []
    for h, m in zip(halves, mults):
        odd_parts.extend([2 * h + 1] * m)
    p = P(odd_parts)
    merged = glaisher_merge(p)
    assert merged.weight == p.weight
    assert len(set(merged.parts)) == len(merged.parts)
    assert glaisher_split(merged) == p


# ---------------------------------------------------------------------------
# smallest-part subtraction onto the four distinct-part classes
# ---------------------------------------------------------------------------

AKDK_TABLE_K4_W8 = {
    (8, 0, 0, 0, 0): ((7,), "P2"),
    (6, 2, 0, 0, 0, 0): ((6, 1), "P2"),
    (7, 1, 0, 0, 0, 0): ((7,), "P1"),
    (5, 3, 0, 0, 0, 0): ((5, 2), "P2"),
    (5, 2, 1, 0, 0, 0, 0): ((5, 2), "P1"),
    (4, 3, 1, 0, 0, 0, 0): ((4, 3), "P1"),
    (4, 1, 1, 1, 1): ((4, 1, 1, 1), "Pprime"),
    (2, 2, 2, 2): ((2, 2, 2, 1), "Pdprime"),
}


def test_akdk_worked_table():
    for source, (image, cid) in AKDK_TABLE_K4_W8.items():
        out = akdk_map(4, Partition(source))
        assert out.image.parts == image
        assert out.target_class.class_id == cid
        assert akdk_inverse(4, out) == Partition(source)


def test_akdk_rejects_non_members():
    with pytest.raises(BijectionError):
        akdk_map(2, P([4, 2]))  # smallest part not repeated twice
    with pytest.raises(BijectionError):
        akdk_map(2, P([1, 0, 0]))  # weight below 2


def test_akdk_round_trip_and_tagged_coverage():
    # images, tagged by target class, hit each target exactly once
    for k in (1, 2, 3, 4, 5):
        for n in range(2, 26 if k < 4 else 21):
            images = []
            for p in enumerate_class(ClassSpec("Dk", k), n):
                out = akdk_map(k, p)
                assert out.image.weight == n - 1
                assert is_member(out.target_class, out.image)
                assert akdk_inverse(k, out) == p
                images.append((out.target_class.class_id, out.image.parts))
            assert len(images) == len(set(images))
            by_class = Counter(cid for cid, _ in images)
            for cid in ("P1", "P2", "Pprime", "Pdprime"):
                spec = ClassSpec(cid) if cid in ("P1", "P2") else ClassSpec(cid, k)
                expected = {m.parts for m in enumerate_class(spec, n - 1)}
                got = {parts for c, parts in images if c == cid}
                assert got == expected, (k, n, cid)
                assert by_class[cid] == len(expected)


# ---------------------------------------------------------------------------
# recurrence map between neighbouring smallest-part multiplicities
# ---------------------------------------------------------------------------


def test_dk_recurrence_case_examples():
    out = dk_recurrence_map(3, P([4, 3, 1, 1, 1]), SOURCE_DK)
    assert out.image == P([4, 3, 1, 0, 0])
    assert dk_recurrence_subrange(3, out.image) == "a"
    out = dk_recurrence_map(3, P([5, 1, 1]), SOURCE_DK_MINUS_1)
    assert out.image == P([5, 0, 0])
    assert dk_recurrence_subrange(3, out.image) == "c"
    out = dk_recurrence_map(3, P([4, 2, 2, 2]), SOURCE_DK)
    assert out.image == P([4, 2, 1, 1])
    assert dk_recurrence_subrange(3, out.image) == "b"
    out = dk_recurrence_map(3, P([5, 4, 0, 0]), SOURCE_DK_MINUS_1)
    assert out.image == P([5, 4])
    assert out.target_class.class_id == "A"


def test_dk_recurrence_round_trip_and_coverage():
    for k in (2, 3, 4, 5):
        cap = 26 if k < 4 else 21
        for n in range(k, cap):
            images = []
            for source, mult in ((SOURCE_DK, k), (SOURCE_DK_MINUS_1, k - 1)):
                for p in enumerate_class(ClassSpec("Dk", mult), n):
                    out = dk_recurrence_map(k, p, source)
                    back, back_source = dk_recurrence_inverse(k, out)
                    assert (back, back_source) == (p, source)
                    images.append(out)
            shifted = Counter(o.image.parts for o in images
                              if o.target_class.class_id == "Dk")
            expected = Counter(p.parts
                               for p in enumerate_class(ClassSpec("Dk", k - 1), n - k + 1))
            assert shifted == expected, (k, n)
            unchanged = Counter(o.image.parts for o in images
                                if o.target_class.class_id == "A")
            expected_a = Counter(p.parts for p in enumerate_class(ClassSpec("A"), n))
            assert unchanged == Counter({key: 2 * v for key, v in expected_a.items()})


def test_dk_recurrence_rejects_bad_input():
    with pytest.raises(BijectionError):
        dk_recurrence_map(1, P([2, 1, 1]), SOURCE_DK)
    with pytest.raises(BijectionError):
        dk_recurrence_map(3, P([2, 1, 1]), "mystery")
    with pytest.raises(BijectionError):
        dk_recurrence_map(3, P([1, 1]), SOURCE_DK)


# ---------------------------------------------------------------------------
# base map between all-odd and anchored classes
# ---------------------------------------------------------------------------


def test_base_map_round_trips_rank():
    for n in range(1, 31):
        for p in enumerate_class(ClassSpec("B"), n):
            ap = base_bc_map(p)
            assert ap.weight == n + 1
            assert is_member(ClassSpec("C"), ap)
            assert base_bc_inverse(ap) == p


def test_base_map_is_anchor_compatible():
    # the anchor of the image is one more than the largest odd part; the
    # windowed recursion depends on this alignment
    for n in range(1, 31):
        for p in enumerate_class(ClassSpec("B"), n):
            largest_odd = max(v for v in p.parts if v % 2)
            assert base_bc_map(p).anchor == largest_odd + 1


def test_base_map_sketch_worked_example():
    ap = base_bc_map(P([3, 1, 1, 1, 1]), AKY_SKETCH)
    assert ap == AnchoredPartition(4, P([4, 4]))
    assert base_bc_inverse(ap, AKY_SKETCH) == P([3, 1, 1, 1, 1])


def test_base_map_sketch_flags_overshoot():
    with pytest.raises(SketchMembershipError):
        base_bc_map(P([1] * 8), AKY_SKETCH)
    report = sketch_harness(8)
    assert report.attempted == 6 and report.succeeded == 5
    (source, candidate), = report.failures
    assert source == P([1] * 8)
    assert candidate.partition == P([4, 2, 2, 1])
    assert not report.all_ok
    assert sketch_harness(4).all_ok


def test_base_map_rejects_bad_strategy_and_input():
    with pytest.raises(BijectionError):
        base_bc_map(P([2, 1]))
    with pytest.raises(BijectionError):
        base_bc_map(P([3, 1]), "magic")


# ---------------------------------------------------------------------------
# windowed recursion
# ---------------------------------------------------------------------------


def test_bkck_sketch_worked_example():
    ap = AnchoredPartition(4, P([8, 6, 4, 4]))
    out = bkck_inverse(3, "e", ap, AKY_SKETCH)
    assert out.image == P([8, 6, 3, 1, 1, 1, 1])
    assert out.case_tag[:2] == ("strip:8", "strip:6")
    back = bkck_map(3, "e", out.image, AKY_SKETCH)
    assert back.image == ap
    assert back.case_tag == out.case_tag


def test_bkck_forced_pair_at_small_weight():
    for strategy in (RANK, AKY_SKETCH):
        out = bkck_map(3, "o", P([4, 1, 1, 1]), strategy)
        assert out.image == AnchoredPartition(2, P([4, 2, 2]))


def test_bkck_base_case_equals_base_map():
    for n in range(1, 21):
        for p in enumerate_class(ClassSpec("B"), n):
            out = bkck_map(1, "e", p)
            assert out.image == base_bc_map(p)
            out2 = bkck_map(2, "e", p)
            assert out2.image == base_bc_map(p)


def test_bkck_round_trip_exhaustive_small():
    for k in (1, 2, 3):
        for parity in ("e", "o"):
            for n in range(1, 19):
                forward_images = []
                for p in enumerate_class(ClassSpec(f"Bk_{parity}", k), n):
                    out = bkck_map(k, parity, p)
                    assert out.image.weight == n + 1
                    back = bkck_inverse(k, parity, out.image)
                    assert back.image == p
                    forward_images.append(out.image)
                # forward images exhaust the anchored class
                expected = set(enumerate_class(ClassSpec(f"Ck_{parity}", k), n + 1))
                assert set(forward_images) == expected
                assert len(forward_images) == len(expected)


def test_bkck_strip_tags_alternate_parity():
    out = bkck_map(3, "e", P([8, 6, 3, 1, 1, 1, 1]))
    strips = [t for t in out.case_tag if t.startswith("strip:")]
    assert [int(t.split(":")[1]) for t in strips] == [8, 6]


def test_bkck_rejects_non_members():
    with pytest.raises(BijectionError):
        bkck_map(2, "o", P([3, 1]))  # no window part, so parity cannot be odd
    with pytest.raises(BijectionError):
        bkck_map(2, "q", P([3, 1]))


# ---------------------------------------------------------------------------
# largest-part shifts
# ---------------------------------------------------------------------------


def test_ef_shift_worked_examples():
    assert ef_shift("B->F", P([3, 3])) == P([4, 3])
    assert ef_shift("B->E", P([3, 3])) == P([5, 3])
    assert ef_shift("F->B", P([4, 3])) == P([3, 3])
    assert ef_shift("E->B", P([5, 3])) == P([3, 3])


def test_ef_shift_round_trips_exhaustively():
    for n in range(1, 26):
        for p in enumerate_class(ClassSpec("B"), n):
            f_img = ef_shift("B->F", p)
            assert is_member(ClassSpec("F"), f_img) and f_img.weight == n + 1
            assert ef_shift("F->B", f_img) == p
            e_img = ef_shift("B->E", p)
            assert is_member(ClassSpec("E"), e_img) and e_img.weight == n + 2
            assert ef_shift("E->B", e_img) == p
        for p in enumerate_class(ClassSpec("E"), n):
            if p.parts[0] >= 3:
                assert ef_shift("B->E", ef_shift("E->B", p)) == p
        for p in enumerate_class(ClassSpec("F"), n):
            assert ef_shift("B->F", ef_shift("F->B", p)) == p


def test_ef_shift_rejects_bad_input():
    with pytest.raises(BijectionError):
        ef_shift("B->F", P([4, 1]))
    with pytest.raises(BijectionError):
        ef_shift("E->B", P([1]))
    with pytest.raises(BijectionError):
        ef_shift("sideways", P([3]))


# ---------------------------------------------------------------------------
# error text: `qpart bijection --parts ...` prints these messages verbatim
# ---------------------------------------------------------------------------


def _message(call) -> str:
    with pytest.raises(BijectionError) as err:
        call()
    return str(err.value)


def _refuse(monkeypatch, *class_ids):
    """Make the bijections' membership check reject the given class ids."""
    real = bijections.is_member
    monkeypatch.setattr(bijections, "is_member",
                        lambda spec, v: spec.class_id not in class_ids and real(spec, v))


def test_error_text_bad_source():
    assert _message(lambda: akdk_map(2, P([4, 2]))) == "4+2 is not a Dk member (k=2)"
    assert _message(lambda: dk_recurrence_map(3, P([4, 2]), SOURCE_DK)) == \
        "4+2 is not a D-member with smallest multiplicity 3"
    assert _message(lambda: base_bc_map(P([2, 1]))) == "2+1 is not an all-odd partition"
    assert _message(lambda: base_bc_inverse(AnchoredPartition(2, P([2, 1, 1])))) == \
        "[2] 2+1+1 is not an anchored member"
    assert _message(lambda: bkck_map(2, "o", P([3, 1]))) == "3+1 is not a member of Bk_o(k=2)"
    assert _message(lambda: bkck_inverse(2, "o", AnchoredPartition(2, P([2, 1])))) == \
        "[2] 2+1 is not a member of Ck_o(k=2)"
    assert _message(lambda: ef_shift("B->F", P([4, 1]))) == "4+1 is not all-odd"
    assert _message(lambda: ef_shift("F->B", P([3, 1]))) == "3+1 has no unique even largest part"
    assert _message(lambda: ef_shift("E->B", P([3, 3]))) == "3+3 is not odd with unique largest part"


def test_error_text_bad_image(monkeypatch):
    _refuse(monkeypatch, "Pprime", "A", "Ck_e")
    assert _message(lambda: akdk_map(2, P([5, 1, 1]))) == "image 5+1 is not in Pprime(k=2)"
    assert _message(lambda: dk_recurrence_map(3, P([5, 0, 0, 0]), SOURCE_DK)) == "5 not distinct"
    assert _message(lambda: bkck_map(2, "e", P([3, 1]))) == "image [4] 4+1 is not in Ck_e(k=2)"
    monkeypatch.undo()
    _refuse(monkeypatch, "Bk_e")
    assert _message(lambda: bkck_inverse(2, "e", AnchoredPartition(4, P([4, 1])))) == \
        "image 3+1 is not in Bk_e(k=2)"


def test_error_text_bad_inverse_image():
    out = bijections.BijectionOutcome(P([3, 3]), ClassSpec("P1"), ("distinct,smallest=1",))
    assert _message(lambda: akdk_inverse(2, out)) == "inverse image 3+3+1+0+0 is not a Dk member"


def test_error_text_unknown_tags():
    assert _message(lambda: dk_recurrence_map(3, P([2, 1, 1]), "mystery")) == \
        "unknown source tag 'mystery'"
    out = bijections.BijectionOutcome(P([3, 1]), ClassSpec("A"), ("zeros,Dk",))
    assert _message(lambda: akdk_inverse(2, out)) == "unexpected target class A"
    assert _message(lambda: ef_shift("sideways", P([3]))) == \
        "direction must be one of ('B->F', 'F->B', 'B->E', 'E->B')"
    assert _message(lambda: base_bc_map(P([3, 1]), "magic")) == "unknown strategy 'magic'"


def test_successful_maps_format_no_error_text(monkeypatch):
    # Error text is built only on failure: a sweep that never fails never
    # renders a partition as text.
    def refuse_str(self):
        raise AssertionError("error text built on a successful call")

    monkeypatch.setattr(Partition, "__str__", refuse_str)
    monkeypatch.setattr(AnchoredPartition, "__str__", refuse_str)
    for p in enumerate_class(ClassSpec("B"), 12):
        assert glaisher_split(glaisher_merge(p)) == p
        assert base_bc_inverse(base_bc_map(p)) == p
        assert ef_shift("F->B", ef_shift("B->F", p)) == p
        assert ef_shift("E->B", ef_shift("B->E", p)) == p
    for p in enumerate_class(ClassSpec("Dk", 3), 12):
        assert akdk_inverse(3, akdk_map(3, p)) == p
        assert dk_recurrence_inverse(3, dk_recurrence_map(3, p, SOURCE_DK))[0] == p
    for k, parity in ((2, "e"), (3, "o"), (4, "e")):
        for p in enumerate_class(ClassSpec(f"Bk_{parity}", k), 12):
            assert bkck_inverse(k, parity, bkck_map(k, parity, p).image).image == p


def test_maps_build_each_class_spec_once(monkeypatch):
    # A sweep builds the spec of each (class, k) it checks once, on first
    # use, and none after that, however many members it maps.
    odd = enumerate_class(ClassSpec("B"), 20)
    windowed = enumerate_class(ClassSpec("Bk_e", 4), 20)
    real = ClassSpec.__post_init__
    built = []

    def counted(self):
        built.append((self.class_id, self.k))
        real(self)

    def sweep():
        for p in odd:
            assert base_bc_inverse(base_bc_map(p)) == p
        for p in windowed:
            assert bkck_inverse(4, "e", bkck_map(4, "e", p).image).image == p

    bijections._spec.cache_clear()
    monkeypatch.setattr(ClassSpec, "__post_init__", counted)
    sweep()
    # bkck(4, e) strips at most two window parts: levels (4, e), (3, o), (2, e)
    assert sorted(built) == [("Bk_e", 2), ("Bk_e", 4), ("Bk_o", 3),
                             ("Ck_e", 2), ("Ck_e", 4), ("Ck_o", 3)]
    built.clear()
    sweep()
    assert built == []
    assert bijections._spec.cache_info().maxsize is not None


# ---------------------------------------------------------------------------
# forged outcomes: an image outside its tagged class whose re-attached part
# lands out of order is named, never re-sorted into some Dk member
# ---------------------------------------------------------------------------

FORGED_OUTCOMES = [
    # (map, k, image parts, tagged target); the part raised or appended
    # would sit above its neighbour
    (akdk_inverse, 2, (3, 3), ClassSpec("P2")),
    (akdk_inverse, 2, (2, 0), ClassSpec("P1")),
    (akdk_inverse, 1, (3, 3), ClassSpec("Pdprime", 1)),
    (akdk_inverse, 1, (3, 0), ClassSpec("Pprime", 1)),
    (dk_recurrence_inverse, 3, (5, 2, 2, 2), ClassSpec("Dk", 2)),
    # an empty image has no part to raise
    (akdk_inverse, 2, (), ClassSpec("P2")),
    (akdk_inverse, 1, (), ClassSpec("Pdprime", 1)),
    (dk_recurrence_inverse, 3, (), ClassSpec("Dk", 2)),
]


@pytest.mark.parametrize("inverse, k, parts, target", FORGED_OUTCOMES,
                         ids=[f"{f.__name__}-{t}{'' if parts else '-empty'}"
                              for f, _, parts, t in FORGED_OUTCOMES])
def test_forged_outcome_out_of_order_is_a_bijection_error(inverse, k, parts, target):
    out = bijections.BijectionOutcome(Partition(parts), target, ("forged",))
    with pytest.raises(BijectionError) as err:
        inverse(k, out)
    assert type(err.value) is BijectionError
    assert str(err.value) == f"image {Partition(parts)} is not in {target}"


@pytest.mark.parametrize("parts, target, tag, result", [
    # a shifted image whose raised parts fall in neither Dk(3) nor Dk(2)
    ((5, 5, 1, 1), ClassSpec("Dk", 2), "forged", "5+5+2+2"),
    # zeros appended to an image with a repeated part
    ((2, 2), ClassSpec("A"), "zeros,Dk", "2+2+0+0+0"),
    ((2, 2), ClassSpec("A"), "zeros,Dk-1", "2+2+0+0"),
], ids=["shift", "zeros-Dk", "zeros-Dk-1"])
def test_dk_recurrence_inverse_checks_its_result(parts, target, tag, result):
    out = bijections.BijectionOutcome(Partition(parts), target, (tag,))
    with pytest.raises(BijectionError) as err:
        dk_recurrence_inverse(3, out)
    assert str(err.value) == f"inverse image {result} is not a Dk member"


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("parts, target, tag", [
    ((3, 1), ClassSpec("A"), "zeros,Dk-1"),
    ((3, 1), ClassSpec("Dk", 1), "shift,Dk,smallest=1"),
], ids=["A-tagged", "Dk-tagged"])
def test_dk_recurrence_inverse_refuses_k_below_2(k, parts, target, tag):
    # the reason the forward map gives, before any class is built at k-1
    out = bijections.BijectionOutcome(Partition(parts), target, (tag,))
    with pytest.raises(BijectionError) as err:
        dk_recurrence_inverse(k, out)
    assert type(err.value) is BijectionError
    assert str(err.value) == "recurrence needs k >= 2"


# ---------------------------------------------------------------------------
# the maps against their copies from before they stripped window parts from
# the front and stopped re-sorting (tests/oracles.py)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 6))
def test_changed_maps_match_pre_change_copies(k):
    # every member of weights 0..24, both parities and both strategies;
    # image, target class, case tag, or raised type and text
    compared, mismatches = oracles.map_mismatches(range(25), [k])
    assert compared > 4000
    assert mismatches == []


# is_member calls and Partition constructions of one sweep of each public map
# over every member of its domain at weight 16 (an inverse over every image
# of its map).  The numbers are those of the maps before they stopped
# re-sorting, so a check dropped or added shows here; dk_recurrence_inverse's
# one is_member call per image is its check of its result.
CHECKS_AT_16 = {
    "glaisher_merge": (0, 32),
    "glaisher_split": (0, 32),
    "ef_shift": (113, 113),
    "akdk_map": (92, 46),
    "akdk_inverse": (46, 46),
    "dk_recurrence_map": (200, 100),
    "dk_recurrence_inverse": (100, 100),
    "base_bc_map": (96, 128),
    "base_bc_inverse": (96, 128),
    "bkck_map": (263, 109),
    "bkck_inverse": (263, 109),
    "sketch_harness": (110, 197),
}


def _check_sweeps(n: int) -> dict:
    """Public map -> (callable, argument tuples) at weight n."""
    def members(cid, k=None, weight=n):
        return enumerate_class(ClassSpec(cid, k), weight)

    dk_sources = [(p, source) for source, mult in ((SOURCE_DK, 3), (SOURCE_DK_MINUS_1, 2))
                  for p in members("Dk", mult)]
    windowed = ((2, "e"), (3, "o"), (4, "e"))
    return {
        "glaisher_merge": (glaisher_merge, [(p,) for p in members("B")]),
        "glaisher_split": (glaisher_split, [(p,) for p in members("A")]),
        "ef_shift": (ef_shift, [(d, p) for d, cid in (("B->F", "B"), ("F->B", "F"),
                                                     ("B->E", "B"), ("E->B", "E"))
                                for p in members(cid)]),
        "akdk_map": (akdk_map, [(3, p) for p in members("Dk", 3)]),
        "akdk_inverse": (akdk_inverse, [(3, akdk_map(3, p)) for p in members("Dk", 3)]),
        "dk_recurrence_map": (dk_recurrence_map, [(3, p, s) for p, s in dk_sources]),
        "dk_recurrence_inverse": (dk_recurrence_inverse,
                                  [(3, dk_recurrence_map(3, p, s)) for p, s in dk_sources]),
        "base_bc_map": (base_bc_map, [(p, s) for s in (RANK, AKY_SKETCH) for p in members("B")]),
        "base_bc_inverse": (base_bc_inverse, [(ap, s) for s in (RANK, AKY_SKETCH)
                                              for ap in members("C", weight=n + 1)]),
        "bkck_map": (bkck_map, [(k, par, p) for k, par in windowed
                                for p in members(f"Bk_{par}", k)]),
        "bkck_inverse": (bkck_inverse, [(k, par, ap) for k, par in windowed
                                        for ap in members(f"Ck_{par}", k, n + 1)]),
        "sketch_harness": (sketch_harness, [(n,)]),
    }


def _count_checks(monkeypatch) -> Counter:
    """Count the maps' is_member calls, through the module global the
    benchmark tracer patches, and every Partition and AnchoredPartition
    built; the counter is cleared between sweeps."""
    counts = Counter()
    real_member = bijections.is_member

    def member(spec, value):
        counts["is_member"] += 1
        return real_member(spec, value)

    monkeypatch.setattr(bijections, "is_member", member)
    for cls in (Partition, AnchoredPartition):
        def init(self, *args, real=cls.__init__, name=cls.__name__, **kwargs):
            counts[name] += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    return counts


def test_every_map_keeps_its_checks(monkeypatch):
    sweeps = _check_sweeps(16)
    counts = _count_checks(monkeypatch)
    got = {}
    for name, (call, calls) in sweeps.items():
        counts.clear()
        for args in calls:
            try:
                call(*args)
            except BijectionError:
                pass
        got[name] = (counts["is_member"], counts["Partition"])
    assert got == CHECKS_AT_16


# is_member calls, Partitions and AnchoredPartitions built by one round-trip
# sweep of each bijections.MAPS row at weight 16 (members enumerated first,
# a BijectionError counted as a finished call), measured before the checks
# were made cheaper: each check is kept, not skipped or remembered.
CHECKS_PER_ROW_AT_16 = {
    "glaisher": (0, 64, 0),
    "akdk(k=3)": (138, 92, 0),
    "dk-recurrence(k=3)": (300, 200, 0),
    "base-bc(strategy=rank)": (64, 64, 32),
    "base-bc(strategy=aky-sketch)": (110, 165, 32),
    "bkck(k=3,parity=e)": (206, 74, 37),
    "bkck(k=3,parity=o)": (100, 60, 30),
    "ef-shift": (128, 128, 0),
}
ROW_FLAGS = {
    "glaisher": [{}],
    "akdk": [{"k": 3}],
    "dk-recurrence": [{"k": 3}],
    "base-bc": [{"strategy": RANK}, {"strategy": AKY_SKETCH}],
    "bkck": [{"k": 3, "parity": "e"}, {"k": 3, "parity": "o"}],
    "ef-shift": [{}],
}


def test_every_map_row_keeps_its_checks(monkeypatch):
    assert ROW_FLAGS.keys() == bijections.MAPS.keys()
    sweeps = {}
    for name, flag_sets in ROW_FLAGS.items():
        for flags in flag_sets:
            shown = ",".join(f"{f}={v}" for f, v in flags.items())
            sweeps[f"{name}({shown})" if flags else name] = [
                (enumerate_class(spec, 16), directions)
                for spec, directions in bijections.MAPS[name].sweep(**flags)]
    counts = _count_checks(monkeypatch)
    got = {}
    for name, sweep in sweeps.items():
        counts.clear()
        for members, directions in sweep:
            for p in members:
                for forward, inverse in directions:
                    try:
                        inverse(forward(p))
                    except BijectionError:
                        pass
        got[name] = (counts["is_member"], counts["Partition"], counts["AnchoredPartition"])
    assert got == CHECKS_PER_ROW_AT_16


# ---------------------------------------------------------------------------
# rank strategy: Glaisher's merge capped at the anchor
# ---------------------------------------------------------------------------


def test_rank_maps_each_block_onto_its_anchored_members():
    # the all-odd members with largest part 2l-1 go onto the anchored
    # members at 2l, every one of them, and back
    for n in range(1, 31):
        odd_blocks, anchored_blocks = {}, {}
        for p in enumerate_class(ClassSpec("B"), n):
            odd_blocks.setdefault(p.parts[0] + 1, []).append(p)
        for ap in enumerate_class(ClassSpec("C"), n + 1):
            anchored_blocks.setdefault(ap.anchor, set()).add(ap)
        assert odd_blocks.keys() == anchored_blocks.keys(), n
        for anchor, odd in odd_blocks.items():
            images = [base_bc_map(p, RANK) for p in odd]
            assert set(images) == anchored_blocks[anchor], (n, anchor)
            assert [base_bc_inverse(ap, RANK) for ap in images] == odd


def test_rank_worked_examples():
    # the sketch's overshoot case, repaired: seven 1s under the anchor 2 are
    # three 2s and a 1, not the uncapped merge's 4+2+1
    for source, image in ((P([1] * 8), AnchoredPartition(2, P([2, 2, 2, 2, 1]))),
                          (P([3, 1, 1, 1, 1]), AnchoredPartition(4, P([4, 4])))):
        assert base_bc_map(source, RANK) == image
        assert base_bc_inverse(image, RANK) == source


def test_rank_round_trips_a_heavy_member_without_enumerating(monkeypatch):
    # every odd value up to 199 with multiplicity 1..5, and a thousand more
    # 1s, which the cap at 200 merges into parts 128, 64, ...
    parts = [1] * 1000
    for a in range(1, 200, 2):
        parts += [a] * (1 + a % 5)
    p = P(parts)
    assert p.weight >= 10_000

    def refuse(*args):
        raise AssertionError("members enumerated")

    monkeypatch.setattr(counting, "_members", refuse)
    ap = base_bc_map(p)
    assert ap.anchor == 200 and ap.weight == p.weight + 1
    assert is_member(ClassSpec("C"), ap)
    assert base_bc_inverse(ap) == p

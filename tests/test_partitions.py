"""Partition values, class membership, and anchor decompositions."""

import dataclasses
import hashlib
from collections import Counter
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpart.partitions import (
    CLASS_INFO,
    AnchoredPartition,
    ClassSpec,
    Partition,
    PartitionError,
    anchor_decompositions,
    _bk_evens,
    _ck_extras,
    _dk_parts_above,
    _is_distinct,
    is_member,
)

import oracles
from oracles import smallest_part_profile

P = Partition.from_parts


def test_partition_validates_ordering():
    with pytest.raises(PartitionError):
        Partition((1, 2))
    with pytest.raises(PartitionError):
        Partition((3, -1))
    assert P([1, 3, 2]).parts == (3, 2, 1)


def test_partition_weight_and_str():
    p = P([4, 2, 2, 1])
    assert p.weight == 9
    assert str(p) == "4+2+2+1"
    assert str(Partition(())) == "(empty)"
    assert p.to_json() == [4, 2, 2, 1]


def test_anchored_partition_validation():
    ap = AnchoredPartition(4, P([4, 2]))
    assert ap.weight == 6
    assert ap.to_json() == {"anchor": 4, "parts": [4, 2]}
    with pytest.raises(PartitionError):
        AnchoredPartition(3, P([3, 2]))
    with pytest.raises(PartitionError):
        AnchoredPartition(6, P([4, 2]))


def test_class_info_view_is_pinned():
    # perfbench unpacks these (requires k, anchored) pairs; keep them literal
    expected = {
        "A": (False, False), "B": (False, False), "C": (False, True),
        "Dk": (True, False), "Dk_e": (True, False), "Dk_o": (True, False),
        "Bk_e": (True, False), "Bk_o": (True, False),
        "Ck_e": (True, True), "Ck_o": (True, True),
        "E": (False, False), "F": (False, False), "P1": (False, False), "P2": (False, False),
        "Pprime": (True, False), "Pdprime": (True, False),
        "Pe_d": (False, False), "Po_d": (False, False),
        "Pe_bounded": (True, False), "Po_bounded": (True, False), "SptKd": (True, False),
    }
    assert list(CLASS_INFO.items()) == list(expected.items())  # order too


def test_class_spec_k_validation():
    with pytest.raises(PartitionError):
        ClassSpec("Dk")
    with pytest.raises(PartitionError):
        ClassSpec("A", 2)
    with pytest.raises(PartitionError):
        ClassSpec("Dk", 0)
    with pytest.raises(PartitionError):
        ClassSpec("nonsense")
    assert str(ClassSpec("Dk", 3)) == "Dk(k=3)"


@pytest.mark.parametrize("k", [2.5, True, "2", 0, -1])
def test_class_spec_needs_a_positive_int_k(k):
    with pytest.raises(PartitionError, match="^class Dk needs a positive k$"):
        ClassSpec("Dk", k)


def test_value_types_keep_no_instance_dict():
    # Slotted values: no per-instance __dict__, and still frozen.
    from qpart.bijections import BijectionOutcome

    values = (Partition((3, 1)), AnchoredPartition(4, P([4, 1])), ClassSpec("Dk", 2),
              BijectionOutcome(Partition((3, 1)), ClassSpec("A"), ("zeros,Dk",)))
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
        field = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, getattr(value, field))
        # A name that is no field is refused too; CPython 3.10 to 3.13 raise
        # TypeError there, from the frozen __setattr__ of a slotted class.
        with pytest.raises((AttributeError, TypeError)):
            value.extra = 1


def test_value_types_equality_hash_and_text():
    from qpart.bijections import BijectionOutcome

    outcome = BijectionOutcome(Partition((3, 1)), ClassSpec("A"), ("zeros,Dk",))
    cases = [
        (Partition((3, 1)), Partition((3, 1)), Partition((3, 2)), "3+1",
         "Partition(parts=(3, 1))"),
        (Partition(()), Partition(()), Partition((0,)), "(empty)", "Partition(parts=())"),
        (AnchoredPartition(4, P([4, 1])), AnchoredPartition(4, P([4, 1])),
         AnchoredPartition(2, P([4, 2])), "[4] 4+1",
         "AnchoredPartition(anchor=4, partition=Partition(parts=(4, 1)))"),
        (ClassSpec("Dk", 2), ClassSpec("Dk", 2), ClassSpec("Dk", 3), "Dk(k=2)",
         "ClassSpec(class_id='Dk', k=2)"),
        (ClassSpec("C"), ClassSpec("C"), ClassSpec("Ck_e", 1), "C",
         "ClassSpec(class_id='C', k=None)"),
        (outcome, BijectionOutcome(Partition((3, 1)), ClassSpec("A"), ("zeros,Dk",)),
         BijectionOutcome(Partition((3, 1)), ClassSpec("A"), ("zeros,Dk-1",)),
         repr(outcome),
         "BijectionOutcome(image=Partition(parts=(3, 1)), target_class=ClassSpec("
         "class_id='A', k=None), case_tag=('zeros,Dk',))"),
    ]
    for value, same, other, text, rep in cases:
        assert value == same and value is not same
        assert value != other
        assert hash(value) == hash(same)
        # A frozen dataclass hashes as the tuple of its fields.
        assert hash(value) == hash(tuple(getattr(value, f.name)
                                         for f in dataclasses.fields(value)))
        assert str(value) == text
        assert repr(value) == rep
    assert Partition((3, 1)) != (3, 1)
    assert len({Partition((3, 1)), Partition((3, 1)), Partition((1, 1, 1, 1))}) == 2


def test_smallest_part_profile_cases():
    assert smallest_part_profile(P([2, 2, 2, 2])) == (2, 4, True)
    assert smallest_part_profile(P([7])) == (7, 1, True)
    assert smallest_part_profile(P([5, 3, 3, 1])) == (1, 1, False)
    assert smallest_part_profile(P([7, 0, 0])) == (0, 2, True)
    with pytest.raises(PartitionError):
        smallest_part_profile(Partition(()))


def test_membership_repeated_smallest_family():
    d2 = ClassSpec("Dk", 2)
    assert is_member(d2, P([7, 0, 0]))
    assert is_member(ClassSpec("Dk_e", 2), P([3, 2, 1, 1]))
    assert is_member(ClassSpec("Dk_o", 2), P([7, 0, 0]))
    assert not is_member(d2, P([7, 0]))
    assert not is_member(d2, P([7, 0, 0, 0]))
    assert not is_member(d2, P([3, 3, 1, 1]))
    assert is_member(ClassSpec("Dk", 4), P([2, 2, 2, 2]))
    assert is_member(ClassSpec("SptKd", 2), P([3, 1, 1]))
    assert not is_member(ClassSpec("SptKd", 2), P([3, 0, 0]))


def test_membership_basic_classes():
    assert not is_member(ClassSpec("B"), P([4, 3]))
    assert is_member(ClassSpec("B"), P([3, 3, 1]))
    assert not is_member(ClassSpec("B"), Partition(()))
    assert is_member(ClassSpec("A"), Partition(()))
    assert is_member(ClassSpec("A"), P([5, 3, 2]))
    assert not is_member(ClassSpec("A"), P([3, 3]))
    assert not is_member(ClassSpec("A"), P([3, 0]))


def test_membership_unique_largest_classes():
    assert is_member(ClassSpec("E"), P([5, 3, 3, 1]))
    assert not is_member(ClassSpec("E"), P([3, 3, 1]))
    assert not is_member(ClassSpec("E"), P([4, 3]))
    assert is_member(ClassSpec("F"), P([4, 3, 1]))
    assert not is_member(ClassSpec("F"), P([4, 4, 1]))
    assert not is_member(ClassSpec("F"), P([4, 2, 1]))
    assert not is_member(ClassSpec("F"), P([5, 3]))


def test_membership_windowed_odd_family():
    assert is_member(ClassSpec("Bk_o", 2), P([4, 1, 1, 1, 1]))
    assert is_member(ClassSpec("Bk_e", 2), P([3, 3, 1, 1]))
    assert not is_member(ClassSpec("Bk_e", 2), P([8]))
    assert not is_member(ClassSpec("Bk_o", 2), P([6, 1, 1]))
    assert is_member(ClassSpec("Bk_o", 3), P([6, 1]))
    assert not is_member(ClassSpec("Bk_e", 2), P([4, 4, 1]))
    assert not is_member(ClassSpec("Bk_e", 2), P([2, 1, 1]))


def test_membership_anchored_family():
    assert is_member(ClassSpec("Ck_o", 2), AnchoredPartition(2, P([4, 2, 2, 1])))
    assert is_member(ClassSpec("Ck_e", 2), AnchoredPartition(4, P([4, 2])))
    assert is_member(ClassSpec("Ck_o", 2), AnchoredPartition(2, P([4, 2])))
    assert not is_member(ClassSpec("Ck_e", 2), AnchoredPartition(4, P([4, 2, 2])))
    assert is_member(ClassSpec("C"), AnchoredPartition(4, P([4, 3, 1])))
    assert not is_member(ClassSpec("C"), AnchoredPartition(2, P([4, 2])))


def test_membership_representation_mismatch():
    with pytest.raises(PartitionError):
        is_member(ClassSpec("Ck_e", 2), P([4, 2]))
    with pytest.raises(PartitionError):
        is_member(ClassSpec("B"), AnchoredPartition(2, P([2, 1])))


def test_membership_distinct_part_classes():
    assert is_member(ClassSpec("P1"), P([7, 5, 2]))
    assert not is_member(ClassSpec("P1"), P([7, 1]))
    assert is_member(ClassSpec("P2"), P([8]))
    assert is_member(ClassSpec("P2"), P([7, 4, 1]))
    assert not is_member(ClassSpec("P2"), P([7, 2, 1]))
    assert is_member(ClassSpec("Pprime", 4), P([4, 1, 1, 1]))
    assert not is_member(ClassSpec("Pprime", 4), P([4, 1, 1]))
    assert is_member(ClassSpec("Pprime", 1), P([4, 2]))
    assert not is_member(ClassSpec("Pprime", 1), P([4, 1]))
    assert is_member(ClassSpec("Pdprime", 4), P([2, 2, 2, 1]))
    assert not is_member(ClassSpec("Pdprime", 4), P([2, 2, 1]))
    assert is_member(ClassSpec("Pdprime", 1), P([6, 1]))
    assert is_member(ClassSpec("Pe_d", ), P([4, 3]))
    assert not is_member(ClassSpec("Po_d"), P([4, 3]))
    assert is_member(ClassSpec("Po_d"), P([7]))
    assert is_member(ClassSpec("Pe_bounded", 4), P([3, 1]))
    assert not is_member(ClassSpec("Pe_bounded", 4), P([4, 1]))
    assert is_member(ClassSpec("Po_bounded", 3), P([2]))


def test_anchor_decompositions_examples():
    two_ways = anchor_decompositions(2, P([4, 2]))
    assert [ap.anchor for ap in two_ways] == [2, 4]
    assert anchor_decompositions(2, P([4, 4, 1])) == [AnchoredPartition(4, P([4, 4, 1]))]
    assert anchor_decompositions(1, P([8, 1])) == [AnchoredPartition(8, P([8, 1]))]
    assert anchor_decompositions(2, P([3, 1])) == []
    assert anchor_decompositions(2, P([4, 0])) == []


def test_anchor_decompositions_every_result_is_member():
    for parts in [(4, 2), (6, 4, 2), (8, 2), (6, 2), (4, 4, 1), (2, 2, 2, 2)]:
        for ap in anchor_decompositions(3, P(parts)):
            extras = sum(1 for v in parts if v > ap.anchor)
            parity = "Ck_e" if extras % 2 == 0 else "Ck_o"
            assert is_member(ClassSpec(parity, 3), ap)


@st.composite
def random_partition(draw):
    parts = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    return P(parts)


@given(random_partition())
def test_profile_consistency(p):
    smallest, mult, rest_distinct = smallest_part_profile(p)
    assert smallest == min(p.parts)
    assert mult == p.parts.count(smallest)
    above = [v for v in p.parts if v != smallest]
    assert rest_distinct == (len(set(above)) == len(above))


@given(random_partition())
def test_from_parts_is_canonical(p):
    assert tuple(sorted(p.parts, reverse=True)) == p.parts
    assert Partition.from_parts(reversed(p.parts)) == p


@given(random_partition(), st.integers(1, 4))
def test_anchor_decompositions_sound(p, k):
    for ap in anchor_decompositions(k, p):
        assert ap.anchor in p.parts
        extras = [v for v in p.parts if v > ap.anchor]
        assert len(extras) <= k - 1
        assert all(v % 2 == 0 for v in extras)
        spec = ClassSpec("Ck_e" if len(extras) % 2 == 0 else "Ck_o", k)
        assert is_member(spec, ap)


# ---------------------------------------------------------------------------
# membership fast paths against their plain definitions
# ---------------------------------------------------------------------------


def _every_partition(n: int, cap: int | None = None):
    """Every partition of n into positive parts no larger than cap."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap or n), 0, -1):
        for rest in _every_partition(n - first, first):
            yield (first,) + rest


def _validate_by_loop(parts) -> str | None:
    """The element-by-element check Partition applies: error text or None."""
    prev = None
    for p in parts:
        if p < 0:
            return f"negative part {p}"
        if prev is not None and p > prev:
            return "parts must be weakly decreasing"
        prev = p
    return None


def test_partition_check_matches_loop_on_small_tuples():
    tuples = [t for length in range(5) for t in product(range(-1, 4), repeat=length)]
    assert len(tuples) == 1 + 5 + 25 + 125 + 625
    for parts in tuples:
        expected = _validate_by_loop(parts)
        if expected is None:
            assert Partition(parts).parts == parts
        else:
            with pytest.raises(PartitionError) as err:
                Partition(parts)
            assert str(err.value) == expected, parts


def test_distinct_and_profile_match_counter_definition():
    for n in range(13):
        for positive in _every_partition(n):
            for zeros in range(4):
                parts = positive + (0,) * zeros
                counts = Counter(parts)
                assert _is_distinct(parts) == all(c == 1 for c in counts.values()), parts
                if not parts:
                    continue
                smallest = parts[-1]
                above = Counter(v for v in parts if v != smallest)
                assert smallest_part_profile(Partition(parts)) == (
                    smallest, counts[smallest], all(c == 1 for c in above.values()))


# is_member over every partition of n <= 12 with 0-3 zeros appended, every
# class id, k = 1..4 where the class takes one and every even anchor: the
# number of answers and the SHA-256 of their 0/1 string, taken from the
# element-by-element predicates before they gained fast paths.
MEMBERSHIP_ANSWERS = 61332
MEMBERSHIP_DIGEST = "d5610aab446aa745f9eca0975c0ce3bda6e990a7ea9d11d9e98ea4c1131ba6a6"


def test_is_member_digest_over_every_class_and_anchor():
    answers = []
    for n in range(13):
        for positive in _every_partition(n):
            for zeros in range(4):
                p = Partition(positive + (0,) * zeros)
                anchors = sorted({v for v in p.parts if v > 0 and v % 2 == 0})
                for cid, (requires_k, anchored) in CLASS_INFO.items():
                    for k in ((1, 2, 3, 4) if requires_k else (None,)):
                        spec = ClassSpec(cid, k)
                        values = [AnchoredPartition(a, p) for a in anchors] if anchored else [p]
                        answers.extend("1" if is_member(spec, v) else "0" for v in values)
    assert len(answers) == MEMBERSHIP_ANSWERS
    assert hashlib.sha256("".join(answers).encode()).hexdigest() == MEMBERSHIP_DIGEST


# ---------------------------------------------------------------------------
# predicates against their copies from before their helpers were inlined
# (tests/oracles.py)
# ---------------------------------------------------------------------------


# predicate calls of the first comparison below, and faulty tuples of the
# second
PREDICATE_CALLS = 154260
PARTITION_FAULTS = 9205


def test_predicates_match_pre_change_copies():
    # every partition of weight <= 18 with 0..5 zeros appended, k = 1..5,
    # and every anchor of each for the anchored classes
    compared = 0
    for n in range(19):
        for positive in _every_partition(n):
            anchors = sorted({v for v in positive if v % 2 == 0})
            for zeros in range(6):
                p = Partition(positive + (0,) * zeros)
                anchored = [AnchoredPartition(a, p) for a in anchors]
                for k in range(1, 6):
                    assert _dk_parts_above(p, k) == oracles._dk_parts_above(p, k), (p, k)
                    assert _bk_evens(p, k) == oracles._bk_evens(p, k), (p, k)
                    for ap in anchored:
                        assert _ck_extras(ap, k) == oracles._ck_extras(ap, k), (ap, k)
                    compared += 2 + len(anchored)
    assert compared == PREDICATE_CALLS


def test_partition_faults_match_pre_change_check():
    # every tuple of length <= 5 over -2..3: the same values are accepted,
    # and the same first fault is named for a negative part or an increase
    faults = 0
    for length in range(6):
        for parts in product(range(-2, 4), repeat=length):
            try:
                oracles.partition_post_init(SimpleNamespace(parts=parts))
                want = None
            except PartitionError as err:
                want = str(err)
            if want is None:
                assert Partition(parts).parts == parts
                continue
            faults += 1
            with pytest.raises(PartitionError) as err:
                Partition(parts)
            assert str(err.value) == want, parts
    assert faults == PARTITION_FAULTS

"""Canonical partition values and membership predicates for every class.

A partition is a weakly decreasing tuple of non-negative integers.  Zero
parts are meaningful only in the repeated-smallest-part family Dk, where
the smallest part may be 0 and is stored explicitly (k zeros); every other
class lives on strictly positive parts.

The C family is counted over *anchored* partitions: the same part multiset
can decompose around different even anchors (witness 4+2 with k=2, which is
an even-extras configuration anchored at 4 and an odd-extras configuration
anchored at 2), so an :class:`AnchoredPartition` carries the chosen anchor
alongside the multiset.  :func:`anchor_decompositions` lists every valid
anchor of a raw multiset for diagnostics.

Each class is defined once, as one row of the ``_CLASSES`` table: whether
it takes k, whether it is counted over anchored partitions, and its
membership predicate ``member(value, k)``.  :class:`ClassSpec`,
:func:`is_member` and the ``CLASS_INFO`` view read that table; the shape
that enumerates each class's members and its generating function sit in
the matching table ``_ENGINES`` of :mod:`qpart.counting`.

Class identifiers
-----------------

==============  ==============================================================
A               distinct positive parts
B               all parts odd
C               anchored: even anchor 2l, no part above it, parts <= l distinct
Dk              smallest part exactly k times, all other parts distinct,
                non-negative parts (k explicit zeros when the smallest is 0)
Dk_e / Dk_o     Dk members with an even / odd number of parts above the
                smallest
Bk_e / Bk_o     all parts odd except an even / odd number of distinct even
                parts inside [2l+2, 2l+2k-2], with 2l-1 the largest odd part
Ck_e / Ck_o     anchored C with up to k-1 distinct even parts above the
                anchor inside [2l+2, 2l+2k-2], of even / odd count
E               all parts odd, largest part unique
F               largest part even and unique, all other parts odd
P1              distinct parts, smallest part >= 2
P2              distinct parts, gap >= 2 between the two smallest parts
                (single-part partitions qualify vacuously)
Pprime          distinct parts except the part 1 appears exactly k-1 times
                (k=1: distinct parts, none equal to 1)
Pdprime         distinct parts except the second smallest appears exactly
                k-1 times at distance 1 above the smallest (k=1: same as P2)
Pe_d / Po_d     distinct parts, even / odd number of parts
Pe_bounded /    distinct parts not exceeding k-1, even / odd number of parts
Po_bounded
SptKd           positive smallest part exactly k times, other parts distinct
==============  ==============================================================
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from operator import ge, gt, neg
from typing import NamedTuple


class PartitionError(ValueError):
    """Malformed partition input (ordering, sign, or representation kind)."""


@dataclass(frozen=True, slots=True, init=False)
class Partition:
    """Weakly decreasing tuple of non-negative integer parts, checked in one
    frame at C speed; only a faulty tuple pays the loop naming its fault."""

    parts: tuple[int, ...]

    def __init__(self, parts: tuple[int, ...]) -> None:
        if parts and not (parts[-1] >= 0 and all(map(ge, parts, parts[1:]))):
            _raise_first_fault(parts)
        _set_parts(self, parts)

    @classmethod
    def from_parts(cls, parts) -> "Partition":
        """Sort any iterable of parts into canonical descending order."""
        return cls(tuple(sorted(parts, reverse=True)))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def multiplicities(self) -> Counter:
        return Counter(self.parts)

    def to_json(self) -> list[int]:
        return list(self.parts)

    def __str__(self) -> str:
        if not self.parts:
            return "(empty)"
        return "+".join(str(p) for p in self.parts)


_set_parts = Partition.parts.__set__  # the slot's setter, past the frozen __setattr__


def _raise_first_fault(parts) -> None:
    """Name the first negative part or increase of parts."""
    prev = None
    for p in parts:
        if p < 0:
            raise PartitionError(f"negative part {p}")
        if prev is not None and p > prev:
            raise PartitionError("parts must be weakly decreasing")
        prev = p


@dataclass(frozen=True, slots=True)
class AnchoredPartition:
    """A partition together with the even anchor part 2l that fixes its
    decomposition into core (parts <= 2l) and window extras (parts > 2l)."""

    anchor: int
    partition: Partition

    def __post_init__(self) -> None:
        if self.anchor <= 0 or self.anchor % 2:
            raise PartitionError(f"anchor must be a positive even part, got {self.anchor}")
        if self.anchor not in self.partition.parts:
            raise PartitionError(f"anchor {self.anchor} is not a part of {self.partition}")

    @property
    def weight(self) -> int:
        return self.partition.weight

    def to_json(self) -> dict:
        return {"anchor": self.anchor, "parts": self.partition.to_json()}

    def __str__(self) -> str:
        return f"[{self.anchor}] {self.partition}"


@dataclass(frozen=True, slots=True)
class ClassSpec:
    """A partition class identifier plus its k parameter where required."""

    class_id: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.class_id not in _CLASSES:
            raise PartitionError(f"unknown class id {self.class_id!r}")
        if _CLASSES[self.class_id].requires_k:
            if type(self.k) is not int or self.k < 1:
                raise PartitionError(f"class {self.class_id} needs a positive k")
        elif self.k is not None:
            raise PartitionError(f"class {self.class_id} takes no k parameter")

    @property
    def anchored(self) -> bool:
        return _CLASSES[self.class_id].anchored

    def __str__(self) -> str:
        return self.class_id if self.k is None else f"{self.class_id}(k={self.k})"


# ---------------------------------------------------------------------------
# membership predicates.  A parity-split family has one predicate that returns
# the count whose parity splits it (None off the family); _parity_half keeps
# one parity of it.
# ---------------------------------------------------------------------------

def _all_positive(p: Partition) -> bool:
    return not p.parts or p.parts[-1] >= 1


def _is_distinct(parts: tuple[int, ...]) -> bool:
    """Whether weakly decreasing parts are all distinct."""
    return all(map(gt, parts, parts[1:]))


def _parity_half(count_of, parity: int):
    """Membership in the half of a split family whose count has this parity."""
    def member(value, k) -> bool:
        count = count_of(value, k)
        return count is not None and count % 2 == parity
    return member


def _member_a(p: Partition, k: None) -> bool:
    return _all_positive(p) and _is_distinct(p.parts)


def _distinct_length(p: Partition, k: int | None) -> int | None:
    """Number of parts of a distinct-part partition, every part below k if
    k is given."""
    if not _all_positive(p) or not _is_distinct(p.parts):
        return None
    if k is not None and p.parts and p.parts[0] >= k:
        return None
    return len(p.parts)


# v -> v % 2, for map: the odd-part scans run at C speed
_odd = (2).__rmod__


def _member_b(p: Partition, k: None) -> bool:
    # Counts partitions with at least one part; the empty partition is not
    # a B member even though the all-odd condition is vacuous on it.
    return bool(p.parts) and p.parts[-1] >= 1 and all(map(_odd, p.parts))


def _dk_parts_above(p: Partition, k: int) -> int | None:
    """Number of parts above the smallest of a Dk member."""
    parts = p.parts
    above = len(parts) - k
    # The smallest fills exactly the last k places: parts[above] equals it,
    # and parts[:above + 1] distinct puts parts[above - 1] above it.
    if above < 0 or parts[above] != parts[-1] or not _is_distinct(parts[:above + 1]):
        return None
    return above


def _member_dk(p: Partition, k: int) -> bool:
    return _dk_parts_above(p, k) is not None


def _member_sptkd(p: Partition, k: int) -> bool:
    return _dk_parts_above(p, k) is not None and p.parts[-1] >= 1


def _bk_evens(p: Partition, k: int) -> int | None:
    """Number of even window parts of a Bk member of either parity."""
    parts = p.parts
    if not parts or parts[-1] < 1:
        return None
    # The window lies above the largest odd part, so its evens are a prefix.
    evens = 0
    for v in parts:
        if v % 2:
            break
        evens += 1
    else:
        return None
    top = parts[evens]  # 2l-1, so the window [2l+2, 2l+2k-2] is [top+3, top+2k-1]
    if evens and (parts[0] > top + 2 * k - 1 or parts[evens - 1] < top + 3
                  or not _is_distinct(parts[:evens])):
        return None
    return evens if all(map(_odd, parts[evens + 1:])) else None


def _ck_extras(ap: AnchoredPartition, k: int) -> int | None:
    """Number of window extras of a valid anchored decomposition, else None."""
    parts = ap.partition.parts
    if parts and parts[-1] < 1:
        return None
    anchor = ap.anchor
    # The extras are the prefix above the anchor 2l: distinct even parts no
    # larger than 2l+2k-2.  An even part above 2l is at least 2l+2, the
    # window's low end, and distinct window values number at most k-1.
    extras = 0
    bound = anchor + 2 * k - 1
    for v in parts:
        if v <= anchor:
            break
        if v % 2 or v >= bound:
            return None
        bound = v
        extras += 1
    # The parts <= l are a suffix; they must be distinct.
    small = bisect_left(parts, -(anchor // 2), key=neg)
    return extras if _is_distinct(parts[small:]) else None


def _member_c(ap: AnchoredPartition, k: None) -> bool:
    # C is Ck_e at k = 1, whose window is empty: no extras.
    return _ck_extras(ap, 1) == 0


def _member_e(p: Partition, k: None) -> bool:
    if not p.parts or p.parts[-1] < 1:
        return False
    if not all(map(_odd, p.parts)):
        return False
    return len(p.parts) == 1 or p.parts[0] > p.parts[1]


def _member_f(p: Partition, k: None) -> bool:
    if not p.parts or p.parts[-1] < 1:
        return False
    if p.parts[0] % 2:
        return False
    if len(p.parts) > 1 and p.parts[1] == p.parts[0]:
        return False
    return all(map(_odd, p.parts[1:]))


def _member_p1(p: Partition, k: None) -> bool:
    return bool(p.parts) and _is_distinct(p.parts) and p.parts[-1] >= 2


def _member_pprime(p: Partition, k: int) -> bool:
    # k = 1: distinct parts, none equal to 1
    rest = tuple(v for v in p.parts if v > 1)
    return _all_positive(p) and len(p.parts) - len(rest) == k - 1 and _is_distinct(rest)


def _member_pdprime(p: Partition, k: int) -> bool:
    # k = 1: distinct parts, gap >= 2 between the two smallest (class P2)
    if len(p.parts) < k or p.parts[-1] < 1:
        return False
    s = p.parts[-1]
    if p.parts.count(s) != 1 or p.parts.count(s + 1) != k - 1:
        return False
    rest = tuple(v for v in p.parts if v > s + 1)
    return _is_distinct(rest) and len(rest) + k == len(p.parts)


def _member_p2(p: Partition, k: None) -> bool:
    # P2 is Pdprime at k = 1.
    return _member_pdprime(p, 1)


class _ClassDef(NamedTuple):
    requires_k: bool
    anchored: bool
    member: Callable  # (value, k) -> bool; k is None for a class without one


# class id -> definition; C is Ck_e and P2 is Pdprime, both at k = 1
_CLASSES: dict[str, _ClassDef] = {
    "A": _ClassDef(False, False, _member_a),
    "B": _ClassDef(False, False, _member_b),
    "C": _ClassDef(False, True, _member_c),
    "Dk": _ClassDef(True, False, _member_dk),
    "Dk_e": _ClassDef(True, False, _parity_half(_dk_parts_above, 0)),
    "Dk_o": _ClassDef(True, False, _parity_half(_dk_parts_above, 1)),
    "Bk_e": _ClassDef(True, False, _parity_half(_bk_evens, 0)),
    "Bk_o": _ClassDef(True, False, _parity_half(_bk_evens, 1)),
    "Ck_e": _ClassDef(True, True, _parity_half(_ck_extras, 0)),
    "Ck_o": _ClassDef(True, True, _parity_half(_ck_extras, 1)),
    "E": _ClassDef(False, False, _member_e),
    "F": _ClassDef(False, False, _member_f),
    "P1": _ClassDef(False, False, _member_p1),
    "P2": _ClassDef(False, False, _member_p2),
    "Pprime": _ClassDef(True, False, _member_pprime),
    "Pdprime": _ClassDef(True, False, _member_pdprime),
    "Pe_d": _ClassDef(False, False, _parity_half(_distinct_length, 0)),
    "Po_d": _ClassDef(False, False, _parity_half(_distinct_length, 1)),
    "Pe_bounded": _ClassDef(True, False, _parity_half(_distinct_length, 0)),
    "Po_bounded": _ClassDef(True, False, _parity_half(_distinct_length, 1)),
    "SptKd": _ClassDef(True, False, _member_sptkd),
}

# class_id -> (requires k, counted over anchored partitions)
CLASS_INFO: dict[str, tuple[bool, bool]] = {
    cid: (row.requires_k, row.anchored) for cid, row in _CLASSES.items()}


def is_member(spec: ClassSpec, p: Partition | AnchoredPartition) -> bool:
    """Decide membership of a canonical value in the given class.

    C-family classes take an :class:`AnchoredPartition`; every other class
    takes a plain :class:`Partition`.  Supplying the wrong representation
    raises :class:`PartitionError`.
    """
    row = _CLASSES[spec.class_id]
    if row.anchored:
        if not isinstance(p, AnchoredPartition):
            raise PartitionError(f"class {spec} is counted over anchored partitions")
    elif isinstance(p, AnchoredPartition):
        raise PartitionError(f"class {spec} takes a plain partition, not an anchored one")
    return row.member(p, spec.k)


def anchor_decompositions(k: int, p: Partition) -> list[AnchoredPartition]:
    """Every valid anchor of a raw multiset for the C family at parameter k.

    An anchor 2l qualifies when all parts above 2l are distinct even window
    extras in [2l+2, 2l+2k-2] (at most k-1 of them) and all parts <= l are
    distinct.  The list is empty when no anchor works; more than one entry
    is exactly the raw-counting ambiguity the anchored representation
    resolves.
    """
    if k < 1:
        raise PartitionError("k must be positive")
    out = []
    for anchor in sorted({v for v in p.parts if v % 2 == 0 and v > 0}):
        ap = AnchoredPartition(anchor, p)
        if _ck_extras(ap, k) is not None:
            out.append(ap)
    return out

"""Executable, invertible maps between the partition classes.

Every map ships with its inverse; round-trip identity and target-class
membership are both machine-checked by the test suite over exhaustive
weight ranges.  Every call checks too, however often that member has been
seen: each map but Glaisher's tests its input with ``is_member``, and the
akdk, dk-recurrence, bkck and sketch maps, both ways, test their image too.
Speed comes from cheaper checks, never from fewer.  Outcomes carry a
case-tag chain recording which branch of the case analysis fired, which is
what makes the piecewise inverses well-defined (several branches can
produce the same raw multiset in different target classes).

The base map between all-odd partitions of n and anchored even-largest
partitions of n+1 comes in two strategies:

``rank``
    Glaisher's merge capped at the anchor; default.  A member with largest
    part 2l-1 keeps the anchor 2l.  In the rest, an odd value a of
    multiplicity f = q*2^E + r, with a*2^E the largest a*2^e <= 2l, becomes
    q parts a*2^E and a part a*2^e for each binary digit 2^e of r.  This is
    a bijection onto the anchored members at 2l: a core part with odd part a
    is a*2^E, in (l, 2l] and free to repeat, or a*2^e with e < E, at most l
    and distinct, so division by 2^E recovers f.  Both sides have the
    generating function 1/(q; q^2)_l (Andrews, *The Theory of Partitions*,
    ch. 1-2).  The map keeps the anchor, which the windowed recursion below
    needs when it re-attaches stripped window parts.  The benchmark's case
    names read the name ``rank``, so it changes with the benchmark.

``aky-sketch``
    The sketched construction: add 1 to the largest odd part to create the
    anchor, then binary-merge the remaining odd multiplicities.  The merge
    can overshoot the anchor (1+1+...+1 of weight 8 produces a part 4 above
    anchor 2), so this strategy is run under a harness that records
    membership failures instead of asserting success.

``MAPS`` holds each public map once, by its ``qpart bijection --name``.  A
row's ``sweep(**flags)`` gives the (source class, [(forward, inverse), ...])
pairs a weight-n round-trip runs, ``apply(value, **flags)`` the (image, case
tags) of one input, and ``domain(n, **flags)`` why no member of weight n is in
the domain, or None.  The flags a row reads are the other parameters in these
signatures; one without a default is required.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache, partial
from typing import NamedTuple

from ._record import Record
from .counting import enumerate_class
from .partitions import (
    AnchoredPartition,
    ClassSpec,
    Partition,
    PartitionError,
    _all_odd,
    is_member,
)

RANK = "rank"
AKY_SKETCH = "aky-sketch"
STRATEGIES = (RANK, AKY_SKETCH)

# the classes the maps check that take no k
_A, _B, _C, _E, _F = (ClassSpec(cid) for cid in ("A", "B", "C", "E", "F"))
_P1, _P2 = ClassSpec("P1"), ClassSpec("P2")

# One ClassSpec per (class id, k), built on first use and shared by every
# later call.  A bkck sweep at k reads two specs per level 1..k, and akdk
# and dk-recurrence three each, so the bound holds every spec of many
# sweeps in one process.
_spec = lru_cache(maxsize=128)(ClassSpec)


class BijectionError(ValueError):
    """Input outside a map's domain, or an image outside its target class."""


class SketchMembershipError(BijectionError):
    """The sketched base map produced a multiset outside the target class."""

    def __init__(self, source: Partition, candidate: AnchoredPartition):
        super().__init__(
            f"sketch image {candidate} of {source} is not an anchored member"
        )
        self.source = source
        self.candidate = candidate


class BijectionOutcome(Record):
    """Image of one map application plus its target class and case trace."""

    __slots__ = ("image", "target_class", "case_tag")

    def __init__(self, image: Partition | AnchoredPartition, target_class: ClassSpec,
                 case_tag: tuple[str, ...]) -> None:
        _set_image(self, image)
        _set_target_class(self, target_class)
        _set_case_tag(self, case_tag)


# the slots' setters, past the refusing __setattr__
_set_image = BijectionOutcome.image.__set__
_set_target_class = BijectionOutcome.target_class.__set__
_set_case_tag = BijectionOutcome.case_tag.__set__


# ---------------------------------------------------------------------------
# binary merge/split between odd-part and distinct-part partitions
# ---------------------------------------------------------------------------


def _merge(parts, cap: int) -> list[int]:
    """Odd parts, each at most cap, merged as ``rank`` merges them under 2l
    (module docstring), largest first.  A cap of at least the weight caps
    nothing: that is Glaisher's merge."""
    out = []
    for a in set(parts):
        f = parts.count(a)
        if f == 1:  # a itself, under any cap
            out.append(a)
            continue
        e = (cap // a).bit_length() - 1  # a << e is the largest a * 2^e <= cap
        out += [a << e] * (f >> e)
        r = f & ((1 << e) - 1)
        while r:
            digit = r & -r  # the lowest binary digit 2^e of r
            out.append(a * digit)
            r ^= digit
    out.sort(reverse=True)
    return out


def _split(parts) -> list[int]:
    """Each part m = 2^e * a (a odd) as 2^e copies of a, largest first."""
    out = []
    for m in parts:
        if m & 1:
            out.append(m)
        else:
            copies = m & -m  # 2^e, the largest power of 2 dividing m
            out += [m // copies] * copies
    out.sort(reverse=True)
    return out


def glaisher_merge(p: Partition) -> Partition:
    """Odd parts to distinct parts: an odd value a of multiplicity
    f = sum 2^e_i (binary digits) becomes the parts a * 2^e_i."""
    parts = p.parts
    if not _all_odd(parts):
        raise BijectionError("merge needs all parts odd")
    return Partition(tuple(_merge(parts, sum(parts))))


def glaisher_split(p: Partition) -> Partition:
    """Distinct parts back to odd parts: m = 2^e * a (a odd) becomes 2^e
    copies of a.  Defined on any all-positive partition."""
    parts = p.parts
    if parts and parts[-1] < 1:  # the smallest part is the last
        raise BijectionError("split needs positive parts")
    return Partition(tuple(_split(parts)))


# ---------------------------------------------------------------------------
# repeated-smallest-part family onto the four distinct-part classes
# ---------------------------------------------------------------------------


def _akdk_domain(n: int) -> str | None:
    return "map defined for weight >= 2" if n < 2 else None


def akdk_map(k: int, p: Partition) -> BijectionOutcome:
    """Subtract 1 from the smallest part of a Dk member of weight n >= 2.

    The four-way case split (smallest zero or repeated, equal to 1 or not)
    lands in exactly one of P2, P1, Pdprime, Pprime at weight n-1.
    """
    if reason := _akdk_domain(p.weight):
        raise BijectionError(reason)
    if not is_member(_spec("Dk", k), p):
        raise BijectionError(f"{p} is not a Dk member (k={k})")
    parts = p.parts
    if parts[-1] == 0:
        positives = parts[:-k]
        t = positives[-1]
        if t > 1:
            image = Partition(positives[:-1] + (t - 1,))
            target, tag = _P2, "distinct,smallest>1"
        else:
            image = Partition(positives[:-1])
            target, tag = _P1, "distinct,smallest=1"
    else:
        s = parts[-1]
        if s > 1:
            image = Partition(parts[:-1] + (s - 1,))
            target, tag = _spec("Pdprime", k), "repeated,smallest>1"
        else:
            image = Partition(parts[:-1])
            target, tag = _spec("Pprime", k), "repeated,smallest=1"
    if not is_member(target, image):
        raise BijectionError(f"image {image} is not in {target}")
    return BijectionOutcome(image, target, (tag,))


def akdk_inverse(k: int, outcome: BijectionOutcome) -> Partition:
    """Add 1 back to the appropriate part and restore the Dk form."""
    image = outcome.image
    if not isinstance(image, Partition):
        raise BijectionError("akdk images are plain partitions")
    cid = outcome.target_class.class_id
    parts = image.parts
    # A member's raised or appended part lands in place; a forged image's may not.
    try:
        if cid == "P2":
            result = Partition(parts[:-1] + (parts[-1] + 1,) + (0,) * k)
        elif cid == "P1":
            result = Partition(parts + (1,) + (0,) * k)
        elif cid == "Pdprime":
            result = Partition(parts[:-1] + (parts[-1] + 1,))
        elif cid == "Pprime":
            result = Partition(parts + (1,))
        else:
            raise BijectionError(f"unexpected target class {outcome.target_class}")
    except (IndexError, PartitionError) as err:
        raise BijectionError(f"image {image} is not in {outcome.target_class}") from err
    if not is_member(_spec("Dk", k), result):
        raise BijectionError(f"inverse image {result} is not a Dk member")
    return result


# ---------------------------------------------------------------------------
# Dk + Dk-1 recurrence map
# ---------------------------------------------------------------------------

SOURCE_DK = "Dk"
SOURCE_DK_MINUS_1 = "Dk-1"

# the case tags, built once: source -> tags of a zero-smallest input, and
# (source, smallest part is 1) -> tags of a shifted one
_ZEROS_TAGS = {source: (f"zeros,{source}",) for source in (SOURCE_DK, SOURCE_DK_MINUS_1)}
_SHIFT_TAGS = {(source, one): (f"shift,{source},{'smallest=1' if one else 'smallest>1'}",)
               for source in (SOURCE_DK, SOURCE_DK_MINUS_1) for one in (True, False)}


def _dk_recurrence_domain(n: int, k: int) -> str | None:
    if k < 2:
        return "recurrence needs k >= 2"
    return "weight must exceed k-1" if n <= k - 1 else None


def dk_recurrence_map(k: int, p: Partition, source: str) -> BijectionOutcome:
    """Subtract 1 from each of the k-1 smallest parts.

    Input is a Dk(n) or Dk-1(n) member (tagged by `source`); zero-smallest
    inputs instead drop their zeros and land in one of two copies of the
    distinct-parts class at weight n.  The other images fill four disjoint
    sub-ranges of Dk-1(n-k+1) distinguished by the smallest part and the
    gap above it.
    """
    if reason := _dk_recurrence_domain(p.weight, k):
        raise BijectionError(reason)
    if source not in (SOURCE_DK, SOURCE_DK_MINUS_1):
        raise BijectionError(f"unknown source tag {source!r}")
    mult = k if source == SOURCE_DK else k - 1
    if not is_member(_spec("Dk", mult), p):
        raise BijectionError(f"{p} is not a D-member with smallest multiplicity {mult}")
    parts = p.parts
    if parts[-1] == 0:
        image = Partition(parts[:-mult])
        out = BijectionOutcome(image, _A, _ZEROS_TAGS[source])
        if not is_member(_A, image):
            raise BijectionError(f"{image} not distinct")
        return out
    s = parts[-1]
    image = Partition(parts[: len(parts) - (k - 1)] + (s - 1,) * (k - 1))
    target = _spec("Dk", k - 1)
    if not is_member(target, image):
        raise BijectionError(f"image {image} is not in {target}")
    return BijectionOutcome(image, target, _SHIFT_TAGS[source, s == 1])


def dk_recurrence_subrange(k: int, image: Partition) -> str:
    """Which of the four Dk-1 sub-ranges a shifted image belongs to.

    a: smallest 0, smallest positive part 1        (from Dk, s=1)
    b: smallest s>=1 with a part s+1 present       (from Dk, s>1)
    c: smallest 0, smallest positive part > 1      (from Dk-1, s=1)
    d: smallest s>=1, no part s+1                  (from Dk-1, s>1)
    """
    parts = image.parts
    s = parts[-1]
    if s == 0:
        positives = [v for v in parts if v > 0]
        if not positives:
            raise BijectionError("zero-weight image has no sub-range")
        return "a" if positives[-1] == 1 else "c"
    return "b" if s + 1 in parts else "d"


def dk_recurrence_inverse(k: int, outcome: BijectionOutcome) -> tuple[Partition, str]:
    """Recover (source partition, source tag) from a tagged image."""
    if k < 2:
        raise BijectionError("recurrence needs k >= 2")
    image = outcome.image
    if not isinstance(image, Partition):
        raise BijectionError("recurrence images are plain partitions")
    parts = image.parts
    if outcome.target_class.class_id == "A":
        from_dk = outcome.case_tag[0].endswith(SOURCE_DK)
        result = Partition(parts + (0,) * (k if from_dk else k - 1))
    else:
        # a Dk-1 member's part above its k-1 smallest parts s is at least s + 1
        try:
            from_dk = dk_recurrence_subrange(k, image) in ("a", "b")
            result = Partition(parts[: len(parts) - (k - 1)] + (parts[-1] + 1,) * (k - 1))
        except (IndexError, PartitionError) as err:
            raise BijectionError(f"image {image} is not in {outcome.target_class}") from err
    if not is_member(_spec("Dk", k if from_dk else k - 1), result):
        raise BijectionError(f"inverse image {result} is not a Dk member")
    return result, SOURCE_DK if from_dk else SOURCE_DK_MINUS_1


# ---------------------------------------------------------------------------
# base map: all-odd partitions of n to anchored partitions of n+1
# ---------------------------------------------------------------------------


def base_bc_map(p: Partition, strategy: str = RANK) -> AnchoredPartition:
    """Map an all-odd partition of n to an anchored partition of n+1."""
    if not is_member(_B, p):
        raise BijectionError(f"{p} is not an all-odd partition")
    l = (p.parts[0] + 1) // 2  # an all-odd member's largest part is 2l-1
    if strategy == RANK:
        anchor = 2 * l
        return AnchoredPartition(anchor, Partition((anchor, *_merge(p.parts[1:], anchor))))
    if strategy == AKY_SKETCH:
        merged = glaisher_merge(Partition(p.parts[1:]))
        candidate = AnchoredPartition(2 * l, Partition.from_parts(merged.parts + (2 * l,)))
        if not is_member(_C, candidate):
            raise SketchMembershipError(p, candidate)
        return candidate
    raise BijectionError(f"unknown strategy {strategy!r}")


def base_bc_inverse(ap: AnchoredPartition, strategy: str = RANK) -> Partition:
    """Map an anchored partition of n+1 back to an all-odd partition of n."""
    if not is_member(_C, ap):
        raise BijectionError(f"{ap} is not an anchored member")
    if strategy == RANK:
        # a C member's largest part is its anchor; the other parts are at
        # most 2l, so their odd parts at most 2l-1
        return Partition((ap.anchor - 1, *_split(ap.partition.parts[1:])))
    if strategy == AKY_SKETCH:
        rest = list(ap.partition.parts)
        rest.remove(ap.anchor)
        split = glaisher_split(Partition(tuple(rest))) if rest else Partition(())
        # the other parts are at most 2l, so their odd parts at most 2l-1
        result = Partition((ap.anchor - 1,) + split.parts)
        if not is_member(_B, result):
            raise BijectionError(f"sketch inverse image {result} is not all-odd")
        return result
    raise BijectionError(f"unknown strategy {strategy!r}")


class SketchReport(Record):
    """Outcome of running the sketched base map over one weight class."""

    __slots__ = ("weight", "attempted", "succeeded", "failures")

    def __init__(self, weight: int, attempted: int, succeeded: int,
                 failures: tuple[tuple[Partition, AnchoredPartition], ...]) -> None:
        self._set(weight, attempted, succeeded, failures)

    def to_json_dict(self) -> dict:
        return {
            "weight": self.weight,
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "failures": [
                {"source": src.to_json(), "candidate": cand.to_json()}
                for src, cand in self.failures
            ],
        }


def sketch_harness(n: int) -> SketchReport:
    """Run the sketched base map over every all-odd partition of n, flagging
    membership failures instead of raising."""
    attempted = succeeded = 0
    failures = []
    for p in enumerate_class(_B, n):
        attempted += 1
        try:
            image = base_bc_map(p, AKY_SKETCH)
        except SketchMembershipError as err:
            failures.append((p, err.candidate))
            continue
        succeeded += 1
        roundtrip = base_bc_inverse(image, AKY_SKETCH)
        if roundtrip != p:
            failures.append((p, image))
    return SketchReport(n, attempted, succeeded, tuple(failures))


# ---------------------------------------------------------------------------
# windowed families: strip the largest window part and recurse
# ---------------------------------------------------------------------------


def _parity_flip(parity: str) -> str:
    return "o" if parity == "e" else "e"


def bkck_map(k: int, parity: str, p: Partition,
             strategy: str = RANK) -> BijectionOutcome:
    """Windowed family map, odd side of weight n to anchored side of n+1.

    A member's window parts are the even prefix above its largest odd part.
    Strips the first, m = parts[0], recurses one window level down with
    flipped parity, and re-attaches m in front: the image keeps the anchor,
    below m.  With no window parts it is exactly the base map.
    """
    if parity not in ("e", "o"):
        raise BijectionError("parity must be 'e' or 'o'")
    spec = _spec(f"Bk_{parity}", k)
    if not is_member(spec, p):
        raise BijectionError(f"{p} is not a member of {spec}")
    m = p.parts[0]
    if m % 2:
        image = base_bc_map(p, strategy)
        outcome = BijectionOutcome(image, _spec(f"Ck_{parity}", k),
                                   (f"base[{strategy}]:anchor={image.anchor}",))
    else:
        sub = bkck_map(k - 1, _parity_flip(parity), Partition(p.parts[1:]), strategy)
        lifted = AnchoredPartition(
            sub.image.anchor, Partition((m,) + sub.image.partition.parts))
        outcome = BijectionOutcome(lifted, _spec(f"Ck_{parity}", k),
                                   (f"strip:{m}",) + sub.case_tag)
    if not is_member(outcome.target_class, outcome.image):
        raise BijectionError(f"image {outcome.image} is not in {outcome.target_class}")
    return outcome


def bkck_inverse(k: int, parity: str, ap: AnchoredPartition,
                 strategy: str = RANK) -> BijectionOutcome:
    """Inverse direction: anchored side of weight n+1 to odd side of n.

    A member's window extras are the prefix above its anchor.  Strips the
    first, m = parts[0], recurses one level down with flipped parity, and
    re-attaches m in front of the image, whose parts are all below m.
    """
    if parity not in ("e", "o"):
        raise BijectionError("parity must be 'e' or 'o'")
    spec = _spec(f"Ck_{parity}", k)
    if not is_member(spec, ap):
        raise BijectionError(f"{ap} is not a member of {spec}")
    parts = ap.partition.parts
    m = parts[0]
    if m <= ap.anchor:
        image = base_bc_inverse(ap, strategy)
        outcome = BijectionOutcome(image, _spec(f"Bk_{parity}", k),
                                   (f"base[{strategy}]:anchor={ap.anchor}",))
    else:
        stripped = AnchoredPartition(ap.anchor, Partition(parts[1:]))
        sub = bkck_inverse(k - 1, _parity_flip(parity), stripped, strategy)
        lifted = Partition((m,) + sub.image.parts)
        outcome = BijectionOutcome(lifted, _spec(f"Bk_{parity}", k),
                                   (f"strip:{m}",) + sub.case_tag)
    if not is_member(outcome.target_class, outcome.image):
        raise BijectionError(f"image {outcome.image} is not in {outcome.target_class}")
    return outcome


# ---------------------------------------------------------------------------
# largest-part shifts between the odd-parts class and E / F
# ---------------------------------------------------------------------------

# direction -> (source class, change to the largest part, what a non-member lacks)
_EF_SHIFTS = {
    "B->F": (_B, 1, "is not all-odd"),
    "F->B": (_F, -1, "has no unique even largest part"),
    "B->E": (_B, 2, "is not all-odd"),
    "E->B": (_E, -2, "is not odd with unique largest part"),
}
EF_DIRECTIONS = tuple(_EF_SHIFTS)


def ef_shift(direction: str, p: Partition) -> Partition:
    """Add or remove 1 (F directions) or 2 (E directions) on the largest
    part, moving between the all-odd class and the unique-largest classes."""
    if direction not in _EF_SHIFTS:
        raise BijectionError(f"direction must be one of {EF_DIRECTIONS}")
    source, step, fault = _EF_SHIFTS[direction]
    if not is_member(source, p):
        raise BijectionError(f"{p} {fault}")
    largest = p.parts[0] + step
    # only E->B can reach 0 or below: an F member's largest part is even, so at least 2
    if largest < 1:
        raise BijectionError("largest part must be at least 3 to shift down")
    return Partition((largest,) + p.parts[1:])


# ---------------------------------------------------------------------------
# the public maps by name: how `qpart bijection` sweeps and applies each one
# ---------------------------------------------------------------------------


class MapRow(NamedTuple):
    sweep: Callable
    apply: Callable
    domain: Callable = lambda n: None


def _tagged(out: BijectionOutcome) -> tuple:
    return out.image, out.case_tag


def _dk_recurrence_sweep(k: int):
    # lazily: at k = 1, Dk(1) refuses a negative weight before Dk(0) is built
    for source, mult in ((SOURCE_DK, k), (SOURCE_DK_MINUS_1, k - 1)):
        yield ClassSpec("Dk", mult), [(partial(dk_recurrence_map, k, source=source),
                                       lambda out: dk_recurrence_inverse(k, out)[0])]


def _base_bc_apply(value, strategy: str = RANK) -> tuple:
    inverse = isinstance(value, AnchoredPartition)
    return (base_bc_inverse if inverse else base_bc_map)(value, strategy), (f"base[{strategy}]",)


def _bkck_apply(value, k: int, parity: str, strategy: str = RANK) -> tuple:
    inverse = isinstance(value, AnchoredPartition)
    return _tagged((bkck_inverse if inverse else bkck_map)(k, parity, value, strategy))


MAPS: dict[str, MapRow] = {
    "glaisher": MapRow(
        sweep=lambda: [(_B, [(glaisher_merge, glaisher_split)])],
        apply=lambda value: (glaisher_merge(value), ("binary-merge",))),
    "akdk": MapRow(
        sweep=lambda k: [(ClassSpec("Dk", k), [(partial(akdk_map, k), partial(akdk_inverse, k))])],
        apply=lambda value, k: _tagged(akdk_map(k, value)),
        domain=_akdk_domain),
    "dk-recurrence": MapRow(
        sweep=_dk_recurrence_sweep,
        apply=lambda value, k, source=SOURCE_DK: _tagged(dk_recurrence_map(k, value, source)),
        domain=_dk_recurrence_domain),
    "base-bc": MapRow(
        sweep=lambda strategy=RANK: [(_B, [(partial(base_bc_map, strategy=strategy),
                                            partial(base_bc_inverse, strategy=strategy))])],
        apply=_base_bc_apply),
    "bkck": MapRow(
        sweep=lambda k, parity, strategy=RANK: [(
            ClassSpec(f"Bk_{parity}", k),
            [(partial(bkck_map, k, parity, strategy=strategy),
              lambda out: bkck_inverse(k, parity, out.image, strategy).image)])],
        apply=_bkck_apply),
    "ef-shift": MapRow(
        sweep=lambda: [(_B, [(partial(ef_shift, "B->F"), partial(ef_shift, "F->B")),
                             (partial(ef_shift, "B->E"), partial(ef_shift, "E->B"))])],
        apply=lambda value, direction: (ef_shift(direction, value), (direction,))),
}

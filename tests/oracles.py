"""Reference code that the package replaced, kept verbatim for the tests
that compare the new code with it."""

import itertools
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import accumulate, islice
from operator import add, ge, neg

from qpart import bijections, counting
from qpart.bijections import (
    AKY_SKETCH,
    RANK,
    SOURCE_DK,
    SOURCE_DK_MINUS_1,
    STRATEGIES,
    BijectionError,
    BijectionOutcome,
    SketchMembershipError,
    _B,
    _C,
    _parity_flip,
    _spec,
    dk_recurrence_subrange,
)
from qpart.counting import _c_core, _distinct, _odd_multiset, count_row, enumerate_class
from qpart.partitions import (
    CLASS_INFO,
    AnchoredPartition,
    ClassSpec,
    Partition,
    PartitionError,
    _all_positive,
    _is_distinct,
    _raise_first_fault,
    is_member,
)
from qpart.series import (
    MINUS,
    PLUS,
    TruncatedSeries,
    pochhammer_finite,
    pochhammer_infinite,
    pochhammer_infinite_starts,
)


def odd_parts_by_reciprocal(order: int) -> TruncatedSeries:
    """B's generating function as `gf` built it before it divided by one
    factor at a time: the product (q; q^2)_inf, inverted as a series."""
    return pochhammer_infinite(MINUS, 1, 2, order).reciprocal()


def t8_closed_forms(kmax: int, n_terms: int, order: int) -> dict:
    """(k, N) -> the right side T8 compares, from its per-j bracket loop:
    tail(1) times the sum over j < k of +-falling[j] * (2 - q^((N+1)j)
    / (1+q)...(1+q^N)), with k products per (k, N) and one more for
    tail(1)."""
    tails_plus = pochhammer_infinite_starts(PLUS, order)
    full_plus = tails_plus[0]
    # (1 + q)(1 + q^2)...(1 + q^N) and its reciprocal, for N = 0..n_terms
    partials = [TruncatedSeries.one(order)]
    for m in range(1, n_terms + 1):
        partials.append(partials[-1] * pochhammer_finite(PLUS, m, 1, 1, order))
    recips = [s.reciprocal() for s in partials]
    two = TruncatedSeries.one(order).scale(2)
    out = {}
    for k in range(1, kmax + 1):
        # (q^(j+1); q)_(k-j-1) for j < k, the same for every N
        falling = [pochhammer_finite(MINUS, j + 1, 1, k - j - 1, order) for j in range(k)]
        for big_n in range(0, n_terms + 1):
            bracket = TruncatedSeries.zero(order)
            for j in range(k):
                piece = two - recips[big_n].shift((big_n + 1) * j)
                term = falling[j] * piece
                if (j + k - 1) % 2:
                    term = -term
                bracket = bracket + term
            out[k, big_n] = full_plus * bracket
    return out


# ---------------------------------------------------------------------------
# bijections: the maps before window parts were stripped from the front and
# re-attached ones stopped being re-sorted
# ---------------------------------------------------------------------------

def _sorted_parts(parts) -> tuple[int, ...]:
    return tuple(sorted(parts, reverse=True))


def akdk_inverse(k: int, outcome: BijectionOutcome) -> Partition:
    """Add 1 back to the appropriate part and restore the Dk form."""
    image = outcome.image
    if not isinstance(image, Partition):
        raise BijectionError("akdk images are plain partitions")
    cid = outcome.target_class.class_id
    parts = image.parts
    if cid == "P2":
        result = Partition(_sorted_parts(parts[:-1] + (parts[-1] + 1,) + (0,) * k))
    elif cid == "P1":
        result = Partition(parts + (1,) + (0,) * k)
    elif cid == "Pdprime":
        result = Partition(_sorted_parts(parts[:-1] + (parts[-1] + 1,)))
    elif cid == "Pprime":
        result = Partition(_sorted_parts(parts + (1,)))
    else:
        raise BijectionError(f"unexpected target class {outcome.target_class}")
    if not is_member(_spec("Dk", k), result):
        raise BijectionError(f"inverse image {result} is not a Dk member")
    return result


def dk_recurrence_inverse(k: int, outcome: BijectionOutcome) -> tuple[Partition, str]:
    """Recover (source partition, source tag) from a tagged image."""
    image = outcome.image
    if not isinstance(image, Partition):
        raise BijectionError("recurrence images are plain partitions")
    if outcome.target_class.class_id == "A":
        source = SOURCE_DK if outcome.case_tag[0].endswith(SOURCE_DK) else SOURCE_DK_MINUS_1
        zeros = k if source == SOURCE_DK else k - 1
        return Partition(image.parts + (0,) * zeros), source
    sub = dk_recurrence_subrange(k, image)
    parts = image.parts
    s = parts[-1]
    raised = _sorted_parts(parts[: len(parts) - (k - 1)] + (s + 1,) * (k - 1))
    source = SOURCE_DK if sub in ("a", "b") else SOURCE_DK_MINUS_1
    return Partition(raised), source


# The rank blocks from before base-bc built both blocks of one (l, weight)
# as a pair: one cache per side.
# A rank block is its members in canonical (lexicographic) order plus the
# rank of each member, so that both directions look a member up in O(1).
# Cached blocks are shared by every caller and never mutated.  The bound
# holds every block of the comparison's sweeps to weight 36 at k = 1..5.
RANK_CACHE_SIZE = 128
RankBlock = tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], int]]


def _rank_block(members) -> RankBlock:
    ordered = tuple(sorted(members))
    return ordered, {parts: i for i, parts in enumerate(ordered)}


@lru_cache(maxsize=RANK_CACHE_SIZE)
def _odd_block(l: int, weight: int) -> RankBlock:
    """All-odd partitions of `weight` whose largest part is exactly 2l-1."""
    base = 2 * l - 1
    if weight < base:
        return _rank_block(())
    return _rank_block((base,) + fill for fill in _odd_multiset(weight - base, base))


@lru_cache(maxsize=RANK_CACHE_SIZE)
def _anchored_block(l: int, weight: int) -> RankBlock:
    """Extras-free anchored partitions of `weight` with anchor 2l."""
    anchor = 2 * l
    if weight < anchor:
        return _rank_block(())
    return _rank_block((anchor,) + core for core in _c_core(weight - anchor, anchor, l))


def _largest_odd_half(p: Partition) -> int:
    odds = [v for v in p.parts if v % 2]
    if not odds:
        raise BijectionError(f"{p} has no odd part")
    return (max(odds) + 1) // 2


def base_bc_map(p: Partition, strategy: str = RANK) -> AnchoredPartition:
    """Map an all-odd partition of n to an anchored partition of n+1."""
    if not is_member(_B, p):
        raise BijectionError(f"{p} is not an all-odd partition")
    l = _largest_odd_half(p)
    if strategy == RANK:
        b_block, b_rank = _odd_block(l, p.weight)
        c_block, _ = _anchored_block(l, p.weight + 1)
        if len(b_block) != len(c_block):
            raise BijectionError(f"block size mismatch at l={l}, weight={p.weight}")
        return AnchoredPartition(2 * l, Partition(c_block[b_rank[p.parts]]))
    if strategy == AKY_SKETCH:
        rest = list(p.parts)
        rest.remove(2 * l - 1)
        merged = glaisher_merge(Partition(_sorted_parts(rest)))
        candidate = AnchoredPartition(
            2 * l, Partition(_sorted_parts(merged.parts + (2 * l,))))
        if not is_member(_C, candidate):
            raise SketchMembershipError(p, candidate)
        return candidate
    raise BijectionError(f"unknown strategy {strategy!r}")


def base_bc_inverse(ap: AnchoredPartition, strategy: str = RANK) -> Partition:
    """Map an anchored partition of n+1 back to an all-odd partition of n."""
    if not is_member(_C, ap):
        raise BijectionError(f"{ap} is not an anchored member")
    l = ap.anchor // 2
    if strategy == RANK:
        c_block, c_rank = _anchored_block(l, ap.weight)
        b_block, _ = _odd_block(l, ap.weight - 1)
        if len(b_block) != len(c_block):
            raise BijectionError(f"block size mismatch at l={l}, weight={ap.weight - 1}")
        return Partition(b_block[c_rank[ap.partition.parts]])
    if strategy == AKY_SKETCH:
        rest = list(ap.partition.parts)
        rest.remove(ap.anchor)
        split = glaisher_split(Partition(_sorted_parts(rest))) if rest else Partition(())
        result = Partition(_sorted_parts(split.parts + (ap.anchor - 1,)))
        if not is_member(_B, result):
            raise BijectionError(f"sketch inverse image {result} is not all-odd")
        return result
    raise BijectionError(f"unknown strategy {strategy!r}")


def _remove_one(parts: tuple[int, ...], value: int) -> tuple[int, ...]:
    out = list(parts)
    out.remove(value)
    return tuple(out)


def bkck_map(k: int, parity: str, p: Partition,
             strategy: str = RANK) -> BijectionOutcome:
    """Windowed family map, odd side of weight n to anchored side of n+1.

    Strips the largest window part m, recurses one window level down with
    flipped parity, and re-attaches m; with no window parts it is exactly
    the base map.
    """
    if parity not in ("e", "o"):
        raise BijectionError("parity must be 'e' or 'o'")
    spec = _spec(f"Bk_{parity}", k)
    if not is_member(spec, p):
        raise BijectionError(f"{p} is not a member of {spec}")
    evens = [v for v in p.parts if v % 2 == 0]
    if not evens:
        image = base_bc_map(p, strategy)
        outcome = BijectionOutcome(image, _spec(f"Ck_{parity}", k),
                                   (f"base[{strategy}]:anchor={image.anchor}",))
    else:
        m = max(evens)
        stripped = Partition(_remove_one(p.parts, m))
        sub = bkck_map(k - 1, _parity_flip(parity), stripped, strategy)
        lifted = AnchoredPartition(
            sub.image.anchor,
            Partition(_sorted_parts(sub.image.partition.parts + (m,))))
        outcome = BijectionOutcome(lifted, _spec(f"Ck_{parity}", k),
                                   (f"strip:{m}",) + sub.case_tag)
    if not is_member(outcome.target_class, outcome.image):
        raise BijectionError(f"image {outcome.image} is not in {outcome.target_class}")
    return outcome


def bkck_inverse(k: int, parity: str, ap: AnchoredPartition,
                 strategy: str = RANK) -> BijectionOutcome:
    """Inverse direction: anchored side of weight n+1 to odd side of n."""
    if parity not in ("e", "o"):
        raise BijectionError("parity must be 'e' or 'o'")
    spec = _spec(f"Ck_{parity}", k)
    if not is_member(spec, ap):
        raise BijectionError(f"{ap} is not a member of {spec}")
    extras = [v for v in ap.partition.parts if v > ap.anchor]
    if not extras:
        image = base_bc_inverse(ap, strategy)
        outcome = BijectionOutcome(image, _spec(f"Bk_{parity}", k),
                                   (f"base[{strategy}]:anchor={ap.anchor}",))
    else:
        m = max(extras)
        stripped = AnchoredPartition(ap.anchor,
                                     Partition(_remove_one(ap.partition.parts, m)))
        sub = bkck_inverse(k - 1, _parity_flip(parity), stripped, strategy)
        lifted = Partition(_sorted_parts(sub.image.parts + (m,)))
        outcome = BijectionOutcome(lifted, _spec(f"Bk_{parity}", k),
                                   (f"strip:{m}",) + sub.case_tag)
    if not is_member(outcome.target_class, outcome.image):
        raise BijectionError(f"image {outcome.image} is not in {outcome.target_class}")
    return outcome


# ---------------------------------------------------------------------------
# partitions: validation and the predicates before their helpers were inlined
# ---------------------------------------------------------------------------

# v -> v % 2, for map: the odd-part scans run at C speed
_odd = (2).__rmod__


def partition_post_init(self) -> None:
    """``Partition.__post_init__``: validation after the generated
    ``__init__`` set ``self.parts``."""
    parts = self.parts
    # One pass at C speed for the common valid case; the loop below only
    # names the first fault.
    if not parts or (parts[-1] >= 0 and all(map(ge, parts, parts[1:]))):
        return
    prev = None
    for p in parts:
        if p < 0:
            raise PartitionError(f"negative part {p}")
        if prev is not None and p > prev:
            raise PartitionError("parts must be weakly decreasing")
        prev = p


def smallest_part_profile(p: Partition) -> tuple[int, int, bool]:
    """(smallest part, its multiplicity, whether all larger parts are distinct)."""
    if not p.parts:
        raise PartitionError("empty partition has no smallest part")
    smallest = p.parts[-1]
    mult = 0
    for v in reversed(p.parts):
        if v != smallest:
            break
        mult += 1
    return smallest, mult, _is_distinct(p.parts[: len(p.parts) - mult])


def _dk_parts_above(p: Partition, k: int) -> int | None:
    """Number of parts above the smallest of a Dk member."""
    if not p.parts:
        return None
    _, mult, rest_distinct = smallest_part_profile(p)
    return len(p.parts) - k if mult == k and rest_distinct else None


def _window(l: int, k: int) -> tuple[int, int]:
    return 2 * l + 2, 2 * l + 2 * k - 2


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
    lo, hi = _window((parts[evens] + 1) // 2, k)
    if evens and (parts[0] > hi or parts[evens - 1] < lo or not _is_distinct(parts[:evens])):
        return None
    return evens if all(map(_odd, parts[evens + 1:])) else None


def _ck_extras(ap: AnchoredPartition, k: int) -> int | None:
    """Number of window extras of a valid anchored decomposition, else None."""
    parts = ap.partition.parts
    if parts and parts[-1] < 1:
        return None
    anchor = ap.anchor
    l = anchor // 2
    # The extras are the prefix above the anchor: distinct even parts no
    # larger than 2l+2k-2.  An even part above 2l is at least 2l+2, the
    # window's low end, and distinct window values number at most k-1.
    extras = 0
    bound = _window(l, k)[1] + 1
    for v in parts:
        if v <= anchor:
            break
        if v % 2 or v >= bound:
            return None
        bound = v
        extras += 1
    # The parts <= l are a suffix; they must be distinct.
    small = bisect_left(parts, -l, key=neg)
    return extras if _is_distinct(parts[small:]) else None


# ---------------------------------------------------------------------------
# partitions: the value checks and the predicates before the parts were
# compared with their sort, the anchor checked in a hand-written __init__, the
# odd-part scans became one product of the parts and the prefixes of larger
# parts were found by bisection
# ---------------------------------------------------------------------------

def partition_init(parts) -> None:
    """The check ``Partition.__init__`` made before it set ``parts``."""
    if parts and not (parts[-1] >= 0 and all(map(ge, parts, parts[1:]))):
        _raise_first_fault(parts)


def anchored_post_init(self) -> None:
    """``AnchoredPartition.__post_init__``: validation after the generated
    ``__init__`` set ``self.anchor`` and ``self.partition``."""
    if self.anchor <= 0 or self.anchor % 2:
        raise PartitionError(f"anchor must be a positive even part, got {self.anchor}")
    if self.anchor not in self.partition.parts:
        raise PartitionError(f"anchor {self.anchor} is not a part of {self.partition}")


def _member_b(p: Partition, k: None) -> bool:
    # Counts partitions with at least one part; the empty partition is not
    # a B member even though the all-odd condition is vacuous on it.
    return bool(p.parts) and p.parts[-1] >= 1 and all(map(_odd, p.parts))


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


# ---------------------------------------------------------------------------
# bijections: Glaisher's maps before they counted with tuple.count and split
# with m & -m
# ---------------------------------------------------------------------------

def glaisher_merge(p: Partition) -> Partition:
    """Odd parts to distinct parts: an odd value a of multiplicity
    f = sum 2^e_i (binary digits) becomes the parts a * 2^e_i."""
    if not all(v % 2 for v in p.parts):
        raise BijectionError("merge needs all parts odd")
    out = []
    for a, f in Counter(p.parts).items():
        e = 0
        while f:
            if f & 1:
                out.append(a << e)
            f >>= 1
            e += 1
    return Partition.from_parts(out)


def glaisher_split(p: Partition) -> Partition:
    """Distinct parts back to odd parts: m = 2^e * a (a odd) becomes 2^e
    copies of a.  Defined on any all-positive partition."""
    if not all(v >= 1 for v in p.parts):
        raise BijectionError("split needs positive parts")
    out = []
    for m in p.parts:
        a = m
        copies = 1
        while a % 2 == 0:
            a //= 2
            copies *= 2
        out.extend([a] * copies)
    return Partition.from_parts(out)


# ---------------------------------------------------------------------------
# the changed maps against the copies above
# ---------------------------------------------------------------------------


def _result(call, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return call(*args)
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return type(err), str(err)


def _changed_map_calls(n: int, k: int):
    """(name, new map, copy, args) for every call the comparison makes at
    weight n and parameter k: both parities and both strategies.  bkck at
    k = 1 and parity e is the base map on every all-odd member and its
    inverse on every anchored one, so the base maps are compared through it.
    Glaisher's maps take no k and are compared at k = 1, on members of A, B
    and Dk(1): even parts for the merge to refuse, a part 0 for the split."""
    if k == 1:
        for cid, k_of in (("B", None), ("A", None), ("Dk", 1)):
            for p in enumerate_class(ClassSpec(cid, k_of), n):
                yield "glaisher_merge", bijections.glaisher_merge, glaisher_merge, (p,)
                yield "glaisher_split", bijections.glaisher_split, glaisher_split, (p,)
    for parity in "eo":
        sources = enumerate_class(ClassSpec(f"Bk_{parity}", k), n)
        images = enumerate_class(ClassSpec(f"Ck_{parity}", k), n)
        for strategy in STRATEGIES:
            for p in sources:
                yield "bkck_map", bijections.bkck_map, bkck_map, (k, parity, p, strategy)
            for ap in images:
                yield ("bkck_inverse", bijections.bkck_inverse, bkck_inverse,
                       (k, parity, ap, strategy))
    for p in enumerate_class(ClassSpec("Dk", k), n):
        out = _result(bijections.akdk_map, k, p)
        if isinstance(out, BijectionOutcome):
            yield "akdk_inverse", bijections.akdk_inverse, akdk_inverse, (k, out)
    if k < 2:
        return
    for source, mult in ((SOURCE_DK, k), (SOURCE_DK_MINUS_1, k - 1)):
        for p in enumerate_class(ClassSpec("Dk", mult), n):
            out = _result(bijections.dk_recurrence_map, k, p, source)
            if isinstance(out, BijectionOutcome):
                yield ("dk_recurrence_inverse", bijections.dk_recurrence_inverse,
                       dk_recurrence_inverse, (k, out))


def _rank_view(result):
    """What a bkck call under the rank strategy must keep: the copies pair
    the i-th members of each anchor's sorted blocks, and base-bc now merges
    the fill capped at the anchor, so the members inside a block may pair
    differently.  The target class, the case tag, the raised type and text,
    and the image's anchor, weight and window parts must not change; an
    odd-side image's anchor is its largest odd part plus 1."""
    if not isinstance(result, BijectionOutcome):
        return result
    image = result.image
    if isinstance(image, AnchoredPartition):
        anchor, parts = image.anchor, image.partition.parts
        window = tuple(v for v in parts if v > anchor)
    else:
        parts = image.parts
        window = tuple(itertools.takewhile(lambda v: v % 2 == 0, parts))
        anchor = parts[len(window)] + 1
    return result.target_class, result.case_tag, anchor, sum(parts), window


def map_mismatches(weights, ks) -> tuple[int, list[str]]:
    """Calls compared over the weights and k values, and one line per call
    whose image, target class, case tag or raised type and text differ from
    the copy's; a bkck call under the rank strategy is compared by
    `_rank_view`."""
    compared, mismatches = 0, []
    for k in ks:
        for n in weights:
            for name, new, old, args in _changed_map_calls(n, k):
                compared += 1
                got, want = _result(new, *args), _result(old, *args)
                if name.startswith("bkck") and args[-1] == RANK:
                    got, want = _rank_view(got), _rank_view(want)
                if got != want:
                    mismatches.append(f"{name}{args}: {got!r}, before {want!r}")
    return compared, mismatches


# ---------------------------------------------------------------------------
# member generators: one per class, before the classes became shapes of
# heads over a shared fill; enumerate_class keeps their members and order
# ---------------------------------------------------------------------------

def _window_values(l: int, k: int) -> list[int]:
    return [2 * l + 2 * i for i in range(1, k)]


def _window_subsets(l: int, k: int, budget: int, want_even: bool):
    """Distinct even window extras of the requested count parity, descending."""
    values = [v for v in _window_values(l, k) if v <= budget]
    for r in range(len(values) + 1):
        if (r % 2 == 0) != want_even:
            continue
        for combo in itertools.combinations(values, r):
            if sum(combo) <= budget:
                yield tuple(sorted(combo, reverse=True))


def _iter_bk(n: int, k: int, want_even: bool):
    # Fix the largest odd part 2l-1, pick window extras, fill with odd parts.
    # The extras lie above 2l-1, so the parts come out descending.
    for l in range(1, (n + 1) // 2 + 1):
        base = 2 * l - 1
        for extras in _window_subsets(l, k, n - base, want_even):
            head = extras + (base,)
            for fill in _odd_multiset(n - sum(head), base):
                yield head + fill


def _iter_ck(n: int, k: int, want_even: bool):
    # Fix the anchor 2l, pick window extras, fill the core below the anchor.
    # The extras lie above 2l, so the parts come out descending.
    for l in range(1, n // 2 + 1):
        anchor = 2 * l
        for extras in _window_subsets(l, k, n - anchor, want_even):
            head = extras + (anchor,)
            for core in _c_core(n - sum(head), anchor, l):
                yield anchor, head + core


def _iter_dk(n: int, k: int, odd: int | None = None, first: int = 0):
    """Dk members with smallest part s >= first (first = 1: SptKd), and with
    a number of parts above the smallest of parity `odd` if given.

    Zero-smallest members carry their k explicit zeros.
    """
    for s in range(first, n // k + 1):
        for rest in _distinct(n - k * s, n - k * s, s + 1):
            if odd is None or len(rest) % 2 == odd:
                yield rest + (s,) * k


def _iter_e(n: int):
    for m in range(1, n + 1, 2):
        for fill in _odd_multiset(n - m, m - 2):
            yield (m,) + fill


def _iter_f(n: int):
    for m in range(2, n + 1, 2):
        for fill in _odd_multiset(n - m, m - 1):
            yield (m,) + fill


def _iter_pprime(n: int, k: int):
    rest = n - (k - 1)
    if rest < 0:
        return
    for a in _distinct(rest, rest, 2):
        yield a + (1,) * (k - 1)


def _iter_pdprime(n: int, k: int):
    # at k = 1 this is P2: no (s+1)-parts, distinct parts >= s+2
    for s in range(1, n + 1):
        rest = n - s - (s + 1) * (k - 1)
        if rest < 0:
            break
        for a in _distinct(rest, rest, s + 2):
            yield a + (s + 1,) * (k - 1) + (s,)


def _iter_distinct_parity(n: int, hi: int, odd: int):
    return (a for a in _distinct(n, hi) if len(a) % 2 == odd)


# class id -> (n, k) -> member tuples, (anchor, tuple) pairs if anchored
MEMBERS = {
    "A": lambda n, k: _distinct(n, n),
    "B": lambda n, k: _odd_multiset(n, n) if n else (),
    "C": lambda n, k: _iter_ck(n, 1, True),
    "Dk": _iter_dk,
    "Dk_e": lambda n, k: _iter_dk(n, k, 0),
    "Dk_o": lambda n, k: _iter_dk(n, k, 1),
    "Bk_e": lambda n, k: _iter_bk(n, k, True),
    "Bk_o": lambda n, k: _iter_bk(n, k, False),
    "Ck_e": lambda n, k: _iter_ck(n, k, True),
    "Ck_o": lambda n, k: _iter_ck(n, k, False),
    "E": lambda n, k: _iter_e(n),
    "F": lambda n, k: _iter_f(n),
    "P1": lambda n, k: _distinct(n, n, 2) if n else (),
    "P2": lambda n, k: _iter_pdprime(n, 1),
    "Pprime": _iter_pprime,
    "Pdprime": _iter_pdprime,
    "Pe_d": lambda n, k: _iter_distinct_parity(n, n, 0),
    "Po_d": lambda n, k: _iter_distinct_parity(n, n, 1),
    "Pe_bounded": lambda n, k: _iter_distinct_parity(n, k - 1, 0),
    "Po_bounded": lambda n, k: _iter_distinct_parity(n, k - 1, 1),
    "SptKd": lambda n, k: _iter_dk(n, k, None, 1),
}


def class_members(spec: ClassSpec, n: int) -> list:
    """The members of weight n in the order of the class's generator, as
    enumerate_class returns them."""
    members = MEMBERS[spec.class_id](n, spec.k)
    if spec.anchored:
        return [AnchoredPartition(a, Partition(parts)) for a, parts in members]
    return [Partition(parts) for parts in members]


# ---------------------------------------------------------------------------
# smallest-part series: sums over the whole tail family, the way they were
# built before Euler's expansion, on plain integers with no bound check
# ---------------------------------------------------------------------------


def tail_family_sums(sign: int, order: int, *term_lists) -> list[tuple[int, ...]]:
    """For each list of (s, i), the sum of q^s * tail(i) up to q^order, where
    tail(i) is the product of (1 + sign*q^m) over m >= i.

    The tails come from one downward sweep on plain integers, tail(m) =
    (1 + sign*q^m) * tail(m+1) from tail(order+1) = 1, one plain loop per
    factor; tail(i) for i > order+1 is 1 up to the order as well."""
    starts = {}  # i -> (list index, shift) of each term that reads tail(i)
    for n, terms in enumerate(term_lists):
        for s, i in terms:
            if s <= order:
                starts.setdefault(min(i, order + 1), []).append((n, s))
    sums = [[0] * (order + 1) for _ in term_lists]
    tail = [1] + [0] * order
    for m in range(order + 1, 0, -1):
        if m <= order:
            tail[m:] = [c + sign * d for c, d in zip(tail[m:], tail)]
        for n, s in starts.get(m, ()):
            sums[n][s:] = [a + c for a, c in zip(sums[n][s:], tail)]
    return [tuple(acc) for acc in sums]


# ---------------------------------------------------------------------------
# distinct-part row walk from before the pair walk: the largest part first,
# every prefix with room for one more part visited, one first-order
# difference row per parity of hi+2 slots
# ---------------------------------------------------------------------------


def _walk_distinct(row, other, lo: int, hi: int, w: int, v: int, least: int) -> None:
    """Count weight w plus each nonempty set of distinct parts in [least, v],
    a set of odd size in other and one of even size in row."""
    top = hi - w
    if top > v:
        top = v
    if top < least:
        return
    other[w + least] += 1  # the one-part sets: weights w+least .. w+top
    other[w + top + 1] -= 1
    # Each child w+p with room for a second part counts the run of its
    # one-part extensions: inline, or by the call that descends further when
    # it also has room for a third part.
    room = hi - w - least
    for p in range(room if room < v else v, least, -1):
        x = w + p
        # The parts least..p-1 add at most (p-1+least)(p-least)/2, and less
        # for every smaller p.
        if lo and x + (p - 1 + least) * (p - least) // 2 < lo:
            break
        if p > least + 1 and x + 2 * least < hi:  # room for a third part
            _walk_distinct(other, row, lo, hi, x, p - 1, least)
        else:  # second parts least .. min(p-1, hi-x)
            row[x + least] += 1
            row[x + p if x + p <= hi else hi + 1] -= 1


@lru_cache(maxsize=64)
def _distinct_fill_rows(shape, args: tuple, hi: int) -> tuple[list[int], list[int]]:
    """The rows of weights 0..hi of a walk over distinct-part fills, a set
    of even size in the first and one of odd size in the second."""
    diffs = ([0] * (hi + 2), [0] * (hi + 2))
    for above, below, fill, fill_args in shape(hi, *args):
        if fill != "distinct":
            raise ValueError(f"{shape.__name__}{args} has a {fill} fill")
        w = sum(above) + sum(below)
        diffs[0][w] += 1  # the empty set; _walk_distinct counts the others
        diffs[0][w + 1] -= 1
        _walk_distinct(*diffs, 0, hi, w, *fill_args)
    return tuple(list(islice(accumulate(d), hi + 1)) for d in diffs)


def distinct_fill_row(spec: ClassSpec, hi: int) -> tuple[int, ...]:
    """count_row(spec, hi) of a class whose fill is distinct parts, by the
    walk above and the fold of the rows it wrote (a running sum, cut to hi+1
    entries).  Raises ValueError for a class with another fill."""
    shape, args, half, _ = counting._ENGINES[spec.class_id]
    even, odd = _distinct_fill_rows(shape, args(spec.k), hi)
    if half is None:
        return tuple(map(add, even, odd))
    return tuple((even, odd)[half])


# The classes whose members are heads around a distinct-part fill.
DISTINCT_FILL_CLASSES = ("A", "Pe_d", "Po_d", "Pe_bounded", "Po_bounded", "Dk", "Dk_e",
                         "Dk_o", "SptKd", "P1", "P2", "Pprime", "Pdprime")


def distinct_fill_specs(kmax: int) -> list[ClassSpec]:
    """Every spec of DISTINCT_FILL_CLASSES, k = 1..kmax where the class
    takes a k."""
    return [ClassSpec(c, k) for c in DISTINCT_FILL_CLASSES
            for k in (range(1, kmax + 1) if CLASS_INFO[c][0] else (None,))]


def one_spec_per_walk(specs) -> list[ClassSpec]:
    """The first of the specs that share each walk (shape and arguments)."""
    first = {}
    for spec in specs:
        shape, args, _, _ = counting._ENGINES[spec.class_id]
        first.setdefault((shape, args(spec.k)), spec)
    return list(first.values())


def distinct_walk_mismatches(specs, hi: int, windows) -> list[tuple[ClassSpec, int, int]]:
    """The (spec, lo, top), for windows (lo, top) with top <= hi, where
    count_row differs from the walk above at weight hi; each window's walk
    starts from an empty row cache."""
    bad = []
    for spec in specs:
        want = distinct_fill_row(spec, hi)
        for lo, top in windows:
            counting._rows.clear()
            if count_row(spec, top, lo) != want[lo:top + 1]:
                bad.append((spec, lo, top))
    counting._rows.clear()
    return bad


# ---------------------------------------------------------------------------
# C core row walk from before the core became the distinct fill under its
# free parts: every multiset of free parts walks the distinct parts below
# the anchor again.  The three walks and the fold are verbatim; the two
# distinct walks are renamed to sit beside the older one above.
# ---------------------------------------------------------------------------


def _walk_core_distinct(row, other, hi: int, w: int, v: int, least: int) -> None:
    """Count weight w plus each nonempty set of distinct parts in [least, v],
    a set of odd size in other and one of even size in row."""
    top = hi - w
    if top > v:
        top = v
    if top < least:
        return
    other[0][w + least] += 1  # the one-part sets: weights w+least .. w+top
    other[0][w + top + 1] -= 1
    _walk_core_pairs(row, other, hi, w, v, least)


def _walk_core_pairs(row, other, hi: int, w: int, v: int, least: int) -> None:
    """Count weight w plus each set of two or more distinct parts in
    [least, v], by its smallest part a: a set of even size in row and one of
    odd size in other."""
    room = hi - w
    top = (room - 1) // 2  # the largest a whose pair {a, a+1} fits
    if top >= v:
        top = v - 1
    if top < least:
        return
    _, second, lag2 = row
    # The pairs {a, b}, b = a+1 .. min(v, room-a), are the run of weights
    # w+2a+1 .. min(w+a+v, hi) for each a in [least, top].  The runs start
    # two slots apart.  Up to a = room-v they end at w+a+v, one slot apart,
    # and past it at hi, whose end slot is dropped.
    lag2[w + 2 * least + 1] += 1
    lag2[w + 2 * top + 3] -= 1
    ends = room - v
    if ends >= least:
        second[w + least + v + 1] -= 1
        second[w + (ends if ends < top else top) + v + 2] += 1
    # Sets of three or more parts: a and a set of two or more parts in
    # [a+1, v], which the parts a+1 and a+2 start while 3a+3 <= room.
    last = room // 3 - 1
    if last > v - 2:
        last = v - 2
    for a in range(least, last + 1):
        _walk_core_pairs(other, row, hi, w + a, v, a + 1)


def _walk_c_core(row, hi: int, w: int, v: int, l: int) -> None:
    """Count weight w plus each multiset of parts <= v that is free in
    (l, 2l] and distinct in [1, l], into one parity's rows."""
    row[0][w] += 1
    row[0][w + 1] -= 1
    _walk_core_distinct(row, row, hi, w, l, 1)
    top = hi - w
    if top > v:
        top = v
    for u in range(top, l, -1):
        for x in range(w + u, hi + 1, u):
            _walk_c_core(row, hi, x, u - 1, l)


def _fold(first: list, second: list, lag2: list, hi: int) -> list[int]:
    """The counts of weights 0..hi from one parity's difference rows."""
    lag2[0::2] = accumulate(lag2[0::2])
    lag2[1::2] = accumulate(lag2[1::2])
    return list(islice(accumulate(map(add, map(add, first, accumulate(second)), lag2)), hi + 1))


@lru_cache(maxsize=None)
def core_fill_row(v: int, l: int, hi: int) -> tuple[int, ...]:
    """The numbers of C cores of weights 0..hi under (v, l), parts <= v,
    distinct up to l and free above it, by the walk above, folded."""
    diffs = ([0] * (hi + 3), [0] * (hi + 3), [0] * (hi + 3))
    _walk_c_core(diffs, hi, 0, v, l)
    return tuple(_fold(*diffs, hi))


def anchored_class_row(spec: ClassSpec, hi: int) -> tuple[int, ...]:
    """count_row(spec, hi) of a C-family class: under each head, the row of
    its core by the walk above, shifted by the head's weight."""
    shape, args, _, _ = counting._ENGINES[spec.class_id]
    row = [0] * (hi + 1)
    for above, below, _, (v, l) in shape(hi, *args(spec.k)):
        w = sum(above) + sum(below)  # at least the anchor v
        row[w:] = map(add, row[w:], core_fill_row(v, l, hi - v))
    return tuple(row)


def core_walk_mismatches(hi: int, kmax: int) -> list:
    """The cores (2l, l), 2l <= hi, and the specs C, Ck_e(k) and Ck_o(k),
    k = 1..kmax, whose rows differ from the walk above, each with how it
    was read: a spec's row at weight hi, and the row of the core under the
    anchor 2l to weight hi - 2l, as far as the specs read it.  Each core is
    read once from an empty row cache; then the specs and the cores are
    read with every row kept, in both orders."""
    cores = [(2 * l, l) for l in range(1, hi // 2 + 1)]
    specs = [ClassSpec("C")] + [ClassSpec(f"Ck_{p}", k) for k in range(1, kmax + 1)
                                for p in "eo"]

    def core_differs(core):
        rows = counting._kept(counting._walk_fill, ("core", core), hi - core[0])
        return tuple(map(add, *rows))[:hi - core[0] + 1] != core_fill_row(*core, hi - core[0])

    def read_cores():
        return [(core, "kept") for core in cores if core_differs(core)]

    def read_specs():
        return [(spec, "kept") for spec in specs
                if count_row(spec, hi) != anchored_class_row(spec, hi)]

    bad = []
    for core in cores:
        counting._rows.clear()
        if core_differs(core):
            bad.append((core, "cold"))
    for reads in ((read_specs, read_cores), (read_cores, read_specs)):
        counting._rows.clear()
        for read in reads:
            bad += read()
    counting._rows.clear()
    return bad


# ---------------------------------------------------------------------------
# odd-part row walk from before the odd fill became the 1s under its free
# parts: one recursive call per prefix of parts 5 and above.  The walk, the
# fold and the odd fill's row walk are verbatim.
# ---------------------------------------------------------------------------


def _walk_odd(row, hi: int, w: int, v: int) -> None:
    """Count weight w plus each multiset of odd parts <= v."""
    if v < 1:
        row[w] += 1
        row[w + 1] -= 1
        return
    # Parts 3 and 1 in a loop: from each weight x = w + 3c the 1s make one
    # member at every weight x..hi, one run.
    for x in range(w, hi + 1, 3) if v >= 3 else (w,):
        row[x] += 1
        row[hi + 1] -= 1
    top = hi - w
    if top > v:
        top = v
    for u in range(5, top + 1, 2):
        for x in range(w + u, hi + 1, u):
            _walk_odd(row, hi, x, u - 2)


def _folded(walk):
    """The row walk (hi, *args) -> row pair of a fill whose walk(diffs, hi,
    *args) writes its difference rows.  A running sum of the second-order
    row and one per residue mod 2 of the lag-2 row turn both into
    first-order rows; the sum of the three, summed up and cut to hi+1
    entries, gives the counts."""
    def rows(hi: int, *args):
        diffs = tuple(([0] * (hi + 3), [0] * (hi + 3), [0] * (hi + 3)) for _ in range(2))
        walk(diffs, hi, *args)
        return tuple(_fold(*d, hi) for d in diffs)
    return rows


_walk_odd_rows = _folded(lambda rows, hi, v: _walk_odd(rows[0][0], hi, 0, v))


@lru_cache(maxsize=None)
def odd_fill_rows(v: int, hi: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The row pair of the multisets of odd parts <= v of weights 0..hi, by
    the walk above: every multiset in the first row, none in the second."""
    return tuple(map(tuple, _walk_odd_rows(hi, v)))


def odd_class_row(spec: ClassSpec, hi: int) -> tuple[int, ...]:
    """count_row(spec, hi) of a class over the odd fill (B, E, F, Bk_e and
    Bk_o): under each head, the row of its fill by the walk above, shifted
    by the head's weight."""
    shape, args, _, _ = counting._ENGINES[spec.class_id]
    row = [0] * (hi + 1)
    for above, below, _, (v,) in shape(hi, *args(spec.k)):
        w = sum(above) + sum(below)
        row[w:] = map(add, row[w:], map(add, *odd_fill_rows(v, hi - w)))
    return tuple(row)


def odd_walk_mismatches(hi: int, kmax: int) -> list:
    """The odd fills under v = -1 (E's head m = 1) and every odd v <= hi,
    and the specs B, E, F, Bk_e(k) and Bk_o(k), k = 1..kmax, whose rows
    differ from the walk above, each with how it was read: a spec's row at
    weight hi, and the row pair of the fill under v to weight hi - v, as far
    as the specs read it (B's head v reads it that far).  Each fill is read
    once from an empty row cache; then the specs and the fills are read with
    every row kept, in both orders."""
    bounds = [-1, *range(1, hi + 1, 2)]
    specs = [ClassSpec("B"), ClassSpec("E"), ClassSpec("F")] + [
        ClassSpec(f"Bk_{p}", k) for k in range(1, kmax + 1) for p in "eo"]

    def fill_differs(v):
        reach = hi - max(v, 0)
        rows = counting._kept(counting._walk_fill, ("odd", (v,)), reach)
        return tuple(tuple(row[:reach + 1]) for row in rows) != odd_fill_rows(v, reach)

    def read_fills():
        return [(v, "kept") for v in bounds if fill_differs(v)]

    def read_specs():
        return [(spec, "kept") for spec in specs if count_row(spec, hi) != odd_class_row(spec, hi)]

    bad = []
    for v in bounds:
        counting._rows.clear()
        if fill_differs(v):
            bad.append((v, "cold"))
    for reads in ((read_specs, read_fills), (read_fills, read_specs)):
        counting._rows.clear()
        for read in reads:
            bad += read()
    counting._rows.clear()
    return bad

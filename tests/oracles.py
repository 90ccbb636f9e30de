"""Reference code that the package replaced, kept verbatim for the tests
that compare the new code with it."""

import itertools
from bisect import bisect_left
from functools import lru_cache
from operator import ge, neg

from qpart import bijections
from qpart.bijections import (
    AKY_SKETCH,
    RANK,
    RANK_CACHE_SIZE,
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
    glaisher_merge,
    glaisher_split,
)
from qpart.counting import _c_core, _distinct, _odd_multiset, enumerate_class
from qpart.partitions import (
    AnchoredPartition,
    ClassSpec,
    Partition,
    PartitionError,
    _is_distinct,
    _odd,
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
# Cached blocks are shared by every caller and never mutated.
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
    inverse on every anchored one, so the base maps are compared through it."""
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


def map_mismatches(weights, ks) -> tuple[int, list[str]]:
    """Calls compared over the weights and k values, and one line per call
    whose image, target class, case tag or raised type and text differ from
    the copy's."""
    compared, mismatches = 0, []
    for k in ks:
        for n in weights:
            for name, new, old, args in _changed_map_calls(n, k):
                compared += 1
                got, want = _result(new, *args), _result(old, *args)
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

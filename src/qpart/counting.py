"""Dual-path counting: exhaustive enumeration and generating-function
coefficients for every partition class, each path an oracle for the other.

Every class of the paper is fixed head parts around one fill: distinct
parts, odd parts, or a C core (parts distinct up to l, free above it).  One
table, ``_ENGINES``, gives each class id its shape and its generating
function.  A shape yields the heads of the class's members up to a weight,
each as (parts above the fill, parts below it, fill, fill arguments), and
``FILLS`` gives each fill its generator and its row walk, so two drivers
read the same heads.  ``_members`` runs the fill's generator under each head
and yields the members of weight n in a fixed order, which
:func:`enumerate_class`, and through it the bijections, materialises; a
split class keeps the fills whose part count has its parity.  The fill
generators are loops over one mutable list of parts that step from one fill
to the next, with residual-weight pruning, and yield fresh tuples.  ``_walk``
runs the fill's row walk from each head's weight: one exhaustive descent
that builds no members and counts those of the weights in a window [lo, hi]
into a difference row.  It visits every prefix that has room for one more
part once, and counts the run of its one-part extensions, one member at
each of a stretch of consecutive weights, as one range update: +1 where the
run starts and -1 one slot past its end.  One running sum per row then
turns the differences into counts.  The distinct walk counts sets of even
and odd size into two rows at once, so classes with the same shape and
arguments share one walk: Dk, Dk_e and Dk_o, as do A, Pe_d and Po_d.
:func:`count_row` reads rows, and :func:`count_by_enumeration` is its window
[n, n].  Walked rows are kept in one bounded cache, and a kept row serves
every shorter request.  No walk reads a generating function or memoises a
subtree, and none uses a closed form beyond a run of consecutive last parts.

``gf(k, order)`` builds the class generating function as a tuple of plain
integers with the kernels of :mod:`qpart.series`; :func:`gf` and
:func:`gf_parity_difference` make it a series, the one place the 2**63
bound is checked, so each series stops where its own coefficients leave it.
Each parity-split family has one signed builder S(k, order, sign) that
marks every part the split counts with the sign: S(+1) is the whole family
and S(-1) the even-minus-odd difference, so the halves are
(S(+1) +- S(-1))/2, which must be integral.

Every signed tuple is built once per (builder, k, order, sign) and kept in
one bounded cache, ``_signed``, that the two halves, the whole-family row
(Dk, C) and :func:`gf_parity_difference` all read.  Its bound,
``SIGNED_CACHE_SIZE``, is set beside it.  So the distinct-part product
(-q; q)_inf is built once per order: A reads it as ``_signed(_gf_distinct,
None, order, PLUS)``, Pe_d and Po_d halve it with its sign -1 twin, and
SptKd(k) is Dk(k) minus it, as a Dk member has either a positive smallest
part or k zeros below distinct parts, and every Pprime(k) is that product
divided by 1 + q, which leaves (-q^2; q)_inf, shifted by k-1.  The builders
keep their running products as plain lists and add shifted terms into one
accumulator by slice.  A running core is cut to the coefficients its later
terms can still reach before each update: the kernels are lower-triangular,
so what is kept stays exact.

The windowed series (Bk, Ck and their halves and differences) are sums over
l of q^(2l - offset) * core_l * W_l, where W_l is the product of
(1 + sign*q^(2l+2i)) over the window i = 1 .. k-1.  By the q-binomial
theorem (Andrews, *The Theory of Partitions*, Thm 3.3), W_l is the sum over
j < k of sign^j * q^(2lj) * e_j, where e_j = q^(j(j+1)) * [k-1 choose j]_(q^2)
does not depend on l.  So S(k, sign) is the sum of sign^j * e_j * T_j, and
each T_j, the sum of q^((2+2j)l - offset) * core_l, depends on neither k
nor the sign: ``_window_sums`` sweeps the core once per (core, offset,
order) and adds each core_l into every T_j whose term e_j * T_j reaches the
order, so one sweep serves every k, whatever k a run asks for first.  It
keeps the T_j of a sweep in one bounded cache, whose bound,
``WINDOW_SUM_CACHE_SIZE``, is set beside it.  E and F are T_0 of their own
cores, by a one-term sweep.

The repeated-smallest-part series (Dk, its halves and difference, P1, P2
and Pdprime) are sums of q^(s+t*d) * tail(i+t), where tail(i) is the
product of (1 + sign*q^m) over m >= i.  ``_tail_sum`` expands the tails by
Euler's identity (Andrews, *The Theory of Partitions*, Cor. 2.2) and adds
about sqrt(2*order) geometric series, one factor division each, with no
tail family and no series product: O(order) coefficients at a time.  Term j
reads 1/(q; q)_j, which depends on the order alone:
``_euler_reciprocals`` builds it once per order, one division per j, for
every tail sum of that order, and keeps it in one bounded cache, whose
bound, ``EULER_CACHE_SIZE``, is set beside it.
"""
from __future__ import annotations

import itertools
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice, repeat
from math import isqrt
from operator import add, mul, sub
from typing import NamedTuple

from .partitions import (
    AnchoredPartition,
    ClassSpec,
    Partition,
    PartitionError,
    anchor_decompositions,
)
from .series import (
    MINUS,
    PLUS,
    CoefficientOverflowError,
    TruncatedSeries,
    _div_factor,
    _halve,
    _mul_factor,
    _pochhammer,
    pochhammer_finite,
)

# ---------------------------------------------------------------------------
# fill generators: tuples of parts in descending order, yielded in a fixed
# order that enumerate_class and `qpart enumerate` pass on
# (tests/test_generators.py pins it)
# ---------------------------------------------------------------------------


def _distinct(total: int, hi: int, lo: int = 1):
    """Distinct parts in [lo, hi] summing to `total`, in decreasing
    lexicographic order."""
    if total == 0:
        yield ()
        return
    hi = min(hi, total)
    if hi < lo or (hi + lo) * (hi - lo + 1) // 2 < total:
        return
    parts = []  # the parts placed so far, descending
    rest, v = total, hi  # the weight left to place, and the next part to try
    while True:
        r = rest - v
        # Parts in [lo, v-1] can still reach r; once they cannot, no smaller
        # v can either.
        if v >= lo and (r < v or (v + lo - 1) * (v - lo) // 2 >= r):
            if r == 0:
                yield (*parts, v)
            elif r >= lo:
                parts.append(v)
                rest, v = r, min(v - 1, r)
                continue
            v -= 1
            continue
        # Every part at this place is tried: try the next one at the place above.
        if not parts:
            return
        v = parts.pop()
        rest += v
        v -= 1


def _odd_multiset(total: int, hi: int):
    """Odd parts <= hi with unrestricted multiplicity, in decreasing
    lexicographic order."""
    if total == 0:
        yield ()
        return
    if hi < 1:
        return
    parts = []  # the parts above 1, descending; rest 1s follow them
    rest, top = total, hi - 1 + hi % 2  # the largest odd part that may come next
    while True:
        # The lexicographically largest completion: as many of each odd part
        # as fit, largest first.
        while rest >= 3 and top >= 3:
            if top > rest:
                top = rest - 1 + rest % 2
            c = rest // top
            parts += (top,) * c
            rest -= c * top
            top -= 2
        yield tuple(parts) + (1,) * rest
        # The next member drops one copy of the last part above 1 and
        # completes with parts at least 2 below it.
        if not parts:
            return
        top = parts.pop()
        rest += top
        top -= 2


def _c_core(total: int, v: int, l: int):
    """Parts <= v summing to `total`, distinct below l+1, free in (l, 2l].

    The free parts come in decreasing lexicographic order and, under each
    choice of them, the distinct parts in increasing lexicographic order.
    """
    free = []  # the parts above l, descending
    rest, top = total, v  # the weight left, and the largest free part that may come next
    cap = min(v, l)  # the largest distinct part
    while True:
        # The lexicographically largest free parts: as many of each as fit.
        while True:
            if top > rest:
                top = rest
            if top <= l:
                break
            c = rest // top
            free += (top,) * c
            rest -= c * top
            top -= 1
        if rest <= cap * (cap + 1) // 2:
            small, r = [], rest  # the distinct parts, descending, and the weight they lack
            while True:
                # The lexicographically smallest completion: each part is the
                # least p with p(p+1)/2 >= the weight left.
                while r:
                    p = (isqrt(8 * r - 7) + 1) // 2
                    small.append(p)
                    r -= p
                yield (*free, *small)
                # The next member raises the last part that has a part after
                # it and room below the part before it, then completes.
                r = small.pop() if small else 0
                while small and small[-1] + 1 == (small[-2] if len(small) > 1 else cap + 1):
                    r += small.pop()
                if not small:
                    break
                small[-1] += 1
                r -= 1
        # The next choice of free parts has one fewer copy of the last one.
        if not free:
            return
        top = free.pop()
        rest += top
        top -= 1


# ---------------------------------------------------------------------------
# fill walks: each counts weight w plus every fill of weight at most hi - w
# into a difference row of hi+2 slots, a run of consecutive weights a..b as
# +1 at slot a and -1 at slot b+1 (slot hi+1 takes the -1 of a run that ends
# at hi).  A walk skips a subtree only when none of its members reaches the
# window's low end lo, so the members of weights lo..hi are each counted
# exactly once; entries below lo may hold partial counts and are dropped by
# the caller.  The distinct walk counts a set of even size into one row and
# one of odd size into the other; the odd and core walks use one row.
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


def _walk_odd(row, hi: int, w: int, v: int) -> None:
    """Count weight w plus each multiset of odd parts <= v.

    Parts 1 take every prefix on to hi, so no subtree misses the window and
    the walk has no low end to prune at."""
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


def _walk_c_core(row, lo: int, hi: int, w: int, v: int, l: int) -> None:
    """Count weight w plus each multiset of parts <= v that is free in
    (l, 2l] and distinct in [1, l]."""
    row[w] += 1
    row[w + 1] -= 1
    if w + l * (l + 1) // 2 >= lo:  # the distinct parts can reach lo
        _walk_distinct(row, row, lo, hi, w, l, 1)
    top = hi - w
    if top > v:
        top = v
    for u in range(top, l, -1):
        for x in range(w + u, hi + 1, u):
            _walk_c_core(row, lo, hi, x, u - 1, l)


# ---------------------------------------------------------------------------
# shapes: a class is fixed head parts around one fill.  shape(n, *args)
# yields the heads of its members up to weight n, in the class's order, as
# (parts above the fill, parts below it, fill, fill arguments).  _members
# runs the fill's generator under each head and _walk its row walk.
# ---------------------------------------------------------------------------


def _walk_sets(rows, lo: int, hi: int, w: int, v: int, least: int) -> None:
    rows[0][w] += 1  # the empty set; _walk_distinct counts the others
    rows[0][w + 1] -= 1
    _walk_distinct(*rows, lo, hi, w, v, least)


# fill -> (generator of the fills of a total, row walk from a weight w).
# distinct: parts in [least, v], arguments (v, least); odd: odd parts <= v,
# (v,); core: parts <= v, distinct up to l and free above it, (v, l).
FILLS = {
    "distinct": (_distinct, _walk_sets),
    "odd": (_odd_multiset, lambda rows, lo, hi, w, v: _walk_odd(rows[0], hi, w, v)),
    "core": (_c_core, lambda rows, lo, hi, w, v, l: _walk_c_core(rows[0], lo, hi, w, v, l)),
}


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


def _distinct_parts(n: int, k: int | None):
    # A and its halves, and the bounded pair below k: distinct parts, no head
    yield (), (), "distinct", (n if k is None else k - 1, 1)


def _largest_odd(n: int):
    # B: the largest part m, odd, from the top down, then odd parts <= m
    for m in range(n - 1 + n % 2, 0, -2):
        yield (m,), (), "odd", (m,)


def _odd_window(n: int, k: int, odd: int):
    # Bk: window extras of count parity odd, the largest odd part 2l-1, then odd parts
    for l in range(1, (n + 1) // 2 + 1):
        for extras in _window_subsets(l, k, n - 2 * l + 1, not odd):
            yield extras + (2 * l - 1,), (), "odd", (2 * l - 1,)


def _anchor_window(n: int, k: int, odd: int):
    # Ck (C at k = 1): window extras of count parity odd, the anchor 2l, then the core
    for l in range(1, n // 2 + 1):
        for extras in _window_subsets(l, k, n - 2 * l, not odd):
            yield extras + (2 * l,), (), "core", (2 * l, l)


def _smallest_repeated(n: int, k: int, first: int):
    # Dk (SptKd: first = 1): distinct parts above s, then the smallest part s k times
    for s in range(first, n // k + 1):
        yield (), (s,) * k, "distinct", (n, s + 1)


def _unique_largest(n: int, first: int, gap: int):
    # E (first 1, gap 2), F (2, 1): the largest part m, then odd parts <= m - gap
    for m in range(first, n + 1, 2):
        yield (m,), (), "odd", (m - gap,)


def _largest_above_one(n: int):
    # P1: the largest part m, from the top down, then distinct parts in [2, m-1]
    for m in range(n, 1, -1):
        yield (m,), (), "distinct", (m - 1, 2)


def _ones_below(n: int, k: int):
    # Pprime: distinct parts >= 2, then k-1 ones
    if k - 1 <= n:
        yield (), (1,) * (k - 1), "distinct", (n, 2)


def _gap_above_smallest(n: int, k: int):
    # Pdprime (P2 at k = 1): distinct parts >= s+2, then k-1 parts s+1, then s
    for s in range(1, (n - k + 1) // k + 1):
        yield (), (s + 1,) * (k - 1) + (s,), "distinct", (n, s + 2)


def _members(spec: ClassSpec, n: int):
    """The members of weight n, heads in shape order and, under each head,
    fills in generator order.  A split class keeps the fills whose part
    count has its parity; an anchored one yields (anchor, parts)."""
    shape, args, half, _ = _ENGINES[spec.class_id]
    anchored = spec.anchored
    for above, below, fill, fill_args in shape(n, *args(spec.k)):
        for parts in FILLS[fill][0](n - sum(above) - sum(below), *fill_args):
            if half is None or len(parts) % 2 == half:
                parts = above + parts + below
                yield (above[-1], parts) if anchored else parts


def _walk(rows, lo: int, hi: int, shape, args: tuple) -> None:
    """Count the members of shape(hi, *args) into the row pair."""
    for above, below, fill, fill_args in shape(hi, *args):
        FILLS[fill][1](rows, lo, hi, sum(above) + sum(below), *fill_args)


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------


# Bound of the signed-build cache.  One entry is a tuple of order+1 plain
# integers, about 33 KB at order 750, so 64 entries stay under 2.2 MB.  The
# series_deep benchmark (every class at order 740, then T3x, T8, T9 and T12)
# builds 45 distinct signed tuples, so within one run each is built once;
# report --all builds 86, at orders 60..250, and reads none again once it
# is dropped.
SIGNED_CACHE_SIZE = 64


@lru_cache(maxsize=SIGNED_CACHE_SIZE)
def _signed(build, k: int | None, order: int, sign: int) -> tuple[int, ...]:
    """build(k, order, sign), made once per key and then shared."""
    return build(k, order, sign)


def _halves(build, parity: int):
    """Builder of the even (parity 0) or odd half of a split family, from its
    signed builder: (S(+1) + S(-1))/2 or (S(+1) - S(-1))/2."""
    def halve(k: int | None, order: int) -> tuple[int, ...]:
        plus, minus = _signed(build, k, order, PLUS), _signed(build, k, order, MINUS)
        return _halve(list(map(sub if parity else add, plus, minus)))
    return halve


def _gf_distinct(k: int | None, order: int, sign: int = PLUS) -> tuple[int, ...]:
    """Distinct parts, below k when k is given, each marked with the sign."""
    return tuple(_pochhammer(sign, 1, 1, order if k is None else k - 1, order))


# Bound of the Euler reciprocal cache.  One entry holds 1/(q; q)_j for every
# j with j(j+1)/2 <= order, each cut to the order - j(j+1)/2 + 1 coefficients
# a tail sum reads: 19,019 integers, 0.68 MiB, at order 740, and under 0.1
# MiB at order 250.  The series_deep benchmark reads one order (740), and
# report --all nine (60..250), four of them again after others, so 16
# entries build each order of one run once and hold at most 11 MiB even at
# the 2**63 edge.
EULER_CACHE_SIZE = 16


@lru_cache(maxsize=EULER_CACHE_SIZE)
def _euler_reciprocals(order: int) -> tuple[tuple[int, ...], ...]:
    """1/(q; q)_j for every j with j(j+1)/2 <= order, entry j cut to its
    lowest order - j(j+1)/2 + 1 coefficients: one running division per j.

    A tail sum's term j has degree at least j(j+1)/2, so no term reads past
    the cut, and the sweep depends on the order alone: every tail sum of
    one order, whatever its sign, shift, step or start, slices it.
    """
    r = [1] + [0] * order
    reciprocals = [tuple(r)]
    j = 1
    while (cut := order - j * (j + 1) // 2 + 1) > 0:
        del r[cut:]
        _div_factor(r, j, MINUS)
        reciprocals.append(tuple(r))
        j += 1
    return tuple(reciprocals)


def _tail_sum(sign: int, order: int, shift: int, step: int, start: int) -> tuple[int, ...]:
    """Sum of q^(shift + t*step) * tail(start + t) over t >= 0, where tail(i)
    is the product of (1 + sign*q^m) over m >= i, for shift >= 0, start >= 1.

    By Euler's expansion (Andrews, *The Theory of Partitions*, Cor. 2.2),
    tail(i) = sum_j sign^j * q^(ij + j(j-1)/2) / (q; q)_j, so the sum is
    sum_j sign^j * q^e_j / ((q; q)_j * (1 - q^(step+j))) with e_j = shift +
    start*j + j(j-1)/2 >= j(j+1)/2, over the about sqrt(2*order) j with
    e_j <= order.  Term j is 1/(q; q)_j from :func:`_euler_reciprocals`, cut
    to the order - e_j + 1 coefficients it reaches, divided by
    (1 - q^(step+j)): one division per j, O(order) coefficients held and no
    tail built.
    """
    acc = [0] * (order + 1)
    for j, r in enumerate(_euler_reciprocals(order)):
        e = shift + start * j + j * (j - 1) // 2
        if e > order:
            break
        term = list(r[:order - e + 1])
        _div_factor(term, step + j, MINUS)
        acc[e:] = map(sub if sign == MINUS and j % 2 else add, acc[e:], term)
    return tuple(acc)


def _gf_dk(k: int, order: int, sign: int = PLUS) -> tuple[int, ...]:
    """Sum over the smallest-part index s >= 0 of q^(sk) * tail(s+1).

    With sign -1 each part above the smallest carries a -1 weight, so the
    coefficients become the even-minus-odd difference of the parity split.
    By :func:`_tail_sum` the sum is that of sign^j * q^(j(j+1)/2) /
    ((q; q)_j * (1 - q^(k+j))) over j >= 0.
    """
    return _tail_sum(sign, order, 0, k, 1)


# Bound of the window-sum cache.  A windowed entry holds T_j for the about
# sqrt(order) j whose terms reach the order: 13,416 integers, 0.43 MiB, at
# order 740.  A T_0 entry (E, F) is order+1 integers.  The series_deep
# benchmark needs 4 entries (the Bk and Ck cores, E and F) and report --all
# 13 (T2, T3, T3x, T5 and T6 at orders 61..250), so 16 entries sweep each
# core once per run and hold at most 7 MiB even at the 2**63 edge.
WINDOW_SUM_CACHE_SIZE = 16


@lru_cache(maxsize=WINDOW_SUM_CACHE_SIZE)
def _window_sums(update, offset: int, order: int,
                 windowed: bool) -> tuple[tuple[int, ...], ...]:
    """T_j, the sum of q^((2+2j)*l - offset) * core_l over l = 1, 2, ...,
    cut to the order - j(j+1) + 1 coefficients that e_j, of lowest degree
    j(j+1), carries to the order: for T_0 and every j with
    (j+1)(j+2) - offset <= order if windowed, for T_0 alone if not (E, F).

    core_l is kept as one running coefficient list: update(core, l) turns
    core_(l-1) into core_l in place, from core_0 = 1, and one sweep over l
    adds each core_l into every T_j whose shift it still reaches.  T_0 has
    the least shift, so only the lowest order - (2l - offset) + 1
    coefficients of core_l reach any sum; the rest is dropped before the
    update, which leaves the kept ones exact because the update kernels are
    lower-triangular.  The sums depend on neither k nor the sign, so one
    sweep serves every window; they are plain tuples, unchecked, and only
    the series built from them is checked.
    """
    top = 0
    while windowed and (top + 2) * (top + 3) - offset <= order:
        top += 1
    sums = [[0] * (order - j * (j + 1) + 1) for j in range(top + 1)]
    core = [1] + [0] * order
    l = 1
    while 2 * l - offset <= order:
        del core[order - (2 * l - offset) + 1:]
        update(core, l)
        for j, acc in enumerate(sums):
            s = (2 + 2 * j) * l - offset
            if s >= len(acc):  # and so for every larger j
                break
            acc[s:] = map(add, acc[s:], core)
        l += 1
    return tuple(map(tuple, sums))


def _window_rows(k: int, order: int) -> list[list[int]]:
    """e_j for j < k: the elementary symmetric polynomials of q^2, q^4, ...,
    q^(2k-2), which are q^(j(j+1)) * [k-1 choose j]_(q^2), truncated at order.

    One factor (1 + t*q^v) at a time: e_j <- e_j + q^v * e_(j-1), from the
    top j down so each step reads the e_(j-1) before this factor.
    """
    rows = [[1]]
    for v in range(2, 2 * k - 1, 2):
        rows.append([])
        for j in range(len(rows) - 1, 0, -1):
            row, lower = rows[j], rows[j - 1]
            # e_j has lower degree than q^v * e_(j-1), so the slice below
            # never outruns `lower` and the row keeps its length
            row += [0] * (min(len(lower) + v, order + 1) - len(row))
            row[v:] = map(add, row[v:], lower)
    return rows


def _window_series(update, offset: int, k: int, order: int, sign: int) -> tuple[int, ...]:
    """Sum of q^(2l - offset) * core_l * W_l over l >= 1, where W_l, the
    product of (1 + sign*q^(2l+2i)) over the window i = 1 .. k-1, is the sum
    of sign^j * q^(2lj) * e_j over j < k (the q-binomial theorem).

    So the sum is the sum of sign^j * e_j * T_j over j < k, with T_j from
    :func:`_window_sums`: each nonzero term of e_j adds one shifted, scaled
    copy of T_j.  A j past the sweep's last adds nothing below the order.
    """
    acc = [0] * (order + 1)
    sums = _window_sums(update, offset, order, True)
    for j, (row, t) in enumerate(zip(_window_rows(k, order), sums)):
        for d, c in enumerate(row):
            if c:
                acc[d:] = map(add, acc[d:], map(mul, t, repeat(sign ** j * c)))
    return tuple(acc)


def _grow_odd_core(core: list, l: int) -> None:
    # free odd parts up to 2l-1
    _div_factor(core, 2 * l - 1, MINUS)


def _grow_c_core(core: list, l: int) -> None:
    # distinct parts up to l, free parts in (l, 2l]
    _mul_factor(core, l, PLUS)
    _mul_factor(core, l, MINUS)
    _div_factor(core, 2 * l - 1, MINUS)
    _div_factor(core, 2 * l, MINUS)


def _grow_e_core(core: list, l: int) -> None:
    # free odd parts below the unique largest part 2l-1
    if l > 1:
        _div_factor(core, 2 * l - 3, MINUS)


def _gf_bk(k: int, order: int, sign: int = PLUS) -> tuple[int, ...]:
    """Largest-odd-part sum of the window-marked B product: the largest odd
    part 2l-1 and free odd parts up to it, sum_j sign^j * e_j * T_j."""
    return _window_series(_grow_odd_core, 1, k, order, sign)


def _gf_ck(k: int, order: int, sign: int = PLUS) -> tuple[int, ...]:
    """Anchor sum of the window-marked C product, over the anchor half l:
    the anchor 2l and the C core below it, sum_j sign^j * e_j * T_j."""
    return _window_series(_grow_c_core, 0, k, order, sign)


def _gf_odd(order: int) -> tuple[int, ...]:
    """Odd parts: 1/(q; q^2)_inf, one division per odd factor up to the order."""
    coeffs = [1] + [0] * order
    for m in range(1, order + 1, 2):
        _div_factor(coeffs, m, MINUS)
    return tuple(coeffs)


def _gf_pprime(k: int, order: int) -> tuple[int, ...]:
    # k-1 ones, then distinct parts >= 2: q^(k-1) * tail(2), where tail(2)
    # is the distinct-part product (-q; q)_inf that A reads, divided by 1 + q
    ones = min(k - 1, order + 1)
    tail = list(_signed(_gf_distinct, None, order, PLUS)[:order + 1 - ones])
    _div_factor(tail, 1, PLUS)
    return (0,) * ones + tuple(tail)


class _Engine(NamedTuple):
    shape: Callable  # (n, *args) -> the heads of the members up to weight n
    args: Callable  # k -> the shape's arguments
    half: int | None  # the parity of the fill's part count kept, or None for both
    gf: Callable  # (k, order) -> coefficients of the generating function up to q^order


# class id -> engines; C is Ck_e and P2 is Pdprime, both at k = 1.  Classes
# with the same shape and arguments share its rows.  B's builder _gf_odd
# divides 1 by each (1 - q^m), m odd, and inverts no series.  A, Pe_d, Po_d
# and SptKd (Dk - A) share the one distinct product _signed(_gf_distinct,
# None, order, PLUS), and every Pprime(k) shifts it, divided by 1 + q, by
# k-1.  Dk, P1 and Pdprime are one _tail_sum each: P1 sums q^s * tail(s+1)
# over s >= 2, and Pdprime(k), P2 at k = 1, sums q^(sk + k - 1) * tail(s+2)
# over s >= 1 (k-1 parts s+1 above the smallest part s); every tail sum of
# one order slices the one _euler_reciprocals sweep.  Bk and Ck read the one
# _window_sums sweep of their core, and E and F a one-term sweep each.  The
# gf builders reach the qpart.series functions by module-level name at call
# time, never through a captured reference, so a patch of one of those names
# (a tracer, the independence test) stays in the path.
_ENGINES: dict[str, _Engine] = {
    "A": _Engine(_distinct_parts, lambda k: (None,), None,
                 lambda k, order: _signed(_gf_distinct, None, order, PLUS)),
    "B": _Engine(_largest_odd, lambda k: (), None,
                 lambda k, order: _gf_odd(order)),
    "C": _Engine(_anchor_window, lambda k: (1, 0), None,
                 lambda k, order: _signed(_gf_ck, 1, order, PLUS)),
    "Dk": _Engine(_smallest_repeated, lambda k: (k, 0), None,
                  lambda k, order: _signed(_gf_dk, k, order, PLUS)),
    "Dk_e": _Engine(_smallest_repeated, lambda k: (k, 0), 0, _halves(_gf_dk, 0)),
    "Dk_o": _Engine(_smallest_repeated, lambda k: (k, 0), 1, _halves(_gf_dk, 1)),
    "Bk_e": _Engine(_odd_window, lambda k: (k, 0), None, _halves(_gf_bk, 0)),
    "Bk_o": _Engine(_odd_window, lambda k: (k, 1), None, _halves(_gf_bk, 1)),
    "Ck_e": _Engine(_anchor_window, lambda k: (k, 0), None, _halves(_gf_ck, 0)),
    "Ck_o": _Engine(_anchor_window, lambda k: (k, 1), None, _halves(_gf_ck, 1)),
    "E": _Engine(_unique_largest, lambda k: (1, 2), None,
                 lambda k, order: _window_sums(_grow_e_core, 1, order, False)[0]),
    "F": _Engine(_unique_largest, lambda k: (2, 1), None,
                 lambda k, order: _window_sums(_grow_odd_core, 0, order, False)[0]),
    "P1": _Engine(_largest_above_one, lambda k: (), None,
                  lambda k, order: _tail_sum(PLUS, order, 2, 1, 3)),
    "P2": _Engine(_gap_above_smallest, lambda k: (1,), None,
                  lambda k, order: _tail_sum(PLUS, order, 1, 1, 3)),
    "Pprime": _Engine(_ones_below, lambda k: (k,), None, _gf_pprime),
    "Pdprime": _Engine(_gap_above_smallest, lambda k: (k,), None,
                       lambda k, order: _tail_sum(PLUS, order, 2 * k - 1, k, 3)),
    "Pe_d": _Engine(_distinct_parts, lambda k: (None,), 0, _halves(_gf_distinct, 0)),
    "Po_d": _Engine(_distinct_parts, lambda k: (None,), 1, _halves(_gf_distinct, 1)),
    "Pe_bounded": _Engine(_distinct_parts, lambda k: (k,), 0, _halves(_gf_distinct, 0)),
    "Po_bounded": _Engine(_distinct_parts, lambda k: (k,), 1, _halves(_gf_distinct, 1)),
    "SptKd": _Engine(_smallest_repeated, lambda k: (k, 1), None,
                     lambda k, order: tuple(map(sub, _signed(_gf_dk, k, order, PLUS),
                                                _signed(_gf_distinct, None, order, PLUS)))),
}

# parity-split family -> signed builder, whose S(-1) is the even-minus-odd difference
_SIGNED = {"Dk": _gf_dk, "Bk": _gf_bk, "Ck": _gf_ck}


def _require_natural(what: str, *values) -> None:
    """Refuse a weight or order that is not a non-negative int; bool is an
    int subclass, but True is no weight."""
    for value in values:
        if type(value) is not int:
            raise PartitionError(f"{what} must be a non-negative int, not {value!r}")
        if value < 0:
            raise PartitionError(f"{what} must be non-negative")


def _checked(coeffs: tuple[int, ...], name: object) -> TruncatedSeries:
    """The checked series of a builder's coefficients; as every builder is
    lower-triangular, an overflow error names the order below its exponent."""
    try:
        return TruncatedSeries(coeffs)
    except CoefficientOverflowError as err:
        raise CoefficientOverflowError(
            f"{err}; the largest order that builds for {name} is {err.exponent - 1}",
            err.exponent) from None


def enumerate_class(spec: ClassSpec, n: int) -> list:
    """Complete duplicate-free list of class members of weight n.

    C-family members come back as :class:`AnchoredPartition`, everything
    else as :class:`Partition`.
    """
    _require_natural("weight", n)
    members = _members(spec, n)
    if spec.anchored:
        return [AnchoredPartition(a, Partition(parts)) for a, parts in members]
    return [Partition(parts) for parts in members]


# Bound of the row cache.  An entry is the row pair of one walked structure:
# under 5 KB at the weights report --all walks (up to 62), where it keeps 43
# structures, and about 8 KB at weight 110, where walking Dk(1) already takes
# about 10 s.  64 entries keep every structure of one report and stay under
# 1 MB.
ROW_CACHE_SIZE = 64

# (shape, its arguments) -> row pair walked from weight 0, least recently
# used first
_rows: OrderedDict = OrderedDict()


def _walked(shape, args: tuple, lo: int, hi: int):
    """The row pair of the members of shape(n, *args) that covers weights
    lo..hi.

    The walk fills a pair of difference rows of hi+2 slots, the last one
    taking the -1 of every run that ends at hi; a running sum of each, cut
    to hi+1 entries, gives the counts.  A cached pair covers every shorter
    request; a walk from weight 0 is kept, and one that starts higher is
    not, since it leaves the entries below lo incomplete.
    """
    key = (shape, args)
    rows = _rows.get(key)
    if rows is not None and len(rows[0]) > hi:
        _rows.move_to_end(key)
        return rows
    diffs = ([0] * (hi + 2), [0] * (hi + 2))
    _walk(diffs, lo, hi, shape, args)
    rows = tuple(list(islice(accumulate(d), hi + 1)) for d in diffs)
    if lo == 0:
        _rows[key] = rows
        _rows.move_to_end(key)
        if len(_rows) > ROW_CACHE_SIZE:
            _rows.popitem(last=False)
    return rows


def count_row(spec: ClassSpec, hi: int, lo: int = 0) -> tuple[int, ...]:
    """Numbers of class members of weights lo..hi, by one exhaustive walk
    of the class's shape that builds no members, memoises nothing and reads
    no generating function, so it stays an independent oracle for
    :func:`gf`.  Classes with the same shape and arguments, such as Dk and
    its halves, share its rows; rows walked from weight 0 are kept, and a
    kept row serves every shorter request.
    """
    _require_natural("weight", lo, hi)
    shape, args, half, _ = _ENGINES[spec.class_id]
    even, odd = _walked(shape, args(spec.k), lo, hi)
    if half is None:
        return tuple(map(add, even[lo:hi + 1], odd[lo:hi + 1]))
    return tuple((even, odd)[half][lo:hi + 1])


@lru_cache(maxsize=65536, typed=True)
def count_by_enumeration(spec: ClassSpec, n: int) -> int:
    """Number of class members of weight n: :func:`count_row` on the
    window [n, n], or read off a kept row that reaches n."""
    return count_row(spec, n, n)[0]


@lru_cache(maxsize=256, typed=True)
def gf(spec: ClassSpec, order: int) -> TruncatedSeries:
    """Generating function of the class, truncated at `order`.

    The q^n coefficient is the class count at weight n (anchored counting
    for the C family).  Parity-split classes recombine the sign-marked
    evaluations; non-integral halves would signal an implementation bug and
    raise.
    """
    _require_natural("order", order)
    return _checked(_ENGINES[spec.class_id].gf(spec.k, order), spec)


@lru_cache(maxsize=64, typed=True)
def gf_parity_difference(class_family: str, k: int, order: int) -> TruncatedSeries:
    """Even-minus-odd difference series of a parity-split family: its
    signed builder at -1, one build where the two halves would take two."""
    if class_family not in _SIGNED:
        raise PartitionError(f"no parity split for family {class_family!r}")
    if type(k) is not int or k < 1:
        raise PartitionError(f"family {class_family} needs a positive k")
    _require_natural("order", order)
    name = f"{class_family}_e-{class_family}_o(k={k})"
    return _checked(_signed(_SIGNED[class_family], k, order, MINUS), name)


def count_by_series(spec: ClassSpec, n: int) -> int:
    """The q^n coefficient of the class generating function built to order
    n; every builder is lower-triangular, so a higher order gives the same
    coefficient."""
    _require_natural("weight", n)
    return gf(spec, n).coefficient(n)


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------


def ak_doubled_specs(k: int) -> tuple[ClassSpec, ...]:
    """The classes P1, Pprime, P2 and Pdprime whose counts sum to 2*A_k(n)."""
    return ClassSpec("P1"), ClassSpec("Pprime", k), ClassSpec("P2"), ClassSpec("Pdprime", k)


def count_ak_doubled(k: int, n: int, method: str = "enumeration") -> int:
    """2*A_k(n) = P1 + Pprime + P2 + Pdprime counts at weight n."""
    specs = ak_doubled_specs(k)
    if method == "enumeration":
        return sum(count_by_enumeration(s, n) for s in specs)
    if method == "series":
        return sum(count_by_series(s, n) for s in specs)
    raise PartitionError(f"unknown counting method {method!r}")


@dataclass(frozen=True)
class DkRelation:
    """D_k(n) = 2 * sum_m coefficients[m] * A(n - m) for all n > threshold."""

    k: int
    coefficients: tuple[int, ...]
    threshold: int


def derive_dk_relation(k: int) -> DkRelation:
    """Distinct-count expansion of D_k.

    The multiplier polynomial is sum_{j=0}^{k-1} (-1)^j (q^(k-j); q)_j; the
    relation holds beyond the degree k(k-1)/2 of the alternating correction
    polynomial (q; q)_{k-1}.
    """
    if k < 1:
        raise PartitionError("k must be positive")
    threshold = k * (k - 1) // 2
    order = max(threshold, 1)
    poly = TruncatedSeries.zero(order)
    for j in range(k):
        term = pochhammer_finite(MINUS, k - j, 1, j, order)
        poly = poly + (term if j % 2 == 0 else -term)
    coeffs = list(poly.coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return DkRelation(k, tuple(coeffs), threshold)


def pentagonal_indicator(n: int) -> int:
    """(-1)^m when n = m(3m+-1)/2 for some m >= 0, else 0."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    m = 1
    while m * (3 * m - 1) // 2 <= n:
        if n in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2):
            return -1 if m % 2 else 1
        m += 1
    return 0


# ---------------------------------------------------------------------------
# tables and diagnostics
# ---------------------------------------------------------------------------


@dataclass
class CountTable:
    """Counts of one class over 0..nmax, by one counting method."""

    spec: ClassSpec
    method: str
    values: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "class": self.spec.class_id,
            "k": self.spec.k,
            "method": self.method,
            "values": {str(n): c for n, c in sorted(self.values.items())},
        }

    def to_csv(self) -> str:
        lines = ["n,count"]
        lines.extend(f"{n},{c}" for n, c in sorted(self.values.items()))
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        lines = [f"| n | {self.spec} |", "| --- | --- |"]
        lines.extend(f"| {n} | {c} |" for n, c in sorted(self.values.items()))
        return "\n".join(lines) + "\n"


def count_table(spec: ClassSpec, nmax: int, method: str = "enumeration") -> CountTable:
    """Counts of the class at weights 0..nmax on one path: one enumeration
    row (:func:`count_row`), or the coefficients of one generating function
    built to order nmax."""
    _require_natural("weight", nmax)
    if method == "enumeration":
        values = dict(enumerate(count_row(spec, nmax)))
    elif method == "series":
        series = gf(spec, nmax)
        values = {n: series.coefficient(n) for n in range(nmax + 1)}
    else:
        raise PartitionError(f"unknown counting method {method!r}")
    return CountTable(spec, method, values)


@dataclass(frozen=True)
class AmbiguityReport:
    """Anchored versus raw-multiset counts for the C family at one weight."""

    k: int
    n: int
    anchored_even: int
    anchored_odd: int
    raw_even: int
    raw_odd: int
    raw_distinct_multisets: int
    ambiguous: tuple[tuple[Partition, tuple[AnchoredPartition, ...]], ...]

    @property
    def diverges(self) -> bool:
        return (self.anchored_even != self.raw_even
                or self.anchored_odd != self.raw_odd
                or self.anchored_even + self.anchored_odd != self.raw_distinct_multisets)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "anchored": {"even": self.anchored_even, "odd": self.anchored_odd},
            "raw": {"even": self.raw_even, "odd": self.raw_odd,
                    "distinct_multisets": self.raw_distinct_multisets},
            "diverges": self.diverges,
            "ambiguous": [
                {"parts": p.to_json(),
                 "decompositions": [ap.to_json() for ap in aps]}
                for p, aps in self.ambiguous
            ],
        }


def c_family_ambiguity(k: int, n: int) -> AmbiguityReport:
    """Compare anchored counting with raw-multiset counting at weight n.

    Raw counting asks only whether *some* valid decomposition of the
    multiset has the requested extras parity, so a multiset with two
    decompositions of different parity lands in both raw classes while the
    anchored count books each decomposition once.
    """
    anchored_even = count_by_enumeration(ClassSpec("Ck_e", k), n)
    anchored_odd = count_by_enumeration(ClassSpec("Ck_o", k), n)
    seen: dict[tuple[int, ...], list[AnchoredPartition]] = {}
    for anchor, parts in itertools.chain(_members(ClassSpec("Ck_e", k), n),
                                         _members(ClassSpec("Ck_o", k), n)):
        seen.setdefault(parts, []).append(AnchoredPartition(anchor, Partition(parts)))
    raw_even = raw_odd = 0
    ambiguous = []
    for parts in sorted(seen):
        p = Partition(parts)
        decomps = anchor_decompositions(k, p)
        parities = {len([v for v in parts if v > ap.anchor]) % 2 for ap in decomps}
        if 0 in parities:
            raw_even += 1
        if 1 in parities:
            raw_odd += 1
        if len(decomps) > 1:
            ambiguous.append((p, tuple(decomps)))
    return AmbiguityReport(
        k=k, n=n,
        anchored_even=anchored_even, anchored_odd=anchored_odd,
        raw_even=raw_even, raw_odd=raw_odd,
        raw_distinct_multisets=len(seen),
        ambiguous=tuple(ambiguous),
    )

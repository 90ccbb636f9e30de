"""Dual-path counting: exhaustive enumeration and generating-function
coefficients for every partition class, each path an oracle for the other.

One table, ``_ENGINES``, holds the three engines of each class id.
``members(n, k)`` generates the members of weight n; :func:`enumerate_class`,
and through it the bijections, materialises them.  The member generators
(``_distinct``, ``_odd_multiset``, ``_c_core``) are loops over one mutable
list of parts: each steps from one member to the next in a fixed
lexicographic order, with residual-weight pruning, and yields a fresh tuple,
so a member costs no chain of suspended frames.  ``walk(k)`` names the row
walk that counts the class: one exhaustive descent over the class's
structure that visits each member of a weight in a window [lo, hi] once,
builds no members, and adds 1 to that weight's entry of a row.  A walk
that splits by a part count fills an even and an odd row at once, so Dk_e,
Dk_o and Dk share one walk, as do Pe_d, Po_d and A, and the bounded pair;
the Bk and Ck halves share no prefix and walk apart.  :func:`count_row` reads
rows, and :func:`count_by_enumeration` is its window [n, n].  Walked rows
are kept in one bounded cache, and a kept row serves every shorter request.
No walk reads a generating function, memoises or uses a closed form.

``gf(k, order)`` builds the class generating function on the exact engine
in :mod:`qpart.series`, and :func:`gf` reads coefficients off it.  Each
parity-split family has one signed builder S(k, order, sign) that marks
every part the split counts with the sign: S(+1) is the whole family and
S(-1) the even-minus-odd difference, so the halves are (S(+1) +- S(-1))/2,
which must be integral.

Every signed series is built once per (builder, k, order, sign) and kept in
one bounded cache, ``_signed``, that the two halves, the whole-family row
(Dk, SptKd, C) and :func:`gf_parity_difference` all read; a series is
immutable, so sharing it is safe.  Its bound, ``SIGNED_CACHE_SIZE``, is set
beside it.  The builders keep their running products as plain lists and
add shifted terms into one accumulator by slice.  A running core is cut to
the coefficients its later terms can still reach before each update: the
kernels are lower-triangular, so what is kept stays exact.

The windowed series (Bk, Ck and their halves and differences) are sums over
l of q^(2l - offset) * core_l * W_l, where W_l is the product of
(1 + sign*q^(2l+2i)) over the window i = 1 .. k-1.  By the q-binomial
theorem (Andrews, *The Theory of Partitions*, Thm 3.3), W_l is the sum over
j < k of sign^j * q^(2lj) * e_j, where e_j = q^(j(j+1)) * [k-1 choose j]_(q^2)
does not depend on l.  So S(k, sign) is the sum of sign^j * e_j * T_j, and
each T_j, the sum of q^((2+2j)l - offset) * core_l, depends on neither k
nor the sign: ``_window_sum`` sweeps the core once per (core, offset, j,
order) and keeps T_j in its own bounded cache, whose bound,
``WINDOW_SUM_CACHE_SIZE``, is set beside it.  E and F are T_0 of their own
cores.

The repeated-smallest-part series (Dk, SptKd, their halves and difference,
P1, P2 and Pdprime) are sums of q^(s+t*d) * tail(i+t), where tail(i) is the
product of (1 + sign*q^m) over m >= i.  ``_tail_sum`` folds such a sum by
Horner's rule from its last term down, one factor division per term, and
multiplies once by the first tail, which it divides out of the cached
tail(1).  No family of tails is built, so a build holds O(order)
coefficients at a time.
"""
from __future__ import annotations

import itertools
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import isqrt
from operator import add, mul
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
    TruncatedSeries,
    _div_factor,
    _kronecker_product,
    _mul_factor,
    pochhammer_finite,
    pochhammer_infinite,
)

# ---------------------------------------------------------------------------
# raw enumerators: tuples of parts in descending order, yielded in a fixed
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


# ---------------------------------------------------------------------------
# row walks: one exhaustive descent per structure that counts each member of
# weight at most hi in row[weight], a row being a list of hi+1 counts.  A
# walk skips a subtree only when none of its members reaches the window's
# low end lo, so the members of weights lo..hi are each reached exactly
# once; entries below lo may hold partial counts and are dropped by the
# caller.  A walk counts into a pair of rows: a split class reads one of
# them, rows[0] its even and rows[1] its odd half, and any other class the
# sum of the two.
# ---------------------------------------------------------------------------


def _walk_distinct(row, other, lo: int, hi: int, w: int, v: int, least: int) -> None:
    """Count weight w plus each nonempty set of distinct parts in [least, v],
    a set of odd size in other and one of even size in row."""
    top = hi - w
    if top > v:
        top = v
    for p in range(top, least - 1, -1):
        x = w + p
        # The parts least..p-1 add at most (p-1+least)(p-least)/2, and less
        # for every smaller p.
        if lo and x + (p - 1 + least) * (p - least) // 2 < lo:
            break
        other[x] += 1
        if p > least and x + least <= hi:  # room for a further part
            _walk_distinct(other, row, lo, hi, x, p - 1, least)


def _walk_odd(row, lo: int, hi: int, w: int, v: int) -> None:
    """Count weight w plus each multiset of odd parts <= v."""
    if v < 1:
        row[w] += 1
        return
    # Parts 3 and 1 in a loop: from each weight x = w + 3c the 1s fill every
    # weight up to hi, one member per weight.
    for x in range(w, hi + 1, 3) if v >= 3 else (w,):
        for y in range(x if x > lo else lo, hi + 1):
            row[y] += 1
    top = hi - w
    if top > v:
        top = v
    for u in range(5, top + 1, 2):
        for x in range(w + u, hi + 1, u):
            _walk_odd(row, lo, hi, x, u - 2)


def _walk_c_core(row, lo: int, hi: int, w: int, v: int, l: int) -> None:
    """Count weight w plus each multiset of parts <= v that is free in
    (l, 2l] and distinct in [1, l]."""
    row[w] += 1
    if w + l * (l + 1) // 2 >= lo:  # the distinct parts can reach lo
        _walk_distinct(row, row, lo, hi, w, l, 1)
    top = hi - w
    if top > v:
        top = v
    for u in range(top, l, -1):
        for x in range(w + u, hi + 1, u):
            _walk_c_core(row, lo, hi, x, u - 1, l)


def _walk_bk(rows, lo: int, hi: int, k: int, odd: int) -> None:
    # Fix the largest odd part 2l-1 and window extras of count parity odd,
    # fill with odd parts.
    for l in range(1, (hi + 1) // 2 + 1):
        base = 2 * l - 1
        for extras in _window_subsets(l, k, hi - base, not odd):
            _walk_odd(rows[0], lo, hi, base + sum(extras), base)


def _walk_ck(rows, lo: int, hi: int, k: int, odd: int) -> None:
    # Fix the anchor 2l and window extras of count parity odd, fill the core
    # below the anchor.
    for l in range(1, hi // 2 + 1):
        anchor = 2 * l
        for extras in _window_subsets(l, k, hi - anchor, not odd):
            _walk_c_core(rows[0], lo, hi, anchor + sum(extras), anchor, l)


def _walk_dk(rows, lo: int, hi: int, k: int, first: int) -> None:
    # Smallest part s >= first k times (first = 1: SptKd), split by the
    # parity of the number of distinct parts above it.
    for s in range(first, hi // k + 1):
        rows[0][k * s] += 1
        _walk_distinct(*rows, lo, hi, k * s, hi, s + 1)


def _walk_a(rows, lo: int, hi: int, k: int | None) -> None:
    # Distinct parts, split by the parity of their number; below k if given.
    rows[0][0] += 1
    _walk_distinct(*rows, lo, hi, 0, hi if k is None else k - 1, 1)


def _walk_e(rows, lo: int, hi: int) -> None:
    for m in range(1, hi + 1, 2):
        _walk_odd(rows[0], lo, hi, m, m - 2)


def _walk_f(rows, lo: int, hi: int) -> None:
    for m in range(2, hi + 1, 2):
        _walk_odd(rows[0], lo, hi, m, m - 1)


def _walk_p1(rows, lo: int, hi: int) -> None:
    _walk_distinct(*rows, lo, hi, 0, hi, 2)


def _walk_pprime(rows, lo: int, hi: int, k: int) -> None:
    if k - 1 <= hi:
        rows[0][k - 1] += 1
        _walk_distinct(*rows, lo, hi, k - 1, hi, 2)


def _walk_pdprime(rows, lo: int, hi: int, k: int) -> None:
    # at k = 1 this is P2: no (s+1)-parts, distinct parts >= s+2
    for s in range(1, hi + 1):
        base = s + (s + 1) * (k - 1)
        if base > hi:
            break
        rows[0][base] += 1
        _walk_distinct(*rows, lo, hi, base, hi, s + 2)


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------


# Bound of the signed-build cache.  One entry is a tuple of order+1 integers
# below 2**63, at most 33 KB at order 750, so 64 entries stay under 2.2 MB.
# The series_deep benchmark (every class at order 740, then T3x, T8, T9 and
# T12) builds 44 distinct signed series and a CLI command a few, so within
# one run each is built once.
SIGNED_CACHE_SIZE = 64


@lru_cache(maxsize=SIGNED_CACHE_SIZE)
def _signed(build, k: int | None, order: int, sign: int, *rest) -> TruncatedSeries:
    """build(k, order, sign, *rest), made once per key and then shared."""
    return build(k, order, sign, *rest)


def _halves(build, parity: int):
    """Builder of the even (parity 0) or odd half of a split family, from its
    signed builder: (S(+1) + S(-1))/2 or (S(+1) - S(-1))/2."""
    def halve(k: int | None, order: int) -> TruncatedSeries:
        plus, minus = _signed(build, k, order, PLUS), _signed(build, k, order, MINUS)
        return (plus - minus if parity else plus + minus).halve()
    return halve


def _gf_distinct(k: int | None, order: int, sign: int = PLUS) -> TruncatedSeries:
    """Distinct parts, below k when k is given, each marked with the sign."""
    if k is None:
        return pochhammer_infinite(sign, 1, 1, order)
    return pochhammer_finite(sign, 1, 1, k - 1, order)


def _tail_sum(sign: int, order: int, shift: int, step: int, first: int) -> TruncatedSeries:
    """Sum of q^(shift + t*step) * tail(first + t) over t = 0, 1, ... while
    the shift stays <= order, where tail(i) is the product of (1 + sign*q^m)
    over m >= i.

    The sum is tail(first) * R_0 with R_t = 1 + q^step * R_(t+1) / (1 +
    sign*q^(first+t)), and R = 1 at the last term.  Horner's rule runs that
    from the last term down, one division per term, with R cut to the
    order - shift(t) + 1 coefficients its term can reach, so only O(order)
    coefficients are held at once.  tail(first) is the cached distinct-part
    series tail(1) divided by its first first-1 factors, and one truncated
    product finishes the sum.  tail(1) is read before anything else, so an
    order it does not fit raises its overflow message first; R is a plain
    list and only the result is checked against the bound.
    """
    full = _signed(_gf_distinct, None, order, sign).coeffs
    if shift > order:
        return TruncatedSeries.zero(order)
    r = [1] + [0] * ((order - shift) % step)
    for i in range(first + (order - shift) // step - 1, first - 1, -1):
        _div_factor(r, i, sign)
        r[:0] = [1] + [0] * (step - 1)
    tail = list(full[:order - shift + 1])
    for m in range(1, first):
        _div_factor(tail, m, sign)
    return TruncatedSeries((0,) * shift + tuple(_kronecker_product(r, tail, order - shift)))


def _gf_dk(k: int, order: int, sign: int = PLUS, first: int = 0) -> TruncatedSeries:
    """Sum over the smallest-part index j >= first of q^(jk) * tail(j+1).

    With sign -1 each part above the smallest carries a -1 weight, so the
    coefficients become the even-minus-odd difference of the parity split.
    first = 1 leaves out the zero smallest part, which gives SptKd.  The
    terms step by k in the shift and by 1 in the tail, so one Horner fold
    of :func:`_tail_sum` builds the sum.
    """
    return _tail_sum(sign, order, first * k, k, first + 1)


# Bound of the window-sum cache.  One entry is a tuple of order+1 integers,
# about 33 KB at order 740.  The series_deep benchmark needs 12 sums (Bk and
# Ck for j = 0..4, E and F) and report --all 36 (T2, T3, T3x, T5 and T6 at
# six orders), so 64 entries keep every sum of one run, under 2.2 MB.
WINDOW_SUM_CACHE_SIZE = 64


@lru_cache(maxsize=WINDOW_SUM_CACHE_SIZE)
def _window_sum(update, offset: int, j: int, order: int) -> tuple[int, ...]:
    """T_j: the sum of q^((2+2j)*l - offset) * core_l over l = 1, 2, ...
    while the shift stays <= order.

    core_l is kept as one running coefficient list: update(core, l) turns
    core_(l-1) into core_l in place, from core_0 = 1.  The shift grows with
    l, so only the first order - shift + 1 coefficients of core_l reach the
    sum; the rest is dropped before the update, which leaves the kept ones
    exact because the update kernels are lower-triangular.  The sum depends
    on neither k nor the sign, so one sweep serves every window; it is a
    plain tuple, unchecked, and only the series built from it is checked.
    """
    acc = [0] * (order + 1)
    core = [1] + [0] * order
    l = 1
    while (s := (2 + 2 * j) * l - offset) <= order:
        del core[order - s + 1:]
        update(core, l)
        acc[s:] = map(add, acc[s:], core)
        l += 1
    return tuple(acc)


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


def _window_series(update, offset: int, k: int, order: int, sign: int) -> TruncatedSeries:
    """Sum of q^(2l - offset) * core_l * W_l over l >= 1, where W_l, the
    product of (1 + sign*q^(2l+2i)) over the window i = 1 .. k-1, is the sum
    of sign^j * q^(2lj) * e_j over j < k (the q-binomial theorem).

    So the sum is the sum of sign^j * e_j * T_j over j < k, with T_j from
    :func:`_window_sum`: each nonzero term of e_j adds one shifted, scaled
    copy of T_j.
    """
    acc = [0] * (order + 1)
    for j, row in enumerate(_window_rows(k, order)):
        sums = _window_sum(update, offset, j, order)
        for d, c in enumerate(row):
            if c:
                acc[d:] = map(add, acc[d:], map(mul, sums, repeat(sign ** j * c)))
    return TruncatedSeries(tuple(acc))


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


def _gf_bk(k: int, order: int, sign: int = PLUS) -> TruncatedSeries:
    """Largest-odd-part sum of the window-marked B product: the largest odd
    part 2l-1 and free odd parts up to it, sum_j sign^j * e_j * T_j."""
    return _window_series(_grow_odd_core, 1, k, order, sign)


def _gf_ck(k: int, order: int, sign: int = PLUS) -> TruncatedSeries:
    """Anchor sum of the window-marked C product, over the anchor half l:
    the anchor 2l and the C core below it, sum_j sign^j * e_j * T_j."""
    return _window_series(_grow_c_core, 0, k, order, sign)


def _gf_p1(order: int) -> TruncatedSeries:
    # Smallest part s >= 2, then distinct parts above s: q^s * tail(s+1).
    return _tail_sum(PLUS, order, 2, 1, 3)


def _gf_pdprime(k: int, order: int) -> TruncatedSeries:
    # Smallest part s >= 1, k-1 parts s+1, then distinct parts above s+1:
    # q^(sk + k - 1) * tail(s+2).
    return _tail_sum(PLUS, order, 2 * k - 1, k, 3)


class _Engine(NamedTuple):
    members: Callable  # (n, k) -> tuples; (anchor, tuple) pairs if anchored
    walk: Callable  # k -> (row walk, its arguments, the half read: 0, 1 or None for both)
    gf: Callable  # (k, order) -> generating function truncated at order


# class id -> engines; C is Ck_e and P2 is Pdprime, both at k = 1, and B is
# Bk_e at k = 1.  Classes that name the same walk and arguments share its
# rows.  The gf builders reach the qpart.series functions by module-level
# name at call time, never through a captured reference, so a patch of one
# of those names (a tracer, the independence test) stays in the path.
_ENGINES: dict[str, _Engine] = {
    "A": _Engine(lambda n, k: _distinct(n, n), lambda k: (_walk_a, (None,), None), _gf_distinct),
    "B": _Engine(lambda n, k: _odd_multiset(n, n) if n else (), lambda k: (_walk_bk, (1, 0), None),
                 lambda k, order: pochhammer_infinite(MINUS, 1, 2, order).reciprocal()),
    "C": _Engine(lambda n, k: _iter_ck(n, 1, True), lambda k: (_walk_ck, (1, 0), None),
                 lambda k, order: _signed(_gf_ck, 1, order, PLUS)),
    "Dk": _Engine(_iter_dk, lambda k: (_walk_dk, (k, 0), None),
                  lambda k, order: _signed(_gf_dk, k, order, PLUS)),
    "Dk_e": _Engine(lambda n, k: _iter_dk(n, k, 0), lambda k: (_walk_dk, (k, 0), 0),
                    _halves(_gf_dk, 0)),
    "Dk_o": _Engine(lambda n, k: _iter_dk(n, k, 1), lambda k: (_walk_dk, (k, 0), 1),
                    _halves(_gf_dk, 1)),
    "Bk_e": _Engine(lambda n, k: _iter_bk(n, k, True), lambda k: (_walk_bk, (k, 0), None),
                    _halves(_gf_bk, 0)),
    "Bk_o": _Engine(lambda n, k: _iter_bk(n, k, False), lambda k: (_walk_bk, (k, 1), None),
                    _halves(_gf_bk, 1)),
    "Ck_e": _Engine(lambda n, k: _iter_ck(n, k, True), lambda k: (_walk_ck, (k, 0), None),
                    _halves(_gf_ck, 0)),
    "Ck_o": _Engine(lambda n, k: _iter_ck(n, k, False), lambda k: (_walk_ck, (k, 1), None),
                    _halves(_gf_ck, 1)),
    "E": _Engine(lambda n, k: _iter_e(n), lambda k: (_walk_e, (), None),
                 lambda k, order: TruncatedSeries(_window_sum(_grow_e_core, 1, 0, order))),
    "F": _Engine(lambda n, k: _iter_f(n), lambda k: (_walk_f, (), None),
                 lambda k, order: TruncatedSeries(_window_sum(_grow_odd_core, 0, 0, order))),
    "P1": _Engine(lambda n, k: _distinct(n, n, 2) if n else (), lambda k: (_walk_p1, (), None),
                  lambda k, order: _gf_p1(order)),
    "P2": _Engine(lambda n, k: _iter_pdprime(n, 1), lambda k: (_walk_pdprime, (1,), None),
                  lambda k, order: _gf_pdprime(1, order)),
    "Pprime": _Engine(_iter_pprime, lambda k: (_walk_pprime, (k,), None),
                      lambda k, order: pochhammer_infinite(PLUS, 2, 1, order).shift(k - 1)),
    "Pdprime": _Engine(_iter_pdprime, lambda k: (_walk_pdprime, (k,), None), _gf_pdprime),
    "Pe_d": _Engine(lambda n, k: _iter_distinct_parity(n, n, 0), lambda k: (_walk_a, (None,), 0),
                    _halves(_gf_distinct, 0)),
    "Po_d": _Engine(lambda n, k: _iter_distinct_parity(n, n, 1), lambda k: (_walk_a, (None,), 1),
                    _halves(_gf_distinct, 1)),
    "Pe_bounded": _Engine(lambda n, k: _iter_distinct_parity(n, k - 1, 0),
                          lambda k: (_walk_a, (k,), 0), _halves(_gf_distinct, 0)),
    "Po_bounded": _Engine(lambda n, k: _iter_distinct_parity(n, k - 1, 1),
                          lambda k: (_walk_a, (k,), 1), _halves(_gf_distinct, 1)),
    "SptKd": _Engine(lambda n, k: _iter_dk(n, k, None, 1), lambda k: (_walk_dk, (k, 1), None),
                     lambda k, order: _signed(_gf_dk, k, order, PLUS, 1)),
}

# parity-split family -> signed builder, whose S(-1) is the even-minus-odd difference
_SIGNED = {"Dk": _gf_dk, "Bk": _gf_bk, "Ck": _gf_ck}


def enumerate_class(spec: ClassSpec, n: int) -> list:
    """Complete duplicate-free list of class members of weight n.

    C-family members come back as :class:`AnchoredPartition`, everything
    else as :class:`Partition`.
    """
    if n < 0:
        raise PartitionError("weight must be non-negative")
    members = _ENGINES[spec.class_id].members(n, spec.k)
    if spec.anchored:
        return [AnchoredPartition(a, Partition(parts)) for a, parts in members]
    return [Partition(parts) for parts in members]


# Bound of the row cache.  An entry is the row pair of one walked structure:
# under 5 KB at the weights report --all walks (up to 62), where it keeps 32
# structures, and about 8 KB at weight 110, where walking Dk(1) already takes
# about 10 s.  64 entries keep every structure of one report and stay under
# 1 MB.
ROW_CACHE_SIZE = 64

# (walk, its arguments) -> row pair walked from weight 0, least recently
# used first
_rows: OrderedDict = OrderedDict()


def _walked(walk, args: tuple, lo: int, hi: int):
    """The row pair of walk(*args) that covers weights lo..hi.

    A cached pair covers every shorter request; a walk from weight 0 is
    kept, and one that starts higher is not, since it leaves the entries
    below lo incomplete.
    """
    key = (walk, args)
    rows = _rows.get(key)
    if rows is not None and len(rows[0]) > hi:
        _rows.move_to_end(key)
        return rows
    rows = ([0] * (hi + 1), [0] * (hi + 1))
    walk(rows, lo, hi, *args)
    if lo == 0:
        _rows[key] = rows
        _rows.move_to_end(key)
        if len(_rows) > ROW_CACHE_SIZE:
            _rows.popitem(last=False)
    return rows


def count_row(spec: ClassSpec, hi: int, lo: int = 0) -> tuple[int, ...]:
    """Numbers of class members of weights lo..hi, by one exhaustive walk.

    The walk visits every member of a weight in the window once, building
    no members, and reads no generating function, so it stays an
    independent oracle for :func:`gf`.  Classes that name the same walk,
    such as Dk and its halves, share its rows.  Rows walked from weight 0
    are kept, and a kept row serves every shorter request.
    """
    if lo < 0 or hi < 0:
        raise PartitionError("weight must be non-negative")
    walk, args, half = _ENGINES[spec.class_id].walk(spec.k)
    even, odd = _walked(walk, args, lo, hi)
    if half is None:
        return tuple(map(add, even[lo:hi + 1], odd[lo:hi + 1]))
    return tuple((even, odd)[half][lo:hi + 1])


@lru_cache(maxsize=65536)
def count_by_enumeration(spec: ClassSpec, n: int) -> int:
    """Number of class members of weight n: :func:`count_row` on the
    window [n, n], or read off a kept row that reaches n."""
    return count_row(spec, n, n)[0]


@lru_cache(maxsize=256)
def gf(spec: ClassSpec, order: int) -> TruncatedSeries:
    """Generating function of the class, truncated at `order`.

    The q^n coefficient is the class count at weight n (anchored counting
    for the C family).  Parity-split classes recombine the sign-marked
    evaluations; non-integral halves would signal an implementation bug and
    raise.
    """
    if order < 0:
        raise PartitionError("order must be non-negative")
    return _ENGINES[spec.class_id].gf(spec.k, order)


@lru_cache(maxsize=64)
def gf_parity_difference(class_family: str, k: int, order: int) -> TruncatedSeries:
    """Even-minus-odd difference series of a parity-split family.

    One evaluation of the sign-marked product at -1; cheaper and more
    direct than subtracting the two recombined halves.
    """
    if class_family not in _SIGNED:
        raise PartitionError(f"no parity split for family {class_family!r}")
    return _signed(_SIGNED[class_family], k, order, MINUS)


def count_by_series(spec: ClassSpec, n: int, order: int | None = None) -> int:
    """The q^n coefficient of the class generating function, built to at
    least order n."""
    if n < 0:
        raise PartitionError("weight must be non-negative")
    series = gf(spec, max(n, order or 0))
    return series.coefficient(n)


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------


def ak_doubled_specs(k: int) -> tuple[ClassSpec, ...]:
    """The classes P1, Pprime, P2 and Pdprime whose counts sum to 2*A_k(n)."""
    return ClassSpec("P1"), ClassSpec("Pprime", k), ClassSpec("P2"), ClassSpec("Pdprime", k)


def count_ak_doubled(k: int, n: int, method: str = "enumeration",
                     order: int | None = None) -> int:
    """2*A_k(n) = P1 + Pprime + P2 + Pdprime counts at weight n."""
    specs = ak_doubled_specs(k)
    if method == "enumeration":
        return sum(count_by_enumeration(s, n) for s in specs)
    if method == "series":
        return sum(count_by_series(s, n, order) for s in specs)
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


def count_table(spec: ClassSpec, nmax: int, method: str = "enumeration",
                order: int | None = None) -> CountTable:
    """Counts of the class at weights 0..nmax on one path: one enumeration
    row (:func:`count_row`), or the coefficients of one generating function
    built to order max(nmax, order)."""
    if nmax < 0:
        raise PartitionError("weight must be non-negative")
    if method == "enumeration":
        values = dict(enumerate(count_row(spec, nmax)))
    elif method == "series":
        series = gf(spec, max(nmax, order or 0))
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
    for anchor, parts in itertools.chain(_iter_ck(n, k, True), _iter_ck(n, k, False)):
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

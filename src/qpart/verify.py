"""Registry of machine-checkable identity tasks with first-mismatch reports.

Each task T1..T12 checks one identity between partition classes (or one
exact truncated-series identity) over a parameter grid.  A report records
pass/fail, the number of grid cells checked, and on failure the first
mismatching cell with both values so it can be replayed through the CLI
count commands.  Thresholds that appear in the identities are taken
literally, with one exception: for k >= 4, T3 and T5 check the fixed window
[168, 220] at order 250, which lies below the stated bound (224 at k = 4);
ROADMAP item 4 replaces the window with the measured onset k(2k-1).
Behaviour below a threshold is recorded as an informational note, never
asserted.  The dual-path tasks (T1, T2, T4, T6, T10) are lists of named
terms that one loop evaluates by enumeration and then by series: each path
reads one row per class, the class's exhaustive enumeration counts or its
generating-function coefficients up to the task's order.

Registered tasks
----------------

T1   distinct = odd = anchored(n+1) = half of D2(n+1)
T2   windowed parity classes: Bk(n) = Ck(n+1), both parities, dual path
T3   Bk^e-Bk^o = Ck^e-Ck^o(n+1) = D_{2k}(n+1)/2 above the stated bound
T3x  exact all-order series identity behind T3, with correction polynomials
T4   2*A_k(n) = D_k(n+1), dual path
T5   full chain A_{2k} = Bk-diff = Ck-diff(n+1) = D_{2k}(n+1)/2
     = D_{2k}^e(n+1) = D_{2k}^o(n+1) above the stated bound
T6   distinct(n) = E(n+2) = F(n+1), dual path
T7   piecewise pentagonal law for D_k^e - D_k^o, all three branches
T7c  D_k^e(n) = D_k^o(n), hence D_k(n) even, beyond k(k-1)/2
T8   finite-sum tail identity, grid over (k, N); k=1 row is the classical
     two-minus-reciprocal identity
T9   closed form of the D_k generating function
T10  D_k(n) + D_{k-1}(n) = D_{k-1}(n-k+1) + 2*A(n)
T11  D_3(n) = 2A(n-3) - 2A(n-1) + 2A(n), and the derived D_k expansions
T12  engine self-tests: geometric-sum expansion of reciprocal products and
     the telescoping collapse of the signed smallest-part sum
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from functools import cache
from operator import add
from xml.etree import ElementTree

from .counting import (
    ClassSpec,
    ak_doubled_specs,
    c_family_ambiguity,
    count_by_enumeration,
    count_row,
    derive_dk_relation,
    gf,
    gf_parity_difference,
    pentagonal_indicator,
)
from .series import (
    MINUS,
    PLUS,
    TruncatedSeries,
    _check_bounds,
    _mul_factor,
    compare_series,
    pochhammer_finite,
    pochhammer_infinite,
    pochhammer_infinite_starts,
    series_sum,
)


def stated_bound(k: int) -> int:
    """The lower bound 2^(k-1) * k * (2k-1) attached to the difference chain."""
    return (1 << (k - 1)) * k * (2 * k - 1)


@dataclass
class VerificationReport:
    """Outcome of one task run over its parameter grid."""

    task_id: str
    summary: str
    status: str
    checked_cells: int
    witness: dict | None
    notes: list[str] = field(default_factory=list)
    parameters: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self, include_timing: bool = True) -> dict:
        data = {
            "task": self.task_id,
            "summary": self.summary,
            "status": self.status,
            "checked_cells": self.checked_cells,
            "witness": self.witness,
            "notes": list(self.notes),
            "parameters": self.parameters,
        }
        if include_timing:
            data["wall_time_s"] = round(self.wall_time, 3)
        return data

    def to_markdown(self, include_timing: bool = True) -> str:
        mark = "PASS" if self.passed else "FAIL"
        lines = [f"### {self.task_id}: {mark}",
                 "",
                 f"- identity: {self.summary}",
                 f"- cells checked: {self.checked_cells}"]
        if include_timing:
            lines.append(f"- wall time: {self.wall_time:.2f} s")
        if self.parameters:
            pretty = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
            lines.append(f"- grid: {pretty}")
        if self.witness is not None:
            lines.append(f"- first mismatch: {self.witness}")
        for note in self.notes:
            lines.append(f"- note: {note}")
        return "\n".join(lines) + "\n"


def _witness(cell: dict, left_name: str, left: int, right_name: str, right: int) -> dict:
    return {"cell": cell, "left_name": left_name, "left": left,
            "right_name": right_name, "right": right}


def _series_witness(k: int | None, report, left_name: str, right_name: str) -> dict:
    cell = {"exponent": report.index}
    if k is not None:
        cell["k"] = k
    return _witness(cell, left_name, report.left, right_name, report.right)


# ---------------------------------------------------------------------------
# task implementations; each returns (checked_cells, witness|None, notes, params)
# ---------------------------------------------------------------------------


def _chain_check(n: int, pairs: list[tuple[str, int]]) -> dict | None:
    """All named values equal; witness names the first offending pair."""
    name0, v0 = pairs[0]
    for name, v in pairs[1:]:
        if v != v0:
            return _witness({"n": n}, name0, v0, name, v)
    return None


def _check_terms(ns, terms, order: int, guard=None, **cell) -> tuple[int, dict | None]:
    """All named terms equal at each n in `ns`, by enumeration then by series.

    A term is (label, value(count, n)), where count(spec, m) is the class
    count on one path: entry m of the enumeration row of the class up to
    `order`, or the q^m coefficient of the class generating function
    truncated at `order`.  Each path reads one row or series per class.  At
    each n the values tagged [enum] come first, then those tagged [series];
    `guard(tag, count, n)` is asked on each path in the same order and may
    return a witness before any term is compared.  The witness cell holds n
    followed by `cell`.  Returns (cells checked, witness or None).
    """
    def reader(row_of):
        row_of = cache(row_of)
        return lambda spec, m: row_of(spec)[m]

    paths = (("enum", reader(lambda spec: count_row(spec, order))),
             ("series", reader(lambda spec: gf(spec, order).coeffs)))
    cells = 0
    for n in ns:
        cells += 1
        bad = None
        if guard:
            bad = next(filter(None, (guard(tag, count, n) for tag, count in paths)), None)
        if not bad:
            bad = _chain_check(n, [(f"{label} [{tag}]", value(count, n))
                                   for tag, count in paths for label, value in terms])
        if bad:
            bad["cell"].update(cell)
            return cells, bad
    return cells, None


def _task_t1(nmax: int = 60) -> tuple[int, dict | None, list[str], dict]:
    d2 = ClassSpec("Dk", 2)

    def odd_d2(tag: str, count, n: int) -> dict | None:
        # The enumeration witness name carries no tag; reports pin it.
        d = count(d2, n + 1)
        name = "D2(n+1)" if tag == "enum" else f"D2(n+1) [{tag}]"
        return _witness({"n": n}, name, d, "even value", d + 1) if d % 2 else None

    cells, bad = _check_terms(range(1, nmax + 1), [
        ("A(n)", lambda count, n: count(ClassSpec("A"), n)),
        ("B(n)", lambda count, n: count(ClassSpec("B"), n)),
        ("C(n+1)", lambda count, n: count(ClassSpec("C"), n + 1)),
        ("D2(n+1)/2", lambda count, n: count(d2, n + 1) // 2),
    ], nmax + 1, guard=odd_d2)
    return cells, bad, [], {"nmax": nmax}


def _task_t2(kmax: int = 5, nmax: int = 60) -> tuple[int, dict | None, list[str], dict]:
    params = {"kmax": kmax, "nmax": nmax}
    notes = []
    cells = 0
    for k in range(1, kmax + 1):
        for parity in ("e", "o"):
            bk, ck = ClassSpec(f"Bk_{parity}", k), ClassSpec(f"Ck_{parity}", k)
            checked, bad = _check_terms(range(1, nmax + 1), [
                (f"Bk_{parity}(n)", lambda count, n: count(bk, n)),
                (f"Ck_{parity}(n+1)", lambda count, n: count(ck, n + 1)),
            ], nmax + 1, k=k, parity=parity)
            cells += checked
            if bad:
                return cells, bad, notes, params
    for n in range(2, 13):
        report = c_family_ambiguity(2, n)
        if report.diverges:
            first = report.ambiguous[0][0] if report.ambiguous else None
            notes.append(
                f"anchored vs raw multiset counts diverge first at k=2, n={n}: "
                f"anchored e/o = {report.anchored_even}/{report.anchored_odd}, "
                f"raw e/o = {report.raw_even}/{report.raw_odd} over "
                f"{report.raw_distinct_multisets} distinct multisets "
                f"(ambiguous witness: {first})")
            break
    return cells, None, notes, params


def _t3_window(k: int) -> tuple[int, int]:
    bound = stated_bound(k)
    if k >= 4:
        return 168, 220
    return bound, bound + 60


def _t3_values(k: int, order: int) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    bdiff = gf_parity_difference("Bk", k, order)
    cdiff = gf_parity_difference("Ck", k, order)
    d2k = gf(ClassSpec("Dk", 2 * k), order)
    return bdiff, cdiff, d2k


def _chain_holds_t3(bdiff, cdiff, d2k, n: int) -> bool:
    d = d2k.coefficient(n + 1)
    return d % 2 == 0 and bdiff.coefficient(n) == cdiff.coefficient(n + 1) == d // 2


def _task_t3(kmax: int = 4) -> tuple[int, dict | None, list[str], dict]:
    params = {"kmax": kmax}
    notes = []
    cells = 0
    for k in range(1, kmax + 1):
        lo, hi = _t3_window(k)
        order = 250 if k >= 4 else hi + 2
        if k >= 4:
            notes.append(f"k={k}: series order raised to {order} to cover the window")
        bdiff, cdiff, d2k = _t3_values(k, order)
        for n in range(lo, hi + 1):
            cells += 1
            d = d2k.coefficient(n + 1)
            if d % 2:
                return cells, _witness({"k": k, "n": n}, "D_2k(n+1)", d,
                                       "even value", d + 1), notes, params
            bad = _chain_check(n, [
                ("Bk_e-Bk_o(n)", bdiff.coefficient(n)),
                ("Ck_e-Ck_o(n+1)", cdiff.coefficient(n + 1)),
                ("D_2k(n+1)/2", d // 2),
            ])
            if bad:
                bad["cell"]["k"] = k
                return cells, bad, notes, params
        onset = lo
        for n in range(hi, 0, -1):
            if not _chain_holds_t3(bdiff, cdiff, d2k, n):
                onset = n + 1
                break
        else:
            onset = 1
        notes.append(f"k={k}: chain holds empirically from n={onset} onward "
                     f"(stated bound {stated_bound(k)}, window [{lo}, {hi}])")
    return cells, None, notes, params


def _task_t3x(kmax: int = 4, order: int = 200) -> tuple[int, dict | None, list[str], dict]:
    params = {"kmax": kmax, "order": order}
    cells = 0
    for k in range(1, kmax + 1):
        lhs = gf(ClassSpec("Dk", 2 * k), order) + pochhammer_finite(MINUS, 1, 1, 2 * k - 1, order)
        rhs = (gf_parity_difference("Ck", k, order)
               + pochhammer_finite(MINUS, 2, 2, k - 1, order)).scale(2)
        cells += order + 1
        report = compare_series(lhs, rhs)
        if not report.equal:
            return cells, _series_witness(k, report,
                                          "D_2k gf + alternating correction",
                                          "2*(Ck diff gf + even correction)"), [], params
    return cells, None, [], params


def _task_t4(kmax: int = 5, nmax: int = 60) -> tuple[int, dict | None, list[str], dict]:
    params = {"kmax": kmax, "nmax": nmax}
    cells = 0
    for k in range(1, kmax + 1):
        ak, dk = ak_doubled_specs(k), ClassSpec("Dk", k)
        checked, bad = _check_terms(range(1, nmax + 1), [
            ("2*A_k(n)", lambda count, n: sum(count(spec, n) for spec in ak)),
            ("D_k(n+1)", lambda count, n: count(dk, n + 1)),
        ], nmax + 1, k=k)
        cells += checked
        if bad:
            return cells, bad, [], params
    return cells, None, [], params


def _task_t5(kmax: int = 3) -> tuple[int, dict | None, list[str], dict]:
    params = {"kmax": kmax}
    notes = []
    cells = 0
    for k in range(1, kmax + 1):
        lo, hi = _t3_window(k)
        order = 250 if k >= 4 else hi + 2
        bdiff, cdiff, d2k = _t3_values(k, order)
        a2k = series_sum([gf(spec, order) for spec in ak_doubled_specs(2 * k)], order)
        de = gf(ClassSpec("Dk_e", 2 * k), order)
        do = gf(ClassSpec("Dk_o", 2 * k), order)
        for n in range(lo, hi + 1):
            cells += 1
            bad = _chain_check(n, [
                ("2*A_2k(n)", a2k.coefficient(n)),
                ("2*(Bk_e-Bk_o)(n)", 2 * bdiff.coefficient(n)),
                ("2*(Ck_e-Ck_o)(n+1)", 2 * cdiff.coefficient(n + 1)),
                ("D_2k(n+1)", d2k.coefficient(n + 1)),
                ("2*D_2k_e(n+1)", 2 * de.coefficient(n + 1)),
                ("2*D_2k_o(n+1)", 2 * do.coefficient(n + 1)),
            ])
            if bad:
                bad["cell"]["k"] = k
                return cells, bad, notes, params
        notes.append(f"k={k}: chain checked on window [{lo}, {hi}]")
    return cells, None, notes, params


def _task_t6(nmax: int = 60) -> tuple[int, dict | None, list[str], dict]:
    cells, bad = _check_terms(range(1, nmax + 1), [
        ("A(n)", lambda count, n: count(ClassSpec("A"), n)),
        ("E(n+2)", lambda count, n: count(ClassSpec("E"), n + 2)),
        ("F(n+1)", lambda count, n: count(ClassSpec("F"), n + 1)),
    ], nmax + 2)
    return cells, bad, [], {"nmax": nmax}


def _t7_expected(k: int, n: int) -> int:
    if n <= k - 1:
        return pentagonal_indicator(n)
    if n <= k * (k - 1) // 2:
        return (count_by_enumeration(ClassSpec("Pe_bounded", k), n)
                - count_by_enumeration(ClassSpec("Po_bounded", k), n))
    return 0


def _task_t7(kmax: int = 8, nmax: int = 60,
             enum_nmax: int = 34) -> tuple[int, dict | None, list[str], dict]:
    params = {"kmax": kmax, "nmax": nmax, "enum_nmax": enum_nmax}
    notes = []
    cells = 0
    enum_hi = min(enum_nmax, nmax)
    for k in range(1, kmax + 1):
        diff = gf_parity_difference("Dk", k, nmax)
        if enum_hi >= 1:
            even, odd = (count_row(ClassSpec(f"Dk_{p}", k), enum_hi) for p in ("e", "o"))
        for n in range(1, nmax + 1):
            cells += 1
            expected = _t7_expected(k, n)
            got = diff.coefficient(n)
            if got != expected:
                return cells, _witness({"k": k, "n": n},
                                       "Dk_e-Dk_o(n) [series]", got,
                                       "piecewise value", expected), notes, params
            if n <= enum_hi:
                enum_diff = even[n] - odd[n]
                if enum_diff != expected:
                    return cells, _witness({"k": k, "n": n},
                                           "Dk_e-Dk_o(n) [enum]", enum_diff,
                                           "piecewise value", expected), notes, params
        edge1, edge2 = k - 1, k * (k - 1) // 2
        if edge1 >= 1:
            notes.append(f"k={k}: branch boundaries diff({edge1})={_t7_expected(k, edge1)}"
                         f", diff({edge2})={_t7_expected(k, edge2)}")
    return cells, None, notes, params


def _task_t7c(kmax: int = 8, nmax: int = 60) -> tuple[int, dict | None, list[str], dict]:
    params = {"kmax": kmax, "nmax": nmax}
    cells = 0
    for k in range(1, kmax + 1):
        dk = gf(ClassSpec("Dk", k), nmax)
        de = gf(ClassSpec("Dk_e", k), nmax)
        do = gf(ClassSpec("Dk_o", k), nmax)
        for n in range(k * (k - 1) // 2 + 1, nmax + 1):
            cells += 1
            if de.coefficient(n) != do.coefficient(n):
                return cells, _witness({"k": k, "n": n}, "Dk_e(n)", de.coefficient(n),
                                       "Dk_o(n)", do.coefficient(n)), [], params
            if dk.coefficient(n) % 2:
                return cells, _witness({"k": k, "n": n}, "Dk(n) mod 2",
                                       dk.coefficient(n) % 2, "0", 0), [], params
    return cells, None, [], params


def _task_t8(kmax: int = 6, n_terms: int = 30,
             order: int = 120) -> tuple[int, dict | None, list[str], dict]:
    params = {"kmax": kmax, "N_max": n_terms, "order": order}
    tails_plus = pochhammer_infinite_starts(PLUS, order)
    full_plus = tails_plus[0]
    # (1 + q)(1 + q^2)...(1 + q^N) and its reciprocal, for N = 0..n_terms
    partials = [TruncatedSeries.one(order)]
    for m in range(1, n_terms + 1):
        partials.append(partials[-1] * pochhammer_finite(PLUS, m, 1, 1, order))
    recips = [s.reciprocal() for s in partials]
    two = TruncatedSeries.one(order).scale(2)
    cells = 0
    for k in range(1, kmax + 1):
        # (q^(j+1); q)_(k-j-1) for j < k, the same for every N
        falling = [pochhammer_finite(MINUS, j + 1, 1, k - j - 1, order) for j in range(k)]
        lhs = TruncatedSeries.zero(order)
        for big_n in range(0, n_terms + 1):
            lhs = lhs + tails_plus[big_n].shift(k * big_n)
            cells += 1
            bracket = TruncatedSeries.zero(order)
            for j in range(k):
                piece = two - recips[big_n].shift((big_n + 1) * j)
                term = falling[j] * piece
                if (j + k - 1) % 2:
                    term = -term
                bracket = bracket + term
            rhs = full_plus * bracket
            report = compare_series(lhs, rhs)
            if not report.equal:
                witness = _series_witness(k, report, "signed smallest-part partial sum",
                                          "tail-product closed form")
                witness["cell"]["N"] = big_n
                return cells, witness, [], params
    notes = []
    for big_n in range(0, n_terms + 1):
        cells += 1
        lhs = series_sum([recips[j].shift(j) for j in range(big_n + 1)], order)
        rhs = two - recips[big_n]
        report = compare_series(lhs, rhs)
        if not report.equal:
            witness = _series_witness(None, report, "sum of q^j/(1+q)...(1+q^j)",
                                      "2 - reciprocal")
            witness["cell"]["N"] = big_n
            return cells, witness, notes, params
    notes.append("k=1 row reduces to the two-minus-reciprocal identity; "
                 f"verified independently for N=0..{n_terms}")
    return cells, None, notes, params


def _task_t9(kmax: int = 8, order: int = 120) -> tuple[int, dict | None, list[str], dict]:
    params = {"kmax": kmax, "order": order}
    distinct_gf = pochhammer_infinite(PLUS, 1, 1, order)
    cells = 0
    for k in range(1, kmax + 1):
        lhs = gf(ClassSpec("Dk", k), order)
        poly = TruncatedSeries.zero(order)
        for j in range(k):
            term = pochhammer_finite(MINUS, k - j, 1, j, order)
            poly = poly + (term if j % 2 == 0 else -term)
        correction = pochhammer_finite(MINUS, 1, 1, k - 1, order)
        if k % 2:
            correction = -correction
        rhs = (distinct_gf * poly).scale(2) + correction
        cells += order + 1
        report = compare_series(lhs, rhs)
        if not report.equal:
            return cells, _series_witness(k, report, "D_k gf",
                                          "2*distinct_gf*polynomial + correction"), [], params
    return cells, None, [], params


def _task_t10(kmax: int = 5, nmax: int = 60) -> tuple[int, dict | None, list[str], dict]:
    params = {"kmax": kmax, "nmax": nmax}
    a = ClassSpec("A")
    cells = 0
    for k in range(2, kmax + 1):
        dk, dk1 = ClassSpec("Dk", k), ClassSpec("Dk", k - 1)
        checked, bad = _check_terms(range(k, nmax + 1), [
            ("D_k(n)+D_k-1(n)", lambda count, n: count(dk, n) + count(dk1, n)),
            ("D_k-1(n-k+1)+2A(n)", lambda count, n: count(dk1, n - k + 1) + 2 * count(a, n)),
        ], nmax, k=k)
        cells += checked
        if bad:
            return cells, bad, [], params
    return cells, None, [], params


# T11 checks D_3 by enumeration too, up to this weight; the series check
# runs to nmax.
T11_ENUM_NMAX = 40


def _task_t11(kmax: int = 6, nmax: int = 80) -> tuple[int, dict | None, list[str], dict]:
    params = {"kmax": kmax, "nmax": nmax}
    notes = []
    cells = 0
    sa = gf(ClassSpec("A"), nmax)
    d3 = gf(ClassSpec("Dk", 3), nmax)
    enum_d3 = count_row(ClassSpec("Dk", 3), min(nmax, T11_ENUM_NMAX))
    for n in range(4, nmax + 1):
        cells += 1
        rhs = (2 * sa.coefficient(n - 3) - 2 * sa.coefficient(n - 1)
               + 2 * sa.coefficient(n))
        if d3.coefficient(n) != rhs:
            return cells, _witness({"n": n}, "D_3(n)", d3.coefficient(n),
                                   "2A(n-3)-2A(n-1)+2A(n)", rhs), notes, params
        if n <= T11_ENUM_NMAX:
            enum = enum_d3[n]
            if enum != rhs:
                return cells, _witness({"n": n}, "D_3(n) [enum]", enum,
                                       "2A(n-3)-2A(n-1)+2A(n)", rhs), notes, params
    for k in range(1, kmax + 1):
        relation = derive_dk_relation(k)
        dk = gf(ClassSpec("Dk", k), nmax)
        notes.append(f"k={k}: D_k(n) = 2*sum(c_m*A(n-m)) with coefficients "
                     f"{list(relation.coefficients)} for n > {relation.threshold}")
        for n in range(relation.threshold + 1, nmax + 1):
            cells += 1
            rhs = 2 * sum(c * sa.coefficient(n - m)
                          for m, c in enumerate(relation.coefficients) if n - m >= 0)
            if dk.coefficient(n) != rhs:
                return cells, _witness({"k": k, "n": n}, "D_k(n)", dk.coefficient(n),
                                       "2*sum(c_m*A(n-m))", rhs), notes, params
    return cells, None, notes, params


# T12 checks the telescoping collapse for k = 1 .. this many.
T12_COLLAPSE_KMAX = 8


def _collapse_sums(order: int) -> list[list[int]]:
    """For k = 1 .. T12_COLLAPSE_KMAX, the sum of q^((m-1)k) * tail(m) over
    m >= 1 truncated at order, where tail(m) is the product of (1 - q^i)
    over i >= m.

    One running tail(m) = (1 - q^m) * tail(m+1) is taken downward from
    tail(order+1), which is 1 up to the order, and added by slice into each
    sum its shift still reaches, so O(order) coefficients per sum are held.
    Every tail is checked against the coefficient bound, as a series is.
    """
    sums = [[0] * (order + 1) for _ in range(T12_COLLAPSE_KMAX)]
    tail = [1] + [0] * order
    for m in range(order + 1, 0, -1):
        _mul_factor(tail, m, MINUS)  # a no-op at m = order + 1
        _check_bounds(tail)
        for k, acc in enumerate(sums, 1):
            s = (m - 1) * k
            if s <= order:
                acc[s:] = map(add, acc[s:], tail)
    return sums


def _task_t12(order: int = 40,
              collapse_order: int = 60) -> tuple[int, dict | None, list[str], dict]:
    params = {"order": order, "collapse_order": collapse_order}
    cells = 0
    # geometric expansion: reciprocal of the falling tail product equals the
    # termwise sum of q^(c*m) / (1-q)...(1-q^m)
    factorial_recips = [TruncatedSeries.one(order)]
    for m in range(1, order + 1):
        factorial_recips.append(
            factorial_recips[-1] * pochhammer_finite(MINUS, m, 1, 1, order))
    factorial_recips = [s.reciprocal() for s in factorial_recips]
    for c in (1, 2, 3):
        lhs = pochhammer_infinite(MINUS, c, 1, order).reciprocal()
        rhs = series_sum(
            [factorial_recips[m].shift(c * m) for m in range(order // c + 1)], order)
        cells += order + 1
        report = compare_series(lhs, rhs)
        if not report.equal:
            witness = _series_witness(None, report, "reciprocal tail product",
                                      "termwise geometric sum")
            witness["cell"]["c"] = c
            return cells, witness, [], params
    # telescoping collapse of the signed smallest-part sum
    for k, acc in enumerate(_collapse_sums(collapse_order), 1):
        lhs = TruncatedSeries(tuple(acc))
        rhs = pochhammer_finite(MINUS, 1, 1, k - 1, collapse_order)
        cells += collapse_order + 1
        report = compare_series(lhs, rhs)
        if not report.equal:
            return cells, _series_witness(k, report, "signed smallest-part sum",
                                          "alternating finite product"), [], params
    return cells, None, [], params


@dataclass(frozen=True)
class TaskDef:
    task_id: str
    summary: str
    fn: object

    @property
    def parameters(self) -> tuple[str, ...]:
        """Names of the grid parameters the task takes."""
        return tuple(inspect.signature(self.fn).parameters)


TASKS: dict[str, TaskDef] = {
    t.task_id: t for t in (
        TaskDef("T1", "A(n) = B(n) = C(n+1) = D_2(n+1)/2", _task_t1),
        TaskDef("T2", "Bk_e(n) = Ck_e(n+1) and Bk_o(n) = Ck_o(n+1)", _task_t2),
        TaskDef("T3", "Bk_e-Bk_o(n) = Ck_e-Ck_o(n+1) = D_2k(n+1)/2 above the stated bound",
                _task_t3),
        TaskDef("T3x", "exact series identity with correction polynomials behind T3",
                _task_t3x),
        TaskDef("T4", "2*A_k(n) = D_k(n+1)", _task_t4),
        TaskDef("T5", "A_2k(n) = Bk-diff(n) = Ck-diff(n+1) = D_2k(n+1)/2 "
                      "= D_2k_e(n+1) = D_2k_o(n+1) above the stated bound", _task_t5),
        TaskDef("T6", "A(n) = E(n+2) = F(n+1)", _task_t6),
        TaskDef("T7", "piecewise pentagonal law for Dk_e - Dk_o", _task_t7),
        TaskDef("T7c", "Dk_e(n) = Dk_o(n) and Dk(n) even for n > k(k-1)/2", _task_t7c),
        TaskDef("T8", "finite signed smallest-part sum equals its tail-product closed form",
                _task_t8),
        TaskDef("T9", "closed form of the D_k generating function", _task_t9),
        TaskDef("T10", "D_k(n) + D_k-1(n) = D_k-1(n-k+1) + 2A(n)", _task_t10),
        TaskDef("T11", "D_3(n) = 2A(n-3) - 2A(n-1) + 2A(n), derived D_k expansions",
                _task_t11),
        TaskDef("T12", "engine self-tests: geometric expansion and telescoping collapse",
                _task_t12),
    )
}

TASK_ORDER = list(TASKS)


def run_task(task_id: str, **overrides) -> VerificationReport:
    """Run one registered task.

    Overrides whose value is None are dropped; any other key the task does
    not take raises TypeError before the task runs.
    """
    if task_id not in TASKS:
        raise KeyError(f"unknown task {task_id!r}; known: {', '.join(TASK_ORDER)}")
    task = TASKS[task_id]
    kwargs = {k: v for k, v in overrides.items() if v is not None}
    unknown = sorted(kwargs.keys() - task.parameters)
    if unknown:
        raise TypeError(f"task {task_id} takes no {', '.join(unknown)}; "
                        f"it takes {', '.join(task.parameters)}")
    start = time.perf_counter()
    cells, witness, notes, params = task.fn(**kwargs)
    elapsed = time.perf_counter() - start
    return VerificationReport(
        task_id=task_id,
        summary=task.summary,
        status="pass" if witness is None else "fail",
        checked_cells=cells,
        witness=witness,
        notes=notes,
        parameters=params,
        wall_time=elapsed,
    )


def run_all() -> list[VerificationReport]:
    return [run_task(task_id) for task_id in TASK_ORDER]


def reports_to_junit(reports: list[VerificationReport]) -> str:
    suite = ElementTree.Element("testsuite", {
        "name": "qpart-verify",
        "tests": str(len(reports)),
        "failures": str(sum(not r.passed for r in reports)),
    })
    for r in reports:
        case = ElementTree.SubElement(suite, "testcase", {
            "name": r.task_id,
            "classname": "qpart.verify",
            "time": f"{r.wall_time:.3f}",
        })
        if not r.passed:
            failure = ElementTree.SubElement(case, "failure", {
                "message": f"first mismatch: {r.witness}",
            })
            failure.text = r.summary
    return ElementTree.tostring(suite, encoding="unicode", xml_declaration=True)

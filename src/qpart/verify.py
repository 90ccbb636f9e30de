"""Registry of machine-checkable identity tasks with first-mismatch reports.

Each task T1..T12 checks one identity between partition classes (or one
exact truncated-series identity) over a parameter grid.  A report records
pass/fail, the number of grid cells checked, and on failure the first
mismatching cell with both values so it can be replayed through the CLI
count commands.  Thresholds that appear in the identities are taken
literally, with one exception: for k >= 4, T3 and T5 check the fixed window
[168, 220] at order 250, which lies below the stated bound (224 at k = 4);
ROADMAP item 1 replaces the window with the stated bound.  Behaviour below a
threshold is recorded as an informational note, never asserted.

A task is a generator over its grid, whose parameters and defaults are its
keyword-only parameters; its registry entry declares the least legal value
of each parameter, and a grid below it, or a run that checks no cell, is an
error, never a pass.  :func:`task_grid` fills in and checks a grid, for
:func:`run_task` and the CLI alike.  A task yields each check as (cells,
witness or None) and each note as a string, in the order it runs them; one
runner adds up the cells, keeps the notes and stops at the first witness.  A
check is one of three kinds: a chain at one cell (named values that must all
equal the first; the first that differs names the witness), an evenness
chain (a value against itself rounded up to even), or a series comparison
worth one cell per coefficient, whose witness cell leads with the first
differing exponent.  The dual-path tasks (T1, T2, T4, T6, T10) are lists of
named terms that one loop evaluates by enumeration and then by series: each
path reads one row per class, the class's exhaustive enumeration counts or
its generating-function coefficients up to the task's order.

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
     the telescoping collapse of the signed smallest-part sum, read as the
     Dk parity difference
"""

from __future__ import annotations

import time
from functools import cache

from ._record import Record
from .counting import (
    PATHS,
    ClassSpec,
    ak_doubled_specs,
    c_family_ambiguity,
    count_row,
    derive_dk_relation,
    gf,
    gf_parity_difference,
    pentagonal_indicator,
)
from .series import (
    MINUS,
    PLUS,
    CoefficientOverflowError,
    TruncatedSeries,
    _div_factor,
    compare_series,
    pochhammer_finite,
    pochhammer_infinite,
    series_sum,
)


def stated_bound(k: int) -> int:
    """The lower bound 2^(k-1) * k * (2k-1) attached to the difference chain."""
    return (1 << (k - 1)) * k * (2 * k - 1)


class VerificationReport(Record, mutable=True):
    """Outcome of one task run over its parameter grid.  Notes and
    parameters left out (None) start as a new empty list and dict."""

    __slots__ = ("task_id", "summary", "status", "checked_cells", "witness", "notes",
                 "parameters", "wall_time")

    def __init__(self, task_id: str, summary: str, status: str, checked_cells: int,
                 witness: dict | None, notes: list[str] | None = None,
                 parameters: dict | None = None, wall_time: float = 0.0) -> None:
        self._set(task_id, summary, status, checked_cells, witness,
                  [] if notes is None else notes, {} if parameters is None else parameters,
                  wall_time)

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


# ---------------------------------------------------------------------------
# check builders and tasks
# ---------------------------------------------------------------------------


def _chain(cell: dict, *chains: list[tuple[str, int]]) -> dict | None:
    """Each chain's named values all equal its first, chain by chain; the
    first value that differs names the witness at `cell`."""
    for (name0, v0), *rest in chains:
        for name, v in rest:
            if v != v0:
                return {"cell": cell, "left_name": name0, "left": v0,
                        "right_name": name, "right": v}
    return None


def _even(name: str, v: int) -> list[tuple[str, int]]:
    """A chain that holds when v is even."""
    return [(name, v), ("even value", v + v % 2)]


def _series(cell: dict, left_name: str, lhs: TruncatedSeries,
            right_name: str, rhs: TruncatedSeries) -> dict | None:
    """Coefficientwise equality; the witness cell leads with the exponent."""
    report = compare_series(lhs, rhs)
    if report.equal:
        return None
    return _chain({"exponent": report.index, **cell},
                  [(left_name, report.left), (right_name, report.right)])


# the tag of each counting path in a witness name
_PATH_TAGS = {"series": "series", "enumeration": "enum"}


def _check_terms(ns, terms, order: int, guard=None, **cell):
    """All named terms equal at each n in `ns`, by enumeration then by series.

    A term is (label, value(count, n)), where count(spec, m) is the class
    count on one path of ``counting.PATHS``: entry m of the enumeration row
    of the class up to `order`, or the q^m coefficient of the class
    generating function truncated at `order`.  Each path reads one row or
    series per class.  At each n the values tagged [enum] come first, then
    those tagged [series]; `guard(tag, count, n)` returns a chain on each
    path, checked in the same order before any term is compared.  Yields one
    check per n, whose witness cell holds n followed by `cell`.

    The paths are read in their ``PATHS`` order, the series first at each
    n, so a series that leaves the coefficient bound raises before any walk
    to a weight near that bound.
    """
    def reader(row):
        row_of = cache(lambda spec: row(spec, order))
        return lambda spec, m: row_of(spec)[m]

    paths = [(_PATH_TAGS[method], reader(row)) for method, row in PATHS.items()]
    for n in ns:
        (series_guard, series), (enum_guard, enum) = (
            (guard(tag, count, n) if guard else None,
             [(f"{label} [{tag}]", value(count, n)) for label, value in terms])
            for tag, count in paths)
        guards = [enum_guard, series_guard] if guard else []
        yield 1, _chain({"n": n, **cell}, *guards, enum + series)


def _task_t1(*, nmax: int = 60):
    d2 = ClassSpec("Dk", 2)

    def odd_d2(tag: str, count, n: int) -> list[tuple[str, int]]:
        # The enumeration witness name carries no tag; reports pin it.
        return _even("D2(n+1)" if tag == "enum" else f"D2(n+1) [{tag}]", count(d2, n + 1))

    yield from _check_terms(range(1, nmax + 1), [
        ("A(n)", lambda count, n: count(ClassSpec("A"), n)),
        ("B(n)", lambda count, n: count(ClassSpec("B"), n)),
        ("C(n+1)", lambda count, n: count(ClassSpec("C"), n + 1)),
        ("D2(n+1)/2", lambda count, n: count(d2, n + 1) // 2),
    ], nmax + 2, guard=odd_d2)  # T6 reads A's row to nmax + 2: one walk serves both


# T2 notes where anchored Ck counts first part from raw multiset counts: at
# k = 1 (no window part) never up to weight 12, at k = 2 at n = 6, where 4+2
# is anchored both at 2 and at 4.  Weight 12 caps the scan.
T2_AMBIGUITY_K = 2
T2_AMBIGUITY_NMAX = 12


def _task_t2(*, kmax: int = 5, nmax: int = 60):
    for k in range(1, kmax + 1):
        for parity in ("e", "o"):
            bk, ck = ClassSpec(f"Bk_{parity}", k), ClassSpec(f"Ck_{parity}", k)
            yield from _check_terms(range(1, nmax + 1), [
                (f"Bk_{parity}(n)", lambda count, n: count(bk, n)),
                (f"Ck_{parity}(n+1)", lambda count, n: count(ck, n + 1)),
            ], nmax + 1, k=k, parity=parity)
    for n in range(2, T2_AMBIGUITY_NMAX + 1):
        report = c_family_ambiguity(T2_AMBIGUITY_K, n)
        if report.diverges:
            first = report.ambiguous[0][0] if report.ambiguous else None
            yield (f"anchored vs raw multiset counts diverge first at k={T2_AMBIGUITY_K}, n={n}: "
                   f"anchored e/o = {report.anchored_even}/{report.anchored_odd}, "
                   f"raw e/o = {report.raw_even}/{report.raw_odd} over "
                   f"{report.raw_distinct_multisets} distinct multisets "
                   f"(ambiguous witness: {first})")
            break


def _difference_chain(k: int):
    """Window, series order, and the Bk and Ck parity differences and the D_2k
    series that T3 and T5 read.  For k >= 4 the window is fixed at
    [168, 220], below the stated bound (ROADMAP item 1)."""
    if k >= 4:
        lo, hi, order = 168, 220, 250
    else:
        lo = stated_bound(k)
        hi, order = lo + 60, lo + 62
    return (lo, hi, order, gf_parity_difference("Bk", k, order),
            gf_parity_difference("Ck", k, order), gf(ClassSpec("Dk", 2 * k), order))


def _task_t3(*, kmax: int = 4):
    for k in range(1, kmax + 1):
        lo, hi, order, bdiff, cdiff, d2k = _difference_chain(k)
        if k >= 4:
            yield f"k={k}: series order raised to {order} to cover the window"

        def failure(n: int) -> dict | None:
            d = d2k.coefficient(n + 1)
            # the guard names (k, n), the chain (n, k); reports pin both
            return (_chain({"k": k, "n": n}, _even("D_2k(n+1)", d))
                    or _chain({"n": n, "k": k}, [("Bk_e-Bk_o(n)", bdiff.coefficient(n)),
                                                 ("Ck_e-Ck_o(n+1)", cdiff.coefficient(n + 1)),
                                                 ("D_2k(n+1)/2", d // 2)]))

        for n in range(lo, hi + 1):
            yield 1, failure(n)
        onset = next((n + 1 for n in range(hi, 0, -1) if failure(n)), 1)
        yield (f"k={k}: chain holds empirically from n={onset} onward "
               f"(stated bound {stated_bound(k)}, window [{lo}, {hi}])")


def _task_t3x(*, kmax: int = 4, order: int = 200):
    for k in range(1, kmax + 1):
        lhs = gf(ClassSpec("Dk", 2 * k), order) + pochhammer_finite(MINUS, 1, 1, 2 * k - 1, order)
        rhs = (gf_parity_difference("Ck", k, order)
               + pochhammer_finite(MINUS, 2, 2, k - 1, order)).scale(2)
        yield order + 1, _series({"k": k}, "D_2k gf + alternating correction", lhs,
                                 "2*(Ck diff gf + even correction)", rhs)


def _task_t4(*, kmax: int = 5, nmax: int = 60):
    for k in range(1, kmax + 1):
        ak, dk = ak_doubled_specs(k), ClassSpec("Dk", k)
        yield from _check_terms(range(1, nmax + 1), [
            ("2*A_k(n)", lambda count, n: sum(count(spec, n) for spec in ak)),
            ("D_k(n+1)", lambda count, n: count(dk, n + 1)),
        ], nmax + 1, k=k)


def _task_t5(*, kmax: int = 3):
    for k in range(1, kmax + 1):
        lo, hi, order, bdiff, cdiff, d2k = _difference_chain(k)
        a2k = series_sum([gf(spec, order) for spec in ak_doubled_specs(2 * k)], order)
        de = gf(ClassSpec("Dk_e", 2 * k), order)
        do = gf(ClassSpec("Dk_o", 2 * k), order)
        for n in range(lo, hi + 1):
            yield 1, _chain({"n": n, "k": k}, [
                ("2*A_2k(n)", a2k.coefficient(n)),
                ("2*(Bk_e-Bk_o)(n)", 2 * bdiff.coefficient(n)),
                ("2*(Ck_e-Ck_o)(n+1)", 2 * cdiff.coefficient(n + 1)),
                ("D_2k(n+1)", d2k.coefficient(n + 1)),
                ("2*D_2k_e(n+1)", 2 * de.coefficient(n + 1)),
                ("2*D_2k_o(n+1)", 2 * do.coefficient(n + 1)),
            ])
        yield f"k={k}: chain checked on window [{lo}, {hi}]"


def _task_t6(*, nmax: int = 60):
    yield from _check_terms(range(1, nmax + 1), [
        ("A(n)", lambda count, n: count(ClassSpec("A"), n)),
        ("E(n+2)", lambda count, n: count(ClassSpec("E"), n + 2)),
        ("F(n+1)", lambda count, n: count(ClassSpec("F"), n + 1)),
    ], nmax + 2)


def _t7_expected(k: int, nmax: int):
    """T7's piecewise value at k, as a function of n <= nmax; the bounded
    pair is read as one row up to k(k-1)/2 or nmax, whichever is less."""
    edge = k * (k - 1) // 2
    hi = min(edge, nmax)
    if hi >= k:  # the middle branch k..edge is not empty below nmax
        even, odd = (count_row(ClassSpec(f"{p}_bounded", k), hi) for p in ("Pe", "Po"))

    def expected(n: int) -> int:
        if n <= k - 1:
            return pentagonal_indicator(n)
        if n <= edge:
            return even[n] - odd[n]
        return 0
    return expected


def _task_t7(*, kmax: int = 8, nmax: int = 60, enum_nmax: int = 34):
    enum_hi = min(enum_nmax, nmax)
    for k in range(1, kmax + 1):
        diff = gf_parity_difference("Dk", k, nmax)
        piecewise = _t7_expected(k, nmax)
        if enum_hi >= 1:
            even, odd = (count_row(ClassSpec(f"Dk_{p}", k), enum_hi) for p in ("e", "o"))
        for n in range(1, nmax + 1):
            expected = piecewise(n)
            chains = [[("Dk_e-Dk_o(n) [series]", diff.coefficient(n)),
                       ("piecewise value", expected)]]
            if n <= enum_hi:
                chains.append([("Dk_e-Dk_o(n) [enum]", even[n] - odd[n]),
                               ("piecewise value", expected)])
            yield 1, _chain({"k": k, "n": n}, *chains)
        # the boundaries k - 1 and k(k-1)/2 that lie in the grid
        edges = [edge for edge in (k - 1, k * (k - 1) // 2) if 1 <= edge <= nmax]
        if edges:
            yield (f"k={k}: branch boundaries "
                   + ", ".join(f"diff({edge})={piecewise(edge)}" for edge in edges))


def _task_t7c(*, kmax: int = 8, nmax: int = 60):
    for k in range(1, kmax + 1):
        dk = gf(ClassSpec("Dk", k), nmax)
        de = gf(ClassSpec("Dk_e", k), nmax)
        do = gf(ClassSpec("Dk_o", k), nmax)
        for n in range(k * (k - 1) // 2 + 1, nmax + 1):
            yield 1, _chain({"k": k, "n": n},
                            [("Dk_e(n)", de.coefficient(n)), ("Dk_o(n)", do.coefficient(n))],
                            [("Dk(n) mod 2", dk.coefficient(n) % 2), ("0", 0)])


def _task_t8(*, kmax: int = 6, n_terms: int = 30, order: int = 120):
    # Each T8 series is its series at any higher order, cut at this one, so a
    # coefficient past 2**63 at exponent e fails every order from e on, and
    # a rerun at e - 1 fails below e or builds: the last rerun that fails
    # names the largest order that builds, as a class series's error does.
    try:
        yield from _t8_checks(kmax, n_terms, order)
    except CoefficientOverflowError as err:
        while True:
            try:
                for _ in _t8_checks(kmax, n_terms, err.exponent - 1):
                    pass
                break
            except CoefficientOverflowError as lower:
                err = lower
        raise CoefficientOverflowError(
            f"{err}; the largest order that builds for T8 is {err.exponent - 1}",
            err.exponent) from None


def _t8_checks(kmax: int, n_terms: int, order: int):
    # For each k and N = 0..n_terms, with tail(m) the product of (1 + q^i)
    # over i >= m, falling[j] = (q^(j+1); q)_(k-j-1) and e_j = (-1)^(j+k-1):
    #   sum of q^(kM) * tail(M+1) over M <= N
    #     = tail(1) * sum_j e_j * falling[j] * (2 - q^((N+1)j) / (1+q)...(1+q^N)).
    # By linearity the bracket is 2*F_k - recips[N] * G_(k,N), where
    # F_k = sum_j e_j * falling[j] and G_(k,N) = sum_j e_j * q^((N+1)j) * falling[j].
    # tail(1)*recips[N] is tail(N+1), exactly modulo q^(order+1), so the
    # right side is 2*(tail(1)*F_k) - tail(N+1) * G_(k,N): one product per
    # (k, N), besides tail(1)*F_k once per k.
    full_plus = gf(ClassSpec("A"), order)
    # recips[N] = 1/((1 + q)...(1 + q^N)) and tails[N] = tail(N+1), for
    # N = 0..n_terms, as running divisions: entry N divides entry N-1 by 1 + q^N
    recips, recip = [TruncatedSeries.one(order)], [1] + [0] * order
    tails, tail = [full_plus], list(full_plus.coeffs)
    for big_n in range(1, n_terms + 1):
        _div_factor(recip, big_n, PLUS)
        _div_factor(tail, big_n, PLUS)
        recips.append(TruncatedSeries(tuple(recip)))
        tails.append(TruncatedSeries(tuple(tail)))
    two = TruncatedSeries.one(order).scale(2)
    for k in range(1, kmax + 1):
        # (q^(j+1); q)_(k-j-1) for j < k, the same for every N
        falling = [pochhammer_finite(MINUS, j + 1, 1, k - j - 1, order) for j in range(k)]
        signed = [-f if (j + k - 1) % 2 else f for j, f in enumerate(falling)]
        twice_full_f = (full_plus * series_sum(signed, order)).scale(2)
        lhs = TruncatedSeries.zero(order)
        for big_n in range(0, n_terms + 1):
            lhs = lhs + tails[big_n].shift(k * big_n)
            g = series_sum([f.shift((big_n + 1) * j) for j, f in enumerate(signed)], order)
            yield 1, _series({"k": k, "N": big_n}, "signed smallest-part partial sum", lhs,
                             "tail-product closed form", twice_full_f - tails[big_n] * g)
    for big_n in range(0, n_terms + 1):
        lhs = series_sum([recips[j].shift(j) for j in range(big_n + 1)], order)
        yield 1, _series({"N": big_n}, "sum of q^j/(1+q)...(1+q^j)", lhs,
                         "2 - reciprocal", two - recips[big_n])
    yield ("k=1 row reduces to the two-minus-reciprocal identity; "
           f"verified independently for N=0..{n_terms}")


def _task_t9(*, kmax: int = 8, order: int = 120):
    distinct_gf = gf(ClassSpec("A"), order)
    for k in range(1, kmax + 1):
        lhs = gf(ClassSpec("Dk", k), order)
        poly = TruncatedSeries.from_coeffs(derive_dk_relation(k).coefficients[:order + 1], order)
        correction = pochhammer_finite(MINUS, 1, 1, k - 1, order)
        if k % 2:
            correction = -correction
        rhs = (distinct_gf * poly).scale(2) + correction
        yield order + 1, _series({"k": k}, "D_k gf", lhs,
                                 "2*distinct_gf*polynomial + correction", rhs)


def _task_t10(*, kmax: int = 5, nmax: int = 60):
    a = ClassSpec("A")
    for k in range(2, kmax + 1):
        dk, dk1 = ClassSpec("Dk", k), ClassSpec("Dk", k - 1)
        yield from _check_terms(range(k, nmax + 1), [
            ("D_k(n)+D_k-1(n)", lambda count, n: count(dk, n) + count(dk1, n)),
            ("D_k-1(n-k+1)+2A(n)", lambda count, n: count(dk1, n - k + 1) + 2 * count(a, n)),
        ], nmax, k=k)


# T11 checks D_3 by enumeration too, up to this weight; the series check
# runs to nmax.
T11_ENUM_NMAX = 40


def _task_t11(*, kmax: int = 6, nmax: int = 80):
    sa = gf(ClassSpec("A"), nmax)
    d3 = gf(ClassSpec("Dk", 3), nmax)
    enum_d3 = count_row(ClassSpec("Dk", 3), min(nmax, T11_ENUM_NMAX))
    for n in range(4, nmax + 1):
        rhs = (2 * sa.coefficient(n - 3) - 2 * sa.coefficient(n - 1)
               + 2 * sa.coefficient(n))
        chains = [[("D_3(n)", d3.coefficient(n)), ("2A(n-3)-2A(n-1)+2A(n)", rhs)]]
        if n <= T11_ENUM_NMAX:
            chains.append([("D_3(n) [enum]", enum_d3[n]), ("2A(n-3)-2A(n-1)+2A(n)", rhs)])
        yield 1, _chain({"n": n}, *chains)
    for k in range(1, kmax + 1):
        relation = derive_dk_relation(k)
        dk = gf(ClassSpec("Dk", k), nmax)
        yield (f"k={k}: D_k(n) = 2*sum(c_m*A(n-m)) with coefficients "
               f"{list(relation.coefficients)} for n > {relation.threshold}")
        for n in range(relation.threshold + 1, nmax + 1):
            rhs = 2 * sum(c * sa.coefficient(n - m)
                          for m, c in enumerate(relation.coefficients) if n - m >= 0)
            yield 1, _chain({"k": k, "n": n},
                            [("D_k(n)", dk.coefficient(n)), ("2*sum(c_m*A(n-m))", rhs)])


# T12 checks the telescoping collapse for k = 1 .. this many.
T12_COLLAPSE_KMAX = 8


def _task_t12(*, order: int = 40, collapse_order: int = 60):
    # geometric expansion: reciprocal of the falling tail product equals the
    # termwise sum of q^(c*m) / (1-q)...(1-q^m).  The left side inverts the
    # product; the factorial reciprocals on the right are running divisions.
    factorial_recips, recip = [TruncatedSeries.one(order)], [1] + [0] * order
    for m in range(1, order + 1):
        _div_factor(recip, m, MINUS)
        factorial_recips.append(TruncatedSeries(tuple(recip)))
    for c in (1, 2, 3):
        lhs = pochhammer_infinite(MINUS, c, 1, order).reciprocal()
        rhs = series_sum(
            [factorial_recips[m].shift(c * m) for m in range(order // c + 1)], order)
        yield order + 1, _series({"c": c}, "reciprocal tail product", lhs,
                                 "termwise geometric sum", rhs)
    # telescoping collapse of the signed smallest-part sum over m >= 1 of
    # q^((m-1)k) * (q^m; q)_inf, which is the Dk parity difference
    for k in range(1, T12_COLLAPSE_KMAX + 1):
        yield collapse_order + 1, _series(
            {"k": k}, "signed smallest-part sum", gf_parity_difference("Dk", k, collapse_order),
            "alternating finite product", pochhammer_finite(MINUS, 1, 1, k - 1, collapse_order))


class TaskDef(Record):
    """One registered task.  ``least`` maps each grid parameter to its least
    legal value: at that value the grid still checks at least one cell, and
    below it a run would check none of what the parameter counts.
    ``labels`` maps a parameter to the name a report gives it, where that is
    not the parameter's own (None: no labels)."""

    __slots__ = ("task_id", "summary", "fn", "least", "labels")

    def __init__(self, task_id: str, summary: str, fn: object, least: dict,
                 labels: dict | None = None) -> None:
        self._set(task_id, summary, fn, least, {} if labels is None else labels)

    @property
    def parameters(self) -> tuple[str, ...]:
        """Names of the grid parameters the task takes, in declaration order."""
        return tuple(self.fn.__kwdefaults__)


TASKS: dict[str, TaskDef] = {
    t.task_id: t for t in (
        TaskDef("T1", "A(n) = B(n) = C(n+1) = D_2(n+1)/2", _task_t1, {"nmax": 1}),
        TaskDef("T2", "Bk_e(n) = Ck_e(n+1) and Bk_o(n) = Ck_o(n+1)", _task_t2,
                {"kmax": 1, "nmax": 1}),
        TaskDef("T3", "Bk_e-Bk_o(n) = Ck_e-Ck_o(n+1) = D_2k(n+1)/2 above the stated bound",
                _task_t3, {"kmax": 1}),
        TaskDef("T3x", "exact series identity with correction polynomials behind T3",
                _task_t3x, {"kmax": 1, "order": 0}),
        TaskDef("T4", "2*A_k(n) = D_k(n+1)", _task_t4, {"kmax": 1, "nmax": 1}),
        TaskDef("T5", "A_2k(n) = Bk-diff(n) = Ck-diff(n+1) = D_2k(n+1)/2 "
                      "= D_2k_e(n+1) = D_2k_o(n+1) above the stated bound", _task_t5,
                {"kmax": 1}),
        TaskDef("T6", "A(n) = E(n+2) = F(n+1)", _task_t6, {"nmax": 1}),
        # enum_nmax = 0 checks the series side alone
        TaskDef("T7", "piecewise pentagonal law for Dk_e - Dk_o", _task_t7,
                {"kmax": 1, "nmax": 1, "enum_nmax": 0}),
        TaskDef("T7c", "Dk_e(n) = Dk_o(n) and Dk(n) even for n > k(k-1)/2", _task_t7c,
                {"kmax": 1, "nmax": 1}),
        # kmax = 0 runs the two-minus-reciprocal rows alone
        TaskDef("T8", "finite signed smallest-part sum equals its tail-product closed form",
                _task_t8, {"kmax": 0, "n_terms": 0, "order": 0}, {"n_terms": "N_max"}),
        TaskDef("T9", "closed form of the D_k generating function", _task_t9,
                {"kmax": 1, "order": 0}),
        # the recurrence starts at k = 2 and n = k
        TaskDef("T10", "D_k(n) + D_k-1(n) = D_k-1(n-k+1) + 2A(n)", _task_t10,
                {"kmax": 2, "nmax": 2}),
        TaskDef("T11", "D_3(n) = 2A(n-3) - 2A(n-1) + 2A(n), derived D_k expansions",
                _task_t11, {"kmax": 1, "nmax": 1}),
        TaskDef("T12", "engine self-tests: geometric expansion and telescoping collapse",
                _task_t12, {"order": 0, "collapse_order": 0}),
    )
}

TASK_ORDER = list(TASKS)


def _run(checks) -> tuple[int, dict | None, list[str]]:
    """Add up the cells of a task's checks and collect its notes, up to the
    first check that names a witness."""
    cells, notes = 0, []
    for check in checks:
        if isinstance(check, str):
            notes.append(check)
            continue
        checked, witness = check
        cells += checked
        if witness:
            return cells, witness, notes
    return cells, None, notes


def task_grid(task_id: str, overrides: dict, spell=str) -> dict:
    """The whole grid of one registered task: its defaults, with the
    overrides whose value is not None in their place.

    An unknown task raises KeyError; an override the task does not take,
    TypeError; and a value that is not an int, or is below the parameter's
    least legal value, ValueError.  ``spell(name)`` is how a message writes a
    parameter name (the CLI passes its flags).
    """
    if task_id not in TASKS:
        raise KeyError(f"unknown task {task_id!r}; known: {', '.join(TASK_ORDER)}")
    task = TASKS[task_id]
    grid = dict(task.fn.__kwdefaults__)
    given = {k: v for k, v in overrides.items() if v is not None}
    unknown = sorted(given.keys() - grid.keys())
    if unknown:
        raise TypeError(f"task {task_id} takes no {', '.join(map(spell, unknown))}; "
                        f"it takes {', '.join(map(spell, grid))}")
    grid.update(given)
    for name, value in grid.items():
        # bool is an int subclass, but True is no grid size
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"task {task_id} takes an integer {spell(name)}, not {value!r}")
        if value < task.least[name]:
            raise ValueError(f"task {task_id} takes {spell(name)} >= {task.least[name]}, "
                             f"not {value}")
    return grid


def run_task(task_id: str, **overrides) -> VerificationReport:
    """Run one registered task on :func:`task_grid`'s grid, which raises
    before the task runs.  A run that checks no cell raises ValueError
    rather than pass.  The report's parameters are the whole grid that ran,
    defaults included.
    """
    grid = task_grid(task_id, overrides)
    task = TASKS[task_id]
    start = time.perf_counter()
    cells, witness, notes = _run(task.fn(**grid))
    elapsed = time.perf_counter() - start
    if not cells:
        raise ValueError(f"task {task_id} checked no cells on the grid {grid}")
    return VerificationReport(
        task_id=task_id,
        summary=task.summary,
        status="pass" if witness is None else "fail",
        checked_cells=cells,
        witness=witness,
        notes=notes,
        parameters={task.labels.get(name, name): value for name, value in grid.items()},
        wall_time=elapsed,
    )


def run_all() -> list[VerificationReport]:
    return [run_task(task_id) for task_id in TASK_ORDER]


def reports_to_junit(reports: list[VerificationReport]) -> str:
    from xml.etree import ElementTree  # here, so that start-up does not load it

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

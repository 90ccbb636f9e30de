"""The three benchmark workloads and the correctness gate that checks them.

Every workload has four steps:

``build(seed)``
    Everything decided before the first timed call: the case list, shuffled
    by the seed.  The seed only reorders cases; it never changes which cases
    run, so every seed does the same work.
``execute(inputs)``
    The timed call.  Each case runs inside its own ``try`` so that an
    exception is booked as a failed case instead of ending the run.
``summarize(output)``
    A JSON-able, order-independent summary of what the program produced.
    ``reference.json`` holds the summaries of the seed commit.
``gate(summary, reference)``
    ``(attempted, failed, problems)``: the operations tried, those whose
    output differs from the reference or failed outright, and a short
    description of each failure.

qpart is called through module attributes (``counting.gf``, never a name
bound at import), so that the span tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from qpart import bijections, cli, counting, verify
from qpart.partitions import CLASS_INFO, ClassSpec


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_json(value) -> str:
    return sha256_text(json.dumps(value, sort_keys=True))


def _failure(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


def _case_gate(summary: dict, reference: dict) -> tuple[int, int, list[str]]:
    """One operation per reference case; a case fails when it differs."""
    cases = summary.get("cases", {})
    problems = [f"{key}: got {cases.get(key)!r}, expected {want!r}"
                for key, want in reference["cases"].items() if cases.get(key) != want]
    problems += [f"{key}: unexpected case" for key in cases if key not in reference["cases"]]
    return len(reference["cases"]), len(problems), problems


# ---------------------------------------------------------------------------
# report_all: the users' headline command, enumeration-bound
# ---------------------------------------------------------------------------

REPORT_ARGV = ("report", "--all", "--no-timestamp", "--format", "json")


def build_report_all(seed: int) -> list[str]:
    # The CLI fixes the task order, so the seed has nothing to shuffle.
    del seed
    return list(REPORT_ARGV)


def execute_report_all(argv: list[str]) -> dict:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            exit_code = cli.main(argv)
    except Exception as err:  # noqa: BLE001 - booked as a failed run
        return {"exit_code": None, "stdout": buf.getvalue(), "error": _failure(err)}
    return {"exit_code": exit_code, "stdout": buf.getvalue(), "error": None}


def summarize_report_all(output: dict) -> dict:
    text = output["stdout"]
    try:
        reports = json.loads(text)["reports"]
    except (ValueError, KeyError, TypeError):
        reports = []
    return {
        "exit_code": output["exit_code"],
        "error": output["error"],
        "sha256": sha256_text(text),
        "output_bytes": len(text.encode()),
        "cases": {r.get("task", f"#{i}"): sha256_json(r) for i, r in enumerate(reports)},
        "cells": sum(r.get("checked_cells", 0) for r in reports),
    }


def gate_report_all(summary: dict, reference: dict) -> tuple[int, int, list[str]]:
    attempted, failed, problems = _case_gate(summary, reference)
    # Every task matching while the bytes differ means the framing changed
    # (order, indentation, exit status); that is one more failed operation.
    whole = [f"{key}: got {summary[key]!r}, expected {reference[key]!r}"
             for key in ("sha256", "exit_code", "error") if summary[key] != reference[key]]
    if whole and not failed:
        failed = 1
    return attempted, failed, problems + whole


def work_report_all(summary: dict) -> int:
    return summary["cells"]


# ---------------------------------------------------------------------------
# series_deep: every GF builder just under the 64-bit ceiling, no enumeration
# ---------------------------------------------------------------------------

SERIES_ORDER = 740
SERIES_KS = (2, 3, 4, 5)
SERIES_TASKS = (
    ("T3x", {"kmax": 4, "order": SERIES_ORDER}),
    ("T9", {"kmax": 8, "order": SERIES_ORDER}),
    ("T8", {"order": 250}),
    ("T12", {"collapse_order": SERIES_ORDER}),
)


def series_specs() -> list[ClassSpec]:
    """Every class id once, with k = 2..5 where the class needs a k (57 specs)."""
    specs = []
    for class_id, (requires_k, _) in CLASS_INFO.items():
        if requires_k:
            specs.extend(ClassSpec(class_id, k) for k in SERIES_KS)
        else:
            specs.append(ClassSpec(class_id))
    return specs


def build_series_deep(seed: int) -> list[tuple]:
    cases = [("gf", spec) for spec in series_specs()]
    cases += [("task", task_id, params) for task_id, params in SERIES_TASKS]
    random.Random(seed).shuffle(cases)
    return cases


def execute_series_deep(cases: list[tuple]) -> dict:
    results = {}
    for case in cases:
        try:
            if case[0] == "gf":
                results[f"gf:{case[1]}"] = counting.gf(case[1], SERIES_ORDER)
            else:
                results[f"task:{case[1]}"] = verify.run_task(case[1], **case[2])
        except Exception as err:  # noqa: BLE001 - booked as a failed case
            results[f"{case[0]}:{case[1]}"] = _failure(err)
    return results


def summarize_series_deep(results: dict) -> dict:
    cases = {}
    coeffs = cells = max_bits = 0
    for key, value in sorted(results.items()):
        if isinstance(value, str):
            cases[key] = value
        elif key.startswith("gf:"):
            cases[key] = sha256_json(list(value.coeffs))
            coeffs += value.order + 1
            max_bits = max(max_bits, max(map(abs, value.coeffs)).bit_length())
        else:
            cases[key] = {"status": value.status, "checked_cells": value.checked_cells,
                          "sha256": sha256_json(value.to_json_dict(include_timing=False))}
            cells += value.checked_cells
    return {"cases": cases, "coeff_digest": sha256_json(cases),
            "coeffs": coeffs, "cells": cells, "max_coeff_bits": max_bits}


def gate_series_deep(summary: dict, reference: dict) -> tuple[int, int, list[str]]:
    return _case_gate(summary, reference)


def work_series_deep(summary: dict) -> int:
    return summary["coeffs"] + summary["cells"]


# ---------------------------------------------------------------------------
# bijection_roundtrip: every member at weight 60 through every public map
# ---------------------------------------------------------------------------

BIJECTION_WEIGHT = 60


def _roundtrip_cases() -> dict[str, list[tuple]]:
    """Case name -> sweeps of (source class, [(forward, inverse), ...]).

    Mirrors ``qpart bijection --roundtrip``: one enumeration per source
    class, every listed direction applied to each member.
    """
    b = ClassSpec("B")
    cases = {
        "glaisher": [(b, [(lambda v: bijections.glaisher_merge(v),
                           lambda img: bijections.glaisher_split(img))])],
        "ef-shift": [(b, [(lambda v: bijections.ef_shift("B->F", v),
                           lambda img: bijections.ef_shift("F->B", img)),
                          (lambda v: bijections.ef_shift("B->E", v),
                           lambda img: bijections.ef_shift("E->B", img))])],
        "akdk(k=3)": [(ClassSpec("Dk", 3), [(lambda v: bijections.akdk_map(3, v),
                                              lambda out: bijections.akdk_inverse(3, out))])],
        "dk-recurrence(k=3)": [
            (ClassSpec("Dk", mult),
             [(lambda v, s=source: bijections.dk_recurrence_map(3, v, s),
               lambda out: bijections.dk_recurrence_inverse(3, out)[0])])
            for source, mult in ((bijections.SOURCE_DK, 3), (bijections.SOURCE_DK_MINUS_1, 2))
        ],
        "base-bc(rank)": [(b, [(lambda v: bijections.base_bc_map(v, bijections.RANK),
                                lambda img: bijections.base_bc_inverse(img, bijections.RANK))])],
    }
    for k, parity in ((2, "e"), (3, "o"), (4, "e")):
        cases[f"bkck(k={k},{parity})"] = [(
            ClassSpec(f"Bk_{parity}", k),
            [(lambda v, k=k, p=parity: bijections.bkck_map(k, p, v),
              lambda out, k=k, p=parity: bijections.bkck_inverse(k, p, out.image).image)])]
    return cases


def build_bijection_roundtrip(seed: int) -> list[tuple[str, list[tuple]]]:
    cases = list(_roundtrip_cases().items())
    random.Random(seed).shuffle(cases)
    return cases


def execute_bijection_roundtrip(cases: list[tuple[str, list[tuple]]]) -> dict:
    results = {}
    for name, sweeps in cases:
        members = {}
        roundtrips = failures = 0
        first = None
        for spec, directions in sweeps:
            try:
                sources = counting.enumerate_class(spec, BIJECTION_WEIGHT)
            except Exception as err:  # noqa: BLE001 - booked as a failed case
                members[str(spec)] = _failure(err)
                continue
            members[str(spec)] = len(sources)
            for source in sources:
                for forward, inverse in directions:
                    roundtrips += 1
                    try:
                        ok = inverse(forward(source)) == source
                    except Exception as err:  # noqa: BLE001 - booked as a failure
                        ok, first = False, first or f"{source}: {_failure(err)}"
                    if not ok:
                        failures += 1
                        first = first or f"{source}: round-trip did not return it"
        results[name] = {"members": members, "roundtrips": roundtrips,
                         "failures": failures, "first_failure": first}
    return results


def summarize_bijection_roundtrip(results: dict) -> dict:
    return {
        "cases": {name: {"members": r["members"], "roundtrips": r["roundtrips"]}
                  for name, r in sorted(results.items())},
        "roundtrips": sum(r["roundtrips"] for r in results.values()),
        "failures": sum(r["failures"] for r in results.values()),
        "first_failures": {name: r["first_failure"] for name, r in sorted(results.items())
                           if r["first_failure"]},
    }


def gate_bijection_roundtrip(summary: dict, reference: dict) -> tuple[int, int, list[str]]:
    """One operation per round-trip the reference expects.

    A round-trip that raises or does not return its source fails; so does
    every expected round-trip a case did not make, or made beyond the
    reference count.
    """
    attempted = reference["roundtrips"]
    failed = summary["failures"]
    problems = [f"{name}: {text}" for name, text in summary["first_failures"].items()]
    for name, want in reference["cases"].items():
        got = summary["cases"].get(name, {"members": {}, "roundtrips": 0})
        if got != want:
            failed += max(1, abs(got["roundtrips"] - want["roundtrips"]))
            problems.append(f"{name}: got {got!r}, expected {want!r}")
    return attempted, failed, problems


def work_bijection_roundtrip(summary: dict) -> int:
    return summary["roundtrips"]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one unit of ``work_per_s`` counts on this workload
    build: Callable
    execute: Callable
    summarize: Callable
    gate: Callable
    work: Callable


WORKLOADS = {w.name: w for w in (
    Workload("report_all", "verify cells checked (cells_per_s)",
             build_report_all, execute_report_all, summarize_report_all,
             gate_report_all, work_report_all),
    Workload("series_deep", "GF coefficients built + identity cells checked (coeffs_per_s)",
             build_series_deep, execute_series_deep, summarize_series_deep,
             gate_series_deep, work_series_deep),
    Workload("bijection_roundtrip", "round-trips completed (roundtrips_per_s)",
             build_bijection_roundtrip, execute_bijection_roundtrip,
             summarize_bijection_roundtrip, gate_bijection_roundtrip,
             work_bijection_roundtrip),
)}

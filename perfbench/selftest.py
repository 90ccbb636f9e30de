"""Self-test of the benchmark's correctness gate and span tracer.

    python3 perfbench/selftest.py

Checks, in about a minute and a half:

1. the gate passes every workload's real output and trips on a deliberately
   altered one (a changed report byte, a changed task cell count, a changed
   series coefficient, a round-trip that does not return its source, a lost
   member);
2. the tracer puts its wrappers into every module namespace that bound a
   wrapped function, and takes them all out again;
3. for every workload, a traced child's output is identical to an untraced
   child's, and the layers' self times sum to no more than the wall time;
4. the metric names and units agree with ``BENCHMARK.json``.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import qpart  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from qpart import bijections, counting  # noqa: E402
from qpart.series import TruncatedSeries  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
FAILURES: list[str] = []


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILURES.append(label)


def failed_ops(name: str, summary: dict, reference: dict | None = None) -> int:
    return workloads.WORKLOADS[name].gate(summary, reference or REFERENCE[name])[1]


def gate_report_all() -> None:
    w = workloads.WORKLOADS["report_all"]
    output = w.execute(w.build(0))
    check("report_all: real output passes", failed_ops("report_all", w.summarize(output)) == 0)

    framing = dict(output, stdout=output["stdout"] + " ")
    check("report_all: one extra byte trips the gate",
          failed_ops("report_all", w.summarize(framing)) == 1)

    payload = json.loads(output["stdout"])
    payload["reports"][3]["checked_cells"] += 1
    altered = dict(output, stdout=json.dumps(payload, indent=2) + "\n")
    check("report_all: an altered cell count trips the gate",
          failed_ops("report_all", w.summarize(altered)) >= 1)


def gate_series_deep() -> None:
    w = workloads.WORKLOADS["series_deep"]
    results = w.execute(w.build(0))
    check("series_deep: real output passes", failed_ops("series_deep", w.summarize(results)) == 0)

    key = "gf:Ck_e(k=4)"
    coeffs = list(results[key].coeffs)
    coeffs[700] += 1
    altered = dict(results, **{key: TruncatedSeries(tuple(coeffs))})
    check("series_deep: one altered coefficient trips the gate",
          failed_ops("series_deep", w.summarize(altered)) == 1)


def gate_bijection_roundtrip() -> None:
    name = "bijection_roundtrip"
    w = workloads.WORKLOADS[name]
    cases = [c for c in w.build(0) if c[0] == "glaisher"]
    reference = {"cases": {"glaisher": REFERENCE[name]["cases"]["glaisher"]},
                 "roundtrips": REFERENCE[name]["cases"]["glaisher"]["roundtrips"]}
    check("bijection_roundtrip: real glaisher round-trips pass",
          failed_ops(name, w.summarize(w.execute(cases)), reference) == 0)

    original = bijections.glaisher_split
    broken_at = counting.enumerate_class(qpart.ClassSpec("B"), workloads.BIJECTION_WEIGHT)[7]

    def broken_split(p):
        image = original(p)
        return qpart.Partition(image.parts + (1, 1)) if image == broken_at else image

    bijections.glaisher_split = broken_split
    try:
        summary = w.summarize(w.execute(cases))
    finally:
        bijections.glaisher_split = original
    check("bijection_roundtrip: a round-trip that misses its source trips the gate",
          failed_ops(name, summary, reference) == 1)

    summary = w.summarize(w.execute(cases))
    summary["cases"]["glaisher"]["roundtrips"] -= 1
    check("bijection_roundtrip: a lost member trips the gate",
          failed_ops(name, summary, reference) == 1)


def tracer_patches_every_namespace() -> None:
    original = counting.gf
    tracer = Tracer()
    tracer.install()
    try:
        patched = [qpart.gf, qpart.counting.gf, qpart.verify.gf, qpart.cli.gf]
        check("tracer: gf wrapped in qpart, counting, verify and cli",
              all(fn is not original and fn.__wrapped__ is original for fn in patched))
        check("tracer: TruncatedSeries.__mul__ wrapped",
              hasattr(TruncatedSeries.__mul__, "__wrapped__"))
    finally:
        tracer.uninstall()
    check("tracer: uninstall restores every namespace",
          all(fn is original for fn in (qpart.gf, qpart.counting.gf, qpart.verify.gf,
                                        qpart.cli.gf))
          and not hasattr(TruncatedSeries.__mul__, "__wrapped__"))


def traced_equals_untraced() -> None:
    for name in run.WORKLOADS:
        detail, result = run.report(name, seed=0, seconds=0.001, trace=True, env={})
        check(f"{name}: traced output identical, self times within wall, gate passes",
              result["correct"], "; ".join(detail["problems"]))


def metrics_match_benchmark_json() -> None:
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        check("BENCHMARK.json present", False)
        return
    spec = json.loads(path.read_text())
    check("BENCHMARK.json end_to_end matches the benchmark",
          [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END))
    check("BENCHMARK.json per_layer matches the benchmark",
          [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER))
    check("BENCHMARK.json workloads match the benchmark",
          [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS))


def main() -> int:
    metrics_match_benchmark_json()
    tracer_patches_every_namespace()
    gate_bijection_roundtrip()
    gate_series_deep()
    gate_report_all()
    traced_equals_untraced()
    print("self-test", "FAILED: " + ", ".join(FAILURES) if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

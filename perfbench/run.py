"""Benchmark of qpart: three workloads, each run in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Load is a closed loop with one client: one
child interpreter at a time (``child.py``), each paying cold ``lru_cache``s
as every CLI user does.  With ``--trace 0`` the run starts a few set-up-only
children, then runs the workload again and again until ``--seconds`` have
passed, and reports the end-to-end metrics as medians over the children.
With ``--trace 1`` it alternates untraced and traced children for the same
time and reports the per-layer metrics of the traced ones, plus
``trace.overhead_s``, the traced minus the untraced median wall time.

Times are in reference seconds: each child scales its raw times by the
machine speed it measured while it ran (``calibration.py``), because the
host's speed swings far more than any bound worth having.  The raw times
are in the details line.

Every child's output is checked against ``reference.json``.  The last line
of standard output is the result: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it holds the details: quartiles and sample
counts, the error rate, the workload's unit of work and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, LAYERS, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "qpart"

WORKLOADS = ("report_all", "series_deep", "bijection_roundtrip")

# Set-up is ~0.08 s against a run of several seconds, so a handful of
# set-up-only children buys a steady median for almost nothing.
SETUP_PROBES = 9
# Every run must end within 180 s; children are cut off before that.
DEADLINE_S = 170.0


def environment() -> dict:
    """What a noisy or unexpected result needs to be read correctly."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one child to completion; a crash or timeout becomes an error entry."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    timeout = max(1.0, deadline - time.monotonic())
    spawned_at = time.monotonic()
    try:
        done = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} child exceeded {timeout:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"{mode} child exited {done.returncode}: {done.stderr[-400:]}"}
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    # Writes the bytecode cache on a fresh checkout, so that every measured
    # set-up reads it as a user's installed package would.
    spawn(workload, seed, "setup", deadline)
    runs: list[tuple[str, dict]] = []
    if not trace:
        runs += [("setup", spawn(workload, seed, "setup", deadline))
                 for _ in range(SETUP_PROBES)]
    t0 = time.monotonic()
    modes = ("plain", "traced") if trace else ("plain",)
    while True:
        for mode in modes:
            runs.append((mode, spawn(workload, seed, mode, deadline)))
        if (time.monotonic() - t0 >= seconds or time.monotonic() >= deadline - 30
                or any("error" in r for _, r in runs)):
            break
    return {"runs": runs, "elapsed_s": time.monotonic() - started}


def report(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> tuple[dict, dict]:
    measured = measure(workload, seed, seconds, trace)
    runs = measured["runs"]
    errors = [r["error"] for _, r in runs if "error" in r]
    done = [(mode, r) for mode, r in runs if "error" not in r]
    plain = [r for mode, r in done if mode == "plain"]
    traced = [r for mode, r in done if mode == "traced"]
    executed = plain + traced
    attempted = sum(r["attempted"] for r in executed) + len(errors)
    failed = sum(r["failed"] for r in executed) + len(errors)
    problems = errors + [p for r in executed for p in r["problems"]]

    digests = {r["output_sha256"] for r in executed}
    if len(digests) > 1:
        problems.append("outputs differ between children (traced vs untraced or seed-dependent)")
    for r in traced:
        layers = r["layers"]
        self_sum = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        if self_sum > r["wall_ref_s"] * (1 + 1e-9):
            problems.append(f"layer self times sum to {self_sum} s > wall {r['wall_ref_s']} s")
    correct = not problems and failed == 0 and bool(plain) and (bool(traced) or not trace)

    samples: dict[str, list[float]] = {}
    if plain:
        samples["wall_ref_s"] = [r["wall_ref_s"] for r in plain]
        samples["work_per_s"] = [r["work"] / r["wall_ref_s"] for r in plain]
        samples["peak_rss_mib"] = [r["peak_rss_kib"] / 1024 for r in plain]
        setups = [r for mode, r in done if mode in ("setup", "plain")]
        samples["setup_s"] = [r["setup_s"] for r in setups]
        samples["setup_raw_s"] = [r["setup_raw_s"] for r in setups]
        samples["wall_raw_s"] = [r["wall_raw_s"] for r in plain]
        samples["speed_scale"] = [r["speed_scale"] for r in plain]
    if traced:
        samples["traced_wall_ref_s"] = [r["wall_ref_s"] for r in traced]
        samples["trace_spans"] = [r["layers"]["trace.spans"] for r in traced]
    stats = {name: summary(values) for name, values in samples.items()}

    if trace:
        metrics = layer_metrics(plain, traced)
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END if name in stats}
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "elapsed_s": measured["elapsed_s"],
        "children": {mode: sum(1 for m, _ in runs if m == mode)
                     for mode in ("setup", "plain", "traced")},
        "stats": stats,
        "work_unit": plain[0]["work_unit"] if plain else None,
        "work_per_run": plain[0]["work"] if plain else None,
        "error_rate": failed / attempted if attempted else None,
        "problems": problems[:10],
        "env": env,
    }
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    return detail, result


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    if not plain or not traced:
        return {}
    values: dict[str, list[float]] = {}
    for r in traced:
        layers = dict(r["layers"])
        layers["bijections.roundtrips"] = r["roundtrips"]
        layers["bijections.roundtrip_failures"] = r["roundtrip_failures"]
        layers["cli.output_bytes"] = r["output_bytes"]
        for name, value in layers.items():
            values.setdefault(name, []).append(value)
    overhead = (statistics.median(r["wall_ref_s"] for r in traced)
                - statistics.median(r["wall_ref_s"] for r in plain))
    values["trace.overhead_s"] = [overhead]
    return {name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "__init__.py").is_file():
        print(f"run.py: no qpart sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    env = environment()
    detail, result = report(args.workload, args.seed, args.seconds, bool(args.trace), env)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

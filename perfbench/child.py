"""One execution of one workload in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE --spawned-at T

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process; the system-wide monotonic clock makes the difference to this
process's clock the set-up time: interpreter start, ``import qpart`` and the
workload's inputs.  Times are reported raw (``*_raw_s``) and scaled to
reference machine speed (see ``calibration.py``).  MODE is ``setup`` (stop there), ``plain`` (run the
workload) or ``traced`` (run it under the span tracer).  The last line of
standard output is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports qpart)
from calibration import Calibrator  # noqa: E402

# Bursts timed right after set-up, to scale it: ~30 ms on the reference machine.
SETUP_BURSTS = 20


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    setup_raw_s = time.monotonic() - args.spawned_at
    setup_speed = Calibrator()
    setup_speed.probe(SETUP_BURSTS)
    result = {"setup_raw_s": setup_raw_s, "setup_s": setup_raw_s * setup_speed.scale()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    speed = Calibrator(on_burst=tracer.record_burst if tracer else None)
    speed.start()
    start = time.perf_counter()
    output = workload.execute(inputs)
    wall_raw_s = time.perf_counter() - start
    speed.stop()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    scale = speed.scale()
    result.update({
        "wall_raw_s": wall_raw_s,
        "wall_ref_s": (wall_raw_s - speed.spent_s) * scale,
        "speed_scale": scale,
        "bursts": len(speed.bursts),
        "peak_rss_kib": peak_rss_kib,
    })
    if tracer is not None:
        result["layers"] = tracer.metrics(scale)
    summary = workload.summarize(output)
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    attempted, failed, problems = workload.gate(summary, reference)
    result.update({
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "work": workload.work(summary),
        "work_unit": workload.unit,
        "output_sha256": workloads.sha256_json(summary),
        "output_bytes": summary.get("output_bytes", 0),
        "roundtrips": summary.get("roundtrips", 0),
        "roundtrip_failures": summary.get("failures", 0),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

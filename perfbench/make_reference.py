"""Write ``reference.json``: the summary of every workload's output.

    python3 perfbench/make_reference.py

The committed file was written from the seed commit and is the correctness
gate of every later run.  Regenerate it only for a change whose purpose is to
change an output, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        reference[name] = workload.summarize(workload.execute(workload.build(0)))
        print(f"{name}: {workload.work(reference[name])} {workload.unit}", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

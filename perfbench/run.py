"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload loop_full --seed 1 --seconds 12 \\
        --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced run and
writes its spans as Chrome trace-event JSON under ``perfbench/out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record
with provenance is written next to the trace.  The program is imported
from ``src/`` of the checkout; without it the run fails with a non-zero
exit code and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("loop_full", "loop_masked", "sweep_cold", "sweep_replay", "serve")
# A run must finish well inside the 180 s the benchmark contract allows.
DEADLINE_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source at src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    tmp_parent = os.path.join(ROOT, "perfbench", "tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_parent)
    try:
        from perfbench import harness
        harness.isolate_environment(scratch)
        from perfbench import workloads
        record = workloads.run(args, scratch)
        record["provenance"] = harness.provenance(ROOT, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(harness.OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"provenance": record["provenance"],
                      "digest": record["digest"],
                      "failures": record["failures"]}))
    print(json.dumps(record["result"], separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

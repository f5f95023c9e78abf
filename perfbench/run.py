"""Layered benchmark for the framerel engine.

Run from the repository root:

    python3 perfbench/run.py --workload scenario-zoo --seed 1 --seconds 10 --trace 0

Workloads: ``scenario-zoo``, ``cyclic-ladder``, ``s4-regular`` (see
``perfbench/README.md``).  Each run starts one fresh worker process
(``worker.py``) for its workload, waits for it, and passes its output
through; the last line of stdout is the JSON result.  ``--trace 1``
reports per-layer metrics from a separate traced run instead of the
end-to-end ones.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scenario-zoo", "cyclic-ladder", "s4-regular")
# A run must end within 180 s; leave room to stop the worker.
WORKER_TIMEOUT_S = 170
REQUIRED = ("src/framerel/__init__.py", "tests/fixtures/golden_z2.report.json", "tests/fixtures/golden_s3.report.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark for the framerel engine.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a framerel checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    with subprocess.Popen(cmd, cwd=ROOT) as worker:
        try:
            return worker.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
            print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s and was stopped", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())

"""Rewrite perfbench/pins.json from the current source tree.

    python3 perfbench/pin.py

Runs one untraced pass of every workload and pins each job's output
sha256.  Pins are meant to change only when a job's output is meant to
change.  Stops without writing if any job exits nonzero or raises.
"""

import json
import sys
import time

sys.dont_write_bytecode = True

import run  # noqa: E402


def main() -> int:
    spec = json.loads((run.HERE / "spec.json").read_text())
    pins = {}
    for workload in spec["workloads"]:
        report = run.run_pass(workload, 0, False, time.monotonic() + 600)
        for job in report["jobs"]:
            if job["rc"] != 0 or job["error"] is not None:
                print(f"error: {job['id']} failed: rc={job['rc']} {job['error']}", file=sys.stderr)
                return 1
            pins[job["id"]] = job["sha256"]
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} jobs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

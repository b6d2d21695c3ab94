"""The fermatlines benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs the workload's fixed job
list (perfbench/spec.json, in the order --seed picks) in a fresh
single-threaded process (worker.py) and checks every job's output against
the sha256 pinned in perfbench/pins.json.  A job fails on a nonzero exit
code, an exception or a hash that differs from its pin; failures are
counted, not fatal.

--trace 0 repeats passes while the next one fits in --seconds (at least
one) and reports the median over passes of:
  setup_s      import fermatlines and make_field for every field used
  run_s        wall time of the job list after setup
  peak_rss_mb  ru_maxrss of the pass process
  pass_frac    jobs whose output matched its pin / jobs attempted

--trace 1 alternates two untraced and two traced passes, and reports the
per-layer metrics (median of the traced passes) and trace.overhead_frac,
the median traced run_s over the median untraced run_s, minus 1.  The exact counters must
agree between the two traced passes.  Spans go to .perfbench_out/.

Each run also writes .perfbench_out/run-<workload>-trace<0|1>.json and
prints it as the line before the result: the machine (nproc, CPU model,
Python and numpy versions), every pass's setup_s, run_s, run_cpu_s (below
run_s when the pass waited for a CPU), peak_rss_mb and wall_s, the failed
job ids and the self-checks.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A missing src/fermatlines, a crashed pass or a pass that outlives
the time limit ends the run with exit code 1 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
TIME_LIMIT_S = 170  # every run must end within 180 s

EXACT_COUNTERS = (
    "gf.add_perm_calls",
    "charsum.elements_swept",
    "cyc.reduce_calls",
    "gf.scalar_op_calls",
    "fermat.build_intersections_calls",
)


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_pass(workload: str, seed: int, trace: bool, deadline: float, spans=None) -> dict:
    """One fresh worker process; its report, with wall time added."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if trace else "0"]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the pass could start")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass exceeded the time limit of {TIME_LIMIT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    if not Path(report["package"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"fermatlines was imported from {report['package']}, not this checkout")
    report["wall_s"] = time.monotonic() - start
    return report


def job_failed(job: dict, pins: dict) -> bool:
    return job["rc"] != 0 or job["error"] is not None or pins.get(job["id"]) != job["sha256"]


def count_failures(report: dict, pins: dict) -> int:
    return sum(job_failed(j, pins) for j in report["jobs"])


def pin_check_works(report: dict, pins: dict) -> bool:
    """Corrupting the pin of a passing job must add exactly one failure.
    Vacuously true when no job passes: the run is then incorrect anyway."""
    passing = [j for j in report["jobs"] if not job_failed(j, pins)]
    if not passing:
        return True
    corrupted = dict(pins, **{passing[0]["id"]: "0" * 64})
    return count_failures(report, corrupted) == count_failures(report, pins) + 1


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fermatlines" / "__init__.py").is_file():
        print(f"error: no fermatlines source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    pins = json.loads((HERE / "pins.json").read_text())

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    try:
        plain, traced = [], []
        if args.trace:
            # alternate, so that a slow spell of the machine hits both sides
            for i in range(2):
                plain.append(run_pass(args.workload, args.seed, False, deadline))
                traced.append(run_pass(args.workload, args.seed, True, deadline,
                                       OUT / f"spans-{args.workload}-{i}.json"))
        else:
            while True:
                plain.append(run_pass(args.workload, args.seed, False, deadline))
                elapsed = time.monotonic() - start
                if elapsed + max(r["wall_s"] for r in plain) > args.seconds:
                    break
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(len(r["jobs"]) for r in passes)
    failed = sum(count_failures(r, pins) for r in passes)
    checks = {"pin_check_works": pin_check_works(plain[0], pins)}

    def median(key, reports):
        return statistics.median(r[key] for r in reports)

    if args.trace:
        # counts stay whole numbers; times are medians
        values = {
            name: (statistics.median if isinstance(traced[0]["layers"][name], float)
                   else statistics.median_low)(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        values["trace.overhead_frac"] = median("run_s", traced) / median("run_s", plain) - 1
        checks["exact_counters_repeat"] = all(
            traced[0]["layers"][c] == traced[1]["layers"][c] for c in EXACT_COUNTERS
        )
        hashes = [[j["sha256"] for j in r["jobs"]] for r in passes]
        checks["traced_hashes_match_untraced"] = all(h == hashes[0] for h in hashes)
    else:
        values = {
            "setup_s": median("setup_s", plain),
            "run_s": median("run_s", plain),
            "peak_rss_mb": median("peak_rss_mb", plain),
            "pass_frac": (attempted - failed) / attempted,
        }
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in bench["per_layer" if args.trace else "end_to_end"]
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": dict(machine(), python=passes[0]["python"], numpy=passes[0]["numpy"]),
        "checks": checks,
        "passes": [{k: r[k] for k in ("setup_s", "run_s", "run_cpu_s", "peak_rss_mb", "wall_s")} for r in passes],
        "failed_jobs": sorted({j["id"] for r in passes for j in r["jobs"] if job_failed(j, pins)}),
    }
    (OUT / f"run-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

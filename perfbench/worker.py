"""One benchmark pass: set up, run a workload's job list once, report.

Started by run.py in a fresh single-threaded process with PYTHONPATH set to
the checkout's src/.  Prints one JSON object as the last line of stdout:
setup and run times, peak RSS, each job's output hash and error, and, with
--trace 1, the per-layer metrics (spans are written to --spans).

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--spans PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

SPEC = Path(__file__).resolve().parent / "spec.json"


def job_list(workload: str, seed: int) -> list[dict]:
    """The workload's fixed job pool, in the order the seed picks."""
    jobs = list(json.loads(SPEC.read_text())["workloads"][workload]["jobs"])
    random.Random(seed).shuffle(jobs)
    return jobs


def run_cli(cli, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def run_pairing(fl, p: int, k: int, a, b) -> str:
    """Both routes to d^3 <L_l, L_l> for every nontrivial w-tuple of a line,
    as canonical Z[zeta_d] vectors; the routes must agree exactly."""
    ctx = fl.make_field(p, k)
    line = fl.Line(ctx, ctx.from_coeffs(a), ctx.from_coeffs(b))
    rows = []
    for t in fl.fermat.w_tuples(ctx.d)[1:]:
        direct = fl.fermat.direct_numerator(ctx, line, t)
        via_sum = fl.fermat.charsum_numerator(ctx, line, t)
        if direct != via_sum:
            raise ArithmeticError(
                f"pairing routes differ at q={ctx.q} tuple={t.entries}: "
                f"{list(direct.canon)} != {list(via_sum.canon)}"
            )
        rows.append([list(t.entries), list(direct.canon)])
    doc = {"q": ctx.q, "a": list(a), "b": list(b), "numerators": rows}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    jobs = job_list(args.workload, args.seed)
    fields = sorted({tuple(j["field"]) for j in jobs})

    t0 = time.perf_counter()
    import numpy

    import fermatlines as fl
    from fermatlines import cli

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    for p, k in fields:
        fl.gf.make_field(p, k)
    setup_s = time.perf_counter() - t0

    results = []
    stdout_bytes = 0
    t1 = time.perf_counter()
    c1 = time.process_time()
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        rc, out, error = 0, "", None
        try:
            if "argv" in job:
                rc, out = run_cli(cli, job["argv"])
                stdout_bytes += len(out.encode())
            else:
                pj = job["pairing"]
                out = run_pairing(fl, *job["field"], pj["a"], pj["b"])
        except Exception as e:  # a failed job is counted, not fatal
            error = f"{type(e).__name__}: {e}"
        results.append({
            "id": job["id"],
            "rc": rc,
            "error": error,
            "sha256": hashlib.sha256(out.encode()).hexdigest(),
        })
    run_s = time.perf_counter() - t1
    run_cpu_s = time.process_time() - c1

    report = {
        "setup_s": setup_s,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
        "package": fl.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.job = None
        report["layers"] = tracing.layer_metrics(tracer, stdout_bytes)
        if args.spans:
            tracing.write_spans(tracer, args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

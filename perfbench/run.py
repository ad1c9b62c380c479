"""taniapn benchmark.

    python3 perfbench/run.py --workload {scan,witness,enumerate} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout.  The operations run in one worker
process (worker.py) that imports taniapn from src/; this process makes
the seeded operation list (workloads.py), times the worker's set-up,
and checks every output against the benchmark's own computations
(refcheck.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics for --trace 0 and the per-layer metrics (spans.py) for --trace 1.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refcheck
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9      # set-ups timed per run; setup_s is their median
WORKER_TIMEOUT_S = 150
FAILED_CODES = (None, 2)  # raised, or usage error / TooLarge


def spawn(plan_path: Path, result_path: Path | None = None):
    """Start a worker; return it and the seconds until it printed "ready"."""
    argv = [sys.executable, str(HERE / "worker.py"), str(plan_path)]
    if result_path is not None:
        argv.append(str(result_path))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def check_outputs(ops: list[dict], res: dict, outdir: Path) -> tuple[int, list[str]]:
    """(failed operations, problems) over every round of the run.

    Round 0's outputs are checked against refcheck; every later round must
    repeat round 0's exit code and output bytes.  A failed operation (it
    raised, or exited 2) is counted and not checked.
    """
    failed, problems = 0, []
    for i, op in enumerate(ops):
        done = [(codes[i], digests[i]) for codes, digests in zip(res["codes"], res["digests"])
                if codes[i] not in FAILED_CODES]
        failed += len(res["codes"]) - len(done)
        if len(done) < len(res["codes"]):
            print(f"op {i} failed: {res['stderr'].get(str(i), '')}", file=sys.stderr)
        if not done:
            continue
        if any(d != done[0] for d in done):
            problems.append(f"op {i}: exit code or output changed between rounds")
        if res["codes"][0][i] in FAILED_CODES:
            continue
        out = (outdir / f"op{i}.out").read_text()
        try:
            found = refcheck.CHECKS[op["check"]](op, done[0][0], out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            found = [f"output of the wrong shape: {exc!r}"]
        problems += [f"op {i} {op.get('argv', op.get('lib'))}: {p}" for p in found]
    return failed, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "taniapn" / "__init__.py").is_file():
        print(f"error: no taniapn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed)
    outdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    spans_path = HERE / "out" / f"spans-{args.workload}.json"
    plan_path, result_path = outdir / "plan.json", outdir / "result.json"
    plan_path.write_text(json.dumps({
        "ops": ops, "warm": workloads.WARM[args.workload], "seconds": args.seconds,
        "trace": bool(args.trace), "outdir": str(outdir), "spans": str(spans_path)}))
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0):
            probe, ready = spawn(plan_path)
            probe.wait()
            setups.append(ready)
        worker, ready = spawn(plan_path, result_path)
        setups.append(ready)
        try:
            worker.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
            print("error: worker timed out", file=sys.stderr)
            return 1
        if worker.returncode != 0 or not result_path.is_file():
            print(f"error: worker exited {worker.returncode}", file=sys.stderr)
            return 1
        res = json.loads(result_path.read_text())
        failed, problems = check_outputs(ops, res, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)
    times = [t for round_times in res["times"] for t in round_times]
    rounds = len(res["times"])
    # each operation's median over the rounds sets a disturbed execution aside
    per_op = [statistics.median(op_times) for op_times in zip(*res["times"])]
    summary = (f"{args.workload} seed={args.seed}: {rounds} rounds x {len(ops)} ops, "
               f"median of {len(times)} op times {statistics.median(times) * 1e3:.1f} ms")
    if len(times) >= 100:
        summary += f", p90 {statistics.quantiles(times, n=10)[-1] * 1e3:.1f} ms"
    print(summary)
    if args.trace:
        # round 0 also warms up the process, so the comparison leaves it out
        rounds_s = [(sum(t), on) for t, on in zip(res["times"], res["traced"])]
        traced = [t for t, on in rounds_s if on]
        untraced = [t for t, on in rounds_s[1:] if not on]
        before, after = statistics.median(untraced), statistics.median(traced)
        print(f"trace overhead {100 * (after / before - 1):+.1f}% "
              f"(median round {before:.3f} s untraced, {after:.3f} s traced; rounds "
              + " ".join(f"{t:.3f}{'T' if on else 'U'}" for t, on in rounds_s)
              + f"); spans in {spans_path.relative_to(ROOT)}")
        values = spans.per_layer(json.loads(spans_path.read_text()), len(traced))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.METRICS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(per_op) / sum(per_op), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": len(times),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

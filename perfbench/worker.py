"""The program's process: set up taniapn, run the operation list, report.

    python3 perfbench/worker.py PLAN [RESULT]

PLAN is a JSON file written by run.py: {"ops", "warm", "seconds",
"trace", "outdir", "spans"}.  The worker imports taniapn from the
checkout's src/, builds the field contexts every operation reuses and
prints "ready"; run.py times set-up up to that line.  Without RESULT
that is all (a set-up probe); with it, the worker runs whole rounds of
the list until the seconds are spent and at least MIN_ROUNDS rounds are
done, and writes RESULT.

Each operation's stdout is kept in memory; round 0 writes it to a file
for checking, later rounds keep only its SHA-256.  With trace set, every
second round runs traced (spans.py) and the others untraced, so the same
process also gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Each operation's time is its median over the rounds, which needs three
# rounds to set a single disturbed execution aside.
MIN_ROUNDS = 3


class Sink(io.TextIOBase):
    """Stands in for stdout: keeps what the program prints, in memory, so
    that no file or pipe I/O falls inside an operation's time."""

    def __init__(self):
        self.parts: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.parts.append(s)
        return len(s)


def run_op(op: dict, out: Sink, cli, taniapn) -> tuple[float, object, str]:
    """(seconds, exit code or None when the operation raised, stderr)."""
    if op.get("cold"):
        taniapn.default_ctx.cache_clear()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if "lib" in op:
                params = taniapn.TaniguchiParams(*op["lib"])
                result = taniapn.count_monomial_el_automorphisms(params)
                code = 0
            else:
                code = cli.main(op["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failed operation is counted, not fatal
            code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        if "lib" in op and code == 0:
            print(result)
    return elapsed, code, err.getvalue()


def run_round(plan: dict, cli, taniapn, res: dict) -> None:
    """One round of the list; round 0 keeps every output for checking."""
    first = not res["times"]
    times, codes, digests = [], [], []
    for i, op in enumerate(plan["ops"]):
        out = Sink()
        elapsed, code, err = run_op(op, out, cli, taniapn)
        text = "".join(out.parts).encode()
        del out  # this output and `text` must not live into the next operation's memory
        times.append(elapsed)
        codes.append(code)
        digests.append(hashlib.sha256(text).hexdigest())
        if first:
            (Path(plan["outdir"]) / f"op{i}.out").write_bytes(text)
        del text
        if err:
            res["stderr"].setdefault(str(i), err)
    res["times"].append(times)
    res["codes"].append(codes)
    res["digests"].append(digests)


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import taniapn
    from taniapn import cli

    for m in plan["warm"]:
        taniapn.default_ctx(m).mul_vec(1, 1)  # builds the context's log/antilog tables
    print("ready", flush=True)
    if len(sys.argv) < 3:
        return 0

    res = {"times": [], "codes": [], "digests": [], "traced": [], "stderr": {}}
    recorder = None
    if plan["trace"]:
        import spans

        recorder = spans.Recorder()
    t_end = time.perf_counter() + plan["seconds"]
    while True:
        # a traced run alternates untraced and traced rounds, so that both
        # see the same machine and their times give the tracing overhead
        traced = recorder is not None and len(res["times"]) % 2 == 1
        if traced:
            recorder.install()
        run_round(plan, cli, taniapn, res)
        if traced:
            recorder.uninstall()
        res["traced"].append(traced)
        done = len(res["times"])
        if (time.perf_counter() >= t_end and done >= MIN_ROUNDS
                and (recorder is None or done % 2 == 0)):
            break
    if recorder is not None:
        Path(plan["spans"]).write_text(json.dumps(recorder.dump()))
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(sys.argv[2]).write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of blowuplab: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each workload runs in a fresh child
process (bench/workloads.py) that imports blowuplab from ./src, with its BLAS
and OpenMP threads capped at the number of usable cores.

--trace 0 reports the end-to-end metrics: setup_s (median of the main child
and two set-up-only children), wall_s (median round time of the main child)
and peak_rss_mb (peak resident memory of the main child through set-up and
its first round).

--trace 1 runs one untraced round, then one round with every layer wrapped
(see tracing.py), and reports the per-layer metrics plus the traced wall
time and the tracing overhead (traced minus untraced wall time).  Suite
artifacts of the two rounds must be byte-identical.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suite-power", "minimal-fine", "karamata-curves")
SETUP_ONLY_CHILDREN = 2
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = cores
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run bench/workloads.py with ``args``; return its JSON report."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *args]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildError("out of time before starting " + " ".join(args))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"child timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """One workload's result object (correct, attempted, failed, metrics)."""
    base = ["--workload", workload, "--seed", str(seed)]
    if trace:
        # one round each: counters must not depend on how many rounds fit
        base += ["--seconds", "0"]
        plain = run_child(base + ["--trace", "0"], deadline)
        rep = run_child(base + ["--trace", "1"], deadline)
        if rep["artifacts_sha256"] != plain["artifacts_sha256"]:
            rep["failures"].append("the traced round's artifacts differ from the untraced round's")
            rep["failed"] = rep["attempted"]
        metrics = dict(rep["layers"])
        metrics["trace.wall_s"] = {"value": rep["wall_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {"value": rep["wall_s"] - plain["wall_s"], "unit": "s"}
    else:
        base += ["--seconds", str(seconds)]
        setups = [run_child(base + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_ONLY_CHILDREN)]
        rep = run_child(base + ["--trace", "0"], deadline)
        setups.append(rep["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": rep["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
        }
    for msg in rep["failures"]:
        print(f"{workload}: FAILED {msg}", file=sys.stderr)
    return {"correct": rep["failed"] == 0, "attempted": rep["attempted"],
            "failed": rep["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "blowuplab" / "__init__.py").is_file():
        print(f"no blowuplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            res = measure(name, args.seed, args.seconds, args.trace, deadline)
            results[name] = res
            shown = "  ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
            print(f"{name}: {shown}  attempted {res['attempted']} failed {res['failed']}")
    except ChildError as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": m for name, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

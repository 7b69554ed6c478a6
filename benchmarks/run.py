"""lagstrata benchmark entry point.

    python3 benchmarks/run.py --workload {fpscan-p5,exact-qq,dualk3-f101}
                              [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports lagstrata from ``src``.
Every measurement runs in a fresh worker process with BLAS pinned to one
thread.  ``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the
median over several fresh processes that only import and build the seeded
inputs, the rest come from one untraced run of ``--seconds`` (pass and
trial times as upper quartiles; the trial median and 90th percentile go to
the detail line).  ``--trace 1``
reports the per-layer metrics of a traced run of the workload's fixed
passes, and ``trace.overhead_frac`` against an untraced run of the same
passes.  The last line of stdout is the
result; the line before it holds the environment and run details.  Exit
status: 0 when every exact check passed, 1 when one failed, 2 when the
checkout holds no lagstrata sources.
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

import metrics

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker_env(root: Path) -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), str(HERE), env.get("PYTHONPATH")) if p)
    return env


def _worker_cmd(args, *extra):
    seed = [] if args.seed is None else ["--seed", str(args.seed)]
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            *seed, *extra]


def _run_worker(args, env, *extra) -> dict:
    proc = subprocess.run(_worker_cmd(args, "--seconds", str(args.seconds), *extra),
                          env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_seconds(args, env) -> float:
    """Wall time from starting an interpreter to the seeded inputs being built."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(_worker_cmd(args, "--setup-only"), env=env, check=True,
                       timeout=WORKER_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _percentile(values, q: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _src_loc(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def _git_commit(root: Path):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lagstrata benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the acceptance suite's)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lagstrata" / "__init__.py").is_file():
        print(f"no lagstrata sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    env = _worker_env(root)

    units = metrics.units()
    if args.trace:
        untraced = _run_worker(args, env, "--fixed-passes")
        traced = _run_worker(args, env, "--fixed-passes", "--trace")
        runs = [untraced, traced]
        values = dict(traced["layers"])
        values[metrics.OVERHEAD[0]] = sum(traced["passes_s"]) / sum(untraced["passes_s"]) - 1.0
    else:
        untraced = _run_worker(args, env)
        runs = [untraced]
        values = {
            "pass_s.p75": _percentile(untraced["passes_s"], 0.75),
            "setup_s": _setup_seconds(args, env),
            "trial_ms.p75": _percentile(untraced["trials_ms"], 0.75),
            "peak_rss_mb": untraced["peak_rss_mb"],
        }

    attempted = sum(r["checks"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    detail = {
        "workload": args.workload,
        "seeds": untraced["seeds"],
        "seconds": args.seconds,
        "passes_s": [r["passes_s"] for r in runs],
        "trials": [len(r["trials_ms"]) for r in runs],
        "trial_ms": {f"p{q}": _percentile(untraced["trials_ms"], q / 100) for q in (50, 90)},
        "failed_frac": len(failures) / attempted if attempted else 0.0,
        "failures": failures[:20],
        "counters": untraced["counters"],
        "env": {
            "nproc": os.cpu_count(),
            "python": untraced["python"],
            "numpy": untraced["numpy"],
            "openblas": untraced["openblas"],
            "threads": {"census": untraced["census_threads"], **THREAD_PINS},
            "git_commit": _git_commit(root),
            "src_loc": _src_loc(root),
        },
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

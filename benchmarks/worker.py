"""One benchmark process: set up a workload, run its passes, print one JSON line.

    python3 benchmarks/worker.py --workload NAME [--seed N] [--seconds S]
                                 [--fixed-passes] [--trace] [--setup-only] [--small]

``run.py`` starts it with ``src`` on PYTHONPATH and BLAS pinned to one
thread, so every run starts from a cold interpreter, as a CLI call does.
Passes repeat while one more is expected to end within ``--seconds`` (the
first always runs).  With ``--fixed-passes`` the workload's fixed number
of traced passes runs instead, so that counters repeat exactly between
runs with the same seed and a traced run can be compared with an untraced
one pass for pass.
``--trace`` installs the tracer before set-up; ``--small`` shrinks every
pass for the self-test.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time


def _blas_version():
    import numpy as np
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--fixed-passes", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)

    import lagstrata.cli  # noqa: F401  (set-up pays the CLI's imports too)
    import metrics
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    kind = workloads.WORKLOADS[args.workload]
    seed = kind.default_seed if args.seed is None else args.seed
    workload = kind(seed, small=args.small)
    if args.setup_only:
        return 0

    rec = workloads.Record()
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        workload.run_pass(rec, len(passes))
        passes.append(time.perf_counter() - t0)
        if args.fixed_passes:
            if len(passes) >= workload.trace_passes:
                break
        elif time.perf_counter() - start + statistics.median(passes) > args.seconds:
            break
    workload.finish(rec)

    import numpy as np
    out = {
        "seeds": {"run": seed, "default": kind.default_seed, "held_out": kind.held_out_seed},
        "passes_s": passes,
        "trials_ms": rec.trials_ms,
        "checks": rec.checks,
        "failures": rec.failures,
        "counters": dict(rec.counters),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": _blas_version(),
        "census_threads": workloads.FpScanP5.threads,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = metrics.layer_values(tracer, rec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

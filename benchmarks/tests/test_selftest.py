"""Self-test of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q benchmarks/tests

Reduced-size traced runs must repeat their deterministic counters exactly,
removing the trace wrappers must restore every patched lagstrata attribute,
and ``BENCHMARK.json`` must list the metrics the harness reports.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lagstrata import batched  # noqa: E402

DETERMINISTIC_SUFFIXES = (".calls", ".mats", ".attempts", ".subspaces", ".redraw_ratio",
                          ".accept_ratio")


@functools.lru_cache(maxsize=None)
def small_traced_run(name: str, attempt: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--small",
           "--fixed-passes", "--trace"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=600,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def deterministic(layers: dict) -> dict:
    return {k: v for k, v in layers.items()
            if k.endswith(DETERMINISTIC_SUFFIXES) or ".retries." in k}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_runs_repeat_their_counters(name):
    first, second = small_traced_run(name, 0), small_traced_run(name, 1)
    assert first["failures"] == [] and first["checks"] > 0
    assert first["counters"] == second["counters"]
    assert deterministic(first["layers"]) == deterministic(second["layers"])
    assert any(deterministic(first["layers"]).values())


def test_census_scans_every_subspace_once():
    layers = small_traced_run("fpscan-p5", 0)["layers"]
    # censuses at p=2 and p=3, and the gamma scan of the reduced run's p=3 draw
    expected = sum(batched.grassmann_size(6, 3, p) for p in (2, 3, 3))
    assert layers["strata.census.subspaces"] == expected


def _package_bindings() -> dict:
    import lagstrata.cli  # noqa: F401  (loads every module of the package)
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "lagstrata" and not mod_name.startswith("lagstrata."):
            continue
        for key, value in vars(mod).items():
            out[(mod_name, key)] = value
            if inspect.isclass(value) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    out[(mod_name, key, attr)] = member
    return out


def test_uninstall_restores_every_patched_attribute():
    from lagstrata import chart, lagrangian, unipoly
    before = _package_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert chart.is_decomposable is not before[("lagstrata.chart", "is_decomposable")]
        assert chart.is_decomposable is lagrangian.is_decomposable
        assert unipoly.PolyRing.mul is not before[("lagstrata.unipoly", "PolyRing", "mul")]
    finally:
        tracer.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m[:3] for m in metrics.PER_LAYER] + [metrics.OVERHEAD]

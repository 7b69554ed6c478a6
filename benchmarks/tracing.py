"""Per-layer spans around lagstrata's public functions, installed from outside.

``Tracer.install`` wraps the functions named in ``TARGETS``.  Every
attribute of a loaded ``lagstrata`` module that is bound to a wrapped
function is patched, including names re-bound by ``from .x import name``
(``chart.is_decomposable``, ``dualk3.stratum``), so calls made inside the
package are seen as well.  ``Tracer.uninstall`` puts every original object
back.  Nothing under ``src/`` is edited.

A span's busy time is the wall time of a call; a call that re-enters a span
already open on its thread runs untraced, so nested layers are not counted
twice.  Self time subtracts the spans a call directly encloses on the same
thread.  Spans opened in ``parallel_map``'s worker threads add up as
thread-seconds.  ``fields`` gets no span: its per-operation cost is below
a wrapper's.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    calls: int = 0
    busy: float = 0.0
    self_: float = 0.0
    items: int = 0      # work units: matrices, subspaces, points
    cpu: float = 0.0    # process CPU seconds (parallel_map only)
    slots: float = 0.0  # wall seconds x worker threads (parallel_map only)


def _shape(mats, *args, **kwargs):
    return f"{mats.shape[1]}x{mats.shape[2]}"


def _field_kind(rows, field, *args, **kwargs):
    return "qq" if field.characteristic == 0 else "fp"


def _batch_size(mats, *args, **kwargs):
    return mats.shape[0]


def _trials(result, *args, **kwargs):
    return result.trials


def _threads(worker, items, threads=2):
    return 1 if threads <= 1 or len(items) <= 1 else min(threads, len(items))


SCHUBERT_ENTRY_POINTS = ("stratum_degrees", "g36_degree", "pr_class", "class_in_h_s2_s3",
                         "connectedness_check", "exceptional_coefficient",
                         "hilb3_invariants", "dimension_ledger")

# (module, attribute, span name, options)
TARGETS = [
    ("strata", "census", "strata.census", {"result_items": lambda r: r.total}),
    ("strata", "gamma_witnesses", "strata.gamma_witnesses", {"result_items": _trials}),
    ("strata", "sigma_probe", "strata.sigma_probe", {"result_items": _trials}),
    ("strata", "delta_witnesses", "strata.delta_witnesses", {}),
    ("strata", "sample_lg1", "strata.sample_lg1", {}),
    ("strata", "stratum", "strata.stratum", {}),
    ("batched", "batch_rank", "batched.batch_rank",
     {"variant": _shape, "arg_items": _batch_size}),
    ("batched", "bivectors_of_rows", "batched.bivectors_of_rows", {}),
    ("batched", "matmul_mod_f32", "batched.matmul_mod_f32", {}),
    ("batched", "build_grassmann_block", "batched.build_grassmann_block", {}),
    ("batched", "parallel_map", "batched.parallel_map", {"threads": _threads}),
    ("linalg", "rref", "linalg.rref", {"variant": _field_kind}),
    ("exterior", "wedge", "exterior.wedge", {}),
    ("lagrangian", "is_decomposable", "lagrangian.is_decomposable", {}),
    ("lagrangian", "tangent_space", "lagrangian.tangent_space", {}),
    ("lagrangian", "lagrangian_from_graph", "lagrangian.lagrangian_from_graph", {}),
    ("chart", "decomposable_point_in", "chart.decomposable_point_in", {}),
    ("chart", "plant_corank", "chart.plant_corank", {}),
    ("chart", "smith_valuations", "chart.smith_valuations", {}),
    ("chart", "chart_quadric", "chart.chart_quadric", {}),
    ("chart", "graph_matrix_of_tangent", "chart.graph_matrix_of_tangent", {}),
    ("chart", "kernel_restriction_rank", "chart.kernel_restriction_rank", {}),
    ("unipoly", "PolyRing.mul", "unipoly.PolyRing.mul", {}),
    *[("schubert", fn, "schubert", {}) for fn in SCHUBERT_ENTRY_POINTS],
    ("dualk3", "build_special_a", "dualk3.build_special_a", {}),
    ("dualk3", "sample_s_a_point", "dualk3.sample_s_a_point", {}),
    ("dualk3", "phi", "dualk3.phi", {}),
    ("dualk3", "psi", "dualk3.psi", {}),
    ("dualk3", "newsystem_dimension", "dualk3.newsystem_dimension", {}),
    ("dualk3", "residual_triple", "dualk3.residual_triple", {}),
]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lagstrata" or name.startswith("lagstrata."))]


class Tracer:
    """Spans keyed by name (and variant), plus parent -> child call counts."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.edges: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def span(self, key: str) -> Span:
        return self.spans.get(key) or Span()

    def _frames(self):
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _wrap(self, fn, name, variant=None, arg_items=None, result_items=None,
              threads=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frames = tracer._frames()
            if any(f[0] == name for f in frames):
                return fn(*args, **kwargs)
            key = name if variant is None else f"{name}.{variant(*args, **kwargs)}"
            parent = frames[-1][0] if frames else None
            frame = [name, 0.0]
            frames.append(frame)
            cpu0 = time.process_time() if threads else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                frames.pop()
                if frames:
                    frames[-1][1] += dt
                with tracer._lock:
                    s = tracer.spans.setdefault(key, Span())
                    s.calls += 1
                    s.busy += dt
                    s.self_ += dt - frame[1]
                    tracer.edges[(parent, name)] += 1
                    if threads:
                        s.cpu += time.process_time() - cpu0
                        s.slots += dt * threads(*args, **kwargs)
            if arg_items or result_items:
                n = arg_items(*args, **kwargs) if arg_items else result_items(result)
                with tracer._lock:
                    tracer.spans[key].items += n
            return result

        return traced

    def install(self):
        owners = {mod: importlib.import_module(f"lagstrata.{mod}") for mod, *_ in TARGETS}
        modules = _package_modules()
        for mod_name, attr, name, opts in TARGETS:
            owner = owners[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, leaf)
            wrapper = self._wrap(orig, name, **opts)
            self._set(owner, leaf, wrapper, orig)
            if path:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper, orig)

    def _set(self, owner, key, wrapper, orig):
        self._patched.append((owner, key, orig))
        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._patched:
            owner, key, orig = self._patched.pop()
            setattr(owner, key, orig)

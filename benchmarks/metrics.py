"""Every metric the benchmark reports: name, unit, which way is better, and
how a run computes it.  ``BENCHMARK.json`` lists the same names; the
self-test checks that the two agree.
"""

from __future__ import annotations

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
# Timings get the widest bound allowed, and are upper quartiles rather than
# medians: on the shared 2-core machine the benchmark was defined on, the
# same work runs up to 1.4x faster for stretches of 10-30 s.  A run's median
# jumps with the share of its time spent in such a stretch, its upper
# quartile moves only when the stretch covers most of the run.
END_TO_END = [
    ("pass_s.p75", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("trial_ms.p75", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# DegenerateConfiguration messages the sampling loops can meet, in the
# form ``workloads.retry_reason`` gives them; any other lands in "other".
RETRY_REASONS = (
    "pair_endpoints_coincide",
    "pair_endpoints_are_opposite",
    "the_connecting_line_lies_on_the_grassmannian",
    "pair_functional_vanishes_identically",
    "pair_images_are_linearly_dependent",
    "quadrics_through_the_triple_plane_have_dimension",
    "pairwise_witness_intersections_are_not_lines",
    "no_adapted_third_vector",
    "could_not_adapt_a_basis_to_the_triple",
    "the_three_chords_do_not_span_a_n_space",
    "distinguished_space_fails_the_n_plane_meetings",
    "triple_points_missing_from_the_curve_scan",
    "curve_spans_dimension_n_not_n",
    "no_independent_projection_forms_on_the_curve_span",
    "not_enough_distinct_parameters_on_the_curve",
    "curve_fit_kernel_has_dimension_n",
    "degenerate_fit_scalar",
    "triple_point_not_uniquely_parametrized",
    "residual_none",
)

RANK_SHAPES = ("18x10", "15x6", "15x10", "3x5")
CENSUS_SPANS = ("strata.census", "strata.gamma_witnesses")
SPAN_STATS = {"calls": ("count", "calls"), "busy_s": ("s", "busy"), "self_s": ("s", "self_")}


def _ratio(a, b):
    return a / b if b else 0.0


def _layer_table():
    """(name, unit, better, fn(tracer, record)) for every per-layer metric."""
    table = []

    def add(name, unit, better, fn):
        table.append((name, unit, better, fn))

    def spans(name, *stats):
        for stat in stats:
            unit, attr = SPAN_STATS[stat]
            add(f"{name}.{stat}", unit, "lower",
                lambda t, r, n=name, a=attr: getattr(t.span(n), a))

    def census_items(t):
        return sum(t.span(n).items for n in CENSUS_SPANS)

    add("strata.census.subspaces", "count", "lower", lambda t, r: census_items(t))
    add("strata.census.subspaces_per_s", "1/s", "higher",
        lambda t, r: _ratio(census_items(t), sum(t.span(n).busy for n in CENSUS_SPANS)))
    add("strata.sigma_probe.points_per_s", "1/s", "higher",
        lambda t, r: _ratio(t.span("strata.sigma_probe").items,
                            t.span("strata.sigma_probe").busy))
    add("strata.sample_lg1.attempts", "count", "lower", lambda t, r: r.counters["lg1.attempts"])
    add("strata.sample_lg1.accept_ratio", "ratio", "higher",
        lambda t, r: _ratio(r.counters["lg1.samples"], r.counters["lg1.attempts"]))
    spans("strata.delta_witnesses", "busy_s")
    spans("strata.stratum", "calls", "busy_s")

    for shape in RANK_SHAPES:
        key = f"batched.batch_rank.{shape}"
        spans(key, "calls")
        add(f"{key}.mats", "count", "lower", lambda t, r, k=key: t.span(k).items)
        spans(key, "busy_s")
        add(f"{key}.mats_per_s", "1/s", "higher",
            lambda t, r, k=key: _ratio(t.span(k).items, t.span(k).busy))
    for name in ("bivectors_of_rows", "matmul_mod_f32", "build_grassmann_block"):
        spans(f"batched.{name}", "busy_s")
    add("batched.parallel_map.cpu_efficiency", "ratio", "higher",
        lambda t, r: _ratio(t.span("batched.parallel_map").cpu,
                            t.span("batched.parallel_map").slots))

    spans("linalg.rref.qq", "calls", "busy_s", "self_s")
    spans("linalg.rref.fp", "calls", "busy_s", "self_s")
    spans("exterior.wedge", "calls", "busy_s", "self_s")
    for name in ("is_decomposable", "tangent_space", "lagrangian_from_graph"):
        spans(f"lagrangian.{name}", "calls", "busy_s")

    spans("chart.decomposable_point_in", "calls", "busy_s", "self_s")
    # every planting here asks for a decomposable-free kernel, so each one
    # probes once per draw: redraws = probes made from plant_corank - plantings
    add("chart.plant_corank.redraw_ratio", "ratio", "lower",
        lambda t, r: _ratio(t.edges[("chart.plant_corank", "chart.decomposable_point_in")]
                            - t.span("chart.plant_corank").calls,
                            t.span("chart.plant_corank").calls))
    spans("chart.smith_valuations", "calls", "busy_s")
    for name in ("chart_quadric", "graph_matrix_of_tangent", "kernel_restriction_rank"):
        spans(f"chart.{name}", "busy_s")

    spans("unipoly.PolyRing.mul", "calls", "busy_s")
    spans("schubert", "busy_s")

    spans("dualk3.build_special_a", "busy_s")
    for name in ("sample_s_a_point", "phi", "psi", "newsystem_dimension", "residual_triple"):
        spans(f"dualk3.{name}", "calls", "busy_s")
    add("dualk3.residual_triple.accept_ratio", "ratio", "higher",
        lambda t, r: _ratio(r.counters["residual.successes"], r.counters["residual.attempts"]))
    for reason in RETRY_REASONS:
        add(f"dualk3.retries.{reason}", "count", "lower",
            lambda t, r, k=f"retries.{reason}": r.counters[k])
    add("dualk3.retries.other", "count", "lower",
        lambda t, r: sum(v for k, v in r.counters.items()
                         if k.startswith("retries.") and k[8:] not in RETRY_REASONS))

    for n in range(1, 11):
        add(f"phase.criterion_{n}.busy_s", "s", "lower", lambda t, r, n=n: r.phase_s[n])
    return table


PER_LAYER = _layer_table()
# filled in by run.py from a traced and an untraced run of the same seed
OVERHEAD = ("trace.overhead_frac", "ratio", "lower")


def layer_values(tracer, record) -> dict:
    return {name: fn(tracer, record) for name, _, _, fn in PER_LAYER}


def units() -> dict:
    table = [m[:3] for m in END_TO_END] + [m[:3] for m in PER_LAYER] + [OVERHEAD]
    return {name: unit for name, unit, _ in table}

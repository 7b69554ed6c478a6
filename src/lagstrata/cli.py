"""Command-line driver: every experiment behind one JSON-reporting entry point.

Reports are a single JSON document on stdout (or --out); human-readable
summaries go to stderr.  Exit codes: 0 all assertions passed, 1 an
assertion failed, 2 usage error, 3 a budget was exhausted (a partial
report is still emitted).  All randomness flows through seeded
``random.Random`` (Mersenne Twister), recorded in the report.
"""

from __future__ import annotations

import json
import random
import sys
import time

import click

from . import __version__
from . import schubert, dualk3
from .batched import MAX_PRIME as BATCHED_MAX_PRIME
from .acceptance import run_all
from .fields import GF, MAX_PRIME as FIELD_MAX_PRIME
from .lagrangian import random_graph_lagrangian
from .linalg import mat_eq
from .chart import (chart_quadric, graph_matrix_of_tangent, plant_corank,
                    vanishing_order, kernel_restriction_rank)
from .strata import (census, sigma_probe, delta_witnesses,
                     sample_lg1, BudgetExceededError,
                     SIGMA_EXHAUSTIVE_MAX_PRIME, DELTA_MAX_PRIME)

GENERATOR = "mt19937 (python random.Random)"


class Report:
    def __init__(self, subcommand, config):
        self.subcommand = subcommand
        self.config = config
        self.results = {}
        self.assertions = []
        self.t0 = time.perf_counter()

    def expect(self, name, expected, actual, source):
        ok = expected == actual
        self.assertions.append({"name": name, "expected": expected, "actual": actual,
                                "source": source, "passed": ok})
        return ok

    def expect_true(self, name, flag, source, detail=None):
        entry = {"name": name, "expected": True, "actual": bool(flag),
                 "source": source, "passed": bool(flag)}
        if detail is not None:
            entry["detail"] = detail
        self.assertions.append(entry)
        return bool(flag)

    @property
    def passed(self):
        """False for an error report (exit 2 or 3), whatever its assertions."""
        return "error" not in self.results and all(a["passed"] for a in self.assertions)

    def to_json(self):
        return {
            "subcommand": self.subcommand,
            "config": self.config,
            "generator": GENERATOR,
            "version": __version__,
            "results": self.results,
            "assertions": self.assertions,
            "passed": self.passed,
            "elapsed_ms": round((time.perf_counter() - self.t0) * 1000.0, 1),
        }


def _emit(report: Report, out, json_only: bool, exit_code=None):
    doc = json.dumps(report.to_json(), indent=2, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(doc + "\n")
    else:
        click.echo(doc)
    if not json_only:
        status = {2: "USAGE-ERROR", 3: "BUDGET-EXHAUSTED"}.get(
            exit_code, "PASS" if report.passed else "FAIL")
        click.echo(f"[{status}] {report.subcommand}: "
                   f"{sum(a['passed'] for a in report.assertions)}/"
                   f"{len(report.assertions)} assertions passed", err=True)
    if exit_code is None:
        exit_code = 0 if report.passed else 1
    sys.exit(exit_code)


def _require_prime(rep: Report, prime: int, out, json_only: bool, lo: int = 2,
                   hi: int = FIELD_MAX_PRIME):
    """Exit 2 with the report unless --prime is a prime field in [lo, hi]."""
    try:
        GF(prime)
        if not lo <= prime <= hi:
            raise ValueError(f"this experiment needs {lo} <= --prime <= {hi}")
    except ValueError as exc:
        rep.results["error"] = str(exc)
        _emit(rep, out, json_only, exit_code=2)


def _common(fn):
    fn = click.option("--out", type=click.Path(), default=None,
                      help="write the JSON report to this path")(fn)
    fn = click.option("--json-only", is_flag=True, help="suppress stderr summary")(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Exact experiments on Lagrangian degeneracy strata over G(3,6)."""


@main.command()
@_common
def degrees(out, json_only):
    """Degrees of the strata and of G(3,6) under the Pluecker embedding."""
    rep = Report("degrees", {})
    degs = schubert.stratum_degrees()
    rep.results = {"D1": degs[1], "D2": degs[2], "D3": degs[3],
                   "degG36": schubert.g36_degree()}
    rep.expect("D1", 168, degs[1], "paper")
    rep.expect("D2", 480, degs[2], "paper")
    rep.expect("D3", 720, degs[3], "paper")
    rep.expect("degG36", 42, schubert.g36_degree(), "paper")
    _emit(rep, out, json_only)


@main.command()
@_common
def connectedness(out, json_only):
    """Derive and solve the degree-6 coefficient system over the integers."""
    rep = Report("connectedness", {})
    eqs, sols, info = schubert.connectedness_check()
    rep.results = {"solutions": [list(s) for s in sols],
                   "equations": [{str(k): v for k, v in eq.items()} for eq in eqs],
                   "bounding_combination": info["combo"],
                   "combo_denominator": info["combo_denominator"]}
    rep.expect("solutions", [[0, 0, 0], [16, 12, 12]], [list(s) for s in sols], "paper")
    _emit(rep, out, json_only)


@main.command()
@_common
def exceptional(out, json_only):
    """The coefficient of the exceptional class in LG(10,20)."""
    rep = Report("exceptional", {})
    res = schubert.exceptional_coefficient(10)
    rep.results = {"b": res["b"], "X": str(res["X"]), "Y": str(res["Y"]),
                   "Z": str(res["Z"]), "deg_sigma_n2_n": str(res["deg_sigma_n2_n"])}
    rep.expect("b", -2, res["b"], "paper")
    rep.expect_true("deg_sigma_n2_n > 0", res["deg_sigma_n2_n"] > 0, "paper")
    _emit(rep, out, json_only)


@main.command()
@_common
def ledger(out, json_only):
    """Dimension bookkeeping for the divisor comparisons."""
    rep = Report("ledger", {})
    led = schubert.dimension_ledger()
    rep.results = led
    rep.expect("dim_f1(0)", 47, led["rows"][0]["dim_f1"], "paper")
    rep.expect("xi_dim", 54, led["xi"]["dim"], "paper")
    rep.expect_true("all_bounded_by_53",
                    all(r["bounded_by_53"] for r in led["rows"]), "paper")
    rep.expect_true("xi_below_ambient", led["xi"]["is_divisor_bound"], "paper")
    _emit(rep, out, json_only)


@main.command()
@click.option("--genus", default=6, show_default=True)
@click.option("--a", "acoef", default=2, show_default=True)
@click.option("--b", "bcoef", default=3, show_default=True)
@_common
def invariants(genus, acoef, bcoef, out, json_only):
    """Beauville-Bogomolov square and Fujiki degree on the length-3 Hilbert scheme."""
    rep = Report("invariants", {"genus": genus, "a": acoef, "b": bcoef})
    res = schubert.hilb3_invariants(genus, acoef, bcoef)
    rep.results = res
    if (genus, acoef, bcoef) == (6, 2, 3):
        rep.expect("q", 4, res["q"], "paper")
        rep.expect("fujiki_degree", 960, res["fujiki_degree"], "paper")
    _emit(rep, out, json_only)


@main.command("census")
@click.option("--prime", default=3, show_default=True)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--threads", default=2, show_default=True)
@click.option("--lg1", is_flag=True,
              help="rejection-sample a witness-free subspace before counting")
@_common
def census_cmd(prime, seed, threads, lg1, out, json_only):
    """Exact stratum histogram of a seeded random Lagrangian over F_p."""
    rep = Report("census", {"prime": prime, "seed": seed, "threads": threads,
                            "lg1": lg1})
    _require_prime(rep, prime, out, json_only)
    try:
        certificates = {}
        if lg1:
            smp = sample_lg1(prime, seed=seed, want_census=True, threads=threads)
            A, report = smp.A, smp.census_report
            certificates["sigma"] = smp.sigma.to_json()
            certificates["gamma"] = smp.gamma.to_json()
            rep.results["attempts"] = smp.attempts
        else:
            rng = random.Random(seed)
            A = random_graph_lagrangian(GF(prime), rng)
            report = census(A, threads=threads)
            if prime <= SIGMA_EXHAUSTIVE_MAX_PRIME:
                certificates["sigma"] = sigma_probe(A, threads=threads).to_json()
            certificates["gamma"] = {
                "kind": "gamma", "exhaustive": True,
                "verdict": "found-witness" if report.count_at_least(4) else "none-found",
                "trials": report.total,
            }
        if prime <= DELTA_MAX_PRIME:
            certificates["delta"] = delta_witnesses(A).to_json()
        rep.results.update(report.to_json())
        rep.results["certificates"] = certificates
        rep.expect("counts_sum", report.total, sum(report.counts.values()), "derived")
        if lg1:
            rep.expect("count_ge_4", 0, report.count_at_least(4), "paper")
    except BudgetExceededError as exc:
        rep.results["error"] = str(exc)
        _emit(rep, out, json_only, exit_code=3)
    _emit(rep, out, json_only)


@main.command("chart-verify")
@click.option("--seed", default=20240601, show_default=True, type=int)
@click.option("--trials", default=100, show_default=True)
@_common
def chart_verify(seed, trials, out, json_only):
    """Chart-quadric identity, tangent-cone orders, restriction ranks."""
    from .fields import QQ
    rep = Report("chart-verify", {"seed": seed, "trials": trials})
    rng = random.Random(seed)
    failures = 0
    for field in (QQ, GF(101)):
        for _ in range(trials):
            B = [[field.random(rng) for _ in range(3)] for _ in range(3)]
            if not mat_eq(chart_quadric(B, field), graph_matrix_of_tangent(field, B), field):
                failures += 1
    orders = []
    for k in (2, 3):
        A, _ = plant_corank(QQ, k, rng, decomposable_free=True)
        for level in range(1, k + 1):
            direction = [[QQ.random(rng) for _ in range(3)] for _ in range(3)]
            orders.append({"k": k, "l": level,
                           "order": vanishing_order(A, level, direction)})
    ranks = []
    for _ in range(10):
        A, _ = plant_corank(QQ, 3, rng, decomposable_free=True)
        ranks.append(kernel_restriction_rank(A, rng=rng, samples=40))
    rep.results = {"identity_trials": 2 * trials, "identity_failures": failures,
                   "orders": orders, "restriction_ranks": ranks}
    rep.expect("identity_failures", 0, failures, "derived")
    rep.expect("orders", [{"k": k, "l": l, "order": k - l + 1}
                          for k in (2, 3) for l in range(1, k + 1)], orders, "paper")
    rep.expect("restriction_ranks", [6] * 10, ranks, "paper")
    _emit(rep, out, json_only)


@main.command("dual-k3")
@click.option("--prime", default=101, show_default=True)
@click.option("--seed", default=7, show_default=True, type=int)
@click.option("--experiment", type=click.Choice(["phi", "psi", "newsystem", "residual"]),
              default="phi", show_default=True)
@click.option("--trials", default=20, show_default=True)
@_common
def dual_k3(prime, seed, experiment, trials, out, json_only):
    """Sampled verification of the special-Lagrangian surface maps."""
    rep = Report("dual-k3", {"prime": prime, "seed": seed,
                             "experiment": experiment, "trials": trials})
    # the construction needs p >= 5; residual triples run batched ranks
    _require_prime(rep, prime, out, json_only, lo=5,
                   hi=BATCHED_MAX_PRIME if experiment == "residual" else FIELD_MAX_PRIME)
    try:
        data = dualk3.build_special_a(p=prime, seed=seed)
    except (dualk3.RetryBudgetError, dualk3.DegenerateConfiguration) as exc:
        rep.results["error"] = str(exc)
        _emit(rep, out, json_only, exit_code=3)
    rng = random.Random(seed + 1)
    records = []
    retries = 0
    successes = 0
    try:
        while successes < trials:
            if experiment == "phi":
                a = dualk3.sample_s_a_point(data, rng)
                b = dualk3.sample_s_a_point(data, rng)
                try:
                    ph = dualk3.phi(data, a, b)
                except dualk3.DegenerateConfiguration as exc:
                    retries += 1
                    continue
                d = dualk3.phi_sextic_dim(data, ph)
                records.append({"trial": successes, "phi": [data.field.to_str(x) for x in ph],
                                "sextic_dim": d, "passed": d == 1})
                successes += 1
            elif experiment == "psi":
                trio = [dualk3.sample_s_a_point(data, rng) for _ in range(3)]
                try:
                    ps = dualk3.psi(data, *trio)
                except dualk3.DegenerateConfiguration:
                    retries += 1
                    continue
                s = dualk3.psi_stratum(data, ps)
                records.append({"trial": successes, "psi": ps.to_json(),
                                "stratum": s, "passed": s == 2})
                successes += 1
            elif experiment == "newsystem":
                trio = [dualk3.sample_s_a_point(data, rng) for _ in range(3)]
                try:
                    res = dualk3.newsystem_dimension(data, *trio, rng)
                except dualk3.DegenerateConfiguration:
                    retries += 1
                    continue
                ok = (res["rank"] == 4 and res["solution_dim"] == 2
                      and res["x_zero_solutions"] == 0 and res["stratum"] == 2)
                records.append({"trial": successes, "rank": res["rank"],
                                "solution_dim": res["solution_dim"],
                                "stratum": res["stratum"],
                                "x_zero_solutions": res["x_zero_solutions"],
                                "passed": ok})
                successes += 1
            else:
                trio = [dualk3.sample_s_a_point(data, rng) for _ in range(3)]
                try:
                    outp = dualk3.residual_triple(data, *trio, rng)
                except dualk3.DegenerateConfiguration:
                    retries += 1
                    continue
                if outp is None:
                    retries += 1
                    continue
                gammas, info = outp
                same = dualk3.psi(data, *trio) == dualk3.psi(data, *gammas)
                pts = ({tuple(p.beta) for p in trio}
                       | {tuple(g.beta) for g in gammas})
                ok = same and len(pts) == 6 and all(
                    dualk3.verify_surface_point(data, g) for g in gammas)
                records.append({"trial": successes, "psi_equal": same,
                                "distinct_points": len(pts),
                                "curve_points": info["curve_points"],
                                "passed": ok})
                successes += 1
            if retries > 60 * trials:
                raise dualk3.RetryBudgetError("too many degenerate configurations")
    except dualk3.RetryBudgetError as exc:
        rep.results = {"error": str(exc), "records": records, "retries": retries}
        _emit(rep, out, json_only, exit_code=3)
    rep.results = {"records": records, "retries": retries}
    rep.expect(f"{experiment}: all trials passed", [True] * trials,
               [r["passed"] for r in records], "paper")
    _emit(rep, out, json_only)


@main.command("accept-all")
@click.option("--skip", multiple=True, type=int,
              help="criterion numbers to skip (repeatable)")
@_common
def accept_all(skip, out, json_only):
    """Run the whole acceptance suite and aggregate the verdicts."""
    rep = Report("accept-all", {"skip": list(skip)})
    results = run_all(skip=set(skip))
    rep.results = {"criteria": [r.to_json() for r in results]}
    for r in results:
        rep.expect_true(f"criterion {r.cid}: {r.name}", r.passed, "suite",
                        detail={"elapsed_ms": round(r.elapsed_ms, 1)})
        if not json_only:
            click.echo(f"[{'PASS' if r.passed else 'FAIL'}] criterion {r.cid}: "
                       f"{r.name} ({r.elapsed_ms/1000:.1f} s)", err=True)
    _emit(rep, out, json_only)


if __name__ == "__main__":
    main()

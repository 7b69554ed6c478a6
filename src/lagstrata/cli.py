"""Command-line driver: every experiment behind one JSON-reporting entry point.

Each report is one ``acceptance.CriterionResult``; a subcommand that wraps a
criterion (a criterion-9 stage, or the census experiment) reports its checks
as its assertions, so every paper integer is stated once, in ``acceptance.py``.
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
from .acceptance import (CriterionResult, run_all, DUALK3_STAGES, SEED_CHART_IDENTITY,
                         SEED_DUALK3, census_experiment, criterion_1_degrees,
                         criterion_3_connectedness, criterion_4_exceptional,
                         criterion_5_chart_identity, criterion_6_tangent_cone,
                         criterion_7_restriction_rank, criterion_10_hilb_ledger)
from .fields import GF, MAX_PRIME as FIELD_MAX_PRIME

GENERATOR = "mt19937 (python random.Random)"


def _emit(rec: CriterionResult, exit_code=None):
    """Write the running subcommand's report (config: its options) and exit."""
    ctx = click.get_current_context()
    doc = json.dumps({
        "subcommand": ctx.info_name,
        "config": {p.name: ctx.params[p.name] for p in ctx.command.params
                   if p.expose_value},
        "generator": GENERATOR,
        "version": __version__,
        "results": rec.results,
        "assertions": rec.checks,
        "passed": rec.passed,
        "elapsed_ms": round((time.perf_counter() - ctx.obj) * 1000.0, 1),
    }, indent=2, default=str)
    if ctx.meta["out"]:
        with open(ctx.meta["out"], "w") as fh:
            fh.write(doc + "\n")
    else:
        click.echo(doc)
    if not ctx.meta["json_only"]:
        status = {2: "USAGE-ERROR", 3: "BUDGET-EXHAUSTED"}.get(
            exit_code, "PASS" if rec.passed else "FAIL")
        click.echo(f"[{status}] {ctx.info_name}: "
                   f"{sum(c['passed'] for c in rec.checks)}/"
                   f"{len(rec.checks)} assertions passed", err=True)
    if exit_code is None:
        exit_code = 0 if rec.passed else 1
    sys.exit(exit_code)


def _error(message: str, exit_code: int):
    _emit(CriterionResult(0, "error", results={"error": message}), exit_code)


def _require_prime(prime: int, lo: int = 2, hi: int = FIELD_MAX_PRIME):
    """Exit 2 with the report unless --prime is a prime field in [lo, hi]."""
    try:
        GF(prime)
        if not lo <= prime <= hi:
            raise ValueError(f"this experiment needs {lo} <= --prime <= {hi}")
    except ValueError as exc:
        _error(str(exc), 2)


def _require_positive(option: str, value: int):
    """Exit 2 with the report unless the option (--trials, --threads) is at least 1."""
    if value < 1:
        _error(f"{option} must be at least 1, not {value}", 2)


def _keep(ctx, param, value):
    ctx.meta[param.name] = value


def _common(fn):
    fn = click.option("--out", type=click.Path(), default=None, expose_value=False,
                      callback=_keep, help="write the JSON report to this path")(fn)
    fn = click.option("--json-only", is_flag=True, expose_value=False, callback=_keep,
                      help="suppress stderr summary")(fn)
    return fn


@click.group()
@click.version_option(__version__)
@click.pass_context
def main(ctx):
    """Exact experiments on Lagrangian degeneracy strata over G(3,6)."""
    ctx.obj = time.perf_counter()


for _name, _criterion, _help in (
        ("degrees", criterion_1_degrees,
         "Degrees of the strata and of G(3,6) under the Pluecker embedding (criterion 1)."),
        ("connectedness", criterion_3_connectedness,
         "Derive and solve the degree-6 coefficient system over the integers (criterion 3)."),
        ("exceptional", criterion_4_exceptional,
         "The coefficient of the exceptional class in LG(10,20) (criterion 4)."),
        ("ledger", criterion_10_hilb_ledger,
         "Dimension bookkeeping for the divisor comparisons (criterion 10).")):
    main.command(_name, help=_help)(_common(lambda c=_criterion: _emit(c())))


@main.command()
@click.option("--genus", default=6, show_default=True)
@click.option("--a", default=2, show_default=True)
@click.option("--b", default=3, show_default=True)
@_common
def invariants(genus, a, b):
    """Beauville-Bogomolov square and Fujiki degree on the length-3 Hilbert scheme
    (criterion 10)."""
    rec = criterion_10_hilb_ledger()
    rec.results = schubert.hilb3_invariants(genus, a, b)
    _emit(rec)


@main.command("census")
@click.option("--prime", default=3, show_default=True)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--threads", default=2, show_default=True)
@click.option("--lg1", is_flag=True,
              help="rejection-sample a witness-free subspace before counting")
@_common
def census_cmd(prime, seed, threads, lg1):
    """Exact stratum histogram of a seeded random Lagrangian over F_p."""
    _require_prime(prime)
    _require_positive("--threads", threads)
    rec = census_experiment(prime, seed, threads, lg1)
    _emit(rec, exit_code=3 if "error" in rec.results else None)


@main.command("chart-verify")
@click.option("--seed", default=SEED_CHART_IDENTITY, show_default=True, type=int)
@click.option("--trials", default=100, show_default=True)
@_common
def chart_verify(seed, trials):
    """Chart-quadric identity, tangent-cone orders, restriction ranks (criteria 5-7)."""
    _require_positive("--trials", trials)
    rec = CriterionResult(0, "chart-verify")
    for part in (criterion_5_chart_identity(seed, trials), criterion_6_tangent_cone(seed),
                 criterion_7_restriction_rank(seed)):
        rec.checks += part.checks
        rec.results.update(part.results)
    _emit(rec)


@main.command("dual-k3")
@click.option("--prime", default=101, show_default=True)
@click.option("--seed", default=SEED_DUALK3, show_default=True, type=int)
@click.option("--experiment", type=click.Choice(list(DUALK3_STAGES)),
              default="phi", show_default=True)
@click.option("--trials", default=20, show_default=True)
@_common
def dual_k3(prime, seed, experiment, trials):
    """Sampled verification of the special-Lagrangian surface maps (criterion 9)."""
    _require_positive("--trials", trials)
    # the construction needs p >= 5; residual triples run batched ranks
    _require_prime(prime, lo=5,
                   hi=BATCHED_MAX_PRIME if experiment == "residual" else FIELD_MAX_PRIME)
    try:
        data = dualk3.build_special_a(p=prime, seed=seed)
        rec = DUALK3_STAGES[experiment](data, random.Random(seed + 1), trials)
    except (dualk3.RetryBudgetError, dualk3.DegenerateConfiguration) as exc:
        _error(str(exc), 3)
    _emit(rec, exit_code=3 if "error" in rec.results else None)


@main.command("accept-all")
@click.option("--skip", multiple=True, type=int,
              help="criterion numbers to skip (repeatable)")
@_common
def accept_all(skip):
    """Run the whole acceptance suite and aggregate the verdicts."""
    rec = CriterionResult(0, "accept-all")
    results = run_all(skip=set(skip))
    rec.results = {"criteria": [r.to_json() for r in results]}
    for r in results:
        rec.check_true(f"criterion {r.cid}: {r.name}", r.passed, "suite",
                       detail={"elapsed_ms": round(r.elapsed_ms, 1)})
        if not click.get_current_context().meta["json_only"]:
            click.echo(f"[{'PASS' if r.passed else 'FAIL'}] criterion {r.cid}: "
                       f"{r.name} ({r.elapsed_ms/1000:.1f} s)", err=True)
    _emit(rec)


if __name__ == "__main__":
    main()

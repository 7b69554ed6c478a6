"""The acceptance suite: one callable per criterion, shared by pytest and
the command line.

Every check records its expected value, the computed value, and a source
tag; all numeric comparisons are exact.  Randomized criteria fix their
seeds here so the suite is reproducible run to run.  Each criterion also
fills ``results`` with the values the command line reports, so a paper
integer is stated once, in its check.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field as dc_field

from .fields import QQ, GF
from .linalg import mat_eq
from . import schubert
from .chart import (chart_quadric, graph_matrix_of_tangent, plant_corank,
                    smith_valuations, _series_matrix, kernel_restriction_rank)
from .strata import (census, sample_lg1, sigma_probe, delta_witnesses,
                     BudgetExceededError, SIGMA_EXHAUSTIVE_MAX_PRIME)
from .lagrangian import random_graph_lagrangian
from . import dualk3

SEED_CHART_IDENTITY = 20240601
SEED_TANGENT_CONE = 911
SEED_RESTRICTION = 424242
SEED_CENSUS_P2 = 5
SEED_CENSUS_P3 = 1
SEEDS_LG1_P5 = (11, 23, 31)
SEED_DUALK3 = 7
SEED_DUALK3_RNG = 1105
DUALK3_RETRY_BUDGET = 200   # degenerate draws in a row before a dual-K3 stage gives up


@dataclass
class CriterionResult:
    """The one check record, of a criterion and of every CLI report."""
    cid: int
    name: str
    checks: list = dc_field(default_factory=list)
    elapsed_ms: float = 0.0
    results: dict = dc_field(default_factory=dict)

    def check(self, name, expected, actual, source):
        ok = expected == actual
        self.checks.append({"name": name, "expected": expected, "actual": actual,
                            "source": source, "passed": ok})
        return ok

    def check_true(self, name, flag, source, detail=None):
        self.checks.append({"name": name, "expected": True, "actual": bool(flag),
                            "source": source, "passed": bool(flag),
                            "detail": detail})
        return bool(flag)

    @property
    def passed(self) -> bool:
        """False for an error report (exit 2 or 3), whatever its checks."""
        return "error" not in self.results and all(c["passed"] for c in self.checks)

    def to_json(self):
        return {"criterion": self.cid, "name": self.name, "passed": self.passed,
                "elapsed_ms": round(self.elapsed_ms, 1), "checks": self.checks}


def _timed(fn):
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        res = fn(*args, **kwargs)
        res.elapsed_ms = (time.perf_counter() - t0) * 1000.0
        return res
    return wrapper


@_timed
def criterion_1_degrees() -> CriterionResult:
    r = CriterionResult(1, "degrees of the strata and of G(3,6)")
    degs = schubert.stratum_degrees()
    deg_g36 = schubert.g36_degree()
    r.results = {"D1": degs[1], "D2": degs[2], "D3": degs[3], "degG36": deg_g36}
    r.check("deg stratum-1", 168, degs[1], "paper")
    r.check("deg stratum-2", 480, degs[2], "paper")
    r.check("deg stratum-3", 720, degs[3], "paper")
    r.check("deg G(3,6)", 42, deg_g36, "paper")
    return r


@_timed
def criterion_2_class_decomposition() -> CriterionResult:
    r = CriterionResult(2, "stratum-2 class in the (h^3, h s2, s3) basis")
    coords = schubert.class_in_h_s2_s3(schubert.pr_class(2))
    r.check("coordinates", (16, -12, 12), coords, "paper")
    return r


@_timed
def criterion_3_connectedness() -> CriterionResult:
    r = CriterionResult(3, "connectedness diophantine system")
    eqs, sols, info = schubert.connectedness_check()
    r.results = {"solutions": [list(s) for s in sols],
                 "equations": [{str(k): v for k, v in eq.items()} for eq in eqs],
                 "bounding_combination": info["combo"],
                 "combo_denominator": info["combo_denominator"]}
    r.check("integer solutions", [(0, 0, 0), (16, 12, 12)], sols, "paper")
    r.check_true("printed first equation lies in the span of the system",
                 info["combo"] is not None, "paper",
                 detail={"combo": info["combo"], "denominator": info["combo_denominator"]})
    for s in ((0, 0, 0), (16, 12, 12)):
        vals = [schubert._eval_eq(eq, *s) for eq in eqs]
        r.check(f"substitution {s}", [0, 0, 0], vals, "trivial")
    return r


@_timed
def criterion_4_exceptional() -> CriterionResult:
    r = CriterionResult(4, "exceptional-divisor coefficient in LG(10,20)")
    res = schubert.exceptional_coefficient(10)
    r.results = {"b": res["b"],
                 **{k: str(res[k]) for k in ("X", "Y", "Z", "deg_sigma_n2_n")}}
    r.check("b", -2, res["b"], "paper")
    r.check_true("deg sigma_(n-2,n) positive", res["deg_sigma_n2_n"] > 0, "paper",
                 detail={"deg": res["deg_sigma_n2_n"]})
    r.check("equation at b=-2", 0, res["equation"](-2), "paper")
    r.check_true("b = 2 is not a solution", res["equation"](2) != 0, "trivial")
    return r


@_timed
def criterion_5_chart_identity(seed: int = SEED_CHART_IDENTITY,
                               trials: int = 100) -> CriterionResult:
    r = CriterionResult(5, "chart quadric equals the graph matrix")
    failures = {"rational": 0, "F101": 0}
    rng = random.Random(seed)
    for key, field in (("rational", QQ), ("F101", GF(101))):
        for _ in range(trials):
            B = [[field.random(rng) for _ in range(3)] for _ in range(3)]
            if not mat_eq(chart_quadric(B, field), graph_matrix_of_tangent(field, B), field):
                failures[key] += 1
    r.results = {"identity_trials": 2 * trials,
                 "identity_failures": sum(failures.values())}
    r.check(f"failures over the rationals ({trials} trials)", 0, failures["rational"],
            "derived")
    r.check(f"failures over F_101 ({trials} trials)", 0, failures["F101"], "derived")
    return r


@_timed
def criterion_6_tangent_cone(seed: int = SEED_TANGENT_CONE) -> CriterionResult:
    r = CriterionResult(6, "tangent-cone vanishing orders")
    r.results["orders"] = []
    field = QQ
    rng = random.Random(seed)
    for k in (2, 3):
        A, _ = plant_corank(field, k, rng, decomposable_free=True)
        orders = {level: [] for level in range(1, k + 1)}
        for _ in range(10):
            direction = [[field.random(rng) for _ in range(3)] for _ in range(3)]
            mat, ring = _series_matrix(A, direction)
            vals = smith_valuations(mat, ring, k + 3)
            for level in range(1, k + 1):
                chosen = vals[: 11 - level]
                orders[level].append(None if any(v is None for v in chosen)
                                     else sum(chosen))
        for level in range(1, k + 1):
            r.results["orders"].append({"k": k, "l": level, "orders": orders[level]})
            r.check(f"orders k={k} level={level} (10 directions)",
                    [k - level + 1] * 10, orders[level], "paper")
    return r


@_timed
def criterion_7_restriction_rank(seed: int = SEED_RESTRICTION) -> CriterionResult:
    r = CriterionResult(7, "surjectivity rank of the kernel restriction")
    field = QQ
    rng = random.Random(seed)
    ranks = []
    for _ in range(50):
        A, _ = plant_corank(field, 3, rng, decomposable_free=True)
        ranks.append(kernel_restriction_rank(A, rng=rng, samples=40))
    r.results = {"restriction_ranks": ranks}
    r.check("rank over 50 rank-7 plantings", [6] * 50, ranks, "paper")
    return r


@_timed
def criterion_8_census(threads: int = 2) -> CriterionResult:
    r = CriterionResult(8, "finite-field censuses and codimension statistics")
    rep2 = census(random_graph_lagrangian(GF(2), random.Random(SEED_CENSUS_P2)),
                  threads=threads)
    r.check("total p=2", 1395, rep2.total, "derived")
    r.check("counts sum p=2", 1395, sum(rep2.counts.values()), "derived")
    rep3 = census(random_graph_lagrangian(GF(3), random.Random(SEED_CENSUS_P3)),
                  threads=threads)
    r.check("total p=3", 33880, rep3.total, "derived")
    r.check("counts sum p=3", 33880, sum(rep3.counts.values()), "derived")
    for seed in SEEDS_LG1_P5:
        smp = sample_lg1(5, seed=seed, want_census=True, threads=threads)
        rep = smp.census_report
        r.check(f"lg1 seed {seed}: counts at k>=4", 0, rep.count_at_least(4), "paper")
        r.check_true(f"lg1 seed {seed}: sigma certificate",
                     smp.sigma.exhaustive and not smp.sigma.found, "derived",
                     detail={"trials": smp.sigma.trials, "attempts": smp.attempts})
        for k in (1, 2):
            target = 9 - k * (k + 1) // 2
            cnt = rep.counts.get(k, 0)
            ok = cnt > 0 and abs(math.log(cnt, 5) - target) <= 1.5
            r.check_true(f"lg1 seed {seed}: log5 count({k}) within {target}+-1.5",
                         ok, "derived",
                         detail={"count": cnt,
                                 "log5": round(math.log(cnt, 5), 3) if cnt else None})
    return r


def census_experiment(prime: int, seed: int, threads: int, lg1: bool) -> CriterionResult:
    """The stratum census of one seeded Lagrangian over F_prime, with its
    divisor certificates: a random graph Lagrangian, or with ``lg1`` the
    witness-free ``sample_lg1(prime, seed)``.  An exhausted scan or retry
    budget leaves ``results["error"]`` and no checks."""
    r = CriterionResult(0, "census")
    try:
        certificates = {}
        if lg1:
            smp = sample_lg1(prime, seed=seed, want_census=True, threads=threads)
            A, report = smp.A, smp.census_report
            certificates["sigma"] = smp.sigma.to_json()
            certificates["gamma"] = smp.gamma.to_json()
            r.results["attempts"] = smp.attempts
        else:
            A = random_graph_lagrangian(GF(prime), random.Random(seed))
            report = census(A, threads=threads)
            if prime <= SIGMA_EXHAUSTIVE_MAX_PRIME:
                certificates["sigma"] = sigma_probe(A, threads=threads).to_json()
            certificates["gamma"] = {
                "kind": "gamma", "exhaustive": True,
                "verdict": "found-witness" if report.count_at_least(4) else "none-found",
                "trials": report.total,
            }
        certificates["delta"] = delta_witnesses(A).to_json()
    except BudgetExceededError as exc:
        r.results["error"] = str(exc)
        return r
    r.results.update(report.to_json())
    r.results["certificates"] = certificates
    r.check("counts_sum", report.total, sum(report.counts.values()), "derived")
    if lg1:
        r.check("count_ge_4", 0, report.count_at_least(4), "paper")
    return r


def _redraw(r: CriterionResult, stage: str, count: int, draw):
    """``count`` results of ``draw``, and the number of degenerate draws redrawn.

    A draw is degenerate when it raises DegenerateConfiguration or returns
    None.  After DUALK3_RETRY_BUDGET degenerate draws in a row the stage
    gives up: ``r`` gets a failed check and an ``error``, and the results
    are None.
    """
    out, retries, in_a_row = [], 0, 0
    while len(out) < count:
        try:
            got = draw()
        except dualk3.DegenerateConfiguration:
            got = None
        if got is not None:
            out.append(got)
            in_a_row = 0
            continue
        retries += 1
        in_a_row += 1
        if in_a_row == DUALK3_RETRY_BUDGET:
            r.results["error"] = f"{stage}: {in_a_row} degenerate draws in a row"
            r.check_true(f"{stage}: degenerate draws within the retry budget", False,
                         "derived", detail={"retries": retries, "successes": len(out)})
            return None, retries
    return out, retries


def _records(rows, retries):
    return {"records": [{"trial": i, **row} for i, row in enumerate(rows)],
            "retries": retries}


def _points(data, rng, n):
    return [dualk3.sample_s_a_point(data, rng) for _ in range(n)]


def dualk3_phi(data, rng, trials: int = 50) -> CriterionResult:
    """Pair images land on the degeneracy sextic."""
    r = CriterionResult(9, "dual-K3 pair images")
    phis, retries = _redraw(r, "pair images", trials,
                            lambda: dualk3.phi(data, *_points(data, rng, 2)))
    if phis is None:
        return r
    dims = [dualk3.phi_sextic_dim(data, ph) for ph in phis]
    want = 1
    r.results = _records([{"phi": [data.field.to_str(x) for x in ph], "sextic_dim": d,
                           "passed": d == want} for ph, d in zip(phis, dims)], retries)
    r.check(f"pair-image sextic dims ({trials} trials)", [want] * trials, dims, "paper")
    return r


def dualk3_psi(data, rng, trials: int = 50) -> CriterionResult:
    """Triple images land on the stratum-2 locus."""
    r = CriterionResult(9, "dual-K3 triple images")
    psis, retries = _redraw(r, "triple images", trials,
                            lambda: dualk3.psi(data, *_points(data, rng, 3)))
    if psis is None:
        return r
    strata = [dualk3.psi_stratum(data, ps) for ps in psis]
    want = 2
    r.results = _records([{"psi": ps.to_json(), "stratum": s, "passed": s == want}
                          for ps, s in zip(psis, strata)], retries)
    r.check(f"triple-image strata ({trials} trials)", [want] * trials, strata, "paper")
    return r


def dualk3_newsystem(data, rng, trials: int = 50) -> CriterionResult:
    """The adapted 18-equation system has rank 4 and a 2-dimensional solution space."""
    r = CriterionResult(9, "dual-K3 adapted systems")
    systems, retries = _redraw(
        r, "adapted systems", trials,
        lambda: dualk3.newsystem_dimension(data, *_points(data, rng, 3), rng))
    if systems is None:
        return r
    want = {"rank": 4, "solution_dim": 2, "stratum": 2, "x_zero_solutions": 0}
    r.results = _records([{**{k: res[k] for k in want},
                           "passed": all(res[k] == v for k, v in want.items())}
                          for res in systems], retries)
    r.check(f"adapted-system ranks ({trials} triples)", [want["rank"]] * trials,
            [res["rank"] for res in systems], "paper")
    r.check("adapted-system solution dims vs stratum",
            [(want["solution_dim"], want["stratum"])] * trials,
            [(res["solution_dim"], res["stratum"]) for res in systems], "paper")
    r.check("solutions with x = 0", [want["x_zero_solutions"]] * trials,
            [res["x_zero_solutions"] for res in systems], "paper")
    return r


def dualk3_residual(data, rng, trials: int = 20) -> CriterionResult:
    """Residual triples share their image with the original triple."""
    r = CriterionResult(9, "dual-K3 residual triples")

    def draw():
        trio = _points(data, rng, 3)
        out = dualk3.residual_triple(data, *trio, rng)
        return out and (trio, *out)

    triples, retries = _redraw(r, "residual triples", trials, draw)
    if triples is None:
        return r
    want_distinct = 6
    rows, verified = [], []
    for trio, gammas, info in triples:
        verified.append(all(dualk3.verify_surface_point(data, g) for g in gammas))
        same = dualk3.psi(data, *trio) == dualk3.psi(data, *gammas)
        pts = {tuple(p.beta) for p in trio} | {tuple(g.beta) for g in gammas}
        rows.append({"psi_equal": same, "distinct_points": len(pts),
                     "curve_points": info["curve_points"],
                     "passed": same and len(pts) == want_distinct and verified[-1]})
    r.results = _records(rows, retries)
    r.check_true(f"at least {trials} residual-triple successes", len(rows) >= trials,
                 "paper", detail={"successes": len(rows), "attempts": len(rows) + retries})
    r.check_true("residual pairs share their image", all(x["psi_equal"] for x in rows),
                 "paper")
    r.check_true("six distinct points per configuration",
                 all(x["distinct_points"] == want_distinct for x in rows), "paper")
    r.check_true("residual points verified on the surface", all(verified), "trivial")
    return r


DUALK3_STAGES = {"phi": dualk3_phi, "psi": dualk3_psi,
                 "newsystem": dualk3_newsystem, "residual": dualk3_residual}


@_timed
def criterion_9_dual_k3() -> CriterionResult:
    """Every dual-K3 stage in turn, at its default size, from one rng."""
    r = CriterionResult(9, "dual-K3 suite over F_101")
    data = dualk3.build_special_a(p=101, seed=SEED_DUALK3)
    rng = random.Random(SEED_DUALK3_RNG)
    for name, stage in DUALK3_STAGES.items():
        part = stage(data, rng)
        r.checks += part.checks
        r.results[name] = part.results
        if "error" in part.results:
            break
    return r


@_timed
def criterion_10_hilb_ledger() -> CriterionResult:
    r = CriterionResult(10, "Hilbert-scheme arithmetic and dimension ledgers")
    hi = schubert.hilb3_invariants(6, 2, 3)
    r.check("q(2H - 3delta)", 4, hi["q"], "paper")
    r.check("Fujiki degree", 960, hi["fujiki_degree"], "paper")
    r.check("q(H) for the degree-10 polarization", 10,
            schubert.hilb3_invariants(6, 1, 0)["q"], "trivial")
    led = schubert.dimension_ledger()
    r.results = led
    r.check("dim F at (1,0)", 47, led["rows"][0]["dim_f1"], "paper")
    r.check("total at (1,0)", 53, led["rows"][0]["total_f1"], "paper")
    r.check("dim F at (2,3)", 29, led["rows"][3]["dim_f2"], "paper")
    r.check("total at (2,3)", 50, led["rows"][3]["total_f2"], "paper")
    r.check_true("all incidence totals bounded by 53",
                 all(row["bounded_by_53"] for row in led["rows"]), "paper")
    r.check_true("closed formulas match their term sums",
                 all(row["dim_f1"] == row["dim_f1_terms"]
                     and row["dim_f2"] == row["dim_f2_terms"]
                     for row in led["rows"]), "paper")
    r.check("4-meeting incidence dimension", 54, led["xi"]["dim"], "paper")
    r.check_true("54 below dim LG(10,20) = 55", led["xi"]["is_divisor_bound"], "paper")
    return r


ALL_CRITERIA = (
    criterion_1_degrees,
    criterion_2_class_decomposition,
    criterion_3_connectedness,
    criterion_4_exceptional,
    criterion_5_chart_identity,
    criterion_6_tangent_cone,
    criterion_7_restriction_rank,
    criterion_8_census,
    criterion_9_dual_k3,
    criterion_10_hilb_ledger,
)


def run_all(skip=()):
    results = []
    for fn in ALL_CRITERIA:
        cid = int(fn.__name__.split("_")[1])
        if cid in skip:
            continue
        results.append(fn())
    return results

"""Degeneracy strata of a Lagrangian against the tangent spaces of G(3,W).

Pointwise stratum evaluation, the exhaustive census of G(3, F_p^6), and the
probes for the three divisor conditions (a decomposable vector inside A, a
3-dimensional meeting with some F_[w], a 4-dimensional meeting with some
T_U).  Exhaustive probes certify their verdict; sampling probes are labeled
as inconclusive on the negative side.

The census is data-parallel over blocks of (u_1, u_2) groups: blocks are
disjoint, per-block counts merge associatively, and the result is
independent of the chunking and thread count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .fields import PrimeField
from .exterior import MultiVector
from .linalg import LinearSubspace
from .lagrangian import (LagrangianSubspace, tangent_space, is_decomposable,
                         standard_frame, random_symmetric, lagrangian_from_graph,
                         intersection_dim)
from . import batched


class BudgetExceededError(RuntimeError):
    """An enumeration or retry budget was exhausted."""


SCAN_MAX_PRIME = 7      # at p = 11 one scan covers 2,617,126,920 subspaces: hours
SIGMA_EXHAUSTIVE_MAX_PRIME = 5
DELTA_MAX_PRIME = 13
DELTA_CHUNK = 4096      # points per delta block: each builds (150, n) products and a
                        # (10, 15, n) rank batch, so larger blocks cost time and memory
REPORTED_WITNESSES = 16  # a probe's JSON lists its first 16 witnesses


def stratum(A: LinearSubspace, U: LinearSubspace) -> int:
    """k = dim(A ∩ T_U), by exact echelon on the stacked bases
    (``lagrangian.intersection_dim``, which takes a T_U already built)."""
    return intersection_dim(A, tangent_space(U))


def _require_prime_field(A: LinearSubspace) -> int:
    if not isinstance(A.field, PrimeField):
        raise ValueError("finite-field scans need a Lagrangian over F_p")
    return A.field.p


def _require_scan_prime(p: int):
    if p > SCAN_MAX_PRIME:
        raise BudgetExceededError(f"scans of G(3, F_p^6) are limited to p <= {SCAN_MAX_PRIME}")


def _rows_array(A: LinearSubspace) -> np.ndarray:
    return np.array([[int(x) for x in r] for r in A.rows], dtype=np.int64)


@dataclass
class CensusReport:
    prime: int
    counts: dict
    total: int
    elapsed_ms: float

    @property
    def cumulative(self) -> dict:
        return {k: self.count_at_least(k) for k in sorted(self.counts)}

    def count_at_least(self, k: int) -> int:
        return sum(v for kk, v in self.counts.items() if kk >= k)

    def to_json(self):
        return {
            "prime": self.prime,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "cumulative": {str(k): v for k, v in sorted(self.cumulative.items())},
            "total": self.total,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


@dataclass
class DivisorProbeResult:
    kind: str
    verdict: str                      # "found-witness" | "none-found"
    exhaustive: bool
    trials: int
    witnesses: list = dc_field(default_factory=list)
    detail: dict = dc_field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.verdict == "found-witness"

    def to_json(self):
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "exhaustive": self.exhaustive,
            "trials": self.trials,
            "witnesses": self.witnesses[:REPORTED_WITNESSES],
            "detail": self.detail,
        }


def _census_scan(A: LagrangianSubspace, chunk: int, threads: int):
    """The census of G(3, F_p^6), and the echelon bases (3x6 arrays) of the
    first 64 subspaces U, in enumeration order, with dim(A ∩ T_U) >= 4.

    Enumerates the reduced-echelon representative of every rank-3 subspace
    exactly once, in blocks of (u_1, u_2) groups.  A block's first 64 hits
    are in enumeration order, but the blocks of one pivot pattern interleave
    in it, so the hits are merged by (pattern, code).
    """
    p = _require_prime_field(A)
    _require_scan_prime(p)
    t0 = time.perf_counter()
    AM = _rows_array(A) % p
    D = batched.tangent_gram_blocks(AM, p)
    descs = batched.group_block_descriptors(p, chunk=chunk)

    def worker(desc):
        pattern, slots = desc[:2]
        dims = batched.intersection_dims_for_groups(desc, D, p)
        hits = np.flatnonzero(dims >= 4)[:64]
        codes = batched.group_block_codes(desc, p).reshape(-1)[hits]
        mats = batched.echelon_rows(pattern, slots, codes, p)
        return np.bincount(dims.reshape(-1), minlength=11), [
            ((pattern, int(code)), mat) for code, mat in zip(codes, mats)]

    counts = np.zeros(11, dtype=np.int64)
    first = []
    for c, hits in batched.parallel_map(worker, descs, threads=threads):
        counts += c
        first = sorted(first + hits, key=lambda hit: hit[0])[:64]
    witnesses = [mat for _, mat in first]
    elapsed = (time.perf_counter() - t0) * 1000.0
    total = batched.grassmann_size(6, 3, p)
    if counts.sum() != total:
        raise AssertionError("census counts do not sum to the Gaussian binomial")
    report = CensusReport(prime=p, counts={k: int(v) for k, v in enumerate(counts) if v},
                          total=total, elapsed_ms=elapsed)
    return report, witnesses


def census(A: LagrangianSubspace, chunk: int = 32768, threads: int = 2) -> CensusReport:
    """Exact stratum histogram over all of G(3, F_p^6)."""
    return _census_scan(A, chunk, threads)[0]


def _witness_subspace(field, mat) -> LinearSubspace:
    rows = [[field.from_int(int(x)) for x in r] for r in mat]
    return LinearSubspace.from_vectors(field, 6, rows)


def _gamma(A: LagrangianSubspace, report: CensusReport, witnesses) -> DivisorProbeResult:
    wits = [_witness_subspace(A.field, mat).to_json() for mat in witnesses]
    return DivisorProbeResult(kind="gamma",
                              verdict="found-witness" if witnesses else "none-found",
                              exhaustive=True, trials=report.total, witnesses=wits,
                              detail={"counts": {str(k): v for k, v in report.counts.items()}})


def gamma_witnesses(A: LagrangianSubspace, chunk: int = 32768, threads: int = 2) -> DivisorProbeResult:
    """Exhaustive scan for [U] with dim(A ∩ T_U) >= 4; certifies either way."""
    return _gamma(A, *_census_scan(A, chunk, threads))


def delta_witnesses(A: LagrangianSubspace) -> DivisorProbeResult:
    """Exhaustive scan of P(W) for [w] with dim(A ∩ F_[w]) >= 3; keeps the
    first witnesses in enumeration order, as many as the report lists."""
    p = _require_prime_field(A)
    if p > DELTA_MAX_PRIME:
        raise BudgetExceededError(f"delta scan is limited to p <= {DELTA_MAX_PRIME}")
    AM = _rows_array(A) % p
    witnesses = []
    total = 0
    for desc in batched.projective_block_descriptors(6, p, chunk=DELTA_CHUNK):
        vecs = batched.build_projective_block(desc, 6, p)
        dims = batched.f_space_dims(vecs, AM, p)
        total += vecs.shape[0]
        for h in np.flatnonzero(dims >= 3)[:REPORTED_WITNESSES - len(witnesses)]:
            witnesses.append({"w": [int(x) for x in vecs[h]], "dim": int(dims[h])})
    return DivisorProbeResult(kind="delta",
                              verdict="found-witness" if witnesses else "none-found",
                              exhaustive=True, trials=total, witnesses=witnesses)


def sigma_probe(A: LagrangianSubspace, trials: int = 2000, rng=None,
                chunk: int = 65536, threads: int = 2) -> DivisorProbeResult:
    """Search P(A) for a decomposable vector.

    A point c is a hit when the Pluecker quadrics restricted to A all vanish
    at it; only the first hit c.A is certified by the exact test.  Over F_p
    with p <= 5 the whole of P(A) = P^9(F_p) is enumerated and a negative
    verdict is a certificate; otherwise ``trials`` random points are tested
    and none-found stays inconclusive.
    """
    p = _require_prime_field(A)
    batched.check_chunk(chunk)
    AM = _rows_array(A) % p
    forms = batched.restricted_quadrics(AM, p)
    if p <= SIGMA_EXHAUSTIVE_MAX_PRIME:
        descs = batched.projective_block_descriptors(10, p, chunk=chunk)

        def worker(desc):
            combos = batched.build_projective_block(desc, 10, p)
            hits = batched.quadric_zeros(combos, forms, p)
            return combos.shape[0], combos[hits[0]] @ AM % p if hits.size else None

        total = 0
        first = None
        for n, hit in batched.parallel_map(worker, descs, threads=threads):
            total += n
            if hit is not None and first is None:
                first = hit
        if first is not None:
            wit = _certify_decomposable(A.field, first)
            return DivisorProbeResult(kind="sigma", verdict="found-witness",
                                      exhaustive=True, trials=total, witnesses=[wit])
        return DivisorProbeResult(kind="sigma", verdict="none-found",
                                  exhaustive=True, trials=total)
    if rng is None:
        raise ValueError("sampling sigma probe needs an rng")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        combos = np.zeros((n, 10), dtype=np.int64)
        for i in range(n):
            row = [rng.randrange(p) for _ in range(10)]
            while not any(row):
                row = [rng.randrange(p) for _ in range(10)]
            combos[i] = row
        hits = batched.quadric_zeros(combos, forms, p)
        if hits.size:
            wit = _certify_decomposable(A.field, combos[hits[0]] @ AM % p)
            return DivisorProbeResult(kind="sigma", verdict="found-witness",
                                      exhaustive=False, trials=done + int(hits[0]) + 1,
                                      witnesses=[wit])
        done += n
    return DivisorProbeResult(kind="sigma", verdict="none-found",
                              exhaustive=False, trials=trials)


def _certify_decomposable(field, coords):
    omega = MultiVector.from_vector(field, 3, [field.from_int(int(c)) for c in coords])
    ok, witness = is_decomposable(omega)
    if not ok:
        raise AssertionError("batched decomposability disagrees with the exact test")
    return {"omega": [field.to_str(x) for x in omega.to_vector()],
            "witness_u": witness.to_json()}


@dataclass
class Lg1Sample:
    A: LagrangianSubspace
    seed: int
    attempts: int
    sigma: DivisorProbeResult
    gamma: DivisorProbeResult
    census_report: Optional[CensusReport] = None


def sample_lg1(p: int, seed: int, max_attempts: int = 20, want_census: bool = False,
               chunk: int = 32768, threads: int = 2) -> Lg1Sample:
    """Rejection-sample a graph Lagrangian with no sigma/gamma witness.

    Each attempt draws a random symmetric matrix over the standard frame,
    runs the sigma probe (exhaustive for p <= 5) and the exhaustive gamma
    scan, and keeps the subspace only if both report none-found.  The gamma
    scan doubles as the census of an accepted subspace.
    """
    import random as _random
    _require_scan_prime(p)
    field = PrimeField(p)
    frame = standard_frame(field)
    rng = _random.Random(seed)
    for attempt in range(1, max_attempts + 1):
        M = random_symmetric(field, 10, rng)
        A = lagrangian_from_graph(frame, M)
        sig = sigma_probe(A, trials=4000, rng=rng, threads=threads)
        if sig.found:
            continue
        report, witnesses = _census_scan(A, chunk, threads)
        if witnesses:
            continue
        return Lg1Sample(A=A, seed=seed, attempts=attempt, sigma=sig,
                         gamma=_gamma(A, report, witnesses),
                         census_report=report if want_census else None)
    raise BudgetExceededError(f"no witness-free Lagrangian found in {max_attempts} attempts")


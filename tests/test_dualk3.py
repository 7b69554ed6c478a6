import functools
import itertools
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import lagstrata
from lagstrata.fields import GF
from lagstrata.exterior import MultiVector, wedge, contract
from lagstrata.linalg import LinearSubspace, right_nullspace, intersect, rank
from lagstrata.lagrangian import f_space, intersection_dim
from lagstrata.strata import delta_witnesses, stratum
from lagstrata import dualk3
from lagstrata.dualk3 import (build_special_a, sample_s_a_point, phi,
                              phi_sextic_dim, psi, psi_stratum,
                              newsystem_dimension, residual_triple,
                              verify_surface_point, v0_wedge_coords,
                              DegenerateConfiguration, RetryBudgetError, SUBV, IDXV)
from references import (adapted_wedge_rows, curve_points_by_nullspace, is_lagrangian,
                        q_star_by_solve, residual_roots_by_deflation, wedge_coefficient,
                        witness_through_w)

IDX2V = IDXV[2]


# The MultiVector route: the reference the coordinate table is tested against.

def _mv(field, grade, coords):
    return MultiVector(field, grade, {SUBV[grade][i]: c for i, c in enumerate(coords)
                                      if not field.is_zero(c)})


def _vol5(x: MultiVector, y: MultiVector):
    return wedge_coefficient(x, y, (1, 2, 3, 4, 5))


def _pairing_2v_3v(field):
    """10x10 matrix of (alpha, beta) -> vol5(alpha ^ beta)."""
    return [[_vol5(MultiVector.basis(field, I), MultiVector.basis(field, J))
             for J in SUBV[3]] for I in SUBV[2]]


def _plucker_quadric(field, i, beta: MultiVector):
    """q_i(beta) = vol5((e_i* -| beta) ^ beta)."""
    cov = [field.zero] * 6
    cov[i - 1] = field.one
    return _vol5(contract(cov, beta), beta)


def _is_decomposable_2v(kappa: MultiVector) -> bool:
    """A two-form has rank <= 2 iff its wedge square vanishes."""
    return wedge(kappa, kappa).is_zero()


@pytest.fixture(scope="module")
def data():
    return build_special_a(p=101, seed=7)


@pytest.fixture(scope="module")
def rng():
    return random.Random(2024)


def test_kperp_dimension_by_direct_pairing_kernel():
    # oracle: the kernel of the explicit 3x10 pairing matrix of the plane
    # spanned by e12, e34, e15 in the two-forms has dimension 7
    field = GF(101)
    rows = []
    for pair in ((1, 2), (3, 4), (1, 5)):
        r = [field.zero] * 10
        r[IDX2V[pair]] = field.one
        rows.append(r)
    P = _pairing_2v_3v(field)
    from lagstrata.linalg import mat_mul
    restricted = mat_mul(rows, P, field)
    assert len(right_nullspace(restricted, field)) == 7


def test_build_invariants(data):
    f = data.field
    assert is_lagrangian(data.A)
    assert data.kperp.dim == 7
    # A meets F_[v0] exactly in v0 ^ K
    fv0 = f_space(MultiVector.basis(f, (6,)))
    inter = intersect(data.A, fv0)
    assert inter.dim == 3
    want = LinearSubspace.from_vectors(
        f, 20, [v0_wedge_coords(f, list(r)) for r in data.K.rows])
    assert inter == want
    # the graph matrix has rank 7 with kernel K
    assert len(right_nullspace(data.M, f)) == 3
    assert rank(data.M, f) == 7
    ns = right_nullspace(data.M, f)
    assert LinearSubspace.from_vectors(f, 10, ns) == data.K
    # wedge^3 V is Lagrangian and transverse to F_[v0]
    linf = LinearSubspace.from_vectors(f, 20, data.frame.linf_rows)
    assert is_lagrangian(linf)
    assert intersection_dim(linf, fv0) == 0


def test_build_rejects_decomposable_k():
    field = GF(7)
    rows = [[field.zero] * 10 for _ in range(3)]
    rows[0][IDX2V[(1, 2)]] = field.one   # e12 is decomposable
    rows[1][IDX2V[(3, 4)]] = field.one
    rows[2][IDX2V[(1, 5)]] = field.one
    K = LinearSubspace.from_vectors(field, 10, rows)
    with pytest.raises(DegenerateConfiguration):
        build_special_a(p=7, seed=1, K=K)


def test_delta_witness_at_v0_for_small_prime():
    small = build_special_a(p=7, seed=3)
    res = delta_witnesses(small.A)
    assert res.found
    v0 = (0, 0, 0, 0, 0, 1)
    assert any(tuple(w["w"]) == v0 and w["dim"] >= 3 for w in res.witnesses)


def test_q_star_well_defined(data, rng):
    f = data.field
    # two preimages differing by kernel elements pair equally with beta
    for _ in range(100):
        c = [f.random(rng) for _ in range(7)]
        beta = [f.zero] * 10
        for a, ca in enumerate(c):
            row = data.kperp.rows[a]
            beta = [f.add(beta[i], f.mul(ca, row[i])) for i in range(10)]
        base = data.q_star(beta)
        assert base == q_star_by_solve(data, beta)
        alpha = None
        from lagstrata.linalg import solve, transpose
        alpha = solve(transpose(data.ytil), beta, f)
        kshift = [f.random(rng) for _ in range(3)]
        shifted = list(alpha)
        for cc, krow in zip(kshift, data.K.rows):
            shifted = [f.add(shifted[i], f.mul(cc, krow[i])) for i in range(10)]
        assert _vol5(_mv(f, 2, shifted), _mv(f, 3, beta)) == base
    assert data.q_star([f.zero] * 10) == f.zero


def test_q_star_rejects_outside_image(data):
    f = data.field
    # K pairs nontrivially against some trivector outside K-perp
    outside = None
    for i in range(10):
        cand = [f.zero] * 10
        cand[i] = f.one
        try:
            data.kperp_coords_of(cand)
        except ValueError:
            outside = cand
            break
    assert outside is not None
    with pytest.raises(ValueError):
        data.q_star(outside)


def test_sampled_points_verify(data, rng):
    pts = [sample_s_a_point(data, rng) for _ in range(25)]
    assert all(verify_surface_point(data, p) for p in pts)
    assert len({p.beta for p in pts}) == 25  # distinct draws w.h.p.
    for p in pts:
        assert p.witness.dim == 3


def test_sampler_budget_error(data, rng):
    with pytest.raises(RetryBudgetError):
        sample_s_a_point(data, rng, max_tries=0)


def test_phi_properties(data, rng):
    for _ in range(12):
        a = sample_s_a_point(data, rng)
        b = sample_s_a_point(data, rng)
        try:
            ph = phi(data, a, b)
        except DegenerateConfiguration:
            continue
        assert ph == phi(data, b, a)
        assert phi_sextic_dim(data, ph) == 1
    with pytest.raises(DegenerateConfiguration):
        phi(data, a, a)


def test_phi_normal_form_against_adapted_basis(data, rng):
    # the newsystem adaptation recomputes the pair constants and asserts the
    # closed-form representatives match the intrinsic map; exercise it
    done = 0
    while done < 5:
        trio = [sample_s_a_point(data, rng) for _ in range(3)]
        try:
            res = newsystem_dimension(data, *trio, rng)
        except DegenerateConfiguration:
            continue
        done += 1
        assert res["rank"] == 4


def test_psi_two_routes_and_stratum(data, rng):
    done = 0
    while done < 12:
        trio = [sample_s_a_point(data, rng) for _ in range(3)]
        try:
            ps = psi(data, *trio)   # the two routes are compared inside
        except DegenerateConfiguration:
            continue
        assert ps.dim == 3
        assert psi_stratum(data, ps) == 2
        done += 1


def test_psi_degenerate_on_shared_conic(data, rng):
    # three points with a common support vector lie on one conic; their
    # pairwise images share a line, so the triple image collapses
    f = data.field
    u = [f.from_int(c) for c in (69, 57, 11, 10, 40)]
    pts = []
    guard = 0
    while len(pts) < 3 and guard < 200:
        guard += 1
        cand = sample_s_a_point(data, random.Random(guard * 7 + 1),
                                support_vector=u)
        if all(cand.beta != q.beta for q in pts):
            pts.append(cand)
    assert len(pts) == 3
    with pytest.raises(DegenerateConfiguration):
        psi(data, *pts)


def test_newsystem_results(data, rng):
    done = 0
    while done < 6:
        trio = [sample_s_a_point(data, rng) for _ in range(3)]
        try:
            res = newsystem_dimension(data, *trio, rng)
        except DegenerateConfiguration:
            continue
        done += 1
        assert res["rank"] == 4
        assert res["solution_dim"] == 2
        assert res["x_zero_solutions"] == 0
        # the solution space matches the stratum of the triple image
        assert res["stratum"] == 2


def test_residual_triples(data, rng):
    succ = 0
    attempts = 0
    while succ < 4 and attempts < 80:
        attempts += 1
        trio = [sample_s_a_point(data, rng) for _ in range(3)]
        try:
            out = residual_triple(data, *trio, rng)
        except DegenerateConfiguration:
            continue
        if out is None:
            continue
        gammas, info = out
        assert all(verify_surface_point(data, g) for g in gammas)
        assert psi(data, *trio) == psi(data, *gammas)
        pts = {tuple(p.beta) for p in trio} | {tuple(g.beta) for g in gammas}
        assert len(pts) == 6
        assert info["curve_points"] >= 90  # about p + 1 rational curve points
        succ += 1
    assert succ == 4


def test_build_validates_prime():
    with pytest.raises(ValueError):
        build_special_a(p=2, seed=0)


def _plane_meets_decomposables(field, rows):
    """Brute force over every nonzero point of P(K): a point hits when its
    two-form has a vanishing wedge square."""
    p = field.characteristic
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        if not any(coeffs):
            continue
        coords = [sum(c * int(r[i]) for c, r in zip(coeffs, rows)) % p for i in range(10)]
        if _is_decomposable_2v(_mv(field, 2, coords)):
            return True
    return False


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_decomposable_in_plane_against_brute_force(p):
    field = GF(p)
    rng = random.Random(p)
    planes = []
    while len(planes) < 6:
        rows = [[field.random(rng) for _ in range(10)] for _ in range(3)]
        if rank(rows, field) == 3:
            planes.append(rows)
    e12 = [field.one if s == (1, 2) else field.zero for s in SUBV[2]]
    planes[0][rng.randrange(3)] = e12
    # e12 = row 0 - row 1 with no decomposable basis row
    planes[1][0] = [field.add(x, y) for x, y in zip(e12, planes[1][1])]
    verdicts = []
    for rows in planes:
        hit = dualk3.decomposable_in_plane(field, rows)
        verdicts.append(hit is not None)
        assert verdicts[-1] == _plane_meets_decomposables(field, rows)
        if hit is not None:
            kappa = MultiVector.zero(field, 2)
            for c, r in zip(hit, rows):
                kappa = kappa + _mv(field, 2, r).scale(c)
            assert not kappa.is_zero() and _is_decomposable_2v(kappa)
    assert verdicts[:2] == [True, True]


def _coords(draw, field, grade):
    return draw(st.lists(st.integers(0, field.p - 1), min_size=len(SUBV[grade]),
                         max_size=len(SUBV[grade])))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_table_wedge_matches_multivector_wedge(data):
    # every grade pair g + h <= 5 of wedge^* V
    field = GF(data.draw(st.sampled_from([7, 101])))
    g = data.draw(st.integers(0, 5))
    h = data.draw(st.integers(0, 5 - g))
    x, y = _coords(data.draw, field, g), _coords(data.draw, field, h)
    want = wedge(_mv(field, g, x), _mv(field, h, y))
    assert dualk3._wedge(x, y, g, h, field.p) == [want.coefficient(K) for K in SUBV[g + h]]
    # vol5(x ^ .) as coordinates on wedge^(5-g) V
    assert dualk3._dual(x, g, field.p) == [
        _vol5(_mv(field, g, x), MultiVector.basis(field, J)) for J in SUBV[5 - g]]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pairing_and_pluecker_quadrics_match_the_contract_route(data):
    field = GF(data.draw(st.sampled_from([7, 101])))
    p = field.p
    a = _coords(data.draw, field, 2)
    x, y = _coords(data.draw, field, 3), _coords(data.draw, field, 3)
    mx, my = _mv(field, 3, x), _mv(field, 3, y)
    assert dualk3._pairing(a, x, p) == _vol5(_mv(field, 2, a), mx)
    assert dualk3._pairing(a, x, p) == sum(
        ai * Pij * xj for ai, row in zip(a, _pairing_2v_3v(field))
        for Pij, xj in zip(row, x)) % p
    assert dualk3._quadrics(x, x, p) == [_plucker_quadric(field, i, mx) for i in range(1, 6)]
    # the polar used by the pair map: q_i(x + y) - q_i(x) - q_i(y)
    polar = [field.add(u, v) for u, v in zip(dualk3._quadrics(x, y, p),
                                             dualk3._quadrics(y, x, p))]
    assert polar == [field.sub(_plucker_quadric(field, i, mx + my),
                               field.add(_plucker_quadric(field, i, mx),
                                         _plucker_quadric(field, i, my)))
                     for i in range(1, 6)]


def test_sign_tables_are_not_built_at_import():
    src = os.path.dirname(os.path.dirname(lagstrata.__file__))
    code = ("import lagstrata.cli\n"
            "from lagstrata import dualk3\n"
            "print([t.cache_info().currsize for t in "
            "(dualk3._signs, dualk3._plucker_terms, dualk3.sqrt_table, "
            "dualk3._plane_points, dualk3._dual_matrix)])")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[0, 0, 0, 0, 0]"


def test_normalize_scales_the_lead_to_one_and_sends_zero_to_none():
    field = GF(7)
    assert dualk3._normalize(field, [0, 3, 6, 1]) == [0, 1, 2, 5]
    assert dualk3._normalize(field, [0, 7, 0]) is None


def test_binary_roots_edge_forms():
    affine = [(s, 1) for s in range(7)]
    assert dualk3._binary_roots([0, 0, 0], 7) == affine + [(1, 0)]    # the zero form
    assert dualk3._binary_roots([7, -14], 7) == affine + [(1, 0)]     # zero mod p
    assert dualk3._binary_roots([1, 0], 7) == [(1, 0)]                # t: root at infinity only
    assert dualk3._binary_roots([0, 1], 7) == [(0, 1)]                # s
    assert dualk3._binary_roots([-4, 0, 1], 7) == [(2, 1), (5, 1)]    # s^2 - 4 t^2
    assert dualk3._binary_roots([3], 7) == []


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_binary_roots_match_pointwise_evaluation(data):
    p = data.draw(st.sampled_from([5, 7, 101]))
    form = data.draw(st.lists(st.integers(-300, 300), min_size=1, max_size=8))
    n = len(form) - 1
    points = [(s, 1) for s in range(p)] + [(1, 0)]
    want = [(s, t) for s, t in points
            if sum(c * s**d * t**(n - d) for d, c in enumerate(form)) % p == 0]
    assert dualk3._binary_roots(form, p) == want


# Reference: the representatives loop sample_s_a_point ran before, one
# from_vectors per candidate row of Z.
def _greedy_representatives(uV, Z, f):
    span = LinearSubspace.from_vectors(f, 10, uV)
    if span.dim != 4:
        return None
    reps = []
    for z in Z:
        cand = LinearSubspace.from_vectors(f, 10, list(span.rows) + [z])
        if cand.dim > span.dim:
            reps.append(z)
            span = cand
        if len(reps) == 3:
            break
    return reps if len(reps) == 3 else None


def test_representatives_match_the_greedy_loop_on_sampler_draws(data):
    f, p = data.field, data.p
    draws = random.Random(11)
    units = [[int(i == j) for j in range(5)] for i in range(5)]
    for _ in range(150):
        u = [draws.randrange(p) if draws.random() < 0.8 else 0 for _ in range(5)]
        uV = [dualk3._wedge(u, e, 1, 1, p) for e in units]
        Z = right_nullspace([dualk3._dual(dualk3._wedge(k, u, 2, 1, p), 3, p)
                             for k in data.K.rows], f)
        assert dualk3._representatives(uV, Z, f) == _greedy_representatives(uV, Z, f)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([7, 101]), st.integers(0, 5), st.integers(0, 4), st.integers(0, 2**32))
def test_representatives_match_the_greedy_loop(p, uv_rank, extra, seed):
    # uV of the given rank; Z spanned by uV and `extra` more random vectors
    f, draws = GF(p), random.Random(seed)

    def combos(basis, n):
        return [[sum(draws.randrange(3) * b[i] for b in basis) % p for i in range(10)]
                for _ in range(n)]

    def vectors(n):
        return [[draws.randrange(p) for _ in range(10)] for _ in range(n)]

    uV = combos(vectors(uv_rank), 5)
    Z = combos(uV + vectors(extra), 7)
    assert dualk3._representatives(uV, Z, f) == _greedy_representatives(uV, Z, f)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_q_star_on_matches_polynomial_products(data):
    # reference: the PolyRing sum of g_ab * W_a(s) * W_b(s) that q_star_on replaced
    from lagstrata.unipoly import PolyRing
    sp = build_special_a(p=7, seed=3)
    f = sp.field
    ring = PolyRing(f)
    W = [[data.draw(st.integers(0, 6)) for _ in range(7)]
         for _ in range(data.draw(st.integers(1, 4)))]
    want = ring.zero
    for row, pa in zip(sp.gram_star, zip(*W)):
        for g, pb in zip(row, zip(*W)):
            want = ring.add(want, ring.scale(g, ring.mul(pa, pb)))
    got = sp.q_star_on(W)
    assert len(got) == 2 * len(W) - 1
    assert tuple(got[:len(want)]) == want and not any(got[len(want):])


# The computations on V against the W routes they replaced (tests/references.py)

@settings(max_examples=120, deadline=None)
@given(st.data())
def test_witness_on_v_matches_the_w_route(data):
    field = GF(data.draw(st.sampled_from([7, 101])))
    p = field.p
    if data.draw(st.booleans()):
        # planted u1 ^ u2 ^ u3; dependent u's give zero and are skipped
        us = [_coords(data.draw, field, 1) for _ in range(3)]
        beta = dualk3._wedge(dualk3._wedge(us[0], us[1], 1, 1, p), us[2], 2, 1, p)
    else:
        us = None
        beta = _coords(data.draw, field, 3)
    if not any(beta):
        return
    got = dualk3._witness(field, beta)
    assert got == witness_through_w(field, beta)
    if us is not None:
        assert got == LinearSubspace.from_vectors(field, 5, us)


def _binary_product(roots, p):
    """Coefficients by s-degree of the product of the forms t0 s - s0 t."""
    out = [1]
    for s0, t0 in roots:
        nxt = [0] * (len(out) + 1)
        for d, c in enumerate(out):
            nxt[d] = (nxt[d] - c * s0) % p
            nxt[d + 1] = (nxt[d + 1] + c * t0) % p
        out = nxt
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_residual_roots_match_the_deflation_route(data):
    # sextic = (three planted distinct roots) x (a cubic): the cubic is
    # random, zero, or a product over roots drawn from the planted ones,
    # infinity and a few affine points, so repeated roots occur
    p = data.draw(st.sampled_from([5, 7, 101]))
    points = [(s, 1) for s in range(p)] + [(1, 0)]
    beta_params = data.draw(st.lists(st.sampled_from(points), min_size=3, max_size=3,
                                     unique=True))
    kind = data.draw(st.sampled_from(["random", "zero", "roots"]))
    if kind == "random":
        cubic = [data.draw(st.integers(0, p - 1)) for _ in range(4)]
    elif kind == "zero":
        cubic = [0] * 4
    else:
        pool = beta_params + [(1, 0), (0, 1), (1, 1), (2, 1)]
        scale = data.draw(st.integers(1, p - 1))
        cubic = [c * scale % p for c in
                 _binary_product([data.draw(st.sampled_from(pool)) for _ in range(3)], p)]
    sext = _binary_product(beta_params, p)
    sext = [sum(sext[i] * cubic[d - i] for i in range(len(sext)) if 0 <= d - i < 4) % p
            for d in range(7)]
    want = residual_roots_by_deflation(sext, beta_params, p)
    assert dualk3._residual_roots(sext, beta_params, p) == want


@pytest.mark.parametrize("p, seed", [(101, 7), (13, 5)])
def test_adapted_rows_match_the_wedge_rows(p, seed):
    # the ten eta rows against T_U and the 18 wedge rows of the adapted
    # system have one row space, so also one x = 0 slice
    sp = build_special_a(p=p, seed=seed)
    f = sp.field
    draws = random.Random(p)
    done = 0
    while done < 5:
        trio = [sample_s_a_point(sp, draws) for _ in range(3)]
        try:
            rows, phis, gens = dualk3._adapted_system(sp, *trio, draws)[:3]
        except DegenerateConfiguration:
            continue
        done += 1
        ref = adapted_wedge_rows(f, phis, gens)
        assert len(rows) == 10 and len(ref) == 18
        for cut in (0, 3):
            assert (LinearSubspace.from_vectors(f, 6 - cut, [r[cut:] for r in rows])
                    == LinearSubspace.from_vectors(f, 6 - cut, [r[cut:] for r in ref]))


# The numpy curve scan against the per-hit nullspace route (tests/references.py)

@functools.lru_cache(maxsize=None)
def _special(p):
    return build_special_a(p=p, seed=5)


def _chord_space(sp, seed):
    """U' of a sampled triple, as ``residual_triple`` builds it, or None."""
    draws = random.Random(seed)
    trio = [sample_s_a_point(sp, draws) for _ in range(3)]
    try:
        chords = dualk3._chords(*(q.witness for q in trio))
    except DegenerateConfiguration:
        return None
    Uprime = LinearSubspace.from_vectors(sp.field, 5, chords)
    return Uprime if Uprime.dim == 3 else None


@pytest.mark.parametrize("p, seed, size", [(7, 0, 8), (7, 5, 15), (13, 0, 14), (13, 11, 27),
                                           (101, 0, 102), (101, 22, 203)])
def test_curve_points_match_the_nullspace_route_on_both_curve_sizes(p, seed, size):
    # a twisted cubic has p + 1 points; the degenerate scans have 2p + 1
    sp = _special(p)
    Uprime = _chord_space(sp, seed)
    got = dualk3._curve_points(sp, Uprime)
    assert len(got) == size
    assert got == curve_points_by_nullspace(sp, Uprime)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([7, 13, 101]), st.integers(0, 2**32))
def test_curve_points_match_the_nullspace_route(p, seed):
    sp = _special(p)
    Uprime = _chord_space(sp, seed)
    assume(Uprime is not None)
    got = dualk3._curve_points(sp, Uprime)
    assert len(got) in (p + 1, 2 * p + 1)
    assert got == curve_points_by_nullspace(sp, Uprime)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_curve_points_match_the_nullspace_route_at_low_rank(data):
    # K rows planted in wedge^2 U' wedge every pi(lambda) to zero, so the
    # condition matrices drop to rank <= 1 and the per-hit fallback runs
    p = data.draw(st.sampled_from([7, 13]))
    field = GF(p)
    draws = random.Random(data.draw(st.integers(0, 2**32)))
    Uprime = LinearSubspace.from_vectors(
        field, 5, [[draws.randrange(p) for _ in range(5)] for _ in range(3)])
    assume(Uprime.dim == 3)
    t0, t1, t2 = Uprime.rows
    planted = [dualk3._wedge(a, b, 1, 1, p) for a, b in ((t1, t2), (t2, t0), (t0, t1))]
    k = data.draw(st.integers(1, 3))
    rows = planted[:k] + [[draws.randrange(p) for _ in range(10)] for _ in range(3 - k)]
    sp = SimpleNamespace(field=field, p=p, K=LinearSubspace.from_vectors(field, 10, rows))
    assume(sp.K.dim == 3)
    assert dualk3._curve_points(sp, Uprime) == curve_points_by_nullspace(sp, Uprime)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([7, 13, 101]), st.integers(0, 2**32))
def test_rank2_points_are_the_wedge_of_the_kernel(p, seed):
    # M of rank 2 with kernel <b1, b2, b3>: for the planted plane <b1, b2>,
    # (b1 ^ b2) ^ v spans wedge^3 ker M for every kernel vector v off the plane
    field, draws = GF(p), random.Random(seed)
    mats, wants = [], []
    while len(mats) < 20:
        basis = [[draws.randrange(p) for _ in range(5)] for _ in range(5)]
        if rank(basis, field) != 5:
            continue
        ann = right_nullspace(basis[:3], field)
        coeffs = [[draws.randrange(p) for _ in ann] for _ in range(3)]
        M = [[sum(c * a[i] for c, a in zip(row, ann)) % p for i in range(5)] for row in coeffs]
        if rank(M, field) != 2:
            continue
        c = [draws.randrange(p), draws.randrange(p), draws.randrange(1, p)]
        v = [sum(ci * b[i] for ci, b in zip(c, basis[:3])) % p for i in range(5)]
        plane = dualk3._wedge(basis[0], basis[1], 1, 1, p)
        want = dualk3._normalize(field, dualk3._wedge(plane, v, 2, 1, p))
        pair = next(dualk3._wedge(M[a], M[b], 1, 1, p) for a, b in ((0, 1), (0, 2), (1, 2))
                    if any(dualk3._wedge(M[a], M[b], 1, 1, p)))
        assert dualk3._normalize(field, dualk3._dual(pair, 2, p)) == want
        mats.append(M)
        wants.append(want)
    got = dualk3._rank2_points(np.array(mats, dtype=np.float32), p)
    assert got.tolist() == wants

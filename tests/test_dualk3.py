import itertools
import random

import pytest

from lagstrata.fields import GF
from lagstrata.exterior import MultiVector
from lagstrata.linalg import LinearSubspace, right_nullspace, intersect, rank
from lagstrata.lagrangian import is_lagrangian, f_space, intersection_dim
from lagstrata.strata import delta_witnesses, stratum
from lagstrata import dualk3
from lagstrata.dualk3 import (build_special_a, sample_s_a_point, phi,
                              phi_sextic_dim, psi, psi_stratum,
                              newsystem_dimension, residual_triple,
                              verify_surface_point, pairing_2v_3v,
                              v0_wedge_coords, DegenerateConfiguration,
                              RetryBudgetError, IDX2V)


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
    P = pairing_2v_3v(field)
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
        assert base == data.q_star_by_solve(beta)
        alpha = None
        from lagstrata.linalg import solve, transpose
        alpha = solve(transpose(data.ytil), beta, f)
        kshift = [f.random(rng) for _ in range(3)]
        shifted = list(alpha)
        for cc, krow in zip(kshift, data.K.rows):
            shifted = [f.add(shifted[i], f.mul(cc, krow[i])) for i in range(10)]
        from lagstrata.dualk3 import _mv2, _mv3, vol5
        assert vol5(_mv2(f, shifted), _mv3(f, beta)) == base
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
        kappa = MultiVector(field, 2, {dualk3.SUB2V[i]: field.from_int(x)
                                       for i, x in enumerate(coords) if x})
        if dualk3.bivector_is_decomposable(field, kappa):
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
    e12 = [field.one if s == (1, 2) else field.zero for s in dualk3.SUB2V]
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
                kappa = kappa + dualk3._mv2(field, r).scale(c)
            assert not kappa.is_zero() and dualk3.bivector_is_decomposable(field, kappa)
    assert verdicts[:2] == [True, True]

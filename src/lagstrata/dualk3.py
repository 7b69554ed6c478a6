"""The special-Lagrangian construction over a prime field and its dual K3.

Split W = V + <v0> with V five-dimensional.  A symmetric rank-7 map from
two-forms to three-forms of V with prescribed 3-dimensional kernel K builds
a Lagrangian A meeting F_[v0] in exactly v0 ^ K; the surface cut out on
P(K-perp) by the five Pluecker quadrics and the one extra quadric is
sampled pointwise, and the induced maps to P(W) and G(3,W) are verified
against the stratum machinery: pair images land on the degeneracy sextic of
A, triple images land on the stratum-2 locus, and each triple shares its
image with a residual triple cut on a twisted cubic.

Everything runs over F_p (odd, p >= 5; default 101): exact point sampling
over the rationals would need rational points on quadrics, which generic
data does not supply.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .fields import PrimeField
from .exterior import MultiVector, wedge, wedge_coefficient, contract, INDEX, TOP
from .linalg import (LinearSubspace, rank, right_nullspace, solve, mat_mul,
                     transpose, symmetric_with_kernel, intersect)
from .lagrangian import (LagrangianFrame, LagrangianSubspace,
                         lagrangian_from_graph, f_space,
                         is_decomposable, intersection_dim)
from .strata import stratum
from .unipoly import PolyRing
from . import batched

SUB2V = tuple(combinations(range(1, 6), 2))      # basis of wedge^2 V
SUB3V = tuple(combinations(range(1, 6), 3))      # basis of wedge^3 V
IDX2V = {s: i for i, s in enumerate(SUB2V)}
IDX3V = {s: i for i, s in enumerate(SUB3V)}
VOL5 = (1, 2, 3, 4, 5)


class DegenerateConfiguration(ValueError):
    """A sampled configuration failed a genericity precondition."""


class RetryBudgetError(RuntimeError):
    pass


def _mv2(field, coords10):
    return MultiVector(field, 2, {SUB2V[i]: c for i, c in enumerate(coords10)
                                  if not field.is_zero(c)})


def _mv3(field, coords10):
    return MultiVector(field, 3, {SUB3V[i]: c for i, c in enumerate(coords10)
                                  if not field.is_zero(c)})


def _mv1(field, coords5):
    return MultiVector(field, 1, {(i + 1,): c for i, c in enumerate(coords5)
                                  if not field.is_zero(c)})


def _coords3(mv: MultiVector):
    field = mv.field
    out = [field.zero] * 10
    for s, c in mv.coords.items():
        if 6 in s:
            raise ValueError("trivector is not supported on V")
        out[IDX3V[s]] = c
    return out


def vol5(x: MultiVector, y: MultiVector):
    """Coefficient of e12345 in x ^ y (both supported on V)."""
    return wedge_coefficient(x, y, VOL5)


def w3_embed(field, coords10):
    """Coordinates in wedge^3 V -> coordinates in wedge^3 W."""
    out = [field.zero] * 20
    for i, c in enumerate(coords10):
        out[INDEX[3][SUB3V[i]]] = c
    return out


def v0_wedge_coords(field, coords10_biv):
    """Coordinates of v0 ^ alpha in wedge^3 W for alpha in wedge^2 V."""
    out = [field.zero] * 20
    for i, c in enumerate(coords10_biv):
        out[INDEX[3][SUB2V[i] + (6,)]] = c
    return out


def pairing_2v_3v(field):
    """10x10 matrix of (alpha, beta) -> vol5(alpha ^ beta)."""
    P = [[field.zero] * 10 for _ in range(10)]
    for i, I in enumerate(SUB2V):
        for j, J in enumerate(SUB3V):
            P[i][j] = vol5(MultiVector.basis(field, I), MultiVector.basis(field, J))
    return P


_SQRT_TABLES: dict[int, list] = {}


def sqrt_table(p: int):
    tab = _SQRT_TABLES.get(p)
    if tab is None:
        tab = [None] * p
        for y in range((p + 1) // 2, -1, -1):
            tab[(y * y) % p] = y
        _SQRT_TABLES[p] = tab
    return tab


def bivector_is_decomposable(field, kappa: MultiVector) -> bool:
    """A two-form has rank <= 2 iff its wedge square vanishes."""
    return wedge(kappa, kappa).is_zero()


def plucker_quadric(field, vstar_index: int, beta: MultiVector):
    """q_{v*}(beta) = vol5(contraction of beta by v* ^ beta)."""
    cov = [field.zero] * 6
    cov[vstar_index - 1] = field.one
    return vol5(contract(cov, beta), beta)


@dataclass
class SurfacePoint:
    beta: tuple                  # normalized coordinates in wedge^3 V
    witness: LinearSubspace      # the 3-space in V with top wedge <beta>
    kperp_coords: tuple          # coordinates of beta in the K-perp basis

    def mv(self, field) -> MultiVector:
        return _mv3(field, list(self.beta))


@dataclass
class SpecialLagrangianData:
    p: int
    field: PrimeField
    K: LinearSubspace            # rank 3 in wedge^2 V
    frame: LagrangianFrame       # (F_[v0], wedge^3 V)
    M: list                      # symmetric 10x10 graph matrix, kernel = K
    ytil: list                   # matrix of the map wedge^2 V -> wedge^3 V
    A: LagrangianSubspace
    kperp: LinearSubspace        # rank 7 in wedge^3 V
    alpha_basis: list            # particular preimages of the K-perp basis
    gram_star: list              # 7x7 polar matrix of the extra quadric

    def kperp_coords_of(self, beta_coords):
        c = self.kperp.coordinates_of(beta_coords)
        if c is None:
            raise ValueError("trivector lies outside K-perp")
        return c

    def q_star(self, beta_coords):
        """The quadric on K-perp induced by the symmetric map."""
        c = self.kperp_coords_of(beta_coords)
        return self.q_star_polar(c, c)

    def q_star_polar(self, c1, c2):
        return self.field.from_int(sum(ca * cb * g for ca, row in zip(c1, self.gram_star)
                                       for cb, g in zip(c2, row)))

    def q_star_by_solve(self, beta_coords):
        """Oracle route: solve for a preimage and pair it with beta."""
        f = self.field
        alpha = solve(transpose(self.ytil), list(beta_coords), f)
        if alpha is None:
            raise ValueError("trivector lies outside the image of the map")
        return vol5(_mv2(f, alpha), _mv3(f, list(beta_coords)))


def special_frame(field) -> LagrangianFrame:
    l0 = [v0_wedge_coords(field, [field.one if t == i else field.zero
                                  for t in range(10)]) for i in range(10)]
    li = [w3_embed(field, [field.one if t == i else field.zero
                           for t in range(10)]) for i in range(10)]
    return LagrangianFrame(field, l0, li, check=False)


def decomposable_in_plane(field, rows, rng=None):
    """Search P(K) over F_p for a rank-<=2 two-form: every point for p <= 13,
    else 300 points drawn from ``rng``."""
    p = field.characteristic
    k = len(rows)
    mvs = [_mv2(field, list(r)) for r in rows]

    def check(coeffs):
        acc = MultiVector.zero(field, 2)
        for c, m in zip(coeffs, mvs):
            if not field.is_zero(c):
                acc = acc + m.scale(c)
        if acc.is_zero():
            return None
        return list(coeffs) if bivector_is_decomposable(field, acc) else None

    if p <= 13:
        for desc in batched.projective_block_descriptors(k, p):
            for point in batched.build_projective_block(desc, k, p):
                hit = check([field.from_int(int(c)) for c in point])
                if hit:
                    return hit
        return None
    if rng is None:
        raise ValueError("sampled plane check needs an rng")
    for _ in range(300):
        coeffs = [field.random(rng) for _ in range(k)]
        hit = check(coeffs)
        if hit:
            return hit
    return None


def build_special_a(p: int = 101, seed: int = 0,
                    K: LinearSubspace | None = None) -> SpecialLagrangianData:
    """Assemble the special Lagrangian package over F_p.

    Draws (or validates) a 3-dimensional K in wedge^2 V whose projective
    plane avoids decomposable two-forms, builds the rank-7 symmetric map
    with kernel K over the frame (F_[v0], wedge^3 V), and precomputes the
    quadric data on K-perp.
    """
    if p % 2 == 0 or p < 5:
        raise ValueError("the construction needs an odd prime p >= 5")
    field = PrimeField(p)
    rng = random.Random(seed)
    frame = special_frame(field)
    fixed_k = K is not None
    for _ in range(40):
        if K is None:
            rows = [[field.random(rng) for _ in range(10)] for _ in range(3)]
            Kc = LinearSubspace.from_vectors(field, 10, rows)
            if Kc.dim != 3:
                continue
        else:
            Kc = K
            if Kc.ambient != 10 or Kc.dim != 3:
                raise ValueError("K must be a rank-3 subspace of wedge^2 V")
        hit = decomposable_in_plane(field, [list(r) for r in Kc.rows], rng=rng)
        if hit is not None:
            if fixed_k:
                raise DegenerateConfiguration(
                    f"P(K) contains a decomposable two-form at {hit}")
            K = None
            continue
        M = symmetric_with_kernel(field, 10, [list(r) for r in Kc.rows], rng)
        if len(right_nullspace(M, field)) != 3:
            raise AssertionError("graph matrix does not have the prescribed kernel")
        A = lagrangian_from_graph(frame, M)
        ytil = mat_mul(M, frame.pairing_transpose_inv, field)
        P5 = pairing_2v_3v(field)
        kperp = LinearSubspace.from_vectors(
            field, 10, right_nullspace(mat_mul([list(r) for r in Kc.rows], P5, field), field))
        if kperp.dim != 7:
            raise AssertionError("K-perp must be 7-dimensional")
        alpha_basis = []
        for krow in kperp.rows:
            alpha = solve(transpose(ytil), list(krow), field)
            if alpha is None:
                raise AssertionError("K-perp vector outside the image of the map")
            alpha_basis.append(alpha)
        gram = [[field.zero] * 7 for _ in range(7)]
        for a in range(7):
            am = _mv2(field, alpha_basis[a])
            for b in range(7):
                gram[a][b] = vol5(am, _mv3(field, list(kperp.rows[b])))
        for a in range(7):
            for b in range(a):
                if not field.is_zero(field.sub(gram[a][b], gram[b][a])):
                    raise AssertionError("polar matrix of the extra quadric not symmetric")
        data = SpecialLagrangianData(p=p, field=field, K=Kc, frame=frame, M=M,
                                     ytil=ytil, A=A, kperp=kperp,
                                     alpha_basis=alpha_basis, gram_star=gram)
        # the defining intersection: A meets F_[v0] exactly in v0 ^ K
        fv0 = f_space(MultiVector.basis(field, (6,)))
        inter = intersect(A, fv0)
        want = LinearSubspace.from_vectors(
            field, 20, [v0_wedge_coords(field, list(r)) for r in Kc.rows])
        if inter != want or inter.dim != 3:
            raise AssertionError("A does not meet F_[v0] in v0 ^ K")
        return data
    raise RetryBudgetError("could not draw a decomposable-free K")


# ---------------------------------------------------------------------------
# point sampling on the surface


def _conic_point(field, G):
    """A projective point of the conic x^T G x = 0 over F_p, or None."""
    p = field.p
    tab = sqrt_table(p)

    def q(v):
        acc = 0
        for i in range(3):
            for j in range(3):
                acc += v[i] * G[i][j] * v[j]
        return acc % p

    for x in range(p):
        # solve q(x, y, 1) = 0 as a quadratic in y
        a = G[1][1] % p
        b = (2 * (G[0][1] * x + G[1][2])) % p
        c = (G[0][0] * x * x + 2 * G[0][2] * x + G[2][2]) % p
        if a == 0:
            if b != 0:
                y = (-c * pow(b, p - 2, p)) % p
                return [x % p, y, 1]
            if c == 0:
                return [x % p, 0, 1]
            continue
        disc = (b * b - 4 * a * c) % p
        r = tab[disc]
        if r is None:
            continue
        y = ((-b + r) * pow(2 * a, p - 2, p)) % p
        return [x % p, y, 1]
    # points with z = 0
    a, b, c = G[0][0] % p, (2 * G[0][1]) % p, G[1][1] % p
    if a == 0:
        return [1, 0, 0]
    disc = (b * b - 4 * a * c) % p
    r = tab[disc]
    if r is not None:
        x = ((-b + r) * pow(2 * a, p - 2, p)) % p
        return [x, 1, 0]
    return None


def sample_s_a_point(data: SpecialLagrangianData, rng, max_tries: int = 200,
                     support_vector=None) -> SurfacePoint:
    """Draw a point of the surface: a decomposable trivector in K-perp
    killed by the extra quadric.

    Strategy: fix a random nonzero u in V; the decomposable trivectors of
    K-perp with u in their support form a conic (trivectors u ^ pi with pi
    ranging over a 3-dimensional quotient, cut by the rank condition on pi
    mod u).  Parametrize the conic rationally from one of its points and
    scan the roots of the restricted quartic of the extra quadric.
    ``support_vector`` pins u, which restricts the draw to one conic.
    """
    f = data.field
    p = data.p
    for _ in range(max_tries):
        if support_vector is not None:
            u = list(support_vector)
        else:
            u = [f.random(rng) for _ in range(5)]
        if all(f.is_zero(x) for x in u):
            continue
        umv = _mv1(f, u)
        # linear conditions on two-forms pi: vol5(kappa ^ u ^ pi) = 0
        rows = []
        for krow in data.K.rows:
            ku = wedge(_mv2(f, list(krow)), umv)
            rows.append([vol5(ku, MultiVector.basis(f, I)) for I in SUB2V])
        Z = right_nullspace(rows, f)
        if len(Z) != 7:
            continue
        uV = LinearSubspace.from_vectors(
            f, 10, [[wedge(umv, MultiVector.basis(f, (i,))).coefficient(I)
                     for I in SUB2V] for i in range(1, 6)])
        if uV.dim != 4:
            continue
        reps = []
        span = uV
        for z in Z:
            cand = LinearSubspace.from_vectors(f, 10, list(span.rows) + [z])
            if cand.dim > span.dim:
                reps.append(z)
                span = cand
            if len(reps) == 3:
                break
        if len(reps) != 3:
            continue
        pis = [_mv2(f, r) for r in reps]
        G = [[vol5(wedge(pis[a], pis[b]), umv) for b in range(3)] for a in range(3)]
        Gi = [[int(x) for x in row] for row in G]
        if all(x % p == 0 for row in Gi for x in row):
            continue
        P0 = _conic_point(f, Gi)
        if P0 is None:
            continue
        # rational parametrization: X(s,t) = (R^T G R) P0 - 2 (P0^T G R) R;
        # complete P0 to a basis with the two units off its leading slot
        basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        lead_idx = next(i for i in range(3) if P0[i] % p)
        R1, R2 = [basis[i] for i in range(3) if i != lead_idx]

        def bil(x, y):
            return sum(x[i] * Gi[i][j] * y[j] for i in range(3) for j in range(3)) % p

        def comb(c1, v1, c2, v2, c3=0, v3=(0, 0, 0)):
            return [(c1 * v1[i] + c2 * v2[i] + c3 * v3[i]) % p for i in range(3)]

        A2 = comb(bil(R1, R1), P0, (-2 * bil(P0, R1)) % p, R1)
        C2 = comb(bil(R2, R2), P0, (-2 * bil(P0, R2)) % p, R2)
        B2 = comb((2 * bil(R1, R2)) % p, P0, (-2 * bil(P0, R2)) % p, R1,
                  (-2 * bil(P0, R1)) % p, R2)

        def beta_coords(xvec):
            pi = MultiVector.zero(f, 2)
            for c, pm in zip(xvec, pis):
                if c % p:
                    pi = pi + pm.scale(f.from_int(c))
            return _coords3(wedge(umv, pi))

        b20 = beta_coords(A2)
        b11 = beta_coords(B2)
        b02 = beta_coords(C2)
        try:
            c20 = data.kperp_coords_of(b20)
            c11 = data.kperp_coords_of(b11)
            c02 = data.kperp_coords_of(b02)
        except ValueError:
            continue
        ring = PolyRing(f)
        coord_polys = [tuple(x for x in (c02[r], c11[r], c20[r])) for r in range(7)]
        quartic = ring.zero
        for a in range(7):
            for b in range(7):
                g = data.gram_star[a][b]
                if f.is_zero(g):
                    continue
                quartic = ring.add(quartic,
                                   ring.scale(g, ring.mul(coord_polys[a], coord_polys[b])))
        roots = [f.from_int(s) for s in range(p)
                 if f.is_zero(ring.eval(quartic, f.from_int(s)))]
        candidates = [(s, f.one) for s in roots]
        lead = quartic[4] if len(quartic) > 4 else f.zero
        if f.is_zero(lead):
            candidates.append((f.one, f.zero))
        rng.shuffle(candidates)
        for s, t in candidates:
            coords = [f.add(f.add(f.mul(f.mul(s, s), b20[r]),
                                  f.mul(f.mul(s, t), b11[r])),
                            f.mul(f.mul(t, t), b02[r])) for r in range(10)]
            if all(f.is_zero(x) for x in coords):
                continue
            point = _finish_point(data, coords)
            if point is not None:
                return point
    raise RetryBudgetError("surface-point sampling budget exhausted")


def _finish_point(data: SpecialLagrangianData, coords) -> SurfacePoint | None:
    f = data.field
    lead = next((i for i, x in enumerate(coords) if not f.is_zero(x)), None)
    if lead is None:
        return None
    inv = f.inv(coords[lead])
    coords = [f.mul(inv, x) for x in coords]
    mv = _mv3(f, coords)
    ok, witness_w = is_decomposable(wedge_embed3(f, coords))
    if not ok:
        return None
    wit_rows = []
    for r in witness_w.rows:
        if not f.is_zero(r[5]):
            return None
        wit_rows.append(list(r[:5]))
    witness = LinearSubspace.from_vectors(f, 5, wit_rows)
    try:
        kc = data.kperp_coords_of(coords)
    except ValueError:
        return None
    if not f.is_zero(data.q_star_polar(kc, kc)):
        return None
    for i in range(1, 6):
        if not f.is_zero(plucker_quadric(f, i, mv)):
            return None
    return SurfacePoint(beta=tuple(coords), witness=witness, kperp_coords=tuple(kc))


def wedge_embed3(field, coords10) -> MultiVector:
    return MultiVector.from_vector(field, 3, w3_embed(field, list(coords10)))


def verify_surface_point(data: SpecialLagrangianData, pt: SurfacePoint) -> bool:
    f = data.field
    mv = pt.mv(f)
    if not f.is_zero(data.q_star(list(pt.beta))):
        return False
    for i in range(1, 6):
        if not f.is_zero(plucker_quadric(f, i, mv)):
            return False
    top = wedge(wedge(_mv1(f, list(pt.witness.rows[0])), _mv1(f, list(pt.witness.rows[1]))),
                _mv1(f, list(pt.witness.rows[2])))
    return _coords_proportional(f, _coords3(top), list(pt.beta))


def _coords_proportional(field, x, y) -> bool:
    lead = next((i for i, v in enumerate(x) if not field.is_zero(v)), None)
    lead_y = next((i for i, v in enumerate(y) if not field.is_zero(v)), None)
    if lead is None or lead != lead_y:
        return lead is None and lead_y is None
    c = field.div(y[lead], x[lead])
    return all(field.is_zero(field.sub(field.mul(c, a), b)) for a, b in zip(x, y))


# ---------------------------------------------------------------------------
# the maps to P(W) and G(3,W)


def phi(data: SpecialLagrangianData, p1: SurfacePoint, p2: SurfacePoint):
    """Image of an unordered point pair in P(W).

    Coordinates are the polar values, at the pair, of the five Pluecker
    quadrics (the V-part) and of the extra quadric (the v0-part).  Requires
    the connecting line to leave the Grassmannian cone: endpoints distinct
    and midpoint not decomposable.
    """
    f = data.field
    if _coords_proportional(f, list(p1.beta), list(p2.beta)):
        raise DegenerateConfiguration("pair endpoints coincide")
    b1, b2 = p1.mv(f), p2.mv(f)
    mid = b1 + b2
    if mid.is_zero():
        raise DegenerateConfiguration("pair endpoints are opposite")
    ok, _ = is_decomposable(wedge_embed3(f, _coords3(mid)))
    if ok:
        raise DegenerateConfiguration("the connecting line lies on the Grassmannian")
    inv2 = f.inv(f.from_int(2))
    coords_w = []
    for i in range(1, 6):
        cov = [f.zero] * 6
        cov[i - 1] = f.one
        val = f.add(vol5(contract(cov, b1), b2), vol5(contract(cov, b2), b1))
        coords_w.append(f.mul(inv2, val))
    c0 = data.q_star_polar(list(p1.kperp_coords), list(p2.kperp_coords))
    coords_w.append(c0)
    if all(f.is_zero(x) for x in coords_w):
        raise DegenerateConfiguration("pair functional vanishes identically")
    lead = next(i for i, x in enumerate(coords_w) if not f.is_zero(x))
    inv = f.inv(coords_w[lead])
    return tuple(f.mul(inv, x) for x in coords_w)


def phi_sextic_dim(data: SpecialLagrangianData, phi_vec) -> int:
    """dim(A ∩ F_[phi]); at least 1 exactly because phi lies on the
    degeneracy sextic of A."""
    f = data.field
    w = MultiVector.from_vector(f, 1, list(phi_vec))
    return intersection_dim(data.A, f_space(w))


def _quadric_row(data: SpecialLagrangianData, coords10):
    f = data.field
    mv = _mv3(f, list(coords10))
    row = [plucker_quadric(f, i, mv) for i in range(1, 6)]
    row.append(data.q_star(list(coords10)))
    return row


def psi(data: SpecialLagrangianData, p1: SurfacePoint, p2: SurfacePoint,
        p3: SurfacePoint):
    """Image of a point triple in G(3,W), computed two independent ways.

    (i) the span of the three pair images; (ii) the annihilator in W of the
    space of quadric functionals vanishing on the plane of the triple.
    Both must agree; the returned subspace meets the tangent-space stratum
    of A in dimension at least 2.
    """
    f = data.field
    phis = [phi(data, p1, p2), phi(data, p1, p3), phi(data, p2, p3)]
    span = LinearSubspace.from_vectors(f, 6, [list(v) for v in phis])
    if span.dim != 3:
        raise DegenerateConfiguration("pair images are linearly dependent")
    pts = []
    triples = [p1.beta, p2.beta, p3.beta]
    for t in triples:
        pts.append(list(t))
    for a, b in ((0, 1), (0, 2), (1, 2)):
        pts.append([f.add(x, y) for x, y in zip(triples[a], triples[b])])
    rows = [_quadric_row(data, c) for c in pts]
    kert = right_nullspace(rows, f)
    if len(kert) != 3:
        raise DegenerateConfiguration(
            f"quadrics through the triple plane have dimension {len(kert)}")
    ann = LinearSubspace.from_vectors(f, 6, right_nullspace(kert, f))
    if ann != span:
        raise AssertionError("span of pair images differs from the quadric annihilator")
    return span


def psi_stratum(data: SpecialLagrangianData, psi_subspace: LinearSubspace) -> int:
    return stratum(data.A, psi_subspace)


# ---------------------------------------------------------------------------
# the adapted linear system of a triple


def _adapt_basis(data: SpecialLagrangianData, p1: SurfacePoint, p2: SurfacePoint,
                 p3: SurfacePoint, rng):
    """Basis (v1..v5) of V with beta1 = v123, beta2 = v145, beta3 = v24(3+5).

    v1, v2, v4 span the pairwise intersections of the witness 3-spaces;
    v3 in U1 and v5 in U2 are chosen with v3 + v5 in U3.
    """
    f = data.field
    U1, U2, U3 = p1.witness, p2.witness, p3.witness
    l12 = intersect(U1, U2)
    l13 = intersect(U1, U3)
    l23 = intersect(U2, U3)
    if l12.dim != 1 or l13.dim != 1 or l23.dim != 1:
        raise DegenerateConfiguration("pairwise witness intersections are not lines")
    v1, v2, v4 = list(l12.rows[0]), list(l13.rows[0]), list(l23.rows[0])
    # v3 + v5 in U3 with v3 in U1, v5 in U2: impose the functionals cutting U3
    ells = right_nullspace([list(r) for r in U3.rows], f)
    rows_sys = []
    for ell in ells:
        row = []
        for bvec in U1.rows:
            row.append(f.from_int(sum(f.mul(ell[i], bvec[i]) for i in range(5))))
        for bvec in U2.rows:
            row.append(f.from_int(sum(f.mul(ell[i], bvec[i]) for i in range(5))))
        rows_sys.append(row)
    sols = right_nullspace(rows_sys, f)
    if not sols:
        raise DegenerateConfiguration("no adapted third vector")
    for _ in range(60):
        coeffs = [f.random(rng) for _ in sols]
        vec = [f.zero] * 6
        for c, s in zip(coeffs, sols):
            if f.is_zero(c):
                continue
            vec = [f.add(vec[i], f.mul(c, s[i])) for i in range(6)]
        x, y = vec[:3], vec[3:]
        v3 = [f.from_int(sum(f.mul(x[j], U1.rows[j][i]) for j in range(3))) for i in range(5)]
        v5 = [f.from_int(sum(f.mul(y[j], U2.rows[j][i]) for j in range(3))) for i in range(5)]
        basis = [v1, v2, v3, v4, v5]
        if rank(basis, f) != 5:
            continue
        # normalize the basis volume to 1 by rescaling v1: the pair images
        # then take the literal form (constant * v0 + basis vector)
        rho = wedge(wedge(wedge(wedge(_mv1(f, v1), _mv1(f, v2)), _mv1(f, v3)),
                          _mv1(f, v4)), _mv1(f, v5)).coefficient(VOL5)
        inv_rho = f.inv(rho)
        w1 = [f.mul(inv_rho, x) for x in v1]
        b1 = wedge(wedge(_mv1(f, w1), _mv1(f, v2)), _mv1(f, v3))
        b2 = wedge(wedge(_mv1(f, w1), _mv1(f, v4)), _mv1(f, v5))
        v35 = [f.add(a, b) for a, b in zip(v3, v5)]
        b3 = wedge(wedge(_mv1(f, v2), _mv1(f, v4)), _mv1(f, v35))
        v1 = w1
        if b1.is_zero() or b2.is_zero() or b3.is_zero():
            continue
        if not (_coords_proportional(f, _coords3(b1), list(p1.beta))
                and _coords_proportional(f, _coords3(b2), list(p2.beta))
                and _coords_proportional(f, _coords3(b3), list(p3.beta))):
            raise AssertionError("adapted representatives do not match the points")
        return (v1, v2, v3, v4, v5), (b1, b2, b3)
    raise DegenerateConfiguration("could not adapt a basis to the triple")


def newsystem_dimension(data: SpecialLagrangianData, p1: SurfacePoint,
                        p2: SurfacePoint, p3: SurfacePoint, rng):
    """Assemble the 18-equation linear system of an adapted triple.

    Unknowns are the six coefficients expressing an element of A through
    the three lifted points and v0 ^ K; the equations say the element lies
    in the tangent space at the triple image.  Returns the rank (4 for a
    generic triple), the solution dimension (2), the comparison with the
    stratum of the image, and the certificate that no nonzero solution has
    vanishing point-coefficients.
    """
    f = data.field
    (v1, v2, v3, v4, v5), (b1, b2, b3) = _adapt_basis(data, p1, p2, p3, rng)
    betas = [_coords3(b) for b in (b1, b2, b3)]
    alphas = []
    for bc in betas:
        alpha = solve(transpose(data.ytil), list(bc), f)
        if alpha is None:
            raise AssertionError("adapted representative left the image of the map")
        alphas.append(alpha)
    amv = [_mv2(f, a) for a in alphas]
    bmv = [_mv3(f, b) for b in betas]
    c12 = vol5(amv[0], bmv[1])
    c13 = vol5(amv[0], bmv[2])
    c23 = vol5(amv[1], bmv[2])
    for val, other in ((c12, vol5(amv[1], bmv[0])), (c13, vol5(amv[2], bmv[0])),
                       (c23, vol5(amv[2], bmv[1]))):
        if not f.is_zero(f.sub(val, other)):
            raise AssertionError("polar symmetry of the pair constants failed")
    phi12 = [*v1, c12]
    phi13 = [*v2, c13]
    phi23 = [*v4, f.neg(c23)]
    # the normal-form representatives agree with the intrinsic pair map
    for rep, (qa, qb) in ((phi12, (p1, p2)), (phi13, (p1, p3)), (phi23, (p2, p3))):
        intrinsic = phi(data, qa, qb)
        if not _coords_proportional(f, list(intrinsic), rep):
            raise AssertionError("normal-form pair image differs from the intrinsic one")
    phimv = [MultiVector.from_vector(f, 1, v) for v in (phi12, phi13, phi23)]
    gens = []
    for bc, ac in zip(betas, alphas):
        g = [f.add(a, b) for a, b in zip(w3_embed(f, bc), v0_wedge_coords(f, ac))]
        gens.append(g)
    for krow in data.K.rows:
        gens.append(v0_wedge_coords(f, list(krow)))
    for g in gens:
        if not data.A.contains(g):
            raise AssertionError("system generator escaped the Lagrangian")
    if rank(gens, f) != 6:
        # solutions then inject into A ∩ T at the triple image
        raise AssertionError("system generators are not independent inside A")
    genmv = [MultiVector.from_vector(f, 3, g) for g in gens]
    rows = []
    for (a, b) in ((0, 1), (0, 2), (1, 2)):
        pair_wedge = wedge(phimv[a], phimv[b])
        fives = [wedge(g, pair_wedge) for g in genmv]
        for m in range(1, 7):
            em = MultiVector.basis(f, (m,))
            rows.append([wedge_coefficient(x, em, TOP) for x in fives])
    rnk = rank(rows, f)
    sols = right_nullspace(rows, f)
    # the x = 0 slice must be trivial
    rows_x0 = [r[3:] for r in rows]
    x0_kernel = right_nullspace(rows_x0, f)
    span_phi = LinearSubspace.from_vectors(f, 6, [phi12, phi13, phi23])
    strat = stratum(data.A, span_phi) if span_phi.dim == 3 else None
    return {
        "rank": rnk,
        "solution_dim": len(sols),
        "x_zero_solutions": len(x0_kernel),
        "stratum": strat,
        "constants": (c12, c13, c23),
    }


# ---------------------------------------------------------------------------
# residual triples on the twisted cubic


def _curve_points(data: SpecialLagrangianData, Uprime: LinearSubspace):
    """F_p points of the pencil-of-planes curve through U' inside P(K-perp).

    Scans the plane of decomposable two-forms of U': for lambda with the
    3x5 condition matrix of rank 2, the kernel adds a line beyond the plane
    of pi(lambda), giving the curve point pi(lambda) ^ v.
    """
    f = data.field
    p = data.p
    t = [list(r) for r in Uprime.rows]
    tm = [_mv1(f, v) for v in t]
    pis = [wedge(tm[1], tm[2]), wedge(tm[0], tm[2]).scale(f.neg(f.one)),
           wedge(tm[0], tm[1])]
    # rows R[j][s][m] = vol5(kappa_j ^ pi_s ^ e_m)
    R = np.zeros((3, 3, 5), dtype=np.int64)
    kmv = [_mv2(f, list(r)) for r in data.K.rows]
    for j in range(3):
        for s in range(3):
            kp = wedge(kmv[j], pis[s])
            for m in range(5):
                R[j, s, m] = int(vol5(kp, MultiVector.basis(f, (m + 1,))))
    lams = []
    for desc in batched.projective_block_descriptors(3, p, chunk=1 << 14):
        lams.append(batched.build_projective_block(desc, 3, p))
    lams = np.concatenate(lams)
    mats = np.einsum("ls,jsm->ljm", lams % p, R) % p
    ranks = batched.batch_rank(mats, p)
    points = []
    for li in np.nonzero(ranks <= 2)[0]:
        lam = [f.from_int(int(x)) for x in lams[li]]
        pim = MultiVector.zero(f, 2)
        for c, pv in zip(lam, pis):
            if not f.is_zero(c):
                pim = pim + pv.scale(c)
        rows = [[f.from_int(int(mats[li, j, m])) for m in range(5)] for j in range(3)]
        ker = right_nullspace(rows, f)
        found = None
        for v in ker:
            omega = wedge(pim, _mv1(f, v))
            if not omega.is_zero():
                found = omega
                break
        if found is None:
            continue
        coords = _coords3(found)
        lead = next(i for i, x in enumerate(coords) if not f.is_zero(x))
        inv = f.inv(coords[lead])
        points.append(tuple(f.mul(inv, x) for x in coords))
    return sorted(set(points))


def _binary_deflate(ring: PolyRing, form, s0, t0):
    """Divide a binary form (coefficients by s-degree) by (t0 s - s0 t)."""
    f = ring.field
    n = len(form) - 1
    if f.is_zero(t0):
        # root at infinity: form must have zero leading coefficient
        if not f.is_zero(form[-1]):
            raise ValueError("infinity is not a root")
        return tuple(form[:-1])
    # write form(s) with t = 1 and divide by (t0 s - s0)
    q, r = ring.divmod_exact(tuple(form), (f.neg(s0), t0))
    if r:
        raise ValueError("claimed root does not divide the form")
    return tuple(q) + (f.zero,) * (n - len(q)) if len(q) < n else tuple(q)


def residual_triple(data: SpecialLagrangianData, p1: SurfacePoint,
                    p2: SurfacePoint, p3: SurfacePoint, rng):
    """The second triple with the same image: the residual three points of
    the surface on the twisted cubic through the given triple.

    Returns (gammas, info) when the residual cubic splits over F_p, or None
    as a retry signal.
    """
    f = data.field
    p = data.p
    U1, U2, U3 = p1.witness, p2.witness, p3.witness
    l12, l13, l23 = intersect(U1, U2), intersect(U1, U3), intersect(U2, U3)
    if min(l12.dim, l13.dim, l23.dim) != 1 or max(l12.dim, l13.dim, l23.dim) != 1:
        raise DegenerateConfiguration("pairwise witness intersections are not lines")
    Uprime = LinearSubspace.from_vectors(
        f, 5, [list(l12.rows[0]), list(l13.rows[0]), list(l23.rows[0])])
    if Uprime.dim != 3:
        raise DegenerateConfiguration("the three chords do not span a 3-space")
    for U in (U1, U2, U3):
        if intersect(U, Uprime).dim != 2:
            raise DegenerateConfiguration("distinguished space fails the 2-plane meetings")
    points = _curve_points(data, Uprime)
    norm = {}
    for pt in points:
        norm[pt] = pt
    betas = [tuple(_normalize(f, list(q.beta))) for q in (p1, p2, p3)]
    if not all(b in norm for b in betas):
        raise DegenerateConfiguration("triple points missing from the curve scan")
    span_rows = [list(pt) for pt in points]
    spanC = LinearSubspace.from_vectors(f, 10, span_rows)
    if spanC.dim != 4:
        raise DegenerateConfiguration(f"curve spans dimension {spanC.dim}, not 4")
    # projection forms vanishing on the chord through beta1, beta2
    chord = LinearSubspace.from_vectors(f, 10, [list(betas[0]), list(betas[1])])
    ann = right_nullspace([list(r) for r in chord.rows], f)

    def restricted(ell):
        return [f.from_int(sum(f.mul(ell[i], spanC.rows[j][i]) for i in range(10)))
                for j in range(4)]

    ells = None
    for _ in range(40):
        cand = []
        for _ in range(2):
            coeffs = [f.random(rng) for _ in ann]
            vec = [f.zero] * 10
            for c, a in zip(coeffs, ann):
                if f.is_zero(c):
                    continue
                vec = [f.add(vec[i], f.mul(c, a[i])) for i in range(10)]
            cand.append(vec)
        if rank([restricted(cand[0]), restricted(cand[1])], f) == 2:
            ells = cand
            break
    if ells is None:
        raise DegenerateConfiguration("no independent projection forms on the curve span")

    def param_of(coords):
        l1 = f.from_int(sum(f.mul(ells[0][i], coords[i]) for i in range(10)))
        l2 = f.from_int(sum(f.mul(ells[1][i], coords[i]) for i in range(10)))
        if f.is_zero(l1) and f.is_zero(l2):
            return None
        return (l1, l2)

    data_pts = []
    for pt in points:
        if pt in (betas[0], betas[1]):
            continue
        t = param_of(list(pt))
        if t is None:
            continue
        data_pts.append((t, pt))
    seen = {}
    fit_pts = []
    for t, pt in data_pts:
        key = _proj_param(f, t)
        if key in seen:
            continue
        seen[key] = pt
        fit_pts.append((t, pt))
        if len(fit_pts) == 8:
            break
    if len(fit_pts) < 6:
        raise DegenerateConfiguration("not enough distinct parameters on the curve")
    # fit omega(s,t) = sum_d W_d s^d t^(3-d) in K-perp coordinates
    nuk = len(fit_pts)
    cols = 28 + nuk
    rows_fit = []
    for i, (t, pt) in enumerate(fit_pts):
        c = data.kperp_coords_of(list(pt))
        s0, t0 = t
        mono = [f.mul(pow(s0, d, f.p), pow(t0, 3 - d, f.p)) for d in range(4)]
        for r in range(7):
            row = [f.zero] * cols
            for d in range(4):
                row[d * 7 + r] = mono[d]
            row[28 + i] = f.neg(c[r])
            rows_fit.append(row)
    ker = right_nullspace(rows_fit, f)
    if len(ker) != 1:
        raise DegenerateConfiguration(f"curve fit kernel has dimension {len(ker)}")
    W = [[ker[0][d * 7 + r] for r in range(7)] for d in range(4)]
    if any(f.is_zero(ker[0][28 + i]) for i in range(nuk)):
        raise DegenerateConfiguration("degenerate fit scalar")

    def omega_at(s0, t0):
        mono = [f.mul(pow(s0, d, f.p), pow(t0, 3 - d, f.p)) for d in range(4)]
        c = [f.from_int(sum(f.mul(mono[d], W[d][r]) for d in range(4))) for r in range(7)]
        coords = [f.zero] * 10
        for a, ca in enumerate(c):
            if f.is_zero(ca):
                continue
            row = data.kperp.rows[a]
            coords = [f.add(coords[i], f.mul(ca, row[i])) for i in range(10)]
        return coords

    # locate the parameters of all three triple points by scanning P^1
    param_points = [(f.from_int(s), f.one) for s in range(p)] + [(f.one, f.zero)]
    where = {}
    for s0, t0 in param_points:
        coords = omega_at(s0, t0)
        if all(f.is_zero(x) for x in coords):
            continue
        where[_proj_param(f, (s0, t0))] = tuple(_normalize(f, coords))
    param_by_key = {_proj_param(f, pt): pt for pt in param_points}
    beta_params = []
    for b in betas:
        found = [k for k, v in where.items() if v == b]
        if len(found) != 1:
            raise DegenerateConfiguration("triple point not uniquely parametrized")
        beta_params.append(param_by_key[found[0]])
    # the restriction of the extra quadric: a binary sextic
    ring = PolyRing(f)
    cpolys = []
    for r in range(7):
        cpolys.append(tuple(W[d][r] for d in range(4)))  # ascending in s (t = 1)
    sextic = ring.zero
    for a in range(7):
        for b in range(7):
            g = data.gram_star[a][b]
            if f.is_zero(g):
                continue
            sextic = ring.add(sextic, ring.scale(g, ring.mul(cpolys[a], cpolys[b])))
    sext = list(sextic) + [f.zero] * (7 - len(sextic))
    for s0, t0 in beta_params:
        if not f.is_zero(_eval_binary(ring, sext, s0, t0)):
            raise AssertionError("triple parameter is not a root of the sextic")
    residual = tuple(sext)
    for s0, t0 in beta_params:
        residual = _binary_deflate(ring, residual, s0, t0)
    roots = []
    for s0, t0 in param_points:
        if f.is_zero(_eval_binary(ring, residual, s0, t0)):
            roots.append((s0, t0))
    if len(roots) != 3:
        return None  # residual cubic does not split into distinct roots
    keys = [_proj_param(f, r) for r in roots]
    beta_keys = [_proj_param(f, bp) for bp in beta_params]
    if len(set(keys)) != 3 or set(keys) & set(beta_keys):
        return None
    gammas = []
    for s0, t0 in roots:
        coords = omega_at(s0, t0)
        pt = _finish_point(data, coords)
        if pt is None:
            return None
        gammas.append(pt)
    info = {
        "beta_params": beta_keys,
        "gamma_params": keys,
        "curve_points": len(points),
        "sextic": [f.to_str(c) for c in sext],
    }
    return gammas, info


def _eval_binary(ring: PolyRing, form, s0, t0):
    p, n = ring.field.p, len(form) - 1
    return sum(c * pow(s0, d, p) * pow(t0, n - d, p) for d, c in enumerate(form)) % p


def _proj_param(f, t):
    s0, t0 = t
    if not f.is_zero(t0):
        return ("a", f.to_str(f.div(s0, t0)))
    return ("inf",)


def _normalize(f, coords):
    lead = next(i for i, x in enumerate(coords) if not f.is_zero(x))
    inv = f.inv(coords[lead])
    return [f.mul(inv, x) for x in coords]

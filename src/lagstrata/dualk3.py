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

The algebra of wedge^* V (V = <e1..e5>) runs on plain coordinate lists of
ints mod p, indexed by the lexicographic subsets ``SUBV[g]``, through one
cached list of structure constants per grade pair, ``_signs(g, h)``, read
from ``exterior.merge_table``: the wedge, the 2V x 3V pairing, the vol5
forms, and the five Pluecker quadrics of wedge^3 V with their polars all
come from it.  Questions about wedge^3 V stay on V: a trivector beta is
decomposable exactly when v -> v ^ beta has a 3-dimensional kernel on V
(``_witness``), and that kernel is its witness.  W = V + <v0> enters only
where A does (F_[v0], the pair images, the strata), and ``MultiVector``
values are built only for F_[phi] and the strata; the adapted system pairs
its generators with T_U through ``exterior.eta_gram``.  Every other linear
combination and quadric evaluation (the conic parametrization, the extra
quadric and its restriction to a curve, the points of a pencil) is one
``linalg.mat_mul``, which sums through the field's ``dot``; K-perp
coordinates are read at the pivot columns of its echelon basis
(``LinearSubspace.coordinates_of``).

The scan of the twisted cubic through a triple (``_curve_points``) runs in
numpy.  The 3x5 condition matrices of all p^2 + p + 1 points lambda of
P^2(F_p) come from one float32 product whose entries are sums of 3 reduced
products, below 3 (p - 1)^2 (``batched.matmul_mod_f32`` bounds them), and
their ranks from one ``batch_rank``.  The plane of pi(lambda) lies in
the kernel of its condition matrix, so at rank 2 the curve point spans
wedge^3 of the kernel: _dual(r_a ^ r_b, 2) for any two independent rows,
normalized in numpy with no kernel computed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .fields import PrimeField
from .exterior import MultiVector, merge_table, eta_gram, INDEX
from .linalg import (LinearSubspace, rref, rank, right_nullspace, solve, mat_mul,
                     transpose, identity, symmetric_with_kernel, intersect)
from .lagrangian import (LagrangianFrame, LagrangianSubspace,
                         lagrangian_from_graph, f_space, tangent_space,
                         intersection_dim)
from .strata import stratum
from . import batched

SUBV = {g: tuple(combinations(range(1, 6), g)) for g in range(6)}   # basis of wedge^g V
IDXV = {g: {s: i for i, s in enumerate(SUBV[g])} for g in range(6)}


class DegenerateConfiguration(ValueError):
    """A sampled configuration failed a genericity precondition."""


class RetryBudgetError(RuntimeError):
    pass


@lru_cache(maxsize=None)
def _signs(g, h):
    """The structure constants (i, j, k, sign) of wedge^g V x wedge^h V:
    e_I ^ e_J = sign * e_K for I = SUBV[g][i], J = SUBV[h][j], K = SUBV[g+h][k],
    read from ``exterior.merge_table``."""
    return tuple((i, IDXV[h][J], IDXV[g + h][K], sign)
                 for i, I in enumerate(SUBV[g])
                 for J, (sign, K) in merge_table(g, h)[I].items() if 6 not in J)


def _wedge(x, y, g, h, p):
    """Coordinates of x ^ y for coordinate lists x of grade g and y of grade h."""
    out = [0] * len(SUBV[g + h])
    for i, j, k, sign in _signs(g, h):
        out[k] += sign * x[i] * y[j]
    return [c % p for c in out]


def _dual(x, g, p):
    """Coordinates of the form y -> vol5(x ^ y) on wedge^(5-g) V."""
    out = [0] * len(SUBV[5 - g])
    for i, j, _, sign in _signs(g, 5 - g):
        out[j] += sign * x[i]
    return [c % p for c in out]


def _pairing(alpha, beta, p):
    """vol5(alpha ^ beta) for alpha in wedge^2 V and beta in wedge^3 V."""
    return _wedge(alpha, beta, 2, 3, p)[0]


@lru_cache(maxsize=None)
def _plucker_terms():
    """(i, k, b, sign): the bilinear forms q_i(x, y) = vol5((e_i* -| x) ^ y) on
    wedge^3 V are the sums of sign * x_k * y_b over the terms of i.  Since
    e_i ^ e_J = s e_K, contracting e_K by e_i* gives s e_J."""
    dual = {j: (b, sign) for j, b, _, sign in _signs(2, 3)}
    return tuple((i, k, dual[j][0], sign * dual[j][1]) for i, j, k, sign in _signs(1, 2))


def _quadrics(x, y, p):
    """[q_1(x, y), ..., q_5(x, y)]; the five Pluecker quadrics of wedge^3 V
    are q_i(beta, beta), their polars q_i(x, y) + q_i(y, x)."""
    out = [0] * 5
    for i, k, b, sign in _plucker_terms():
        out[i] += sign * x[k] * y[b]
    return [c % p for c in out]


def _witness(f, beta):
    """The 3-space U of V with wedge^3 U = <beta>, or None when the nonzero
    trivector beta is not decomposable: the kernel of v -> v ^ beta on V,
    which is 3-dimensional exactly on the decomposable cone.  On W the kernel
    is the same, since v0 ^ beta lies outside wedge^4 V."""
    rows = [_wedge(e, beta, 1, 3, f.p) for e in identity(5, f)]
    ker = right_nullspace(transpose(rows), f)
    if len(ker) != 3:
        return None
    return LinearSubspace.from_vectors(f, 5, ker)


def _normalize(f, coords):
    """The multiple of ``coords`` with leading coefficient 1, or None for zero."""
    lead = next((x for x in coords if not f.is_zero(x)), None)
    if lead is None:
        return None
    return f.scale_row(f.inv(lead), coords)


def w3_embed(field, coords10):
    """Coordinates in wedge^3 V -> coordinates in wedge^3 W."""
    out = [field.zero] * 20
    for i, c in enumerate(coords10):
        out[INDEX[3][SUBV[3][i]]] = c
    return out


def v0_wedge_coords(field, coords10_biv):
    """Coordinates of v0 ^ alpha in wedge^3 W for alpha in wedge^2 V."""
    out = [field.zero] * 20
    for i, c in enumerate(coords10_biv):
        out[INDEX[3][SUBV[2][i] + (6,)]] = c
    return out


@lru_cache(maxsize=None)
def sqrt_table(p: int):
    tab = [None] * p
    for y in range((p + 1) // 2, -1, -1):
        tab[(y * y) % p] = y
    return tab


@dataclass
class SurfacePoint:
    beta: tuple                  # normalized coordinates in wedge^3 V
    witness: LinearSubspace      # the 3-space in V with top wedge <beta>
    kperp_coords: tuple          # coordinates of beta in the K-perp basis


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
        f = self.field
        return f.dot(mat_mul([c1], self.gram_star, f)[0], c2)

    def q_star_on(self, W):
        """The quadric on the K-perp coordinates sum_d s^d W[d], as its
        coefficients ascending in s: the anti-diagonal sums of W G W^T."""
        f = self.field
        H = mat_mul(mat_mul(W, self.gram_star, f), transpose(W), f)
        out = [0] * (2 * len(W) - 1)
        for d, row in enumerate(H):
            for e, h in enumerate(row):
                out[d + e] += h
        return [c % self.p for c in out]


def special_frame(field) -> LagrangianFrame:
    l0 = [v0_wedge_coords(field, [field.one if t == i else field.zero
                                  for t in range(10)]) for i in range(10)]
    li = [w3_embed(field, [field.one if t == i else field.zero
                           for t in range(10)]) for i in range(10)]
    return LagrangianFrame(field, l0, li)


def decomposable_in_plane(field, rows, rng=None):
    """Search P(K) over F_p for a rank-<=2 two-form: every point for p <= 13,
    else 300 points drawn from ``rng``."""
    p = field.characteristic
    k = len(rows)

    def check(coeffs):
        # a two-form has rank <= 2 iff its wedge square vanishes
        kappa = mat_mul([coeffs], rows, field)[0]
        if not any(kappa) or any(_wedge(kappa, kappa, 2, 2, p)):
            return None
        return list(coeffs)

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
        kperp = LinearSubspace.from_vectors(
            field, 10, right_nullspace([_dual(r, 2, p) for r in Kc.rows], field))
        if kperp.dim != 7:
            raise AssertionError("K-perp must be 7-dimensional")
        alpha_basis = []
        for krow in kperp.rows:
            alpha = solve(transpose(ytil), list(krow), field)
            if alpha is None:
                raise AssertionError("K-perp vector outside the image of the map")
            alpha_basis.append(alpha)
        gram = [[_pairing(alpha, krow, p) for krow in kperp.rows] for alpha in alpha_basis]
        for a in range(7):
            for b in range(a):
                if not field.is_zero(field.sub(gram[a][b], gram[b][a])):
                    raise AssertionError("polar matrix of the extra quadric not symmetric")
        data = SpecialLagrangianData(p=p, field=field, K=Kc, frame=frame, M=M,
                                     ytil=ytil, A=A, kperp=kperp,
                                     alpha_basis=alpha_basis, gram_star=gram)
        # the defining intersection: A meets F_[v0] = v0 ^ wedge^2 V, the
        # span of the frame's first half, exactly in v0 ^ K
        fv0 = LinearSubspace.from_vectors(field, 20, frame.l0_rows)
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
    units = identity(5, f)
    for _ in range(max_tries):
        if support_vector is not None:
            u = list(support_vector)
        else:
            u = [f.random(rng) for _ in range(5)]
        if all(f.is_zero(x) for x in u):
            continue
        # linear conditions on two-forms pi: vol5(kappa ^ u ^ pi) = 0
        Z = right_nullspace([_dual(_wedge(k, u, 2, 1, p), 3, p) for k in data.K.rows], f)
        if len(Z) != 7:
            continue
        reps = _representatives([_wedge(u, e, 1, 1, p) for e in units], Z, f)
        if reps is None:
            continue
        Gi = [[_wedge(_wedge(a, b, 2, 2, p), u, 4, 1, p)[0] for b in reps] for a in reps]
        if all(x % p == 0 for row in Gi for x in row):
            continue
        P0 = _conic_point(f, Gi)
        if P0 is None:
            continue
        # rational parametrization X(s,t) = (R^T G R) P0 - 2 (P0^T G R) R with
        # R = s R1 + t R2, the two units R1, R2 off the leading slot of P0
        lead = next(i for i in range(3) if P0[i] % p)
        B = [P0] + [e for i, e in enumerate(identity(3, f)) if i != lead]
        H = mat_mul(mat_mul(B, Gi, f), transpose(B), f)
        X = [[H[1][1], -2 * H[0][1], 0],                     # s^2
             [2 * H[1][2], -2 * H[0][2], -2 * H[0][1]],      # s t
             [H[2][2], 0, -2 * H[0][2]]]                     # t^2
        b20, b11, b02 = (_wedge(u, pi, 1, 2, p)
                         for pi in mat_mul(mat_mul(X, B, f), reps, f))
        try:
            c20 = data.kperp_coords_of(b20)
            c11 = data.kperp_coords_of(b11)
            c02 = data.kperp_coords_of(b02)
        except ValueError:
            continue
        candidates = _binary_roots(data.q_star_on([c02, c11, c20]), p)
        rng.shuffle(candidates)
        for s, t in candidates:
            coords = mat_mul([[s * s, s * t, t * t]], [b20, b11, b02], f)[0]
            if all(f.is_zero(x) for x in coords):
                continue
            point = _finish_point(data, coords)
            if point is not None:
                return point
    raise RetryBudgetError("surface-point sampling budget exhausted")


def _representatives(uV, Z, f):
    """Three rows of Z completing span(uV) to span(Z), or None unless uV spans
    a 4-space: the pivot columns of one rref of [uV; Z]^T, which are the rows
    a greedy scan of [uV; Z] finds independent of those before them."""
    n = len(uV)
    pivots = rref(transpose(uV + Z), f)[1]
    if sum(c < n for c in pivots) != 4 or len(pivots) < 7:
        return None
    return [Z[c - n] for c in pivots[4:7]]


def _finish_point(data: SpecialLagrangianData, coords) -> SurfacePoint | None:
    f = data.field
    coords = _normalize(f, coords)
    if coords is None:
        return None
    witness = _witness(f, coords)
    if witness is None:
        return None
    try:
        kc = data.kperp_coords_of(coords)
    except ValueError:
        return None
    if not f.is_zero(data.q_star_polar(kc, kc)) or any(_quadrics(coords, coords, f.p)):
        return None
    return SurfacePoint(beta=tuple(coords), witness=witness, kperp_coords=tuple(kc))


def verify_surface_point(data: SpecialLagrangianData, pt: SurfacePoint) -> bool:
    f, p = data.field, data.p
    beta = list(pt.beta)
    if not f.is_zero(data.q_star(beta)) or any(_quadrics(beta, beta, p)):
        return False
    w1, w2, w3 = pt.witness.rows
    top = _wedge(_wedge(w1, w2, 1, 1, p), w3, 2, 1, p)
    return _normalize(f, top) == _normalize(f, beta)


# ---------------------------------------------------------------------------
# the maps to P(W) and G(3,W)


def phi(data: SpecialLagrangianData, p1: SurfacePoint, p2: SurfacePoint):
    """Image of an unordered point pair in P(W).

    Coordinates are the polar values, at the pair, of the five Pluecker
    quadrics (the V-part) and of the extra quadric (the v0-part).  Requires
    the connecting line to leave the Grassmannian cone: endpoints distinct
    and midpoint not decomposable.
    """
    f, p = data.field, data.p
    b1, b2 = list(p1.beta), list(p2.beta)
    if _normalize(f, b1) == _normalize(f, b2):
        raise DegenerateConfiguration("pair endpoints coincide")
    mid = [f.add(x, y) for x, y in zip(b1, b2)]
    if not any(mid):
        raise DegenerateConfiguration("pair endpoints are opposite")
    if _witness(f, mid) is not None:
        raise DegenerateConfiguration("the connecting line lies on the Grassmannian")
    inv2 = f.inv(f.from_int(2))
    coords_w = [f.mul(inv2, f.add(x, y))
                for x, y in zip(_quadrics(b1, b2, p), _quadrics(b2, b1, p))]
    coords_w.append(data.q_star_polar(list(p1.kperp_coords), list(p2.kperp_coords)))
    coords_w = _normalize(f, coords_w)
    if coords_w is None:
        raise DegenerateConfiguration("pair functional vanishes identically")
    return tuple(coords_w)


def phi_sextic_dim(data: SpecialLagrangianData, phi_vec) -> int:
    """dim(A ∩ F_[phi]); at least 1 exactly because phi lies on the
    degeneracy sextic of A."""
    f = data.field
    w = MultiVector.from_vector(f, 1, list(phi_vec))
    return intersection_dim(data.A, f_space(w))


def _quadric_row(data: SpecialLagrangianData, coords10):
    return _quadrics(coords10, coords10, data.p) + [data.q_star(list(coords10))]


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


def _chords(U1, U2, U3):
    """Spanning vectors of the lines U1 ∩ U2, U1 ∩ U3 and U2 ∩ U3."""
    lines = [intersect(U1, U2), intersect(U1, U3), intersect(U2, U3)]
    if any(line.dim != 1 for line in lines):
        raise DegenerateConfiguration("pairwise witness intersections are not lines")
    return [list(line.rows[0]) for line in lines]


def _adapt_basis(data: SpecialLagrangianData, p1: SurfacePoint, p2: SurfacePoint,
                 p3: SurfacePoint, rng):
    """Basis (v1..v5) of V with beta1 = v123, beta2 = v145, beta3 = v24(3+5).

    v1, v2, v4 span the pairwise intersections of the witness 3-spaces;
    v3 in U1 and v5 in U2 are chosen with v3 + v5 in U3.
    """
    f, p = data.field, data.p
    U1, U2, U3 = p1.witness, p2.witness, p3.witness
    v1, v2, v4 = _chords(U1, U2, U3)
    # v3 + v5 in U3 with v3 in U1, v5 in U2: impose the functionals cutting U3
    ells = right_nullspace([list(r) for r in U3.rows], f)
    sols = right_nullspace(mat_mul(ells, transpose(U1.rows + U2.rows), f), f)
    if not sols:
        raise DegenerateConfiguration("no adapted third vector")
    for _ in range(60):
        coeffs = [f.random(rng) for _ in sols]
        vec = mat_mul([coeffs], sols, f)[0]
        v3 = mat_mul([vec[:3]], U1.rows, f)[0]
        v5 = mat_mul([vec[3:]], U2.rows, f)[0]
        if rank([v1, v2, v3, v4, v5], f) != 5:
            continue
        # normalize the basis volume to 1 by rescaling v1: the pair images
        # then take the literal form (constant * v0 + basis vector)
        v12 = _wedge(v1, v2, 1, 1, p)
        rho = _wedge(_wedge(_wedge(v12, v3, 2, 1, p), v4, 3, 1, p), v5, 4, 1, p)[0]
        v1 = f.scale_row(f.inv(rho), v1)
        b1 = _wedge(_wedge(v1, v2, 1, 1, p), v3, 2, 1, p)
        b2 = _wedge(_wedge(v1, v4, 1, 1, p), v5, 2, 1, p)
        v35 = [f.add(a, b) for a, b in zip(v3, v5)]
        b3 = _wedge(_wedge(v2, v4, 1, 1, p), v35, 2, 1, p)
        if not (any(b1) and any(b2) and any(b3)):
            continue
        if any(_normalize(f, b) != _normalize(f, list(q.beta))
               for b, q in ((b1, p1), (b2, p2), (b3, p3))):
            raise AssertionError("adapted representatives do not match the points")
        return (v1, v2, v3, v4, v5), (b1, b2, b3)
    raise DegenerateConfiguration("could not adapt a basis to the triple")


def _adapted_system(data: SpecialLagrangianData, p1: SurfacePoint,
                    p2: SurfacePoint, p3: SurfacePoint, rng):
    """The adapted system of a triple and what it is built from.

    Returns (rows, phis, gens, constants, T): the normal-form pair images
    phis = (phi12, phi13, phi23), the six generators gens of A (the three
    lifted points, then v0 ^ K), the pair constants (c12, c13, c23), the
    tangent space T = T_U at U = span(phis), and the rows eta(t, g) for the
    ten basis vectors t of T, one column per generator g.  The 18 rows
    vol(g ^ phi_a ^ phi_b ^ e_m) span the same space, since the trivectors
    phi_a ^ phi_b ^ e_m span T_U.
    """
    f, p = data.field, data.p
    (v1, v2, v3, v4, v5), betas = _adapt_basis(data, p1, p2, p3, rng)
    alphas = []
    for bc in betas:
        alpha = solve(transpose(data.ytil), list(bc), f)
        if alpha is None:
            raise AssertionError("adapted representative left the image of the map")
        alphas.append(alpha)
    c12, c13, c23 = (_pairing(alphas[a], betas[b], p) for a, b in ((0, 1), (0, 2), (1, 2)))
    if (c12, c13, c23) != tuple(_pairing(alphas[b], betas[a], p)
                                for a, b in ((0, 1), (0, 2), (1, 2))):
        raise AssertionError("polar symmetry of the pair constants failed")
    phi12 = [*v1, c12]
    phi13 = [*v2, c13]
    phi23 = [*v4, f.neg(c23)]
    # the normal-form representatives agree with the intrinsic pair map
    for rep, (qa, qb) in ((phi12, (p1, p2)), (phi13, (p1, p3)), (phi23, (p2, p3))):
        if list(phi(data, qa, qb)) != _normalize(f, rep):
            raise AssertionError("normal-form pair image differs from the intrinsic one")
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
    T = tangent_space(LinearSubspace.from_vectors(f, 6, [phi12, phi13, phi23]))
    rows = mat_mul(mat_mul(T.rows, eta_gram(f), f), transpose(gens), f)
    return rows, (phi12, phi13, phi23), gens, (c12, c13, c23), T


def newsystem_dimension(data: SpecialLagrangianData, p1: SurfacePoint,
                        p2: SurfacePoint, p3: SurfacePoint, rng):
    """Assemble the linear system of an adapted triple.

    Unknowns are the six coefficients expressing an element of A through
    the three lifted points and v0 ^ K; the equations say the element lies
    in the tangent space T_U at the triple image U = <phi12, phi13, phi23>;
    as T_U is Lagrangian, that is eta(t, .) = 0 for every t in T_U.  Returns
    the rank (4 for a generic triple), the solution dimension (2), the
    comparison with the stratum of the image, and the certificate that no
    nonzero solution has vanishing point-coefficients.
    """
    f = data.field
    rows, _, _, constants, T = _adapted_system(data, p1, p2, p3, rng)
    rnk = rank(rows, f)
    sols = right_nullspace(rows, f)
    # the x = 0 slice must be trivial
    rows_x0 = [r[3:] for r in rows]
    x0_kernel = right_nullspace(rows_x0, f)
    return {
        "rank": rnk,
        "solution_dim": len(sols),
        "x_zero_solutions": len(x0_kernel),
        "stratum": intersection_dim(data.A, T),
        "constants": constants,
    }


# ---------------------------------------------------------------------------
# residual triples on the twisted cubic


@lru_cache(maxsize=None)
def _plane_points(p: int) -> np.ndarray:
    """The points of P^2(F_p), lead entry 1, as a read-only (p^2 + p + 1, 3)
    float32 table."""
    table = np.concatenate([batched.build_projective_block(desc, 3, p)
                            for desc in batched.projective_block_descriptors(3, p)]
                           ).astype(np.float32)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _dual_matrix() -> np.ndarray:
    """``_dual(., 2, p)`` as a read-only (10, 10) signed permutation matrix,
    before mod p."""
    D = np.zeros((10, 10), dtype=np.int64)
    for i, j, _, sign in _signs(2, 3):
        D[i, j] = sign
    D.flags.writeable = False
    return D


def _rank2_points(mats: np.ndarray, p: int) -> np.ndarray:
    """Normalized _dual(r_a ^ r_b, 2) for the first independent pair of rows
    of each rank-2 3x5 matrix: the rows of an (N, 10) int64 array."""
    r = mats.astype(np.int64)
    i, j = (np.array(SUBV[2]) - 1).T
    wedges = np.stack([r[:, a, i] * r[:, b, j] - r[:, a, j] * r[:, b, i]
                       for a, b in ((0, 1), (0, 2), (1, 2))], axis=1) % p
    first = np.argmax(wedges.any(axis=2), axis=1)
    x = wedges[np.arange(len(r)), first] @ _dual_matrix() % p
    lead = x[np.arange(len(r)), np.argmax(x != 0, axis=1)]
    return x * batched.inverse_table(p).astype(np.int64)[lead][:, None] % p


def _curve_points(data: SpecialLagrangianData, Uprime: LinearSubspace):
    """F_p points of the pencil-of-planes curve through U' inside P(K-perp),
    sorted, each with leading coefficient 1.

    Scans the plane of decomposable two-forms pi(lambda) of U'.  The 3x5
    condition matrices M(lambda)[j][m] = vol5(kappa_j ^ pi(lambda) ^ e_m) of
    all of P^2(F_p) come from one float32 product, points times R, of sums of
    3 reduced products (below 3 (p - 1)^2, bounded in ``matmul_mod_f32``), and
    their ranks from one ``batch_rank``.  The plane of pi(lambda) lies in
    ker M(lambda); at rank 2 the kernel adds one line v, and the curve point
    pi(lambda) ^ v spans wedge^3 ker M(lambda), which is _dual(r_a ^ r_b, 2)
    for any two independent rows r_a, r_b of M(lambda), so no kernel is
    computed.  At rank <= 1 the point depends on the kernel vector taken: the
    first of ``right_nullspace`` with a nonzero wedge.
    """
    f = data.field
    p = data.p
    t0, t1, t2 = Uprime.rows
    pis = [_wedge(t1, t2, 1, 1, p), _wedge(t2, t0, 1, 1, p), _wedge(t0, t1, 1, 1, p)]
    # R[s][j][m] = vol5(kappa_j ^ pi_s ^ e_m)
    R = np.array([[_dual(_wedge(k, pi, 2, 2, p), 4, p) for k in data.K.rows] for pi in pis],
                 dtype=np.float32)
    lams = _plane_points(p)
    mats = batched.matmul_mod_f32(lams, R.reshape(3, 15), p).reshape(-1, 3, 5)
    ranks = batched.batch_rank(mats, p, assume_reduced=True)
    points = set(map(tuple, _rank2_points(mats[ranks == 2], p).tolist()))
    low = np.flatnonzero(ranks < 2)
    for li, pim in zip(low, mat_mul(lams[low].astype(np.int64).tolist(), pis, f)):
        omegas = (_wedge(pim, v, 2, 1, p)
                  for v in right_nullspace(mats[li].astype(np.int64).tolist(), f))
        found = next((_normalize(f, w) for w in omegas if any(w)), None)
        if found is not None:
            points.add(tuple(found))
    return sorted(points)


def residual_triple(data: SpecialLagrangianData, p1: SurfacePoint,
                    p2: SurfacePoint, p3: SurfacePoint, rng):
    """The second triple with the same image: the residual three points of
    the surface on the twisted cubic through the given triple.

    Returns (gammas, info) when the residual cubic splits over F_p into
    three simple roots apart from the triple's, or None as a retry signal.
    """
    f = data.field
    p = data.p
    U1, U2, U3 = p1.witness, p2.witness, p3.witness
    Uprime = LinearSubspace.from_vectors(f, 5, _chords(U1, U2, U3))
    if Uprime.dim != 3:
        raise DegenerateConfiguration("the three chords do not span a 3-space")
    for U in (U1, U2, U3):
        if intersect(U, Uprime).dim != 2:
            raise DegenerateConfiguration("distinguished space fails the 2-plane meetings")
    points = _curve_points(data, Uprime)
    betas = [tuple(_normalize(f, list(q.beta))) for q in (p1, p2, p3)]
    if not set(betas) <= set(points):
        raise DegenerateConfiguration("triple points missing from the curve scan")
    spanC = LinearSubspace.from_vectors(f, 10, points)
    if spanC.dim != 4:
        raise DegenerateConfiguration(f"curve spans dimension {spanC.dim}, not 4")
    # projection forms vanishing on the chord through beta1, beta2
    chord = LinearSubspace.from_vectors(f, 10, [list(betas[0]), list(betas[1])])
    ann = right_nullspace([list(r) for r in chord.rows], f)
    spanT = transpose(spanC.rows)
    ells = None
    for _ in range(40):
        cand = mat_mul([[f.random(rng) for _ in ann] for _ in range(2)], ann, f)
        if rank(mat_mul(cand, spanT, f), f) == 2:
            ells = transpose(cand)
            break
    if ells is None:
        raise DegenerateConfiguration("no independent projection forms on the curve span")

    data_pts = [(tuple(t), pt) for pt, t in zip(points, mat_mul(points, ells, f))
                if pt not in (betas[0], betas[1]) and any(t)]
    fit_pts = {}      # the first point of each distinct parameter, at most 8
    for t, pt in data_pts:
        fit_pts.setdefault(tuple(_normalize(f, t)), (t, pt))
        if len(fit_pts) == 8:
            break
    fit_pts = list(fit_pts.values())
    if len(fit_pts) < 6:
        raise DegenerateConfiguration("not enough distinct parameters on the curve")
    # fit omega(s,t) = sum_d W_d s^d t^(3-d) in K-perp coordinates
    nuk = len(fit_pts)
    cols = 28 + nuk
    rows_fit = []
    for i, (t, pt) in enumerate(fit_pts):
        c = data.kperp_coords_of(list(pt))
        mono = _monomials(f, *t)
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

    curve = mat_mul(W, data.kperp.rows, f)

    def omega_at(params):
        return mat_mul([_monomials(f, s0, t0) for s0, t0 in params], curve, f)

    # locate the parameters of all three triple points by scanning P^1
    param_points = [(f.from_int(s), f.one) for s in range(p)] + [(f.one, f.zero)]
    images = [_normalize(f, coords) for coords in omega_at(param_points)]
    beta_params = []
    for b in betas:
        found = [st for st, image in zip(param_points, images) if image == list(b)]
        if len(found) != 1:
            raise DegenerateConfiguration("triple point not uniquely parametrized")
        beta_params.append(found[0])
    # the restriction of the extra quadric: a binary sextic
    residual = _residual_roots(data.q_star_on(W), beta_params, p)
    if residual is None:
        return None
    gammas = []
    for coords in omega_at(residual):
        pt = _finish_point(data, coords)
        if pt is None:
            return None
        gammas.append(pt)
    return gammas, {"curve_points": len(points)}


def _residual_roots(sext, beta_params, p):
    """The roots of the binary sextic other than the triple's three, in scan
    order, or None unless the residual cubic splits into three simple roots
    apart from them: that is, unless the sextic is nonzero with six distinct
    roots on P^1(F_p)."""
    roots = _binary_roots(sext, p)
    if not set(beta_params) <= set(roots):
        raise AssertionError("triple parameter is not a root of the sextic")
    if len(roots) != 6 or not any(sext):
        return None
    return [r for r in roots if r not in beta_params]


def _monomials(f, s0, t0):
    """s^d t^(3-d) at (s0, t0) for d = 0..3."""
    return [f.mul(pow(s0, d, f.p), pow(t0, 3 - d, f.p)) for d in range(4)]


def _binary_roots(form, p):
    """The points of P^1(F_p) where the binary form sum_d form[d] s^d t^(n-d)
    vanishes: (s, 1) in ascending s, then (1, 0) when the top coefficient is 0."""
    roots = []
    for s in range(p):
        acc = 0
        for c in reversed(form):
            acc = (acc * s + c) % p
        if acc == 0:
            roots.append((s, 1))
    if form[-1] % p == 0:
        roots.append((1, 0))
    return roots

"""Slow reference routes that tests compare production paths against."""

from functools import lru_cache
from itertools import combinations

import numpy as np

from lagstrata import batched
from lagstrata.chart import (ChartPreconditionError, chart_matrix_of, chart_quadric,
                             _series_matrix, smith_valuations)
from lagstrata.dualk3 import (_binary_roots, _dual, _normalize, _pairing, _wedge,
                              w3_embed)
from lagstrata.exterior import DIM_W, GradeError, MultiVector, TOP, eta, merge_table, wedge
from lagstrata.fields import check_same_field
from lagstrata.lagrangian import LAG_DIM, TRI_DIM, NotTransverseError, is_decomposable
from lagstrata.linalg import LinearSubspace, mat_mul, right_nullspace, solve, transpose
from lagstrata.strata import _require_prime_field, _witness_subspace, stratum
from lagstrata.unipoly import PolyRing


def grassmann_block_descriptors(p: int, chunk: int = 32768):
    """Disjoint block descriptors covering every echelon representative once."""
    batched.check_chunk(chunk)
    out = []
    for pattern in batched.pivot_patterns():
        slots = batched.free_slots(pattern)
        total = p ** len(slots)
        start = 0
        while start < total:
            count = min(chunk, total - start)
            out.append((pattern, tuple(slots), start, count))
            start += count
    return out


def intersection_dims_for_groups_f32(desc, D, p: int) -> np.ndarray:
    """``batched.intersection_dims_for_groups`` by its float32 route, the
    oracle of the bit-plane ranks: Z(x) = Y_0' + sum_t x_t Y_t' for every x
    from one float32 product of the digit rows (1, x_1, .., x_f) with the
    residuals, ranked by ``batch_rank``; any p <= MAX_PRIME."""
    y, full = batched.group_residuals(desc, D, p)
    f = y.shape[0] - 1
    xs = np.ones((p**f, 1 + f), dtype=np.float32)
    rest = np.arange(p**f, dtype=np.int64)
    for t in range(1, 1 + f):
        np.divmod(rest, p, out=(rest, xs[:, t]))
    z = np.matmul(xs, y.reshape(1 + f, 36, -1).transpose(1, 0, 2))
    rank = batched.batch_rank(z.reshape(6, 6, -1).transpose(2, 0, 1), p, in_place=True)
    return batched.fill_rank_deficient(desc, D, p, (6 - rank).reshape(p**f, -1), full)


def census_brute(A) -> dict:
    """Reference census by pure-Python strata; only sensible for p = 2."""
    p = _require_prime_field(A)
    field = A.field
    counts: dict[int, int] = {}
    for desc in grassmann_block_descriptors(p, chunk=4096):
        for m in batched.build_grassmann_block(desc, p):
            k = stratum(A, _witness_subspace(field, m))
            counts[k] = counts.get(k, 0) + 1
    return counts


def q_star_by_solve(data, beta_coords):
    """``data.q_star`` by the oracle route: solve for a preimage and pair it with beta."""
    f = data.field
    alpha = solve(transpose(data.ytil), list(beta_coords), f)
    if alpha is None:
        raise ValueError("trivector lies outside the image of the map")
    return _pairing(alpha, list(beta_coords), f.p)


class MinorForm:
    """One (11-l) x (11-l) minor of the family B -> Q(B) - Q_A.

    Kept unexpanded; evaluation plugs in a numeric B.  Along the line
    B = t * direction the minor is a univariate polynomial of degree at
    most 3 + 2 + (size - 2).
    """

    __slots__ = ("field", "qa", "rows", "cols")

    def __init__(self, field, qa, rows, cols):
        self.field = field
        self.qa = qa
        self.rows = tuple(rows)
        self.cols = tuple(cols)

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def degree_bound(self) -> int:
        return self.size + 3

    def _submatrix(self, Q):
        f = self.field
        return [[f.sub(Q[r][c], self.qa[r][c]) for c in self.cols] for r in self.rows]

    def evaluate(self, B):
        """Value of the minor at a numeric chart point."""
        Q = chart_quadric(B, self.field)
        return _det(self._submatrix(Q), self.field)

    def restrict_line(self, direction, interp_points=None):
        """Exact univariate polynomial of the minor along B = t * direction.

        Uses evaluation and interpolation; over F_p this needs p to exceed
        the degree bound.
        """
        f = self.field
        d = self.degree_bound
        if interp_points is None:
            if f.characteristic and f.characteristic <= d + 1:
                raise ValueError("field too small for interpolation; supply points")
            interp_points = [f.from_int(n) for n in range(d + 1)]
        ys = []
        for x in interp_points:
            B = [[f.mul(x, direction[i][j]) for j in range(3)] for i in range(3)]
            ys.append(self.evaluate(B))
        return lagrange_interpolate(interp_points, ys, f)


def _det(M, field):
    n = len(M)
    m = [list(r) for r in M]
    det = field.one
    for c in range(n):
        piv = None
        for r in range(c, n):
            if not field.is_zero(m[r][c]):
                piv = r
                break
        if piv is None:
            return field.zero
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = field.neg(det)
        det = field.mul(det, m[c][c])
        inv = field.inv(m[c][c])
        for r in range(c + 1, n):
            if field.is_zero(m[r][c]):
                continue
            fkt = field.mul(m[r][c], inv)
            m[r] = [field.sub(m[r][k], field.mul(fkt, m[c][k])) for k in range(n)]
    return det


def local_equations(A: LinearSubspace, level: int):
    """Generators of the stratum-l locus near [U0]: all (11-l)-minors.

    Requires A transverse to T_Uinf so that Q_A exists; evaluation of every
    generator at a numeric B vanishes iff dim(A ∩ T_{U_B}) >= l.
    """
    if not 1 <= level <= 4:
        raise ValueError("level must be in 1..4")
    qa = chart_matrix_of(A)
    size = 11 - level
    field = A.field
    idxs = list(combinations(range(10), size))
    return [MinorForm(field, qa, rows, cols) for rows in idxs for cols in idxs]


def vanishing_order(A: LinearSubspace, level: int, direction, max_order: int = 8) -> int:
    """Minimal vanishing order at t = 0 of the (11-level)-minors along
    B = t * direction.

    Equals the sum of the 11-level smallest elementary-divisor valuations
    of Q(t*direction) - Q_A over the power-series ring; raises when the
    order would exceed ``max_order`` (a degenerate direction).
    """
    if not 1 <= level <= 4:
        raise ValueError("level must be in 1..4")
    cap = max_order + 1
    mat, ring = _series_matrix(A, direction)
    vals = smith_valuations(mat, ring, cap)
    s = 11 - level
    chosen = vals[:s]
    if any(v is None for v in chosen):
        raise ChartPreconditionError(
            f"vanishing order exceeds max_order={max_order}; degenerate direction")
    total = sum(chosen)
    if total > max_order:
        raise ChartPreconditionError(
            f"vanishing order {total} exceeds max_order={max_order}")
    return total


def smith_valuations_by_series(mat, ring: PolyRing, cap: int):
    """``chart.smith_valuations`` by the series route: Smith normal form with
    row and column steps over the truncated power series of ``ring``, pivot
    units inverted as series.

    Valuations of the elementary divisors of a matrix over F[[t]], mod t^cap.

    Returns a sorted list with None for divisors of valuation >= cap.  The
    sum of the s smallest valuations is the minimal vanishing order among
    the s x s minors.
    """
    field = ring.field
    m = [[ring.truncate(e, cap) for e in row] for row in mat]
    n = len(m)
    vals = []
    for step in range(n):
        best = None
        for i in range(step, n):
            for j in range(step, n):
                v = ring.valuation(m[i][j])
                if v is not None and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            vals.extend([None] * (n - step))
            break
        v, bi, bj = best
        if bi != step:
            m[step], m[bi] = m[bi], m[step]
        if bj != step:
            for row in m:
                row[step], row[bj] = row[bj], row[step]
        pivot = m[step][step]
        unit = ring.shift_down(pivot, v)
        unit_inv = ring.series_inverse(unit, cap)
        for i in range(step + 1, n):
            e = m[i][step]
            ve = ring.valuation(e)
            if ve is None:
                continue
            f = ring.mul_trunc(ring.shift_down(e, v), unit_inv, cap)
            for j in range(step, n):
                m[i][j] = ring.truncate(ring.sub(m[i][j], ring.mul(f, m[step][j])), cap)
        for j in range(step + 1, n):
            e = m[step][j]
            ve = ring.valuation(e)
            if ve is None:
                continue
            g = ring.mul_trunc(ring.shift_down(e, v), unit_inv, cap)
            for i in range(step, n):
                m[i][j] = ring.truncate(ring.sub(m[i][j], ring.mul(g, m[i][step])), cap)
        vals.append(v)
    return sorted(vals, key=lambda x: (x is None, x))


def mat_mul_by_dot(A, B, field):
    """``linalg.mat_mul`` as one ``field.dot`` per entry."""
    cols = list(zip(*B))
    return [[field.dot(row, col) for col in cols] for row in A]


def lagrange_interpolate(xs, ys, field):
    """The unique polynomial of degree < len(xs) through the given points."""
    ring = PolyRing(field)
    n = len(xs)
    if len(set(field.to_str(x) for x in xs)) != n:
        raise ValueError("interpolation nodes must be distinct")
    result = ring.zero
    for i in range(n):
        num = ring.one
        den = field.one
        for j in range(n):
            if j == i:
                continue
            num = ring.mul(num, (field.neg(xs[j]), field.one))
            den = field.mul(den, field.sub(xs[i], xs[j]))
        result = ring.add(result, ring.scale(field.mul(ys[i], field.inv(den)), num))
    return result


def wedge_coefficient(a: MultiVector, b: MultiVector, M):
    """Coefficient of e_M in a ^ b, summing only the terms that merge to M."""
    check_same_field(a.field, b.field)
    if a.grade + b.grade > DIM_W:
        raise GradeError(f"wedge grade {a.grade + b.grade} exceeds {DIM_W}")
    f = a.field
    M = tuple(sorted(M))
    s = f.zero
    if len(M) != a.grade + b.grade:
        return s
    table = merge_table(a.grade, b.grade)
    bc = b.coords
    for I, ca in a.coords.items():
        for J, (sign, merged) in table[I].items():
            if merged == M:
                cb = bc.get(J)
                if cb is not None:
                    t = f.mul(ca, cb)
                    s = f.add(s, t) if sign > 0 else f.sub(s, t)
                break
    return s


def is_lagrangian_rows(rows, field) -> bool:
    mvs = [MultiVector.from_vector(field, 3, list(r)) for r in rows]
    for i in range(len(mvs)):
        for j in range(i + 1, len(mvs)):
            if not field.is_zero(eta(mvs[i], mvs[j])):
                return False
    return True


def is_lagrangian(S: LinearSubspace) -> bool:
    return S.ambient == TRI_DIM and S.dim == LAG_DIM and is_lagrangian_rows(S.rows, S.field)


def chart_point_of(U: LinearSubspace):
    """Inverse of chart_subspace; fails when U meets <e4,e5,e6>."""
    if U.ambient != 6 or U.dim != 3:
        raise ValueError("expected a rank-3 subspace of the 6-dimensional space")
    rows = [list(r) for r in U.rows]
    field = U.field
    # rows are already in rref; the chart is exactly pivot pattern (0,1,2)
    pivots = []
    for r in rows:
        for j, x in enumerate(r):
            if not field.is_zero(x):
                pivots.append(j)
                break
    if pivots != [0, 1, 2]:
        raise NotTransverseError("subspace lies outside the graph chart")
    return [r[3:] for r in rows]


# Schur polynomials in three variables: the G(3,6) oracle for schubert.basis_product


def _norm(p):
    return tuple(sorted((x for x in p if x), reverse=True))


@lru_cache(maxsize=None)
def schur_monomials(lam):
    """Monomials of s_lam(x1,x2,x3) as {exponent triple: coeff}, from the
    semistandard tableaux of shape lam in the entries 1, 2, 3."""
    lam = _norm(lam)
    if len(lam) > 3:
        return {}
    rows = list(lam) + [0] * (3 - len(lam))
    out: dict = {}

    def fill(r, c, prev_row, cur_row, weight):
        if r == 3:
            key = tuple(weight)
            out[key] = out.get(key, 0) + 1
            return
        if c == rows[r]:
            fill(r + 1, 0, cur_row, [], weight)
            return
        lo = cur_row[c - 1] if c else 1
        if r > 0:
            lo = max(lo, prev_row[c] + 1)
        for v in range(lo, 4):
            weight[v - 1] += 1
            fill(r, c + 1, prev_row, cur_row + [v], weight)
            weight[v - 1] -= 1

    fill(0, 0, [], [], [0, 0, 0])
    return out


@lru_cache(maxsize=None)
def schur_product(lam, mu):
    """Decomposition of s_lam * s_mu into Schur polynomials (3 rows), by
    repeated subtraction of the lexicographically leading one."""
    lam, mu = _norm(lam), _norm(mu)
    prod: dict = {}
    for e1, c1 in schur_monomials(lam).items():
        for e2, c2 in schur_monomials(mu).items():
            key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            prod[key] = prod.get(key, 0) + c1 * c2
    result: dict = {}
    while prod:
        lead = max(prod)
        coeff = prod[lead]
        assert lead[0] >= lead[1] >= lead[2], "leading monomial must be a partition"
        result[_norm(lead)] = coeff
        for e, c in schur_monomials(_norm(lead)).items():
            prod[e] = prod.get(e, 0) - coeff * c
        prod = {k: v for k, v in prod.items() if v}
    return result


def g36_schur_product(lam, mu):
    """sigma_lam * sigma_mu in A*(G(3,6)): the Schur product truncated to the 3x3 box."""
    return {nu: c for nu, c in schur_product(lam, mu).items() if not nu or nu[0] <= 3}


# The dual-K3 routes through W that dualk3 replaced by computations on V


def witness_through_w(field, beta):
    """Decomposability of beta in wedge^3 V tested in wedge^3 W: the 6x15
    ``is_decomposable`` on its embedding, the witness rows cut to V (their
    e6 entries must vanish)."""
    ok, U = is_decomposable(MultiVector.from_vector(field, 3, w3_embed(field, beta)))
    if not ok:
        return None
    assert all(field.is_zero(r[5]) for r in U.rows)
    return LinearSubspace.from_vectors(field, 5, [list(r[:5]) for r in U.rows])


def adapted_wedge_rows(field, phis, gens):
    """The 18 rows vol(g ^ phi_a ^ phi_b ^ e_m) of the adapted system, one
    column per generator g, by MultiVector wedges in W."""
    phimv = [MultiVector.from_vector(field, 1, list(v)) for v in phis]
    genmv = [MultiVector.from_vector(field, 3, list(g)) for g in gens]
    rows = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        fives = [wedge(g, wedge(phimv[a], phimv[b])) for g in genmv]
        for m in range(1, DIM_W + 1):
            em = MultiVector.basis(field, (m,))
            rows.append([wedge_coefficient(x, em, TOP) for x in fives])
    return rows


def deflate_binary(form, root, p):
    """The binary form sum_d form[d] s^d t^(n-d) divided by (t0 s - s0 t)
    for a root (s0, t0) of it, as the coefficients of a form of degree n-1."""
    s0, t0 = root
    if t0 % p == 0:
        assert form[-1] % p == 0, "infinity is not a root"
        return list(form[:-1])
    r = list(form)
    q = [0] * (len(form) - 1)
    inv = pow(t0, p - 2, p)
    for d in range(len(form) - 1, 0, -1):   # divide form(s, 1) by t0 s - s0
        q[d - 1] = r[d] * inv % p
        r[d - 1] = (r[d - 1] + q[d - 1] * s0) % p
    assert r[0] % p == 0, "the claimed root does not divide the form"
    return q


def residual_roots_by_deflation(sext, beta_params, p):
    """The residual roots by the deflation route: divide the sextic by the
    triple's three linear forms and scan the residual cubic; its roots when
    they are three and none is the triple's, else None."""
    residual = list(sext)
    for root in beta_params:
        residual = deflate_binary(residual, root, p)
    roots = _binary_roots(residual, p)
    if len(roots) != 3 or set(roots) & set(beta_params):
        return None
    return roots


def curve_points_by_nullspace(data, Uprime):
    """The curve scan by the per-hit route that ``dualk3._curve_points``
    replaced: an int64 einsum over P^2(F_p), then for each rank-<=2 point a
    pure-Python kernel of its condition matrix and the first nonzero wedge
    pi(lambda) ^ v, normalized."""
    f = data.field
    p = data.p
    t0, t1, t2 = Uprime.rows
    pis = [_wedge(t1, t2, 1, 1, p), _wedge(t2, t0, 1, 1, p), _wedge(t0, t1, 1, 1, p)]
    # rows R[j][s][m] = vol5(kappa_j ^ pi_s ^ e_m)
    R = np.array([[_dual(_wedge(k, pi, 2, 2, p), 4, p) for pi in pis] for k in data.K.rows],
                 dtype=np.int64)
    lams = []
    for desc in batched.projective_block_descriptors(3, p, chunk=1 << 14):
        lams.append(batched.build_projective_block(desc, 3, p))
    lams = np.concatenate(lams)
    mats = np.einsum("ls,jsm->ljm", lams % p, R) % p
    ranks = batched.batch_rank(mats, p)
    points = []
    hits = np.nonzero(ranks <= 2)[0]
    for li, pim in zip(hits, mat_mul(lams[hits].tolist(), pis, f)):
        omegas = (_wedge(pim, v, 2, 1, p) for v in right_nullspace(mats[li].tolist(), f))
        found = next((_normalize(f, w) for w in omegas if any(w)), None)
        if found is not None:
            points.append(tuple(found))
    return sorted(set(points))

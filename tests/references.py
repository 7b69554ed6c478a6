"""Slow reference routes that tests compare production paths against."""

from functools import lru_cache
from itertools import combinations

from lagstrata import batched
from lagstrata.chart import (ChartPreconditionError, chart_matrix_of, chart_quadric,
                             _series_matrix, smith_valuations)
from lagstrata.dualk3 import _pairing
from lagstrata.lagrangian import (LAG_DIM, TRI_DIM, NotTransverseError,
                                  is_lagrangian_rows)
from lagstrata.linalg import LinearSubspace, solve, transpose
from lagstrata.strata import _require_prime_field, _witness_subspace, stratum
from lagstrata.unipoly import PolyRing


def census_brute(A) -> dict:
    """Reference census by pure-Python strata; only sensible for p = 2."""
    p = _require_prime_field(A)
    field = A.field
    counts: dict[int, int] = {}
    for desc in batched.grassmann_block_descriptors(p, chunk=4096):
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

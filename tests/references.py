"""Slow reference routes that tests compare production paths against."""

from itertools import combinations

from lagstrata import batched
from lagstrata.chart import (ChartPreconditionError, chart_matrix_of, chart_quadric,
                             _series_matrix, smith_valuations)
from lagstrata.dualk3 import _pairing
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

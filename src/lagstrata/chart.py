"""The graph chart of G(3,W) at U0 = <e1,e2,e3> and its stratum equations.

Points near [U0] are graphs of maps U0 -> Uinf = <e4,e5,e6>, written as 3x3
matrices B; the tangent Lagrangian T_{U_B} is then the graph of an explicit
quadratic form on T_{U0}.  The form is computed here in closed form (minors
of B) and pinned, entry for entry, to the matrix produced by the frame
machinery in :mod:`lagstrata.lagrangian`: with the derivative basis used by
:func:`chart_frame`, the classical coordinate display holds up to the
global unit -2 and the sign of the top coordinate, both of which are basis
conventions.  The normalization chosen here makes every matrix entry a
polynomial in B with integer coefficients.

Stratum loci are cut out by minors of the matrix family B -> Q(B) - Q_A;
full 9-variable expansions of those minors are infeasible and unnecessary:
vanishing orders along lines through B = 0 are the valuations of the
elementary divisors of Q(t*d) - Q_A over the truncated power-series ring.
Each entry of Q is homogeneous in B, so that matrix is read by position off
one scalar Q(d), and its valuations come from fraction-free row elimination
on coefficient lists of ints (mod p over F_p), in the manner of Bareiss.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

import numpy as np

from . import batched
from .exterior import MultiVector, wedge
from .linalg import (LinearSubspace, rank, right_nullspace, mat_mul, transpose,
                     symmetric_with_kernel)
from .lagrangian import (LagrangianFrame, tangent_space,
                         graph_of, lagrangian_from_graph, is_decomposable,
                         random_subspace)
from .unipoly import PolyRing


# kernels over QQ are certified mod this prime
CERTIFICATE_PRIME = 101


class ChartPreconditionError(ValueError):
    """A chart operation was applied outside its stated domain."""


@lru_cache(maxsize=None)
def chart_frame(field) -> LagrangianFrame:
    """Frame (T_U0, T_Uinf) in the derivative bases of the graph chart.

    The T_U0 basis is e123 followed by the nine derivatives of the wedge
    of the rows of [I | B] at B = 0, in row-major (i, j) order; same for
    T_Uinf with the roles of U0 and Uinf exchanged.
    """
    def adapted(rf, rt):
        base = [MultiVector.basis(field, (k,)) for k in rf]
        rows = [wedge(wedge(base[0], base[1]), base[2]).to_vector()]
        for i in range(3):
            for j in range(3):
                vecs = list(base)
                vecs[i] = MultiVector.basis(field, (rt[j],))
                rows.append(wedge(wedge(vecs[0], vecs[1]), vecs[2]).to_vector())
        return rows

    return LagrangianFrame(field, adapted((1, 2, 3), (4, 5, 6)),
                           adapted((4, 5, 6), (1, 2, 3)))


def chart_subspace(field, B) -> LinearSubspace:
    """Row span of [I | B]: the rank-3 subspace the chart point names."""
    rows = [[field.one if j == i else field.zero for j in range(3)] + list(B[i])
            for i in range(3)]
    return LinearSubspace.from_vectors(field, 6, rows)


def _idx(i: int, j: int) -> int:
    return 1 + 3 * i + j


def chart_quadric(B, field):
    """Symmetric 10x10 matrix of the quadratic form whose graph is T_{U_B}.

    The matrix equals graph_of(chart_frame(field), tangent_space(chart_subspace(B)))
    exactly.  Entry (0, 0), -2 det B, is cubic in B, the rest of row and
    column 0 (the cofactors) is quadratic, and every other entry is linear.
    """
    zero = field.zero
    S = [[zero for _ in range(10)] for _ in range(10)]

    def minor(M, rows, cols):
        (r1, r2), (c1, c2) = rows, cols
        return field.sub(field.mul(M[r1][c1], M[r2][c2]), field.mul(M[r1][c2], M[r2][c1]))

    def cof(M, i, j):
        rows = tuple(r for r in range(3) if r != i)
        cols = tuple(c for c in range(3) if c != j)
        m = minor(M, rows, cols)
        return m if (i + j) % 2 == 0 else field.neg(m)

    det = zero
    for j in range(3):
        det = field.add(det, field.mul(B[0][j], cof(B, 0, j)))
    S[0][0] = field.neg(field.add(det, det))
    for i in range(3):
        for j in range(3):
            c = cof(B, i, j)
            S[0][_idx(i, j)] = c
            S[_idx(i, j)][0] = c
    for i in range(3):
        for j in range(3):
            b = B[i][j]
            if field.is_zero(b):
                continue
            r1, r2 = tuple(r for r in range(3) if r != i)
            c1, c2 = tuple(c for c in range(3) if c != j)
            s_plus = field.neg(b) if (i + j) % 2 == 0 else b
            s_minus = field.neg(s_plus)
            for a, bb, v in ((_idx(r1, c1), _idx(r2, c2), s_plus),
                             (_idx(r1, c2), _idx(r2, c1), s_minus)):
                S[a][bb] = field.add(S[a][bb], v)
                S[bb][a] = field.add(S[bb][a], v)
    return S


def graph_matrix_of_tangent(field, B):
    """Oracle route to the same matrix, through the frame machinery."""
    return graph_of(chart_frame(field), tangent_space(chart_subspace(field, B)))


def chart_matrix_of(A: LinearSubspace):
    """Q_A: the symmetric matrix whose graph over the chart frame is A."""
    return graph_of(chart_frame(A.field), A)


def chart_kernel_coords(A: LinearSubspace):
    """Coordinates (in the chart basis of T_U0) of A ∩ T_U0."""
    QA = chart_matrix_of(A)
    return right_nullspace(QA, A.field)


def linear_part_matrices(field):
    """The nine matrices dQ(B)/db_ij at B = 0.

    Only the block bilinear in the mixed coordinates survives, so each is
    chart_quadric evaluated at the matrix unit E_ij.
    """
    out = []
    for i in range(3):
        for j in range(3):
            E = [[field.one if (a, b) == (i, j) else field.zero for b in range(3)]
                 for a in range(3)]
            out.append(chart_quadric(E, field))
    return out


def _series_matrix(A: LinearSubspace, direction):
    """Q(t * direction) - Q_A as a matrix of polynomials in t.

    Returns ``(mat, ring)`` with entries in ``ring``'s coefficient tuples.
    Q(0) = 0 and each entry of chart_quadric is homogeneous in B (cubic at
    (0, 0), quadratic in the rest of row and column 0, linear elsewhere), so
    entry (i, j) is -Q_A[i][j] + t^deg * Q(direction)[i][j].
    """
    field = A.field
    qa = chart_matrix_of(A)
    q = chart_quadric(direction, field)
    mat = []
    for i in range(10):
        row = []
        for j in range(10):
            coeffs = [field.neg(qa[i][j])] + [field.zero] * ((i == 0) + (j == 0)) + [q[i][j]]
            while coeffs and field.is_zero(coeffs[-1]):
                coeffs.pop()
            row.append(tuple(coeffs))
        mat.append(row)
    return mat, PolyRing(field)


def smith_valuations(mat, ring: PolyRing, cap: int):
    """Valuations of the elementary divisors of a square matrix over F[[t]], mod t^cap.

    Returns a sorted list with None for divisors of valuation >= cap.  The
    sum of the s smallest valuations is the minimal vanishing order among
    the s x s minors.

    Fraction free: each entry of ``ring`` is read as its first ``cap``
    coefficients, over QQ as ints after scaling each row by the lcm of its
    denominators (a unit, so no valuation moves).  Each step takes a pivot
    t^v*u(t), u(0) != 0, of least valuation among the live rows and columns;
    every other live row with t^v*e(t) in the pivot column becomes
    u*row - e*pivot_row mod t^cap, over QQ divided by the gcd of its
    coefficients.  Both are invertible row operations over F[[t]].  The
    pivot row and column then retire: the column steps that would clear the
    pivot row change no other row, so they are not needed.
    """
    p = ring.field.characteristic
    n = len(mat)
    m = []
    for row in mat:
        coeffs = [(list(e) + [0] * cap)[:cap] for e in row]
        if p:
            coeffs = [[x % p for x in c] for c in coeffs]
        else:
            d = lcm(*(x.denominator for c in coeffs for x in c))
            coeffs = [[x.numerator * (d // x.denominator) for x in c] for c in coeffs]
        m.append(coeffs)
    rows, cols = list(range(n)), list(range(n))
    vals = []
    while rows:
        best = None
        for i in rows:
            for j in cols:
                v = next((k for k, x in enumerate(m[i][j]) if x), None)
                if v is not None and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            vals.extend([None] * len(rows))
            break
        v, pi, pj = best
        rows.remove(pi)
        cols.remove(pj)
        prow = m[pi]
        unit = prow[pj][v:]
        for i in rows:
            row = m[i]
            e = row[pj][v:]
            if not any(e):
                continue
            for j in cols:
                x, y = row[j], prow[j]
                # every live entry has valuation >= v, so only b >= v counts
                new = [sum(unit[k - b] * x[b] - e[k - b] * y[b] for b in range(v, k + 1))
                       for k in range(cap)]
                row[j] = [c % p for c in new] if p else new
            if not p:
                g = gcd(*(c for j in cols for c in row[j]))
                if g > 1:
                    for j in cols:
                        row[j] = [c // g for c in row[j]]
        vals.append(v)
    return sorted(vals, key=lambda x: (x is None, x))


def decomposable_point_in(field, coords_rows, rng=None, samples: int = 200):
    """Search P(K) for a decomposable trivector, K given in chart coordinates.

    First a certificate: when the Pluecker quadrics restricted to K span all
    k(k+1)/2 quadratic forms on K mod p, P(K) misses G(3,6) over the algebraic
    closure and the answer is None.  Over F_p this uses p; over QQ each
    trivector row is scaled to integers and reduced mod CERTIFICATE_PRIME,
    still a certificate since the rank mod p is at most the rank over QQ.
    Otherwise P(K) is searched, exhaustively by the same quadrics for prime
    fields with at most 7 elements, by sampling otherwise.  Returns a witness
    coordinate vector confirmed by the exact test, or None.
    """
    k = len(coords_rows)
    if k == 0:
        return None
    tri = mat_mul(coords_rows, chart_frame(field).l0_rows, field)
    p = field.characteristic or CERTIFICATE_PRIME
    if not field.characteristic:
        tri_int = []
        for row in tri:
            scale = lcm(*(x.denominator for x in row))
            tri_int.append([x.numerator * (scale // x.denominator) for x in row])
    else:
        tri_int = tri
    forms = batched.restricted_quadrics(
        np.array([[x % p for x in row] for row in tri_int], dtype=np.int64), p)
    if len(forms) == k * (k + 1) // 2:
        return None

    def check(coeffs):
        vec = mat_mul([coeffs], tri, field)[0]
        if all(field.is_zero(x) for x in vec):
            return None
        ok, _ = is_decomposable(MultiVector.from_vector(field, 3, vec))
        return list(coeffs) if ok else None

    if p <= 7:
        for desc in batched.projective_block_descriptors(k, p):
            combos = batched.build_projective_block(desc, k, p)
            for i in batched.quadric_zeros(combos, forms, p):
                hit = check([field.from_int(int(c)) for c in combos[i]])
                if hit:
                    return hit
        return None
    if rng is None:
        raise ValueError("sampled decomposability check needs an rng")
    for _ in range(samples):
        coeffs = [field.random(rng) for _ in range(k)]
        if all(field.is_zero(c) for c in coeffs):
            continue
        hit = check(coeffs)
        if hit:
            return hit
    return None


def kernel_restriction_rank(A: LinearSubspace, rng=None, samples: int = 200) -> int:
    """Rank of B -> (linear part of Q(B)) restricted to K = A ∩ T_U0.

    K must be at most 3-dimensional and P(K) free of decomposable vectors
    (certified by the restricted Pluecker quadrics in decomposable_point_in,
    else searched exhaustively over small prime fields and by sampling
    otherwise); under those conditions the map from the 9 chart directions
    onto the quadratic forms on K is surjective, so the rank is k(k+1)/2.
    """
    field = A.field
    K = chart_kernel_coords(A)
    k = len(K)
    if k > 3:
        raise ChartPreconditionError(f"dim(A ∩ T_U0) = {k} > 3")
    if k == 0:
        return 0
    witness = decomposable_point_in(field, K, rng=rng, samples=samples)
    if witness is not None:
        raise ChartPreconditionError(f"P(K) contains a decomposable point: {witness}")
    rows = []
    for N in linear_part_matrices(field):
        R = mat_mul(mat_mul(K, N, field), transpose(K), field)
        rows.append([R[a][b] for a in range(k) for b in range(a, k)])
    return rank(rows, field)


def plant_corank(field, k: int, rng, decomposable_free: bool = False):
    """Random Lagrangian transverse to T_Uinf with dim(A ∩ T_U0) = k.

    Returns (A, kernel_coords).  With ``decomposable_free`` the kernel is
    re-drawn until decomposable_point_in finds no decomposable point; a
    generic kernel is certified by the restricted Pluecker quadrics and
    consumes nothing from ``rng`` there.
    """
    frame = chart_frame(field)
    for _ in range(50):
        K = random_subspace(field, 10, k, rng) if k else None
        kernel_rows = [list(r) for r in K.rows] if K else []
        if decomposable_free and k:
            if decomposable_point_in(field, kernel_rows, rng=rng, samples=60) is not None:
                continue
        M = symmetric_with_kernel(field, 10, kernel_rows, rng)
        A = lagrangian_from_graph(frame, M)
        return A, kernel_rows
    raise ChartPreconditionError("could not plant a decomposable-free kernel")

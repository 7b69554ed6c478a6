"""Dense exact linear algebra over a coefficient field.

Matrices are lists of row lists of field scalars.  Echelon forms are fully
reduced with pivots normalized to 1 and pivot columns chosen left to right,
so the row space of a matrix has a unique representative and subspace
equality is matrix equality.

Over QQ, ``RationalField.rref`` clears each row's denominators and runs
fraction-free Gauss-Jordan on ints: the step at pivot p_k (row P, column c)
turns every other row R, also one with R[c] = 0, into
(p_k*R - R[c]*P)/p_{k-1}, so entries stay minors and the division is exact;
the last pivot divides out at the end.  Its rows are nonzero multiples of
those of per-row ``Fraction`` elimination, so pivots and row swaps agree,
and the reduced echelon form is unique, so the result is the same.
``RationalField.mat_mul`` clears the denominators of each row of A and each
column of B once in the same way and sums each entry on ints; ``Fraction``
is canonical, so the entries are those of ``dot``.  Over F_p, ``rref`` runs
here, one ``PrimeField`` row operation at a time, and ``mat_mul`` takes one
``dot`` per entry.
"""

from __future__ import annotations

from .fields import check_same_field


def rref(rows, field):
    """Reduced row echelon form.

    Returns ``(reduced_rows, pivot_columns)``; zero rows are kept in place
    at the bottom.  Over QQ the field runs it (see the module docstring).
    """
    if field.characteristic == 0:
        return field.rref(rows)
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    is_zero, row_sub = field.is_zero, field.row_sub
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if not is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        mr = m[r] = field.scale_row(field.inv(m[r][c]), m[r])
        for i in range(nrows):
            if i != r and not is_zero(m[i][c]):
                m[i] = row_sub(m[i], m[i][c], mr)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows, field) -> int:
    if not rows:
        return 0
    return len(rref(rows, field)[1])


def right_nullspace(rows, field):
    """Basis of ``{x : M x = 0}``, canonical w.r.t. the rref of M."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(red[i][fc])
        basis.append(v)
    return basis


def solve(rows, rhs, field):
    """One solution of ``M x = rhs`` or ``None`` if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, field)
    # pivot in the augmented column means inconsistency
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return x


def mat_mul(A, B, field):
    """A times B; over QQ the field runs it (see the module docstring)."""
    if field.characteristic == 0:
        return field.mat_mul(A, B)
    cols = list(zip(*B))
    return [[field.dot(row, col) for col in cols] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def identity(n, field):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def mat_inverse(A, field):
    n = len(A)
    aug = [list(A[i]) + [field.one if j == i else field.zero for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug, field)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def mat_eq(A, B, field) -> bool:
    if len(A) != len(B):
        return False
    for ra, rb in zip(A, B):
        if len(ra) != len(rb):
            return False
        for a, b in zip(ra, rb):
            if not field.is_zero(field.sub(a, b)):
                return False
    return True


def is_symmetric(M, field) -> bool:
    n = len(M)
    for i in range(n):
        for j in range(i + 1, n):
            if not field.is_zero(field.sub(M[i][j], M[j][i])):
                return False
    return True


def symmetric_with_kernel(field, n, kernel_rows, rng):
    """Random symmetric n-by-n matrix whose kernel is exactly the given span.

    Extends the kernel basis to an invertible X (kernel vectors as the first
    columns) and returns ``(X^-1)^T D X^-1`` with D zero on the kernel slots
    and nonzero diagonal elsewhere.
    """
    k = len(kernel_rows)
    cols = [list(v) for v in kernel_rows]
    if k > n or any(len(v) != n for v in cols) or rank(cols, field) != k:
        raise ValueError(f"the kernel needs at most {n} independent rows of length {n}")
    while len(cols) < n:
        cand = [field.random(rng) for _ in range(n)]
        if rank(cols + [cand], field) == len(cols) + 1:
            cols.append(cand)
    X = transpose(cols)
    Xi = mat_inverse(X, field)
    D = [[field.zero] * n for _ in range(n)]
    for i in range(k, n):
        D[i][i] = field.random_nonzero(rng)
    return mat_mul(transpose(Xi), mat_mul(D, Xi, field), field)


class LinearSubspace:
    """Subspace of a coordinate space, stored as a reduced-echelon basis.

    The representation is canonical, so ``==`` on instances is subspace
    equality.
    """

    __slots__ = ("field", "ambient", "rows")

    def __init__(self, field, ambient, rows):
        self.field = field
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rows)

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        if not vectors:
            return cls(field, ambient, [])
        red, pivots = rref(vectors, field)
        return cls(field, ambient, red[: len(pivots)])

    @classmethod
    def full(cls, field, ambient):
        return cls(field, ambient, identity(ambient, field))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vec) -> bool:
        return self.coordinates_of(vec) is not None

    def coordinates_of(self, vec):
        """Coefficients of ``vec`` in the echelon basis, or None.

        The basis is reduced echelon, so they are the entries of ``vec`` at
        the pivot columns (reduced as ``rref`` leaves them); ``vec`` lies in
        the span exactly when they rebuild it.
        """
        f = self.field
        coords = f.scale_row(f.one, [vec[next(j for j, x in enumerate(r) if not f.is_zero(x))]
                                     for r in self.rows])
        rebuilt = mat_mul([coords], self.rows, f)[0] if coords else [f.zero] * self.ambient
        return coords if mat_eq([rebuilt], [vec], f) else None

    def __eq__(self, other):
        return (isinstance(other, LinearSubspace) and self.field == other.field
                and self.ambient == other.ambient and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"LinearSubspace(dim={self.dim}, ambient={self.ambient})"

    def to_json(self):
        f = self.field
        return {"ambient": self.ambient, "rows": [[f.to_str(x) for x in r] for r in self.rows]}

    @classmethod
    def from_json(cls, field, obj):
        rows = [[field.from_str(x) for x in r] for r in obj["rows"]]
        return cls.from_vectors(field, obj["ambient"], rows)


def intersect(S1: LinearSubspace, S2: LinearSubspace) -> LinearSubspace:
    """S1 ∩ S2 via the kernel of [S1^T | -S2^T]."""
    check_same_field(S1.field, S2.field)
    if S1.ambient != S2.ambient:
        raise ValueError("ambient dimensions differ")
    field = S1.field
    r1, r2 = S1.dim, S2.dim
    if r1 == 0 or r2 == 0:
        return LinearSubspace(field, S1.ambient, [])
    rows = [list(a) + [field.neg(x) for x in b] for a, b in zip(zip(*S1.rows), zip(*S2.rows))]
    vectors = mat_mul([sol[:r1] for sol in right_nullspace(rows, field)], S1.rows, field)
    return LinearSubspace.from_vectors(field, S1.ambient, vectors)


def annihilator(S: LinearSubspace, pairing) -> LinearSubspace:
    """All y with <x, y> = 0 for x in S, under a bilinear pairing matrix.

    ``pairing`` has shape (S.ambient, right_dim); the result lives in the
    right-hand space.  dim = right_dim - rank(pairing restricted to S).
    """
    if len(pairing) != S.ambient:
        raise ValueError("pairing left dimension does not match subspace ambient")
    right_dim = len(pairing[0]) if pairing else 0
    field = S.field
    if S.dim == 0:
        return LinearSubspace.full(field, right_dim)
    restricted = mat_mul([list(r) for r in S.rows], pairing, field)
    return LinearSubspace.from_vectors(field, right_dim, right_nullspace(restricted, field))

"""Lagrangian subspaces of the 20-dimensional trivector space.

Tangent spaces T_U = wedge^2(U) ^ W of the Grassmannian G(3,W), the spaces
F_[w] = <w> ^ wedge^2(W), graphs of symmetric maps over a transverse
Lagrangian frame, and the pointwise decomposability test.
"""

from __future__ import annotations

from itertools import combinations

from .fields import check_same_field
from .exterior import DIM_W, SUBSETS, MultiVector, wedge, eta, eta_gram
from .linalg import (LinearSubspace, rank, right_nullspace, mat_mul, identity,
                     mat_inverse, transpose, is_symmetric)

TRI_DIM = len(SUBSETS[3])  # 20
LAG_DIM = 10


class NotLagrangianError(ValueError):
    pass


class NotTransverseError(ValueError):
    """A subspace meets the reference Lagrangian, so it has no graph."""


class LagrangianSubspace(LinearSubspace):
    """Rank-10 subspace of the trivector space on which eta vanishes."""

    __slots__ = ()

    @classmethod
    def from_subspace(cls, S: LinearSubspace, check: bool = True):
        if S.ambient != TRI_DIM or S.dim != LAG_DIM:
            raise NotLagrangianError(f"expected rank {LAG_DIM} in dim {TRI_DIM}")
        L = cls(S.field, S.ambient, S.rows)
        if check and not is_lagrangian_rows(S.rows, S.field):
            raise NotLagrangianError("eta does not vanish on the subspace")
        return L


def is_lagrangian_rows(rows, field) -> bool:
    mvs = [MultiVector.from_vector(field, 3, list(r)) for r in rows]
    for i in range(len(mvs)):
        for j in range(i + 1, len(mvs)):
            if not field.is_zero(eta(mvs[i], mvs[j])):
                return False
    return True


def tangent_space(U: LinearSubspace) -> LagrangianSubspace:
    """T_U = wedge^2(U) ^ W for a 3-dimensional U in W."""
    if U.ambient != DIM_W or U.dim != 3:
        raise ValueError("U must be a rank-3 subspace of the 6-dimensional space")
    field = U.field
    us = [MultiVector.from_vector(field, 1, list(r)) for r in U.rows]
    bivs = [wedge(us[i], us[j]) for i, j in combinations(range(3), 2)]
    spanning = []
    for b in bivs:
        for k in range(1, DIM_W + 1):
            spanning.append(wedge(b, MultiVector.basis(field, (k,))).to_vector())
    S = LinearSubspace.from_vectors(field, TRI_DIM, spanning)
    return LagrangianSubspace.from_subspace(S, check=False)


def f_space(w: MultiVector) -> LagrangianSubspace:
    """F_[w] = <w> ^ wedge^2(W); depends only on the line through w."""
    field = w.field
    if w.grade != 1 or w.is_zero():
        raise ValueError("w must be a nonzero vector of W")
    spanning = []
    for pair in SUBSETS[2]:
        spanning.append(wedge(w, MultiVector.basis(field, pair)).to_vector())
    S = LinearSubspace.from_vectors(field, TRI_DIM, spanning)
    return LagrangianSubspace.from_subspace(S, check=False)


class LagrangianFrame:
    """Transverse Lagrangian pair (L0, Linf) with fixed ordered bases.

    eta identifies Linf with the dual of L0; symmetric 10x10 matrices over
    that identification correspond to Lagrangian graphs transverse to Linf.
    The matrix convention is M[i][j] = eta(a_j, y_i) for graph rows
    a_i + y_i over the L0 basis (a_i).
    """

    __slots__ = ("field", "l0_rows", "linf_rows", "_pairing", "_pairing_ti",
                 "_stack_inv")

    def __init__(self, field, l0_rows, linf_rows, check: bool = True):
        self.field = field
        self.l0_rows = [list(r) for r in l0_rows]
        self.linf_rows = [list(r) for r in linf_rows]
        if check:
            if not (is_lagrangian_rows(self.l0_rows, field)
                    and is_lagrangian_rows(self.linf_rows, field)):
                raise NotLagrangianError("frame halves must be Lagrangian")
            if rank(self.l0_rows + self.linf_rows, field) != TRI_DIM:
                raise NotTransverseError("frame halves must be transverse")
        self._pairing = None
        self._pairing_ti = None
        self._stack_inv = None

    @property
    def pairing(self):
        """P[i][j] = eta(a_i, b_j); invertible by transversality."""
        if self._pairing is None:
            G = eta_gram(self.field)
            self._pairing = mat_mul(mat_mul(self.l0_rows, G, self.field),
                                    transpose(self.linf_rows), self.field)
        return self._pairing

    @property
    def pairing_transpose_inv(self):
        if self._pairing_ti is None:
            self._pairing_ti = mat_inverse(transpose(self.pairing), self.field)
        return self._pairing_ti

    @property
    def stack_inverse(self):
        if self._stack_inv is None:
            self._stack_inv = mat_inverse(self.l0_rows + self.linf_rows, self.field)
        return self._stack_inv


def lagrangian_from_graph(frame: LagrangianFrame, M) -> LagrangianSubspace:
    """Lagrangian graph of the symmetric matrix M over the frame."""
    field = frame.field
    if not is_symmetric(M, field):
        raise ValueError("graph matrix must be symmetric")
    ytil = mat_mul(M, frame.pairing_transpose_inv, field)
    # graph rows a_i + sum_k ytil[i][k] b_k: [I | ytil] times the stacked frame
    rows = mat_mul([e + y for e, y in zip(identity(LAG_DIM, field), ytil)],
                   frame.l0_rows + frame.linf_rows, field)
    S = LinearSubspace.from_vectors(field, TRI_DIM, rows)
    return LagrangianSubspace.from_subspace(S, check=False)


def graph_of(frame: LagrangianFrame, L: LinearSubspace):
    """Symmetric matrix whose graph over the frame is L.

    Raises NotTransverseError when L meets Linf (the point lies outside the
    graph chart).
    """
    check_same_field(frame.field, L.field)
    field = frame.field
    if L.dim != LAG_DIM or L.ambient != TRI_DIM:
        raise ValueError("L must be a rank-10 subspace of the trivector space")
    coords = mat_mul([list(r) for r in L.rows], frame.stack_inverse, field)
    X = [row[:LAG_DIM] for row in coords]
    Y = [row[LAG_DIM:] for row in coords]
    try:
        Xi = mat_inverse(X, field)
    except ValueError:
        raise NotTransverseError("subspace meets the reference Lagrangian Linf")
    ytil = mat_mul(Xi, Y, field)
    return mat_mul(ytil, transpose(frame.pairing), field)


def standard_frame(field) -> LagrangianFrame:
    """Frame (T_U0, T_Uinf) for U0 = <e1,e2,e3>, Uinf = <e4,e5,e6>."""
    U0 = LinearSubspace.from_vectors(field, DIM_W,
                                     [[field.one if j == i else field.zero for j in range(DIM_W)]
                                      for i in range(3)])
    Ui = LinearSubspace.from_vectors(field, DIM_W,
                                     [[field.one if j == i + 3 else field.zero for j in range(DIM_W)]
                                      for i in range(3)])
    T0 = tangent_space(U0)
    Ti = tangent_space(Ui)
    return LagrangianFrame(field, [list(r) for r in T0.rows], [list(r) for r in Ti.rows],
                           check=False)


def wedge_matrix_with_vectors(omega: MultiVector):
    """6x15 matrix of v -> v ^ omega on the basis of W."""
    field = omega.field
    rows = []
    for i in range(1, DIM_W + 1):
        e = MultiVector.basis(field, (i,))
        rows.append(wedge(e, omega).to_vector())
    return rows


def is_decomposable(omega: MultiVector):
    """Whether a trivector is a wedge of three vectors.

    Returns ``(flag, witness)``: the witness is the 3-dimensional U with
    wedge^3(U) spanned by omega.  The kernel of v -> v ^ omega has dimension
    3 exactly on the cone of decomposables (and 0 or 1 elsewhere).
    """
    if omega.grade != 3:
        raise ValueError("decomposability is a trivector test")
    if omega.is_zero():
        raise ValueError("the zero trivector is excluded")
    field = omega.field
    rows = wedge_matrix_with_vectors(omega)
    ker = right_nullspace(transpose(rows), field)
    if len(ker) != 3:
        return False, None
    return True, LinearSubspace.from_vectors(field, DIM_W, ker)


def random_subspace(field, ambient, dim, rng) -> LinearSubspace:
    if not 0 <= dim <= ambient:
        raise ValueError(f"no {dim}-dimensional subspace of a {ambient}-dimensional space")
    while True:
        rows = [[field.random(rng) for _ in range(ambient)] for _ in range(dim)]
        S = LinearSubspace.from_vectors(field, ambient, rows)
        if S.dim == dim:
            return S


def random_symmetric(field, n, rng):
    M = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            c = field.random(rng)
            M[i][j] = c
            M[j][i] = c
    return M


def random_graph_lagrangian(field, rng, frame: LagrangianFrame | None = None):
    """Random Lagrangian as a graph over the standard frame.

    Misses the Lagrangians that meet T_Uinf; that locus is a proper closed
    subvariety, which is acceptable for genericity sampling.
    """
    if frame is None:
        frame = standard_frame(field)
    M = random_symmetric(field, LAG_DIM, rng)
    return lagrangian_from_graph(frame, M)


def intersection_dim(S1: LinearSubspace, S2: LinearSubspace) -> int:
    return S1.dim + S2.dim - rank(list(S1.rows) + list(S2.rows), S1.field)

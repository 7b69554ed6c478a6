import random

import pytest

from lagstrata.fields import QQ, GF
from lagstrata.exterior import MultiVector, wedge
from lagstrata.linalg import LinearSubspace, rank, mat_eq, transpose, right_nullspace
from lagstrata.lagrangian import (tangent_space, f_space, is_lagrangian,
                                  lagrangian_from_graph, graph_of, standard_frame,
                                  random_graph_lagrangian, random_symmetric,
                                  random_subspace, is_decomposable,
                                  intersection_dim, NotTransverseError,
                                  wedge_matrix_with_vectors)

F101 = GF(101)


def test_random_subspace_rejects_impossible_dimensions():
    for ambient, dim in ((3, 4), (3, -1)):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            random_subspace(GF(2), ambient, dim, rng)
        assert rng.getstate() == random.Random(0).getstate()
    assert random_subspace(GF(2), 3, 3, random.Random(0)).dim == 3


def basis_subspace(field, idxs):
    rows = [[field.one if j + 1 == i else field.zero for j in range(6)] for i in idxs]
    return LinearSubspace.from_vectors(field, 6, rows)


def test_tangent_space_of_standard_flag():
    U0 = basis_subspace(QQ, (1, 2, 3))
    T = tangent_space(U0)
    assert T.dim == 10
    expected = {(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5),
                (1, 3, 6), (2, 3, 4), (2, 3, 5), (2, 3, 6)}
    got = set()
    from lagstrata.exterior import SUBSETS
    for row in T.rows:
        nz = [SUBSETS[3][i] for i, x in enumerate(row) if x != 0]
        got.update(nz)
    assert got == expected


def test_tangent_spaces_are_lagrangian():
    rng = random.Random(2)
    for _ in range(50):
        U = random_subspace(F101, 6, 3, rng)
        assert is_lagrangian(tangent_space(U))


def test_transverse_tangent_intersections():
    # the standard transverse pair meets only at 0; the oracle records 0 for
    # every transverse pair (the general linear group acts transitively on
    # transverse pairs, so the generic value is exactly 0)
    T0 = tangent_space(basis_subspace(QQ, (1, 2, 3)))
    Ti = tangent_space(basis_subspace(QQ, (4, 5, 6)))
    assert intersection_dim(T0, Ti) == 0
    rng = random.Random(5)
    values = set()
    for _ in range(50):
        U1 = random_subspace(F101, 6, 3, rng)
        U2 = random_subspace(F101, 6, 3, rng)
        if rank(list(U1.rows) + list(U2.rows), F101) != 6:
            continue
        values.add(intersection_dim(tangent_space(U1), tangent_space(U2)))
    assert values == {0}


def test_f_space_basics():
    w = MultiVector.basis(QQ, (1,))
    F = f_space(w)
    assert F.dim == 10 and is_lagrangian(F)
    assert f_space(w.scale(QQ.from_int(2))) == F
    with pytest.raises(ValueError):
        f_space(MultiVector.zero(QQ, 1))


def test_f_space_tangent_dichotomy():
    # dim(F_[w] ∩ T_U) is 7 for w in U and 3 otherwise
    T0 = tangent_space(basis_subspace(QQ, (1, 2, 3)))
    rng = random.Random(12)
    for _ in range(20):
        w_in = MultiVector(QQ, 1, {(rng.randrange(1, 4),): QQ.one})
        coeffs = [QQ.random(rng) for _ in range(3)]
        w_in = MultiVector(QQ, 1, {(i + 1,): c for i, c in enumerate(coeffs) if c})
        if w_in.is_zero():
            continue
        assert intersection_dim(f_space(w_in), T0) == 7
    w_out = MultiVector.basis(QQ, (5,))
    assert intersection_dim(f_space(w_out), T0) == 3


def test_f_space_pairwise_intersection_dimension():
    # brute-force oracle: independent w, w' always give dimension 4
    rng = random.Random(8)
    for _ in range(50):
        w1 = [F101.random(rng) for _ in range(6)]
        w2 = [F101.random(rng) for _ in range(6)]
        if rank([w1, w2], F101) != 2:
            continue
        m1 = MultiVector.from_vector(F101, 1, w1)
        m2 = MultiVector.from_vector(F101, 1, w2)
        assert intersection_dim(f_space(m1), f_space(m2)) == 4


@pytest.mark.parametrize("field", [QQ, F101])
def test_graph_roundtrips(field):
    frame = standard_frame(field)
    rng = random.Random(31)
    zero = [[field.zero] * 10 for _ in range(10)]
    assert lagrangian_from_graph(frame, zero) == LinearSubspace.from_vectors(
        field, 20, frame.l0_rows)
    for _ in range(100):
        M = random_symmetric(field, 10, rng)
        L = lagrangian_from_graph(frame, M)
        assert is_lagrangian(L)
        assert mat_eq(graph_of(frame, L), M, field)


def test_graph_of_requires_transversality():
    frame = standard_frame(QQ)
    with pytest.raises(NotTransverseError):
        graph_of(frame, LinearSubspace.from_vectors(QQ, 20, frame.linf_rows))
    with pytest.raises(ValueError):
        lagrangian_from_graph(frame, [[QQ.from_int(i + j * 2) for j in range(10)]
                                      for i in range(10)])


def test_is_decomposable_examples():
    e123 = MultiVector.basis(QQ, (1, 2, 3))
    ok, witness = is_decomposable(e123)
    assert ok and witness == basis_subspace(QQ, (1, 2, 3))

    mix = e123 + MultiVector.basis(QQ, (4, 5, 6))
    ok, witness = is_decomposable(mix)
    assert not ok and witness is None
    # oracle: the wedge matrix of e123 + e456 has full rank (kernel 0)
    rows = wedge_matrix_with_vectors(mix)
    assert len(right_nullspace(transpose(rows), QQ)) == 0

    e1 = MultiVector.basis(QQ, (1,))
    deg = wedge(e1, MultiVector.basis(QQ, (2, 3)) + MultiVector.basis(QQ, (4, 5)))
    ok, _ = is_decomposable(deg)
    assert not ok
    rows = wedge_matrix_with_vectors(deg)
    assert len(right_nullspace(transpose(rows), QQ)) == 1

    with pytest.raises(ValueError):
        is_decomposable(MultiVector.zero(QQ, 3))


def test_decomposables_fill_the_cone_of_a_tangent_line():
    # every multiple of the top wedge of a random 3-space is decomposable
    rng = random.Random(77)
    for _ in range(20):
        U = random_subspace(F101, 6, 3, rng)
        us = [MultiVector.from_vector(F101, 1, list(r)) for r in U.rows]
        omega = wedge(wedge(us[0], us[1]), us[2])
        c = F101.random_nonzero(rng)
        ok, witness = is_decomposable(omega.scale(c))
        assert ok and witness == U


def test_random_graph_lagrangian_is_lagrangian():
    rng = random.Random(0)
    for field in (QQ, F101):
        A = random_graph_lagrangian(field, rng)
        assert is_lagrangian(A)


def test_annihilator_under_the_symplectic_pairing():
    from lagstrata.exterior import eta_gram
    from lagstrata.linalg import annihilator
    G = eta_gram(QQ)
    zero = LinearSubspace(QQ, 20, [])
    assert annihilator(zero, G) == LinearSubspace.full(QQ, 20)
    # a Lagrangian is its own annihilator; half-dimensionality is the bound
    T0 = tangent_space(basis_subspace(QQ, (1, 2, 3)))
    assert annihilator(T0, G) == T0
    rng = random.Random(44)
    A = random_graph_lagrangian(F101, rng)
    assert annihilator(A, eta_gram(F101)) == A

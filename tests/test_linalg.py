import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lagstrata.fields import QQ, GF
from lagstrata.linalg import (LinearSubspace, rref, rank, right_nullspace, solve,
                              mat_mul, mat_inverse, identity,
                              intersect, annihilator,
                              symmetric_with_kernel, is_symmetric, mat_eq)
from references import mat_mul_by_dot

FIELDS = [QQ, GF(5), GF(101)]


def random_matrix(field, rows, cols, rng):
    return [[field.random(rng) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("field", FIELDS)
def test_rref_gives_canonical_subspaces(field):
    rng = random.Random(7)
    for _ in range(40):
        rows = random_matrix(field, 3, 6, rng)
        S = LinearSubspace.from_vectors(field, 6, rows)
        # a shuffled, rescaled spanning set gives the same representative
        mixed = []
        for _ in range(4):
            c1, c2 = field.random(rng), field.random_nonzero(rng)
            k = rng.randrange(3)
            vec = [field.add(field.mul(c1, rows[0][j]), field.mul(c2, rows[k][j]))
                   for j in range(6)]
            mixed.append(vec)
        mixed.extend(rows)
        S2 = LinearSubspace.from_vectors(field, 6, mixed)
        assert S == S2
        assert S.dim == rank(rows, field)


@pytest.mark.parametrize("field", FIELDS)
def test_nullspace_and_solve(field):
    rng = random.Random(11)
    for _ in range(30):
        M = random_matrix(field, 4, 7, rng)
        for v in right_nullspace(M, field):
            assert all(field.is_zero(x) for x in
                       [sum_f(field, [field.mul(M[i][j], v[j]) for j in range(7)])
                        for i in range(4)])
        x = [field.random(rng) for _ in range(7)]
        rhs = [sum_f(field, [field.mul(M[i][j], x[j]) for j in range(7)]) for i in range(4)]
        sol = solve(M, rhs, field)
        assert sol is not None
        got = [sum_f(field, [field.mul(M[i][j], sol[j]) for j in range(7)]) for i in range(4)]
        assert got == rhs


def sum_f(field, items):
    acc = field.zero
    for it in items:
        acc = field.add(acc, it)
    return acc


@pytest.mark.parametrize("field", FIELDS)
def test_intersection_dimension_formula(field):
    # dim(S1 ∩ S2) = dim S1 + dim S2 - dim(S1 + S2), 200 random pairs
    rng = random.Random(23)
    for _ in range(200):
        d1, d2 = rng.randrange(1, 5), rng.randrange(1, 5)
        S1 = LinearSubspace.from_vectors(field, 6, random_matrix(field, d1, 6, rng))
        S2 = LinearSubspace.from_vectors(field, 6, random_matrix(field, d2, 6, rng))
        inter = intersect(S1, S2)
        total = LinearSubspace.from_vectors(field, 6, list(S1.rows) + list(S2.rows))
        assert inter.dim == S1.dim + S2.dim - total.dim
        for row in inter.rows:
            assert S1.contains(row) and S2.contains(row)


def test_intersect_idempotent_and_ambient():
    field = GF(7)
    rng = random.Random(1)
    S = LinearSubspace.from_vectors(field, 6, random_matrix(field, 3, 6, rng))
    assert intersect(S, S) == S
    assert intersect(S, LinearSubspace.full(field, 6)) == S


@pytest.mark.parametrize("field", FIELDS)
def test_annihilator_dimension(field):
    rng = random.Random(9)
    for _ in range(50):
        pairing = random_matrix(field, 6, 8, rng)
        S = LinearSubspace.from_vectors(field, 6, random_matrix(field, rng.randrange(1, 4), 6, rng))
        ann = annihilator(S, pairing)
        restricted = mat_mul([list(r) for r in S.rows], pairing, field)
        assert ann.dim == 8 - rank(restricted, field)
    Z = LinearSubspace(field, 6, [])
    assert annihilator(Z, pairing).dim == 8


@pytest.mark.parametrize("field", FIELDS)
def test_inverse(field):
    rng = random.Random(3)
    for _ in range(10):
        while True:
            M = random_matrix(field, 5, 5, rng)
            if rank(M, field) == 5:
                break
        Mi = mat_inverse(M, field)
        assert mat_eq(mat_mul(M, Mi, field), identity(5, field), field)


@pytest.mark.parametrize("field", FIELDS)
def test_symmetric_with_kernel(field):
    rng = random.Random(4)
    for k in (0, 1, 3):
        kern = random_matrix(field, k, 8, rng)
        K = LinearSubspace.from_vectors(field, 8, kern)
        if K.dim != k:
            continue
        M = symmetric_with_kernel(field, 8, [list(r) for r in K.rows], rng)
        assert is_symmetric(M, field)
        ns = right_nullspace(M, field)
        assert LinearSubspace.from_vectors(field, 8, ns) == K


@pytest.mark.parametrize("rows", [
    [[1, 0, 0], [1, 0, 0]],                            # dependent: no completion exists
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],      # more rows than n
    [[1, 0, 0, 0]],                                    # a row of length 4 in n = 3
    [[1, 0]],                                          # a row of length 2 in n = 3
])
def test_symmetric_with_kernel_rejects_bad_kernels(rows):
    rng = random.Random(0)
    with pytest.raises(ValueError):
        symmetric_with_kernel(GF(5), 3, rows, rng)
    assert rng.getstate() == random.Random(0).getstate()


def test_subspace_json_roundtrip():
    for field in (QQ, GF(13)):
        rng = random.Random(5)
        S = LinearSubspace.from_vectors(field, 6, random_matrix(field, 3, 6, rng))
        assert LinearSubspace.from_json(field, S.to_json()) == S


# Reference: the per-entry elimination rref ran before the row-level field
# methods, two field calls per entry of each row operation.
def ref_rref(rows, field):
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if not field.is_zero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                mi, mr = m[i], m[r]
                m[i] = [field.sub(mi[j], field.mul(f, mr[j])) for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


RREF_FIELDS = [QQ, GF(2), GF(3), GF(101), GF(181)]


@st.composite
def matrices(draw, field):
    """Small matrices with repeated rows and planted zero rows and columns."""
    nrows = draw(st.integers(min_value=1, max_value=7))
    ncols = draw(st.integers(min_value=1, max_value=8))
    num = st.one_of(st.just(0), st.integers(min_value=-200, max_value=200))
    if field == QQ:
        # denominators other than 1 make the fraction-free rref clear them
        entry = st.builds(Fraction, num, st.one_of(st.just(1), st.integers(min_value=1,
                                                                            max_value=12)))
    else:
        entry = num.map(field.from_int)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), list(rows[0]))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), [field.zero] * ncols)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        c = draw(st.integers(min_value=0, max_value=len(rows[0])))
        rows = [r[:c] + [field.zero] + r[c:] for r in rows]
    return rows


def assert_same_rref(rows, field):
    got, want = rref(rows, field), ref_rref(rows, field)
    assert got == want
    assert [[type(x) for x in r] for r in got[0]] == [[type(x) for x in r] for r in want[0]]


@pytest.mark.parametrize("field", RREF_FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rref_matches_per_entry_elimination(field, data):
    assert_same_rref(data.draw(matrices(field)), field)


@pytest.mark.parametrize("field", RREF_FIELDS)
def test_rref_edge_shapes_match_per_entry_elimination(field):
    z, one, two = field.zero, field.one, field.from_int(2)
    cases = [
        [],                                   # no rows
        [[]], [[], []],                       # rows without columns
        [[z, z, z]], [[z, z], [z, z]],        # zero matrices
        [[z, two, one, z]],                   # a single row
        [[z, one, z], [z, z, z], [z, two, z]],  # zero columns around a zero row
        [[one, two], [two, field.from_int(4)], [z, z]],
    ]
    for rows in cases:
        assert_same_rref(rows, field)
    assert rref([], field) == ([], [])
    c = field.from_int(-1)
    assert rref([[z, c, one]], field) == ([[z, one, field.div(one, c)]], [1])


def assert_same_as_sympy(rows):
    sympy = pytest.importorskip("sympy")
    red, pivots = rref(rows, QQ)
    want, want_pivots = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                                      for r in rows]).rref()
    assert pivots == list(want_pivots)
    assert red == [[Fraction(int(x.p), int(x.q)) for x in want.row(i)] for i in range(want.rows)]


@settings(max_examples=40, deadline=None)
@given(matrices(QQ))
def test_rref_against_sympy(rows):
    assert_same_as_sympy(rows)


@st.composite
def low_rank_fractions(draw, nrows, ncols):
    """nrows x ncols over QQ of rank at most min(nrows, ncols), drawn as a
    product with rational factors, as criterion 7's chart matrices are."""
    small = st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                      st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=0, max_value=min(nrows, ncols)))
    if not k:
        return [[Fraction(0)] * ncols for _ in range(nrows)]
    left = [[draw(small) for _ in range(k)] for _ in range(nrows)]
    right = [[draw(small) for _ in range(ncols)] for _ in range(k)]
    return mat_mul(left, right, QQ)


# criterion 7 reduces 10 x 20 graph matrices, 10 x 10 quadrics and
# 3..8 x 10 restrictions to kernels
CRITERION_7_SHAPES = [(10, 20), (10, 10)] + [(n, 10) for n in range(3, 9)]


@pytest.mark.parametrize("shape", CRITERION_7_SHAPES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_rref_criterion_7_shapes_match_references(shape, data):
    rows = data.draw(low_rank_fractions(*shape))
    assert_same_rref(rows, QQ)
    assert_same_as_sympy(rows)


def test_rref_of_a_combination_across_denominators():
    F = Fraction
    r1 = [F(1, 2), F(1, 3), F(0), F(5, 7), F(-2)]
    r2 = [F(0), F(2, 5), F(1, 7), F(3), F(4, 9)]
    r3 = [F(3, 4) * a - F(5, 6) * b for a, b in zip(r1, r2)]
    # an int zero row comes back as given, as per-row elimination leaves it
    for rows in ([r1, r2, r3], [r3, r1, r2], [r1, r3, [0] * 5, r2]):
        assert_same_rref(rows, QQ)
        red, pivots = rref(rows, QQ)
        assert pivots == [0, 1]
        assert all(x == 0 for r in red[2:] for x in r)
        assert LinearSubspace.from_vectors(QQ, 5, [r1, r2]).contains(r3)


# Reference: the per-term product mat_mul ran before each field's dot, two
# zero tests and one add and one mul per term.
def ref_mat_mul(A, B, field):
    out = []
    for row in A:
        orow = []
        for j in range(len(B[0]) if B else 0):
            s = field.zero
            for a, b in zip(row, (r[j] for r in B)):
                if not field.is_zero(a) and not field.is_zero(b):
                    s = field.add(s, field.mul(a, b))
            orow.append(s)
        out.append(orow)
    return out


DOT_FIELDS = [QQ, GF(2), GF(101)]


def _entries(field):
    """Raw entries: unreduced ints over F_p, small fractions over QQ."""
    ints = st.one_of(st.just(0), st.integers(min_value=-300, max_value=300))
    if field == QQ:
        return st.builds(Fraction, ints, st.integers(min_value=1, max_value=7))
    return ints


def assert_same_product(A, B, field):
    got, want = mat_mul(A, B, field), ref_mat_mul(A, B, field)
    assert got == want
    assert [[type(x) for x in r] for r in got] == [[type(x) for x in r] for r in want]


@pytest.mark.parametrize("field", DOT_FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mat_mul_matches_per_term_products(field, data):
    n, k, m = (data.draw(st.integers(min_value=0, max_value=5)) for _ in range(3))
    entry = _entries(field)
    A = [[data.draw(entry) for _ in range(k)] for _ in range(n)]
    B = [[data.draw(entry) for _ in range(m)] for _ in range(k)]
    assert_same_product(A, B, field)
    for row in A:
        for col in zip(*B):
            assert field.dot(row, col) == ref_mat_mul([row], [[x] for x in col], field)[0][0]


@pytest.mark.parametrize("field", DOT_FIELDS)
def test_mat_mul_edge_shapes_match_per_term_products(field):
    one, z = field.one, field.zero
    cases = [
        ([], []), ([], [[one, one]]),               # no rows in A
        ([[one, one]], [[], []]),                   # B without columns
        ([[]], []), ([[], []], []),                 # A without columns, B without rows
        ([[z, z]], [[one], [one]]),                 # all terms zero
        ([[one, field.from_int(-1)]], [[one], [one]]),   # cancelling terms
    ]
    for A, B in cases:
        assert_same_product(A, B, field)
    assert field.dot([], []) == field.zero
    assert type(field.dot([], [])) is type(field.zero)


def _qq_vectors(length, count):
    """count vectors of the given length over QQ, denominators up to 10^6;
    some all zero, some with an int 0 entry."""
    entry = st.one_of(
        st.just(0),
        st.builds(Fraction, st.integers(min_value=-10**6, max_value=10**6),
                  st.integers(min_value=1, max_value=10**6)))
    vector = st.one_of(st.just([Fraction(0)] * length), st.lists(entry, min_size=length,
                                                                  max_size=length))
    return st.lists(vector, min_size=count, max_size=count)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@example(data=None)
def test_qq_mat_mul_on_ints_matches_dot(data):
    if data is None:      # the shapes that carry no entry at all
        cases = [([], []), ([], [[QQ.one]]), ([[]], []), ([[], []], []),
                 ([[QQ.one, QQ.one]], [[], []])]
    else:
        n, k, m = (data.draw(st.integers(min_value=0, max_value=6)) for _ in range(3))
        A = data.draw(_qq_vectors(k, n))
        B = data.draw(_qq_vectors(m, k))
        if k and m and data.draw(st.booleans()):     # a zero column of B
            j = data.draw(st.integers(min_value=0, max_value=m - 1))
            for row in B:
                row[j] = Fraction(0)
        cases = [(A, B)]
    for A, B in cases:
        got = mat_mul(A, B, QQ)
        assert got == mat_mul_by_dot(A, B, QQ)
        assert all(type(x) is Fraction for row in got for x in row)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_coordinates_of_and_contains_match_solve_and_rank(field, data):
    ambient = data.draw(st.integers(min_value=1, max_value=6))
    entry = _entries(field)
    kind = data.draw(st.sampled_from(["span", "zero", "full"]))
    if kind == "full":
        S = LinearSubspace.full(field, ambient)
    elif kind == "zero":
        S = LinearSubspace(field, ambient, [])
    else:
        rows = [[data.draw(entry) for _ in range(ambient)]
                for _ in range(data.draw(st.integers(min_value=1, max_value=ambient)))]
        S = LinearSubspace.from_vectors(field, ambient, rows)
    if S.dim and data.draw(st.booleans()):
        # a vector of the span, with unreduced coefficients
        coeffs = [data.draw(entry) for _ in range(S.dim)]
        vec = [sum((c * x for c, x in zip(coeffs, col)), field.zero) for col in zip(*S.rows)]
    else:
        vec = [data.draw(entry) for _ in range(ambient)]
    if S.dim:
        want = solve([list(c) for c in zip(*S.rows)], vec, field)
    else:
        want = [] if all(field.is_zero(x) for x in vec) else None
    got = S.coordinates_of(vec)
    assert got == want
    assert got is None or [type(x) for x in got] == [type(x) for x in want]
    assert S.contains(vec) == (rank(list(S.rows) + [vec], field) == S.dim)


def test_coordinates_of_edge_subspaces():
    field = GF(5)
    zero, full = LinearSubspace(field, 3, []), LinearSubspace.full(field, 3)
    assert zero.coordinates_of([0, 5, -10]) == [] and zero.contains([0, 0, 0])
    assert zero.coordinates_of([0, 1, 0]) is None and not zero.contains([0, 1, 0])
    assert full.coordinates_of([7, -1, 3]) == [2, 4, 3]
    line = LinearSubspace.from_vectors(field, 3, [[0, 2, 4]])    # rows ((0, 1, 2),)
    assert line.coordinates_of([0, 3, 6]) == [3]
    assert line.coordinates_of([1, 3, 6]) is None                 # off the span
    assert line.coordinates_of([0, 3, 0]) is None                 # right pivot, wrong rest

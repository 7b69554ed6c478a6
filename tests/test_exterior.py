import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import lagstrata
from lagstrata.fields import QQ, GF
from lagstrata.exterior import (MultiVector, wedge, contract, volume,
                                eta, eta_gram, merge_sign, SUBSETS, DIM_W, TOP, GradeError)
from references import wedge_coefficient

F101 = GF(101)


def e(*idx, field=QQ):
    return MultiVector.basis(field, idx)


def test_wedge_basis_cases():
    assert wedge(e(1), e(2)) == e(1, 2)
    assert wedge(e(1, 2), e(1, 2)).is_zero()
    assert wedge(e(1, 2, 3), e(4, 5, 6)) == e(1, 2, 3, 4, 5, 6)


def test_wedge_grade_overflow():
    with pytest.raises(GradeError):
        wedge(e(1, 2, 3, 4), e(3, 5, 6))


def random_mv(field, grade, rng, terms=4):
    coords = {}
    for _ in range(terms):
        s = tuple(sorted(rng.sample(range(1, 7), grade)))
        coords[s] = field.random(rng)
    return MultiVector(field, grade, coords)


small_ints = st.integers(min_value=-5, max_value=5)


@st.composite
def mv_pairs(draw):
    ga = draw(st.integers(min_value=1, max_value=3))
    gb = draw(st.integers(min_value=1, max_value=min(3, 6 - ga)))
    def mk(g):
        coords = {}
        for s in SUBSETS[g]:
            v = draw(small_ints)
            if v:
                coords[s] = QQ.from_int(v)
        return MultiVector(QQ, g, coords)
    return mk(ga), mk(gb)


@settings(max_examples=40, deadline=None)
@given(mv_pairs())
def test_wedge_graded_anticommutative(pair):
    a, b = pair
    lhs = wedge(a, b)
    rhs = wedge(b, a)
    sign = (-1) ** (a.grade * b.grade)
    assert lhs == (rhs if sign == 1 else -rhs)


def test_contract_basis_cases():
    cov = [QQ.one] + [QQ.zero] * 5
    assert contract(cov, e(1, 2, 3)) == e(2, 3)
    cov4 = [QQ.zero] * 3 + [QQ.one] + [QQ.zero] * 2
    assert contract(cov4, e(1, 2, 3)).is_zero()
    assert contract(cov, e(1, 2, 3) + e(1, 4, 5)) == e(2, 3) + e(4, 5)


@pytest.mark.parametrize("field", [QQ, F101])
def test_contraction_adjoint_to_wedging(field):
    # vol((i_f w) ^ tau) = (-1)^(k+1) vol(w ^ i_f tau) when grades sum to 7
    rng = random.Random(17)
    for _ in range(60):
        k = rng.randrange(1, 4)
        w = random_mv(field, k, rng)
        tau = random_mv(field, 7 - k, rng)
        cov = [field.random(rng) for _ in range(6)]
        lhs = volume(wedge(contract(cov, w), tau))
        rhs = volume(wedge(w, contract(cov, tau)))
        sign = (-1) ** (k + 1)
        assert lhs == (rhs if sign == 1 else field.neg(rhs))


def test_volume_normalization():
    assert volume(e(1, 2, 3, 4, 5, 6)) == 1
    assert volume(MultiVector.zero(QQ, 6)) == 0
    assert volume(e(1, 2, 3, 4, 5, 6).scale(QQ.from_int(5))) == 5
    with pytest.raises(GradeError):
        volume(e(1, 2, 3))


def test_eta_basis_cases():
    assert eta(e(1, 2, 3), e(4, 5, 6)) == 1
    assert eta(e(1, 2, 3), e(1, 2, 4)) == 0
    assert eta(e(4, 5, 6), e(1, 2, 3)) == -1


@pytest.mark.parametrize("field", [QQ, F101])
def test_eta_antisymmetric_and_alternating(field):
    rng = random.Random(99)
    for _ in range(200):
        u = random_mv(field, 3, rng)
        v = random_mv(field, 3, rng)
        assert field.is_zero(eta(u, u))
        assert eta(u, v) == field.neg(eta(v, u))


def test_eta_gram_structure():
    G = eta_gram(QQ)
    # one nonzero entry per row, at the complementary subset, of value +-1
    for i, I in enumerate(SUBSETS[3]):
        nz = [(j, G[i][j]) for j in range(20) if G[i][j] != 0]
        assert len(nz) == 1
        j, val = nz[0]
        assert set(SUBSETS[3][j]) == set(range(1, 7)) - set(I)
        assert val in (1, -1)


# Reference: the merge-permutation sign, computed per pair as exterior did
# before its signs came from merge_table.
def ref_merge_sign(I, J):
    if set(I) & set(J):
        return None
    merged = tuple(sorted(I + J))
    inv = 0
    for a in I:
        for b in J:
            if a > b:
                inv += 1
    return (-1 if inv % 2 else 1), merged


def ref_wedge_coords(a, b):
    f = a.field
    coords = {}
    for I, ca in a.coords.items():
        for J, cb in b.coords.items():
            ms = ref_merge_sign(I, J)
            if ms is None:
                continue
            sign, M = ms
            c = f.mul(ca, cb)
            coords[M] = f.add(coords.get(M, f.zero), f.neg(c) if sign < 0 else c)
    return {M: c for M, c in coords.items() if not f.is_zero(c)}


def ref_contract_coords(covector, a):
    # i_f e_I = sum over i in I of f(e_i) * sign(e_i ^ e_{I-i} = sign * e_I) e_{I-i}
    f = a.field
    coords = {}
    for I, c in a.coords.items():
        for idx in I:
            rest = tuple(x for x in I if x != idx)
            sign = ref_merge_sign((idx,), rest)[0]
            t = f.mul(covector[idx - 1], c)
            coords[rest] = f.add(coords.get(rest, f.zero), f.neg(t) if sign < 0 else t)
    return {s: c for s, c in coords.items() if not f.is_zero(c)}


GRADE_PAIRS = [(g, h) for g in range(DIM_W + 1) for h in range(DIM_W + 1 - g)]
coefficient = st.one_of(st.just(0), st.just(0), st.integers(min_value=-150, max_value=150))


def draw_mv(draw, field, grade):
    values = draw(st.lists(coefficient, min_size=len(SUBSETS[grade]),
                           max_size=len(SUBSETS[grade])))
    return MultiVector(field, grade, {s: field.from_int(v) for s, v in zip(SUBSETS[grade], values)})


def test_merge_sign_matches_reference_on_every_pair():
    for g in range(DIM_W + 1):
        for h in range(DIM_W + 1):
            for I in SUBSETS[g]:
                for J in SUBSETS[h]:
                    assert merge_sign(I, J) == ref_merge_sign(I, J), (I, J)


@pytest.mark.parametrize("field", [QQ, F101])
@pytest.mark.parametrize("g,h", GRADE_PAIRS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_table_driven_products_match_reference(field, g, h, data):
    a = draw_mv(data.draw, field, g)
    b = draw_mv(data.draw, field, h)
    expected = ref_wedge_coords(a, b)
    ab = wedge(a, b)
    assert ab.grade == g + h and ab.coords == expected
    for M in SUBSETS[g + h]:
        assert wedge_coefficient(a, b, M) == expected.get(M, field.zero)
    if g >= 1:
        cov = [field.from_int(v) for v in data.draw(st.lists(coefficient, min_size=6, max_size=6))]
        assert contract(cov, a).coords == ref_contract_coords(cov, a)
    if g == h == 3:
        assert eta(a, b) == expected.get(TOP, field.zero)


@pytest.mark.parametrize("field", [QQ, F101])
def test_eta_gram_matches_reference(field):
    for i, I in enumerate(SUBSETS[3]):
        for j, J in enumerate(SUBSETS[3]):
            ms = ref_merge_sign(I, J)
            assert eta_gram(field)[i][j] == (field.zero if ms is None else field.from_int(ms[0]))


def test_public_constructor_still_validates_keys():
    with pytest.raises(ValueError):
        MultiVector(QQ, 2, {(1, 1): 1})
    with pytest.raises(ValueError):
        MultiVector(F101, 2, {(1, 2, 3): 1})


@pytest.mark.parametrize("field", [QQ, F101])
def test_cancelling_wedge_is_zero(field):
    a = e(1, 2, field=field) + e(3, 4, field=field)
    b = e(1, 2, field=field) - e(3, 4, field=field)
    ab = wedge(a, b)
    assert ab.grade == 4 and ab.is_zero() and ab.coords == {}
    assert field.is_zero(wedge_coefficient(a, b, (1, 2, 3, 4)))
    assert (a.scale(field.zero)).is_zero() and (a - a).is_zero()


def test_merge_table_is_not_built_at_import():
    src = os.path.dirname(os.path.dirname(lagstrata.__file__))
    code = ("import lagstrata.cli\n"
            "from lagstrata.exterior import merge_table\n"
            "print(merge_table.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "0"

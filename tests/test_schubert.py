import os
import random
import subprocess
import sys

import pytest

import lagstrata
from lagstrata.schubert import (ChowClass, G36, LG, H, power, degree_of,
                                degree_pairing, g36_degree, partitions,
                                chern_t_dual, chern_sub, chern_quot, pr_class,
                                stratum_degrees, class_in_h_s2_s3,
                                connectedness_check, _eval_eq, pieri,
                                basis_product, exceptional_coefficient,
                                dimension_ledger, hilb3_invariants, PAPER_EQ1)
from references import g36_schur_product, schur_product


def sigma(*lam):
    return ChowClass.sigma(G36, lam)


def test_pieri_and_basic_products():
    assert H * H == sigma(2) + sigma(1, 1)
    assert sigma(3, 3, 3) * H == ChowClass.zero(G36)  # truncation past the point
    # a classical Littlewood-Richardson product inside the box
    assert sigma(1) * sigma(2) == sigma(3) + sigma(2, 1)
    assert sigma(2, 1) * sigma(2, 1) == (sigma(3, 3) + 2 * sigma(3, 2, 1)
                                         + sigma(2, 2, 2))
    # the empty partition is the unit
    x = sigma(2, 1).scale(3) + sigma(3)
    assert ChowClass.one(G36) * x == x


def test_degree_of_g36():
    assert g36_degree() == 42
    assert power(H, 9).coefficient(G36.point) == 42


def test_poincare_duality_is_a_permutation_pairing():
    bp = partitions(G36)
    for d in range(10):
        classes = [p for p in bp if sum(p) == d]
        duals = [p for p in bp if sum(p) == 9 - d]
        mat = [[(ChowClass.sigma(G36, lam) * ChowClass.sigma(G36, mu)).coefficient(G36.point)
                for mu in duals] for lam in classes]
        assert all(sum(row) == 1 for row in mat)
        assert all(sum(col) == 1 for col in zip(*mat))


def test_schur_products_respect_grading_and_commute():
    rng = random.Random(5)
    parts = partitions(G36)
    for _ in range(30):
        lam, mu = rng.choice(parts), rng.choice(parts)
        assert schur_product(lam, mu) == schur_product(mu, lam)
        for nu, c in schur_product(lam, mu).items():
            assert sum(nu) == sum(lam) + sum(mu) and c > 0


def test_chern_classes_of_the_extended_bundle():
    c = chern_t_dual()
    assert c[0] == ChowClass.one(G36)
    assert c[1] == sigma(1).scale(4)
    assert c[10] == ChowClass.zero(G36)  # codimension 10 exceeds the ring
    assert len(c) == 11


def test_stratum_degrees_and_consistency():
    degs = stratum_degrees()
    assert degs == {1: 168, 2: 480, 3: 720}
    # deg(c1 cap G) = 4 * 42 through the hyperplane pairing
    assert degree_of(chern_t_dual()[1]) == 4 * 42 == 168


def test_pr_class_codimensions():
    for k in (1, 2, 3):
        cls = pr_class(k)
        assert cls.is_pure(k * (k + 1) // 2)
    with pytest.raises(ValueError):
        pr_class(4)


def test_class_decomposition_in_h_s2_s3():
    assert class_in_h_s2_s3(pr_class(2)) == (16, -12, 12)


def test_connectedness_system():
    eqs, sols, info = connectedness_check()
    assert sols == [(0, 0, 0), (16, 12, 12)]
    combo, den = info["combo"], info["combo_denominator"]
    # the printed first equation is an integer combination of the derived ones
    mono_keys = set(PAPER_EQ1)
    for m in mono_keys:
        assert sum(combo[i] * eqs[i].get(m, 0) for i in range(3)) == den * PAPER_EQ1[m]
    for s in sols:
        assert all(_eval_eq(eq, *s) == 0 for eq in eqs)
    assert any(_eval_eq(eq, 1, 1, 1) != 0 for eq in eqs)


def test_tautological_conversions():
    # c(S) c(Q) = 1 in the Chow ring
    total = ChowClass.zero(G36)
    for i in range(4):
        for j in range(4):
            if 0 < i + j <= 9:
                total = total + chern_sub(i) * chern_quot(j)
    assert total == ChowClass.zero(G36)
    assert chern_sub(2, dual=True) == sigma(1, 1)
    assert chern_sub(3) == sigma(1, 1, 1).scale(-1)


def test_g36_products_match_the_schur_oracle():
    parts = partitions(G36)
    assert len(parts) == 20
    for lam in parts:
        for mu in parts:
            assert basis_product(G36, lam, mu) == g36_schur_product(lam, mu)


def test_classes_outside_their_ring_rejected():
    with pytest.raises(ValueError):
        H * ChowClass.sigma(LG(3), (1,))
    with pytest.raises(ValueError):
        ChowClass.sigma(LG(3), (1,)) * H
    with pytest.raises(ValueError):
        H + ChowClass.sigma(LG(3), (1,))
    with pytest.raises(ValueError):
        ChowClass.sigma(G36, (4,))
    with pytest.raises(ValueError):
        ChowClass.sigma(G36, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        ChowClass.sigma(LG(3), (2, 2))


@pytest.mark.parametrize("code,message", [
    ("from fractions import Fraction\n"
     "from lagstrata.schubert import H, power, class_in_h_s2_s3\n"
     "print(class_in_h_s2_s3(power(H, 3).scale(Fraction(1, 2))))",
     "non-integral coordinates"),
    ("from lagstrata import schubert\n"
     "schubert.pieri = lambda ring, r, lam: {}\n"
     "print(schubert.basis_product(schubert.G36, (2, 1), (1, 1)))",
     "unitriangularity"),
], ids=["non-integral", "unitriangular"])
def test_result_guards_hold_under_python_O(code, message):
    # python -O strips assert statements, so the guards raise explicitly
    src = os.path.dirname(os.path.dirname(lagstrata.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode != 0 and out.stdout == ""
    assert f"AssertionError: {message}" in out.stderr


# Lagrangian side -----------------------------------------------------------


def test_strict_partition_basis_sizes():
    assert len(partitions(LG(3))) == 8
    assert len(partitions(LG(10))) == 1024


def test_lg_pieri_small_cases():
    assert pieri(LG(3), 1, (1,)) == {(2,): 2}
    assert pieri(LG(3), 1, (2,)) == {(3,): 2, (2, 1): 1}
    assert pieri(LG(3), 2, (2, 1)) == {(3, 2): 2}
    assert pieri(LG(3), 1, (3, 2)) == {(3, 2, 1): 1}


LG24_TABLE = {
    # independent oracle: H*(LG(2,4)) is the ring of a 3-dimensional quadric,
    # with h = sigma_1, the line class sigma_2 = h^2/2 and point sigma_21
    ((), ()): {(): 1},
    ((1,), (1,)): {(2,): 2},
    ((1,), (2,)): {(2, 1): 1},
    ((2,), (2,)): {},
    ((1,), (2, 1)): {},
    ((2,), (2, 1)): {},
}


def test_lg24_against_hand_table():
    for (lam, mu), want in LG24_TABLE.items():
        assert basis_product(LG(2), lam, mu) == want
    assert degree_pairing(power(ChowClass.sigma(LG(2), (1,)), 3)) == 2


def test_lg_degrees_small():
    assert degree_pairing(power(ChowClass.sigma(LG(3), (1,)), 6)) == 16


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hiller_boe_relations(n):
    # sigma_i^2 = 2 sum_{k >= 1} (-1)^(k+1) sigma_{i+k} sigma_{i-k}
    for i in range(1, n + 1):
        lhs = ChowClass.sigma(LG(n), (i,)) * ChowClass.sigma(LG(n), (i,))
        rhs = ChowClass(LG(n), {})
        for k in range(1, i + 1):
            hi, lo = i + k, i - k
            if hi > n:
                continue
            term = ChowClass.sigma(LG(n), (hi,))
            if lo:
                term = term * ChowClass.sigma(LG(n), (lo,))
            rhs = rhs + term.scale(2 * (-1) ** (k + 1))
        assert lhs == rhs


def test_lg_ring_is_commutative_and_associative():
    rng = random.Random(0)
    for n in (2, 3, 4):
        basis = partitions(LG(n))
        for _ in range(35):
            x = ChowClass(LG(n), {rng.choice(basis): rng.randrange(-3, 4) for _ in range(2)})
            y = ChowClass(LG(n), {rng.choice(basis): rng.randrange(-3, 4) for _ in range(2)})
            z = ChowClass(LG(n), {rng.choice(basis): rng.randrange(-3, 4) for _ in range(2)})
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)


def test_lg_mismatched_spaces_rejected():
    with pytest.raises(ValueError):
        ChowClass.one(LG(2)) * ChowClass.one(LG(3))


def test_hb_consequences_by_pairings():
    # n = 2: c1^2 and 2 c2 pair equally against c1^(N-2)
    base = power(ChowClass.sigma(LG(2), (1,)), 1)
    lhs = degree_pairing(base.mult_row(1).mult_row(1))
    rhs = 2 * degree_pairing(base.mult_row(2))
    assert lhs == rhs == 2
    # n = 10: c2^2 and 2(c3 c1 - c4) pair equally against c1^(N-4)
    N = LG(10).dim
    base10 = power(ChowClass.sigma(LG(10), (1,)), N - 4)
    lhs10 = degree_pairing(base10.mult_row(2).mult_row(2))
    rhs10 = 2 * (degree_pairing(base10.mult_row(3).mult_row(1))
                 - degree_pairing(base10.mult_row(4)))
    assert lhs10 == rhs10


def test_exceptional_coefficient():
    res = exceptional_coefficient(10)
    assert res["b"] == -2
    assert res["deg_sigma_n2_n"] > 0
    assert res["equation"](-2) == 0
    assert res["equation"](2) != 0
    # the (n-2, n) cycle class: c1 c3 - 2 c4 is the (3,1) basis class
    prod = pieri(LG(10), 3, (1,))
    assert prod.get((3, 1)) == 1


def test_dimension_ledger_values():
    led = dimension_ledger()
    by_d = {row["d1"]: row for row in led["rows"]}
    assert by_d[0]["dim_f1"] == 47 and by_d[0]["fiber"] == 6
    assert by_d[0]["total_f1"] == 53
    assert by_d[3]["dim_f2"] == 29 and by_d[3]["fiber"] == 21
    assert by_d[3]["total_f2"] == 50
    assert all(row["bounded_by_53"] for row in led["rows"])
    assert all(row["dim_f1"] == row["dim_f1_terms"] for row in led["rows"])
    assert all(row["dim_f2"] == row["dim_f2_terms"] for row in led["rows"])
    assert led["xi"]["dim"] == 54 and led["xi"]["ambient"] == 55
    assert led["xi"]["is_divisor_bound"]


def test_hilb3_invariants():
    assert hilb3_invariants(6, 2, 3) == {"q": 4, "fujiki_degree": 960}
    assert hilb3_invariants(6, 1, 0)["q"] == 10
    assert hilb3_invariants(6, 1, 0)["fujiki_degree"] == 15 * 1000

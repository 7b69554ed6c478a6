import itertools
import random

import numpy as np
import pytest

from lagstrata import batched
from lagstrata.fields import QQ, GF
from lagstrata.exterior import MultiVector, wedge
from lagstrata.linalg import LinearSubspace, mat_mul
from lagstrata.lagrangian import (tangent_space, f_space, random_graph_lagrangian,
                                  random_subspace, standard_frame,
                                  lagrangian_from_graph, random_symmetric,
                                  LagrangianSubspace, intersection_dim)
from lagstrata.strata import (stratum, census, sigma_probe,
                              delta_witnesses, gamma_witnesses, sample_lg1,
                              BudgetExceededError, _census_scan, _rows_array)
from references import (census_brute, grassmann_block_descriptors,
                        intersection_dims_for_groups_f32)


def basis_subspace(field, idxs):
    rows = [[field.one if j + 1 == i else field.zero for j in range(6)] for i in idxs]
    return LinearSubspace.from_vectors(field, 6, rows)


def test_stratum_self_intersection():
    U0 = basis_subspace(QQ, (1, 2, 3))
    assert stratum(tangent_space(U0), U0) == 10


def test_stratum_f_space_dichotomy():
    field = GF(7)
    U0 = basis_subspace(field, (1, 2, 3))
    A_in = f_space(MultiVector.basis(field, (2,)))
    A_out = f_space(MultiVector.basis(field, (5,)))
    assert stratum(A_in, U0) == 7
    assert stratum(A_out, U0) == 3


def test_stratum_generic_vanishing():
    # a random stratum value is 0 away from a divisor: expect >= 95 zeros
    field = GF(101)
    rng = random.Random(6)
    A = random_graph_lagrangian(field, rng)
    zeros = sum(1 for _ in range(100)
                if stratum(A, random_subspace(field, 6, 3, rng)) == 0)
    assert zeros >= 95


def test_stratum_invariance_under_basis_change():
    # simultaneous change of basis of W moves A and U without moving k
    field = GF(11)
    rng = random.Random(3)
    A = random_graph_lagrangian(field, rng)
    for _ in range(10):
        while True:
            g = [[field.random(rng) for _ in range(6)] for _ in range(6)]
            from lagstrata.linalg import rank as _rank
            if _rank(g, field) == 6:
                break
        gmv = [MultiVector.from_vector(field, 1, row) for row in g]

        def push_tri(coords):
            out = MultiVector.zero(field, 3)
            from lagstrata.exterior import SUBSETS
            for i, s in enumerate(SUBSETS[3]):
                c = coords[i]
                if field.is_zero(c):
                    continue
                w = wedge(wedge(gmv[s[0] - 1], gmv[s[1] - 1]), gmv[s[2] - 1])
                out = out + w.scale(c)
            return out.to_vector()

        U = random_subspace(field, 6, 3, rng)
        k = stratum(A, U)
        A2 = LagrangianSubspace.from_subspace(
            LinearSubspace.from_vectors(field, 20, [push_tri(list(r)) for r in A.rows]))
        U2 = LinearSubspace.from_vectors(field, 6, mat_mul([list(r) for r in U.rows],
                                                           g, field))
        assert stratum(A2, U2) == k


def test_census_totals_and_brute_match_p2():
    field = GF(2)
    A = random_graph_lagrangian(field, random.Random(5))
    rep = census(A)
    assert rep.total == 1395
    assert sum(rep.counts.values()) == 1395
    assert census_brute(A) == rep.counts


def test_census_total_p3_and_chunk_independence():
    field = GF(3)
    A = random_graph_lagrangian(field, random.Random(1))
    rep1 = census(A, chunk=4096)
    rep2 = census(A, chunk=33000, threads=1)
    assert rep1.total == 33880
    assert rep1.counts == rep2.counts
    assert rep1.cumulative[1] == sum(v for k, v in rep1.counts.items() if k >= 1)


def test_census_rejects_large_prime():
    field = GF(17)
    A = random_graph_lagrangian(field, random.Random(0))
    with pytest.raises(BudgetExceededError):
        census(A)


def test_one_scan_cap_before_any_work(monkeypatch):
    # census, gamma and lg1 sampling run the same scan; at p = 11 it would
    # cover 2,617,126,920 subspaces, so each refuses before scanning or drawing
    from lagstrata import strata

    def no_draw(*args, **kwargs):
        raise AssertionError("sample_lg1 drew before checking the cap")

    A = random_graph_lagrangian(GF(11), random.Random(0))
    monkeypatch.setattr(strata, "random_symmetric", no_draw)
    messages = set()
    for refuse in (lambda: census(A), lambda: gamma_witnesses(A),
                   lambda: sample_lg1(11, seed=0)):
        with pytest.raises(BudgetExceededError) as exc:
            refuse()
        messages.add(str(exc.value))
    assert messages == {"scans of G(3, F_p^6) are limited to p <= 7"}


def test_gamma_witnesses_tangent_case():
    field = GF(3)
    U0 = basis_subspace(field, (1, 2, 3))
    res = gamma_witnesses(tangent_space(U0))
    assert res.found and res.exhaustive
    wits = [LinearSubspace.from_json(field, w) for w in res.witnesses]
    assert U0 in wits


def test_gamma_witnesses_are_the_first_64_in_enumeration_order():
    # 14,197 of the 33,880 subspaces are witnesses here; blocks of 512 cut
    # the first 64 across several blocks
    field = GF(3)
    A = tangent_space(basis_subspace(field, (1, 3, 5)))

    def witnesses():
        for desc in grassmann_block_descriptors(3):
            for m in batched.build_grassmann_block(desc, 3):
                U = LinearSubspace.from_vectors(
                    field, 6, [[field.from_int(int(x)) for x in r] for r in m])
                if stratum(A, U) >= 4:
                    yield U.to_json()

    assert gamma_witnesses(A, chunk=512).witnesses == list(itertools.islice(witnesses(), 64))


def test_gamma_witnesses_f_space_case():
    # every U containing w satisfies dim(F_[w] ∩ T_U) = 7 >= 4
    field = GF(2)
    A = f_space(MultiVector.basis(field, (1,)))
    res = gamma_witnesses(A)
    assert res.found and res.exhaustive
    e1 = [field.one] + [field.zero] * 5
    wits = [LinearSubspace.from_json(field, w) for w in res.witnesses]
    assert any(U.contains(e1) for U in wits)


def test_gamma_none_found_on_lg1_sample():
    smp = sample_lg1(3, seed=1)
    assert not smp.gamma.found and smp.gamma.exhaustive
    assert not smp.sigma.found and smp.sigma.exhaustive


def test_delta_witnesses_tangent_case():
    # dim(F_[w] ∩ T_U0) is 7 on P(U0) and 3 elsewhere, so with the >= 3
    # threshold every point of P(W) is a witness and the 7s single out U0
    field = GF(3)
    U0 = basis_subspace(field, (1, 2, 3))
    A = tangent_space(U0)
    res = delta_witnesses(A)
    assert res.found and res.exhaustive
    points = np.concatenate([batched.build_projective_block(desc, 6, 3)
                             for desc in batched.projective_block_descriptors(6, 3)])
    dims = batched.f_space_dims(points, _rows_array(A) % 3, 3)
    assert len(points) == res.trials == (3**6 - 1) // 2
    deep = {tuple(int(x) for x in w) for w in points[dims == 7]}
    assert len(deep) == 13  # the projective plane P(U0) over F_3
    for w in deep:
        assert all(x == 0 for x in w[3:])
    assert (dims[dims != 7] == 3).all()
    # the report keeps the first 16 witnesses in enumeration order
    assert res.witnesses == [{"w": [int(x) for x in w], "dim": int(d)}
                             for w, d in zip(points[:16], dims[:16])]


def test_delta_witnesses_tangent_case_across_blocks():
    # at p = 13 the scan of P(W) (402,234 points) crosses about 100 block
    # boundaries; every point is a witness, so the report is the first 16
    field = GF(13)
    A = tangent_space(basis_subspace(field, (1, 2, 3)))
    res = delta_witnesses(A)
    assert res.trials == (13**6 - 1) // 12 == 402234
    first = batched.build_projective_block(batched.projective_block_descriptors(6, 13)[0],
                                           6, 13)[:16]
    dims = batched.f_space_dims(first, _rows_array(A) % 13, 13)
    assert res.witnesses == [{"w": [int(x) for x in w], "dim": int(d)}
                             for w, d in zip(first, dims)]
    for w in res.witnesses:
        F = f_space(MultiVector.from_vector(field, 1, [field.from_int(x) for x in w["w"]]))
        assert w["dim"] == intersection_dim(A, F)


def test_delta_typically_empty_for_random_graphs():
    field = GF(5)
    res = delta_witnesses(random_graph_lagrangian(field, random.Random(4)))
    assert res.exhaustive and res.trials == (5**6 - 1) // 4
    assert not res.found


def test_sigma_probe_planted_witness():
    field = GF(3)
    A = tangent_space(basis_subspace(field, (1, 2, 3)))
    res = sigma_probe(A)
    assert res.found and res.exhaustive
    wit = res.witnesses[0]
    assert wit["witness_u"]["rows"]  # certified by the exact decomposability test


def test_sigma_probe_exhaustive_none_found():
    field = GF(2)
    A = random_graph_lagrangian(field, random.Random(12))
    res = sigma_probe(A)
    assert res.exhaustive and res.trials == (2**10 - 1)
    # deterministic repeat
    res2 = sigma_probe(A)
    assert res.verdict == res2.verdict and res.trials == res2.trials


def test_sigma_probe_sampling_mode():
    field = GF(7)
    frame = standard_frame(field)
    rng = random.Random(3)
    A = lagrangian_from_graph(frame, random_symmetric(field, 10, rng))
    res = sigma_probe(A, trials=500, rng=random.Random(1))
    assert not res.exhaustive
    with pytest.raises(ValueError):
        sigma_probe(A)  # sampling regime requires an rng
    # chunk < 1 would draw blocks of no points forever
    rng = random.Random(1)
    for chunk in (0, -1):
        with pytest.raises(ValueError):
            sigma_probe(A, trials=500, rng=rng, chunk=chunk)
    assert rng.getstate() == random.Random(1).getstate()


def test_sigma_verdicts_over_p2_seeds():
    # pinned to the verdicts of the earlier 15x6 rank test on the same draws
    found = sum(sigma_probe(random_graph_lagrangian(GF(2), random.Random(s))).found
                for s in range(200))
    assert found == 138


def test_sample_lg1_budget_error():
    with pytest.raises(BudgetExceededError):
        sample_lg1(2, seed=0, max_attempts=1)


def test_sample_lg1_rejection_path():
    # seed chosen so the first draws carry witnesses and get rejected
    smp = sample_lg1(2, seed=0, max_attempts=15)
    assert smp.attempts == 3
    assert not smp.sigma.found and not smp.gamma.found


def test_census_pipeline_against_pure_stratum_sampled():
    # spot-check the batched pipeline at the acceptance prime on real
    # enumeration blocks against the rref-based stratum
    for p, seed in ((3, 1), (5, 3)):
        field = GF(p)
        A = random_graph_lagrangian(field, random.Random(seed))
        AM = _rows_array(A) % p
        D = batched.tangent_gram_blocks(AM, p)
        rng = random.Random(p)
        descs = grassmann_block_descriptors(p, chunk=512)
        for desc in rng.sample(descs, min(4, len(descs))):
            mats = batched.build_grassmann_block(desc, p)
            dims = batched.intersection_dims_for_batch(mats, D, p)
            for i in rng.sample(range(mats.shape[0]), min(12, mats.shape[0])):
                U = LinearSubspace.from_vectors(
                    field, 6, [[field.from_int(int(x)) for x in r] for r in mats[i]])
                assert stratum(A, U) == dims[i]


def test_gram_dims_on_mixed_pivot_patterns():
    # batches mixing many pivot patterns: reduced rows from random_subspace,
    # then the same subspaces with rows scaled and lower rows added to upper
    # ones (still row-echelon, no longer reduced)
    for p, seed in ((3, 4), (5, 6), (7, 8)):
        field = GF(p)
        rng = random.Random(seed)
        A = random_graph_lagrangian(field, rng)
        D = batched.tangent_gram_blocks(_rows_array(A) % p, p)
        subspaces = []
        for _ in range(80):
            # a random subspace of a random coordinate k-space, k = 3..6
            cols = sorted(rng.sample(range(6), rng.randrange(3, 7)))
            V = random_subspace(field, len(cols), 3, rng)
            rows = [[field.zero] * 6 for _ in range(3)]
            for row, v in zip(rows, V.rows):
                for c, x in zip(cols, v):
                    row[c] = x
            subspaces.append(LinearSubspace.from_vectors(field, 6, rows))
        mats = np.array([[[int(x) for x in r] for r in U.rows] for U in subspaces])
        echelon = mats * np.array([rng.randrange(1, p) for _ in range(3)])[None, :, None]
        echelon[:, 0] += rng.randrange(p) * echelon[:, 1] + rng.randrange(p) * echelon[:, 2]
        echelon[:, 1] += rng.randrange(p) * echelon[:, 2]
        want = [stratum(A, U) for U in subspaces]
        assert len({tuple(np.argmax(m != 0, axis=1)) for m in mats}) >= 12
        assert list(batched.intersection_dims_for_batch(mats, D, p)) == want
        assert list(batched.intersection_dims_for_batch(echelon % p, D, p)) == want
        assert list(batched.intersection_dims_for_batch(mats[::-1], D, p)) == want[::-1]


@pytest.mark.parametrize("rows", [
    [[0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],   # pivots out of order
    [[1, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],   # repeated leading column
    [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]],   # zero row
    [[1, 0, 0, 0, 0, 0], [0, 3, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],   # zero row mod 3
])
def test_gram_dims_reject_non_echelon_input(rows):
    p = 3
    A = random_graph_lagrangian(GF(p), random.Random(1))
    D = batched.tangent_gram_blocks(_rows_array(A) % p, p)
    good = np.array([[[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]])
    batched.intersection_dims_for_batch(good, D, p)
    with pytest.raises(ValueError):
        batched.intersection_dims_for_batch(np.concatenate([good, [rows]]), D, p)


def test_census_p3_histogram_pinned():
    A = random_graph_lagrangian(GF(3), random.Random(1))
    assert census(A).counts == {0: 21465, 1: 11058, 2: 1305, 3: 52}


def test_sample_lg1_certificates_deterministic():
    s1 = sample_lg1(3, seed=2, want_census=True)
    s2 = sample_lg1(3, seed=2, want_census=True)
    assert s1.A == s2.A
    assert s1.census_report.counts == s2.census_report.counts
    assert s1.census_report.count_at_least(4) == 0


@pytest.mark.parametrize("p, chunk", [(2, 1), (2, 7), (3, 100), (3, 4096)])
def test_census_and_witnesses_independent_of_group_blocks(p, chunk):
    # a pattern-(0,1,2) group holds p^3 subspaces: chunks 1 and 7 are below
    # one group at p = 2, and 100 and 4096 cut the 729 groups of that
    # pattern at p = 3 unevenly
    field = GF(p)
    A = random_graph_lagrangian(field, random.Random(p + 3))
    assert census(A, chunk=chunk, threads=1).counts == census(A, chunk=40000).counts
    T = tangent_space(basis_subspace(field, (1, 3, 5)))
    assert (gamma_witnesses(T, chunk=chunk).witnesses
            == gamma_witnesses(T, chunk=40000, threads=1).witnesses)


def test_census_p5_lg1_seed11_counts_pinned():
    # the first draw of sample_lg1(5, 11), criterion 8's seed-11 sample
    field = GF(5)
    A = lagrangian_from_graph(standard_frame(field), random_symmetric(field, 10, random.Random(11)))
    assert census(A).counts == {0: 2034000, 1: 503865, 2: 20550, 3: 141}


def test_gamma_witnesses_p5_tangent_pinned():
    # A = T_U0 over F_5: 605,431 witnesses, of which the first 64 are kept;
    # 9,331 of the 75,456 (u1, u2) groups have rank X < 4 and take the 10x10 path
    import hashlib
    import json
    res = gamma_witnesses(tangent_space(basis_subspace(GF(5), (1, 2, 3))))
    assert res.detail["counts"] == {"0": 1953125, "4": 600625, "6": 4805, "10": 1}
    assert hashlib.sha256(json.dumps(res.witnesses, sort_keys=True).encode()).hexdigest() == (
        "8b8353d0a9d4214abd117442ab6f952929d42dbee954398ff9d5e8cffc439e41")


@pytest.mark.parametrize("p", [2, 3])
def test_whole_census_matches_the_float32_route(p, monkeypatch):
    # the bit-plane census against the float32 route of its 6x6 residuals, on
    # every group of G(3, F_p^6): random graph Lagrangians, and a tangent
    # space, whose census has witnesses and rank-deficient groups
    field = GF(p)
    draws = [random_graph_lagrangian(field, random.Random(seed)) for seed in range(3)]
    draws.append(tangent_space(basis_subspace(field, (2, 4, 5))))

    def scans():
        # the counts and the first 64 witnesses of each census
        return [(report.counts, [w.tolist() for w in witnesses])
                for report, witnesses in (_census_scan(A, 2000, 2) for A in draws)]

    got = scans()
    monkeypatch.setattr(batched, "intersection_dims_for_groups", intersection_dims_for_groups_f32)
    assert got == scans()
    assert any(witnesses for _, witnesses in got)

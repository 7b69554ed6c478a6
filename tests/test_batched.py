import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagstrata import batched
from lagstrata.fields import GF
from lagstrata.linalg import rank as pure_rank
from references import grassmann_block_descriptors, intersection_dims_for_groups_f32


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 101, 181])
def test_batch_rank_matches_pure_rank(p):
    field = GF(p)
    rng = np.random.default_rng(p)
    mats = rng.integers(0, p, size=(240, 7, 9))
    # plant rank deficiencies
    low = rng.integers(0, p, size=(mats[::4].shape[0], 3, 9))
    mats[::4] = (mats[::4, :, :3] @ low) % p
    got = batched.batch_rank(mats, p)
    for i in range(0, 240, 5):
        rows = [[field.from_int(int(x)) for x in r] for r in mats[i]]
        assert pure_rank(rows, field) == got[i]


def test_batch_rank_cap_on_prime():
    with pytest.raises(ValueError):
        batched.batch_rank(np.zeros((1, 2, 2), dtype=np.int64), 191)


def _max_steps(p):
    # largest s with (p-1) + (s-1)(p-1)^2 below the float32-exact limit
    return (batched.EXACT_LIMIT - 1 - (p - 1)) // (p - 1) ** 2 + 1


@pytest.mark.parametrize("p", [2, 5, 181])
def test_batch_rank_growth_bound_edge(p):
    s = _max_steps(p)
    batched.check_exact(p, s)
    with pytest.raises(ValueError):
        batched.check_exact(p, s + 1)
    # the bound counts elimination steps, min(r, c), in either orientation
    if s + 1 <= 300:
        with pytest.raises(ValueError):
            batched.batch_rank(np.zeros((1, s + 1, s + 2), dtype=np.int64), p)
        with pytest.raises(ValueError):
            batched.batch_rank(np.zeros((1, s + 2, s + 1), dtype=np.int64), p)


def test_batch_rank_at_the_float32_edge():
    # p = 181 admits 65 steps; all entries p - 1 except a unit diagonal makes
    # every factor and pivot-row entry maximal in the first step
    p, n = 181, _max_steps(181)
    assert n == 65
    field = GF(p)
    rng = np.random.default_rng(181)
    mats = np.full((3, n, n), p - 1, dtype=np.int64)
    mats[0, np.arange(n), np.arange(n)] = 1
    mats[1] = rng.integers(0, p, size=(n, n))
    mats[2] = (rng.integers(0, p, size=(n, 40)) @ rng.integers(0, p, size=(40, n))) % p
    got = batched.batch_rank(mats - p * rng.integers(0, 50, size=mats.shape), p)
    for i in range(3):
        rows = [[field.from_int(int(x)) for x in r] for r in mats[i]]
        assert got[i] == pure_rank(rows, field)
    assert got[2] == 40


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 181]), st.integers(1, 9), st.integers(1, 9),
       st.integers(0, 2**32 - 1))
def test_batch_rank_hypothesis_extreme_entries(p, r, c, seed):
    rng = np.random.default_rng(seed)
    field = GF(p)
    # entries are residues shifted by multiples of p: negative, zero and the
    # largest magnitudes the reducing entry path accepts
    res = rng.choice([0, 1, p - 1, rng.integers(0, p)], size=(8, r, c))
    lift = rng.choice([0, -1, 1, -(batched.EXACT_LIMIT // p - 1)], size=res.shape)
    got = batched.batch_rank(res + p * lift, p)
    got_f32 = batched.batch_rank((res + p * lift).astype(np.float32), p, in_place=True)
    for i in range(8):
        rows = [[field.from_int(int(x)) for x in row] for row in res[i]]
        assert got[i] == got_f32[i] == pure_rank(rows, field)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 101, 167, 181]),
       st.lists(st.integers(-(batched.EXACT_LIMIT - 1), batched.EXACT_LIMIT - 1),
                min_size=1, max_size=50))
def test_reduce_mod_hypothesis_edge(p, xs):
    edge = [batched.EXACT_LIMIT - 1, -(batched.EXACT_LIMIT - 1), p - 1, -p, 0]
    x = np.array(xs + edge, dtype=np.int64)
    y = x.astype(np.float32)
    batched._reduce_mod(y, p)
    assert (y.astype(np.int64) == x % p).all()


def test_reduce_mod_exhaustive_below_limit():
    # every integer of magnitude below the limit, at the largest admitted prime
    x = np.arange(-batched.EXACT_LIMIT + 1, batched.EXACT_LIMIT, dtype=np.int64)
    for p in (167, 181):
        y = x.astype(np.float32)
        batched._reduce_mod(y, p)
        assert (y.astype(np.int64) == x % p).all()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_grassmann_enumeration_counts(p):
    total = 0
    seen = set()
    for desc in grassmann_block_descriptors(p, chunk=997):
        mats = batched.build_grassmann_block(desc, p)
        total += mats.shape[0]
        for m in mats[:: max(1, mats.shape[0] // 7)]:
            seen.add(m.tobytes())
    assert total == batched.grassmann_size(6, 3, p)


def test_grassmann_size_values():
    assert batched.grassmann_size(6, 3, 2) == 1395
    assert batched.grassmann_size(6, 3, 3) == 33880
    assert batched.grassmann_size(6, 3, 5) == 2558556


@pytest.mark.parametrize("p", [7, 11, 13])
def test_descriptor_totals_cover_grassmannian(p):
    # the per-pattern free-slot counts add up without building any block
    total = sum(count for _, _, _, count in
                grassmann_block_descriptors(p, chunk=1 << 30))
    assert total == batched.grassmann_size(6, 3, p)


@pytest.mark.parametrize("p", [2, 3])
def test_projective_enumeration_counts(p):
    for dim in (3, 6):
        total = 0
        reps = set()
        for desc in batched.projective_block_descriptors(dim, p, chunk=100):
            vecs = batched.build_projective_block(desc, dim, p)
            total += vecs.shape[0]
            for v in vecs:
                reps.add(tuple(int(x) for x in v))
        assert total == (p**dim - 1) // (p - 1)
        assert len(reps) == total


def _identity_quadrics(p):
    return batched.restricted_quadrics(np.eye(20, dtype=np.int64), p)


def test_decomposable_mask_against_exact_test():
    from lagstrata.exterior import MultiVector
    from lagstrata.lagrangian import is_decomposable
    p = 7
    field = GF(p)
    rng = np.random.default_rng(3)
    omegas = rng.integers(0, p, size=(60, 20))
    # plant decomposables: wedges of three random vectors
    import random as pyrandom
    from lagstrata.exterior import wedge
    prng = pyrandom.Random(5)
    for i in range(0, 60, 3):
        vs = [MultiVector.from_vector(field, 1, [field.random(prng) for _ in range(6)])
              for _ in range(3)]
        w = wedge(wedge(vs[0], vs[1]), vs[2])
        omegas[i] = [int(x) for x in w.to_vector()]
    # the quadrics restricted to the identity are the Pluecker quadrics themselves
    zeros = batched.quadric_zeros(omegas, _identity_quadrics(p), p).tolist()
    for i in range(60):
        coords = [field.from_int(int(x)) for x in omegas[i]]
        if all(field.is_zero(c) for c in coords):
            assert i in zeros
            continue
        ok, _ = is_decomposable(MultiVector.from_vector(field, 3, coords))
        assert (i in zeros) == ok


def test_f_space_dims_against_exact_intersection():
    import random as pyrandom
    from lagstrata.exterior import MultiVector
    from lagstrata.lagrangian import random_graph_lagrangian, f_space, intersection_dim
    p = 5
    field = GF(p)
    prng = pyrandom.Random(9)
    A = random_graph_lagrangian(field, prng)
    AM = np.array([[int(x) for x in r] for r in A.rows], dtype=np.int64)
    rng = np.random.default_rng(4)
    ws = rng.integers(0, p, size=(40, 6))
    ws[:, 0] = np.maximum(ws[:, 0], 1)
    dims = batched.f_space_dims(ws, AM, p)
    for i in range(40):
        w = MultiVector.from_vector(field, 1, [field.from_int(int(x)) for x in ws[i]])
        assert dims[i] == intersection_dim(A, f_space(w))


PRIMES_TO_CAP = [q for q in range(2, batched.MAX_PRIME + 1)
                 if all(q % d for d in range(2, int(q ** 0.5) + 1))]


def test_plucker_relations_span_35_mod_every_prime():
    rels = batched.plucker_relations()
    iu = np.triu_indices(20)
    for p in PRIMES_TO_CAP:
        assert pure_rank([[int(x) % p for x in U[iu]] for U in rels], GF(p)) == 35
        assert batched.restricted_quadrics(np.eye(20, dtype=np.int64), p).shape == (35, 20, 20)


def test_plucker_relations_bytes_pinned():
    # the int8 build must hand back the same int64 table, byte for byte
    import hashlib
    rels = batched.plucker_relations()
    assert rels.dtype == np.int64 and rels.shape == (45, 20, 20)
    assert hashlib.sha256(rels.tobytes()).hexdigest() == (
        "ebb0acee7c0a82e4532c3f4ac9c43124c8ef7fe9cd79aafaa6ea72c72ad4317e")


def test_plucker_relations_against_sympy():
    # independent oracle: the relations vanish on the 3x3 minors of a generic
    # 3x6 matrix, and mod p they span all 210 - 175 quadrics that do
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    from lagstrata.exterior import SUBSETS
    X = sympy.Matrix(3, 6, lambda i, j: sympy.Symbol(f"x{i}{j}"))
    minors = [sympy.Poly(X[:, [c - 1 for c in I]].det(), *X) for I in SUBSETS[3]]
    iu = list(zip(*np.triu_indices(20)))
    rels = batched.plucker_relations()
    for U in rels:
        assert sum((int(U[a, b]) * minors[a] * minors[b] for a, b in iu if U[a, b]),
                   sympy.Poly(0, *X)).is_zero
    prods = [minors[a] * minors[b] for a, b in iu]
    monos = {m: i for i, m in enumerate(sorted({m for q in prods for m in q.monoms()}))}
    coeffs = [[int(U[a, b]) for a, b in iu] for U in rels]
    for p in (2, 3, 5, 181):
        Fp = sympy.GF(p)
        img = {r: {monos[m]: Fp(int(c)) for m, c in q.terms() if int(c) % p}
               for r, q in enumerate(prods)}
        assert DomainMatrix(img, (210, len(monos)), Fp).rank() == 175
        assert DomainMatrix(coeffs, (len(rels), 210), sympy.ZZ).convert_to(Fp).rank() == 35


def _wedge3(field, vecs):
    from lagstrata.exterior import MultiVector, wedge
    u, v, w = (MultiVector.from_vector(field, 1, [field.from_int(int(x)) for x in r])
               for r in vecs)
    return [int(x) for x in wedge(wedge(u, v), w).to_vector()]


def _exact_decomposable(field, omega):
    from lagstrata.exterior import MultiVector
    from lagstrata.lagrangian import is_decomposable
    return is_decomposable(MultiVector.from_vector(field, 3, [int(x) for x in omega]))[0]


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 181]), d=st.integers(1, 10),
       seed=st.integers(0, 2**32 - 1))
def test_quadric_zeros_match_exact_decomposability(p, d, seed):
    field = GF(p)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, p, size=(d, 20))
    # plant decomposables: u1^u2^v and u1^u2^w span a line of them
    u1, u2, v, w = rng.integers(0, p, size=(4, 6))
    rows[0] = _wedge3(field, (u1, u2, v))
    if d > 1:
        rows[1] = _wedge3(field, (u1, u2, w))
    points = rng.integers(0, p, size=(60, d))
    points[::3, 2:] = 0
    points[1] = 0
    zeros = batched.quadric_zeros(points, batched.restricted_quadrics(rows, p), p)
    omegas = points @ rows % p
    expected = [i for i, om in enumerate(omegas)
                if not om.any() or _exact_decomposable(field, om)]
    assert zeros.tolist() == expected
    assert batched.quadric_zeros(omegas, _identity_quadrics(p), p).tolist() == expected


@pytest.mark.parametrize("d", [20, 64])
def test_quadric_zeros_at_the_float32_edge(d):
    # at p = 181 the sums reach d (p - 1)^2: 64 * 180^2 = 2,073,600 < 2^21
    p = 181
    rng = np.random.default_rng(d)
    forms = np.triu(rng.integers(p - 3, p, size=(1, d, d))).astype(np.float32)
    points = rng.integers(p - 3, p, size=(4000, d))
    points[:, -1] = rng.integers(0, p, size=4000)
    # int64 is exact here: every value is below d^2 (p - 1)^3 < 2^35
    exact = np.flatnonzero((points @ forms[0].astype(np.int64) * points).sum(axis=1) % p == 0)
    got = batched.quadric_zeros(points, forms, p)
    assert exact.size > 0 and got.tolist() == exact.tolist()


def test_quadric_zeros_bound_refused_past_the_edge():
    p = 181
    batched.check_exact(p, terms=64)
    with pytest.raises(ValueError):
        batched.check_exact(p, terms=65)  # 65 * 180^2 = 2,106,000 > 2^21
    with pytest.raises(ValueError):
        batched.quadric_zeros(np.zeros((1, 65)), np.zeros((1, 65, 65), dtype=np.float32), p)


@pytest.mark.parametrize("chunk", [0, -1])
def test_block_descriptors_reject_empty_chunks(chunk):
    # a chunk below 1 would append empty descriptors forever
    with pytest.raises(ValueError):
        grassmann_block_descriptors(3, chunk=chunk)
    with pytest.raises(ValueError):
        batched.projective_block_descriptors(3, 5, chunk=chunk)


def test_parallel_map_starts_at_most_one_worker_per_item_and_cpu(monkeypatch):
    started = []

    class Recorder:
        """Stands in for ThreadPoolExecutor and maps in the calling thread."""
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(batched, "ThreadPoolExecutor", Recorder)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    square = lambda x: x * x  # noqa: E731
    assert batched.parallel_map(square, list(range(1485)), threads=1485) == [
        x * x for x in range(1485)]
    assert batched.parallel_map(square, [3, 4, 5], threads=64) == [9, 16, 25]
    assert batched.parallel_map(square, list(range(10)), threads=2) == [
        x * x for x in range(10)]
    assert batched.parallel_map(square, [7], threads=8) == [49]
    want = [min(t, n, cpus) for t, n in ((1485, 1485), (64, 3), (2, 10), (8, 1))]
    assert started == [w for w in want if w > 1]
    assert all(1 < w <= cpus for w in started)


def test_sign_tensors_bytes_pinned():
    import hashlib
    for table, shape, digest in (
            (batched.tri_biv_to_five(), (20, 15, 6),
             "23b0d104df73895fe2a9b1528ebf843b4d18c0ba323f0f05368942ca5b867482"),
            (batched.vec_tri_to_four(), (6, 20, 15),
             "1d4947bb59585d45421b84d1e855c626454e41d69cd39e9653d483261ccb25c6")):
        assert table.dtype == np.int64 and table.shape == shape
        assert hashlib.sha256(table.tobytes()).hexdigest() == digest


def test_block_digits_match_power_formula():
    # successive divmod gives the digits (codes // p^t) % p of the free slots
    for p in (2, 5, 7):
        for desc in grassmann_block_descriptors(p, chunk=4000)[::50]:
            pattern, slots, start, count = desc
            mats = batched.build_grassmann_block(desc, p)
            codes = np.arange(start, start + count)
            want = np.zeros((count, 3, 6), dtype=np.int64)
            want[:, [0, 1, 2], list(pattern)] = 1
            for t, (i, c) in enumerate(slots):
                want[:, i, c] = (codes // p**t) % p
            assert mats.dtype == np.int64 and (mats == want).all()
        for desc in batched.projective_block_descriptors(10, p, chunk=3000)[::7]:
            lead, start, count = desc
            vecs = batched.build_projective_block(desc, 10, p)
            codes = np.arange(start, start + count)
            assert (vecs[:, :lead] == 0).all() and (vecs[:, lead] == 1).all()
            for t in range(10 - lead - 1):
                assert (vecs[:, lead + 1 + t] == (codes // p**t) % p).all()


@pytest.mark.parametrize("p, chunk", [(2, 1), (3, 1), (3, 100), (3, 4096), (5, 32768)])
def test_group_blocks_cover_every_code_once(p, chunk):
    # per pattern, the codes of the group blocks are 0 .. p^n - 1 once each
    # (a chunk below one group still gives whole groups), block sizes <= max(chunk, p^f)
    by_pattern = {}
    for desc in batched.group_block_descriptors(p, chunk):
        codes = batched.group_block_codes(desc, p)
        assert codes.size <= max(chunk, codes.shape[0])
        by_pattern.setdefault(desc[0], []).append(codes.ravel())
    assert list(by_pattern) == batched.pivot_patterns()
    for pattern, parts in by_pattern.items():
        codes = np.sort(np.concatenate(parts))
        assert (codes == np.arange(p ** len(batched.free_slots(pattern)))).all()


def _group_block(p, pattern_index, first, groups):
    pattern = batched.pivot_patterns()[pattern_index]
    slots = tuple(batched.free_slots(pattern))
    f = sum(i == 2 for i, _ in slots)
    total = p ** (len(slots) - f)
    first %= total
    return (pattern, slots, first, min(groups, total - first))


def _dims_by_10x10(desc, D, p):
    codes = batched.group_block_codes(desc, p)
    mats = batched.echelon_rows(desc[0], desc[1], codes.ravel(), p)
    return batched.intersection_dims_for_batch(mats, D, p).reshape(codes.shape), mats


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), pattern_index=st.integers(0, 19),
       tangent=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_group_dims_match_10x10_and_stratum(p, pattern_index, tangent, seed):
    import random as pyrandom
    from lagstrata.lagrangian import random_graph_lagrangian, tangent_space
    from lagstrata.linalg import LinearSubspace
    from lagstrata.strata import stratum, _rows_array
    field = GF(p)
    rng = np.random.default_rng(seed)
    desc = _group_block(p, pattern_index, int(rng.integers(0, 2**40)), int(rng.integers(1, 4)))
    codes = batched.group_block_codes(desc, p).ravel()
    if tangent:
        # A = T_U for a U of the block: U's own group has rank X = 0
        U = batched.echelon_rows(desc[0], desc[1], codes[rng.integers(codes.size)][None], p)[0]
        A = tangent_space(LinearSubspace.from_vectors(
            field, 6, [[field.from_int(int(x)) for x in r] for r in U]))
    else:
        A = random_graph_lagrangian(field, pyrandom.Random(seed))
    D = batched.tangent_gram_blocks(_rows_array(A) % p, p)
    got = batched.intersection_dims_for_groups(desc, D, p)
    want, mats = _dims_by_10x10(desc, D, p)
    assert got.dtype == np.int64 and (got == want).all()
    for i in rng.choice(codes.size, size=min(3, codes.size), replace=False):
        U = LinearSubspace.from_vectors(
            field, 6, [[field.from_int(int(x)) for x in r] for r in mats[i]])
        assert got.reshape(-1)[i] == stratum(A, U)


def test_group_dims_take_the_10x10_path_on_rank_deficient_groups(monkeypatch):
    # A = T_U0, U0 = <e1, e2, e3>: group 0 of pattern (0, 1, 2) is u1 = e1,
    # u2 = e2, whose X rows lie in T_U0 and pair to zero with A
    from lagstrata.lagrangian import tangent_space
    from lagstrata.linalg import LinearSubspace
    from lagstrata.strata import _rows_array
    p = 3
    field = GF(p)
    U0 = LinearSubspace.from_vectors(
        field, 6, [[field.one if j == i else field.zero for j in range(6)] for i in range(3)])
    D = batched.tangent_gram_blocks(_rows_array(tangent_space(U0)) % p, p)
    fallback = []
    ref = batched.intersection_dims_for_batch

    def recording(mats, D, p):
        fallback.append(mats.shape[0])
        return ref(mats, D, p)

    deficient = _group_block(p, 0, 0, 9)
    full = _group_block(p, 0, 1 + 3**4, 1)     # u1 = e1 + e4, u2 = e2 + e5: rank X = 4
    want = [_dims_by_10x10(desc, D, p)[0] for desc in (deficient, full)]
    monkeypatch.setattr(batched, "intersection_dims_for_batch", recording)
    got = batched.intersection_dims_for_groups(deficient, D, p)
    assert (got == want[0]).all() and got[0, 0] == 10
    assert fallback and fallback[0] % 27 == 0  # whole groups of p^3 subspaces
    fallback.clear()
    assert (batched.intersection_dims_for_groups(full, D, p) == want[1]).all()
    assert not fallback


@pytest.mark.parametrize("p", [7, batched.MAX_PRIME])
def test_group_dims_at_the_float32_edge(p, monkeypatch):
    # The float32 half's one bound, check_exact(p, 5, terms=15), covers its
    # 15-term products and the Y rows after four updates; D with entries in
    # {0, p - 1} (any D: the rank identity needs no Lagrangian) makes every
    # product and update maximal.  At the scan cap p = 7 the kernel agrees
    # with the 10x10 path.  MAX_PRIME is past the bit-plane domain, so there
    # the kernel refuses and the float32 route of the residuals agrees;
    # past MAX_PRIME that route refuses too.
    calls = []
    check = batched.check_exact
    monkeypatch.setattr(batched, "check_exact",
                        lambda *a, **k: calls.append((a, k)) or check(*a, **k))
    kernel = batched.intersection_dims_for_groups
    if p > batched.PLANES_MAX_PRIME:
        kernel = intersection_dims_for_groups_f32
    rng = np.random.default_rng(p)
    for pattern_index in range(20):
        desc = _group_block(p, pattern_index, int(rng.integers(0, 2**40)), 3)
        if len(batched.group_block_codes(desc, p)) > 400:
            continue           # p^f > 400 subspaces per group: only at p = 181
        D = (p - 1) * rng.integers(0, 2, size=(15, 60)).astype(np.float32)
        D[:, rng.integers(60)] = p - 1
        if p > batched.PLANES_MAX_PRIME:
            with pytest.raises(ValueError):
                batched.intersection_dims_for_groups(desc, D, p)
        calls.clear()
        got = kernel(desc, D, p)
        assert calls[0] == ((p, 5), {"terms": 15})
        assert (got == _dims_by_10x10(desc, D, p)[0]).all()
    with pytest.raises(ValueError):
        intersection_dims_for_groups_f32(_group_block(191, 19, 0, 1),
                                         np.zeros((15, 60), dtype=np.float32), 191)


def test_matmul_mod_f32_at_the_float32_edge():
    # at MAX_PRIME a 64-term sum of products (p - 1)^2 is 2,073,600 < 2^21
    p = batched.MAX_PRIME
    rng = np.random.default_rng(64)
    a = rng.integers(p - 3, p, size=(300, 64))
    b = rng.integers(p - 3, p, size=(64, 50))
    a[0] = b[:, 0] = p - 1
    got = batched.matmul_mod_f32(a, b, p)
    assert (got.astype(np.int64) == a @ b % p).all()
    with pytest.raises(ValueError):
        batched.matmul_mod_f32(np.ones((2, 65)), np.ones((65, 2)), p)


def _values(planes, n):
    """The first n lanes of (b, ..., words) bit-planes as integers."""
    bits = np.unpackbits(planes.view(np.uint8), axis=-1, bitorder="little")[..., :n]
    return sum(bits[k].astype(np.int64) << k for k in range(len(planes)))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_plane_arithmetic_exhaustive(p):
    a, b = (x.ravel() for x in np.meshgrid(np.arange(p), np.arange(p)))
    pa, pb = batched.pack_planes(a, p), batched.pack_planes(b, p)
    assert pa.shape == (p.bit_length(), -(-p * p // 64))
    assert (_values(pa, p * p) == a).all()
    assert (_values(batched._add_mod(pa, pb, p), p * p) == (a + b) % p).all()
    mults = batched._multiples(pa, p)
    for c in range(1, p):
        assert (_values(mults[c - 1], p * p) == c * a % p).all()
    masks = batched._equal_masks(pa, p)
    for c in range(1, p):
        assert (_values(masks[c - 1][None], p * p) == (a == c)).all()


def _planted(rng, p, n, r, c):
    """n random r x c matrices over F_p, each of a random rank <= min(r, c)
    (a product through a random inner dimension), as an int64 array."""
    k = rng.integers(0, min(r, c) + 1, size=n)
    left = rng.integers(0, p, size=(n, r, min(r, c)))
    right = rng.integers(0, p, size=(n, min(r, c), c))
    left *= np.arange(min(r, c)) < k[:, None, None]
    return left @ right % p


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), n=st.integers(1, 300),
       shape=st.sampled_from([(6, 6), (10, 10), (3, 5), (7, 4), (1, 6)]),
       seed=st.integers(0, 2**32 - 1))
def test_plane_rank_matches_batch_rank(p, n, shape, seed):
    rng = np.random.default_rng(seed)
    mats = _planted(rng, p, n, *shape)
    mats[rng.random(n) < 0.2] = rng.integers(0, p, size=shape)
    got = batched.plane_rank(batched.pack_planes(mats.transpose(1, 2, 0), p), p)
    assert got.shape == (-(-n // 64) * 64,) and got.dtype == np.int64
    assert (got[:n] == batched.batch_rank(mats, p)).all()
    assert not got[n:].any()            # padding lanes are zero matrices


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_plane_rank_on_every_planted_rank(p):
    # 6x6 matrices through an inner dimension k = 0 .. 6, 150 of each
    rng = np.random.default_rng(p)
    mats = np.concatenate([rng.integers(0, p, size=(150, 6, k))
                           @ rng.integers(0, p, size=(150, k, 6)) for k in range(7)]) % p
    want = batched.batch_rank(mats, p)
    assert set(want.tolist()) == set(range(7))
    got = batched.plane_rank(batched.pack_planes(mats.transpose(1, 2, 0), p), p)
    assert (got[:len(mats)] == want).all() and not got[len(mats):].any()


def test_bit_plane_kernels_refuse_large_primes():
    for call in (lambda: batched.pack_planes(np.zeros((6, 6, 1), dtype=np.uint8), 11),
                 lambda: batched.plane_rank(np.zeros((4, 6, 6, 1), dtype=np.uint64), 11),
                 lambda: batched.intersection_dims_for_groups(
                     _group_block(11, 19, 0, 1), np.zeros((15, 60), dtype=np.float32), 11)):
        with pytest.raises(ValueError):
            call()


def _pattern_with_f(f):
    # f free slots in u_3 exactly when its pivot column is 5 - f
    return next(i for i, P in enumerate(batched.pivot_patterns()) if P[2] == 5 - f)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), f=st.integers(0, 3), groups=st.integers(1, 150),
       tangent=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_group_dims_match_the_float32_route(p, f, groups, tangent, seed):
    # every f from 0 to 3, group counts that leave padding lanes in the last
    # word, and A = T_U for a U of the block, whose group has rank X < 4
    import random as pyrandom
    from lagstrata.lagrangian import random_graph_lagrangian, tangent_space
    from lagstrata.linalg import LinearSubspace
    from lagstrata.strata import _rows_array
    field = GF(p)
    rng = np.random.default_rng(seed)
    desc = _group_block(p, _pattern_with_f(f), int(rng.integers(0, 2**40)), groups)
    if tangent:
        codes = batched.group_block_codes(desc, p).ravel()
        U = batched.echelon_rows(desc[0], desc[1], codes[rng.integers(codes.size)][None], p)[0]
        A = tangent_space(LinearSubspace.from_vectors(
            field, 6, [[field.from_int(int(x)) for x in r] for r in U]))
    else:
        A = random_graph_lagrangian(field, pyrandom.Random(seed))
    D = batched.tangent_gram_blocks(_rows_array(A) % p, p)
    got = batched.intersection_dims_for_groups(desc, D, p)
    assert got.shape == (p**f, desc[3]) and got.dtype == np.int64
    assert (got == intersection_dims_for_groups_f32(desc, D, p)).all()


@pytest.mark.parametrize("chunk", [1000, 32768, 65536])
def test_census_group_blocks_fill_whole_words(chunk):
    # at most chunk / 4 groups per block, rounded down to a multiple of 64
    # lanes where a block holds more than 64, so only a pattern's last block
    # pads
    for p in (5, 7):
        for desc in batched.group_block_descriptors(p, chunk):
            total = p ** (len(desc[1]) - sum(i == 2 for i, _ in desc[1]))
            assert desc[3] <= max(1, chunk // 4)
            assert desc[3] <= 64 or desc[3] % 64 == 0 or desc[2] + desc[3] == total


def test_tables_are_read_only_and_not_built_at_import():
    src = os.path.dirname(os.path.dirname(batched.__file__))
    names = ("inverse_table", "_pair_indices", "tri_biv_to_five", "vec_tri_to_four",
             "_wedge_basis_vector", "plucker_relations", "_plane_tables")
    code = ("import lagstrata.cli\n"
            "from lagstrata import batched\n"
            f"print([getattr(batched, n).cache_info().currsize for n in {names!r}])")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == str([0] * len(names))
    for table in (batched.inverse_table(5), *batched._pair_indices(), batched.tri_biv_to_five(),
                  batched.vec_tri_to_four(), batched._wedge_basis_vector(),
                  batched.plucker_relations(), *batched._plane_tables(5)):
        assert not table.flags.writeable

"""Vectorized mod-p kernels for the finite-field scans.

All arrays hold integers in float32.  Every value stays below EXACT_LIMIT
= 2^21 in magnitude, where ``_reduce_mod`` is exact (at 2^23 it is not:
p = 167 first fails at 4954555); ``check_exact`` is the one place that
bounds the entry growth of ``batch_rank``, the census kernel and the sums of
``quadric_zeros``.

The census kernel ``intersection_dims_for_groups`` shares work between
subspaces with the same first two echelon rows: per (u_1, u_2) group it
eliminates the four Gram rows of u_1^u_2 once (rank additivity), and then
ranks one 6x6 residual per free value of u_3; groups whose four rows are
dependent fall back to the 10x10 Gram rank of ``intersection_dims_for_batch``.
Decomposability is tested by the Pluecker quadrics of G(3,6), which cut out
the decomposable trivectors over every field (Fulton, *Young Tableaux*, §9).
The pure-Python echelon code in :mod:`lagstrata.linalg` is the reference
these kernels are tested against.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from itertools import combinations

import numpy as np

from .exterior import SUBSETS, INDEX, merge_sign
from .fields import GF
from .linalg import rref

MAX_PRIME = 181
EXACT_LIMIT = 1 << 21


@lru_cache(maxsize=None)
def inverse_table(p: int) -> np.ndarray:
    tab = np.zeros(p, dtype=np.float32)
    for a in range(1, p):
        tab[a] = float(pow(a, p - 2, p))
    return tab


def _reduce_mod(x: np.ndarray, p: int) -> None:
    """In-place x mod p for float32 integers with |x| < EXACT_LIMIT: the
    float32 error of (x + 1/2)/p, below 3|x|/(p 2^24), is under its 1/(2p)
    distance from an integer, so the floor is exact."""
    q = x * np.float32(1.0 / p)
    q += np.float32(0.5 / p)
    np.floor(q, out=q)
    q *= np.float32(p)
    x -= q


def check_exact(p: int, steps: int = 1, terms: int = 0) -> None:
    """Raise unless values over F_p stay below EXACT_LIMIT: in ``steps``
    elimination steps entries start at most p - 1 and each step subtracts at
    most (p - 1)^2; a sum of ``terms`` reduced products is below terms (p - 1)^2."""
    if p > MAX_PRIME:
        raise ValueError(f"batched kernels require p <= {MAX_PRIME}")
    if max((p - 1) + (steps - 1) * (p - 1) ** 2, terms * (p - 1) ** 2) >= EXACT_LIMIT:
        raise ValueError(f"{steps} elimination steps or {terms}-term sums over F_{p} "
                         "leave the exact range")


def batch_rank(mats: np.ndarray, p: int, assume_reduced: bool = False,
               in_place: bool = False) -> np.ndarray:
    """Ranks of a batch of matrices over F_p; ``mats`` has shape (N, r, c).

    Eliminates a (steps, width, N) array, batch index innermost, with
    steps = min(r, c) (the transpose when c < r).  Step s reduces line s,
    takes its first nonzero entry as pivot, and updates only lines s+1:,
    which also zeroes the pivot's own entries mod p, so no row is swapped
    or reused.  Only the active line, pivot entries and factors are reduced
    (delayed reduction).  ``in_place`` destroys a float32 input that is a view
    of a C-contiguous (steps, width, N) array instead of copying it.
    """
    src = np.asarray(mats)
    N, r, c = src.shape
    check_exact(p, min(r, c))
    src = src.transpose(2, 1, 0) if c < r else src.transpose(1, 2, 0)
    if in_place and src.dtype == np.float32 and src.flags.c_contiguous:
        a = src
        if not assume_reduced:
            _reduce_mod(a, p)
    else:
        a = np.ascontiguousarray(src if assume_reduced else np.mod(src, p), dtype=np.float32)
    steps = a.shape[0]
    rank = np.zeros(N, dtype=np.int64)
    aN = np.arange(N)
    buf = np.empty_like(a[1:])
    for s in range(steps if N else 0):
        rank += _eliminate_line(a, s, p, aN, buf)[1] != 0
    return rank


def _eliminate_line(a: np.ndarray, s: int, p: int, aN: np.ndarray, buf: np.ndarray):
    """Step s of ``batch_rank``'s elimination of a float32 (lines, width, N)
    array: reduce line s, take its first nonzero entry as pivot, and clear
    that column from lines s+1: with unreduced updates (each subtracts at
    most (p - 1)^2).  Returns the pivot columns and values; a zero value
    means line s is zero mod p, and then the update subtracts nothing.
    ``aN`` is arange(N) and ``buf`` a scratch array shaped like a[1:]."""
    line = a[s]
    _reduce_mod(line, p)
    piv = np.argmax(line != 0, axis=0)
    flat = piv * aN.size + aN       # a take on flat lines beats a 2-array gather
    pval = line.reshape(-1)[flat]
    if s + 1 < a.shape[0]:
        factors = line * inverse_table(p)[pval.astype(np.intp)]
        _reduce_mod(factors, p)
        prow = np.take(a[s + 1:].reshape(a.shape[0] - s - 1, -1), flat, axis=1)
        _reduce_mod(prow, p)
        np.multiply(prow[:, None, :], factors[None, :, :], out=buf[s:])
        a[s + 1:] -= buf[s:]
    return piv, pval


@lru_cache(maxsize=None)
def _pair_indices():
    ia, ib = zip(*combinations(range(6), 2))
    return np.array(ia), np.array(ib)


def _sign_tensor(g: int, h: int) -> np.ndarray:
    """Wedge sign tensor S[i, j, k] = sign with e_I ^ e_J = sign e_K, for the
    g-subset I, h-subset J and (g+h)-subset K of index i, j, k."""
    S = np.zeros((len(SUBSETS[g]), len(SUBSETS[h]), len(SUBSETS[g + h])), dtype=np.int64)
    for i, I in enumerate(SUBSETS[g]):
        for j, J in enumerate(SUBSETS[h]):
            if ms := merge_sign(I, J):
                S[i, j, INDEX[g + h][ms[1]]] = ms[0]
    return S


@lru_cache(maxsize=None)
def tri_biv_to_five() -> np.ndarray:
    """Wedge sign tensor (tri, biv) -> grade-5 coordinate; shape (20, 15, 6)."""
    return _sign_tensor(3, 2)


@lru_cache(maxsize=None)
def vec_tri_to_four() -> np.ndarray:
    """Wedge sign tensor (vector, tri) -> grade-4 coordinate; shape (6, 20, 15)."""
    return _sign_tensor(1, 3)


def matmul_mod_f32(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p in float32; exact while the accumulated values stay
    below EXACT_LIMIT (true for all uses here)."""
    prod = a.astype(np.float32, copy=False) @ b.astype(np.float32, copy=False)
    _reduce_mod(prod, p)
    return prod


def tangent_gram_blocks(a_rows: np.ndarray, p: int) -> np.ndarray:
    """Contraction of a Lagrangian basis with the wedge tensor.

    Returns D of shape (15, 60) with D[j, g*10+m] = sum_i a[m,i] S[i,j,g],
    so (b @ D) lists the grade-5 coordinates g of a_m ^ b for a bivector b.
    Coordinate g misses e_{5-g}, so eta(b ^ e_c, a_m) is column block 5 - c
    of b @ D up to a sign depending only on c.
    """
    S = tri_biv_to_five()
    D = np.einsum("mi,ijc->jcm", np.mod(a_rows, p), S).reshape(15, 60) % p
    return D.astype(np.float32)


def bivectors_of_rows(mats: np.ndarray, p: int) -> np.ndarray:
    """Pairwise wedges of the three rows of each 3x6 matrix: (N, 3, 15),
    a view of a C-contiguous (3, 15, N) array."""
    ia, ib = _pair_indices()
    m = np.ascontiguousarray(mats.transpose(1, 2, 0), dtype=np.float32)
    out = np.empty((3, 15, mats.shape[0]), dtype=np.float32)
    for s, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        np.multiply(m[i, ia], m[j, ib], out=out[s])
        out[s] -= m[i, ib] * m[j, ia]
    _reduce_mod(out, p)
    return out.transpose(2, 0, 1)


def _pattern_blocks(D: np.ndarray, P) -> np.ndarray:
    """The four column blocks of D the Gram rows of pivot pattern P meet, as
    a (40, 15) array: rows 10 b + m pair a bivector with a_m against e_c for
    the b-th c outside P (b < 3) and for c = P_3 (b = 3)."""
    blocks = [5 - c for c in range(6) if c not in P] + [5 - P[2]]
    return D.reshape(15, 6, 10)[:, blocks].transpose(1, 2, 0).reshape(40, 15)


def intersection_dims_for_batch(mats: np.ndarray, D: np.ndarray, p: int) -> np.ndarray:
    """dim(A ∩ T_U) for each 3x6 matrix in the batch, given D from above.

    The rows u_i must be in row-echelon form mod p with leading columns
    P_1 < P_2 < P_3, else ValueError.  The nine u_a^u_b^e_c for c outside P
    and u_1^u_2^e_{P_3} (u_1^u_2^u_3 modulo the nine, up to a unit) are then
    a basis t_i of T_U, and as A is Lagrangian dim(A ∩ T_U) = 10 - rank of
    the 10x10 Gram matrix eta(t_i, a_m).  Each pivot pattern's bivectors
    meet only the four blocks of D they need, written straight into the
    layout ``batch_rank`` eliminates (entries below 15 (p-1)^2).
    """
    mats = np.mod(mats, p)
    nz = mats != 0
    lead = np.argmax(nz, axis=2)
    if not (nz.any(axis=2).all() and (np.diff(lead, axis=1) > 0).all()):
        raise ValueError("intersection_dims_for_batch needs 3x6 row-echelon matrices")
    codes = lead @ np.array([36, 6, 1])
    keys = np.unique(codes)
    dims = np.empty(mats.shape[0], dtype=np.int64)
    for key in keys:
        idx = slice(None) if keys.size == 1 else np.nonzero(codes == key)[0]
        Dt = _pattern_blocks(D, (key // 36, key // 6 % 6, key % 6))
        B = bivectors_of_rows(mats[idx], p).transpose(1, 2, 0)
        gram = np.empty((10, 10, B.shape[2]), dtype=np.float32)
        # u_1^u_2 against all four blocks, u_1^u_3 and u_2^u_3 against three
        for s, rows in enumerate((slice(0, 4), slice(4, 7), slice(7, 10))):
            out = gram[rows].reshape(-1, B.shape[2])
            np.matmul(Dt[:out.shape[0]], B[s], out=out)
        dims[idx] = 10 - batch_rank(gram.transpose(2, 0, 1), p, in_place=True)
    return dims


def pivot_patterns():
    """The pivot columns of the reduced-echelon 3x6 representatives."""
    return list(combinations(range(6), 3))


def free_slots(pattern):
    """Free (row, col) slots of the reduced-echelon 3x6 representatives."""
    return [(i, c) for i, pc in enumerate(pattern)
            for c in range(pc + 1, 6) if c not in pattern]


def grassmann_size(n: int, k: int, p: int) -> int:
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def check_chunk(chunk: int) -> None:
    """Raise unless chunk >= 1; a block loop would add empty blocks forever."""
    if chunk < 1:
        raise ValueError(f"blocks need chunk >= 1, not {chunk}")


def echelon_rows(pattern, slots, codes, p: int) -> np.ndarray:
    """The echelon bases (N, 3, 6) int64 of the given codes of one pivot
    pattern: pivot entries 1, and the t-th free slot holds base-p digit t
    of the code (digits by successive divmod, least significant first)."""
    mats = np.zeros((len(codes), 3, 6), dtype=np.int64)
    for i, pc in enumerate(pattern):
        mats[:, i, pc] = 1
    rest = np.array(codes, dtype=np.int64)
    for i, c in slots:
        np.divmod(rest, p, out=(rest, mats[:, i, c]))
    return mats


def build_grassmann_block(desc, p: int) -> np.ndarray:
    pattern, slots, start, count = desc
    return echelon_rows(pattern, slots, np.arange(start, start + count, dtype=np.int64), p)


def _u3_free(slots) -> int:
    """The number of free slots in u_3; they are the last slots."""
    return sum(i == 2 for i, _ in slots)


def group_block_descriptors(p: int, chunk: int = 32768):
    """Disjoint blocks of (u_1, u_2) groups covering G(3, F_p^6) once.

    In a pattern with n free slots, f of them in u_3, a code splits as
    g + p^(n-f) c: the group g fixes u_1 and u_2 (their digits come first)
    and c the free entries of u_3.  A descriptor (pattern, slots, first,
    groups) covers groups first .. first + groups - 1 with every c, about
    ``chunk`` subspaces (at least one group, so at most p^3 subspaces).
    """
    check_chunk(chunk)
    out = []
    for pattern in pivot_patterns():
        slots = tuple(free_slots(pattern))
        f = _u3_free(slots)
        total = p ** (len(slots) - f)
        step = max(1, chunk // p**f)
        for first in range(0, total, step):
            out.append((pattern, slots, first, min(step, total - first)))
    return out


def group_block_codes(desc, p: int) -> np.ndarray:
    """Codes g + p^(n-f) c of a group block as a (p^f, groups) array; its C
    order is enumeration order."""
    pattern, slots, first, groups = desc
    f = _u3_free(slots)
    c = np.arange(p**f, dtype=np.int64)[:, None] * p ** (len(slots) - f)
    return c + np.arange(first, first + groups, dtype=np.int64)


@lru_cache(maxsize=None)
def _wedge_basis_vector() -> np.ndarray:
    """W[k, j, i] = bivector coordinate j of e_i ^ e_k; shape (6, 15, 6)."""
    return _sign_tensor(1, 1).transpose(1, 2, 0).astype(np.float32)


def intersection_dims_for_groups(desc, D: np.ndarray, p: int) -> np.ndarray:
    """dim(A ∩ T_U) for every U of a group block, as a (p^f, groups) array
    in the layout of ``group_block_codes``; D from ``tangent_gram_blocks``.

    The Gram matrix of ``intersection_dims_for_batch`` stacks a 4x10 block X
    (u_1^u_2 against four blocks of D), fixed by the group, on a 6x10 block
    Y (u_1^u_3, u_2^u_3 against three), which is affine in the free entries
    x of u_3: Y = Y_0 + sum_t x_t Y_t.  Rank is additive, rank [X; Y] =
    rank X + rank(Y mod the rows of X), so when rank X = 4 the group's X is
    eliminated once, by ``batch_rank``'s pivot rule, from Y_0 and every Y_t.
    Their six non-pivot columns give 6x6 blocks Z(x) = Y_0' + sum_t x_t Y_t',
    formed for all x in one product, and dim = 6 - rank Z(x).  Groups with
    rank X < 4 take the 10x10 path.
    """
    pattern, slots, first, groups = desc
    f = _u3_free(slots)
    # 15-term products for X and Y, and Y rows after four updates
    check_exact(p, 5, terms=15)
    Dt = _pattern_blocks(D, pattern)
    u = np.zeros((2, 6, groups), dtype=np.float32)
    u[0, pattern[0]] = u[1, pattern[1]] = 1
    rest = np.arange(first, first + groups, dtype=np.int64)
    for i, c in slots[:len(slots) - f]:
        np.divmod(rest, p, out=(rest, u[i, c]))
    ia, ib = _pair_indices()
    b12 = u[0, ia] * u[1, ib] - u[0, ib] * u[1, ia]
    _reduce_mod(b12, p)
    # lines: X, then Y_t for u_3 terms e_{P_3} and e_c of its free slots
    cols = [pattern[2]] + [c for _, c in slots[len(slots) - f:]]
    E = Dt[:30] @ _wedge_basis_vector()[cols]
    a = np.empty((4 + 6 * (1 + f), 10, groups), dtype=np.float32)
    np.matmul(Dt, b12, out=a[:4].reshape(40, groups))
    np.matmul(E[:, None], u[None], out=a[4:].reshape(1 + f, 2, 30, groups))
    _reduce_mod(a, p)
    ag = np.arange(groups)
    free = np.ones((10, groups), dtype=bool)
    full = np.ones(groups, dtype=bool)
    buf = np.empty_like(a[1:])
    for s in range(4):
        piv, pval = _eliminate_line(a, s, p, ag, buf)
        free[piv, ag] = False
        full &= pval != 0
    keep = np.argsort(~free, axis=0, kind="stable")[:6]
    y = np.take_along_axis(a[4:].reshape(1 + f, 6, 10, groups), keep[None, None], axis=2)
    _reduce_mod(y, p)
    xs = np.ones((p**f, 1 + f), dtype=np.float32)
    rest = np.arange(p**f, dtype=np.int64)
    for t in range(1, 1 + f):
        np.divmod(rest, p, out=(rest, xs[:, t]))
    z = np.matmul(xs, y.reshape(1 + f, 36, groups).transpose(1, 0, 2))
    rank = batch_rank(z.reshape(6, 6, -1).transpose(2, 0, 1), p, in_place=True)
    dims = (6 - rank).reshape(p**f, groups)
    if not full.all():
        bad = np.flatnonzero(~full)
        codes = group_block_codes(desc, p)[:, bad]
        mats = echelon_rows(pattern, slots, codes.ravel(), p)
        dims[:, bad] = intersection_dims_for_batch(mats, D, p).reshape(codes.shape)
    return dims


def projective_block_descriptors(dim: int, p: int, chunk: int = 65536):
    check_chunk(chunk)
    out = []
    for lead in range(dim):
        total = p ** (dim - lead - 1)
        start = 0
        while start < total:
            count = min(chunk, total - start)
            out.append((lead, start, count))
            start += count
    return out


def build_projective_block(desc, dim: int, p: int) -> np.ndarray:
    lead, start, count = desc
    vecs = np.zeros((count, dim), dtype=np.int64)
    vecs[:, lead] = 1
    rest = np.arange(start, start + count, dtype=np.int64)
    for c in range(lead + 1, dim):
        np.divmod(rest, p, out=(rest, vecs[:, c]))
    return vecs


def parallel_map(worker, items, threads: int = 2):
    """Map over items with a small thread pool; numpy releases the GIL.  At
    most one worker per item and per CPU this process may use."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, len(items), cpus or 1)
    if workers <= 1:
        return [worker(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, items))


def _upper(G: np.ndarray) -> np.ndarray:
    """Upper-triangular (..., d, d) forms with the quadratic forms of G."""
    return np.triu(G + G.swapaxes(-1, -2), 1) + G * np.eye(G.shape[-1], dtype=G.dtype)


@lru_cache(maxsize=None)
def plucker_relations() -> np.ndarray:
    """The quadrics sum_k (-1)^k p_{i1 i2 j_k} p_{J - j_k} (J a 4-set, p
    alternating), nonzero and distinct up to sign, as upper-triangular forms
    on the 20 trivector coordinates: (45, 20, 20) int64, spanning 35
    dimensions.  The entries are 0 and +-1, so the table is built in int8."""
    rels = np.zeros((15, 15, 20, 20), dtype=np.int8)
    for a, I in enumerate(SUBSETS[2]):
        for b, J in enumerate(SUBSETS[4]):
            for k, j in enumerate(J):
                if ms := merge_sign(I, (j,)):
                    rels[a, b, INDEX[3][ms[1]], INDEX[3][J[:k] + J[k + 1:]]] = (-1) ** k * ms[0]
    rels = _upper(rels.reshape(225, 20, 20)).reshape(225, 400)
    rels = rels[rels.any(axis=1)]
    rels *= np.sign(rels[np.arange(len(rels)), np.argmax(rels != 0, axis=1)])[:, None]
    # sorted distinct rows, as np.unique(axis=0) gives them without importing numpy.ma
    rels = rels[np.lexsort(rels.T[::-1])]
    rels = rels[np.r_[True, (rels[1:] != rels[:-1]).any(axis=1)]]
    return rels.reshape(-1, 20, 20).astype(np.int64)


def restricted_quadrics(rows: np.ndarray, p: int) -> np.ndarray:
    """A basis mod p of the Pluecker quadrics restricted to span(rows): for
    (d, 20) ``rows``, (r, d, d) upper-triangular float32 forms whose common
    zeros c are exactly the c with c @ rows zero or decomposable (r = 35 and
    d = 10 for a generic Lagrangian)."""
    R = np.mod(rows, p)
    iu = np.triu_indices(R.shape[0])
    U = _upper(R @ plucker_relations() @ R.T)[:, iu[0], iu[1]] % p
    red, pivots = rref(U.tolist(), GF(p))
    forms = np.zeros((len(pivots), R.shape[0], R.shape[0]), dtype=np.float32)
    forms[:, iu[0], iu[1]] = np.reshape(red[:len(pivots)], (len(pivots), iu[0].size))
    return forms


def quadric_zeros(points: np.ndarray, forms: np.ndarray, p: int) -> np.ndarray:
    """Increasing indices of the rows x of (N, d) ``points`` (|x| < EXACT_LIMIT)
    where every form G of (r, d, d) ``forms`` vanishes mod p, each evaluated only
    on the points the earlier ones left, as x . (x G mod p) < d (p - 1)^2."""
    check_exact(p, terms=forms.shape[-1])
    x = points.astype(np.float32)
    _reduce_mod(x, p)
    idx = np.arange(x.shape[0])
    for G in forms:
        y = x @ G
        _reduce_mod(y, p)
        v = np.einsum("ij,ij->i", y, x)
        _reduce_mod(v, p)
        keep = v == 0
        idx, x = idx[keep], x[keep]
    return idx


def f_space_dims(ws: np.ndarray, a_rows: np.ndarray, p: int) -> np.ndarray:
    """dim(A ∩ F_[w]) for each nonzero w (rows of (N, 6))."""
    S = vec_tri_to_four()
    E = np.einsum("mt,itf->mfi", np.mod(a_rows, p), S).reshape(150, 6) % p
    M = matmul_mod_f32(E, np.mod(ws, p).T, p).reshape(10, 15, -1)
    return 10 - batch_rank(M.transpose(2, 1, 0), p, assume_reduced=True, in_place=True)

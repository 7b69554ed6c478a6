"""Exact Schubert calculus in the Chow rings of G(3,6) and LG(n,2n).

The G(3,6) ring is computed through Schur polynomials in three variables
(products decompose by repeated subtraction of the lexicographically
leading Schur polynomial, then truncate to the 3x3 box); Chern classes of
the twisted cotangent extension come from Chern characters and Newton's
identities over exact rationals.  The Lagrangian side uses the one-row
Pieri rule on strict partitions: the multiplicity of mu in sigma_r *
sigma_lambda is 2^N with N the number of connected components of the
shifted skew diagram mu/lambda containing no diagonal box, summed over
horizontal strips; general products reduce to Pieri steps by a
unitriangular recursion on the part of the multiplier below its first row.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

BOX_ROWS = 3
BOX_COLS = 3
G36_DIM = 9
POINT = (3, 3, 3)


# ---------------------------------------------------------------------------
# partitions and Schur polynomials in three variables


def _norm(p):
    p = tuple(sorted((x for x in p if x), reverse=True))
    return p


def box_partitions():
    out = []
    for a in range(BOX_COLS + 1):
        for b in range(a + 1):
            for c in range(b + 1):
                out.append(_norm((a, b, c)))
    return sorted(set(out), key=lambda t: (sum(t), t))


@lru_cache(maxsize=None)
def schur_monomials(lam):
    """Monomials of s_lam(x1,x2,x3) as {exponent triple: coeff}."""
    lam = _norm(lam)
    if len(lam) > 3:
        return {}
    rows = list(lam) + [0] * (3 - len(lam))
    out: dict = {}

    def fill(r, c, prev_row, cur_row, weight):
        if r == 3:
            key = tuple(weight)
            out[key] = out.get(key, 0) + 1
            return
        if c == rows[r]:
            fill(r + 1, 0, cur_row, [], weight)
            return
        lo = cur_row[c - 1] if c else 1
        if r > 0:
            lo = max(lo, prev_row[c] + 1)
        for v in range(lo, 4):
            weight[v - 1] += 1
            fill(r, c + 1, prev_row, cur_row + [v], weight)
            weight[v - 1] -= 1

    fill(0, 0, [], [], [0, 0, 0])
    return out


@lru_cache(maxsize=None)
def schur_product(lam, mu):
    """Decomposition of s_lam * s_mu into Schur polynomials (3 rows)."""
    lam, mu = _norm(lam), _norm(mu)
    prod: dict = {}
    for e1, c1 in schur_monomials(lam).items():
        for e2, c2 in schur_monomials(mu).items():
            key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            prod[key] = prod.get(key, 0) + c1 * c2
    result: dict = {}
    while prod:
        lead = max((k for k, v in prod.items() if v), default=None)
        if lead is None:
            break
        coeff = prod[lead]
        assert lead[0] >= lead[1] >= lead[2], "leading monomial must be a partition"
        result[_norm(lead)] = coeff
        for e, c in schur_monomials(_norm(lead)).items():
            prod[e] = prod.get(e, 0) - coeff * c
        prod = {k: v for k, v in prod.items() if v}
    return result


@lru_cache(maxsize=None)
def g36_basis_product(lam, mu):
    """sigma_lam * sigma_mu in A*(G(3,6)): Schur product, box-truncated."""
    return {nu: c for nu, c in schur_product(lam, mu).items()
            if nu and nu[0] <= BOX_COLS or nu == ()}


class ChowClassG36:
    """Integer (or exact rational) combination of box Schubert classes."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for k, v in (coeffs or {}).items():
            k = _norm(k)
            if v:
                if k and (len(k) > BOX_ROWS or k[0] > BOX_COLS):
                    raise ValueError(f"partition {k} outside the 3x3 box")
                clean[k] = clean.get(k, 0) + v
        self.coeffs = {k: v for k, v in clean.items() if v}

    @classmethod
    def sigma(cls, lam, c=1):
        return cls({_norm(lam): c})

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def zero(cls):
        return cls({})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return ChowClassG36(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return ChowClassG36(out)

    def __neg__(self):
        return ChowClassG36({k: -v for k, v in self.coeffs.items()})

    def scale(self, c):
        return ChowClassG36({k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, ChowClassG36):
            return self.scale(other)
        out: dict = {}
        for lam, a in self.coeffs.items():
            for mu, b in other.coeffs.items():
                for nu, c in g36_basis_product(lam, mu).items():
                    out[nu] = out.get(nu, 0) + a * b * c
        return ChowClassG36(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, ChowClassG36) and self.coeffs == other.coeffs

    def coefficient(self, lam):
        return self.coeffs.get(_norm(lam), 0)

    def codimensions(self):
        return sorted({sum(k) for k in self.coeffs})

    def is_pure(self, d=None):
        cds = self.codimensions()
        if not cds:
            return True
        return len(cds) == 1 and (d is None or cds[0] == d)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{v}*s{k}" for k, v in sorted(self.coeffs.items()))


H = ChowClassG36.sigma((1,))


def power(x: ChowClassG36, n: int) -> ChowClassG36:
    out = ChowClassG36.one()
    for _ in range(n):
        out = out * x
    return out


def degree_of(x: ChowClassG36) -> int:
    """Degree under the Pluecker embedding: pair x * h^(9 - codim) with a point."""
    if not x.coeffs:
        return 0
    if not x.is_pure():
        raise ValueError("degree needs a pure-codimension class")
    d = x.codimensions()[0]
    top = x * power(H, G36_DIM - d)
    return top.coefficient(POINT)


def g36_degree() -> int:
    return power(H, 9).coefficient(POINT)


# tautological conversions: S is the rank-3 subbundle, Q the quotient
def chern_sub(i: int) -> ChowClassG36:
    """c_i(S) = (-1)^i sigma_{1^i}."""
    if i == 0:
        return ChowClassG36.one()
    if i > 3:
        return ChowClassG36.zero()
    return ChowClassG36.sigma((1,) * i, (-1) ** i)


def chern_sub_dual(i: int) -> ChowClassG36:
    """c_i(S^dual) = sigma_{1^i}."""
    if i == 0:
        return ChowClassG36.one()
    if i > 3:
        return ChowClassG36.zero()
    return ChowClassG36.sigma((1,) * i)


def chern_quot(i: int) -> ChowClassG36:
    """c_i(Q) = sigma_i."""
    if i == 0:
        return ChowClassG36.one()
    if i > 3:
        return ChowClassG36.zero()
    return ChowClassG36.sigma((i,))


def _rationalize(x: ChowClassG36) -> ChowClassG36:
    return ChowClassG36({k: Fraction(v) for k, v in x.coeffs.items()})


def _power_sums(cherns, n_max):
    """Newton: power sums p_1..p_n from total Chern classes e_i."""
    e = [c if isinstance(c, ChowClassG36) else ChowClassG36.zero() for c in cherns]
    p = [None] * (n_max + 1)
    for k in range(1, n_max + 1):
        acc = ChowClassG36.zero()
        for i in range(1, k):
            term = e[i] * p[k - i] if i < len(e) else ChowClassG36.zero()
            acc = acc + term.scale(Fraction((-1) ** (i - 1)))
        ek = e[k] if k < len(e) else ChowClassG36.zero()
        p[k] = acc + ek.scale(Fraction((-1) ** (k - 1) * k))
    return p


def _chern_character(rank, cherns, n_max=G36_DIM):
    p = _power_sums([_rationalize(c) for c in cherns], n_max)
    ch = [ChowClassG36({(): Fraction(rank)})]
    for k in range(1, n_max + 1):
        ch.append(p[k].scale(Fraction(1, factorial(k))))
    return ch


def _ch_mul(ch1, ch2, n_max=G36_DIM):
    out = [ChowClassG36.zero() for _ in range(n_max + 1)]
    for i, a in enumerate(ch1):
        for j, b in enumerate(ch2):
            if i + j <= n_max:
                out[i + j] = out[i + j] + a * b
    return out


def _ch_exp_line(c1: ChowClassG36, n_max=G36_DIM):
    ch = [ChowClassG36({(): Fraction(1)})]
    acc = ChowClassG36({(): Fraction(1)})
    for k in range(1, n_max + 1):
        acc = acc * _rationalize(c1)
        ch.append(acc.scale(Fraction(1, factorial(k))))
    return ch


def _cherns_from_ch(ch, rank, n_max=G36_DIM):
    p = [None] + [ch[k].scale(Fraction(factorial(k))) for k in range(1, n_max + 1)]
    e = [ChowClassG36({(): Fraction(1)})]
    for k in range(1, n_max + 1):
        acc = ChowClassG36.zero()
        for i in range(1, k + 1):
            acc = acc + (e[k - i] * p[i]).scale(Fraction((-1) ** (i - 1)))
        e.append(acc.scale(Fraction(1, k)))
    out = []
    for k, cls in enumerate(e):
        ints = {}
        for part, v in cls.coeffs.items():
            v = Fraction(v)
            if v.denominator != 1:
                raise AssertionError(f"non-integral Chern class c_{k}: {cls!r}")
            ints[part] = int(v)
        out.append(ChowClassG36(ints))
    return out


@lru_cache(maxsize=None)
def chern_t_dual():
    """Chern classes c_0..c_10 of the rank-10 bundle extending the twisted
    cotangent bundle by the Pluecker line bundle.

    c(T^dual) = c(Omega(1)) * (1 + h) with Omega = S tensor Q^dual.
    """
    ch_s = _chern_character(3, [chern_sub(i) for i in range(4)])
    ch_qd = _chern_character(3, [chern_quot(i).scale((-1) ** i) for i in range(4)])
    ch_omega1 = _ch_mul(_ch_mul(ch_s, ch_qd), _ch_exp_line(H))
    ch_o1 = _ch_exp_line(H)
    ch_t = [a + b for a, b in zip(ch_omega1, ch_o1)]
    cs = _cherns_from_ch(ch_t, 10)
    return tuple(cs + [ChowClassG36.zero()] * (11 - len(cs)))[:11]


def pr_class(k: int) -> ChowClassG36:
    """Degeneracy-locus classes: polynomials in the Chern classes above."""
    c = chern_t_dual()
    if k == 1:
        return c[1]
    if k == 2:
        return c[2] * c[1] - 2 * c[3]
    if k == 3:
        return (c[1] * c[2] * c[3] - 2 * (c[1] * c[1] * c[4]) + 2 * (c[2] * c[4])
                + 2 * (c[1] * c[5]) - 2 * (c[3] * c[3]))
    raise ValueError("k must be 1, 2 or 3")


def stratum_degrees():
    return {k: degree_of(pr_class(k)) for k in (1, 2, 3)}


# basis (h^3, h*s2, s3) of A^3.  The sign convention is frozen so that the
# degeneracy-locus class comes out as 16 h^3 - 12 h s2 + 12 s3: this forces
# s_i = c_i of the DUAL tautological subbundle, i.e. s_i = sigma_{1^i}.
def _hs_basis():
    g1 = power(H, 3)
    g2 = H * chern_sub_dual(2)
    g3 = chern_sub_dual(3)
    return g1, g2, g3


def class_in_h_s2_s3(x: ChowClassG36):
    """Coordinates (alpha, beta, gamma) with x = alpha h^3 + beta h s2 + gamma s3."""
    if not x.is_pure(3):
        raise ValueError("expected a codimension-3 class")
    basis3 = [p for p in box_partitions() if sum(p) == 3]
    g = _hs_basis()
    from .linalg import solve
    from .fields import QQ
    rows = [[Fraction(gi.coefficient(p)) for gi in g] for p in basis3]
    rhs = [Fraction(x.coefficient(p)) for p in basis3]
    sol = solve(rows, rhs, QQ)
    if sol is None:
        raise AssertionError("class not in the span of (h^3, h s2, s3)")
    assert all(s.denominator == 1 for s in sol)
    return tuple(int(s) for s in sol)


# ---------------------------------------------------------------------------
# connectedness: the degree-6 pairing and its diophantine system


def _quadratic_equations():
    """Coefficient equations of P(a,b,c) * P(16-a,12-b,12-c) = 0 in A^6.

    P(a,b,c) = a h^3 - b h s2 + c s3.  Returns one dict per degree-6 basis
    class, mapping monomials in (a, b, c) (exponent triples, total degree
    <= 2) to integer coefficients.
    """
    g = _hs_basis()
    basis6 = [p for p in box_partitions() if sum(p) == 6]
    prods = [[(g[i] * g[j]) for j in range(3)] for i in range(3)]
    sgn = (1, -1, 1)
    first = {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)}
    const2 = (16, 12, 12)
    eqs = []
    for p6 in basis6:
        eq: dict = {}
        for i in range(3):
            for j in range(3):
                g6 = prods[i][j].coefficient(p6) * sgn[i] * sgn[j]
                if not g6:
                    continue
                # (u_i) * (const2_j - u_j) with u = (a, b, c)
                mi, mj = first[i], first[j]
                lin = tuple(mi)
                eq[lin] = eq.get(lin, 0) + g6 * const2[j]
                quad = tuple(a + b for a, b in zip(mi, mj))
                eq[quad] = eq.get(quad, 0) - g6
        eqs.append({k: v for k, v in eq.items() if v})
    return basis6, eqs


PAPER_EQ1 = {(2, 0, 0): -5, (1, 1, 0): 4, (0, 2, 0): -1, (1, 0, 0): 56, (0, 1, 0): -20}

_MONOMIALS = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2),
              (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def _eq_vector(eq):
    return [eq.get(m, 0) for m in _MONOMIALS]


def _eval_eq(eq, a, b, c):
    val = 0
    for (i, j, k), coeff in eq.items():
        val += coeff * a**i * b**j * c**k
    return val


def bounding_combination(eqs):
    """Integer combination of the derived equations proportional to the
    (a,b)-negative-definite bounding equation; used to bound the search."""
    from math import gcd
    from .linalg import right_nullspace
    from .fields import QQ
    rows = [[Fraction(_eq_vector(eq)[m]) for eq in eqs]
            + [Fraction(-PAPER_EQ1.get(_MONOMIALS[m], 0))]
            for m in range(len(_MONOMIALS))]
    for vec in right_nullspace(rows, QQ):
        if vec[3] != 0:
            n = [v / vec[3] for v in vec[:3]]
            den = 1
            for v in n:
                den = den * v.denominator // gcd(den, v.denominator)
            return [int(v * den) for v in n], den
    raise AssertionError("bounding equation is not in the span of the system")


def _integer_roots_quadratic(A2, A1, A0):
    """Integer roots of A2 x^2 + A1 x + A0 = 0 (not all coefficients zero)."""
    if A2 == 0:
        if A1 == 0:
            return None  # degenerate: any x
        return [-A0 // A1] if A0 % A1 == 0 else []
    disc = A1 * A1 - 4 * A2 * A0
    if disc < 0:
        return []
    r = __import__("math").isqrt(disc)
    if r * r != disc:
        return []
    out = []
    for s in (r, -r):
        num = -A1 + s
        if num % (2 * A2) == 0:
            out.append(num // (2 * A2))
    return sorted(set(out))


def connectedness_check():
    """Derive the degree-6 coefficient equations and solve them over Z.

    Returns (equations, solutions, info).  The bounding combination is the
    derived multiple of the printed first equation, whose quadratic part in
    (a, b) is negative definite, so (a, b) range over an explicit ellipse;
    c is recovered exactly from the remaining quadratics.
    """
    basis6, eqs = _quadratic_equations()
    combo, den = bounding_combination(eqs)
    bnd = {m: sum(combo[i] * eqs[i].get(m, 0) for i in range(3)) for m in _MONOMIALS}
    bnd = {k: v for k, v in bnd.items() if v}
    expected = {k: v * den for k, v in PAPER_EQ1.items()}
    if bnd != expected:
        raise AssertionError("bounding combination does not reproduce the printed equation")
    solutions = []
    # -5a^2+4ab-b^2+56a-20b = 0; solve for b per a on the real ellipse
    for a in range(-50, 80):
        roots_b = _integer_roots_quadratic(-1, 4 * a - 20, -5 * a * a + 56 * a)
        if roots_b is None:
            continue
        for b in roots_b:
            cands = set()
            degenerate = True
            for eq in eqs:
                A2 = eq.get((0, 0, 2), 0)
                A1 = (eq.get((1, 0, 1), 0) * a + eq.get((0, 1, 1), 0) * b
                      + eq.get((0, 0, 1), 0))
                A0 = (eq.get((2, 0, 0), 0) * a * a + eq.get((1, 1, 0), 0) * a * b
                      + eq.get((0, 2, 0), 0) * b * b + eq.get((1, 0, 0), 0) * a
                      + eq.get((0, 1, 0), 0) * b)
                roots_c = _integer_roots_quadratic(A2, A1, A0)
                if roots_c is None:
                    continue
                degenerate = False
                cands.update(roots_c)
            if degenerate:
                raise AssertionError(f"system degenerate in c at (a,b)=({a},{b})")
            for c in cands:
                if all(_eval_eq(eq, a, b, c) == 0 for eq in eqs):
                    solutions.append((a, b, c))
    info = {"basis6": basis6, "combo": combo, "combo_denominator": den}
    return eqs, sorted(set(solutions)), info


# ---------------------------------------------------------------------------
# Lagrangian Grassmannian LG(n, 2n)


def strict_partitions(n: int):
    out = []
    parts = list(range(1, n + 1))
    for r in range(n + 1):
        out.extend(combinations(reversed(parts), r))
    return [tuple(p) for p in out]


def _is_strict(mu):
    return all(mu[i] > mu[i + 1] for i in range(len(mu) - 1))


@lru_cache(maxsize=None)
def lg_pieri(n: int, r: int, lam: tuple):
    """sigma_r * sigma_lam in H*(LG(n,2n)) as {mu: coeff}.

    mu runs over strict partitions containing lam with |mu| = |lam| + r and
    mu_{i+1} <= lam_i (a horizontal strip); the multiplicity is 2^N where N
    counts the connected components of the shifted skew diagram mu/lam
    (row i occupies shifted columns i .. i + mu_i - 1) containing no
    diagonal box (i, i).
    """
    if r == 0:
        return {tuple(lam): 1}
    if not 1 <= r <= n:
        raise ValueError("row class out of range")
    lam = tuple(lam)
    k = len(lam)
    out: dict = {}

    def coeff(mu):
        cells = set()
        for i in range(len(mu)):
            li = lam[i] if i < k else 0
            for c in range(li, mu[i]):
                cells.add((i + 1, i + 1 + c))
        seen = set()
        ncomp = 0
        for cell in cells:
            if cell in seen:
                continue
            stack = [cell]
            seen.add(cell)
            touches_diag = False
            while stack:
                i, c = stack.pop()
                if i == c:
                    touches_diag = True
                for nb in ((i + 1, c), (i - 1, c), (i, c + 1), (i, c - 1)):
                    if nb in cells and nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            if not touches_diag:
                ncomp += 1
        return 2 ** ncomp

    nrows = k + 1
    mu = [0] * nrows

    def rec(i, remaining):
        if i == nrows or (i > 0 and mu[i - 1] == 0):
            if remaining == 0 and all(mu[j] == (lam[j] if j < k else 0)
                                      for j in range(i, nrows)):
                m = tuple(x for x in mu[:i] if x)
                out[m] = out.get(m, 0) + coeff(m)
            return
        lo = lam[i] if i < k else 0
        hi = n if i == 0 else min(mu[i - 1] - 1, lam[i - 1])
        hi = min(hi, lo + remaining)
        for m in range(lo, hi + 1):
            mu[i] = m
            rec(i + 1, remaining - (m - lo))
        mu[i] = 0

    rec(0, r)
    return out


@lru_cache(maxsize=None)
def lg_basis_product(n: int, lam: tuple, mu: tuple):
    """sigma_lam * sigma_mu in H*(LG(n,2n)) as {nu: coeff}."""
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) - (lam[0] if lam else 0) > sum(mu) - (mu[0] if mu else 0):
        lam, mu = mu, lam
    if not lam:
        return {mu: 1}
    if len(lam) == 1:
        return dict(lg_pieri(n, lam[0], mu))
    r, rest = lam[0], tuple(lam[1:])
    head = lg_pieri(n, r, rest)
    assert head.get(lam) == 1, "unitriangularity failure in the Pieri recursion"
    out: dict = {}
    base = lg_basis_product(n, rest, mu)
    for nu, c in base.items():
        for tau, d in lg_pieri(n, r, nu).items():
            out[tau] = out.get(tau, 0) + c * d
    for nu, c in head.items():
        if nu == lam:
            continue
        for tau, d in lg_basis_product(n, nu, mu).items():
            out[tau] = out.get(tau, 0) - c * d
    return {k: v for k, v in out.items() if v}


class ChowClassLG:
    """Integer combination of strict-partition classes of LG(n,2n)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        clean = {}
        for k, v in (coeffs or {}).items():
            k = tuple(k)
            if v:
                if k and (not _is_strict(k) or k[0] > n):
                    raise ValueError(f"{k} is not a strict partition bounded by {n}")
                clean[k] = clean.get(k, 0) + v
        self.coeffs = {k: v for k, v in clean.items() if v}

    @classmethod
    def sigma(cls, n, lam, c=1):
        return cls(n, {tuple(lam): c})

    @classmethod
    def one(cls, n):
        return cls(n, {(): 1})

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return ChowClassLG(self.n, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return ChowClassLG(self.n, out)

    def scale(self, c):
        return ChowClassLG(self.n, {k: c * v for k, v in self.coeffs.items()})

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("classes live on different Lagrangian Grassmannians")

    def __mul__(self, other):
        if not isinstance(other, ChowClassLG):
            return self.scale(other)
        self._check(other)
        out: dict = {}
        for lam, a in self.coeffs.items():
            for mu, b in other.coeffs.items():
                for nu, c in lg_basis_product(self.n, lam, mu).items():
                    out[nu] = out.get(nu, 0) + a * b * c
        return ChowClassLG(self.n, out)

    __rmul__ = __mul__

    def mult_row(self, r: int):
        """Fast multiplication by the one-row class sigma_r."""
        out: dict = {}
        for lam, a in self.coeffs.items():
            for mu, c in lg_pieri(self.n, r, lam).items():
                out[mu] = out.get(mu, 0) + a * c
        return ChowClassLG(self.n, out)

    def coefficient(self, lam):
        return self.coeffs.get(tuple(lam), 0)

    def __eq__(self, other):
        return (isinstance(other, ChowClassLG) and self.n == other.n
                and self.coeffs == other.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{v}*s{k}" for k, v in sorted(self.coeffs.items()))


def lg_point(n: int):
    return tuple(range(n, 0, -1))


def lg_degree_pairing(x: ChowClassLG) -> int:
    return x.coefficient(lg_point(x.n))


def lg_dimension(n: int) -> int:
    return n * (n + 1) // 2


def lg_row_power(n: int, e: int) -> ChowClassLG:
    out = ChowClassLG.one(n)
    for _ in range(e):
        out = out.mult_row(1)
    return out


def exceptional_coefficient(n: int = 10):
    """The multiple of the second generator in the exceptional divisor class.

    In H*(LG(n,2n)) with N = n(n+1)/2, pair c1^(N-4) against the displayed
    combination c1^2 c2 + (b-2) c1 c3 - 2b c4; the unique b killing it is
    returned along with the pairing integers and the (positive) degree of
    the class c1 c3 - 2 c4.
    """
    N = lg_dimension(n)
    base = lg_row_power(n, N - 4)
    X = lg_degree_pairing(base.mult_row(1).mult_row(1).mult_row(2))
    Y = lg_degree_pairing(base.mult_row(1).mult_row(3))
    Z = lg_degree_pairing(base.mult_row(4))
    denom = Y - 2 * Z
    if denom == 0:
        raise AssertionError("degenerate pairing: deg sigma_(3,1)-class vanished")
    num = 2 * Y - X
    if num % denom:
        raise AssertionError("non-integral solution for the exceptional coefficient")
    b = num // denom
    return {"b": b, "X": X, "Y": Y, "Z": Z, "deg_sigma_n2_n": denom,
            "equation": lambda bb: X + (bb - 2) * Y - 2 * bb * Z}


def dimension_ledger():
    """The incidence-dimension bookkeeping for the divisor comparisons.

    Evaluates 47 - 3d - 2d^2 and 44 + d - 2d^2 against their unexpanded
    sums, the fiber dimension (3+d)(4+d)/2, the bound by 53, and the
    54 = 9 + 24 + 21 < 55 count for the 4-dimensional meeting locus.
    """
    rows = []
    for d in range(4):
        f1_terms = 9 + 5 + d * (3 - d) + (4 - d) * 6 + (d + 3) * (3 - d)
        f1 = 47 - 3 * d - 2 * d * d
        f2_terms = 9 + 2 + d * (7 - d) + (4 - d) * 6 + (d + 3) * (3 - d)
        f2 = 44 + d - 2 * d * d
        fiber = (3 + d) * (4 + d) // 2
        rows.append({
            "d1": d,
            "dim_f1": f1, "dim_f1_terms": f1_terms,
            "dim_f2": f2, "dim_f2_terms": f2_terms,
            "fiber": fiber,
            "total_f1": f1 + fiber, "total_f2": f2 + fiber,
            "bounded_by_53": f1 + fiber <= 53 and f2 + fiber <= 53,
        })
    xi = {"parts": (9, 24, 21), "dim": 9 + 24 + 21, "ambient": lg_dimension(10),
          "is_divisor_bound": 9 + 24 + 21 < lg_dimension(10)}
    return {"rows": rows, "xi": xi}


def hilb3_invariants(g: int, a: int, b: int):
    """Beauville-Bogomolov square and Fujiki top power of aH - b*delta on the
    length-3 Hilbert scheme of a genus-g polarized K3 surface.

    q(H) = 2g - 2, q(delta) = -4, H and delta orthogonal; the top
    self-intersection is 15 q^3.
    """
    q = a * a * (2 * g - 2) - 4 * b * b
    return {"q": q, "fujiki_degree": 15 * q ** 3}

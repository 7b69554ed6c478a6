"""Exact Schubert calculus in the Chow rings of G(3,6) and LG(n,2n).

One engine computes both rings.  A ``ChowRing`` names its Schubert basis:
partitions in the 3x3 box for G(3,6), strict partitions with parts <= n
for LG(n,2n).  The one-row Pieri rule sums over horizontal strips mu/lam
inside that basis: each strip counts once in G(3,6) (Fulton, *Young
Tableaux* ch. 9), and 2^N times in LG(n,2n), with N the number of connected
components of the shifted skew diagram mu/lam containing no diagonal box
(Hiller-Boe, *Adv. Math.* 62, 1986).  General products reduce to Pieri
steps by a unitriangular recursion on the part of the multiplier below its
first row.  Chern classes of the twisted cotangent extension on G(3,6) come
from Chern characters and Newton's identities over exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isqrt
from typing import NamedTuple

from .fields import QQ
from .linalg import right_nullspace, solve


# ---------------------------------------------------------------------------
# the two rings, their Pieri rule and their products


class ChowRing(NamedTuple):
    """A Schubert basis: partitions with at most ``rows`` parts, each at most
    ``cols``; strictly decreasing ones when ``strict``."""
    rows: int
    cols: int
    strict: bool

    @property
    def point(self) -> tuple:
        """The class of a point: the largest partition of the basis."""
        return tuple(self.cols - i * self.strict for i in range(self.rows))

    @property
    def dim(self) -> int:
        return sum(self.point)


G36 = ChowRing(3, 3, False)


def LG(n: int) -> ChowRing:
    """The Lagrangian Grassmannian LG(n, 2n)."""
    return ChowRing(n, n, True)


def partitions(ring: ChowRing):
    """The Schubert basis of ``ring``, by codimension, then lexicographically."""
    def grow(lam):
        yield lam
        if len(lam) < ring.rows:
            for part in range(1, (lam[-1] - ring.strict if lam else ring.cols) + 1):
                yield from grow(lam + (part,))
    return sorted(grow(()), key=lambda t: (sum(t), t))


@lru_cache(maxsize=None)
def _basis(ring: ChowRing) -> frozenset:
    return frozenset(partitions(ring))


def _strips(ring: ChowRing, r: int, lam: tuple):
    """The basis partitions mu with mu/lam a horizontal strip of r boxes:
    lam_i <= mu_i and mu_{i+1} <= lam_i."""
    low = lam + (0,)
    nrows = min(len(lam) + 1, ring.rows)

    def grow(mu, left):
        i = len(mu)
        if i == nrows:
            if not left:
                yield tuple(x for x in mu if x)
            return
        hi = ring.cols if i == 0 else min(low[i - 1], mu[i - 1] - ring.strict)
        for m in range(low[i], min(hi, low[i] + left) + 1):
            yield from grow(mu + (m,), left - (m - low[i]))

    return grow((), r)


def _multiplicity(ring: ChowRing, lam: tuple, mu: tuple) -> int:
    """1 in G(3,6); 2^N in LG(n,2n).  Row i of the shifted diagram occupies
    columns i .. i + mu_i - 1, so the new boxes of a row form one run, and the
    runs of rows i and i + 1 touch exactly when mu_{i+1} = lam_i.  The only
    diagonal box is the first box of a new row (lam_i = 0)."""
    if not ring.strict:
        return 1
    low = lam + (0,)
    grown = [i for i in range(len(mu)) if mu[i] > low[i]]
    components = sum(1 for i in grown if not (i - 1 in grown and mu[i] == low[i - 1]))
    return 2 ** (components - (len(mu) > len(lam)))


@lru_cache(maxsize=None)
def pieri(ring: ChowRing, r: int, lam: tuple):
    """sigma_r * sigma_lam in ``ring`` as {mu: coeff}."""
    if not 0 <= r <= ring.cols:
        raise ValueError("row class out of range")
    return {mu: _multiplicity(ring, lam, mu) for mu in _strips(ring, r, lam)}


@lru_cache(maxsize=None)
def basis_product(ring: ChowRing, lam: tuple, mu: tuple):
    """sigma_lam * sigma_mu in ``ring`` as {nu: coeff}, a cached dict that
    callers must not change.

    With lam = (r, rest), sigma_r * sigma_rest is sigma_lam plus classes
    whose first part exceeds r, so sigma_lam * sigma_mu is
    sigma_r * (sigma_rest * sigma_mu) minus those classes times sigma_mu.
    The factor with the smaller part below its first row is expanded.
    """
    if sum(lam[1:]) > sum(mu[1:]):
        lam, mu = mu, lam
    if len(lam) <= 1:
        return pieri(ring, sum(lam), mu)
    r, rest = lam[0], lam[1:]
    head = pieri(ring, r, rest)
    if head.get(lam) != 1:
        raise AssertionError("unitriangularity failure in the Pieri recursion")
    out: dict = {}
    for nu, c in basis_product(ring, rest, mu).items():
        for tau, d in pieri(ring, r, nu).items():
            out[tau] = out.get(tau, 0) + c * d
    for nu, c in head.items():
        if nu != lam:
            for tau, d in basis_product(ring, nu, mu).items():
                out[tau] = out.get(tau, 0) - c * d
    return {k: v for k, v in out.items() if v}


class ChowClass:
    """Integer (or exact rational) combination of the Schubert classes of a ring."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: ChowRing, coeffs=None):
        self.ring = ring
        self.coeffs = {tuple(k): v for k, v in (coeffs or {}).items() if v}
        outside = self.coeffs.keys() - _basis(ring)
        if outside:
            raise ValueError(f"{sorted(outside)} are not Schubert classes of {ring}")

    @classmethod
    def sigma(cls, ring, lam, c=1):
        return cls(ring, {tuple(lam): c})

    @classmethod
    def one(cls, ring):
        return cls(ring, {(): 1})

    @classmethod
    def zero(cls, ring):
        return cls(ring)

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError(f"classes live in different Chow rings: {self.ring}, {other.ring}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return ChowClass(self.ring, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return ChowClass(self.ring, {k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, ChowClass):
            return self.scale(other)
        self._check(other)
        out: dict = {}
        for lam, a in self.coeffs.items():
            for mu, b in other.coeffs.items():
                for nu, c in basis_product(self.ring, lam, mu).items():
                    out[nu] = out.get(nu, 0) + a * b * c
        return ChowClass(self.ring, out)

    __rmul__ = __mul__

    def mult_row(self, r: int):
        """Multiplication by the one-row class sigma_r."""
        return self * ChowClass.sigma(self.ring, (r,))

    def __eq__(self, other):
        return (isinstance(other, ChowClass) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def coefficient(self, lam):
        return self.coeffs.get(tuple(lam), 0)

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


def power(x: ChowClass, n: int) -> ChowClass:
    out = ChowClass.one(x.ring)
    for _ in range(n):
        out = out * x
    return out


def degree_pairing(x: ChowClass) -> int:
    """The coefficient of the point class: the degree of the top-codimension part."""
    return x.coefficient(x.ring.point)


def degree_of(x: ChowClass) -> int:
    """Degree under the Pluecker embedding: pair x * h^(dim - codim) with a point."""
    if not x.coeffs:
        return 0
    if not x.is_pure():
        raise ValueError("degree needs a pure-codimension class")
    h = ChowClass.sigma(x.ring, (1,))
    return degree_pairing(x * power(h, x.ring.dim - x.codimensions()[0]))


# ---------------------------------------------------------------------------
# G(3,6): Chern classes and the strata classes


H = ChowClass.sigma(G36, (1,))


def g36_degree() -> int:
    return degree_of(ChowClass.one(G36))


def _sigma_or_zero(lam, c=1) -> ChowClass:
    return ChowClass.sigma(G36, lam, c) if lam in _basis(G36) else ChowClass.zero(G36)


# tautological conversions: S is the rank-3 subbundle, Q the quotient
def chern_sub(i: int, dual: bool = False) -> ChowClass:
    """c_i(S) = (-1)^i sigma_{1^i}; c_i(S^dual) = sigma_{1^i} with ``dual``."""
    return _sigma_or_zero((1,) * i, 1 if dual else (-1) ** i)


def chern_quot(i: int) -> ChowClass:
    """c_i(Q) = sigma_i."""
    return _sigma_or_zero((i,) if i else ())


def _power_sums(cherns, n_max):
    """Newton: power sums p_1..p_n from total Chern classes e_i."""
    zero = ChowClass.zero(G36)
    p = [None] * (n_max + 1)
    for k in range(1, n_max + 1):
        acc = zero
        for i in range(1, min(k, len(cherns))):
            acc = acc + (cherns[i] * p[k - i]).scale(Fraction((-1) ** (i - 1)))
        ek = cherns[k] if k < len(cherns) else zero
        p[k] = acc + ek.scale(Fraction((-1) ** (k - 1) * k))
    return p


def _chern_character(rank, cherns, n_max=G36.dim):
    p = _power_sums(cherns, n_max)
    return [ChowClass(G36, {(): Fraction(rank)})] + [
        p[k].scale(Fraction(1, factorial(k))) for k in range(1, n_max + 1)]


def _ch_mul(ch1, ch2, n_max=G36.dim):
    out = [ChowClass.zero(G36) for _ in range(n_max + 1)]
    for i, a in enumerate(ch1):
        for j, b in enumerate(ch2):
            if i + j <= n_max:
                out[i + j] = out[i + j] + a * b
    return out


def _ch_exp_line(c1: ChowClass, n_max=G36.dim):
    ch = [ChowClass(G36, {(): Fraction(1)})]
    for k in range(1, n_max + 1):
        ch.append((ch[-1] * c1).scale(Fraction(1, k)))
    return ch


def _cherns_from_ch(ch, n_max=G36.dim):
    p = [None] + [ch[k].scale(Fraction(factorial(k))) for k in range(1, n_max + 1)]
    e = [ChowClass(G36, {(): Fraction(1)})]
    for k in range(1, n_max + 1):
        acc = ChowClass.zero(G36)
        for i in range(1, k + 1):
            acc = acc + (e[k - i] * p[i]).scale(Fraction((-1) ** (i - 1)))
        e.append(acc.scale(Fraction(1, k)))
    out = []
    for k, cls in enumerate(e):
        if any(Fraction(v).denominator != 1 for v in cls.coeffs.values()):
            raise AssertionError(f"non-integral Chern class c_{k}: {cls!r}")
        out.append(ChowClass(G36, {part: int(v) for part, v in cls.coeffs.items()}))
    return out


@lru_cache(maxsize=None)
def chern_t_dual():
    """Chern classes c_0..c_10 of the rank-10 bundle extending the twisted
    cotangent bundle by the Pluecker line bundle.

    c(T^dual) = c(Omega(1)) * (1 + h) with Omega = S tensor Q^dual.
    """
    ch_s = _chern_character(3, [chern_sub(i) for i in range(4)])
    ch_qd = _chern_character(3, [chern_quot(i).scale((-1) ** i) for i in range(4)])
    ch_o1 = _ch_exp_line(H)
    ch_omega1 = _ch_mul(_ch_mul(ch_s, ch_qd), ch_o1)
    cs = _cherns_from_ch([a + b for a, b in zip(ch_omega1, ch_o1)])
    return tuple(cs + [ChowClass.zero(G36)])


def pr_class(k: int) -> ChowClass:
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
    return power(H, 3), H * chern_sub(2, dual=True), chern_sub(3, dual=True)


def class_in_h_s2_s3(x: ChowClass):
    """Coordinates (alpha, beta, gamma) with x = alpha h^3 + beta h s2 + gamma s3."""
    if not x.is_pure(3):
        raise ValueError("expected a codimension-3 class")
    basis3 = [p for p in partitions(G36) if sum(p) == 3]
    g = _hs_basis()
    rows = [[Fraction(gi.coefficient(p)) for gi in g] for p in basis3]
    rhs = [Fraction(x.coefficient(p)) for p in basis3]
    sol = solve(rows, rhs, QQ)
    if sol is None:
        raise AssertionError("class not in the span of (h^3, h s2, s3)")
    if any(s.denominator != 1 for s in sol):
        raise AssertionError(f"non-integral coordinates {sol} in (h^3, h s2, s3)")
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
    basis6 = [p for p in partitions(G36) if sum(p) == 6]
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
    r = isqrt(disc)
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
# LG(10,20): the exceptional coefficient; dimension ledgers; Hilbert schemes


def exceptional_coefficient(n: int = 10):
    """The multiple of the second generator in the exceptional divisor class.

    In H*(LG(n,2n)) with N = n(n+1)/2, pair c1^(N-4) against the displayed
    combination c1^2 c2 + (b-2) c1 c3 - 2b c4; the unique b killing it is
    returned along with the pairing integers and the (positive) degree of
    the class c1 c3 - 2 c4.
    """
    ring = LG(n)
    base = power(ChowClass.sigma(ring, (1,)), ring.dim - 4)
    X = degree_pairing(base.mult_row(1).mult_row(1).mult_row(2))
    Y = degree_pairing(base.mult_row(1).mult_row(3))
    Z = degree_pairing(base.mult_row(4))
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
    xi = {"parts": (9, 24, 21), "dim": 9 + 24 + 21, "ambient": LG(10).dim,
          "is_divisor_bound": 9 + 24 + 21 < LG(10).dim}
    return {"rows": rows, "xi": xi}


def hilb3_invariants(g: int, a: int, b: int):
    """Beauville-Bogomolov square and Fujiki top power of aH - b*delta on the
    length-3 Hilbert scheme of a genus-g polarized K3 surface.

    q(H) = 2g - 2, q(delta) = -4, H and delta orthogonal; the top
    self-intersection is 15 q^3.
    """
    q = a * a * (2 * g - 2) - 4 * b * b
    return {"q": q, "fujiki_degree": 15 * q ** 3}

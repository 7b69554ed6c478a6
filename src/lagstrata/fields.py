"""Exact coefficient fields.

Two backends: arbitrary-precision rationals (``fractions.Fraction``) and
prime fields F_p with word-sized representatives.  Scalars themselves are
plain ``Fraction``/``int`` values; a field object supplies the arithmetic.
Containers (multivectors, subspaces) carry the field object and refuse to
mix scalars from different fields.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul


class FieldMismatchError(TypeError):
    """Two operands live over different coefficient fields."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


MAX_PRIME = 1000


class PrimeField:
    """F_p, elements represented as ints in ``range(p)``.

    Inverses use Fermat (``pow(a, p-2, p)``); p is capped so every element
    stays word-sized.  p = 2 is permitted (the census runs over it) but the
    chart and dual-K3 machinery require odd characteristic.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p > MAX_PRIME:
            raise ValueError(f"prime fields are limited to p <= {MAX_PRIME}")
        self.p = p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    @property
    def characteristic(self) -> int:
        return self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def scale_row(self, c, row):
        """c*row entrywise."""
        p = self.p
        return [(c * x) % p for x in row]

    def row_sub(self, a, c, b):
        """a - c*b entrywise."""
        p = self.p
        return [(x - c * y) % p for x, y in zip(a, b)]

    def dot(self, a, b):
        """sum a_i*b_i, reduced once."""
        return sum(map(mul, a, b)) % self.p

    def from_int(self, n: int):
        return n % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def elements(self):
        return range(self.p)

    def random(self, rng):
        return rng.randrange(self.p)

    def random_nonzero(self, rng):
        return rng.randrange(1, self.p)

    def to_str(self, a) -> str:
        return str(a % self.p)

    def from_str(self, s: str):
        return int(s) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The rationals, with exact ``Fraction`` arithmetic."""

    __slots__ = ()

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    @property
    def characteristic(self) -> int:
        return 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by 0")
        return Fraction(a) / b

    def scale_row(self, c, row):
        """c*row entrywise."""
        return [c * x for x in row]

    def rref(self, rows):
        """``linalg.rref`` of a matrix over QQ, fraction free on Python ints
        (Bareiss, Math. Comp. 22, 1968; see the ``linalg`` docstring).
        Zero rows given as input come back as given, rows that cancel as zeros.
        """
        given = [list(r) for r in rows]
        m = []
        for r in given:
            d = lcm(*(x.denominator for x in r))
            m.append([x.numerator * (d // x.denominator) for x in r])
        nrows = len(m)
        ncols = len(m[0]) if nrows else 0
        pivots = []
        prev = 1
        r = 0
        for c in range(ncols):
            pr = next((i for i in range(r, nrows) if m[i][c]), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            given[r], given[pr] = given[pr], given[r]
            mr = m[r]
            piv = mr[c]
            for i in range(nrows):
                a = m[i][c]
                if i != r and (a or piv != prev):
                    m[i] = [(piv * x - a * y) // prev for x, y in zip(m[i], mr)]
            pivots.append(c)
            prev = piv
            r += 1
            if r == nrows:
                break
        zero = Fraction(0)
        out = [[Fraction(x, prev) if x else zero for x in row] for row in m[:r]]
        out += [g if not any(g) else [zero] * ncols for g in given[r:]]
        return out, pivots

    def mat_mul(self, A, B):
        """``linalg.mat_mul`` over QQ, summed on Python ints.

        Each row of A and each column of B is scaled to ints once by the lcm
        of its denominators, as in ``rref``; an entry is one int dot product
        over the product of the two scales.  ``Fraction`` is canonical, so
        every entry equals ``dot`` of the row and the column.
        """
        def cleared(vectors):
            out = []
            for v in vectors:
                d = lcm(*(x.denominator for x in v))
                out.append(([x.numerator * (d // x.denominator) for x in v], d))
            return out

        cols = cleared(zip(*B))
        return [[Fraction(sum(map(mul, a, b)), da * db) for b, db in cols]
                for a, da in cleared(A)]

    def dot(self, a, b):
        """sum a_i*b_i over the nonzero terms."""
        return sum((x * y for x, y in zip(a, b) if x and y), Fraction(0))

    def from_int(self, n: int):
        return Fraction(n)

    def is_zero(self, a) -> bool:
        return a == 0

    def random(self, rng):
        # small integers keep downstream echelon forms readable and fast
        return Fraction(rng.randrange(-9, 10))

    def random_nonzero(self, rng):
        n = rng.randrange(1, 10)
        return Fraction(-n if rng.randrange(2) else n)

    def to_str(self, a) -> str:
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def from_str(self, s: str):
        return Fraction(s)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def check_same_field(f1, f2):
    if f1 != f2:
        raise FieldMismatchError(f"field mismatch: {f1!r} vs {f2!r}")

"""Exterior algebra of a fixed six-dimensional space W.

Basis k-vectors are indexed by strictly increasing k-subsets of {1..6} in
lexicographic order.  Every sign is read from one table per pair of grades,
``merge_table(g, h)``, built on first use (never at import) from the parity
of the merge permutation, so the pairing matrices below are reproducible
bit for bit.  The volume normalization is vol(e1^...^e6) = 1.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .fields import check_same_field

DIM_W = 6

SUBSETS = {k: tuple(combinations(range(1, DIM_W + 1), k)) for k in range(DIM_W + 1)}
INDEX = {k: {s: i for i, s in enumerate(SUBSETS[k])} for k in range(DIM_W + 1)}
TOP = SUBSETS[DIM_W][0]


class GradeError(ValueError):
    """Operation applied at an impossible grade."""


@lru_cache(maxsize=None)
def merge_table(g, h):
    """For each basis g-subset I, a dict from each h-subset J disjoint from I
    to (sign, merged): e_I ^ e_J = sign * e_merged, the sign being the parity
    of the inversions of the concatenation I+J."""
    table = {}
    for I in SUBSETS[g]:
        row = table[I] = {}
        for J in SUBSETS[h]:
            if set(I).isdisjoint(J):
                inv = sum(a > b for a in I for b in J)
                row[J] = (-1 if inv % 2 else 1), tuple(sorted(I + J))
    return table


def merge_sign(I, J):
    """Merge two disjoint sorted tuples; returns (sign, merged) or None."""
    return merge_table(len(I), len(J))[I].get(J)


class MultiVector:
    """Grade-homogeneous element of the exterior algebra of W.

    ``coords`` maps sorted k-subsets to nonzero field scalars.  Instances
    are treated as immutable.
    """

    __slots__ = ("field", "grade", "coords")

    def __init__(self, field, grade, coords):
        if not 0 <= grade <= DIM_W:
            raise GradeError(f"grade {grade} out of range")
        self.field = field
        self.grade = grade
        clean = {}
        for s, c in coords.items():
            s = tuple(s)
            if len(s) != grade or INDEX[grade].get(s) is None:
                raise ValueError(f"bad index {s} for grade {grade}")
            if not field.is_zero(c):
                clean[s] = c
        self.coords = clean

    @classmethod
    def _trusted(cls, field, grade, coords):
        """Build from keys known to be valid basis subsets; drops zeros only."""
        mv = object.__new__(cls)
        mv.field = field
        mv.grade = grade
        is_zero = field.is_zero
        mv.coords = {s: c for s, c in coords.items() if not is_zero(c)}
        return mv

    @classmethod
    def zero(cls, field, grade):
        return cls(field, grade, {})

    @classmethod
    def basis(cls, field, subset, c=None):
        subset = tuple(sorted(subset))
        return cls(field, len(subset), {subset: field.one if c is None else c})

    @classmethod
    def from_vector(cls, field, grade, vec):
        return cls(field, grade, {s: vec[i] for i, s in enumerate(SUBSETS[grade])
                                  if not field.is_zero(vec[i])})

    def to_vector(self):
        vec = [self.field.zero] * len(SUBSETS[self.grade])
        for s, c in self.coords.items():
            vec[INDEX[self.grade][s]] = c
        return vec

    def is_zero(self) -> bool:
        return not self.coords

    def coefficient(self, subset):
        return self.coords.get(tuple(sorted(subset)), self.field.zero)

    def scale(self, c):
        f = self.field
        if f.is_zero(c):
            return MultiVector.zero(f, self.grade)
        return MultiVector._trusted(f, self.grade, {s: f.mul(c, v) for s, v in self.coords.items()})

    def __add__(self, other):
        check_same_field(self.field, other.field)
        if self.grade != other.grade:
            raise GradeError("grades differ")
        f = self.field
        coords = dict(self.coords)
        for s, c in other.coords.items():
            coords[s] = f.add(coords.get(s, f.zero), c)
        return MultiVector._trusted(f, self.grade, coords)

    def __sub__(self, other):
        return self + other.scale(other.field.neg(other.field.one))

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one))

    def __eq__(self, other):
        return (isinstance(other, MultiVector) and self.field == other.field
                and self.grade == other.grade and self.coords == other.coords)

    def __hash__(self):
        return hash((self.grade, tuple(sorted(self.coords.items()))))

    def __repr__(self):
        if not self.coords:
            return f"0 (grade {self.grade})"
        f = self.field
        terms = []
        for s in SUBSETS[self.grade]:
            if s in self.coords:
                terms.append(f"{f.to_str(self.coords[s])}*e{''.join(map(str, s))}")
        return " + ".join(terms)


def wedge(a: MultiVector, b: MultiVector) -> MultiVector:
    check_same_field(a.field, b.field)
    g = a.grade + b.grade
    if g > DIM_W:
        raise GradeError(f"wedge grade {g} exceeds {DIM_W}")
    f = a.field
    table = merge_table(a.grade, b.grade)
    bc = b.coords
    zero, mul, add, sub = f.zero, f.mul, f.add, f.sub
    coords = {}
    for I, ca in a.coords.items():
        row = table[I]
        # walk the shorter of the table row and b's support
        for J in (row if len(row) < len(bc) else bc):
            ms, cb = row.get(J), bc.get(J)
            if ms is None or cb is None:
                continue
            sign, M = ms
            acc = coords.get(M, zero)
            coords[M] = add(acc, mul(ca, cb)) if sign > 0 else sub(acc, mul(ca, cb))
    return MultiVector._trusted(f, g, coords)


def contract(covector, a: MultiVector) -> MultiVector:
    """Interior product against a covector (length-6 coefficient list).

    Anti-derivation convention: on a basis k-vector e_{i1..ik} the result is
    sum_t (-1)^(t-1) f(e_{it}) e_{I minus it}.
    """
    f = a.field
    if a.grade == 0:
        raise GradeError("cannot contract a scalar")
    coords = {}
    for I, c in a.coords.items():
        for t, idx in enumerate(I):
            fc = covector[idx - 1]
            if f.is_zero(fc):
                continue
            rest = I[:t] + I[t + 1:]
            term = f.mul(fc, c)
            if t % 2:
                term = f.neg(term)
            coords[rest] = f.add(coords.get(rest, f.zero), term)
    return MultiVector._trusted(f, a.grade - 1, coords)


def volume(a: MultiVector):
    """Coefficient of e123456; the chosen trivialization of the top grade."""
    if a.grade != DIM_W:
        raise GradeError("volume needs a grade-6 element")
    return a.coords.get(TOP, a.field.zero)


def eta(u: MultiVector, v: MultiVector):
    """Symplectic form on trivectors: eta(u, v) = vol(u ^ v)."""
    if u.grade != 3 or v.grade != 3:
        raise GradeError("eta is defined on trivectors")
    check_same_field(u.field, v.field)
    f = u.field
    table = merge_table(3, 3)
    vc = v.coords
    s = f.zero
    for I, cu in u.coords.items():
        for J, (sign, _) in table[I].items():
            cv = vc.get(J)
            if cv is None:
                continue
            t = f.mul(cu, cv)
            s = f.add(s, t) if sign > 0 else f.sub(s, t)
    return s


def eta_gram(field):
    """20x20 matrix of eta on the lexicographic trivector basis."""
    n = len(SUBSETS[3])
    G = [[field.zero] * n for _ in range(n)]
    for i, row in enumerate(merge_table(3, 3).values()):
        for J, (sign, _) in row.items():
            G[i][INDEX[3][J]] = field.from_int(sign)
    return G

"""Dense univariate polynomials over an exact field.

Polynomials are tuples of coefficients, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  ``PolyRing``
exposes the same add/sub/mul/neg interface as the scalar fields.  The chart's
series matrices carry their entries in this form; ``chart.smith_valuations``
reads them as coefficient lists and does no ``PolyRing`` arithmetic.
"""

from __future__ import annotations


def _trim(coeffs, field):
    n = len(coeffs)
    while n and field.is_zero(coeffs[n - 1]):
        n -= 1
    return tuple(coeffs[:n])


class PolyRing:
    __slots__ = ("field",)

    def __init__(self, field):
        self.field = field

    @property
    def zero(self):
        return ()

    @property
    def one(self):
        return (self.field.one,)

    def const(self, c):
        return () if self.field.is_zero(c) else (c,)

    def from_int(self, n):
        return self.const(self.field.from_int(n))

    def is_zero(self, f):
        return not f

    def add(self, f, g):
        F = self.field
        n = max(len(f), len(g))
        out = [F.zero] * n
        for i, c in enumerate(f):
            out[i] = c
        for i, c in enumerate(g):
            out[i] = F.add(out[i], c)
        return _trim(out, F)

    def neg(self, f):
        return tuple(self.field.neg(c) for c in f)

    def sub(self, f, g):
        return self.add(f, self.neg(g))

    def mul(self, f, g):
        F = self.field
        if not f or not g:
            return ()
        out = [F.zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if F.is_zero(a):
                continue
            for j, b in enumerate(g):
                if not F.is_zero(b):
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
        return _trim(out, F)

    def scale(self, c, f):
        F = self.field
        if F.is_zero(c):
            return ()
        return _trim([F.mul(c, a) for a in f], F)

    def valuation(self, f):
        """Index of the lowest nonzero coefficient; None for the zero poly."""
        for i, c in enumerate(f):
            if not self.field.is_zero(c):
                return i
        return None

    def truncate(self, f, k):
        return _trim(f[:k], self.field)

    def shift_down(self, f, v):
        return _trim(f[v:], self.field)

    def series_inverse(self, f, k):
        """Inverse of a unit (f[0] != 0) modulo t^k."""
        F = self.field
        if not f or F.is_zero(f[0]):
            raise ZeroDivisionError("series inverse needs a unit")
        inv0 = F.inv(f[0])
        out = [F.zero] * k
        out[0] = inv0
        for n in range(1, k):
            s = F.zero
            for i in range(1, min(n, len(f) - 1) + 1):
                s = F.add(s, F.mul(f[i], out[n - i]))
            out[n] = F.neg(F.mul(inv0, s))
        return _trim(out, F)

    def mul_trunc(self, f, g, k):
        return self.truncate(self.mul(f, g), k)


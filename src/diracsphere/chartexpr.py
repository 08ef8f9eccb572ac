"""Exact chart calculus for the closed-form bubble profiles.

The bubble components (``conformal.Bubble``) and their Wirtinger derivatives
are finite sums of monomials

    c * z^a * conj(z)^b * (1 + z*conj(z))^(-M),      a, b, M >= 0 integers.

Sums of such monomials are closed under addition, d/dz and d/dzbar, so
derivatives of any order are available exactly: no finite differences and
no AD.
"""

from __future__ import annotations

import numpy as np


class ChartExpr:
    """Finite monomial sum c * z^a * zbar^b * u^-M with u = 1 + |z|^2."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # mapping (a, b, M) -> complex coefficient
        self.terms = dict(terms) if terms else {}

    @classmethod
    def monomial(cls, coeff, a=0, b=0, M=0):
        if a < 0 or b < 0 or M < 0:
            raise ValueError("monomial exponents must be nonnegative")
        return cls({(a, b, M): complex(coeff)})

    def _add_term(self, key, coeff):
        if coeff == 0:
            return
        cur = self.terms.get(key)
        new = coeff if cur is None else cur + coeff
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def __add__(self, other):
        out = ChartExpr(self.terms)
        for key, c in other.terms.items():
            out._add_term(key, c)
        return out

    def dz(self):
        """d/dz, with dz(u^-M) = -M zbar u^-(M+1)."""
        out = ChartExpr()
        for (a, b, M), c in self.terms.items():
            if a > 0:
                out._add_term((a - 1, b, M), a * c)
            if M > 0:
                out._add_term((a, b + 1, M + 1), -M * c)
        return out

    def dzbar(self):
        """d/dzbar, mirror of dz."""
        out = ChartExpr()
        for (a, b, M), c in self.terms.items():
            if b > 0:
                out._add_term((a, b - 1, M), b * c)
            if M > 0:
                out._add_term((a + 1, b, M + 1), -M * c)
        return out

    def derivative(self, nz: int, nzbar: int):
        expr = self
        for _ in range(nz):
            expr = expr.dz()
        for _ in range(nzbar):
            expr = expr.dzbar()
        return expr

    def __call__(self, z, cache=None):
        """Evaluate on a complex array; ``cache`` is a PowerCache for reuse."""
        z = np.asarray(z, dtype=complex)
        if cache is None:
            cache = PowerCache(z)
        out = np.zeros(z.shape, dtype=complex)
        for (a, b, M), c in self.terms.items():
            out += c * cache.zp(a) * cache.zbp(b) * cache.uinv(M)
        return out


class PowerCache:
    """Caches powers of z, conj(z) and 1/u for repeated ChartExpr evaluation."""

    def __init__(self, z):
        z = np.asarray(z, dtype=complex)
        self.z = z
        self.zb = np.conj(z)
        self.ui = 1.0 / (1.0 + np.abs(z) ** 2)
        self._zp = {0: np.ones_like(z), 1: z}
        self._zbp = {0: np.ones_like(z), 1: self.zb}
        self._ui = {0: np.ones(z.shape), 1: self.ui}

    def _pow(self, table, base, n):
        have = table.get(n)
        if have is None:
            have = table[n - 1] * base if n - 1 in table else base**n
            table[n] = have
        return have

    def zp(self, n):
        return self._pow(self._zp, self.z, n)

    def zbp(self, n):
        return self._pow(self._zbp, self.zb, n)

    def uinv(self, n):
        return self._pow(self._ui, self.ui, n)

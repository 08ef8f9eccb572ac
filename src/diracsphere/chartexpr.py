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

    def __call__(self, z):
        """Evaluate on a complex array."""
        z = np.asarray(z, dtype=complex)
        zb = np.conj(z)
        ui = 1.0 / (1.0 + np.abs(z) ** 2)
        out = np.zeros(z.shape, dtype=complex)
        for (a, b, M), c in self.terms.items():
            out += c * z**a * zb**b * ui**M
        return out

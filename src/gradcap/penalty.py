"""Smooth one-sided penalty family and its Legendre transform.

The penalty is psi_eps(r) = H(r / eps) with H the cumulative integral of a
fixed C-infinity smooth-step profile eta: H(y) = 0 for y <= 0, H(y) = y - 1
for y >= 2, and a strictly convex blend in between.  Writing the whole family
through one profile makes psi_eps automatically non-increasing in eps at
every r >= 0, which the eps-continuation relies on.

H is one PCHIP interpolant of a fine Simpson table; psi, its derivative and
the conjugate all read it.  The conjugate penalty
l_eps(g, rate) = sup_{m >= 0} {m rate - psi(m^2 - g^2)} is found by golden
section.  Callers that know the maximizer skip the search: at the feedback
rate 2 psi'(p^2 - g^2) p of a gradient norm p the supremum is attained at
m = p (the Fenchel-Young equality), so l_eps = rate p - psi(p^2 - g^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import PchipInterpolator
from scipy.special import expit

_TABLE_POINTS = 8193
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0  # 0.618...


def blend(t):
    """Smooth step: 0 for t <= 0, 1 for t >= 2, strictly increasing between."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 2.0] = 1.0
    mid = (t > 0.0) & (t < 2.0)
    tm = t[mid]
    out[mid] = expit(1.0 / (2.0 - tm) - 1.0 / tm)
    return out


def _build_cumulative():
    y = np.linspace(0.0, 2.0, _TABLE_POINTS)
    vals = blend(y)
    cum = cumulative_simpson(vals, x=y, initial=0.0)
    # the odd-point Simpson correction can dip a hair below zero where the
    # integrand is still flat at double-precision scale; restore monotone
    # nonnegativity before interpolating
    cum = np.maximum.accumulate(np.maximum(cum, 0.0))
    cum /= cum[-1]  # the profile integrates to 1 exactly by symmetry
    return PchipInterpolator(y, cum)


_H = _build_cumulative()

@dataclass(frozen=True)
class PenaltyFn:
    """One member of the penalty family; eps in (0, 1)."""

    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")

    def _piecewise(self, r, linear, smooth):
        """0 for r <= 0, `linear(r)` for r >= 2 eps and `smooth(r / eps)`
        in between; a float for a scalar r."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.zeros_like(r)
        lin = r >= 2.0 * self.eps
        out[lin] = linear(r[lin])
        mid = (r > 0.0) & ~lin
        out[mid] = smooth(r[mid] / self.eps)
        return float(out[0]) if scalar else out

    def psi(self, r):
        return self._piecewise(r, lambda r: (r - self.eps) / self.eps, _H)

    def psi_prime(self, r):
        return self._piecewise(r, lambda r: 1.0 / self.eps,
                               lambda y: blend(y) / self.eps)

    def legendre_batch(self, g_arr, eta_arr):
        """sup_{m >= 0} { m * eta - psi(m^2 - g^2) } by golden section, over
        matching arrays of g(x) and |eta|.

        The objective is concave in m (psi composed with m^2 is convex), so
        a single bracket suffices; its cap extends past both the penalty
        activation point and the stationary point eta * eps / 2 of the
        linear branch.  Each element's bracket shrinks by the same
        iteration count, set by the largest bracket of the batch, so an
        element's value depends only on its own (g, eta) and on that count.
        """
        g = np.asarray(g_arr, dtype=float)
        eta = np.asarray(eta_arr, dtype=float)
        if np.any(eta < 0) or np.any(g < 0):
            raise ValueError("legendre requires g >= 0 and eta_norm >= 0")
        hi = g + eta * self.eps / 2.0 + np.sqrt(self.eps * (eta * self.eps + 1.0)) + 1.0
        lo = np.zeros_like(hi)

        def objective(m):
            return m * eta - self.psi(m * m - g * g)

        span = float(np.max(hi))
        n_iter = max(1, int(np.ceil(np.log(span / 1e-8) / np.log(1.0 / _GOLDEN))))
        for _ in range(n_iter):
            x1 = hi - _GOLDEN * (hi - lo)
            x2 = lo + _GOLDEN * (hi - lo)
            take_left = objective(x1) > objective(x2)
            hi = np.where(take_left, x2, hi)
            lo = np.where(take_left, lo, x1)
        best = objective(0.5 * (lo + hi))
        # m = 0 is always feasible and gives 0; zero effort costs exactly 0
        return np.where(eta == 0.0, 0.0, np.maximum(best, 0.0))


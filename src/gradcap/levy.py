"""Bounded-variation jump measures: moment checks, deterministic quadrature,
and stochastic jump sampling.

Two model families are supported.  CompoundPoisson is a finite list of atoms
(z, mass), for which every integral is an exact sum.  BVDensity places the
radial density kappa * r^(-1-alpha) * exp(-lambda * r) on each ray of a
finite direction set, truncated to [z_min, z_max]; alpha < 1 keeps the first
moment near the origin finite (bounded variation), so discarded small jumps
cost at most their absolute first moment.  Bounded variation also means the
jump integral needs no compensator: the operator integrates u(x+z) - u(x)
against nu, and the simulator samples the jumps uncompensated next to the
operator's own drift b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DivergentMeasure, InvalidCutoffs


def _radial_integral(power, kappa, alpha, lam, a, b):
    """kappa * int_a^b r^(power - 1 - alpha) * exp(-lam r) dr, 0 <= a < b.

    power=0 gives the mass, power=1 the first moment.  Closed form when
    lam == 0; adaptive quadrature otherwise (integrable endpoint for
    power=1 even at a=0 since alpha < 1).
    """
    if b <= a:
        return 0.0
    expo = power - alpha
    if lam == 0.0:
        if abs(expo) < 1e-14:
            return kappa * np.log(b / a) if a > 0 else np.inf
        if expo < 0 and a == 0.0:
            return np.inf
        return kappa * (b**expo - a**expo) / expo
    val, _ = quad(lambda r: r ** (expo - 1.0) * np.exp(-lam * r), a, b,
                  limit=200, points=None)
    return kappa * val


def _choice_cdf(p):
    """The table `Generator.choice(len(p), size=n, p=p)` draws from.

    `cdf.searchsorted(rng.random(n), side="right")` then gives choice's
    indices and leaves the generator in the same state, without choice
    checking and summing p again on every call.  p is checked here as
    choice checks it.
    """
    if not np.all(p >= 0.0):
        raise ValueError("probabilities are not non-negative")
    if abs(p.sum() - 1.0) > np.sqrt(np.finfo(float).eps):
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


@dataclass(frozen=True)
class CompoundPoisson:
    """Finite atomic measure: list of (z, mass) with mass > 0."""

    atoms: tuple  # ((z_vector, mass), ...)

    def __post_init__(self):
        norm = []
        for z, m in self.atoms:
            zv = np.atleast_1d(np.asarray(z, dtype=float))
            if not m > 0:
                raise ValueError("atom mass must be positive")
            if np.linalg.norm(zv) == 0.0:
                raise ValueError("atoms must have nonzero jump size")
            norm.append((tuple(zv), float(m)))
        object.__setattr__(self, "atoms", tuple(norm))
        # the atoms as arrays: sizes (n, d), masses and jump lengths
        Z = np.array([z for z, _ in norm], dtype=float).reshape(len(norm),
                                                                self.dim)
        object.__setattr__(self, "_Z", Z)
        object.__setattr__(self, "_m", np.array([m for _, m in norm]))
        object.__setattr__(self, "_r", np.linalg.norm(Z, axis=1))
        # delta -> `_above(delta)`, and delta -> the cdf `sample_sizes` reads
        object.__setattr__(self, "_kept", {})
        object.__setattr__(self, "_cdf", {})

    @property
    def dim(self):
        return len(self.atoms[0][0]) if self.atoms else 1

    def moment_values(self):
        m, r = self._m, self._r
        fm = float(np.sum(m[r < 1.0] * r[r < 1.0]))
        ml = float(np.sum(m[r >= 1.0]))
        return fm, ml

    def _above(self, delta):
        """The atoms at or above delta, their masses normalized, and their
        total mass, computed once per delta: every path of a simulation
        samples at the same delta."""
        if delta not in self._kept:
            keep = self._r >= delta
            m = self._m[keep]
            total = m.sum()
            self._kept[delta] = (self._Z[keep], m / total, float(total))
        return self._kept[delta]

    def intensity_above(self, delta):
        return self._above(delta)[2]

    def small_first_moment(self, delta):
        keep = self._r < delta
        return float(np.sum(self._m[keep] * self._r[keep]))

    def quadrature_nodes(self, delta, n_per_decade):
        # every atom the simulation samples is a node, with its mass
        keep = self._r >= delta
        return self._Z[keep], self._m[keep]

    def sample_sizes(self, rng, n, delta):
        Z, p, _ = self._above(delta)
        if delta not in self._cdf:
            self._cdf[delta] = _choice_cdf(p)
        return Z[self._cdf[delta].searchsorted(rng.random(n), side="right")]


@dataclass(frozen=True)
class BVDensity:
    """Radial density kappa * r^(-1-alpha) * e^(-lambda r) on each ray,
    supported on z_min <= r <= z_max.  alpha < 1 strictly."""

    kappa: float
    alpha: float
    lambda_temper: float
    z_min: float
    z_max: float
    rays: tuple  # unit direction vectors

    def __post_init__(self):
        if self.alpha >= 1.0:
            raise DivergentMeasure(
                f"alpha={self.alpha} has unbounded variation; need alpha < 1")
        if self.alpha < 0.0:
            raise ValueError("alpha must be in [0, 1)")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if self.lambda_temper < 0:
            raise ValueError("lambda_temper must be nonnegative")
        if not 0 < self.z_min < self.z_max:
            raise ValueError("need 0 < z_min < z_max")
        rays = []
        for r in self.rays:
            rv = np.atleast_1d(np.asarray(r, dtype=float))
            nrm = np.linalg.norm(rv)
            if nrm == 0:
                raise ValueError("ray directions must be nonzero")
            rays.append(tuple(rv / nrm))
        if not rays:
            raise ValueError("at least one ray required")
        object.__setattr__(self, "rays", tuple(rays))

    @property
    def dim(self):
        return len(self.rays[0])

    def _ray_moment(self, power, a, b):
        """Mass (power 0) or first moment (power 1) of one ray on [a, b]."""
        return _radial_integral(power, self.kappa, self.alpha,
                                self.lambda_temper, a, b)

    def moment_values(self):
        fm = self._ray_moment(1, self.z_min, min(1.0, self.z_max))
        ml = self._ray_moment(0, max(self.z_min, 1.0), self.z_max)
        n = len(self.rays)
        return n * fm, n * ml

    def intensity_above(self, delta):
        a = max(delta, self.z_min)
        return len(self.rays) * self._ray_moment(0, a, self.z_max)

    def small_first_moment(self, delta):
        # conservative bound: integrate the ideal density from 0
        return len(self.rays) * self._ray_moment(1, 0.0, delta)

    def quadrature_nodes(self, delta, n_per_decade):
        # the support `sample_sizes` draws from
        a = max(delta, self.z_min)
        b = self.z_max
        if b <= a:
            return np.zeros((0, self.dim)), np.zeros(0)
        # midpoint rule in t = log r resolves the r^(-1-alpha) singularity
        n_sub = max(1, int(np.ceil(n_per_decade * np.log10(b / a))))
        t_edges = np.linspace(np.log(a), np.log(b), n_sub + 1)
        t_mid = 0.5 * (t_edges[:-1] + t_edges[1:])
        dt = np.diff(t_edges)
        r_mid = np.exp(t_mid)
        w_ray = self.kappa * r_mid ** (-self.alpha) \
            * np.exp(-self.lambda_temper * r_mid) * dt
        Z = np.concatenate([r_mid[:, None] * np.array(ray)[None, :]
                            for ray in self.rays])
        w = np.tile(w_ray, len(self.rays))
        return Z, w

    def sample_sizes(self, rng, n, delta):
        a = max(delta, self.z_min)
        b = self.z_max
        ray_idx = rng.integers(0, len(self.rays), size=n)
        radii = self._sample_radius(rng, n, a, b)
        dirs = np.array(self.rays)[ray_idx]
        return radii[:, None] * dirs

    def _sample_radius(self, rng, n, a, b):
        alpha, lam = self.alpha, self.lambda_temper
        out = np.empty(n)
        todo = np.arange(n)
        while todo.size:
            u = rng.random(todo.size)
            if alpha == 0.0:
                r = a * (b / a) ** u
            else:
                sa, sb = a ** (-alpha), b ** (-alpha)
                r = (sa - u * (sa - sb)) ** (-1.0 / alpha)
            if lam == 0.0:
                out[todo] = r
                todo = np.empty(0, dtype=int)
            else:
                accept = rng.random(todo.size) < np.exp(-lam * (r - a))
                out[todo[accept]] = r[accept]
                todo = todo[~accept]
        return out


@dataclass(frozen=True)
class JumpDensity:
    """State-dependent thinning factor s(x, z) in [0, 1].

    `fn` is vectorized: fn(X, z) takes X of shape (n, d) and one offset z,
    returning n values.
    """

    fn: object

    def eval(self, X, z):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        vals = np.asarray(self.fn(X, np.asarray(z, dtype=float)), dtype=float)
        return np.broadcast_to(vals, (X.shape[0],)).copy()


def constant_density(value=1.0):
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ValueError("jump density must take values in [0, 1]")
    return JumpDensity(fn=lambda X, z: np.full(X.shape[0], v))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for the integral of the measure `levy` (None: no
    jumps) over |z| >= delta, the jumps the simulation samples; the
    operator and the simulation both drop the jumps below delta =
    `small_jump_cutoff`."""

    nodes: np.ndarray      # (n, d)
    weights: np.ndarray    # (n,)
    small_jump_cutoff: float
    levy: object = None

    @property
    def total_mass(self):
        return float(np.sum(self.weights))


def moment_check(levy):
    """Numerical values of the two convergence integrals and an ok flag."""
    fm, ml = levy.moment_values()
    return {
        "first_moment_small": fm,
        "mass_large": ml,
        "ok": bool(np.isfinite(fm) and np.isfinite(ml)),
    }


def build_quadrature(levy, delta, n_per_decade=16):
    """Quadrature rule of `levy` on |z| >= delta after checking the cutoff;
    `levy=None` (no jumps) gives the empty rule."""
    if not delta > 0:
        raise InvalidCutoffs(f"need delta > 0, got delta={delta}")
    if n_per_decade < 4:
        raise ValueError("n_per_decade must be at least 4")
    measure = CompoundPoisson(atoms=()) if levy is None else levy
    Z, w = measure.quadrature_nodes(delta, n_per_decade)
    return QuadratureRule(nodes=Z, weights=w, small_jump_cutoff=delta,
                          levy=levy)


def sample_jumps(levy, delta, T, rng_seed):
    """Jump times and sizes of the truncated process on [0, T].

    Times form a Poisson process with rate nu({|z| >= delta}); sizes follow
    the normalized restriction.  `rng_seed` may be an integer or an existing
    numpy Generator (the latter is what the path simulator passes in).
    """
    if isinstance(rng_seed, np.random.Generator):
        rng = rng_seed
    else:
        rng = np.random.default_rng(rng_seed)
    lam = levy.intensity_above(delta)
    if lam <= 0.0:
        return []
    n = int(rng.poisson(lam * T))
    if n == 0:
        return []
    times = np.sort(rng.random(n) * T)
    sizes = levy.sample_sizes(rng, n, delta)
    return [(float(t), sizes[i].copy()) for i, t in enumerate(times)]


def bounded_variation_error_bound(levy, delta, T):
    """Bias bound T * int_{|z| < delta} |z| nu(dz) for dropping small jumps."""
    return T * levy.small_first_moment(delta)

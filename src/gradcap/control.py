"""Controlled jump-diffusion simulation and Monte Carlo cost estimation.

The state follows an Euler-Maruyama discretization of
    dX = -(b(X) + n * rate) dt + sigma(X) dW + dZ,
where b is the operator's drift and Z is the uncompensated jump part
sampled above a truncation level.  Under bounded variation the operator's
jump integral needs no compensator, so b is the drift of the simulated
process as it stands.  Paths stop at the first state outside the open
domain or at the horizon cap; the discount makes the cap bias negligible.

Every control answers one question per step, `act(X, t, g_cost) ->
(rate, direction, effort)`, and lists its impulses in `pushes`; the step
charges the running cost h plus `effort`.  Cost conventions: absolutely
continuous policies price their push rate by the conjugate penalty;
singular test controls pay the constraint weight g times their rate, and
g along each impulse segment (Gauss-Legendre along the straight
displacement).

Paths run in batches that one budget of standard normals sizes: a batch
holds at most `_NORMALS_BUDGET // (_MIN_CHUNK_STEPS * d)` paths and draws
its normals `_NORMALS_BUDGET // (n * d)` steps at a time.  A batch steps
until its slowest path exits, so fewer, fuller batches pay the per-step
Python overhead fewer times.  Per-path seeds keep every estimate
independent of the batching.  A batch's normals sit in a memory mapping of
their own that is returned when the batch ends.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .errors import PushOutsideAdmissible, StartOutsideDomain
from .geometry import interp_weights
from .levy import bounded_variation_error_bound, sample_jumps
from .penalty import PenaltyFn

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
# mapped to [0, 1]
_GL01_NODES = 0.5 * (_GL_NODES + 1.0)
_GL01_WEIGHTS = 0.5 * _GL_WEIGHTS

# standard normals one batch may hold at once (16 MB); a batch's path count
# and its refill width both follow from it
_NORMALS_BUDGET = 2**21
# fewest steps one refill covers, so the per-path refill loop stays rare
_MIN_CHUNK_STEPS = 256


def _mapped_empty(shape):
    """Zero-filled float array in an anonymous mapping of its own.

    The mapping goes back to the system when the array is freed.  A batch's
    normals buffer from the heap could instead stay resident after the batch
    ends, and whether the next batch reuses it or lays a second one beside
    it depends on what the steps in between left on the heap, so the peak
    memory of a run would differ from one sample to the next by a buffer.
    """
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, count * np.dtype(float).itemsize)
    return np.frombuffer(buf, dtype=float, count=count).reshape(shape)


@dataclass
class SdeParams:
    """Dynamics, discount, and cost data for the simulation engine.

    `drift` is the drift b the Euler step uses, the operator's own; jumps
    are sampled uncompensated, which is the process the operator generates
    for a bounded-variation measure.  The noise dimension equals the state
    dimension (sigma maps to (n, d, d)).  The engine calls drift, sigma and
    h_cost once per step on the live paths; the sigma of `sde_from_problem`
    broadcasts one matrix factored in advance.
    """

    domain: object
    drift: object            # X (n,d) -> (n,d)
    sigma: object            # X (n,d) -> (n,d,d)
    q: float
    h_cost: object           # X (n,d) -> (n,)
    g_cost: object           # X (n,d) -> (n,)
    levy: object = None
    jump_truncation: float = 1e-3
    t_max: float = 14.0
    dt: float = 1e-3

    def __post_init__(self):
        if not self.q > 0:
            raise ValueError("discount q must be positive")
        if not self.dt > 0 or not self.t_max > 0:
            raise ValueError("dt and t_max must be positive")


def _matrix_sqrt_batched(A):
    """Symmetric PSD square root of a stack of small matrices."""
    w, V = np.linalg.eigh(A)
    w = np.maximum(w, 0.0)
    return np.einsum("nij,nj,nkj->nik", V, np.sqrt(w), V)


def sde_from_problem(problem, q, dt=1e-3, t_max=None, jump_truncation=1e-3,
                     levy=None):
    """Derive simulation parameters from the operator coefficients.

    Valid only in the constant-discount unit-density regime: c must equal
    the constant q at every node and the jump density must be identically 1,
    which is when the operator is the generator of the simulated process
    (diffusion a = sigma sigma^T / 2, drift b).
    The diffusion a must also be the same matrix at every interior node, so
    sigma = sqrt(2a) is factored once here, not at every step.
    """
    grid = problem.grid
    pts = grid.interior_points()
    c_vals = problem.coeffs.c(pts)
    if np.max(np.abs(c_vals - q)) > 1e-10 * (1.0 + abs(q)):
        raise ValueError("simulation requires c constant and equal to q")
    a_vals = np.asarray(problem.coeffs.a(pts), dtype=float)
    if np.any(a_vals != a_vals[:1]):
        raise ValueError("simulation requires constant a")
    # the operator reads s at every interior point and quadrature node
    for z in problem.quad.nodes:
        if np.max(np.abs(problem.s.eval(pts, z) - 1.0)) > 1e-12:
            raise ValueError("simulation requires jump density s identically 1")
    if t_max is None:
        t_max = 14.0 / q

    coeffs = problem.coeffs
    sig0 = _matrix_sqrt_batched(2.0 * a_vals[:1])[0]

    def sigma_fn(X):
        return np.broadcast_to(sig0, (X.shape[0],) + sig0.shape)

    return SdeParams(domain=grid.domain, drift=coeffs.b, sigma=sigma_fn,
                     q=q, h_cost=coeffs.h, g_cost=coeffs.g, levy=levy,
                     jump_truncation=jump_truncation, t_max=t_max, dt=dt)


class NullControl:
    """No pushes at all."""

    pushes = ()

    def act(self, X, t, g_cost):
        zero = np.zeros(X.shape[0])
        return zero, np.zeros_like(X), zero


@dataclass
class ConstantRate:
    """Fixed direction and constant absolutely continuous push rate.

    eps identifies the penalized class the control belongs to; the push
    pays the conjugate penalty of that class on top of the running cost.
    A constant rate's price depends on g alone, so `act` prices the
    distinct g values of a step and reuses them while the next step meets
    the same set, as it does at every step when g is constant.
    """

    n: tuple
    rate: float
    eps: float
    pushes = ()

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.n, dtype=float))
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValueError("direction must be nonzero")
        self.n = tuple(v / nrm)
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")
        self._pf = PenaltyFn(self.eps)
        self._g_priced = self._prices = None

    def act(self, X, t, g_cost):
        rate = np.full(X.shape[0], float(self.rate))
        n = np.broadcast_to(np.array(self.n), X.shape)
        if self.rate == 0:
            # zero effort costs exactly zero
            return rate, n, np.zeros(X.shape[0])
        g_vals, where = np.unique(np.asarray(g_cost(X), dtype=float),
                                  return_inverse=True)
        if not np.array_equal(g_vals, self._g_priced):
            self._g_priced = g_vals
            self._prices = self._pf.legendre_batch(
                g_vals, np.full(g_vals.size, float(self.rate)))
        return rate, n, self._prices[where]


class PenalizedFeedback:
    """Feedback control read off a penalized solution field.

    Pushes along the interpolated gradient with rate
    2 psi'(|grad u|^2 - g^2) |grad u|; zero wherever the penalty or the
    gradient vanishes.  The gradient, the rate and its conjugate effort
    price are tabulated at the lattice nodes once, as the columns of one
    node table, and each step interpolates all of them from one stencil, so
    the running cost stays consistent with the simulated push to the same
    interpolation order as the policy itself.  The conjugate penalty at
    this rate is attained at m = |grad u| (Fenchel-Young equality), so the
    price column is rate |grad u| - psi(|grad u|^2 - g^2) with no search.
    """

    pushes = ()

    def __init__(self, fld, eps, g_fn):
        grid = fld.grid
        self.grid = grid
        pf = PenaltyFn(eps)
        grad_nodes = np.column_stack(
            [t.ravel() for t in _lattice_gradient(grid, fld.values)])
        norm = np.linalg.norm(grad_nodes, axis=1)
        g_nodes = np.asarray(g_fn(grid.points()), dtype=float)
        rate_nodes = 2.0 * pf.psi_prime(norm**2 - g_nodes**2) * norm
        price_nodes = rate_nodes * norm - pf.psi(norm**2 - g_nodes**2)
        # columns [du/dx_1 .. du/dx_d, rate, price], one row per lattice node
        self.table = np.column_stack([grad_nodes, rate_nodes, price_nodes])

    def act(self, X, t, g_cost):
        cols, wts = interp_weights(self.grid, X)
        vals = np.sum(self.table[cols] * wts[:, :, None], axis=1)
        d = self.grid.dim
        grad = vals[:, :d]
        norm = np.linalg.norm(grad, axis=1)
        n = np.zeros_like(grad)
        n[:, 0] = 1.0
        nz = norm > 0
        n[nz] = grad[nz] / norm[nz, None]
        return (np.maximum(vals[:, d], 0.0), n,
                np.maximum(vals[:, d + 1], 0.0))


def _lattice_gradient(grid, values):
    """Central-difference gradient tables on the full lattice.

    One-sided at the lattice hull; values beyond the hull are zero by the
    extension convention, and the interpolated tables feed the feedback
    policy at arbitrary interior states.
    """
    tables = []
    v = values
    h = grid.h
    for axis in range(grid.dim):
        gk = np.zeros_like(v)
        sl_all = [slice(None)] * grid.dim

        def ax(s):
            out = list(sl_all)
            out[axis] = s
            return tuple(out)

        gk[ax(slice(1, -1))] = (v[ax(slice(2, None))]
                                - v[ax(slice(None, -2))]) / (2 * h)
        gk[ax(0)] = (v[ax(1)] - v[ax(0)]) / h
        gk[ax(-1)] = (v[ax(-1)] - v[ax(-2)]) / h
        tables.append(gk)
    return tables


@dataclass
class CostEstimate:
    mean: float
    stderr: float
    n_paths: int
    seed: int
    discarded_bias_bound: float
    dt: float
    max_rate_observed: float = 0.0

    def tolerance(self, drift_sup):
        """Acceptance half-width 3 stderr + 2 dt (|drift| + 1) + jump bias."""
        return (3.0 * self.stderr + 2.0 * self.dt * (drift_sup + 1.0)
                + self.discarded_bias_bound)


@dataclass
class Path:
    times: np.ndarray
    states: np.ndarray
    exited: bool
    exit_time: float
    cost: float = 0.0


@dataclass
class SingularControlSpec:
    """Open-loop test control: continuous rate plus optional pushes.

    rate may be a float or a callable of time; pushes are (time, direction,
    size) triples applied at the containing step with the exact push time in
    the discount factor.  Push sizes must be nonnegative (the cumulative
    intensity is nondecreasing).
    """

    n: tuple = (1.0,)
    rate: object = 0.0
    pushes: tuple = ()

    def __post_init__(self):
        for t, _, dz in self.pushes:
            if dz < 0:
                raise ValueError("push sizes must be nonnegative")
            if t <= 0:
                raise ValueError("push times must be positive")

    def rate_at(self, t):
        return float(self.rate(t)) if callable(self.rate) else float(self.rate)

    def act(self, X, t, g_cost):
        rate = np.full(X.shape[0], self.rate_at(t))
        n = np.broadcast_to(np.asarray(self.n, dtype=float), X.shape)
        return rate, n, np.asarray(g_cost(X), dtype=float) * rate


def _path_jumps(params, seed_rng):
    if params.levy is None:
        return []
    return sample_jumps(params.levy, params.jump_truncation, params.t_max,
                        seed_rng)


def _simulate_batch(params, seeds, x0, control, record=False):
    """Advance one batch of paths to exit or horizon.

    Returns the discounted costs, the final states (an exited path keeps
    its first state outside the domain), the exit flags and times, and the
    largest push rate seen.

    Every step asks the control for `act(X, t, g_cost)`, which returns the
    push rate, its direction and the effort cost rate paid on top of the
    running cost h; `control.pushes` lists the control's (time, direction,
    size) impulses, paid along the push segment.

    Each path owns one generator seeded with its entry of `seeds`; it
    yields that path's jumps first and diffusion increments afterwards, so
    per-path results do not depend on how paths are batched together.  The
    increments are drawn in chunks of `_NORMALS_BUDGET // (n * d)` steps
    (at least `_MIN_CHUNK_STEPS`), refilled only for live paths.
    """
    d = params.domain.dim
    n = len(seeds)
    dt = params.dt
    n_steps = int(np.ceil(params.t_max / dt))
    sqrt_dt = np.sqrt(dt)

    push_list = sorted(control.pushes, key=lambda p: p[0])
    push_times = [p[0] for p in push_list]
    rngs = [np.random.default_rng(int(s)) for s in seeds]
    jump_step, jump_path, jump_size = [], [], []
    for i, rng in enumerate(rngs):
        for t_j, z in _path_jumps(params, rng):
            if t_j in push_times:
                raise PushOutsideAdmissible(
                    f"push requested at jump time t={t_j}")
            # a jump in (k dt, (k+1) dt] lands at the end of step k
            k_j = min(int(np.ceil(t_j / dt)) - 1, n_steps - 1)
            jump_step.append(max(k_j, 0))
            jump_path.append(i)
            jump_size.append(z)
    if jump_step:
        order = np.lexsort((np.arange(len(jump_step)), jump_step))
        jump_step = np.asarray(jump_step)[order]
        jump_path = np.asarray(jump_path)[order]
        jump_size = np.asarray(jump_size)[order]
    else:
        jump_step = np.zeros(0, dtype=int)
        jump_path = np.zeros(0, dtype=int)
        jump_size = np.zeros((0, d))
    jump_ptr = 0

    x0 = np.asarray(x0, dtype=float)
    if not params.domain.contains(x0):
        raise StartOutsideDomain(f"x0={x0} is not inside the domain")
    x = np.tile(x0, (n, 1))
    cost = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    exit_times = np.full(n, params.t_max)
    max_rate = 0.0

    chunk_steps = min(max(_NORMALS_BUDGET // (n * d), _MIN_CHUNK_STEPS),
                      n_steps)
    normals = _mapped_empty((n, chunk_steps, d))
    for i, rng in enumerate(rngs):
        normals[i] = rng.standard_normal(normals.shape[1:])
    chunk_base = 0

    traj_t, traj_x = ([0.0], [x[0].copy()]) if record else (None, None)

    for k in range(n_steps):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        t = k * dt
        if k - chunk_base >= chunk_steps:
            chunk_base = k
            width = min(chunk_steps, n_steps - k)
            for i in idx:
                normals[i, :width] = rngs[i].standard_normal((width, d))
        xa = x[idx]

        # running cost plus control effort at the left endpoint
        rate, n_dir, effort = control.act(xa, t, params.g_cost)
        max_rate = max(max_rate, float(np.max(rate)))
        run = np.asarray(params.h_cost(xa), dtype=float) + effort
        cost[idx] += np.exp(-params.q * t) * run * dt

        # Euler step: drift (including the control push) plus diffusion
        drift = np.asarray(params.drift(xa), dtype=float) \
            + n_dir * rate[:, None]
        sig = np.asarray(params.sigma(xa), dtype=float)
        xi = normals[idx, k - chunk_base]
        x[idx] = xa - drift * dt \
            + np.einsum("nij,nj->ni", sig, xi) * sqrt_dt

        # jumps scheduled in (t, t+dt], applied at step end as own events
        t_next = (k + 1) * dt
        while jump_ptr < jump_step.size and jump_step[jump_ptr] == k:
            p = jump_path[jump_ptr]
            if alive[p]:
                x[p] = x[p] + jump_size[jump_ptr]
            jump_ptr += 1

        # impulses scheduled in this step (never at a jump time)
        for t_push, n_push, dz in push_list:
            if t < t_push <= t_next:
                n_push = np.asarray(n_push, dtype=float)
                n_push = n_push / np.linalg.norm(n_push)
                xa2 = x[idx]
                seg = xa2[:, None, :] \
                    - _GL01_NODES[None, :, None] * (dz * n_push)[None, None, :]
                g_seg = np.asarray(
                    params.g_cost(seg.reshape(-1, d)), dtype=float
                ).reshape(xa2.shape[0], -1)
                line = g_seg @ _GL01_WEIGHTS
                cost[idx] += np.exp(-params.q * t_push) * dz * line
                x[idx] = xa2 - dz * n_push[None, :]

        inside = params.domain.contains_batch(x[idx])
        gone = idx[~inside]
        if gone.size:
            alive[gone] = False
            exit_times[gone] = t_next
        if record:
            traj_t.append(t_next)
            traj_x.append(x[0].copy())
            if not alive[0]:
                break

    result = {
        "cost": cost,
        "final": x,
        "exited": ~alive,
        "exit_times": exit_times,
        "max_rate": max_rate,
    }
    if record:
        result["path"] = Path(times=np.array(traj_t),
                              states=np.array(traj_x),
                              exited=bool(~alive[0]),
                              exit_time=float(exit_times[0]),
                              cost=float(cost[0]))
    return result


def simulate_path(params, control, x0, seed):
    """Single trajectory under any control."""
    return _simulate_batch(params, [seed], x0, control, record=True)["path"]


def _bias_bound(params):
    if params.levy is None:
        return 0.0
    return bounded_variation_error_bound(
        params.levy, params.jump_truncation, params.t_max)


def _estimate(params, x0, n_paths, base_seed, control):
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    costs = np.empty(n_paths)
    max_rate = 0.0
    cap = _NORMALS_BUDGET // (_MIN_CHUNK_STEPS * params.domain.dim)
    for idx in np.array_split(np.arange(n_paths), -(-n_paths // cap)):
        out = _simulate_batch(params, base_seed + idx, x0, control)
        costs[idx] = out["cost"]
        max_rate = max(max_rate, out["max_rate"])
    mean = float(np.mean(costs))
    stderr = float(np.std(costs, ddof=1) / np.sqrt(n_paths)) \
        if n_paths > 1 else 0.0
    return CostEstimate(mean=mean, stderr=stderr, n_paths=n_paths,
                        seed=int(base_seed),
                        discarded_bias_bound=_bias_bound(params),
                        dt=params.dt, max_rate_observed=max_rate)


def estimate_penalized_value(params, policy, x0, n_paths, base_seed):
    """Discounted running cost + conjugate-penalty effort cost, averaged."""
    return _estimate(params, x0, n_paths, base_seed, policy)


def estimate_singular_value(params, control_path_spec, x0, n_paths,
                            base_seed):
    """Discounted running cost + constraint-weight control cost, averaged."""
    return _estimate(params, x0, n_paths, base_seed, control_path_spec)


@dataclass
class VerificationReport:
    entries: list
    all_pass: bool


def _drift_sup(params, policy, grid_pts):
    drift = np.asarray(params.drift(grid_pts), dtype=float)
    base = float(np.max(np.linalg.norm(drift, axis=1)))
    if policy is not None:
        rate, _, _ = policy.act(grid_pts, 0.0, params.g_cost)
        base += float(np.max(rate))
    return base


def verify_value_equality(problem, fld, mode, x0_list, n_paths, base_seed,
                          params=None, eps=None, controls=None):
    """Monte Carlo cross-check of the PDE value.

    mode="penalized": simulate the optimal feedback of the penalized
    problem and require |MC - field(x0)| within the CI + discretization
    budget at every start point.

    mode="singular": every supplied admissible test control must cost at
    least field(x0) minus the same budget (one-sided dominance; the
    attaining controls are out of scope).
    """
    if params is None:
        raise ValueError("params (SdeParams) is required")
    pts = problem.grid.interior_points()
    entries = []
    if mode == "penalized":
        if eps is None:
            raise ValueError("penalized mode requires eps")
        policy = PenalizedFeedback(fld, eps, problem.coeffs.g)
        drift_sup = _drift_sup(params, policy, pts)
        for x0 in x0_list:
            est = estimate_penalized_value(params, policy, x0, n_paths,
                                           base_seed)
            ref = fld.value_extended(x0)
            tol = est.tolerance(drift_sup)
            entries.append({
                "x0": list(np.atleast_1d(x0)),
                "mc_mean": est.mean, "stderr": est.stderr,
                "field_value": ref, "tolerance": tol,
                "diff": est.mean - ref,
                "max_rate_observed": est.max_rate_observed,
                "pass": bool(abs(est.mean - ref) <= tol),
            })
    elif mode == "singular":
        if not controls:
            raise ValueError("singular mode requires test controls")
        drift_sup = _drift_sup(params, None, pts)
        for spec in controls:
            extra = spec.rate_at(0.0) if not callable(spec.rate) else 0.0
            for x0 in x0_list:
                est = estimate_singular_value(params, spec, x0, n_paths,
                                              base_seed)
                ref = fld.value_extended(x0)
                tol = est.tolerance(drift_sup + extra)
                entries.append({
                    "x0": list(np.atleast_1d(x0)),
                    "control": repr(spec),
                    "mc_mean": est.mean, "stderr": est.stderr,
                    "field_value": ref, "tolerance": tol,
                    "margin": est.mean - ref + tol,
                    "pass": bool(est.mean >= ref - tol),
                })
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return VerificationReport(entries=entries,
                              all_pass=all(e["pass"] for e in entries))

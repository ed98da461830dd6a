"""Controlled jump-diffusion simulation and Monte Carlo cost estimation.

The state follows an Euler-Maruyama discretization of
    dX = -(b(X) + n * rate) dt + sigma(X) dW + dZ,
where b is the operator's drift and Z is the uncompensated jump part
sampled above a truncation level.  Under bounded variation the operator's
jump integral needs no compensator, so b is the drift of the simulated
process as it stands.  Paths stop at the first state outside the open
domain or at the horizon cap; the discount makes the cap bias negligible.

Every control answers one question per step, `act(X, t, g_cost) ->
(rate, direction, effort)` with t the clocks of the rows of X, and lists
its impulses in `pushes`; the step charges the running cost h plus
`effort`.  Cost conventions: absolutely
continuous policies price their push rate by the conjugate penalty;
singular test controls pay the constraint weight g times their rate, and
g along each impulse segment (Gauss-Legendre along the straight
displacement).

All paths of a check, whatever their control or start point, run in one
pool of slots that one budget of standard normals sizes: about
`_NORMALS_BUDGET // (_MIN_CHUNK_STEPS * d)` slots, each drawing its
normals `_NORMALS_BUDGET // (slots * d)` steps at a time.  A path carries
its own step counter and clock, and the slot it leaves on exit takes the
next queued path of the same control, so a check pays the per-step Python
overhead of one horizon tail, not one per estimate.  Per-path seeds keep
every estimate independent of the pooling.  The pool's normals sit in a
memory mapping of their own that is returned when the pool ends.
"""

from __future__ import annotations

import mmap
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import PushOutsideAdmissible, StartOutsideDomain
from .geometry import interp_weights
from .levy import bounded_variation_error_bound, sample_jumps
from .penalty import PenaltyFn

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
# mapped to [0, 1]
_GL01_NODES = 0.5 * (_GL_NODES + 1.0)
_GL01_WEIGHTS = 0.5 * _GL_WEIGHTS

# standard normals the pool may hold at once (16 MB); its slot count and
# its refill width both follow from it
_NORMALS_BUDGET = 2**21
# fewest steps one refill covers, so the per-path refill loop stays rare
_MIN_CHUNK_STEPS = 256


def _mapped_empty(shape):
    """Zero-filled float array in an anonymous mapping of its own.

    The mapping goes back to the system when the array is freed.  A pool's
    normals buffer from the heap could instead stay resident after the pool
    ends, and whether the next pool reuses it or lays a second one beside
    it depends on what ran in between left on the heap, so the peak memory
    of a run would differ from one sample to the next by a buffer.
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

    rate may be a float or a callable of time (see `rate_at`); pushes are
    (time, direction, size) triples applied at the containing step with the
    exact push time in the discount factor.  Push sizes must be
    nonnegative (the cumulative intensity is nondecreasing).
    """

    n: tuple = (1.0,)
    rate: object = 0.0
    pushes: tuple = ()
    # clock values a callable rate was evaluated at, sorted, and its rates
    _known: tuple = field(default=(np.empty(0), np.empty(0)), init=False,
                          repr=False, compare=False)

    def __post_init__(self):
        for t, _, dz in self.pushes:
            if dz < 0:
                raise ValueError("push sizes must be nonnegative")
            if t <= 0:
                raise ValueError("push times must be positive")

    def rate_at(self, t):
        """Push rate at each clock value of t (a number or an array).

        A callable rate is a function of time: it is called with a float,
        so it need not be vectorized, and once per clock value over the
        life of the spec.  The pool's clocks are k dt for the step counts
        k its paths have reached, so each step meets at most one new value.
        """
        t = np.asarray(t, dtype=float)
        if not callable(self.rate):
            return np.full(t.shape, float(self.rate))
        flat = t.ravel()
        clocks, rates = self._known
        at = np.searchsorted(clocks, flat)
        seen = at < clocks.size
        seen[seen] = clocks[at[seen]] == flat[seen]
        if not seen.all():
            new = np.unique(flat[~seen])
            clocks = np.concatenate((clocks, new))
            rates = np.concatenate(
                (rates, [float(self.rate(float(c))) for c in new]))
            order = np.argsort(clocks)
            clocks, rates = clocks[order], rates[order]
            self._known = (clocks, rates)
            at = np.searchsorted(clocks, flat)
        return rates[at].reshape(t.shape)

    def act(self, X, t, g_cost):
        n = np.broadcast_to(np.asarray(self.n, dtype=float), X.shape)
        if not callable(self.rate) and self.rate == 0:
            # zero effort costs exactly zero
            zero = np.zeros(X.shape[0])
            return zero, n, zero
        rate = self.rate_at(t)
        return rate, n, np.asarray(g_cost(X), dtype=float) * rate


def _path_jumps(params, seed_rng):
    if params.levy is None:
        return []
    return sample_jumps(params.levy, params.jump_truncation, params.t_max,
                        seed_rng)


def _simulate_pool(params, jobs, record=False):
    """Advance every path of every job to exit or horizon in one slot pool.

    `jobs` lists `(control, x0, n_paths, base_seed)`; path i of a job is
    seeded `base_seed + i`.  Returns one dict per job: the discounted costs
    and the final states in path order (an exited path keeps its first
    state outside the domain), and the largest push rate its paths saw.
    With `record`, the one path of the one job also returns its trajectory
    as "path".

    The pool has about `_NORMALS_BUDGET // (_MIN_CHUNK_STEPS * d)` slots.
    A slot holds one path: its generator, its step counter k (its clock is
    k dt) and its row of standard normals.  When the path exits or reaches
    the horizon, the slot takes the next queued path of the same control,
    so the pool steps until the last path of all jobs is done.  The
    controls share the slots in proportion to their paths, so each
    control's live paths are one block and each step calls its `act` once
    on a slice, with t the clocks of that block.  The step charges the
    running cost h plus the returned effort, and pays each impulse of
    `control.pushes` along its segment.

    A path's generator is made when the path enters a slot and dropped
    when it leaves.  It yields the path's jumps first and then its
    increments, so no path's result depends on the others in the pool.
    All live paths read the same column of their rows of normals at each
    pool step: the rows are refilled together, `_NORMALS_BUDGET // (slots
    * d)` steps at a time (at least `_MIN_CHUNK_STEPS`), when that column
    wraps to 0, and a path that enters mid-row draws only the columns left.
    """
    d = params.domain.dim
    dt = params.dt
    q = params.q
    n_steps = int(np.ceil(params.t_max / dt))
    sqrt_dt = np.sqrt(dt)

    # path p is path p - offsets[j] of job j; each distinct control queues
    # the paths of its jobs (in any order: no path depends on another)
    controls, impulses, queues, x0s, offsets = [], [], [], [], [0]
    for control, x0, n_paths, _ in jobs:
        if n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        x0s.append(np.asarray(x0, dtype=float))
        if not params.domain.contains(x0s[-1]):
            raise StartOutsideDomain(f"x0={x0s[-1]} is not inside the domain")
        c = next((i for i, known in enumerate(controls) if known is control),
                 len(controls))
        if c == len(controls):
            controls.append(control)
            impulses += [(c, t_p, np.asarray(n_p, dtype=float)
                          / np.linalg.norm(np.asarray(n_p, dtype=float)), dz)
                         for t_p, n_p, dz
                         in sorted(control.pushes, key=lambda p: p[0])]
            queues.append([])
        queues[c].extend(range(offsets[-1], offsets[-1] + n_paths))
        offsets.append(offsets[-1] + n_paths)
    n_total = offsets[-1]
    if not n_total:
        return []

    # outputs of every path p
    cost_out = np.zeros(n_total)
    final_out = np.empty((n_total, d))
    rate_out = np.zeros(n_total)

    # the discount at each step, computed as exp(-q t) with t = k dt
    disc = np.array([np.exp(-q * (k * dt)) for k in range(n_steps)])
    # each control's share of the slots follows its share of the paths
    counts = np.array([len(queue) for queue in queues])
    cap = _NORMALS_BUDGET // (_MIN_CHUNK_STEPS * d)
    share = counts if n_total <= cap \
        else np.maximum(counts * cap // n_total, 1)
    n_slots = int(share.sum())
    chunk = min(max(_NORMALS_BUDGET // (n_slots * d), _MIN_CHUNK_STEPS),
                n_steps)
    normals = _mapped_empty((n_slots, chunk, d))
    rngs = [None] * n_slots
    held = np.full(n_slots, -1)     # the path in each slot, -1 if none
    due = {}                        # pool step -> (slot, path, jump size)

    # live paths in control blocks (`bounds`), slots ascending within the
    # pool: slot, step counter, state, discounted cost and largest rate
    live = [int(n) for n in share]
    bounds = [0, *accumulate(live)]
    slot = np.arange(n_slots)
    k = np.zeros(n_slots, dtype=int)
    x = np.empty((n_slots, d))
    cost = np.zeros(n_slots)
    rmax = np.zeros(n_slots)

    def enter(e, c, it):
        """Start the next queued path of control c in entry e at pool
        step it."""
        s, p = slot[e], queues[c].pop()
        j = bisect_right(offsets, p) - 1
        rng = np.random.default_rng(int(jobs[j][3] + p - offsets[j]))
        push_times = [t_p for c_p, t_p, _, _ in impulses if c_p == c]
        for t_j, z in _path_jumps(params, rng):
            if t_j in push_times:
                raise PushOutsideAdmissible(
                    f"push requested at jump time t={t_j}")
            # a jump in (k dt, (k+1) dt] lands at the end of step k
            step = it + max(min(int(np.ceil(t_j / dt)) - 1, n_steps - 1), 0)
            due.setdefault(step, []).append((s, p, z))
        # normals for the pool steps up to the next refill of all slots
        if it % chunk:
            rng.standard_normal(out=normals[s, it % chunk:])
        rngs[s], held[s] = rng, p
        k[e], x[e] = 0, x0s[j]
        cost[e] = rmax[e] = 0.0

    for c in range(len(controls)):
        for e in range(bounds[c], bounds[c + 1]):
            enter(e, c, 0)
    traj_t, traj_x = ([0.0], [x[0].copy()]) if record else (None, None)
    it = 0
    while k.size:
        col = it % chunk
        if col == 0:
            for s in slot:
                rngs[s].standard_normal(out=normals[s])
        t = k * dt

        # running cost plus control effort at the left endpoint, one `act`
        # call on each control's block
        rate, n_dir, effort = np.empty(k.size), np.empty_like(x), \
            np.empty(k.size)
        for control, a, b in zip(controls, bounds[:-1], bounds[1:]):
            if b > a:
                rate[a:b], n_dir[a:b], effort[a:b] = control.act(
                    x[a:b], t[a:b], params.g_cost)
        np.maximum(rmax, rate, out=rmax)
        run = np.asarray(params.h_cost(x), dtype=float) + effort
        cost += disc[k] * run * dt

        # Euler step: drift (including the control push) plus diffusion
        drift = np.asarray(params.drift(x), dtype=float) \
            + n_dir * rate[:, None]
        sig = np.asarray(params.sigma(x), dtype=float)
        x = x - drift * dt \
            + np.einsum("nij,nj->ni", sig, normals[slot, col]) * sqrt_dt

        # jumps scheduled in (t, t+dt], applied at step end as own events,
        # for the paths still in their slots
        for s, p, z in due.pop(it, ()):
            if held[s] == p:
                e = np.searchsorted(slot, s)
                x[e] = x[e] + z

        # impulses scheduled in this step (never at a jump time)
        for c, t_push, n_push, dz in impulses:
            a, b = bounds[c], bounds[c + 1]
            hit = a + np.flatnonzero((t[a:b] < t_push)
                                     & (t_push <= (k[a:b] + 1) * dt))
            if not hit.size:
                continue
            xa = x[hit]
            seg = xa[:, None, :] \
                - _GL01_NODES[None, :, None] * (dz * n_push)[None, None, :]
            g_seg = np.asarray(
                params.g_cost(seg.reshape(-1, d)), dtype=float
            ).reshape(xa.shape[0], -1)
            line = g_seg @ _GL01_WEIGHTS
            cost[hit] += np.exp(-q * t_push) * dz * line
            x[hit] = xa - dz * n_push[None, :]

        inside = params.domain.contains_batch(x)
        k += 1
        if record:
            traj_t.append(k[0] * dt)
            traj_x.append(x[0].copy())
        done = ~inside
        if it + 1 >= n_steps:
            done |= k == n_steps
        it += 1
        done = np.flatnonzero(done)
        if not done.size:
            continue
        p = held[slot[done]]
        cost_out[p] = cost[done]
        final_out[p] = x.take(done, axis=0)
        rate_out[p] = rmax[done]
        vacant = []
        for e in done:
            s = slot[e]
            rngs[s], held[s] = None, -1
            c = bisect_right(bounds, e) - 1
            if queues[c]:
                enter(e, c, it)
            else:
                vacant.append(e)
                live[c] -= 1
        if vacant:
            keep = np.ones(k.size, dtype=bool)
            keep[vacant] = False
            # take, not a mask: it copies the rows of x several times faster
            kept = np.flatnonzero(keep)
            slot, k, x, cost, rmax = (arr.take(kept, axis=0)
                                      for arr in (slot, k, x, cost, rmax))
            bounds = [0, *accumulate(live)]

    results = [{
        "cost": cost_out[lo:hi].copy(),
        "final": final_out[lo:hi].copy(),
        "max_rate": float(np.max(rate_out[lo:hi])),
    } for lo, hi in zip(offsets[:-1], offsets[1:])]
    if record:
        # the one path ended its last step outside, or at the horizon
        exited = not inside[0]
        results[0]["path"] = Path(
            times=np.array(traj_t), states=np.array(traj_x), exited=exited,
            exit_time=float(traj_t[-1] if exited else params.t_max),
            cost=float(cost_out[0]))
    return results


def simulate_path(params, control, x0, seed):
    """Single trajectory under any control."""
    return _simulate_pool(params, [(control, x0, 1, seed)],
                          record=True)[0]["path"]


def _bias_bound(params):
    if params.levy is None:
        return 0.0
    return bounded_variation_error_bound(
        params.levy, params.jump_truncation, params.t_max)


def estimate_jobs(params, jobs):
    """One CostEstimate per `(control, x0, n_paths, base_seed)` job.

    Every path of every job runs in one pool (`_simulate_pool`), so the
    jobs share one horizon tail; each estimate equals the one its job gets
    alone, bit for bit.
    """
    bias = _bias_bound(params)
    estimates = []
    for (_, _, n_paths, base_seed), out in zip(
            jobs, _simulate_pool(params, jobs)):
        costs = out["cost"]
        stderr = float(np.std(costs, ddof=1) / np.sqrt(n_paths)) \
            if n_paths > 1 else 0.0
        estimates.append(CostEstimate(
            mean=float(np.mean(costs)), stderr=stderr, n_paths=n_paths,
            seed=int(base_seed), discarded_bias_bound=bias, dt=params.dt,
            max_rate_observed=out["max_rate"]))
    return estimates


def _estimate(params, x0, n_paths, base_seed, control):
    return estimate_jobs(params, [(control, x0, n_paths, base_seed)])[0]


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
        ests = estimate_jobs(params, [(policy, x0, n_paths, base_seed)
                                      for x0 in x0_list])
        for x0, est in zip(x0_list, ests):
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
        pairs = [(spec, x0) for spec in controls for x0 in x0_list]
        ests = estimate_jobs(params, [(spec, x0, n_paths, base_seed)
                                      for spec, x0 in pairs])
        for (spec, x0), est in zip(pairs, ests):
            extra = 0.0 if callable(spec.rate) else float(spec.rate)
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

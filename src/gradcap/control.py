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
its impulses in `pushes`, each along a unit direction (`_unit`); the step
charges the running cost h plus `effort`.  Each pool step calls every
control's `act` once on its block of live rows and `h_cost`, `drift` and
`sigma` once on all of them, so the rows h_cost sees over a simulation add
up to its path steps.  The feedback policy's node table is column-major,
one row per quantity and one column per lattice node, so a step gathers
each stencil corner with one `take`.  Cost conventions: absolutely
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

from .errors import NotSimulable, PushOutsideAdmissible, StartOutsideDomain
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
    broadcasts one matrix factored in advance.  The horizon cap `t_max`
    defaults to 14 / q, where the discount e^(-14) ~ 8e-7 makes the bias
    of the cap negligible.
    """

    domain: object
    drift: object            # X (n,d) -> (n,d)
    sigma: object            # X (n,d) -> (n,d,d)
    q: float
    h_cost: object           # X (n,d) -> (n,)
    g_cost: object           # X (n,d) -> (n,)
    levy: object = None
    jump_truncation: float = 1e-3
    t_max: float = None
    dt: float = 1e-3

    def __post_init__(self):
        if not self.q > 0:
            raise ValueError("discount q must be positive")
        if self.t_max is None:
            self.t_max = 14.0 / self.q
        if not self.dt > 0 or not self.t_max > 0:
            raise ValueError("dt and t_max must be positive")


def _matrix_sqrt_batched(A):
    """Symmetric PSD square root of a stack of small matrices."""
    w, V = np.linalg.eigh(A)
    w = np.maximum(w, 0.0)
    return np.einsum("nij,nj,nkj->nik", V, np.sqrt(w), V)


def sde_from_problem(problem, q=None, levy=None, jump_truncation=None,
                     **sde):
    """Simulation parameters of the process the operator generates.

    That is the process when c is one constant, the discount q, at every
    interior node and s is identically 1 (a = sigma sigma^T / 2, drift b).
    a must also be one matrix at every interior node, so sigma = sqrt(2a)
    is factored once here, not at every step.  The jump measure and its
    truncation delta are the quadrature's.  `sde` passes `dt` and `t_max`
    on to `SdeParams`; `q`, `levy` and `jump_truncation` may restate the
    problem's values, and one that differs from them raises ValueError.
    """
    grid = problem.grid
    pts = grid.interior_points()
    quad = problem.quad
    own = {"q": problem.discount(), "levy": quad.levy,
           "jump_truncation": quad.small_jump_cutoff}
    if own["q"] is None:
        raise NotSimulable("c", "simulation requires constant c")
    for name, given in zip(own, (q, levy, jump_truncation)):
        if given is not None and given != own[name]:
            raise ValueError(f"{name}={given!r} differs from the problem's "
                             f"{own[name]!r}")
    a_vals = np.asarray(problem.coeffs.a(pts), dtype=float)
    if np.any(a_vals != a_vals[:1]):
        raise NotSimulable("a", "simulation requires constant a")
    # the operator reads s at every interior point and quadrature node
    for z in quad.nodes:
        if np.max(np.abs(problem.s.eval(pts, z) - 1.0)) > 1e-12:
            raise NotSimulable(
                "s", "simulation requires jump density s identically 1")

    coeffs = problem.coeffs
    sig0 = _matrix_sqrt_batched(2.0 * a_vals[:1])[0]

    def sigma_fn(X):
        return np.broadcast_to(sig0, (X.shape[0],) + sig0.shape)

    return SdeParams(domain=grid.domain, drift=coeffs.b, sigma=sigma_fn,
                     h_cost=coeffs.h, g_cost=coeffs.g, **own, **sde)


def _unit(n):
    """The direction n scaled to unit length, as a tuple of floats.

    Every push direction of the engine, a rate's or an impulse's, passes
    through here once, so the step kernel never normalizes.
    """
    v = np.atleast_1d(np.asarray(n, dtype=float))
    nrm = np.linalg.norm(v)
    if not (np.isfinite(nrm) and nrm > 0):
        raise ValueError(f"direction must be nonzero and finite, not {n}")
    return tuple(float(c) for c in v / nrm)


def _check_rates(rates):
    """Reject a negative or non-finite push rate."""
    if not np.all(np.isfinite(rates) & (np.asarray(rates) >= 0)):
        raise ValueError(f"push rates {rates} must be finite and nonnegative")


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
        self.n = _unit(self.n)
        _check_rates(self.rate)
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
        grad_nodes = np.array(
            [t.ravel() for t in _lattice_gradient(grid, fld.values)])
        norm = np.linalg.norm(grad_nodes, axis=0)
        g_nodes = np.asarray(g_fn(grid.points()), dtype=float)
        rate_nodes = 2.0 * pf.psi_prime(norm**2 - g_nodes**2) * norm
        price_nodes = rate_nodes * norm - pf.psi(norm**2 - g_nodes**2)
        # rows [du/dx_1 .. du/dx_d, rate, price], one column per lattice
        # node, so each stencil corner is one `take` along the nodes
        self.table = np.vstack([grad_nodes, rate_nodes, price_nodes])

    def act(self, X, t, g_cost):
        cols, wts = interp_weights(self.grid, X)
        # the corners in stencil order onto +0.0, as np.sum over the stencil
        # axis adds them, so the values match it bit for bit
        vals = np.zeros((self.table.shape[0], X.shape[0]))
        for c in range(cols.shape[1]):
            corner = self.table.take(cols[:, c], axis=1)
            corner *= wts[:, c]
            vals += corner
        d = self.grid.dim
        grad = vals[:d]
        norm = np.sqrt((grad * grad).sum(axis=0))
        # the unit gradient, or e_1 where the gradient vanishes
        n = np.zeros_like(grad)
        n[0] = 1.0
        np.divide(grad, norm, out=n, where=norm > 0)
        return np.maximum(vals[d], 0.0), n.T, np.maximum(vals[d + 1], 0.0)


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
    """How one path stopped: at its first state outside the domain
    (`exited`) or at the horizon, its clock then, and its discounted cost."""

    exited: bool
    exit_time: float
    cost: float


@dataclass
class SingularControlSpec:
    """Open-loop test control: continuous rate plus optional pushes.

    rate may be a float or a callable of time (see `rate_at`); pushes are
    (time, direction, size) triples applied at the containing step with the
    exact push time in the discount factor.  Rates and push sizes must be
    nonnegative (the cumulative intensity is nondecreasing), and `n` and
    every push direction are scaled to unit length.
    """

    n: tuple = (1.0,)
    rate: object = 0.0
    pushes: tuple = ()
    # clock values a callable rate was evaluated at, sorted, and its rates
    _known: tuple = field(default=(np.empty(0), np.empty(0)), init=False,
                          repr=False, compare=False)

    def __post_init__(self):
        self.n = _unit(self.n)
        if not callable(self.rate):
            _check_rates(self.rate)
        for t, _, dz in self.pushes:
            if dz < 0:
                raise ValueError("push sizes must be nonnegative")
            if t <= 0:
                raise ValueError("push times must be positive")
        self.pushes = tuple((t, _unit(n_p), dz) for t, n_p, dz in self.pushes)

    def rate_at(self, t):
        """Push rate at each clock value of t (a number or an array).

        A callable rate is a function of time: it is called with a float,
        so it need not be vectorized, and once per clock value over the
        life of the spec; each value it returns must be finite and
        nonnegative.  The pool's clocks are k dt for the step counts k its
        paths have reached, so each step meets at most one new value.
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
            new_rates = [float(self.rate(float(c))) for c in new]
            _check_rates(new_rates)
            clocks = np.concatenate((clocks, new))
            rates = np.concatenate((rates, new_rates))
            order = np.argsort(clocks)
            clocks, rates = clocks[order], rates[order]
            self._known = (clocks, rates)
            at = np.searchsorted(clocks, flat)
        return rates[at].reshape(t.shape)

    def act(self, X, t, g_cost):
        n = np.broadcast_to(np.array(self.n), X.shape)
        if not callable(self.rate) and self.rate == 0:
            # zero effort costs exactly zero
            zero = np.zeros(X.shape[0])
            return zero, n, zero
        rate = self.rate_at(t)
        return rate, n, np.asarray(g_cost(X), dtype=float) * rate


def _simulate_pool(params, jobs):
    """Advance every path of every job to exit or horizon in one slot pool.

    `jobs` lists `(control, x0, n_paths, base_seed)`; path i of a job is
    seeded `base_seed + i`.  Returns one dict per job, in path order: the
    discounted costs, the final states (an exited path keeps its first
    state outside the domain), whether each path exited and the step count
    it stopped at; and the largest push rate its paths saw.

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
            impulses += [(c, t_p, np.asarray(n_p, dtype=float), dz)
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
    exited_out = np.zeros(n_total, dtype=bool)
    steps_out = np.zeros(n_total, dtype=int)

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
        jumps = () if params.levy is None else sample_jumps(
            params.levy, params.jump_truncation, params.t_max, rng)
        for t_j, z in jumps:
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
    it = 0
    while k.size:
        col = it % chunk
        if col == 0:
            for s in slot:
                rngs[s].standard_normal(out=normals[s])
        t = k * dt

        # running cost plus control effort at the left endpoint, one `act`
        # call on each control's block
        acts = [control.act(x[a:b], t[a:b], params.g_cost)
                for control, a, b in zip(controls, bounds[:-1], bounds[1:])
                if b > a]
        rate, n_dir, effort = acts[0] if len(acts) == 1 \
            else (np.concatenate(out) for out in zip(*acts))
        np.maximum(rmax, rate, out=rmax)
        run = np.asarray(params.h_cost(x), dtype=float) + effort
        run *= disc.take(k)
        run *= dt
        cost += run

        # Euler step: drift (including the control push) plus diffusion,
        # both read before x moves in place
        push = n_dir * rate[:, None]
        push += params.drift(x)
        push *= dt
        sig = np.asarray(params.sigma(x), dtype=float)
        noise = np.einsum("nij,nj->ni", sig, normals[slot, col])
        noise *= sqrt_dt
        x -= push
        x += noise

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
        exited_out[p] = ~inside[done]
        steps_out[p] = k[done]
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

    return [{
        "cost": cost_out[lo:hi].copy(),
        "final": final_out[lo:hi].copy(),
        "exited": exited_out[lo:hi].copy(),
        "steps": steps_out[lo:hi].copy(),
        "max_rate": float(np.max(rate_out[lo:hi])),
    } for lo, hi in zip(offsets[:-1], offsets[1:])]


def simulate_path(params, control, x0, seed):
    """One path under any control, seeded `seed`, as a `Path`."""
    out, = _simulate_pool(params, [(control, x0, 1, seed)])
    exited = bool(out["exited"][0])
    return Path(exited=exited,
                exit_time=float(out["steps"][0] * params.dt if exited
                                else params.t_max),
                cost=float(out["cost"][0]))


def estimate_jobs(params, jobs):
    """One CostEstimate per `(control, x0, n_paths, base_seed)` job.

    Every path of every job runs in one pool (`_simulate_pool`), so the
    jobs share one horizon tail; each estimate equals the one its job gets
    alone, bit for bit.
    """
    bias = 0.0 if params.levy is None else bounded_variation_error_bound(
        params.levy, params.jump_truncation, params.t_max)
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


@dataclass
class VerificationReport:
    entries: list
    all_pass: bool


def verify_value_equality(problem, fld, mode, x0_list, n_paths, base_seed,
                          params, eps=None, controls=None):
    """Monte Carlo cross-check of the PDE value.

    mode="penalized": simulate the optimal feedback of the penalized
    problem and require |MC - field(x0)| within the CI + discretization
    budget at every start point.

    mode="singular": every supplied admissible test control must cost at
    least field(x0) minus the same budget (one-sided dominance; the
    attaining controls are out of scope).

    The budget's drift sup is the largest |b| at the interior nodes plus
    the control's rate: the feedback's largest rate at the nodes, a test
    control's constant rate, and nothing for a callable rate.
    """
    pts = problem.grid.interior_points()
    if mode == "penalized":
        if eps is None:
            raise ValueError("penalized mode requires eps")
        policy = PenalizedFeedback(fld, eps, problem.coeffs.g)
        rate, _, _ = policy.act(pts, 0.0, params.g_cost)
        rated = [(policy, float(np.max(rate)))]
    elif mode == "singular":
        if not controls:
            raise ValueError("singular mode requires test controls")
        rated = [(spec, 0.0 if callable(spec.rate) else float(spec.rate))
                 for spec in controls]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    drift = np.asarray(params.drift(pts), dtype=float)
    drift_sup = float(np.max(np.linalg.norm(drift, axis=1)))
    pairs = [(control, rate_sup, x0) for control, rate_sup in rated
             for x0 in x0_list]
    ests = estimate_jobs(params, [(control, x0, n_paths, base_seed)
                                  for control, _, x0 in pairs])
    entries = []
    for (control, rate_sup, x0), est in zip(pairs, ests):
        ref = fld.value_extended(x0)
        tol = est.tolerance(drift_sup + rate_sup)
        entry = {
            "x0": list(np.atleast_1d(x0)),
            "mc_mean": est.mean, "stderr": est.stderr,
            "field_value": ref, "tolerance": tol,
        }
        if mode == "penalized":
            entry.update({
                "diff": est.mean - ref,
                "max_rate_observed": est.max_rate_observed,
                "pass": bool(abs(est.mean - ref) <= tol),
            })
        else:
            entry.update({
                "control": repr(control),
                "margin": est.mean - ref + tol,
                "pass": bool(est.mean >= ref - tol),
            })
        entries.append(entry)
    return VerificationReport(entries=entries,
                              all_pass=all(e["pass"] for e in entries))

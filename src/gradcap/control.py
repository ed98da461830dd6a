"""Controlled jump-diffusion simulation and Monte Carlo cost estimation.

The state follows an Euler-Maruyama discretization of
    dX = -(b(X) + n * rate) dt + sigma(X) dW + dZ,
where b is the operator's drift and Z is the uncompensated jump part
sampled above a truncation level.  Under bounded variation the operator's
jump integral needs no compensator, so b is the drift of the simulated
process as it stands.  Paths stop at the first state outside the open
domain or at the horizon cap; the discount makes the cap bias negligible.

Every control answers one question per step, `act(X, t, g_cost) ->
(rate, direction, effort)` with t the clock of the step, each of the three
broadcastable to the block (a scalar rate or effort, a `(d,)` direction,
where these are the same on every row), and lists its impulses in
`pushes`, each along a unit direction (`_unit`); the step charges the
running cost h plus `effort`.  Each pool step calls every control's `act`
once on its block of live rows and `h_cost`, `drift` and `sigma` once on
all of them, so the rows h_cost sees over a simulation add up to its path
steps.  The feedback policy's node table is column-major, one row per
quantity and one column per lattice node, and the stencil is corner-major,
one contiguous index and weight array per corner, so a step gathers each
corner with one `take`.  Cost conventions: absolutely continuous policies
price their push rate by the conjugate penalty; singular test controls pay
the constraint weight g times their rate, and g along each impulse segment
(Gauss-Legendre along the straight displacement).

All paths of a check, whatever their control or start point, run in one
pool.  The paths that draw one seed, as path i of every entry of a
`verify` does, form a group: they share one generator, one jump draw and
one row of standard normals, while each keeps its own row of state.  Every
path starts at the pool's first step, so the pool's step count is every
path's clock.  The normals are drawn `_NORMALS_BUDGET // (groups * d)`
steps at a time (at least one), and the buffer sits in a memory mapping of
its own that is returned when the pool ends.  A mask of the groups with
live rows picks the groups a refill draws for, and the jumps of a group
with no live row are skipped.  A path reads only its own seed's stream,
so every estimate is independent of the pooling.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import NotSimulable, PushOutsideAdmissible, StartOutsideDomain
from .geometry import interp_weights
from .levy import bounded_variation_error_bound, sample_jumps
from .operators import build_node_gradient_ops
from .penalty import PenaltyFn

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
# mapped to [0, 1]
_GL01_NODES = 0.5 * (_GL_NODES + 1.0)
_GL01_WEIGHTS = 0.5 * _GL_WEIGHTS

# standard normals the pool holds at once (16 MB) while it has at most
# `_NORMALS_BUDGET // d` seed groups; the refill width follows from it
_NORMALS_BUDGET = 2**21


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
    dimension (sigma maps to (n, d, d), or to (1, d, d) where one matrix
    serves every state).  The engine calls drift, sigma and h_cost once per
    step on the live paths; the sigma of `sde_from_problem` returns the one
    matrix it factored in advance.  The horizon cap `t_max` defaults to
    14 / q, where the discount e^(-14) ~ 8e-7 makes the bias of the cap
    negligible; a config states no horizon, so this is its one rule.
    """

    domain: object
    drift: object            # X (n,d) -> (n,d)
    sigma: object            # X (n,d) -> (n,d,d) or (1,d,d)
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
    truncation delta are the quadrature's.  `sde` passes `dt` (a config's
    `sde` block) and `t_max` (a library caller's shorter horizon; default
    14 / q) on to `SdeParams`; `q`, `levy` and `jump_truncation` may
    restate the problem's values, and one that differs from them raises
    ValueError.
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
    sig0 = _matrix_sqrt_batched(2.0 * a_vals[:1])
    sig0.flags.writeable = False

    def sigma_fn(X):
        return sig0

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
        self._dir = np.array(self.n)
        self._pf = PenaltyFn(self.eps)
        self._g_priced = self._prices = None

    def act(self, X, t, g_cost):
        rate = float(self.rate)
        if rate == 0:
            # zero effort costs exactly zero
            return rate, self._dir, 0.0
        g_vals, where = np.unique(np.asarray(g_cost(X), dtype=float),
                                  return_inverse=True)
        if not np.array_equal(g_vals, self._g_priced):
            self._g_priced = g_vals
            self._prices = self._pf.legendre_batch(
                g_vals, np.full(g_vals.size, rate))
        return rate, self._dir, self._prices[where]


class PenalizedFeedback:
    """Feedback control read off a penalized solution field.

    Pushes along the interpolated gradient with rate
    2 psi'(|grad u|^2 - g^2) |grad u|; zero wherever the penalty or the
    gradient vanishes.  The gradient is the scheme's own, read at every
    lattice node by `build_node_gradient_ops`: central where both axis
    neighbors are interior, one-sided toward the interior one where only
    one is, zero where neither is.  The gradient, the rate and its
    conjugate effort price are tabulated at the lattice nodes once, as the
    columns of one node table, and each step interpolates all of them from
    one stencil, so the running cost stays consistent with the simulated
    push to the same interpolation order as the policy itself.  The
    conjugate penalty at this rate is attained at m = |grad u|
    (Fenchel-Young equality), so the price column is
    rate |grad u| - psi(|grad u|^2 - g^2) with no search.
    """

    pushes = ()

    def __init__(self, fld, eps, g_fn):
        grid = fld.grid
        self.grid = grid
        pf = PenaltyFn(eps)
        u_int = fld.interior_vector()
        grad_nodes = np.vstack([G @ u_int
                                for G in build_node_gradient_ops(grid)])
        norm = np.linalg.norm(grad_nodes, axis=0)
        g_nodes = np.asarray(g_fn(grid.points()), dtype=float)
        rate_nodes = 2.0 * pf.psi_prime(norm**2 - g_nodes**2) * norm
        price_nodes = rate_nodes * norm - pf.psi(norm**2 - g_nodes**2)
        # rows [du/dx_1 .. du/dx_d, rate, price], one column per lattice
        # node, so each stencil corner is one `take` along the nodes
        self.table = np.vstack([grad_nodes, rate_nodes, price_nodes])

    def act(self, X, t, g_cost):
        cols, wts = interp_weights(self.grid, X)
        # the corners in stencil order, each a `take` of contiguous columns
        # added into the first corner's buffer
        vals = self.table.take(cols[:, 0], axis=1)
        vals *= wts[:, 0]
        for c in range(1, cols.shape[1]):
            corner = self.table.take(cols[:, c], axis=1)
            corner *= wts[:, c]
            vals += corner
        d = self.grid.dim
        grad = vals[:d]
        sq = grad[0] * grad[0]
        for k in range(1, d):
            sq += grad[k] * grad[k]
        norm = np.sqrt(sq)
        # the unit gradient, or e_1 where the gradient vanishes
        n = np.zeros(grad.shape)
        n[0] = 1.0
        np.divide(grad, norm, out=n, where=norm > 0)
        rate, effort = np.maximum(vals[d:], 0.0)
        return rate, n.T, effort


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
        self._dir = np.array(self.n)

    def rate_at(self, t):
        """Push rate at the clock value t.

        A callable rate is a function of time: it is called with a float,
        so it need not be vectorized, and each value it returns must be
        finite and nonnegative.  The pool calls it once per step.
        """
        if not callable(self.rate):
            return float(self.rate)
        rate = float(self.rate(float(t)))
        _check_rates(rate)
        return rate

    def act(self, X, t, g_cost):
        rate = self.rate_at(t)
        if rate == 0:
            # zero effort costs exactly zero
            return rate, self._dir, 0.0
        return rate, self._dir, np.asarray(g_cost(X), dtype=float) * rate


def _seed_groups(jobs):
    """The paths of `jobs` grouped by the seed they draw.

    Path p of the pool is path p - offsets[j] of job j and draws that
    job's base seed plus its index.  Returns `by_seed`, `starts` and
    `seeds` such that the paths of group g, in job order, are
    `by_seed[starts[g]:starts[g + 1]]` and draw `seeds[g]`; the groups
    ascend by seed.
    """
    sizes = [job[2] for job in jobs]
    first_seed = np.array([int(job[3]) for job in jobs]) \
        - (np.cumsum(sizes) - sizes)
    seeds = np.arange(sum(sizes)) + np.repeat(first_seed, sizes)
    by_seed = np.argsort(seeds, kind="stable")
    seeds = seeds[by_seed]
    starts = np.flatnonzero(np.diff(seeds, prepend=seeds[0] - 1))
    return by_seed, np.append(starts, seeds.size), seeds[starts]


def _simulate_pool(params, jobs):
    """Advance every path of every job to exit or horizon in one pool.

    `jobs` lists `(control, x0, n_paths, base_seed)`; path i of a job is
    seeded `base_seed + i`.  Returns one dict per job, in path order: the
    discounted costs, the final states (an exited path keeps its first
    state outside the domain), whether each path exited and the step count
    it stopped at; and the largest push rate its paths saw.

    The paths that draw one seed form a group, whatever their jobs; a
    `verify` with one base seed makes path i of every entry one group.
    Every path starts at pool step 0, so step `it` is every live path's
    clock, `it dt`.  Each path keeps its own row of state: position, cost
    and largest rate.  The rows are kept in one block per control and in
    group order within a block, so each step calls a control's `act` once
    on a slice, and a jump finds its group's rows by bisection.  With one
    block `act` answers for every row; the answers of several blocks are
    written into the step's arrays.  The step charges the running cost h
    plus the returned effort, and pays each impulse of `control.pushes`
    along its segment.  Exited rows are dropped with one copy of the rows
    that stay, and the list of nonempty blocks is renewed.  Each group
    keeps a count of its live rows; an exit subtracts its rows from their
    groups' counts, and the groups that reach 0 leave the mask of live
    groups.  A jump of a group with no live row is skipped.

    Each group's generator is made before the first step.  It yields the
    group's jumps first and then its increments, which every member reads,
    so each path sees the stream of its own seed and no path's result
    depends on the others in the pool.  The groups the mask names refill
    their rows of normals together, `_NORMALS_BUDGET // (groups * d)` steps
    at a time (at least one).
    """
    d = params.domain.dim
    dt = params.dt
    q = params.q
    n_steps = int(np.ceil(params.t_max / dt))
    sqrt_dt = np.sqrt(dt)

    # each distinct control owns one block of rows
    controls, impulses, job_ctrl = [], [], []
    x0s = np.empty((len(jobs), d))
    for j, (control, x0, n_paths, _) in enumerate(jobs):
        if n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        x0 = np.asarray(x0, dtype=float)
        if not params.domain.contains(x0):
            raise StartOutsideDomain(f"x0={x0} is not inside the domain")
        x0s[j] = x0
        c = next((i for i, known in enumerate(controls) if known is control),
                 len(controls))
        if c == len(controls):
            controls.append(control)
            impulses += [(c, t_p, np.asarray(n_p, dtype=float), dz)
                         for t_p, n_p, dz
                         in sorted(control.pushes, key=lambda p: p[0])]
        job_ctrl.append(c)
    if not jobs:
        return []

    by_seed, starts, group_seed = _seed_groups(jobs)
    offsets = [0, *accumulate(job[2] for job in jobs)]
    n_total = offsets[-1]
    n_groups = group_seed.size

    # each path's group, job and control, in seed order
    group = np.repeat(np.arange(n_groups), np.diff(starts))
    job = np.searchsorted(offsets, by_seed, side="right") - 1
    ctrl = np.array(job_ctrl)[job]

    # each group's generator and jumps; due maps a step to (group, size)
    rngs = []
    due = {}
    for g, seed in enumerate(group_seed.tolist()):
        rng = np.random.default_rng(seed)
        rngs.append(rng)
        jumps = () if params.levy is None else sample_jumps(
            params.levy, params.jump_truncation, params.t_max, rng)
        if jumps and impulses:
            cs = set(ctrl[starts[g]:starts[g + 1]].tolist())
            pushed = {t_p for c, t_p, _, _ in impulses if c in cs}
            for t_j, _ in jumps:
                if t_j in pushed:
                    raise PushOutsideAdmissible(
                        f"push requested at jump time t={t_j}")
        for t_j, z in jumps:
            # a jump in (k dt, (k+1) dt] lands at the end of step k
            step = max(min(int(np.ceil(t_j / dt)) - 1, n_steps - 1), 0)
            due.setdefault(step, []).append((g, z))

    # live rows in control blocks (`bounds`), by group within a block:
    # group, path, state, discounted cost and largest rate
    order = np.lexsort((group, ctrl))
    group, path, job, ctrl = (arr[order] for arr in
                              (group, by_seed, job, ctrl))
    bounds = np.searchsorted(ctrl, np.arange(len(controls) + 1))
    x = x0s[job]
    cost = np.zeros(n_total)
    rmax = np.zeros(n_total)

    # outputs of every path p
    cost_out = np.zeros(n_total)
    final_out = np.empty((n_total, d))
    rate_out = np.zeros(n_total)
    exited_out = np.zeros(n_total, dtype=bool)
    steps_out = np.zeros(n_total, dtype=int)

    # the discount at each step, exp(-q t) with t = k dt
    disc = np.exp(-q * (np.arange(n_steps) * dt))
    chunk = min(max(_NORMALS_BUDGET // (n_groups * d), 1), n_steps)
    normals = _mapped_empty((n_groups, chunk, d))
    # the nonempty blocks, dropped when rows leave; each group's live rows
    # and whether it has any
    blocks = None
    left = np.diff(starts)
    live = left > 0

    for it in range(n_steps):
        col = it % chunk
        if blocks is None:
            blocks = [(control, a, b) for control, a, b
                      in zip(controls, bounds[:-1], bounds[1:]) if b > a]
        if col == 0:
            # only the groups with live rows draw
            for g in np.flatnonzero(live).tolist():
                rngs[g].standard_normal(out=normals[g])
        t = it * dt

        # running cost plus control effort at the left endpoint, one `act`
        # call on each control's block; the answers of several blocks are
        # written into the step's arrays
        if len(blocks) == 1:
            rate, n_dir, effort = blocks[0][0].act(x, t, params.g_cost)
        else:
            rate = np.empty(path.size)
            n_dir = np.empty((path.size, d))
            effort = np.empty(path.size)
            for control, a, b in blocks:
                rate[a:b], n_dir[a:b], effort[a:b] = control.act(
                    x[a:b], t, params.g_cost)
        np.maximum(rmax, rate, out=rmax)
        run = np.asarray(params.h_cost(x), dtype=float) + effort
        run *= disc[it]
        run *= dt
        cost += run

        # Euler step: drift (including the control push) plus diffusion,
        # both read before x moves in place
        push = np.multiply(n_dir, np.reshape(rate, (-1, 1)),
                           out=np.empty_like(x))
        push += params.drift(x)
        push *= dt
        sig = np.asarray(params.sigma(x), dtype=float)
        noise = np.einsum("nij,nj->ni", sig, normals[group, col])
        noise *= sqrt_dt
        x -= push
        x += noise

        # jumps scheduled in (t, t+dt], applied at step end as own events;
        # those of groups with no live row are skipped
        for g, z in due.pop(it, ()):
            if not live[g]:
                continue
            for _, a, b in blocks:
                lo, hi = a + np.searchsorted(group[a:b], (g, g + 1))
                x[lo:hi] += z

        # impulses scheduled in this step (never at a jump time)
        for c, t_push, n_push, dz in impulses:
            a, b = bounds[c], bounds[c + 1]
            if b == a or not t < t_push <= (it + 1) * dt:
                continue
            xa = x[a:b]
            seg = xa[:, None, :] \
                - _GL01_NODES[None, :, None] * (dz * n_push)[None, None, :]
            g_seg = np.asarray(
                params.g_cost(seg.reshape(-1, d)), dtype=float
            ).reshape(xa.shape[0], -1)
            line = g_seg @ _GL01_WEIGHTS
            cost[a:b] += np.exp(-q * t_push) * dz * line
            xa -= dz * n_push[None, :]

        inside = params.domain.contains_batch(x)
        if it + 1 < n_steps and inside.all():
            continue
        # every path still live after the last step reaches the horizon
        done = np.flatnonzero(~inside | (it + 1 == n_steps))
        p = path[done]
        cost_out[p] = cost[done]
        final_out[p] = x.take(done, axis=0)
        rate_out[p] = rmax[done]
        exited_out[p] = ~inside[done]
        steps_out[p] = it + 1
        gone = group[done]
        np.subtract.at(left, gone, 1)
        live[gone] = left[gone] > 0
        # take, not a mask: it copies the rows of x several times faster
        kept = np.flatnonzero(inside)
        bounds = bounds - np.searchsorted(done, bounds)
        group, path, x, cost, rmax = (arr.take(kept, axis=0) for arr in
                                      (group, path, x, cost, rmax))
        if not path.size:
            break
        blocks = None

    return [{
        "cost": cost_out[lo:hi].copy(),
        "final": final_out[lo:hi].copy(),
        "exited": exited_out[lo:hi].copy(),
        "steps": steps_out[lo:hi].copy(),
        "max_rate": float(np.max(rate_out[lo:hi])),
    } for lo, hi in zip(offsets[:-1], offsets[1:])]


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

import dataclasses
import json
import mmap
import weakref

import numpy as np
import pytest

from conftest import CONFIGS
from gradcap.config import build_spec
from gradcap.errors import PushOutsideAdmissible, StartOutsideDomain
from gradcap.geometry import (Ball, Box, SolutionField, build_grid,
                              interp_weights)
from gradcap.levy import (BVDensity, CompoundPoisson,
                          bounded_variation_error_bound, build_quadrature,
                          constant_density)
from gradcap.nidd import SolverOptions, solve_nidd
from gradcap.operators import (Coefficients, _vectorize_scalar,
                               build_node_gradient_ops, interior_gradient)
from gradcap.penalty import PenaltyFn
from gradcap.problem import Problem
from gradcap import control as ctl

BIG = Box(lo=(-100,), hi=(100,))


def flat_params(**kw):
    base = dict(domain=BIG,
                drift=lambda X: np.zeros_like(X),
                sigma=lambda X: np.zeros((np.atleast_2d(X).shape[0], 1, 1)),
                q=1.0,
                h_cost=lambda X: np.ones(np.atleast_2d(X).shape[0]),
                g_cost=lambda X: np.ones(np.atleast_2d(X).shape[0]),
                levy=None, dt=1e-3)
    base.update(kw)
    return ctl.SdeParams(**base)


def null(dim=1):
    """The control that never pushes: a zero rate along any direction."""
    return ctl.SingularControlSpec(n=(1.0,) * dim)


def estimate(params, control, x0, n_paths, seed):
    return ctl.estimate_jobs(params, [(control, x0, n_paths, seed)])[0]


def test_deterministic_drift_exit_time():
    par = flat_params(domain=Box(lo=(-1,), hi=(1,)),
                      drift=lambda X: np.full_like(X, 0.5), t_max=5.0)
    p = ctl._simulate_pool(par, [(null(), np.array([0.2]), 1, 1)])[0]
    # dX = -0.5 dt from 0.2 crosses -1 at t = 2.4
    assert p["exited"][0]
    assert abs(p["steps"][0] * par.dt - 2.4) <= par.dt + 1e-12


def test_constant_rate_shifts_crossing():
    par = flat_params(domain=Box(lo=(-1,), hi=(1,)),
                      drift=lambda X: np.full_like(X, 0.5), t_max=5.0)
    p = ctl._simulate_pool(par, [(ctl.ConstantRate(n=(1.0,), rate=0.5,
                                                   eps=0.5),
                                  np.array([0.2]), 1, 1)])[0]
    assert p["exited"][0]
    assert abs(p["steps"][0] * par.dt - 1.2) <= par.dt + 1e-12


def test_path_reaching_the_horizon():
    # no drift and no noise: the path stays at x0 and pays h = 1 until
    # t_max, which is no multiple of dt, so it differs from the last k dt
    par = flat_params(t_max=1.9995)
    p = ctl._simulate_pool(par, [(null(), np.array([0.0]), 1, 1)])[0]
    assert not p["exited"][0]
    n = int(np.ceil(par.t_max / par.dt))
    assert p["steps"][0] == n
    oracle = par.dt * np.sum(np.exp(-par.q * par.dt * np.arange(n)))
    assert p["cost"][0] == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_discounted_integral_oracle():
    par = flat_params()
    est = estimate(par, null(), np.array([0.0]), 32, 0)
    oracle = (1.0 - np.exp(-14.0)) / 1.0
    assert abs(est.mean - oracle) <= 2 * par.dt * 1.0  # left-endpoint bias
    assert est.stderr == 0.0  # deterministic dynamics


def test_estimate_rejects_no_paths():
    for n_paths in (0, -3):
        with pytest.raises(ValueError, match="n_paths"):
            estimate(flat_params(), null(), np.array([0.0]), n_paths, 0)


def test_zero_running_cost_is_exactly_zero():
    par = flat_params(h_cost=lambda X: np.zeros(np.atleast_2d(X).shape[0]))
    est = estimate(par, null(), np.array([0.0]), 8, 0)
    assert est.mean == 0.0


def test_jump_mean_compensation():
    # atom (0.5, mass 2) has jump mean 1; drift 1 (dX = -drift dt + dZ)
    # cancels it, so E[X_T] stays at x0
    cp = CompoundPoisson(atoms=(((0.5,), 2.0),))
    par = flat_params(levy=cp, jump_truncation=0.01, t_max=2.0,
                      drift=lambda X: np.ones_like(X),
                      h_cost=lambda X: np.zeros(np.atleast_2d(X).shape[0]))
    finals = ctl._simulate_pool(par, [(null(), np.array([0.0]),
                                       400, 0)])[0]["final"][:, 0]
    assert abs(np.mean(finals)) <= 4 * np.std(finals) / np.sqrt(len(finals))


def test_push_cost_exact_discount():
    spec = ctl.SingularControlSpec(n=(1.0,), rate=0.0,
                                   pushes=((0.5, (1.0,), 0.25),))
    par = flat_params(h_cost=lambda X: np.zeros(np.atleast_2d(X).shape[0]),
                      t_max=1.0)
    est = estimate(par, spec, np.array([0.0]), 4, 0)
    assert est.mean == pytest.approx(np.exp(-0.5) * 0.25, abs=1e-14)


def test_push_line_integral_matches_closed_form():
    # g(x) = |x| along the segment [0.5, 0.8] has no kink: exact quadrature
    spec = ctl.SingularControlSpec(n=(1.0,), rate=0.0,
                                   pushes=((0.5, (1.0,), 0.3),))
    par = flat_params(h_cost=lambda X: np.zeros(np.atleast_2d(X).shape[0]),
                      g_cost=lambda X: np.abs(np.atleast_2d(X)[:, 0]),
                      t_max=1.0)
    est = estimate(par, spec, np.array([0.8]), 2, 0)
    oracle = np.exp(-0.5) * 0.3 * 0.65  # int_0^1 |0.8 - 0.3 l| dl = 0.65
    assert abs(est.mean - oracle) <= 1e-10


def test_push_at_jump_time_rejected():
    cp = CompoundPoisson(atoms=(((0.5,), 2.0),))
    par = flat_params(levy=cp, jump_truncation=0.01, t_max=2.0)
    from gradcap.levy import sample_jumps
    probe = np.random.default_rng(9)
    jumps = sample_jumps(cp, 0.01, 2.0, probe)
    assert jumps, "seed must produce at least one jump"
    t_jump = jumps[0][0]
    spec = ctl.SingularControlSpec(n=(1.0,), rate=0.0,
                                   pushes=((t_jump, (1.0,), 0.1),))
    with pytest.raises(PushOutsideAdmissible):
        estimate(par, spec, np.array([0.0]), 1, 9)
    # pooled behind a job without pushes that draws the same seed, the
    # impulse control's path shares that job's jump draw and is checked too
    with pytest.raises(PushOutsideAdmissible):
        ctl.estimate_jobs(par, [(null(), np.array([0.0]), 1, 9),
                                (spec, np.array([0.5]), 1, 9)])


def test_start_outside_domain():
    par = flat_params(domain=Box(lo=(-1,), hi=(1,)))
    with pytest.raises(StartOutsideDomain):
        ctl._simulate_pool(par, [(null(), np.array([1.5]), 1, 0)])


def test_seed_determinism():
    par = flat_params(sigma=lambda X: np.full(
        (np.atleast_2d(X).shape[0], 1, 1), 0.5),
        domain=Box(lo=(-2,), hi=(2,)), t_max=3.0)
    a = estimate(par, null(), np.array([0.0]), 64, 123)
    b = estimate(par, null(), np.array([0.0]), 64, 123)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_dt_refinement_first_order_on_deterministic_case():
    base = dict(domain=Box(lo=(-1,), hi=(1,)),
                drift=lambda X: np.full_like(X, 0.4),
                sigma=lambda X: np.zeros((np.atleast_2d(X).shape[0], 1, 1)),
                q=1.0,
                h_cost=lambda X: np.ones(np.atleast_2d(X).shape[0]),
                g_cost=lambda X: np.ones(np.atleast_2d(X).shape[0]),
                levy=None, t_max=8.0)
    means = {}
    for dt in (2e-3, 1e-3):
        par = ctl.SdeParams(dt=dt, **base)
        means[dt] = estimate(par, null(), np.array([0.0]), 1, 0).mean
    assert abs(means[2e-3] - means[1e-3]) <= 3.0 * 1e-3


def make_control_problem():
    grid = build_grid(Box(lo=(-1,), hi=(1,)), 1 / 128)
    cp = CompoundPoisson(atoms=(((-0.5,), 0.4),))
    quad = build_quadrature(cp, 1e-3)
    co = Coefficients(
        a=lambda X: np.full((np.atleast_2d(X).shape[0], 1, 1), 0.1),
        b=lambda X: np.zeros((np.atleast_2d(X).shape[0], 1)),
        c=_vectorize_scalar(lambda X: 2.0),
        h=lambda X: 2.5 * np.exp(-8.0 * np.atleast_2d(X)[:, 0] ** 2),
        g=_vectorize_scalar(lambda X: 0.5))
    return Problem(grid, co, constant_density(1.0), quad)


def test_sde_from_problem_requires_constant_c_and_unit_s():
    prob = make_control_problem()
    params = ctl.sde_from_problem(prob)
    # the discount is c, and the horizon defaults to 14 / q
    assert (params.q, params.t_max) == (2.0, 7.0)
    with pytest.raises(ValueError, match="q=1.0 differs"):
        ctl.sde_from_problem(prob, 1.0)
    c_var = dataclasses.replace(prob.coeffs, c=lambda X: (
        2.0 + 0.01 * np.atleast_2d(X)[:, 0]))
    with pytest.raises(ValueError, match="constant c"):
        ctl.sde_from_problem(Problem(prob.grid, c_var, prob.s, prob.quad))
    prob_bad = Problem(prob.grid, prob.coeffs, constant_density(0.5),
                       prob.quad)
    with pytest.raises(ValueError):
        ctl.sde_from_problem(prob_bad)
    # sigma is factored once, so a must not vary between nodes
    a_var = dataclasses.replace(prob.coeffs, a=lambda X: (
        0.1 + 0.01 * np.atleast_2d(X)[:, 0])[:, None, None])
    prob_bad = Problem(prob.grid, a_var, prob.s, prob.quad)
    with pytest.raises(ValueError, match="constant a"):
        ctl.sde_from_problem(prob_bad)


def test_sde_from_problem_takes_jumps_from_the_quadrature():
    prob = make_control_problem()
    params = ctl.sde_from_problem(prob)
    assert params.levy is prob.quad.levy
    assert params.jump_truncation == prob.quad.small_jump_cutoff == 1e-3
    # restating the problem's values is allowed; differing from them is not
    same = ctl.sde_from_problem(prob, 2.0, levy=prob.quad.levy,
                                jump_truncation=1e-3)
    assert (same.q, same.levy, same.jump_truncation) == \
        (params.q, params.levy, params.jump_truncation)
    other = CompoundPoisson(atoms=(((0.5,), 0.4),))
    for kw in (dict(levy=other), dict(jump_truncation=1e-2)):
        with pytest.raises(ValueError, match="differs from the problem"):
            ctl.sde_from_problem(prob, **kw)


def test_sde_params_horizon_defaults_to_14_over_q():
    assert flat_params(q=2.0).t_max == 7.0
    assert flat_params(q=2.0, t_max=None).t_max == 7.0
    assert flat_params().t_max == 14.0


def make_control_problem_2d():
    grid = build_grid(Ball(center=(0.0, 0.0), radius=1.0), 1 / 64)
    cp = CompoundPoisson(atoms=(((0.25, -0.2), 0.5),))
    quad = build_quadrature(cp, 1e-3)
    co = Coefficients(
        a=lambda X: np.broadcast_to(
            0.15 * np.eye(2), (np.atleast_2d(X).shape[0], 2, 2)).copy(),
        b=lambda X: np.broadcast_to(
            np.array([0.1, -0.05]), (np.atleast_2d(X).shape[0], 2)).copy(),
        c=_vectorize_scalar(lambda X: 1.5),
        h=lambda X: 3.0 * np.exp(
            -6.0 * np.sum(np.atleast_2d(X) ** 2, axis=1)),
        g=_vectorize_scalar(lambda X: 0.6))
    return Problem(grid, co, constant_density(1.0), quad)


def test_sde_from_problem_checks_s_at_every_quadrature_node():
    # s dips to 0.5 only near z = -0.5, the config's one jump atom
    cfg = json.loads((CONFIGS / "example_1d_control.json").read_text())
    cfg["jump_density"] = {"type": "expr",
                           "body": "1 - 0.5*exp(-10000*(z+0.5)**2)"}
    spec = build_spec(cfg)
    with pytest.raises(ValueError, match="identically 1"):
        ctl.sde_from_problem(spec.problem)


def test_penalized_policy_regions():
    prob = make_control_problem()
    rep = solve_nidd(prob, 0.1, SolverOptions())
    policy = ctl.PenalizedFeedback(rep.solution, 0.1, prob.coeffs.g)
    grid = prob.grid
    rate, n, _ = policy.act(grid.interior_points(), 0.0, prob.coeffs.g)
    grad = interior_gradient(grid, prob.grad_ops(),
                             rep.solution.interior_vector())
    norm = np.abs(grad[:, 0])
    inactive = norm**2 <= 0.25
    assert np.allclose(rate[inactive], 0.0, atol=1e-12)
    strong = norm**2 - 0.25 >= 2 * 0.1
    assert np.allclose(rate[strong], (2 / 0.1) * norm[strong], rtol=1e-9)
    assert np.allclose(np.abs(n[:, 0]), 1.0)
    # admissibility: observed rate stays under (2/eps) * grad_sup
    assert rate.max() <= (2 / 0.1) * rep.grad_sup + 1e-9


def _stencil_probes(grid, rng):
    """Points of the lattice hull that stress the stencil: random points,
    every lattice node, points on cell edges (one coordinate on a lattice
    line), and points within h of each bound of the hull, including the
    bound itself and one ulp inside it, where the clamp applies."""
    lo, hi = grid.domain.bounding_box()
    d, h = grid.dim, grid.h
    probes = [rng.uniform(lo, hi, size=(2000, d)), grid.points()]
    edges = rng.uniform(lo, hi, size=(400, d))
    for k in range(d):
        edges[k::d, k] = rng.choice(grid.axes[k], size=edges[k::d].shape[0])
    probes.append(edges)
    for k in range(d):
        for bound, inward in ((lo[k], 1.0), (hi[k], -1.0)):
            near = rng.uniform(lo, hi, size=(50, d))
            near[:, k] = bound + inward * rng.uniform(0.0, h, size=50)
            near[:2, k] = bound, np.nextafter(bound, bound + inward)
            probes.append(near)
    return np.vstack(probes)


def _table_values(policy, pts):
    """The table rows at pts by the node-major formula: a fancy-index
    gather of each stencil's nodes and a sum over the stencil axis."""
    cols, wts = interp_weights(policy.grid, pts)
    return np.sum(policy.table.T[cols] * wts[:, :, None], axis=1)


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("make", [make_control_problem,
                                  make_control_problem_2d])
def test_penalized_feedback_act_is_one_table_interpolation(make):
    prob = make()
    grid = prob.grid
    d = grid.dim
    X = grid.interior_points()
    r2 = np.sum(X**2, axis=1)
    u = SolutionField.from_interior_vector(grid, 2.0 * (1.0 - r2))
    policy = ctl.PenalizedFeedback(u, 0.1, prob.coeffs.g)
    pts = _stencil_probes(grid, np.random.default_rng(4))
    rate, n, effort = policy.act(pts, 0.0, prob.coeffs.g)
    # the oracle: the gradient's np.linalg.norm, and its direction written
    # where that norm is positive, e_1 elsewhere
    vals = _table_values(policy, pts)
    grad = vals[:, :d]
    norm = np.linalg.norm(grad, axis=1)
    n_ref = np.zeros_like(grad)
    n_ref[:, 0] = 1.0
    nz = norm > 0
    n_ref[nz] = grad[nz] / norm[nz, None]
    assert not nz.all()  # the lattice node at the origin has no gradient
    assert _bits(n) == _bits(n_ref)
    assert _bits(rate) == _bits(np.maximum(vals[:, d], 0.0))
    assert _bits(effort) == _bits(np.maximum(vals[:, d + 1], 0.0))
    assert rate.max() > 0 and effort.max() > 0  # the push is active
    # the zero-extended field evaluation shares the stencil: inside the
    # domain it is the same formula, outside it is 0
    inside = grid.domain.contains_batch(pts)
    for row, ref in zip(policy.table, vals.T):
        out = SolutionField(grid, row.reshape(grid.shape)).values_extended(pts)
        assert _bits(out) == _bits(np.where(inside, ref, 0.0))


@pytest.mark.parametrize("make", [make_control_problem,
                                  make_control_problem_2d])
def test_penalized_feedback_table_reads_the_scheme_gradient(make):
    prob = make()
    grid = prob.grid
    d = grid.dim
    rng = np.random.default_rng(5)
    u = rng.standard_normal(grid.n_interior)
    policy = ctl.PenalizedFeedback(SolutionField.from_interior_vector(grid, u),
                                   0.1, prob.coeffs.g)
    node = np.vstack([G @ u for G in build_node_gradient_ops(grid)])
    assert _bits(policy.table[:d]) == _bits(node)
    # at interior nodes, the gradient the solver reads
    scheme = interior_gradient(grid, prob.grad_ops(), u)
    assert _bits(policy.table[:d, grid.interior_flat].T) == _bits(scheme)


def _feedback_1d(prob):
    x = prob.grid.interior_points()[:, 0]
    # the push binds only where |u'| = 0.6 |x| exceeds g = 0.5
    u = SolutionField.from_interior_vector(prob.grid, 0.3 * (1.0 - x**2))
    return ctl.PenalizedFeedback(u, 0.1, prob.coeffs.g)


def _pushes_2d(prob):
    return ctl.SingularControlSpec(n=(0.0, -1.0), rate=0.2,
                                   pushes=((0.5, (1.0, 1.0), 0.1),))


def test_pool_calls_each_sde_callable_once_per_step_on_the_live_rows():
    # two controls share the pool; h, drift and sigma each see every live
    # row once per pool step, so the rows h sees count the path steps
    prob = make_control_problem()
    params = ctl.sde_from_problem(prob, t_max=2.0)
    rows = {"h_cost": [], "drift": [], "sigma": []}
    for name, seen in rows.items():
        def counted(X, fn=getattr(params, name), seen=seen):
            seen.append(X.shape[0])
            return fn(X)
        setattr(params, name, counted)
    jobs = [(_feedback_1d(prob), np.array([0.3]), 30, 5),
            (ctl.SingularControlSpec(n=(1.0,), rate=0.2), np.array([-0.2]),
             20, 50)]
    outs = ctl._simulate_pool(params, jobs)
    steps = sum(int(out["steps"].sum()) for out in outs)
    assert rows["h_cost"] == rows["drift"] == rows["sigma"]
    assert sum(rows["h_cost"]) == steps
    # a pool step runs on at least one live row and at most one per path
    assert 1 <= min(rows["h_cost"]) and max(rows["h_cost"]) <= 50
    assert len(rows["h_cost"]) >= max(int(out["steps"].max())
                                      for out in outs)


@pytest.mark.parametrize("make, q, control, x0", [
    (make_control_problem, 2.0, _feedback_1d, (0.3,)),
    (make_control_problem_2d, 1.5, _pushes_2d, (0.2, -0.1))])
def test_estimate_does_not_depend_on_batching(monkeypatch, make, q, control,
                                              x0):
    prob = make()
    params = ctl.sde_from_problem(prob, t_max=3.0)
    assert params.q == q
    ctrl = control(prob)

    def run():
        return estimate(params, ctrl, np.array(x0), 50, 17)

    full = run()
    # the normals of 50 groups are refilled every 81 (1D) or 40 (2D)
    # steps; by default one fill covers the horizon
    monkeypatch.setattr(ctl, "_NORMALS_BUDGET", 2**12)
    split = run()
    assert full.max_rate_observed > 0
    assert (split.mean, split.stderr, split.max_rate_observed) == \
        (full.mean, full.stderr, full.max_rate_observed)


def _four_controls_2d():
    """Null, constant-rate, callable-rate and impulse controls, and two
    start points in the unit ball."""
    controls = [
        null(2),
        ctl.ConstantRate(n=(1.0, 0.0), rate=0.3, eps=0.1),
        ctl.SingularControlSpec(n=(0.0, 1.0),
                                rate=lambda t: 0.4 if t < 0.25 else 0.1),
        ctl.SingularControlSpec(n=(0.0, -1.0), rate=0.2,
                                pushes=((0.3, (1.0, 1.0), 0.1),)),
    ]
    return controls, [np.array([0.2, -0.1]), np.array([-0.3, 0.4])]


def test_pooled_jobs_equal_separate_estimates(monkeypatch):
    # four kinds of control at two start points, with compound-Poisson
    # jumps; the normals of 96 groups are refilled every 21 steps
    prob = make_control_problem_2d()
    params = ctl.sde_from_problem(prob, t_max=1.5)
    controls, x0s = _four_controls_2d()
    jobs = [(c, x0, 12, 40 + 12 * i) for i, c in enumerate(controls)
            for x0 in x0s]
    alone = [estimate(params, c, x0, n, seed)
             for c, x0, n, seed in jobs]
    monkeypatch.setattr(ctl, "_NORMALS_BUDGET", 2**12)
    pooled = ctl.estimate_jobs(params, jobs)
    assert all(est.max_rate_observed > 0 for est in alone[2:])
    assert len({est.mean for est in alone}) == len(jobs)
    for a, b in zip(alone, pooled, strict=True):
        assert (b.mean, b.stderr, b.max_rate_observed, b.n_paths, b.seed) \
            == (a.mean, a.stderr, a.max_rate_observed, a.n_paths, a.seed)
    assert ctl.estimate_jobs(params, []) == []


def test_shared_seed_jobs_equal_separate_estimates(monkeypatch):
    # four kinds of control at two start points, all from one base seed as
    # `verify` seeds them: path i of every job draws seed 40 + i, so each
    # seed is a group of 8 paths; the normals of 24 groups are refilled
    # every 85 steps, with compound-Poisson jumps
    prob = make_control_problem_2d()
    params = ctl.sde_from_problem(prob, t_max=1.5)
    controls, x0s = _four_controls_2d()
    jobs = [(c, x0, 24, 40) for c in controls for x0 in x0s]
    alone = [estimate(params, *job) for job in jobs]
    monkeypatch.setattr(ctl, "_NORMALS_BUDGET", 2**12)
    pooled = ctl.estimate_jobs(params, jobs)
    assert all(est.max_rate_observed > 0 for est in alone[2:])
    assert len({est.mean for est in alone}) == len(jobs)
    for a, b in zip(alone, pooled, strict=True):
        assert (b.mean, b.stderr, b.max_rate_observed, b.n_paths, b.seed) \
            == (a.mean, a.stderr, a.max_rate_observed, a.n_paths, a.seed)


def test_bv_density_jobs_equal_separate_estimates(monkeypatch):
    # a bounded-variation measure on two rays, truncated at delta = 0.01
    # (36 jumps per unit time), normals refilled every 2 steps: the pooled
    # estimates are the separate ones, and each carries the bias bound of
    # the small jumps dropped
    lev = BVDensity(kappa=1.0, alpha=0.5, lambda_temper=0.0, z_min=1e-6,
                    z_max=1.0, rays=((1.0,), (-1.0,)))
    par = flat_params(domain=Box(lo=(-1,), hi=(1,)), levy=lev,
                      jump_truncation=0.01, t_max=1.0, dt=1e-2,
                      sigma=lambda X: np.full((1, 1, 1), 0.3))
    jobs = [(null(), np.array([0.0]), 12, 5),
            (ctl.SingularControlSpec(n=(1.0,), rate=0.5),
             np.array([0.4]), 12, 17)]
    alone = [estimate(par, *job) for job in jobs]
    monkeypatch.setattr(ctl, "_NORMALS_BUDGET", 2**6)
    pooled = ctl.estimate_jobs(par, jobs)
    assert alone[0].mean != alone[1].mean
    bias = bounded_variation_error_bound(lev, 0.01, 1.0)
    assert bias > 0
    for a, b in zip(alone, pooled, strict=True):
        assert (b.mean, b.stderr, b.max_rate_observed, b.n_paths, b.seed) \
            == (a.mean, a.stderr, a.max_rate_observed, a.n_paths, a.seed)
        assert a.discarded_bias_bound == b.discarded_bias_bound == bias


def test_rows_leaving_two_blocks_at_one_step(monkeypatch):
    # with no noise every path from x0 = 0.9 exits at one step: seeds 8-11
    # leave block 0 from between the rows of seeds 4-7 and 16-23, and
    # seeds 0-3 leave block 1 ahead of seeds 12-15; normals are refilled
    # every 170 steps
    par = flat_params(domain=Box(lo=(-1,), hi=(1,)),
                      drift=lambda X: -np.ones_like(X), t_max=2.5)
    # two distinct controls, so two blocks
    first, second = null(), null()
    jobs = [(first, np.array([0.9]), 4, 8), (second, np.array([0.9]), 4, 0),
            (first, np.array([-0.9]), 4, 4),
            (second, np.array([-0.9]), 4, 12),
            (first, np.array([0.0]), 8, 16)]
    alone = [ctl._simulate_pool(par, [job])[0] for job in jobs]
    monkeypatch.setattr(ctl, "_NORMALS_BUDGET", 2**12)
    pooled = ctl._simulate_pool(par, jobs)
    for a, b in zip(alone, pooled, strict=True):
        for key in ("cost", "final", "exited", "steps"):
            assert np.array_equal(a[key], b[key])
    assert [int(out["steps"][0]) for out in pooled] == \
        [100, 100, 1900, 1900, 1000]


def test_singular_verify_makes_one_generator_per_seed(monkeypatch):
    # three controls share the base seed, so n paths need n generators
    prob = make_control_problem()
    params = ctl.sde_from_problem(prob, t_max=1.0)
    x = prob.grid.interior_points()[:, 0]
    fld = SolutionField.from_interior_vector(prob.grid, 0.3 * (1.0 - x**2))
    seeds = []
    default_rng = np.random.default_rng

    def counting(seed):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    controls = [null(), ctl.SingularControlSpec(n=(1.0,), rate=0.25),
                ctl.SingularControlSpec(n=(-1.0,), rate=0.25)]
    rep = ctl.verify_value_equality(prob, fld, "singular", [np.array([0.0])],
                                    30, 11, params=params, controls=controls)
    assert len(rep.entries) == 3
    assert sorted(seeds) == list(range(11, 41))


def test_every_path_runs_on_the_pool_clock(monkeypatch):
    # 40 paths that never exit, with normals refilled every 102 steps: the
    # pool takes one step per clock value, not one horizon per refill
    seeds = []
    default_rng = np.random.default_rng

    def counting(seed):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    monkeypatch.setattr(ctl, "_NORMALS_BUDGET", 2**12)
    par = flat_params(t_max=1.0)
    rows = []
    par.h_cost = lambda X: rows.append(X.shape[0]) or np.ones(X.shape[0])
    out, = ctl._simulate_pool(par, [(null(), np.array([0.0]), 40, 3)])
    assert sorted(seeds) == list(range(3, 43))
    assert len(rows) <= int(np.ceil(par.t_max / par.dt)) == 1000
    assert set(rows) == {40} and not out["exited"].any()
    assert np.all(out["steps"] == 1000)


def test_normals_buffer_is_unmapped_after_each_batch(monkeypatch):
    made = []

    def recording(shape):
        arr = mapped_empty(shape)
        base = arr.base
        while not isinstance(base, mmap.mmap):
            base = base.obj if isinstance(base, memoryview) else base.base
        made.append(weakref.ref(base))
        return arr

    mapped_empty = ctl._mapped_empty
    monkeypatch.setattr(ctl, "_mapped_empty", recording)
    # short refills for the 40 paths of one estimate, the 60 of two jobs
    # and one single-path pool: one mapping per pool
    monkeypatch.setattr(ctl, "_NORMALS_BUDGET", 2**12)
    par = flat_params(t_max=1.0)
    estimate(par, null(), np.array([0.0]), 40, 3)
    ctl.estimate_jobs(par, [(null(), np.array([0.0]), 40, 3),
                            (null(), np.array([0.5]), 20, 9)])
    ctl._simulate_pool(par, [(null(), np.array([0.0]), 1, 1)])
    assert len(made) == 3
    # every pool's mapping is gone once its pool returns
    assert all(ref() is None for ref in made)


@pytest.mark.parametrize("eps", [0.1, 0.01])
@pytest.mark.parametrize("make", [make_control_problem,
                                  make_control_problem_2d])
def test_feedback_price_is_the_conjugate_penalty(make, eps):
    # the price column, rate |Du| - psi(|Du|^2 - g^2), is the supremum the
    # golden section finds, in the off, blend and linear zones of psi
    prob = make()
    grid = prob.grid
    X = grid.interior_points()
    u = SolutionField.from_interior_vector(
        grid, 2.0 * (1.0 - np.sum(X**2, axis=1)))

    def g_fn(P):
        return 0.4 + 0.3 * P[:, 0] ** 2

    policy = ctl.PenalizedFeedback(u, eps, g_fn)
    d = grid.dim
    norm = np.linalg.norm(policy.table[:d], axis=0)
    g_nodes = g_fn(grid.points())
    arg = norm**2 - g_nodes**2
    assert np.any(arg <= 0) and np.any((arg > 0) & (arg < 2 * eps)) \
        and np.any(arg >= 2 * eps)
    rate, price = policy.table[d], policy.table[d + 1]
    ref = PenaltyFn(eps).legendre_batch(g_nodes, rate)
    assert np.all(np.abs(price - ref) <= 1e-12 * (1.0 + np.abs(price)))


def test_constant_rate_prices_each_distinct_g():
    # g takes a few values over 2D states; the effort is the per-state
    # conjugate penalty exactly, also when the next call meets a new set
    cr = ctl.ConstantRate(n=(1.0, 0.0), rate=0.7, eps=0.1)

    def g_fn(P):
        return 0.3 + 0.2 * np.round(4.0 * np.abs(P[:, 0])) / 4.0

    rng = np.random.default_rng(8)
    for radius in (1.0, 1.0, 0.4):
        X = rng.uniform(-radius, radius, size=(500, 2))
        rate, n, effort = cr.act(X, 0.0, g_fn)
        # the rate and direction are the same on every row: one number and
        # one (d,) vector, broadcast to the block by the caller
        assert np.shape(rate) == () and rate == 0.7
        assert n.shape == (2,) and np.array_equal(n, [1.0, 0.0])
        ref = PenaltyFn(0.1).legendre_batch(g_fn(X), rate)
        assert np.array_equal(effort, ref)


def test_constant_rate_with_constant_g_is_priced_once(monkeypatch):
    calls = []
    batch = PenaltyFn.legendre_batch

    def counting(self, g_arr, eta_arr):
        calls.append(np.size(g_arr))
        return batch(self, g_arr, eta_arr)

    monkeypatch.setattr(PenaltyFn, "legendre_batch", counting)
    par = flat_params(domain=Box(lo=(-1,), hi=(1,)),
                      sigma=lambda X: np.full((X.shape[0], 1, 1), 0.3),
                      t_max=0.5)
    est = estimate(
        par, ctl.ConstantRate(n=(1.0,), rate=0.5, eps=0.1),
        np.array([0.0]), 16, 3)
    assert est.n_paths == 16
    assert calls == [1]


def test_constant_rate_validates_at_construction():
    with pytest.raises(TypeError):
        ctl.ConstantRate(n=(1.0,), rate=0.3)  # eps is required
    for kw in (dict(n=(0.0,), rate=0.3, eps=0.1),
               dict(n=(1.0,), rate=-0.3, eps=0.1),
               dict(n=(1.0,), rate=0.3, eps=1.0)):
        with pytest.raises(ValueError):
            ctl.ConstantRate(**kw)


def test_penalized_value_equality_quick():
    prob = make_control_problem()
    rep = solve_nidd(prob, 0.1, SolverOptions())
    params = ctl.sde_from_problem(prob, dt=1e-3, t_max=7.0)
    out = ctl.verify_value_equality(
        prob, rep.solution, "penalized", [np.array([0.0])], 2000, 42,
        params=params, eps=0.1)
    assert out.all_pass
    assert out.entries[0]["max_rate_observed"] > 0  # feedback genuinely active


def test_suboptimality_direction_quick():
    prob = make_control_problem()
    rep = solve_nidd(prob, 0.05, SolverOptions())
    params = ctl.sde_from_problem(prob, dt=1e-3, t_max=7.0)
    controls = [ctl.SingularControlSpec(n=(1.0,), rate=0.0),
                ctl.SingularControlSpec(n=(1.0,), rate=0.3),
                ctl.SingularControlSpec(n=(-1.0,), rate=0.3)]
    out = ctl.verify_value_equality(
        prob, rep.solution, "singular", [np.array([0.0])], 1500, 7,
        params=params, controls=controls)
    assert out.all_pass


def test_time_varying_singular_rate():
    # sigma = 0, drift 0, h = 0: cost is int e^{-t} g rate(t) dt with g = 1
    par = flat_params(h_cost=lambda X: np.zeros(np.atleast_2d(X).shape[0]),
                      t_max=2.0)
    spec = ctl.SingularControlSpec(
        n=(1.0,), rate=lambda t: 0.3 if t < 1.0 else 0.0)
    est = estimate(par, spec, np.array([0.0]), 2, 0)
    oracle = 0.3 * (1.0 - np.exp(-1.0))
    assert abs(est.mean - oracle) <= 2 * par.dt * (0.3 + 1.0)


def test_callable_rate_is_called_once_per_clock():
    # 40 paths that exit at scattered steps share one clock per pool step,
    # and the rate is called once at each, with the clock k dt
    par = flat_params(sigma=lambda X: np.full(
        (np.atleast_2d(X).shape[0], 1, 1), 1.0),
        domain=Box(lo=(-0.2,), hi=(0.2,)), t_max=1.0)
    calls = []
    spec = ctl.SingularControlSpec(
        n=(1.0,), rate=lambda t: calls.append(t) or (0.3 if t < 0.02 else 0.0))
    out, = ctl._simulate_pool(par, [(spec, np.array([0.0]), 40, 0)])
    assert len(set(out["steps"].tolist())) > 1
    assert calls == [k * par.dt for k in range(int(out["steps"].max()))]


def test_singular_spec_validates_pushes():
    with pytest.raises(ValueError):
        ctl.SingularControlSpec(n=(1.0,), rate=0.0,
                                pushes=((0.5, (1.0,), -0.1),))
    with pytest.raises(ValueError):
        ctl.SingularControlSpec(n=(1.0,), rate=0.0,
                                pushes=((0.0, (1.0,), 0.1),))


def test_singular_spec_validates_rates_and_directions():
    for kw in (dict(rate=-0.1), dict(rate=float("nan")),
               dict(rate=float("inf")), dict(n=(0.0,)),
               dict(n=(0.0, 0.0), rate=0.2),
               dict(pushes=((0.5, (0.0,), 0.1),))):
        with pytest.raises(ValueError):
            ctl.SingularControlSpec(**kw)
    # a callable rate is checked at each clock it is evaluated at
    spec = ctl.SingularControlSpec(rate=lambda t: 0.2 - t)
    assert (spec.rate_at(0.0), spec.rate_at(0.1)) == (0.2, 0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        spec.rate_at(0.3)
    par = flat_params(t_max=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        estimate(par, spec, np.array([0.0]), 2, 0)


def test_singular_directions_are_unit_vectors():
    spec = ctl.SingularControlSpec(n=(3.0, 4.0), rate=0.2,
                                   pushes=((0.5, (0.0, -2.0), 0.1),))
    assert spec.n == (0.6, 0.8)
    assert spec.pushes == ((0.5, (0.0, -1.0), 0.1),)
    assert repr(ctl.SingularControlSpec(n=(-1.0,), rate=0.25)) == \
        "SingularControlSpec(n=(-1.0,), rate=0.25, pushes=())"
    # rate 0.3 along (1, 1) from the centre of the box [-1, 1]^2 reaches
    # the corner at t = sqrt(2) / 0.3, moving at speed 0.3, not 0.3 sqrt(2)
    par = flat_params(domain=Box(lo=(-1, -1), hi=(1, 1)),
                      sigma=lambda X: np.zeros((X.shape[0], 2, 2)))
    p = ctl._simulate_pool(par, [(ctl.SingularControlSpec(n=(1, 1), rate=0.3),
                                  np.zeros(2), 1, 0)])[0]
    assert p["exited"][0]
    assert abs(p["steps"][0] * par.dt - np.sqrt(2.0) / 0.3) <= par.dt + 1e-12
    prob = make_control_problem_2d()
    params = ctl.sde_from_problem(prob, t_max=1.0)
    x0 = np.array([0.2, -0.1])
    a, b = (estimate(params, ctl.SingularControlSpec(n=n, rate=0.3), x0, 40,
                     5) for n in ((1.0, 1.0), (2**-0.5, 2**-0.5)))
    assert (a.mean, a.stderr) == (b.mean, b.stderr)


def test_cost_estimates_nonnegative_for_nonnegative_data():
    par = flat_params(sigma=lambda X: np.full(
        (np.atleast_2d(X).shape[0], 1, 1), 0.7),
        domain=Box(lo=(-3,), hi=(3,)), t_max=4.0)
    est = estimate(par, null(), np.array([0.0]), 64, 3)
    assert est.mean >= 0.0
    spec = ctl.SingularControlSpec(n=(1.0,), rate=0.2,
                                   pushes=((0.7, (1.0,), 0.3),))
    est2 = estimate(par, spec, np.array([0.0]), 64, 3)
    assert est2.mean >= 0.0


def test_penalized_value_equality_2d():
    prob = make_control_problem_2d()
    rep = solve_nidd(prob, 0.1, SolverOptions())
    assert rep.grad_sup > 0.6  # feedback genuinely active somewhere
    params = ctl.sde_from_problem(prob, dt=1e-3, t_max=9.0)
    out = ctl.verify_value_equality(
        prob, rep.solution, "penalized",
        [np.array([0.0, 0.0]), np.array([0.3, -0.2])], 3000, 42,
        params=params, eps=0.1)
    assert out.all_pass, out.entries


def test_singular_dominance_2d():
    prob = make_control_problem_2d()
    rep = solve_nidd(prob, 0.1, SolverOptions())
    params = ctl.sde_from_problem(prob, dt=1e-3, t_max=9.0)
    controls = [ctl.SingularControlSpec(n=(1.0, 0.0), rate=0.2),
                ctl.SingularControlSpec(n=(0.0, -1.0), rate=0.2)]
    out = ctl.verify_value_equality(
        prob, rep.solution, "singular", [np.array([0.0, 0.0])], 1500, 7,
        params=params, controls=controls)
    assert out.all_pass, out.entries

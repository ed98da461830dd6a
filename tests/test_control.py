import dataclasses
import json
import mmap
import weakref

import numpy as np
import pytest

from conftest import CONFIGS
from gradcap.config import build_spec
from gradcap.errors import PushOutsideAdmissible, StartOutsideDomain
from gradcap.geometry import Ball, Box, SolutionField, build_grid
from gradcap.levy import CompoundPoisson, build_quadrature, constant_density
from gradcap.nidd import SolverOptions, solve_nidd
from gradcap.operators import Coefficients, _vectorize_scalar
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
                levy=None, t_max=14.0, dt=1e-3)
    base.update(kw)
    return ctl.SdeParams(**base)


def test_deterministic_drift_exit_time():
    par = flat_params(domain=Box(lo=(-1,), hi=(1,)),
                      drift=lambda X: np.full_like(X, 0.5), t_max=5.0)
    p = ctl.simulate_path(par, ctl.NullControl(), np.array([0.2]), 1)
    # dX = -0.5 dt from 0.2 crosses -1 at t = 2.4
    assert p.exited
    assert abs(p.exit_time - 2.4) <= par.dt + 1e-12


def test_constant_rate_shifts_crossing():
    par = flat_params(domain=Box(lo=(-1,), hi=(1,)),
                      drift=lambda X: np.full_like(X, 0.5), t_max=5.0)
    p = ctl.simulate_path(par, ctl.ConstantRate(n=(1.0,), rate=0.5, eps=0.5),
                          np.array([0.2]), 1)
    assert abs(p.exit_time - 1.2) <= par.dt + 1e-12


def test_discounted_integral_oracle():
    par = flat_params()
    est = ctl.estimate_penalized_value(par, ctl.NullControl(),
                                       np.array([0.0]), 32, 0)
    oracle = (1.0 - np.exp(-14.0)) / 1.0
    assert abs(est.mean - oracle) <= 2 * par.dt * 1.0  # left-endpoint bias
    assert est.stderr == 0.0  # deterministic dynamics


def test_estimate_rejects_no_paths():
    for n_paths in (0, -3):
        with pytest.raises(ValueError, match="n_paths"):
            ctl.estimate_penalized_value(flat_params(), ctl.NullControl(),
                                         np.array([0.0]), n_paths, 0)


def test_zero_running_cost_is_exactly_zero():
    par = flat_params(h_cost=lambda X: np.zeros(np.atleast_2d(X).shape[0]))
    est = ctl.estimate_penalized_value(par, ctl.NullControl(),
                                       np.array([0.0]), 8, 0)
    assert est.mean == 0.0


def test_jump_mean_compensation():
    # atom (0.5, mass 2) has jump mean 1; drift 1 (dX = -drift dt + dZ)
    # cancels it, so E[X_T] stays at x0
    cp = CompoundPoisson(atoms=(((0.5,), 2.0),))
    par = flat_params(levy=cp, jump_truncation=0.01, t_max=2.0,
                      drift=lambda X: np.ones_like(X),
                      h_cost=lambda X: np.zeros(np.atleast_2d(X).shape[0]))
    finals = ctl._simulate_pool(par, [(ctl.NullControl(), np.array([0.0]),
                                       400, 0)])[0]["final"][:, 0]
    assert abs(np.mean(finals)) <= 4 * np.std(finals) / np.sqrt(len(finals))


def test_push_cost_exact_discount():
    spec = ctl.SingularControlSpec(n=(1.0,), rate=0.0,
                                   pushes=((0.5, (1.0,), 0.25),))
    par = flat_params(h_cost=lambda X: np.zeros(np.atleast_2d(X).shape[0]),
                      t_max=1.0)
    est = ctl.estimate_singular_value(par, spec, np.array([0.0]), 4, 0)
    assert est.mean == pytest.approx(np.exp(-0.5) * 0.25, abs=1e-14)


def test_push_line_integral_matches_closed_form():
    # g(x) = |x| along the segment [0.5, 0.8] has no kink: exact quadrature
    spec = ctl.SingularControlSpec(n=(1.0,), rate=0.0,
                                   pushes=((0.5, (1.0,), 0.3),))
    par = flat_params(h_cost=lambda X: np.zeros(np.atleast_2d(X).shape[0]),
                      g_cost=lambda X: np.abs(np.atleast_2d(X)[:, 0]),
                      t_max=1.0)
    est = ctl.estimate_singular_value(par, spec, np.array([0.8]), 2, 0)
    oracle = np.exp(-0.5) * 0.3 * 0.65  # int_0^1 |0.8 - 0.3 l| dl = 0.65
    assert abs(est.mean - oracle) <= 1e-10


def test_singular_without_pushes_equals_null_penalized():
    par = flat_params(t_max=3.0)
    a = ctl.estimate_penalized_value(par, ctl.NullControl(),
                                     np.array([0.0]), 16, 5)
    b = ctl.estimate_singular_value(
        par, ctl.SingularControlSpec(n=(1.0,), rate=0.0), np.array([0.0]),
        16, 5)
    assert a.mean == b.mean  # same dynamics, same seeds, zero effort


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
        ctl.estimate_singular_value(par, spec, np.array([0.0]), 1, 9)


def test_start_outside_domain():
    par = flat_params(domain=Box(lo=(-1,), hi=(1,)))
    with pytest.raises(StartOutsideDomain):
        ctl.simulate_path(par, ctl.NullControl(), np.array([1.5]), 0)


def test_seed_determinism():
    par = flat_params(sigma=lambda X: np.full(
        (np.atleast_2d(X).shape[0], 1, 1), 0.5),
        domain=Box(lo=(-2,), hi=(2,)), t_max=3.0)
    a = ctl.estimate_penalized_value(par, ctl.NullControl(),
                                     np.array([0.0]), 64, 123)
    b = ctl.estimate_penalized_value(par, ctl.NullControl(),
                                     np.array([0.0]), 64, 123)
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
        means[dt] = ctl.estimate_penalized_value(
            par, ctl.NullControl(), np.array([0.0]), 1, 0).mean
    assert abs(means[2e-3] - means[1e-3]) <= 3.0 * 1e-3


def make_control_problem():
    grid = build_grid(Box(lo=(-1,), hi=(1,)), 1 / 128)
    cp = CompoundPoisson(atoms=(((-0.5,), 0.4),))
    quad = build_quadrature(cp, 1e-3, 2.0)
    co = Coefficients(
        a=lambda X: np.full((np.atleast_2d(X).shape[0], 1, 1), 0.1),
        b=lambda X: np.zeros((np.atleast_2d(X).shape[0], 1)),
        c=_vectorize_scalar(lambda X: 2.0),
        h=lambda X: 2.5 * np.exp(-8.0 * np.atleast_2d(X)[:, 0] ** 2),
        g=_vectorize_scalar(lambda X: 0.5),
        theta=0.09, dim=1)
    return Problem(grid, co, constant_density(1.0), quad), cp


def test_sde_from_problem_requires_constant_c_and_unit_s():
    prob, cp = make_control_problem()
    params = ctl.sde_from_problem(prob, 2.0, levy=cp)
    assert params.q == 2.0
    with pytest.raises(ValueError):
        ctl.sde_from_problem(prob, 1.0, levy=cp)  # c != q
    prob_bad = Problem(prob.grid, prob.coeffs, constant_density(0.5),
                       prob.quad)
    with pytest.raises(ValueError):
        ctl.sde_from_problem(prob_bad, 2.0, levy=cp)
    # sigma is factored once, so a must not vary between nodes
    a_var = dataclasses.replace(prob.coeffs, a=lambda X: (
        0.1 + 0.01 * np.atleast_2d(X)[:, 0])[:, None, None])
    prob_bad = Problem(prob.grid, a_var, prob.s, prob.quad)
    with pytest.raises(ValueError, match="constant a"):
        ctl.sde_from_problem(prob_bad, 2.0, levy=cp)


def make_control_problem_2d():
    grid = build_grid(Ball(center=(0.0, 0.0), radius=1.0), 1 / 64)
    cp = CompoundPoisson(atoms=(((0.25, -0.2), 0.5),))
    quad = build_quadrature(cp, 1e-3, 2.0)
    co = Coefficients(
        a=lambda X: np.broadcast_to(
            0.15 * np.eye(2), (np.atleast_2d(X).shape[0], 2, 2)).copy(),
        b=lambda X: np.broadcast_to(
            np.array([0.1, -0.05]), (np.atleast_2d(X).shape[0], 2)).copy(),
        c=_vectorize_scalar(lambda X: 1.5),
        h=lambda X: 3.0 * np.exp(
            -6.0 * np.sum(np.atleast_2d(X) ** 2, axis=1)),
        g=_vectorize_scalar(lambda X: 0.6),
        theta=0.13, dim=2)
    return Problem(grid, co, constant_density(1.0), quad), cp


def test_sde_from_problem_checks_s_at_every_quadrature_node():
    # s dips to 0.5 only near z = -0.5, the config's one jump atom
    cfg = json.loads((CONFIGS / "example_1d_control.json").read_text())
    cfg["jump_density"] = {"type": "expr",
                           "body": "1 - 0.5*exp(-10000*(z+0.5)**2)"}
    spec = build_spec(cfg)
    with pytest.raises(ValueError, match="identically 1"):
        ctl.sde_from_problem(spec.problem, spec.q, levy=spec.levy)


def test_penalized_policy_regions():
    prob, cp = make_control_problem()
    rep = solve_nidd(prob, 0.1, SolverOptions())
    policy = ctl.PenalizedFeedback(rep.solution, 0.1, prob.coeffs.g)
    grid = prob.grid
    rate, n, _ = policy.act(grid.interior_points(), 0.0, prob.coeffs.g)
    grads = ctl._lattice_gradient(grid, rep.solution.values)
    norm = np.abs(grads[0].ravel()[grid.interior_flat])
    inactive = norm**2 <= 0.25
    assert np.allclose(rate[inactive], 0.0, atol=1e-12)
    strong = norm**2 - 0.25 >= 2 * 0.1
    assert np.allclose(rate[strong], (2 / 0.1) * norm[strong], rtol=1e-9)
    assert np.allclose(np.abs(n[:, 0]), 1.0)
    # admissibility: observed rate stays under (2/eps) * grad_sup
    assert rate.max() <= (2 / 0.1) * rep.grad_sup + 1e-9


@pytest.mark.parametrize("make", [make_control_problem,
                                  make_control_problem_2d])
def test_penalized_feedback_act_is_one_table_interpolation(make):
    prob, _ = make()
    grid = prob.grid
    X = grid.interior_points()
    r2 = np.sum(X**2, axis=1)
    u = SolutionField.from_interior_vector(grid, 2.0 * (1.0 - r2))
    policy = ctl.PenalizedFeedback(u, 0.1, prob.coeffs.g)
    rng = np.random.default_rng(4)
    lo, hi = grid.domain.bounding_box()
    pts = rng.uniform(lo, hi, size=(4000, grid.dim))
    pts = pts[grid.domain.contains_batch(pts)]
    rate, n, effort = policy.act(pts, 0.0, prob.coeffs.g)
    cols = [SolutionField(grid, c.reshape(grid.shape)).values_extended(pts)
            for c in policy.table.T]
    grad = np.column_stack(cols[:grid.dim])
    norm = np.linalg.norm(grad, axis=1)
    assert np.all(norm > 0)
    assert np.array_equal(n, grad / norm[:, None])
    assert np.array_equal(rate, np.maximum(cols[grid.dim], 0.0))
    assert np.array_equal(effort, np.maximum(cols[grid.dim + 1], 0.0))
    assert rate.max() > 0 and effort.max() > 0  # the push is active


def _feedback_1d(prob):
    x = prob.grid.interior_points()[:, 0]
    # the push binds only where |u'| = 0.6 |x| exceeds g = 0.5
    u = SolutionField.from_interior_vector(prob.grid, 0.3 * (1.0 - x**2))
    return ctl.PenalizedFeedback(u, 0.1, prob.coeffs.g)


def _pushes_2d(prob):
    return ctl.SingularControlSpec(n=(0.0, -1.0), rate=0.2,
                                   pushes=((0.5, (1.0, 1.0), 0.1),))


@pytest.mark.parametrize("make, q, control, x0", [
    (make_control_problem, 2.0, _feedback_1d, (0.3,)),
    (make_control_problem_2d, 1.5, _pushes_2d, (0.2, -0.1))])
def test_estimate_does_not_depend_on_batching(monkeypatch, make, q, control,
                                              x0):
    prob, cp = make()
    params = ctl.sde_from_problem(prob, q, t_max=3.0, levy=cp)
    ctrl = control(prob)

    def run():
        return ctl._estimate(params, np.array(x0), 50, 17, ctrl)

    full = run()
    # 50 paths in batches of at most 16 (1D) or 8 (2D), each refilling its
    # normals every 256 to 341 steps; by default one batch draws them all
    monkeypatch.setattr(ctl, "_NORMALS_BUDGET", 2**12)
    split = run()
    assert full.max_rate_observed > 0
    assert (split.mean, split.stderr, split.max_rate_observed) == \
        (full.mean, full.stderr, full.max_rate_observed)


def test_pooled_jobs_equal_separate_estimates(monkeypatch):
    # four kinds of control at two start points, with compound-Poisson
    # jumps; the pool of 8 slots refills many times over for 96 paths
    prob, cp = make_control_problem_2d()
    params = ctl.sde_from_problem(prob, 1.5, t_max=1.5, levy=cp)
    controls = [
        ctl.NullControl(),
        ctl.ConstantRate(n=(1.0, 0.0), rate=0.3, eps=0.1),
        ctl.SingularControlSpec(n=(0.0, 1.0),
                                rate=lambda t: 0.4 if t < 0.25 else 0.1),
        ctl.SingularControlSpec(n=(0.0, -1.0), rate=0.2,
                                pushes=((0.3, (1.0, 1.0), 0.1),)),
    ]
    x0s = [np.array([0.2, -0.1]), np.array([-0.3, 0.4])]
    jobs = [(c, x0, 12, 40 + 12 * i) for i, c in enumerate(controls)
            for x0 in x0s]
    alone = [ctl._estimate(params, x0, n, seed, c)
             for c, x0, n, seed in jobs]
    monkeypatch.setattr(ctl, "_NORMALS_BUDGET", 2**12)
    pooled = ctl.estimate_jobs(params, jobs)
    assert all(est.max_rate_observed > 0 for est in alone[2:])
    assert len({est.mean for est in alone}) == len(jobs)
    for a, b in zip(alone, pooled, strict=True):
        assert (b.mean, b.stderr, b.max_rate_observed, b.n_paths, b.seed) \
            == (a.mean, a.stderr, a.max_rate_observed, a.n_paths, a.seed)
    assert ctl.estimate_jobs(params, []) == []


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
    # a pool of 16 slots, refilled by the 40 paths of one estimate, by
    # the 60 of two jobs, and one recorded path: one mapping per pool
    monkeypatch.setattr(ctl, "_NORMALS_BUDGET", 2**12)
    par = flat_params(t_max=1.0)
    ctl._estimate(par, np.array([0.0]), 40, 3, ctl.NullControl())
    ctl.estimate_jobs(par, [(ctl.NullControl(), np.array([0.0]), 40, 3),
                            (ctl.NullControl(), np.array([0.5]), 20, 9)])
    ctl.simulate_path(par, ctl.NullControl(), np.array([0.0]), 1)
    assert len(made) == 3
    # every pool's mapping is gone once its pool returns
    assert all(ref() is None for ref in made)


@pytest.mark.parametrize("eps", [0.1, 0.01])
@pytest.mark.parametrize("make", [make_control_problem,
                                  make_control_problem_2d])
def test_feedback_price_is_the_conjugate_penalty(make, eps):
    # the price column, rate |Du| - psi(|Du|^2 - g^2), is the supremum the
    # golden section finds, in the off, blend and linear zones of psi
    prob, _ = make()
    grid = prob.grid
    X = grid.interior_points()
    u = SolutionField.from_interior_vector(
        grid, 2.0 * (1.0 - np.sum(X**2, axis=1)))

    def g_fn(P):
        return 0.4 + 0.3 * P[:, 0] ** 2

    policy = ctl.PenalizedFeedback(u, eps, g_fn)
    d = grid.dim
    norm = np.linalg.norm(policy.table[:, :d], axis=1)
    g_nodes = g_fn(grid.points())
    arg = norm**2 - g_nodes**2
    assert np.any(arg <= 0) and np.any((arg > 0) & (arg < 2 * eps)) \
        and np.any(arg >= 2 * eps)
    rate, price = policy.table[:, d], policy.table[:, d + 1]
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
        assert np.array_equal(rate, np.full(500, 0.7))
        assert np.array_equal(n, np.broadcast_to([1.0, 0.0], X.shape))
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
    est = ctl.estimate_penalized_value(
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
    prob, cp = make_control_problem()
    rep = solve_nidd(prob, 0.1, SolverOptions())
    params = ctl.sde_from_problem(prob, 2.0, dt=1e-3, t_max=7.0, levy=cp)
    out = ctl.verify_value_equality(
        prob, rep.solution, "penalized", [np.array([0.0])], 2000, 42,
        params=params, eps=0.1)
    assert out.all_pass
    assert out.entries[0]["max_rate_observed"] > 0  # feedback genuinely active


def test_suboptimality_direction_quick():
    prob, cp = make_control_problem()
    rep = solve_nidd(prob, 0.05, SolverOptions())
    params = ctl.sde_from_problem(prob, 2.0, dt=1e-3, t_max=7.0, levy=cp)
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
    est = ctl.estimate_singular_value(par, spec, np.array([0.0]), 2, 0)
    oracle = 0.3 * (1.0 - np.exp(-1.0))
    assert abs(est.mean - oracle) <= 2 * par.dt * (0.3 + 1.0)


def test_callable_rate_is_called_once_per_clock(monkeypatch):
    # 4 slots serve 40 paths that exit at scattered steps, so the live
    # paths carry many distinct clocks at once
    monkeypatch.setattr(ctl, "_NORMALS_BUDGET", 4 * ctl._MIN_CHUNK_STEPS)
    par = flat_params(sigma=lambda X: np.full(
        (np.atleast_2d(X).shape[0], 1, 1), 1.0),
        domain=Box(lo=(-0.2,), hi=(0.2,)), t_max=1.0)
    calls = []
    spec = ctl.SingularControlSpec(
        n=(1.0,), rate=lambda t: calls.append(t) or (0.3 if t < 0.02 else 0.0))
    est = ctl.estimate_singular_value(par, spec, np.array([0.0]), 40, 0)
    assert len(calls) == len(set(calls)) > 0
    n_calls = len(calls)
    again = ctl.estimate_singular_value(par, spec, np.array([0.0]), 40, 0)
    assert again.mean == est.mean and len(calls) == n_calls


def test_singular_spec_validates_pushes():
    with pytest.raises(ValueError):
        ctl.SingularControlSpec(n=(1.0,), rate=0.0,
                                pushes=((0.5, (1.0,), -0.1),))
    with pytest.raises(ValueError):
        ctl.SingularControlSpec(n=(1.0,), rate=0.0,
                                pushes=((0.0, (1.0,), 0.1),))


def test_cost_estimates_nonnegative_for_nonnegative_data():
    par = flat_params(sigma=lambda X: np.full(
        (np.atleast_2d(X).shape[0], 1, 1), 0.7),
        domain=Box(lo=(-3,), hi=(3,)), t_max=4.0)
    est = ctl.estimate_penalized_value(par, ctl.NullControl(),
                                       np.array([0.0]), 64, 3)
    assert est.mean >= 0.0
    spec = ctl.SingularControlSpec(n=(1.0,), rate=0.2,
                                   pushes=((0.7, (1.0,), 0.3),))
    est2 = ctl.estimate_singular_value(par, spec, np.array([0.0]), 64, 3)
    assert est2.mean >= 0.0


def test_penalized_value_equality_2d():
    prob, cp = make_control_problem_2d()
    rep = solve_nidd(prob, 0.1, SolverOptions())
    assert rep.grad_sup > 0.6  # feedback genuinely active somewhere
    params = ctl.sde_from_problem(prob, 1.5, dt=1e-3, t_max=9.0,
                                  jump_truncation=1e-3, levy=cp)
    out = ctl.verify_value_equality(
        prob, rep.solution, "penalized",
        [np.array([0.0, 0.0]), np.array([0.3, -0.2])], 3000, 42,
        params=params, eps=0.1)
    assert out.all_pass, out.entries


def test_singular_dominance_2d():
    prob, cp = make_control_problem_2d()
    rep = solve_nidd(prob, 0.1, SolverOptions())
    params = ctl.sde_from_problem(prob, 1.5, dt=1e-3, t_max=9.0,
                                  jump_truncation=1e-3, levy=cp)
    controls = [ctl.SingularControlSpec(n=(1.0, 0.0), rate=0.2),
                ctl.SingularControlSpec(n=(0.0, -1.0), rate=0.2)]
    out = ctl.verify_value_equality(
        prob, rep.solution, "singular", [np.array([0.0, 0.0])], 1500, 7,
        params=params, controls=controls)
    assert out.all_pass, out.entries

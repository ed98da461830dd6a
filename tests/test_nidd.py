import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import CONFIGS, empty_quadrature, make_problem_1d
import gradcap.nidd as nidd
import gradcap.operators as operators
from gradcap.config import build_spec, load_config
from gradcap.errors import (MaxIterationsExceeded, NotApplicable,
                            SingularSystem)
from gradcap.geometry import Box, SolutionField, build_grid
from gradcap.hjb import solve_hjb
from gradcap.levy import CompoundPoisson, build_quadrature, constant_density
from gradcap.nidd import (_FORCING, _GMRES_RTOL, _LOW_RANK_ROWS,
                          _TOL_UPDATE_FACTOR, SolverOptions,
                          _check_linear_residual, _newton_direction,
                          comparison_check, solve_linear_dirichlet,
                          solve_nidd)
from gradcap.operators import Coefficients, interior_gradient
from gradcap.penalty import PenaltyFn
from gradcap.problem import Problem


def test_linear_dirichlet_quadratic_exact():
    prob = make_problem_1d(h_grid=0.125, a=1.0, b=0.0, c=0.0, h=2.0)
    u = solve_linear_dirichlet(prob.matrix(), prob.h_interior())
    x = prob.grid.interior_points().ravel()
    assert np.max(np.abs(u.interior_vector() - (1 - x**2))) < 1e-12


def test_linear_dirichlet_zero_rhs():
    prob = make_problem_1d()
    u = solve_linear_dirichlet(prob.matrix(), np.zeros(prob.grid.n_interior))
    assert np.all(u.values == 0.0)


def test_linear_dirichlet_constant_compatible():
    # feeding back Gamma of a constant interior field reproduces it exactly
    quad = build_quadrature(CompoundPoisson(atoms=(((0.5,), 2.0),)), 0.1)
    prob = make_problem_1d(h_grid=0.125, c=2.0, quad=quad)
    k = 3.0
    rhs = prob.matrix().apply_gamma_vec(np.full(prob.grid.n_interior, k))
    u = solve_linear_dirichlet(prob.matrix(), rhs)
    assert np.max(np.abs(u.interior_vector() - k)) < 1e-9


def test_linear_dirichlet_residual_contract_with_jumps():
    quad = build_quadrature(
        CompoundPoisson(atoms=(((0.3,), 1.0), ((-0.7,), 2.0))), 0.05)
    prob = make_problem_1d(h_grid=1 / 32, b=0.5, c=1.0, quad=quad)
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(prob.grid.n_interior)
    u = solve_linear_dirichlet(prob.matrix(), rhs)
    res = prob.matrix().apply_gamma_vec(u.interior_vector()) - rhs
    assert np.max(np.abs(res)) <= 1e-10 * np.max(np.abs(rhs))


@pytest.mark.parametrize("name", ["example_2d_ball.json",
                                  "example_1d_jumps.json"])
def test_linear_dirichlet_matches_direct_solve(name):
    # the 2D ball's jump part is heavy (lag contraction bound 0.945); the
    # 1D jumps have atoms and a state-dependent density
    spec = load_config(CONFIGS / name)
    mat = spec.problem.matrix()
    assert mat.jump_gather.nnz > 0
    rhs = spec.problem.h_interior()
    u = solve_linear_dirichlet(mat, rhs).interior_vector()
    ref = spla.spsolve(mat.gamma_matrix().tocsc(), rhs)
    assert np.max(np.abs(u - ref)) <= 1e-10 * np.max(np.abs(ref))


def _grads(prob, w):
    return interior_gradient(prob.grid, prob.grad_ops(), w)


def _newton_system(prob, pf, w):
    """The residual at w and the assembled Jacobian, with the count of
    rows where the penalty is active."""
    g_int = prob.g_interior()
    grads = interior_gradient(prob.grid, prob.grad_ops(), w)
    arg = np.sum(grads**2, axis=1) - g_int**2
    slope = 2.0 * pf.psi_prime(arg)
    res = prob.matrix().gamma_matrix() @ w + pf.psi(arg) - prob.h_interior()
    jac = prob.matrix().gamma_matrix() + sum(
        sp.diags(slope * grads[:, k]) @ G
        for k, G in enumerate(prob.grad_ops()))
    return res, jac, np.count_nonzero(slope)


def test_newton_direction_matches_assembled_jacobian():
    spec = load_config(CONFIGS / "example_1d_jumps.json")
    prob = spec.problem
    pf = PenaltyFn(0.05)
    w = solve_linear_dirichlet(prob.matrix(), prob.h_interior())
    w = w.interior_vector()
    res, jac, active = _newton_system(prob, pf, w)
    # the penalty is active at w on too many rows for the cached local LU,
    # so the step factors the Jacobian's split, which solves to _GMRES_RTOL
    # whatever the forcing
    assert active > _LOW_RANK_ROWS
    ref = spla.spsolve(jac.tocsc(), -res)
    delta = _newton_direction(prob, pf, prob.g_interior(), _grads(prob, w),
                              res, _FORCING)
    assert np.max(np.abs(delta - ref)) <= 1e-10 * np.max(np.abs(ref))


def _forbid_factorization(monkeypatch, prob):
    prob.matrix().local_solver()  # the one LU a Newton step may reuse

    def splu(*args, **kwargs):
        raise AssertionError("the Newton step factorized a matrix")

    monkeypatch.setattr(spla, "splu", splu)


@pytest.fixture(scope="module")
def ball_at_1e4():
    # the 2D ball's solution at its last eps, 1e-4: the penalty is active
    # on a handful of rows at the free-boundary rim
    spec = load_config(CONFIGS / "example_2d_ball.json")
    rep = solve_hjb(spec.problem, spec.eps_schedule)
    assert rep.nidd_reports[-1].eps == 1e-4
    return spec.problem, rep.solution.interior_vector()


@pytest.fixture(scope="module")
def jumps_1d_rim():
    # 5/8 of the linear solution of example_1d_jumps: its gradient passes
    # g only near the rims, so the penalty is active on a few rows, each
    # with two gradient entries
    prob = load_config(CONFIGS / "example_1d_jumps.json").problem
    w = solve_linear_dirichlet(prob.matrix(), prob.h_interior())
    return prob, 0.625 * w.interior_vector()


@pytest.mark.parametrize("state, eps", [("ball_at_1e4", 1e-4),
                                        ("ball_at_1e4", 5e-5),
                                        ("jumps_1d_rim", 0.05)],
                         ids=["0.0001", "5e-05", "1d-jumps-0.05"])
def test_low_rank_newton_direction_matches_assembled_jacobian(
        monkeypatch, request, state, eps):
    prob, w = request.getfixturevalue(state)
    pf = PenaltyFn(eps)
    res, jac, active = _newton_system(prob, pf, w)
    assert 0 < active <= _LOW_RANK_ROWS
    ref = spla.spsolve(jac.tocsc(), -res)
    _forbid_factorization(monkeypatch, prob)
    delta = _newton_direction(prob, pf, prob.g_interior(), _grads(prob, w),
                              res, _GMRES_RTOL)
    assert np.max(np.abs(delta - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_unconverged_low_rank_step_factorizes_the_jacobian(monkeypatch,
                                                          ball_at_1e4):
    # a GMRES that reports a missed tolerance sends the step to the
    # factored split, whose result does not depend on that flag
    prob, w = ball_at_1e4
    pf = PenaltyFn(1e-4)
    res, jac, active = _newton_system(prob, pf, w)
    assert 0 < active <= _LOW_RANK_ROWS
    ref = spla.spsolve(jac.tocsc(), -res)
    prob.matrix().local_solver()
    gmres, splu = spla.gmres, spla.splu
    factored = []

    def unconverged(*args, **kwargs):
        return gmres(*args, **kwargs)[0], 1

    def counting(*args, **kwargs):
        factored.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "gmres", unconverged)
    monkeypatch.setattr(spla, "splu", counting)
    delta = _newton_direction(prob, pf, prob.g_interior(), _grads(prob, w),
                              res, _GMRES_RTOL)
    assert len(factored) == 1
    assert np.max(np.abs(delta - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("eps", [1e-4, 5e-5])
def test_cached_split_newton_step_stops_at_the_forcing(monkeypatch,
                                                       ball_at_1e4, eps):
    # the inexact step: GMRES stops once |P^-1 (res + jac delta)| is below
    # _FORCING |P^-1 res|, with fewer LU solves than the exact step makes
    prob, w = ball_at_1e4
    pf = PenaltyFn(eps)
    res, jac, active = _newton_system(prob, pf, w)
    assert 0 < active <= _LOW_RANK_ROWS
    mat = prob.matrix()
    lu = mat.local_solver()
    _forbid_factorization(monkeypatch, prob)
    solves = []

    class CountingLU:
        def solve(self, b):
            solves.append(1)
            return lu.solve(b)

    monkeypatch.setattr(mat, "local_solver", CountingLU)
    counts, deltas = [], []
    for rtol in (_GMRES_RTOL, _FORCING):
        solves.clear()
        deltas.append(_newton_direction(prob, pf, prob.g_interior(),
                                        _grads(prob, w), res, rtol))
        counts.append(len(solves))
    inexact = np.linalg.norm(lu.solve(res + jac @ deltas[1]))
    assert inexact <= _FORCING * np.linalg.norm(lu.solve(res))
    assert counts[1] < counts[0]


def test_inactive_penalty_newton_direction_factorizes_nothing(monkeypatch):
    spec = load_config(CONFIGS / "example_2d_ball.json")
    prob = spec.problem
    pf = PenaltyFn(0.1)
    w = solve_linear_dirichlet(prob.matrix(), 0.1 * prob.h_interior())
    w = w.interior_vector()
    res, jac, active = _newton_system(prob, pf, w)
    assert active == 0
    ref = spla.spsolve(jac.tocsc(), -res)
    _forbid_factorization(monkeypatch, prob)
    grads = _grads(prob, w)

    def grad_ops():
        raise AssertionError("the Newton step applied gradient terms")

    monkeypatch.setattr(prob, "grad_ops", grad_ops)
    delta = _newton_direction(prob, pf, prob.g_interior(), grads, res,
                              _GMRES_RTOL)
    assert np.max(np.abs(delta - ref)) <= 1e-10 * np.max(np.abs(ref))


def _scales(prob, pf, w):
    """s_k = 2 psi' D_k w, stacked by axis, and the active rows."""
    grads = _grads(prob, w)
    arg = np.sum(grads**2, axis=1) - prob.g_interior()**2
    slope = 2.0 * pf.psi_prime(arg)
    return slope[:, None] * grads, np.flatnonzero(slope)


def _assert_pattern_fill_is_the_sparse_sum(prob, w, eps):
    # the factored Newton matrix, filled into the cached pattern, is the
    # matrix that local + sum_k diag(s_k) G_k builds, down to its pattern
    # (SuperLU's ordering reads it), so the LU and the step are unchanged
    mat = prob.matrix()
    scales, active = _scales(prob, PenaltyFn(eps), w)
    assert _LOW_RANK_ROWS < active.size < w.size
    ref = mat.local_matrix()
    for k, G in enumerate(prob.grad_ops()):
        ref = ref + sp.diags(scales[:, k]) @ G
    ref = ref.tocsc()
    P = mat.jacobian(prob.grad_ops(), scales)
    for attr in ("indptr", "indices", "data"):
        assert getattr(P, attr).tobytes() == getattr(ref, attr).tobytes()


@pytest.mark.parametrize("eps", [0.5, 0.01])
@pytest.mark.parametrize("name", sorted(p.name for p in
                                        CONFIGS.glob("example_*.json")))
def test_pattern_filled_jacobian_is_the_sparse_sum_byte_for_byte(name, eps):
    # the linear solution with a 10 % ripple: the penalty is active on some
    # rows of every config and inactive on others
    prob = load_config(CONFIGS / name).problem
    w = solve_linear_dirichlet(prob.matrix(), prob.h_interior())
    w = w.interior_vector()
    w *= 1.0 + 0.1 * np.random.default_rng(1).standard_normal(w.size)
    _assert_pattern_fill_is_the_sparse_sum(prob, w, eps)


def test_pattern_fill_drops_the_zeros_the_sparse_sum_drops():
    # with |a12| = a11 the local stencil has no x-neighbours, so on the
    # inactive rows the gradient terms leave zeros in the pattern
    grid = build_grid(Box(lo=(-1, -1), hi=(1, 1)), 1 / 8)
    coeffs = Coefficients.from_constants(2, a=[[1.0, 1.0], [1.0, 2.0]],
                                         h=2.0, g=0.5)
    prob = Problem(grid, coeffs, constant_density(1.0), empty_quadrature(2))
    w = solve_linear_dirichlet(prob.matrix(), prob.h_interior())
    w = w.interior_vector()
    _assert_pattern_fill_is_the_sparse_sum(prob, w, 0.1)
    mat = prob.matrix()
    assert mat.jacobian(prob.grad_ops(), np.zeros((w.size, 2))).nnz \
        == mat.local_matrix().nnz < mat._cache["jacobian"][0].nnz


def test_second_solve_reuses_the_jacobian_pattern(monkeypatch):
    builds = []
    build = operators._jacobian_pattern

    def counting(*args):
        builds.append(1)
        return build(*args)

    monkeypatch.setattr(operators, "_jacobian_pattern", counting)
    spec = load_config(CONFIGS / "example_1d_control.json")
    first = solve_hjb(spec.problem, spec.eps_schedule)
    assert builds == [1]
    second = solve_hjb(spec.problem, spec.eps_schedule)
    assert builds == [1]
    assert np.array_equal(first.solution.values, second.solution.values)


def _unconstrained_fine():
    raw = json.loads((CONFIGS / "example_1d_unconstrained.json").read_text())
    raw["h"] = 2.0 ** -11
    return build_spec(raw)


def test_linear_residual_gate_allows_round_off():
    # |gamma|_inf ~ 1/h^2: at h = 2^-11 the residual of an exact LU solve
    # sits at ~6e-10, above 1e-10 |rhs| but inside the round-off term
    spec = _unconstrained_fine()
    rep = solve_hjb(spec.problem, spec.eps_schedule)
    assert rep.complementarity <= 1e-6


def test_linear_residual_gate_rejects_perturbed_solution():
    spec = _unconstrained_fine()
    mat = spec.problem.matrix()
    rhs = spec.problem.h_interior()
    u = solve_linear_dirichlet(mat, rhs).interior_vector()
    _check_linear_residual(mat, rhs, u)
    # a relative error of 1e-13 at one node is ~200 times the round-off term
    i = int(np.argmax(u))
    u[i] *= 1.0 + 1e-13
    with pytest.raises(SingularSystem):
        _check_linear_residual(mat, rhs, u)


def test_nidd_zero_cost_gives_zero():
    prob = make_problem_1d(h=0.0, g=1.0)
    rep = solve_nidd(prob, 0.1)
    assert np.all(rep.solution.values == 0.0)
    assert rep.residual_sup == 0.0


def test_nidd_inactive_penalty_exact_quadratic():
    prob = make_problem_1d(h_grid=0.125, a=1.0, b=0.0, c=0.0, h=2.0, g=10.0)
    rep = solve_nidd(prob, 0.1)
    x = prob.grid.interior_points().ravel()
    i0 = int(np.argmin(np.abs(x)))
    assert abs(rep.solution.interior_vector()[i0] - 1.0) < 1e-8


def test_nidd_manufactured_solution_convergence():
    # u*(x) = cos(pi x/2); rhs built symbolically, penalty inactive (g=10)
    errs = []
    eps = 0.1
    pf = PenaltyFn(eps)
    for h in (1 / 16, 1 / 32):
        grid = build_grid(Box(lo=(-1,), hi=(1,)), h)

        def rhs_fn(X):
            x = np.atleast_2d(X)[:, 0]
            ustar = np.cos(np.pi * x / 2)
            gam = (np.pi / 2) ** 2 * ustar + ustar
            grad2 = (np.pi / 2) ** 2 * np.sin(np.pi * x / 2) ** 2
            return gam + pf.psi(grad2 - 100.0)

        co = Coefficients.from_constants(1, a=1.0, b=0.0, c=1.0, g=10.0)
        co = Coefficients(a=co.a, b=co.b, c=co.c, h=rhs_fn, g=co.g)
        prob = Problem(grid, co, constant_density(1.0), empty_quadrature(1))
        rep = solve_nidd(prob, eps)
        x = grid.interior_points().ravel()
        errs.append(np.max(np.abs(rep.solution.interior_vector()
                                  - np.cos(np.pi * x / 2))))
    assert errs[0] / errs[1] >= 1.8


def test_nidd_report_sandwich_and_gradient():
    quad = build_quadrature(CompoundPoisson(atoms=(((0.5,), 2.0),)), 0.1)
    prob = make_problem_1d(h_grid=1 / 64, h=4.0, g=0.8, quad=quad)
    rep = solve_nidd(prob, 0.05)
    assert rep.min_value >= -1e-8
    assert rep.max_value <= rep.bound_C1 + 1e-8
    assert np.isfinite(rep.grad_sup)
    assert rep.residual_sup <= 1e-6 * (1 + 4.0)


def test_nidd_determinism():
    prob = make_problem_1d(h_grid=1 / 32, h=5.0, g=0.7)
    a = solve_nidd(prob, 0.05).solution.values
    b = solve_nidd(prob, 0.05).solution.values
    assert np.array_equal(a, b)


def test_max_iterations_exceeded_carries_best_iterate():
    prob = make_problem_1d(h_grid=1 / 64, h=10.0, g=0.5)
    with pytest.raises(MaxIterationsExceeded) as err:
        solve_nidd(prob, 0.02, SolverOptions(max_iter=2))
    rep = err.value.report
    assert rep is not None and not rep.converged
    assert rep.solution.values.shape == prob.grid.shape
    assert err.value.reason == "max_iter"
    assert "in 2 iterations" in str(err.value)


def test_singular_split_ends_the_attempt_and_is_retried(monkeypatch):
    import gradcap.nidd as nidd
    newton = nidd._newton
    attempts = []

    def recording(problem, eps, u, opts):
        attempts.append(eps)
        return newton(problem, eps, u, opts)

    def singular(*args):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(nidd, "_newton", recording)
    monkeypatch.setattr(nidd, "_newton_direction", singular)
    prob = make_problem_1d(h_grid=1 / 64, h=10.0, g=0.5)
    with pytest.raises(MaxIterationsExceeded) as err:
        solve_nidd(prob, 0.02)
    assert err.value.reason == "singular_split"
    assert "singular Newton matrix at iteration 1" in str(err.value)
    # the target, then one midpoint per level down to the depth cap
    assert len(attempts) == 1 + nidd._MAX_DEPTH
    assert attempts[1] == pytest.approx(np.sqrt(0.5 * 0.02))


@pytest.mark.parametrize("name,eps", [("example_1d_tight", 1e-3),
                                      ("example_1d_tight", 1e-4),
                                      ("example_1d_jumps", 1e-4)])
def test_cold_small_eps_solve_converges_by_continuation(name, eps):
    # a bare Newton solve from zero fails here; the eps-continuation from
    # the cold start's eps 0.5 gets through
    spec = load_config(CONFIGS / f"{name}.json")
    rep = solve_nidd(spec.problem, eps, spec.solver_options)
    assert rep.converged and rep.eps == eps
    assert rep.min_value >= -1e-8
    assert rep.max_value <= rep.bound_C1 + 1e-8


def test_long_schedule_step_solves_within_the_depth_cap():
    # the single step 0.5 -> 1e-4 needs eps-midpoints nested 8 deep
    spec = load_config(CONFIGS / "example_1d_control.json")
    rep = solve_hjb(spec.problem, (0.5, 1e-4))
    assert rep.nidd_reports[-1].eps == 1e-4


def test_comparison_zero_vs_linear():
    prob = make_problem_1d(h_grid=1 / 32, h=2.0, g=10.0)
    eta = solve_linear_dirichlet(prob.matrix(), prob.h_interior())
    phi = SolutionField.zeros(prob.grid)
    out = comparison_check(prob, 0.1, phi, eta)
    assert out["ok"]
    assert out["max_violation"] <= 0.0


def test_comparison_zero_vs_zero_trivial():
    prob = make_problem_1d(h=0.0, g=1.0)
    z = SolutionField.zeros(prob.grid)
    out = comparison_check(prob, 0.1, z, z)
    assert out["ok"] and out["max_violation"] == 0.0


def test_comparison_shifted_solution_not_applicable():
    prob = make_problem_1d(h_grid=1 / 32, h=2.0, g=10.0)
    rep = solve_nidd(prob, 0.1)
    shifted = SolutionField.from_interior_vector(
        prob.grid, rep.solution.interior_vector() + 0.1)
    with pytest.raises(NotApplicable) as err:
        comparison_check(prob, 0.1, shifted, rep.solution)
    assert err.value.node_index is not None


def test_warm_start_from_fixed_point_is_immediate():
    prob = make_problem_1d(h_grid=1 / 64, h=10.0, g=0.5)
    cold = solve_nidd(prob, 0.05)
    warm = solve_nidd(prob, 0.05, initial=cold)
    assert warm.iterations <= 3
    assert np.max(np.abs(warm.solution.values - cold.solution.values)) <= 1e-8


def test_warm_start_at_round_off_passes_the_line_search():
    # the field's residual sits at round-off, where no step lowers the
    # merit strictly; the trial still passes, its residual being converged
    prob = load_config(CONFIGS / "example_1d_tight.json").problem
    cold = solve_nidd(prob, 1e-3)
    warm = solve_nidd(prob, 1e-3, initial=cold)
    assert warm.iterations == 1
    assert np.max(np.abs(warm.solution.values - cold.solution.values)) <= 1e-8


def test_fixed_point_consistency_at_termination():
    # inactive penalty: the linearization map is constant, so its fixed
    # point is reproduced to solver precision
    prob = make_problem_1d(h_grid=1 / 32, h=2.0, g=10.0)
    rep = solve_nidd(prob, 0.1)
    u = rep.solution.interior_vector()
    rhs = prob.h_interior()  # psi term vanishes at g = 10
    tu = solve_linear_dirichlet(prob.matrix(), rhs).interior_vector()
    assert np.max(np.abs(tu - u)) <= 1e-8 * (1 + np.max(np.abs(u)))

    # active penalty: at termination the map defect is of the order of
    # the update tolerance
    probT = make_problem_1d(h_grid=1 / 64, h=10.0, g=0.5)
    opts = SolverOptions()
    repT = solve_nidd(probT, 0.1, opts)
    uT = repT.solution.interior_vector()
    from gradcap.penalty import PenaltyFn
    from gradcap.operators import interior_gradient
    grads = interior_gradient(probT.grid, probT.grad_ops(), uT)
    arg = np.sum(grads**2, axis=1) - probT.g_interior() ** 2
    rhsT = probT.h_interior() - PenaltyFn(0.1).psi(arg)
    tuT = solve_linear_dirichlet(probT.matrix(), rhsT).interior_vector()
    bound = 10 * _TOL_UPDATE_FACTOR * (1 + np.max(np.abs(uT)))
    assert np.max(np.abs(tuT - uT)) <= max(bound, 1e-6)


def test_converged_solution_is_sandwiched_by_comparison():
    prob = make_problem_1d(h_grid=1 / 64, h=10.0, g=0.5)
    rep = solve_nidd(prob, 0.1)
    # zero is a super-solution, the solution itself satisfies equality
    out = comparison_check(prob, 0.1, SolutionField.zeros(prob.grid),
                           rep.solution)
    assert out["ok"]


def test_grad_sup_stable_under_refinement():
    # the gradient bound is h-independent; check < 10% growth per level
    prev = None
    for h in (1 / 32, 1 / 64, 1 / 128):
        prob = make_problem_1d(h_grid=h, h=10.0, g=0.5)
        g_sup = solve_nidd(prob, 0.05).grad_sup
        if prev is not None:
            assert g_sup < 1.1 * prev
        prev = g_sup

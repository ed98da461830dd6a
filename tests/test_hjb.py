import gc
import json
import weakref

import numpy as np
import pytest

from conftest import CONFIGS, make_problem_1d
from gradcap.config import build_spec, load_config
from gradcap.errors import BoundViolation, MonotonicityViolation
from gradcap.geometry import SolutionField
from gradcap.hjb import (DEFAULT_EPS_SCHEDULE, HjbOptions, hjb_residual,
                         solve_hjb)
from gradcap.nidd import solve_linear_dirichlet

TIGHT_SCHEDULE = (0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 4e-3, 1.6e-3, 6e-4,
                  2.5e-4, 1e-4, 4e-5)


def test_zero_cost_everything_zero():
    prob = make_problem_1d(h=0.0, g=1.0)
    rep = solve_hjb(prob)
    assert np.all(rep.solution.values == 0.0)
    assert rep.residual_pde_pos == 0.0
    assert rep.complementarity == 0.0


def test_unconstrained_collapses_to_linear_solve():
    prob = make_problem_1d(h_grid=1 / 64, a=1.0, b=0.0, c=1.0, h=2.0, g=10.0)
    rep = solve_hjb(prob)
    lin = solve_linear_dirichlet(prob.matrix(), prob.h_interior())
    assert rep.residual_grad_pos == 0.0
    assert rep.complementarity <= 1e-6
    assert np.max(np.abs(rep.solution.values - lin.values)) <= 1e-7


def test_one_linear_solve_per_problem(monkeypatch):
    # C1 is the same for every eps stage and sub-step of the continuation
    import gradcap.nidd
    import gradcap.problem
    calls = []

    def counting(matrix, rhs):
        calls.append(1)
        return solve_linear_dirichlet(matrix, rhs)

    for module in (gradcap.nidd, gradcap.problem):
        monkeypatch.setattr(module, "solve_linear_dirichlet", counting)
    prob = make_problem_1d(h_grid=1 / 32, h=2.0, g=1.0)
    rep = solve_hjb(prob, (0.5, 0.25, 0.1))
    assert len(rep.nidd_reports) == 3
    assert len(calls) == 1
    assert all(r.bound_C1 == prob.bound_c1() > 0 for r in rep.nidd_reports)
    assert len(calls) == 1


def test_unconstrained_continuation_factorizes_once(monkeypatch):
    # the penalty stays inactive, so every Newton step reuses the cached
    # LU of the local matrix that the linear solve for C1 factorized, and
    # no Newton matrix pattern is built
    import scipy.sparse.linalg as spla
    calls = []
    splu = spla.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    spec = load_config(CONFIGS / "example_1d_unconstrained.json")
    rep = solve_hjb(spec.problem, spec.eps_schedule)
    assert sum(r.iterations for r in rep.nidd_reports) > 0
    assert len(calls) == 1
    assert "jacobian" not in spec.problem.matrix()._cache


def test_residual_of_zero_field():
    prob = make_problem_1d(h_grid=1 / 32, h=2.0, g=1.0)
    res = hjb_residual(prob, SolutionField.zeros(prob.grid))
    assert res["pde_pos"] == 0.0
    assert res["grad_pos"] == 0.0
    # both branches slack: |min(h - 0, g - 0)| = min(2, 1) = 1 at every node
    assert res["complementarity"] == pytest.approx(1.0, abs=1e-14)


def test_tight_constraint_active_set_and_gradient_cap():
    prob = make_problem_1d(h_grid=1 / 64, h=10.0, g=0.5)
    rep = solve_hjb(prob, TIGHT_SCHEDULE)
    assert rep.active_set_fraction > 0.5
    assert rep.residual_grad_pos <= 5 / 64
    assert rep.grad_sup <= 0.5 + 5 / 64
    assert np.min(rep.solution.values) >= -1e-8


def test_tight_constraint_grid_consistency():
    # compare all grids at one resolvable eps so differences are pure grid
    # error; pushing eps below ~h^2 on the coarse grids is outside the
    # scheme's regime (the solver reports that via its bound diagnostics)
    schedule = (0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 4e-3, 1.6e-3, 1e-3)
    sols = {}
    for h in (1 / 16, 1 / 32, 1 / 64, 1 / 128):
        prob = make_problem_1d(h_grid=h, h=10.0, g=0.5)
        sols[h] = solve_hjb(prob, schedule).solution
    diffs = []
    for h_c, h_f in ((1 / 16, 1 / 32), (1 / 32, 1 / 64), (1 / 64, 1 / 128)):
        coarse, fine = sols[h_c], sols[h_f]
        xc = coarse.grid.interior_points()
        diffs.append(np.max(np.abs(coarse.interior_vector()
                                   - fine.values_extended(xc))))
    assert diffs[0] > diffs[1] > diffs[2]


def test_eps_monotonicity_recorded():
    prob = make_problem_1d(h_grid=1 / 64, h=10.0, g=0.5)
    rep = solve_hjb(prob)
    mono_tol = 1e-6 * (1 + np.max(rep.solution.values)) + 10 * (1 / 64) ** 2
    for entry in rep.eps_trace:
        assert entry["monotonicity_violation"] <= mono_tol


def test_monotonicity_violation_raised_with_zero_slack(monkeypatch):
    import gradcap.hjb as hjb_mod
    monkeypatch.setattr(hjb_mod, "_MONO_TOL_FACTOR", 0.0)
    monkeypatch.setattr(hjb_mod, "_MONO_GRID_SLACK", 0.0)
    prob = make_problem_1d(h_grid=1 / 64, h=10.0, g=0.5)
    with pytest.raises(MonotonicityViolation):
        solve_hjb(prob, TIGHT_SCHEDULE)


def test_schedule_validation():
    prob = make_problem_1d()
    for bad in ([], [0.5, 0.5], [0.1, 0.2], [1.5, 0.1], [0.1, -0.2]):
        with pytest.raises(ValueError):
            solve_hjb(prob, bad)


def test_inactive_penalty_stops_after_one_stage():
    # unconstrained: the first stage leaves the penalty inactive at every
    # node, so that field solves every smaller eps and the rest of the
    # schedule is skipped
    prob = make_problem_1d(h_grid=1 / 32, h=2.0, g=10.0)
    schedule = list(DEFAULT_EPS_SCHEDULE) + [4e-3, 1.6e-3, 6e-4, 2.5e-4]
    rep = solve_hjb(prob, schedule)
    assert len(rep.eps_trace) == 1
    lin = solve_linear_dirichlet(prob.matrix(), prob.h_interior())
    assert np.max(np.abs(rep.solution.values - lin.values)) <= 1e-12


@pytest.mark.xfail(raises=BoundViolation, strict=True,
                   reason="the central-difference penalty is not monotone: "
                   "at h=1/32 the eps=2.5e-4 stage converges to min u "
                   "-0.068")
def test_tight_config_at_h_1_32_stays_in_the_sandwich():
    raw = json.loads((CONFIGS / "example_1d_tight.json").read_text())
    raw["h"] = 1 / 32
    spec = build_spec(raw)
    solve_hjb(spec.problem, spec.eps_schedule,
              HjbOptions(nidd=spec.solver_options))


def test_active_set_tolerance_default():
    prob = make_problem_1d(h_grid=1 / 64, h=10.0, g=0.5)
    rep = solve_hjb(prob, (0.5, 0.25, 0.1))
    res = hjb_residual(prob, rep.solution)
    assert res["active_set_fraction"] == rep.active_set_fraction


def test_continuation_matches_cold_solve():
    # warm-started continuation and a cold solve at the same eps agree:
    # the penalized problem has one solution and the path to it is
    # immaterial
    from gradcap.nidd import solve_nidd
    prob = make_problem_1d(h_grid=1 / 64, h=10.0, g=0.5)
    rep = solve_hjb(prob, (0.5, 0.25, 0.1, 0.05))
    cold = solve_nidd(prob, 0.05)
    assert np.max(np.abs(rep.solution.values - cold.solution.values)) <= 1e-6


def test_failing_step_is_substepped_and_counted_once(monkeypatch):
    import gradcap.nidd as nidd
    from gradcap.errors import MaxIterationsExceeded
    from gradcap.nidd import SolverOptions, solve_nidd
    newton = nidd._newton
    attempts = []

    def recording(problem, eps, u, opts):
        try:
            rep = newton(problem, eps, u, opts)
        except MaxIterationsExceeded:
            attempts.append((eps, None))
            raise
        attempts.append((eps, rep.iterations))
        return rep

    monkeypatch.setattr(nidd, "_newton", recording)
    prob = make_problem_1d(h_grid=1 / 64, h=10.0, g=0.5)
    rep = solve_nidd(prob, 0.01, SolverOptions(max_iter=6))
    # a cold start counts as eps 0.5; the step to 0.01 needs more than 6
    # Newton steps, so it is retried through the geometric midpoint
    assert attempts[0] == (0.01, None)
    assert attempts[1][0] == pytest.approx(np.sqrt(0.5 * 0.01))
    assert attempts[-1][0] == 0.01 and attempts[-1][1] is not None
    assert rep.eps == 0.01
    assert rep.iterations == sum(n for _, n in attempts if n is not None)
    monkeypatch.undo()
    cold = solve_nidd(prob, 0.01)
    assert np.max(np.abs(rep.solution.values - cold.solution.values)) <= 1e-6


def test_solve_hjb_leaves_no_reference_cycle():
    # the problem holds the assembled matrices and their factorizations;
    # it must be freed by reference counting alone
    prob = make_problem_1d(h_grid=1 / 32, h=10.0, g=0.5)
    ref = weakref.ref(prob)
    gc.disable()
    try:
        solve_hjb(prob, (0.5, 0.25))
        del prob
        assert ref() is None
    finally:
        gc.enable()


def test_residual_grid_mismatch_rejected():
    from gradcap.errors import GridMismatch
    prob = make_problem_1d(h_grid=1 / 32)
    other = make_problem_1d(h_grid=1 / 16)
    with pytest.raises(GridMismatch):
        hjb_residual(prob, SolutionField.zeros(other.grid))

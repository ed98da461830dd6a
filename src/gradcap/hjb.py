"""eps-continuation driver for the gradient-constrained equation.

Solves the penalized problem along a decreasing eps schedule, each stage
warm-started from the report of the one before, so that a stage that fails
is retried by solve_nidd through intermediate eps.  It enforces that
successive solutions do not increase beyond a discretization-sized slack,
and reports complementarity residuals of the limiting max-form equation on
the final field.  The continuation stops early after the first stage whose
field leaves the penalty inactive at every node: psi_eps(r) = 0 for r <= 0,
so that field solves the penalized problem at every smaller eps as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, MonotonicityViolation
from .nidd import SolverOptions, solve_nidd
from .operators import interior_gradient

DEFAULT_EPS_SCHEDULE = (0.5, 0.25, 0.1, 0.05, 0.02, 0.01)

# u^eps may rise between eps steps by at most
# _MONO_TOL_FACTOR (1 + max u) + _MONO_GRID_SLACK h^2
_MONO_TOL_FACTOR = 1e-6
_MONO_GRID_SLACK = 10.0


def check_eps_schedule(schedule):
    """The schedule as a float array; raises ValueError unless it is
    nonempty and strictly decreasing within (0, 1)."""
    arr = np.asarray(schedule, dtype=float)
    # written so that a NaN fails every comparison
    if arr.size == 0 or not np.all((arr > 0) & (arr < 1)) \
            or not np.all(np.diff(arr) < 0):
        raise ValueError("must be strictly decreasing within (0, 1)")
    return arr


@dataclass
class HjbOptions:
    nidd: SolverOptions = field(default_factory=SolverOptions)


@dataclass
class HjbReport:
    solution: object
    eps_trace: list
    residual_pde_pos: float
    residual_grad_pos: float
    complementarity: float
    active_set_fraction: float
    grad_sup: float
    bound_C1: float
    iterations_total: int
    nidd_reports: list


def hjb_residual(problem, fld):
    """Node-wise residuals of max{Gamma u - h, |Du| - g} = 0.

    Returns sup of the positive parts of both branches, the complementarity
    defect sup |min(h - Gamma u, g - |Du|)| (zero exactly when both
    constraints hold and one is tight), and a per-node breakdown.  A node
    counts as active when |Du| - g >= -max(1e-6, 5 h), a band of the
    gradient's discretization error.
    """
    grid = problem.grid
    if fld.grid is not grid and not fld.grid.same_as(grid):
        raise GridMismatch("field lives on a different grid than the problem")
    activity_tol = max(1e-6, 5.0 * grid.h)
    u_int = fld.interior_vector()
    gamma = problem.matrix().gamma_matrix()
    h_int = problem.h_interior()
    g_int = problem.g_interior()
    grads = interior_gradient(grid, problem.grad_ops(), u_int)
    grad_norm = np.sqrt(np.sum(grads * grads, axis=1))
    r1 = gamma @ u_int - h_int
    r2 = grad_norm - g_int
    comp = np.minimum(-r1, -r2)
    active = r2 >= -activity_tol
    return {
        "pde_pos": float(np.max(np.maximum(r1, 0.0), initial=0.0)),
        "grad_pos": float(np.max(np.maximum(r2, 0.0), initial=0.0)),
        "complementarity": float(np.max(np.abs(comp), initial=0.0)),
        "active_set_fraction": float(np.mean(active)) if active.size else 0.0,
        "per_node": {
            "node_index": grid.interior_flat.copy(),
            "pde_residual": r1,
            "grad_residual": r2,
            "complementarity": comp,
            "active": active,
        },
    }


def solve_hjb(problem, eps_schedule=None, opts=None):
    """Warm-started continuation over a strictly decreasing eps schedule,
    stopped after the first stage with the penalty inactive everywhere."""
    opts = opts or HjbOptions()
    arr = check_eps_schedule(eps_schedule if eps_schedule is not None
                             else DEFAULT_EPS_SCHEDULE)

    h2 = problem.grid.h ** 2
    g_sq = problem.g_interior() ** 2
    trace = []
    reports = []

    for eps in arr:
        prev = reports[-1] if reports else None
        rep = solve_nidd(problem, float(eps), opts.nidd, prev)
        sup_update = 0.0
        mono = 0.0
        if prev is not None:
            diff = rep.solution.values - prev.solution.values
            sup_update = float(np.max(np.abs(diff)))
            mono = float(np.max(diff))
            mono_tol = _MONO_TOL_FACTOR * (1.0 + rep.max_value) \
                + _MONO_GRID_SLACK * h2
            if mono > mono_tol:
                raise MonotonicityViolation(
                    f"u^eps increased by {mono:.3e} (> {mono_tol:.3e}) "
                    f"between eps={prev.eps:g} and eps={eps:g}; the schedule "
                    "is too aggressive or the grid too coarse")
        trace.append({"eps": float(eps), "sup_update": sup_update,
                      "monotonicity_violation": mono})
        reports.append(rep)

        grads = interior_gradient(problem.grid, problem.grad_ops(),
                                  rep.solution.interior_vector())
        if np.all(np.sum(grads * grads, axis=1) <= g_sq):
            break

    final = reports[-1].solution
    res = hjb_residual(problem, final)
    return HjbReport(
        solution=final,
        eps_trace=trace,
        residual_pde_pos=res["pde_pos"],
        residual_grad_pos=res["grad_pos"],
        complementarity=res["complementarity"],
        active_set_fraction=res["active_set_fraction"],
        grad_sup=reports[-1].grad_sup,
        bound_C1=reports[-1].bound_C1,
        iterations_total=sum(r.iterations for r in reports),
        nidd_reports=reports,
    )

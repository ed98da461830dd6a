"""Penalized nonlinear Dirichlet solver.

The penalized problem  gamma u + psi_eps(|D u|^2 - g^2) = h  is solved by
Newton's method with a non-monotone backtracking line search.  A solve
that fails is retried by eps-continuation: from the eps of its start to
the target through geometric midpoints, each solved from the one before.
Every linear system the solver meets, the linear Dirichlet problem and
each Newton step alike, splits as (P - J) x = b: J is sparse and P has a
cheap LU.  GMRES on the left-preconditioned system (I - P^-1 J) x = P^-1 b
solves it; with J = 0 the first preconditioner solve is already exact.
The linear problem and most Newton steps reuse one cached LU, that of the
local M-matrix plus the jump mass, with J the jump gather less the
penalty's gradient terms.  Those terms are never stored: GMRES applies
them on the few rows where the penalty is active, from the gradient
operators the residual reads (Jacobian-free Newton-Krylov, Knoll & Keyes
2004).  A Newton step with more active rows factors P = local + jump
mass + gradient terms, filled into a sparsity pattern the operator caches
at the first such step, and keeps J the jump gather.  Each iterate's
gradient is computed once, by the residual that accepted it.  GMRES
solves to a relative 1e-13, except on a Newton step that reuses the
cached LU: that step is inexact, solved to the forcing tolerance
_FORCING.  The runtime diagnostics check the a priori sandwich
0 <= u <= C1 and record the gradient sup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (BoundViolation, GridMismatch, MaxIterationsExceeded,
                     NotApplicable, SingularSystem)
from .geometry import SolutionField
from .operators import interior_gradient
from .penalty import PenaltyFn


# slack of the a priori sandwich 0 <= u <= C1 checked on every solution
_SANDWICH_TOL = 1e-8
# converged once the update is below _TOL_UPDATE_FACTOR (1 + max |u|) and
# the residual below _TOL_RES_FACTOR (1 + max |h|)
_TOL_UPDATE_FACTOR = 1e-8
_TOL_RES_FACTOR = 1e-6
# restart length of the split solves' GMRES
_GMRES_RESTART = 60
# GMRES's relative tolerance on the preconditioned residual of a split solve
_GMRES_RTOL = 1e-13
# the relative tolerance of an inexact Newton step on the cached-LU split
# (Dembo, Eisenstat & Steihaug 1982).  There P is the eps-independent local
# M-matrix, so the preconditioned residual GMRES reads stays within a fixed
# factor of the true one; the factored split's P carries the 1/eps gradient
# terms and stays at _GMRES_RTOL.  Tighter is not safer: on
# example_1d_control at eps 1e-4, forcings of 1e-5, 1e-2 and
# min(1e-2, residual) each fail a solve that 1e-4 passes.
_FORCING = 1e-4
# a Newton step keeps the cached local LU while the penalty is active on at
# most this many rows: in exact arithmetic each active row adds at most one
# GMRES iteration to the base solve's (16 or fewer on the shipped configs),
# and about half the restart window leaves room for both
_LOW_RANK_ROWS = 32
# a cold start counts as a solve at this eps, the first of
# hjb.DEFAULT_EPS_SCHEDULE
_COLD_EPS = 0.5
# a failing solve is retried through geometric midpoints of its eps step,
# nested at most this deep
_MAX_DEPTH = 8
# comparison_check's premise and order slack, times (1 + max |h|)
_COMPARISON_TOL_FACTOR = 1e-8


@dataclass
class SolverOptions:
    max_iter: int = 500


@dataclass
class NiddReport:
    solution: SolutionField
    iterations: int
    final_update_norm: float
    residual_sup: float
    bound_C1: float
    min_value: float
    max_value: float
    grad_sup: float
    eps: float
    converged: bool = True


def _as_interior(matrix, rhs):
    if isinstance(rhs, SolutionField):
        return rhs.interior_vector()
    rhs = np.asarray(rhs, dtype=float)
    if rhs.size != matrix.grid.n_interior:
        raise ValueError("rhs length does not match interior node count")
    return rhs.copy()


def _solve_split(lu, J, b, rtol=_GMRES_RTOL):
    """Solve (P - J) x = b, where `lu` factorizes P and J is a sparse
    matrix or a callable v -> J v.

    GMRES runs on the left-preconditioned system (I - P^-1 J) x = P^-1 b
    from x = P^-1 b, so its stopping test reads the preconditioned
    residual, |P^-1 (b - (P - J) x)| <= rtol |P^-1 b|; the plain residual
    of a stiff P sits at round-off far above 1e-13 |b|.  Returns x and
    whether GMRES met that test (always so when J is an empty matrix:
    P^-1 b is then exact).
    """
    x0 = lu.solve(b)
    if not callable(J) and J.nnz == 0:
        return x0, True
    apply = J if callable(J) else J.__matmul__
    op = spla.LinearOperator((b.size, b.size),
                             matvec=lambda v: v - lu.solve(apply(v)),
                             dtype=float)
    x, info = spla.gmres(op, x0, x0=x0, rtol=rtol, atol=0.0,
                         restart=_GMRES_RESTART, maxiter=20)
    return x, info == 0


def _check_linear_residual(matrix, rhs_vec, u):
    """Gate |gamma u - rhs| at 1e-10 |rhs| plus the round-off of gamma u.

    The round-off term eps_mach |gamma| |u| grows like 1/h^2, so a gate on
    |rhs| alone falls below what exact arithmetic could deliver on fine
    grids.
    """
    res = float(np.max(np.abs(matrix.apply_gamma_vec(u) - rhs_vec)))
    gate = 1e-10 * float(np.max(np.abs(rhs_vec))) + np.finfo(float).eps \
        * spla.norm(matrix.gamma_matrix(), np.inf) * float(np.max(np.abs(u)))
    if not res <= gate:
        raise SingularSystem(
            f"linear residual {res:.3e} above {gate:.3e} "
            "= 1e-10 |rhs| + eps_mach |gamma| |u|")


def solve_linear_dirichlet(matrix, rhs):
    """Solve gamma u = rhs at interior nodes with u = 0 elsewhere.

    P is the cached factorization of the local M-matrix plus the jump mass,
    and the jump gather is applied as a matrix-vector product.
    """
    rhs_vec = _as_interior(matrix, rhs)
    if not rhs_vec.size or float(np.max(np.abs(rhs_vec))) == 0.0:
        return SolutionField.zeros(matrix.grid)
    try:
        lu = matrix.local_solver()
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from exc
    u, _ = _solve_split(lu, matrix.jump_gather, rhs_vec)
    _check_linear_residual(matrix, rhs_vec, u)
    return SolutionField.from_interior_vector(matrix.grid, u)


def _residual_vec(problem, gamma, pf, u_int, h_int, g_int):
    """The residual at u_int and the gradient stack it read."""
    grads = interior_gradient(problem.grid, problem.grad_ops(), u_int)
    grad_sq = np.sum(grads * grads, axis=1)
    return gamma @ u_int + pf.psi(grad_sq - g_int**2) - h_int, grads


def _csr_rows(A, rows):
    """`A[rows]` of a CSR matrix, entry for entry, sliced through `indptr`
    without scipy's fancy-index path."""
    start = A.indptr[rows]
    count = A.indptr[rows + 1] - start
    indptr = np.zeros(rows.size + 1, dtype=A.indptr.dtype)
    np.cumsum(count, out=indptr[1:])
    take = np.arange(indptr[-1]) + np.repeat(start - indptr[:-1], count)
    return sp.csr_matrix((A.data[take], A.indices[take], indptr),
                         shape=(rows.size, A.shape[1]))


def _newton_direction(problem, pf, g_int, grads, res_vec, forcing):
    """Solve jacobian delta = -res_vec at the iterate w whose gradient
    stack (D_k w)_k is `grads`.

    The Jacobian is gamma + sum_k diag(s_k) G_k, s_k = 2 psi' D_k w, and
    the gradient terms vanish off the penalty's active set.  With at most
    _LOW_RANK_ROWS active rows, the step reuses the cached LU of the local
    M-matrix plus the jump mass and splits as local - (J - T), J the jump
    gather and T the gradient terms.  T is never stored: each GMRES matvec
    applies it on the active rows, sum_k s_k (G_k v) with G_k sliced to
    those rows once per step, and GMRES stops at the relative tolerance
    `forcing`.  A low-rank solve whose GMRES misses it falls back to the
    factored split below; with no active row the two splits are the same
    and no term is applied.  Otherwise P = local + the gradient terms,
    filled into the sparsity pattern OperatorMatrix.jacobian caches, is
    factorized, the split is P - J, and GMRES solves it to _GMRES_RTOL
    whatever `forcing` is.
    Raises RuntimeError when the factored matrix is exactly singular.
    """
    mat = problem.matrix()
    J = mat.jump_gather
    slope = 2.0 * pf.psi_prime(np.sum(grads * grads, axis=1) - g_int**2)
    scales = slope[:, None] * grads
    active = np.flatnonzero(slope)
    if active.size <= _LOW_RANK_ROWS:
        split = J
        if active.size:
            rows = [_csr_rows(G, active) for G in problem.grad_ops()]
            s = scales[active].T

            def split(v):
                w = J @ v
                w[active] -= sum(s_k * (G @ v) for s_k, G in zip(s, rows))
                return w

        delta, converged = _solve_split(mat.local_solver(), split, -res_vec,
                                        forcing)
        if converged or not active.size:
            return delta
    P = mat.jacobian(problem.grad_ops(), scales)
    return _solve_split(spla.splu(P), J, -res_vec)[0]


_STOP_MESSAGES = {
    "max_iter": "no convergence in {n} iterations",
    "line_search_failed": "line search found no acceptable step at "
                          "iteration {n}",
    "singular_split": "singular Newton matrix at iteration {n}",
}


def solve_nidd(problem, eps, opts=None, initial=None):
    """Solve the penalized problem at one eps; returns a NiddReport.

    Newton's method starts from the NiddReport `initial` (a warm start at
    initial.eps) when given, else from zero, which counts as eps 0.5.  A
    step passes the backtracking line search if its merit stays below the
    largest of the last six, since the penalty curvature near the
    free-boundary rim makes a strictly monotone search zigzag, or if its
    residual sup meets the stopping tolerance, since from a start at
    round-off no step lowers the merit strictly; an attempt returns the
    best iterate seen.  A failing attempt is retried from the start
    through the geometric midpoint of the two eps, each half retried the
    same way, at most _MAX_DEPTH deep; `iterations` sums the Newton steps
    of the attempts that converged.  MaxIterationsExceeded
    is that of the last attempt, with its best iterate and the reason:
    "max_iter", "line_search_failed" (no step length passed) or
    "singular_split" (a Newton matrix did not factor).
    """
    opts = opts or SolverOptions()
    grid = problem.grid
    if initial is None:
        u0, eps0 = np.zeros(grid.n_interior), _COLD_EPS
    else:
        start = initial.solution
        if start.grid is not grid and not start.grid.same_as(grid):
            raise GridMismatch("warm start lives on a different grid")
        u0, eps0 = start.interior_vector(), initial.eps
    return _continue(problem, eps, eps0, u0, opts, 0)


def _continue(problem, eps, eps0, u0, opts, depth):
    """Solve at eps from u0, the field at eps0, bisecting the eps step in
    log scale while an attempt fails."""
    try:
        return _newton(problem, eps, u0, opts)
    except MaxIterationsExceeded:
        if depth >= _MAX_DEPTH or eps0 == eps:
            raise
    mid = float(np.sqrt(eps0 * eps))
    rep_mid = _continue(problem, mid, eps0, u0, opts, depth + 1)
    rep = _continue(problem, eps, mid, rep_mid.solution.interior_vector(),
                    opts, depth + 1)
    rep.iterations += rep_mid.iterations
    return rep


def _newton(problem, eps, u, opts):
    """One Newton attempt at eps from the interior vector u."""
    pf = PenaltyFn(eps)
    grid = problem.grid
    gamma = problem.matrix().gamma_matrix()
    h_int = problem.h_interior()
    g_int = problem.g_interior()

    h_scale = float(np.max(np.abs(h_int))) if h_int.size else 0.0
    tol_res = _TOL_RES_FACTOR * (1.0 + h_scale)

    bound_c1 = problem.bound_c1()

    res_vec, grads = _residual_vec(problem, gamma, pf, u, h_int, g_int)
    res = float(np.max(np.abs(res_vec)))
    update = np.inf
    iterations = 0
    merit_window = []
    best_res, best_u, best_grads = res, u, grads
    stop = "max_iter"

    while iterations < opts.max_iter:
        u_scale = 1.0 + float(np.max(np.abs(u))) if u.size else 1.0
        tol_update = _TOL_UPDATE_FACTOR * u_scale
        if update <= tol_update and res <= tol_res:
            break
        iterations += 1

        merit_window.append(float(np.linalg.norm(res_vec)))
        del merit_window[:-6]
        window_cap = max(merit_window)
        try:
            delta = _newton_direction(problem, pf, g_int, grads, res_vec,
                                      _FORCING)
        except RuntimeError:
            stop = "singular_split"
            break
        step = None
        for alpha in (1.0, 0.5, 0.25, 0.125):
            u_try = u + alpha * delta
            res_try, grads_try = _residual_vec(problem, gamma, pf, u_try,
                                               h_int, g_int)
            merit = float(np.linalg.norm(res_try))
            if merit < window_cap or np.max(np.abs(res_try)) <= tol_res:
                step = u_try, res_try, grads_try
                break
        if step is None:
            stop = "line_search_failed"
            break
        update = float(np.max(np.abs(step[0] - u)))
        u, res_vec, grads = step
        res = float(np.max(np.abs(res_vec)))
        if res < best_res:
            best_res, best_u, best_grads = res, u, grads

    if best_res < res:
        # non-monotone exploration can end off the best iterate seen
        u, res, grads = best_u, best_res, best_grads
    grad_sq = np.sum(grads * grads, axis=1)
    report = NiddReport(
        solution=SolutionField.from_interior_vector(grid, u),
        iterations=iterations,
        final_update_norm=float(update) if np.isfinite(update) else 0.0,
        residual_sup=res,
        bound_C1=bound_c1,
        min_value=float(np.min(u)) if u.size else 0.0,
        max_value=float(np.max(u)) if u.size else 0.0,
        grad_sup=float(np.sqrt(np.max(grad_sq))) if u.size else 0.0,
        eps=eps,
    )
    u_scale = 1.0 + abs(report.max_value)
    if not (update <= _TOL_UPDATE_FACTOR * u_scale and res <= tol_res):
        report.converged = False
        head = _STOP_MESSAGES[stop].format(n=iterations)
        raise MaxIterationsExceeded(
            f"eps {eps:g}: {head} (residual {res:.3e}, update {update:.3e})",
            report=report, reason=stop)

    if report.min_value < -_SANDWICH_TOL or \
            report.max_value > bound_c1 + _SANDWICH_TOL:
        raise BoundViolation(
            f"solution range [{report.min_value:.3e}, {report.max_value:.3e}] "
            f"violates [0, C1={bound_c1:.6e}] beyond {_SANDWICH_TOL}")
    return report


def comparison_check(problem, eps, phi, eta):
    """Order check for a (super, sub) pair of the penalized problem.

    phi must satisfy the relation with <= h node-wise and eta with >= h;
    inputs failing the premise raise NotApplicable with the first bad node.
    When the premise holds, returns whether max(phi - eta) <= tol; both
    tests use tol = _COMPARISON_TOL_FACTOR (1 + max |h|).
    """
    pf = PenaltyFn(eps)
    gamma = problem.matrix().gamma_matrix()
    h_int = problem.h_interior()
    g_int = problem.g_interior()
    h_scale = float(np.max(np.abs(h_int))) if h_int.size else 0.0
    tol = _COMPARISON_TOL_FACTOR * (1.0 + h_scale)

    phi_v = phi.interior_vector()
    eta_v = eta.interior_vector()
    r_phi = _residual_vec(problem, gamma, pf, phi_v, h_int, g_int)[0]
    r_eta = _residual_vec(problem, gamma, pf, eta_v, h_int, g_int)[0]
    bad_super = np.flatnonzero(r_phi > tol)
    if bad_super.size:
        raise NotApplicable(
            f"phi is not a super-solution at interior node {bad_super[0]} "
            f"(defect {r_phi[bad_super[0]]:.3e})", node_index=int(bad_super[0]))
    bad_sub = np.flatnonzero(r_eta < -tol)
    if bad_sub.size:
        raise NotApplicable(
            f"eta is not a sub-solution at interior node {bad_sub[0]} "
            f"(defect {r_eta[bad_sub[0]]:.3e})", node_index=int(bad_sub[0]))
    max_violation = float(np.max(phi_v - eta_v)) if phi_v.size else 0.0
    return {"ok": bool(max_violation <= tol), "max_violation": max_violation}

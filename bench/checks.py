"""Correctness checks on the outputs of one benchmark round.

Each check returns a list of failure messages; an empty list means the
output passed.  The checks rest on properties the method must have (the a
priori sandwich, monotonicity in eps, complementarity of the max-form
equation, Monte Carlo value equality and dominance) and re-derive what
they compare from outside the solver's code path: Gamma u comes from the
matrix-free oracle `apply_Gamma`, gradients from the lattice values, field
values from the CSV text, and Monte Carlo tolerances from the documented
budget.  None of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv

import numpy as np
import scipy.sparse.linalg as spla

from gradcap.geometry import INTERIOR, SolutionField
from gradcap.levy import bounded_variation_error_bound
from gradcap.operators import apply_Gamma
from gradcap.penalty import PenaltyFn

EPS_MACH = np.finfo(float).eps
# criterion 06 gates of the complementarity residuals
PDE_POS_FACTOR = 1e-5
GRAD_POS_FACTOR = 5.0
COMPLEMENTARITY_FACTOR = 1e-4
# the solver's own a priori sandwich slack and eps-monotonicity slack
SANDWICH_TOL = 1e-8
MONO_TOL_FACTOR = 1e-6
MONO_GRID_SLACK = 10.0
# round-off allowance, in units of eps_mach (|Gamma| |u| + |h|)
ROUNDOFF_ULPS = 64.0


def lattice_gradient(grid, values):
    """(n_interior, dim) discrete gradient read off the lattice values.

    Central differences where both axis neighbours are interior, one-sided
    toward the interior next to the boundary, zero where neither is.
    """
    interior = grid.classes == INTERIOR
    v = np.where(interior, values, 0.0)
    h = grid.h
    comps = []
    for axis in range(grid.dim):
        vp = np.zeros_like(v)
        vm = np.zeros_like(v)
        ip = np.zeros_like(interior)
        im = np.zeros_like(interior)
        hi = [slice(None)] * grid.dim
        lo = [slice(None)] * grid.dim
        hi[axis] = slice(1, None)
        lo[axis] = slice(None, -1)
        hi, lo = tuple(hi), tuple(lo)
        vp[lo] = v[hi]
        ip[lo] = interior[hi]
        vm[hi] = v[lo]
        im[hi] = interior[lo]
        d = np.where(ip & im, (vp - vm) / (2 * h),
                     np.where(im, (v - vm) / h,
                              np.where(ip, (vp - v) / h, 0.0)))
        comps.append(d.ravel()[grid.interior_flat])
    return np.column_stack(comps)


def _oracle_gamma(spec, u_int):
    fld = SolutionField.from_interior_vector(spec.grid, u_int)
    return apply_Gamma(spec.coeffs, spec.s, spec.quad, fld).interior_vector()


def _h_g(spec):
    pts = spec.grid.interior_points()
    return (np.asarray(spec.coeffs.h(pts), dtype=float),
            np.asarray(spec.coeffs.g(pts), dtype=float))


def complementarity(spec, u_int, tag):
    """Criterion 06 gates, with Gamma u from the matrix-free oracle."""
    h_int, g_int = _h_g(spec)
    r1 = _oracle_gamma(spec, u_int) - h_int
    grads = lattice_gradient(spec.grid, _full(spec.grid, u_int))
    r2 = np.linalg.norm(grads, axis=1) - g_int
    pde_pos = float(np.max(np.maximum(r1, 0.0), initial=0.0))
    grad_pos = float(np.max(np.maximum(r2, 0.0), initial=0.0))
    comp = float(np.max(np.abs(np.minimum(-r1, -r2)), initial=0.0))
    h_sup = float(np.max(np.abs(h_int), initial=0.0))
    fails = []
    for label, value, gate in (
            ("pde_pos", pde_pos, PDE_POS_FACTOR * (1 + h_sup)),
            ("grad_pos", grad_pos, GRAD_POS_FACTOR * spec.grid.h),
            ("complementarity", comp, COMPLEMENTARITY_FACTOR * (1 + h_sup))):
        if not value <= gate:
            fails.append(f"{tag}: {label} {value:.3e} above gate {gate:.3e}")
    return fails


def linear_bound(spec):
    """C1 = sup v for Gamma v = h, solved apart from the solver and
    confirmed by the oracle."""
    h_int, _ = _h_g(spec)
    gamma = spec.problem.matrix().gamma_matrix()
    v = spla.spsolve(gamma.tocsc(), h_int)
    defect = float(np.max(np.abs(_oracle_gamma(spec, v) - h_int)))
    return float(np.max(v)), defect, _roundoff(spec, v, h_int)


def _roundoff(spec, u_int, h_int):
    gamma = spec.problem.matrix().gamma_matrix()
    norm = float(np.max(np.asarray(abs(gamma).sum(axis=1)).ravel()))
    return ROUNDOFF_ULPS * EPS_MACH * (
        norm * float(np.max(np.abs(u_int), initial=0.0))
        + float(np.max(np.abs(h_int), initial=0.0)))


def sandwich(spec, stage_vectors, tag):
    """0 <= u <= C1 at every eps stage."""
    c1, defect, allowance = linear_bound(spec)
    fails = []
    if not defect <= allowance:
        fails.append(f"{tag}: linear solve defect {defect:.3e} under the "
                     f"oracle exceeds round-off {allowance:.3e}")
    for k, u in enumerate(stage_vectors):
        lo, hi = float(np.min(u)), float(np.max(u))
        if not (lo >= -SANDWICH_TOL and hi <= c1 + SANDWICH_TOL):
            fails.append(f"{tag}: stage {k} range [{lo:.3e}, {hi:.6e}] "
                         f"outside [0, C1={c1:.6e}]")
    return fails


def monotone(spec, stage_vectors, tag):
    """u^eps non-increasing along the schedule within the solver's slack."""
    fails = []
    for k in range(1, len(stage_vectors)):
        rise = float(np.max(stage_vectors[k] - stage_vectors[k - 1]))
        slack = MONO_TOL_FACTOR * (1.0 + float(np.max(stage_vectors[k]))) \
            + MONO_GRID_SLACK * spec.grid.h ** 2
        if not rise <= slack:
            fails.append(f"{tag}: stage {k} rose by {rise:.3e} "
                         f"(slack {slack:.3e})")
    return fails


def linear_roundoff(spec, u_int, tag):
    """Where |Du| < g everywhere the penalty vanishes, so the solution
    solves Gamma u = h to round-off."""
    h_int, g_int = _h_g(spec)
    grads = lattice_gradient(spec.grid, _full(spec.grid, u_int))
    slack = float(np.min(g_int - np.linalg.norm(grads, axis=1)))
    defect = float(np.max(np.abs(_oracle_gamma(spec, u_int) - h_int)))
    allowance = _roundoff(spec, u_int, h_int)
    fails = []
    if not slack > 0.0:
        fails.append(f"{tag}: |Du| reaches g (margin {slack:.3e})")
    if not defect <= allowance:
        fails.append(f"{tag}: |Gamma u - h| = {defect:.3e} above round-off "
                     f"{allowance:.3e}")
    return fails


def operator_consistency(spec, seed, tag):
    """The assembled matrix and the oracle agree on a random vector."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(spec.grid.n_interior)
    assembled = spec.problem.matrix().apply_gamma_vec(v)
    gap = float(np.max(np.abs(assembled - _oracle_gamma(spec, v))))
    allowance = _roundoff(spec, v, np.zeros(0))
    if not gap <= allowance:
        return [f"{tag}: assembled and oracle Gamma differ by {gap:.3e} "
                f"(round-off {allowance:.3e})"]
    return []


def _full(grid, u_int):
    full = np.zeros(int(np.prod(grid.shape)))
    full[grid.interior_flat] = u_int
    return full.reshape(grid.shape)


def csv_field(path):
    """(node_index, u) columns parsed from a field CSV, apart from
    read_field_csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    i_node, i_u = header.index("node_index"), header.index("u")
    return (np.array([int(r[i_node]) for r in body]),
            np.array([float(r[i_u]) for r in body]))


def csv_round_trip(path, spec, u_int, read_back, tag):
    """The CSV text and read_field_csv both reproduce the solution bit for
    bit (17 significant digits are lossless)."""
    fails = []
    nodes, text = csv_field(path)
    if not np.array_equal(nodes, spec.grid.interior_flat):
        fails.append(f"{tag}: CSV rows differ from the interior node set")
    elif not np.array_equal(text, u_int):
        fails.append(f"{tag}: CSV text differs from the solution")
    if not np.array_equal(read_back.interior_vector(), u_int):
        fails.append(f"{tag}: read_field_csv differs from the solution")
    return fails


def interpolate_1d(grid, u_int, x0):
    """Piecewise-linear value at x0 with u = 0 on and beyond the boundary."""
    x = grid.interior_points()[:, 0]
    lo, hi = grid.domain.lo[0], grid.domain.hi[0]
    return float(np.interp(x0, np.concatenate([[lo], x, [hi]]),
                           np.concatenate([[0.0], u_int, [0.0]])))


def _budget(stderr, dt, drift_sup, bias):
    """3 stderr + 2 dt (drift_sup + 1) + discarded-jump bias."""
    return 3.0 * stderr + 2.0 * dt * (drift_sup + 1.0) + bias


def _drift_sup(spec):
    pts = spec.grid.interior_points()
    return float(np.max(np.linalg.norm(spec.coeffs.b(pts), axis=1)))


def _bias(params):
    if params.levy is None:
        return 0.0
    return bounded_variation_error_bound(params.levy, params.jump_truncation,
                                         params.t_max)


def feedback_rate_sup(spec, u_int, eps):
    """sup of 2 psi'(|Du|^2 - g^2) |Du| over interior nodes, with central
    differences of the zero-extended lattice values."""
    grid = spec.grid
    v = _full(grid, u_int)
    comps = []
    for axis in range(grid.dim):
        d = np.zeros_like(v)
        sl = [slice(None)] * grid.dim
        fwd, back, mid = list(sl), list(sl), list(sl)
        fwd[axis], back[axis], mid[axis] = (slice(2, None), slice(None, -2),
                                            slice(1, -1))
        d[tuple(mid)] = (v[tuple(fwd)] - v[tuple(back)]) / (2 * grid.h)
        comps.append(d.ravel()[grid.interior_flat])
    norm = np.linalg.norm(np.column_stack(comps), axis=1)
    _, g_int = _h_g(spec)
    rate = 2.0 * PenaltyFn(eps).psi_prime(norm ** 2 - g_int ** 2) * norm
    return float(np.max(rate, initial=0.0))


def penalized_tolerance(spec, params, u_int, eps, stderr):
    """Budget of the penalized check: the push rate joins the drift."""
    drift_sup = _drift_sup(spec) + feedback_rate_sup(spec, u_int, eps)
    return _budget(stderr, params.dt, drift_sup, _bias(params))


def singular_tolerance(spec, params, rate, stderr):
    """Budget of the singular check: the constant push joins the drift."""
    return _budget(stderr, params.dt, _drift_sup(spec) + rate, _bias(params))


def penalized_mc(spec, params, u_int, eps, entries, x0_list, tag):
    """|MC - u^eps(x0)| within the budget, both recomputed here."""
    fails = []
    for x0, e in zip(x0_list, entries):
        ref = interpolate_1d(spec.grid, u_int, x0)
        tol = penalized_tolerance(spec, params, u_int, eps, e["stderr"])
        if not abs(e["mc_mean"] - ref) <= tol:
            fails.append(f"{tag}: x0={x0}: |MC {e['mc_mean']:.6f} - "
                         f"u {ref:.6f}| above {tol:.6f}")
    return fails


def singular_mc(spec, params, u_int, controls, entries, x0_list, tag):
    """Every test control costs at least u(x0) - tol.

    The null control is optimal where g never binds, so it should also
    match u(x0) within tol.  That two-sided check is left out: the budget
    has no term for the O(sqrt(dt)) bias of the discrete exit test, and the
    null control's estimate exceeds it on about one sample in a hundred
    at 4000 paths (see CHANGES.md)."""
    fails = []
    pairs = [(c, x0) for c in controls for x0 in x0_list]
    for (control, x0), e in zip(pairs, entries, strict=True):
        rate = float(control.rate)
        ref = interpolate_1d(spec.grid, u_int, x0)
        tol = singular_tolerance(spec, params, rate, e["stderr"])
        label = f"{tag}: rate {rate:g} n={control.n} x0={x0}"
        if not e["mc_mean"] >= ref - tol:
            fails.append(f"{label}: MC {e['mc_mean']:.6f} below "
                         f"u {ref:.6f} - {tol:.6f}")
    return fails

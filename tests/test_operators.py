import hashlib

import numpy as np
import pytest

from conftest import CONFIGS, empty_quadrature
from gradcap.config import load_config
from gradcap.errors import EllipticityViolation
from gradcap.geometry import INTERIOR, Ball, Box, SolutionField, build_grid
from gradcap.levy import CompoundPoisson, build_quadrature, constant_density
from gradcap.nidd import solve_linear_dirichlet
from gradcap.operators import (Coefficients, apply_Gamma, apply_I, apply_L,
                               assemble_linear_system,
                               bracket_identity_residual, build_gradient_ops,
                               build_node_gradient_ops)
from gradcap.problem import Problem

S1 = constant_density(1.0)


def grid1d(h=0.25):
    return build_grid(Box(lo=(-1,), hi=(1,)), h)


def test_apply_L_quadratic_exact():
    g = grid1d()
    co = Coefficients.from_constants(1, a=1.0, b=0.0, c=0.0)
    u = SolutionField.from_function(g, lambda p: p[0] ** 2)
    out = apply_L(co, u).interior_vector()
    assert np.allclose(out, -2.0, atol=1e-12)


def test_apply_L_constants():
    g = grid1d()
    co = Coefficients.from_constants(1, a=2.0, b=1.0, c=4.0)
    u = SolutionField.from_function(g, lambda p: 7.0)
    assert np.allclose(apply_L(co, u).interior_vector(), 28.0, atol=1e-12)


def test_apply_L_upwind_exact_on_linear():
    g = grid1d()
    co = Coefficients.from_constants(1, a=1.0, b=3.0, c=0.0)
    u = SolutionField.from_function(g, lambda p: p[0])
    assert np.allclose(apply_L(co, u).interior_vector(), 3.0, atol=1e-12)


def atom_quad():
    return build_quadrature(CompoundPoisson(atoms=(((0.5,), 2.0),)), 0.1)


def test_apply_I_single_atom_values():
    g = grid1d()
    u = SolutionField.from_function(g, lambda p: p[0])
    vals = apply_I(S1, atom_quad(), u).interior_vector()
    x = g.interior_points().ravel()
    at = dict(zip(np.round(x, 10), vals))
    assert at[0.0] == pytest.approx(1.0, abs=1e-14)            # 2 (0.5 - 0)
    assert at[0.75] == pytest.approx(-1.5, abs=1e-14)          # escapes: 2 (0 - 0.75)


def test_apply_I_constant_no_escape():
    g = grid1d()
    u = SolutionField.from_function(g, lambda p: 3.0)
    vals = apply_I(S1, atom_quad(), u).interior_vector()
    x = g.interior_points().ravel()
    no_escape = x + 0.5 < 1.0
    assert np.allclose(vals[no_escape], 0.0, atol=1e-14)


def test_apply_Gamma_hand_value():
    g = grid1d()
    co = Coefficients.from_constants(1, a=1.0, b=0.0, c=1.0)
    u = SolutionField.from_function(g, lambda p: p[0] ** 2)
    vals = apply_Gamma(co, S1, atom_quad(), u).interior_vector()
    x = g.interior_points().ravel()
    at = dict(zip(np.round(x, 10), vals))
    # -u'' + c u - I u = -2 + 0 - 2 (0.25 - 0) at the origin
    assert at[0.0] == pytest.approx(-2.5, abs=1e-13)


def test_apply_Gamma_constants_no_escape():
    g = grid1d()
    co = Coefficients.from_constants(1, a=1.0, b=0.5, c=2.0)
    u = SolutionField.from_function(g, lambda p: 3.0)
    vals = apply_Gamma(co, S1, atom_quad(), u).interior_vector()
    x = g.interior_points().ravel()
    no_escape = x + 0.5 < 1.0
    assert np.allclose(vals[no_escape], 6.0, atol=1e-13)


def symbolic_gamma(x, a, b, c, atoms):
    """Oracle for u*(x) = cos(pi x / 2) on (-1, 1) with zero extension."""
    u = lambda y: np.where(np.abs(y) < 1.0, np.cos(np.pi * y / 2.0), 0.0)
    lu = a * (np.pi / 2) ** 2 * np.cos(np.pi * x / 2) \
        - b * np.pi / 2 * np.sin(np.pi * x / 2) + c * np.cos(np.pi * x / 2)
    iu = sum(m * (u(x + z) - u(x)) for z, m in atoms)
    return lu - iu


@pytest.mark.parametrize("b", [0.0, 1.0])
def test_manufactured_gamma_consistency_under_refinement(b):
    atoms = (((0.5,), 2.0), ((-1.5,), 1.0))
    quad = build_quadrature(CompoundPoisson(atoms=atoms), 0.1)
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        g = build_grid(Box(lo=(-1,), hi=(1,)), h)
        co = Coefficients.from_constants(1, a=1.0, b=b, c=1.0)
        u = SolutionField.from_function(g, lambda p: np.cos(np.pi * p[0] / 2))
        got = apply_Gamma(co, S1, quad, u).interior_vector()
        x = g.interior_points().ravel()
        want = symbolic_gamma(x, 1.0, b, 1.0,
                              [(z[0], m) for z, m in atoms])
        errs.append(np.max(np.abs(got - want)))
    # first order at least; second order when the drift vanishes
    assert errs[0] / errs[1] >= (1.6 if b else 3.4)
    assert errs[1] / errs[2] >= (1.6 if b else 3.4)


def test_bracket_identity_residual_cases():
    g = grid1d()
    quad = atom_quad()
    rng = np.random.default_rng(0)
    zero = SolutionField.zeros(g)
    anyf = SolutionField.from_interior_vector(g,
                                              rng.standard_normal(g.n_interior))
    ones = SolutionField.from_function(g, lambda p: 1.0)
    assert bracket_identity_residual(S1, quad, zero, anyf) <= 1e-14
    assert bracket_identity_residual(S1, quad, anyf, ones) <= 1e-12
    for _ in range(20):
        w = SolutionField.from_interior_vector(
            g, rng.standard_normal(g.n_interior))
        v = SolutionField.from_interior_vector(
            g, rng.standard_normal(g.n_interior))
        scale = np.max(np.abs(w.values)) * np.max(np.abs(v.values)) \
            * quad.total_mass
        assert bracket_identity_residual(S1, quad, w, v) <= 1e-12 * scale


def test_assemble_tridiagonal_rows():
    g = build_grid(Box(lo=(-1,), hi=(1,)), 0.5)
    co = Coefficients.from_constants(1, a=1.0, b=0.0, c=1.0)
    M = assemble_linear_system(co, S1, empty_quadrature(1), g)
    dense = M.gamma_matrix().toarray()
    assert np.allclose(np.diag(dense), 9.0)
    assert np.allclose(np.diag(dense, 1), -4.0)
    assert np.allclose(np.diag(dense, -1), -4.0)


def test_assemble_atom_contributions():
    g = build_grid(Box(lo=(-1,), hi=(1,)), 0.5)
    co = Coefficients.from_constants(1, a=1.0, b=0.0, c=1.0)
    M = assemble_linear_system(co, S1, atom_quad(), g)
    dense = M.gamma_matrix().toarray()
    # diagonal gains the atom mass 2; row of node -0.5 gets -2 at node 0
    assert np.allclose(np.diag(dense), 11.0)
    assert dense[0, 1] == pytest.approx(-6.0)  # -4 (diffusion) - 2 (jump)


def test_matrix_matvec_equivalence():
    g = grid1d()
    co = Coefficients.from_constants(1, a=1.3, b=0.7, c=2.0)
    quad = atom_quad()
    M = assemble_linear_system(co, S1, quad, g)
    rng = np.random.default_rng(7)
    for _ in range(20):
        vec = rng.standard_normal(g.n_interior)
        fld = SolutionField.from_interior_vector(g, vec)
        direct = apply_Gamma(co, S1, quad, fld).interior_vector()
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(M.apply_gamma_vec(vec) - direct)) <= 1e-12 * scale


def test_m_matrix_structure():
    g = build_grid(Ball(center=(0.0, 0.0), radius=1.0), 0.2)
    co = Coefficients.from_constants(
        2, a=np.array([[1.0, 0.4], [0.4, 1.0]]), b=(0.5, -0.3), c=1.5)
    M = assemble_linear_system(co, S1, empty_quadrature(2), g)
    local = M.local_part.toarray()
    off = local - np.diag(np.diag(local))
    assert off.max() <= 1e-12
    c_vals = co.c(g.interior_points())
    slack = np.diag(local) - np.abs(off).sum(axis=1) - c_vals
    assert slack.min() >= -1e-10


def test_ellipticity_violation_raised():
    g = build_grid(Ball(center=(0.0, 0.0), radius=1.0), 0.2)
    co = Coefficients.from_constants(
        2, a=np.array([[1.0, 1.2], [1.2, 1.0]]), b=0.0, c=1.0)
    with pytest.raises(EllipticityViolation):
        assemble_linear_system(co, S1, empty_quadrature(2), g)


def test_discrete_comparison_via_monotone_inverse():
    g = grid1d(0.125)
    co = Coefficients.from_constants(1, a=1.0, b=0.4, c=1.0)
    prob = Problem(g, co, S1, atom_quad())
    rng = np.random.default_rng(1)
    f1 = rng.uniform(0.0, 1.0, g.n_interior)
    f2 = f1 + rng.uniform(0.0, 1.0, g.n_interior)
    u1 = solve_linear_dirichlet(prob.matrix(), f1).interior_vector()
    u2 = solve_linear_dirichlet(prob.matrix(), f2).interior_vector()
    assert np.all(u1 <= u2 + 1e-12)


def test_cross_derivative_consistency_2d():
    # -tr[a D^2 u] for u = x y has exact cross stencil on the diagonal pair
    g = build_grid(Box(lo=(-1, -1), hi=(1, 1)), 0.25)
    co = Coefficients.from_constants(
        2, a=np.array([[1.0, 0.5], [0.5, 1.0]]), b=0.0, c=0.0)
    u = SolutionField.from_function(g, lambda p: p[0] * p[1])
    out = apply_L(co, u).interior_vector()
    # u_xx = u_yy = 0, u_xy = 1 -> -2 a12 u_xy = -1
    assert np.allclose(out, -1.0, atol=1e-12)


# sha256 over (dtype, bytes) of indptr, indices and data, then the shape,
# of each axis's interior gradient operator on the shipped configs, as the
# interior-only builder made them before the node rule replaced it: every
# solved field reads these operators, so none may move
GRADIENT_OPS_SHA256 = {
    "example_1d_control":
        "18de160e0a35171c21f9d6ba08a1329f46339e9c80de3bfb3b3f4f381a1bdd5e",
    "example_1d_jumps":
        "9cd1881124a5d52aad910ea4dda65e6384a6a6d9fc25dc4a8d579d472c242ccc",
    "example_1d_tight":
        "13d89f6f080e72a0c4582ddf989c34487e8851bc96222b05b3afb37c806670cf",
    "example_1d_unconstrained":
        "18de160e0a35171c21f9d6ba08a1329f46339e9c80de3bfb3b3f4f381a1bdd5e",
    "example_2d_ball":
        "d471b7a367038d8314caaf548e8a1caaa74ed444af744d2d55ca669f858e6f72",
}


@pytest.mark.parametrize("name", sorted(GRADIENT_OPS_SHA256))
def test_gradient_ops_are_pinned_byte_for_byte(name):
    ops = build_gradient_ops(load_config(CONFIGS / f"{name}.json").grid)
    digest = hashlib.sha256()
    for G in ops:
        for a in (G.indptr, G.indices, G.data):
            digest.update(str(a.dtype).encode())
            digest.update(a.tobytes())
        digest.update(str(G.shape).encode())
    assert digest.hexdigest() == GRADIENT_OPS_SHA256[name]


# the same digest of the jump gather J of the shipped configs, taken before
# the interpolation stencil was stored corner-major: J's duplicate entries
# are summed after an unstable sort, so a changed entry order could round
# them differently
JUMP_GATHER_SHA256 = {
    "example_1d_control":
        "1ab1fd19c18b480b3c2b7168af5507dee4f9b7112fae8cfbb400f50c6c4339cf",
    "example_1d_jumps":
        "63b8ccc13855499496f9e133c0383bc97dae82bebe63d43c1b952bcb86e2be11",
    "example_1d_tight":
        "b1bbc5c17b70624bf3706c0487c69256ad693e1fbec897285df4343f684b0505",
    "example_1d_unconstrained":
        "c606cbbafd6609a36491f2144f24f46dba38c9ee22e07abac21ac5226e5bd3a4",
    "example_2d_ball":
        "a75fa74964c9b08a33fb889d1c2ff870698234316901930abcaa6d8901629de6",
}


@pytest.mark.parametrize("name", sorted(JUMP_GATHER_SHA256))
def test_jump_gather_is_pinned_byte_for_byte(name):
    J = load_config(CONFIGS / f"{name}.json").problem.matrix().jump_gather
    digest = hashlib.sha256()
    for a in (J.indptr, J.indices, J.data):
        digest.update(str(a.dtype).encode())
        digest.update(a.tobytes())
    digest.update(str(J.shape).encode())
    assert digest.hexdigest() == JUMP_GATHER_SHA256[name]


def _shift_gradient(grid, values):
    """Per axis, the gradient at every lattice node by array shifts of the
    zero-extended values, and the node's case along that axis: 2 central
    (both neighbors interior), 1 one-sided (one is), 0 zero (neither)."""
    interior = np.pad(grid.classes == INTERIOR, 1)
    v = np.where(interior, np.pad(values, 1), 0.0)
    core = (slice(1, -1),) * grid.dim
    h = grid.h
    out = []
    for k in range(grid.dim):
        def at(a, step):
            idx = list(core)
            idx[k] = slice(1 + step, a.shape[k] - 1 + step)
            return a[tuple(idx)]
        vp, vm, v0 = at(v, 1), at(v, -1), at(v, 0)
        ip, im = at(interior, 1), at(interior, -1)
        d = np.select([ip & im, im, ip],
                      [(vp - vm) / (2 * h), (v0 - vm) / h, (vp - v0) / h],
                      0.0)
        out.append((d.ravel(), (ip.astype(int) + im).ravel()))
    return out


@pytest.mark.parametrize("grid", [
    grid1d(),
    load_config(CONFIGS / "example_2d_ball.json").grid,
    build_grid(Box(lo=(-1.0, -0.75), hi=(0.75, 1.0)), 1 / 8),
], ids=["box1d", "ball", "box2d"])
def test_node_gradient_rows_are_the_zero_extended_shift_rule(grid):
    u = np.random.default_rng(11).standard_normal(grid.n_interior)
    values = SolutionField.from_interior_vector(grid, u).values
    outside = grid.classes.ravel() != INTERIOR
    node_ops = build_node_gradient_ops(grid)
    cases = []
    for G, (ref, case) in zip(node_ops, _shift_gradient(grid, values)):
        assert G.shape == (grid.classes.size, grid.n_interior)
        assert np.array_equal(G @ u, ref)
        cases.append(case[outside])
    # on a convex domain no exterior node has two interior neighbors on one
    # axis; the 1D box has no zero row, the 2D lattices have both kinds
    cases = np.concatenate(cases)
    assert not np.any(cases == 2)
    assert np.any(cases == 1)
    assert np.any(cases == 0) == (grid.dim == 2)
    # the interior rows are the solver's operators
    for G, G_int in zip(node_ops, build_gradient_ops(grid)):
        assert (G[grid.interior_flat] != G_int).nnz == 0

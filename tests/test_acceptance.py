"""Acceptance suite: one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; the runtime caps are asserted as part of the criteria.
"""

import json
import subprocess
import sys
import time

import numpy as np

from conftest import CONFIGS, empty_quadrature
from gradcap import control as ctl
from gradcap.config import load_config
from gradcap.geometry import Box, SolutionField, build_grid
from gradcap.hjb import DEFAULT_EPS_SCHEDULE, solve_hjb
from gradcap.levy import (CompoundPoisson, bounded_variation_error_bound,
                          build_quadrature, constant_density, sample_jumps)
from gradcap.nidd import solve_nidd
from gradcap.operators import (Coefficients, apply_Gamma, apply_I,
                               assemble_linear_system,
                               bracket_identity_residual)
from gradcap.penalty import PenaltyFn
from gradcap.problem import Problem

S1 = constant_density(1.0)

SDE_CONFIGS = ("example_1d_unconstrained.json", "example_1d_control.json",
               "example_1d_tight.json")
VERIFY_POINTS = {
    "example_1d_unconstrained.json": (-0.5, 0.0, 0.5),
    "example_1d_control.json": (-0.3, 0.0, 0.4),
    "example_1d_tight.json": (-0.5, 0.0, 0.5),
}


def _report(num, label, elapsed, budget, detail=""):
    print(f"\nACCEPTANCE {num:2d} ({label}): PASS in {elapsed:.1f}s "
          f"(budget {budget:.0f}s) {detail}")
    assert elapsed < budget


def test_criterion_01_penalty_axioms():
    t0 = time.time()
    r = np.linspace(-1.0, 1.0, 10001)
    prev = None
    for eps in (0.5, 0.1, 0.02):
        pf = PenaltyFn(eps)
        v = pf.psi(r)
        vp = pf.psi_prime(r)
        # exact branches at 1e-10
        assert np.all(v[r <= 0] == 0.0)
        lin = r >= 2 * eps
        assert np.max(np.abs(v[lin] - (r[lin] - eps) / eps)) <= 1e-10
        # blend region at 1e-6: nonnegative, monotone, and convex: psi'
        # nondecreasing along the sample
        assert np.all(v >= -1e-6)
        assert np.all(v[r > eps / 10] > 0.0)
        assert np.all(vp >= -1e-6)
        assert np.all(np.diff(vp) >= -1e-6)
        # convexity inequality psi <= psi' r
        assert np.all(vp * r - v >= -1e-6)
        # monotone family as eps decreases
        if prev is not None:
            assert np.all(v >= prev - 1e-6)
        prev = v
    _report(1, "penalty axioms", time.time() - t0, 1.0)


def test_criterion_02_operator_identities():
    t0 = time.time()
    grid = build_grid(Box(lo=(-1,), hi=(1,)), 0.25)
    quad = build_quadrature(
        CompoundPoisson(atoms=(((0.5,), 2.0), ((-0.7,), 1.0))), 0.1)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        w = SolutionField.from_interior_vector(
            grid, rng.standard_normal(grid.n_interior))
        v = SolutionField.from_interior_vector(
            grid, rng.standard_normal(grid.n_interior))
        scale = np.max(np.abs(w.values)) * np.max(np.abs(v.values)) \
            * quad.total_mass
        res = bracket_identity_residual(S1, quad, w, v)
        assert res <= 1e-12 * scale
        worst = max(worst, res / scale)

    # constants are annihilated wherever the whole stencil stays inside
    const = SolutionField.from_function(grid, lambda p: 4.2)
    vals = apply_I(S1, quad, const).interior_vector()
    x = grid.interior_points().ravel()
    no_escape = (x + 0.5 < 1.0) & (x - 0.7 > -1.0)
    assert np.max(np.abs(vals[no_escape])) <= 1e-12

    co = Coefficients.from_constants(1, a=1.2, b=0.4, c=1.5)
    M = assemble_linear_system(co, S1, quad, grid)
    for _ in range(20):
        vec = rng.standard_normal(grid.n_interior)
        fld = SolutionField.from_interior_vector(grid, vec)
        direct = apply_Gamma(co, S1, quad, fld).interior_vector()
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(M.apply_gamma_vec(vec) - direct)) \
            <= 1e-12 * scale
    _report(2, "operator identities", time.time() - t0, 5.0,
            f"worst bracket defect {worst:.1e} of scale")


def _mms_errors(g_const, eps):
    pf = PenaltyFn(eps)
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        grid = build_grid(Box(lo=(-1,), hi=(1,)), h)

        def rhs_fn(X):
            x = np.atleast_2d(X)[:, 0]
            ustar = np.cos(np.pi * x / 2)
            gam = (np.pi / 2) ** 2 * ustar + ustar
            grad2 = (np.pi / 2) ** 2 * np.sin(np.pi * x / 2) ** 2
            return gam + pf.psi(grad2 - g_const**2)

        base = Coefficients.from_constants(1, a=1.0, b=0.0, c=1.0,
                                           g=g_const)
        co = Coefficients(a=base.a, b=base.b, c=base.c, h=rhs_fn, g=base.g)
        prob = Problem(grid, co, S1, empty_quadrature(1))
        rep = solve_nidd(prob, eps)
        x = grid.interior_points().ravel()
        errs.append(float(np.max(np.abs(rep.solution.interior_vector()
                                        - np.cos(np.pi * x / 2)))))
    return errs


def test_criterion_03_manufactured_convergence():
    t0 = time.time()
    inactive = _mms_errors(10.0, 0.1)
    assert inactive[0] / inactive[1] >= 1.8
    assert inactive[1] / inactive[2] >= 1.8
    active = _mms_errors(1.0, 0.1)  # |Du*| exceeds 1 on part of the domain
    assert active[0] / active[1] >= 1.0
    assert active[1] / active[2] >= 1.0
    _report(3, "manufactured convergence", time.time() - t0, 30.0,
            f"inactive ratios {inactive[0]/inactive[1]:.2f}, "
            f"{inactive[1]/inactive[2]:.2f}; active "
            f"{active[0]/active[1]:.2f}, {active[1]/active[2]:.2f}")


def test_criterion_04_apriori_sandwich(config_paths):
    t0 = time.time()
    for path in config_paths:
        spec = load_config(path)
        rep = solve_hjb(spec.problem, DEFAULT_EPS_SCHEDULE)
        for nidd_rep in rep.nidd_reports:
            assert nidd_rep.min_value >= -1e-8, path.name
            assert nidd_rep.max_value <= nidd_rep.bound_C1 + 1e-8, path.name
    _report(4, "a priori sandwich", time.time() - t0, 10.0,
            f"{len(config_paths)} configs x {len(DEFAULT_EPS_SCHEDULE)} eps")


def test_criterion_05_eps_monotonicity(config_paths):
    t0 = time.time()
    worst = 0.0
    for path in config_paths:
        spec = load_config(path)
        rep = solve_hjb(spec.problem, DEFAULT_EPS_SCHEDULE)
        sup_u = float(np.max(rep.solution.values))
        tol = 1e-6 * (1.0 + sup_u) + 10.0 * spec.grid.h ** 2
        for entry in rep.eps_trace:
            assert entry["monotonicity_violation"] <= tol, path.name
            worst = max(worst, entry["monotonicity_violation"] / tol)
    _report(5, "eps monotonicity", time.time() - t0, 60.0,
            f"worst violation at {worst:.2f} of its slack")


def test_criterion_06_hjb_complementarity():
    t0 = time.time()
    results = {}
    for name in ("example_1d_tight.json", "example_2d_ball.json"):
        spec = load_config(CONFIGS / name)
        rep = solve_hjb(spec.problem, spec.eps_schedule)
        h_sup = float(np.max(np.abs(spec.problem.h_interior())))
        assert rep.residual_pde_pos <= 1e-5 * (1 + h_sup), name
        assert rep.residual_grad_pos <= 5 * spec.grid.h, name
        assert rep.complementarity <= 1e-4 * (1 + h_sup), name
        results[name] = (rep.complementarity, 1e-4 * (1 + h_sup),
                         rep.active_set_fraction)
    detail = "; ".join(f"{k.split('_', 1)[1][:-5]}: comp {v[0]:.1e} "
                       f"(tol {v[1]:.1e}, active {v[2]:.2f})"
                       for k, v in results.items())
    _report(6, "HJB complementarity", time.time() - t0, 300.0, detail)


def test_criterion_07_penalized_value_equality():
    t0 = time.time()
    eps = 0.1
    details = []
    for name, points in VERIFY_POINTS.items():
        spec = load_config(CONFIGS / name)
        rep = solve_nidd(spec.problem, eps, spec.solver_options)
        params = ctl.sde_from_problem(spec.problem, **spec.sde)
        assert params.dt == 1e-3
        out = ctl.verify_value_equality(
            spec.problem, rep.solution, "penalized",
            [np.array([p]) for p in points], 10000, 42,
            params=params, eps=eps)
        for entry in out.entries:
            assert entry["pass"], (name, entry)
            details.append(f"{entry['x0'][0]:+.1f}: "
                           f"{abs(entry['diff']):.1e}<{entry['tolerance']:.1e}")
    _report(7, "penalized value equality", time.time() - t0, 300.0,
            " | ".join(details))


def test_criterion_08_suboptimality_direction():
    t0 = time.time()
    checked = 0
    for name in SDE_CONFIGS:
        spec = load_config(CONFIGS / name)
        rep = solve_hjb(spec.problem, spec.eps_schedule)
        params = ctl.sde_from_problem(spec.problem, **spec.sde)
        controls = [ctl.SingularControlSpec(n=(1.0,), rate=0.0),
                    ctl.SingularControlSpec(n=(1.0,), rate=0.25),
                    ctl.SingularControlSpec(n=(-1.0,), rate=0.25)]
        out = ctl.verify_value_equality(
            spec.problem, rep.solution, "singular", [np.array([0.0])],
            4000, 7, params=params, controls=controls)
        assert out.all_pass, (name, out.entries)
        checked += len(out.entries)
    _report(8, "suboptimality direction", time.time() - t0, 300.0,
            f"{checked} control/start pairs dominated the PDE value")


def test_criterion_09_jump_machinery():
    t0 = time.time()
    cp = CompoundPoisson(atoms=(((0.5,), 2.0),))
    for seed in range(5):
        n = len(sample_jumps(cp, 0.01, 10.0, seed))
        assert 8 <= n <= 36
    two = CompoundPoisson(atoms=(((0.5,), 1.0), ((-1.5,), 1.0)))
    jumps = sample_jumps(two, 0.01, 5000.0, 11)
    frac = np.mean([z[1][0] > 0 for z in jumps])
    assert abs(frac - 0.5) <= 3 * np.sqrt(0.25 / len(jumps))
    from gradcap.levy import BVDensity
    lev = BVDensity(kappa=1.0, alpha=0.5, lambda_temper=0.0, z_min=1e-6,
                    z_max=1.0, rays=((1.0,), (-1.0,)))
    got = bounded_variation_error_bound(lev, 1e-4, 1.0)
    assert abs(got - 4e-2) / 4e-2 <= 1e-6
    _report(9, "jump machinery", time.time() - t0, 30.0,
            f"{len(jumps)} sampled jumps, freq dev {abs(frac-0.5):.4f}")


def _run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "gradcap", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    cfg = CONFIGS / "example_1d_control.json"
    artifacts = {}
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        _run_cli("solve-nidd", "--config", str(cfg), "--eps", "0.1",
                 "--out", str(d / "u.csv"), "--report", str(d / "rep.json"))
        _run_cli("simulate", "--config", str(cfg), "--policy", "penalized",
                 "--field", str(d / "u.csv"), "--eps", "0.1", "--x0", "0.0",
                 "--paths", "500", "--seed", "42",
                 "--out", str(d / "cost.json"))
        _run_cli("residual", "--config", str(cfg), "--field",
                 str(d / "u.csv"), "--out", str(d / "res.json"))
        artifacts[tag] = {f.name: f.read_bytes()
                          for f in sorted(d.iterdir())}
    assert artifacts["one"].keys() == artifacts["two"].keys()
    for name in artifacts["one"]:
        assert artifacts["one"][name] == artifacts["two"][name], name
    cost = json.loads(artifacts["one"]["cost.json"].decode())
    assert cost["n_paths"] == 500
    _report(10, "CLI determinism", time.time() - t0, 60.0,
            f"{len(artifacts['one'])} artifacts byte-identical")

"""Each correctness check of the benchmark accepts the program's answer and
rejects a wrong one."""

import numpy as np
import pytest

import checks
import workloads
from gradcap import control as ctl
from gradcap.cli import read_field_csv, write_field_csv
from gradcap.config import load_config
from gradcap.hjb import solve_hjb
from gradcap.nidd import solve_nidd


def _solved(config_dir, name):
    spec = load_config(config_dir / name)
    rep = solve_hjb(spec.problem, spec.eps_schedule)
    stages = [r.solution.interior_vector() for r in rep.nidd_reports]
    return spec, rep.solution.interior_vector(), stages


@pytest.fixture(scope="module")
def tight(config_dir):
    return _solved(config_dir, "example_1d_tight.json")


@pytest.fixture(scope="module")
def unconstrained(config_dir):
    return _solved(config_dir, "example_1d_unconstrained.json")


def test_complementarity_rejects_scaled_field(tight):
    spec, u, _ = tight
    assert checks.complementarity(spec, u, "tight") == []
    assert checks.complementarity(spec, 1.05 * u, "tight")


def test_complementarity_rejects_field_without_gradient_cap(tight):
    spec, _, _ = tight
    uncapped = spec.problem.matrix().gamma_solver().solve(
        spec.problem.h_interior())
    fails = checks.complementarity(spec, uncapped, "tight")
    assert any("grad_pos" in f for f in fails)


def test_lattice_gradient_matches_solver_stencil(config_dir):
    from gradcap.operators import interior_gradient
    spec = load_config(config_dir / "example_2d_ball.json")
    rng = np.random.default_rng(3)
    u = rng.standard_normal(spec.grid.n_interior)
    mine = checks.lattice_gradient(spec.grid, checks._full(spec.grid, u))
    theirs = interior_gradient(spec.grid, spec.problem.grad_ops(), u)
    assert np.allclose(mine, theirs, rtol=1e-13, atol=1e-12)


def test_sandwich_rejects_values_above_c1_or_below_zero(tight):
    spec, _, stages = tight
    assert checks.sandwich(spec, stages, "tight") == []
    c1, _, _ = checks.linear_bound(spec)
    above = [s.copy() for s in stages]
    above[-1][np.argmax(above[-1])] = 1.05 * c1
    assert checks.sandwich(spec, above, "tight")
    below = [s.copy() for s in stages]
    below[0][0] = -1e-6
    assert checks.sandwich(spec, below, "tight")


def test_monotone_rejects_rising_schedule(tight):
    spec, _, stages = tight
    assert checks.monotone(spec, stages, "tight") == []
    assert checks.monotone(spec, stages[::-1], "tight")


def test_linear_roundoff_rejects_scaled_field(unconstrained):
    spec, u, _ = unconstrained
    assert checks.linear_roundoff(spec, u, "unconstrained") == []
    assert checks.linear_roundoff(spec, 1.05 * u, "unconstrained")
    # one ulp-scale nudge per node stays within round-off
    assert checks.linear_roundoff(spec, u * (1 + 1e-15),
                                  "unconstrained") == []


def test_operator_consistency_holds_on_shipped_configs(config_dir):
    for path in sorted(config_dir.glob("example_*.json")):
        spec = load_config(path)
        assert checks.operator_consistency(spec, 5, path.name) == []


def test_csv_round_trip_rejects_one_changed_digit(tmp_path, tight):
    spec, u, _ = tight
    path = tmp_path / "u.csv"
    fld = checks.SolutionField.from_interior_vector(spec.grid, u)
    write_field_csv(path, spec, fld)
    back = read_field_csv(path, spec)
    assert checks.csv_round_trip(path, spec, u, back, "tight") == []
    lines = path.read_text().splitlines()
    row = lines[10].split(",")
    row[2] = repr(float(row[2]) * (1 + 1e-12))
    lines[10] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert checks.csv_round_trip(path, spec, u, read_field_csv(path, spec),
                                 "tight")


@pytest.fixture(scope="module")
def penalized(config_dir):
    spec = load_config(config_dir / "example_1d_control.json")
    u = solve_nidd(spec.problem, 0.1, spec.solver_options)
    params = workloads._sde_params(spec)
    return spec, params, u.solution.interior_vector()


def test_penalized_check_rejects_mean_shifted_by_twice_tolerance(penalized):
    spec, params, u = penalized
    x0 = 0.0
    ref = checks.interpolate_1d(spec.grid, u, x0)
    stderr = 0.004
    tol = checks.penalized_tolerance(spec, params, u, 0.1, stderr)
    for shift, ok in ((0.0, True), (0.9 * tol, True), (2 * tol, False),
                      (-2 * tol, False)):
        entry = {"mc_mean": ref + shift, "stderr": stderr}
        fails = checks.penalized_mc(spec, params, u, 0.1, [entry], [x0], "c")
        assert (fails == []) is ok, shift


def test_penalized_tolerance_matches_program_budget(penalized):
    spec, params, u = penalized
    fld = checks.SolutionField.from_interior_vector(spec.grid, u)
    out = ctl.verify_value_equality(spec.problem, fld, "penalized",
                                    [np.array([0.0])], 64, 11,
                                    params=params, eps=0.1)
    e = out.entries[0]
    mine = checks.penalized_tolerance(spec, params, u, 0.1, e["stderr"])
    assert mine == pytest.approx(e["tolerance"], rel=1e-12)
    assert checks.interpolate_1d(spec.grid, u, 0.0) == \
        pytest.approx(e["field_value"], abs=1e-14)


def test_singular_check_rejects_a_control_cheaper_than_the_value(
        unconstrained, config_dir):
    spec, u, _ = unconstrained
    params = workloads._sde_params(spec)
    controls = workloads.singular_controls()
    ref = checks.interpolate_1d(spec.grid, u, 0.0)
    stderr = 0.004
    tols = [checks.singular_tolerance(spec, params, float(c.rate), stderr)
            for c in controls]

    def run(means):
        entries = [{"mc_mean": m, "stderr": stderr} for m in means]
        return checks.singular_mc(spec, params, u, controls, entries, [0.0],
                                  "u")

    assert run([ref, ref + 0.1, ref + 0.1]) == []
    assert run([ref - 2 * tols[0], ref + 0.1, ref + 0.1])
    assert run([ref, ref - 2 * tols[1], ref + 0.1])
    assert run([ref, ref + 0.1, ref - 2 * tols[2]])

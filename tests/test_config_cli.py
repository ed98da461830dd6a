import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import CONFIGS
from gradcap.config import build_spec, emit, load_config
from gradcap.errors import ParseError, ValidationError


def base_config(**overrides):
    cfg = {
        "domain": {"type": "box", "lo": [-1.0], "hi": [1.0]},
        "h": 0.0625,
        "coefficients": {"a": 1.0, "b": [0.0], "c": 1.0, "h": 2.0, "g": 10.0},
    }
    cfg.update(overrides)
    return cfg


def test_shipped_configs_load(config_paths):
    for path in config_paths:
        spec = load_config(path)
        assert spec.grid.n_interior >= 3
        assert spec.config_hash


def test_round_trip(config_paths):
    for path in config_paths:
        spec = load_config(path)
        again = build_spec(emit(spec))
        assert again == spec
        assert again.config_hash == spec.config_hash


def test_settings_default_from_the_normalized_config():
    from gradcap.nidd import SolverOptions
    spec = build_spec(base_config())
    assert spec.solver_options == SolverOptions()
    assert spec.normalized["quadrature"] == {"delta": 1e-3,
                                             "n_per_decade": 16}
    spec = build_spec(base_config(solver={"max_iter": 7}))
    assert spec.solver_options == SolverOptions(max_iter=7)
    for section in ("quadrature", "solver", "sde"):
        with pytest.raises(ValidationError) as err:
            build_spec(base_config(**{section: [1.0]}))
        assert err.value.field_path == section


@pytest.mark.parametrize("block", ["levy", "jump_density"])
def test_null_block_rejected(block):
    # null states no default, so it is rejected like a null solver, sde or
    # quadrature block; accepted, it would move the hash of an unchanged
    # problem
    with pytest.raises(ValidationError, match="expected an object") as err:
        build_spec(base_config(**{block: None}))
    assert err.value.field_path == block


def test_unknown_key_rejected():
    with pytest.raises(ValidationError) as err:
        build_spec(base_config(bogus=1))
    assert "bogus" in str(err.value)
    # the solver has one nonlinear path, so these former knobs are unknown
    for key, value in (("damping", 0.7), ("fold_nonlocal", True)):
        with pytest.raises(ValidationError) as err:
            build_spec(base_config(solver={key: value}))
        assert key in str(err.value)


@pytest.mark.parametrize("name, a", [
    ("example_2d_ball", [[1.0, 1.0], [1.0, 1.0]]),
    ("example_1d_control", 0.0)])
def test_diffusion_not_positive_definite_rejected(name, a):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["coefficients"]["a"] = a
    with pytest.raises(ValidationError) as err:
        build_spec(cfg)
    assert err.value.field_path == "coefficients.a"
    assert "positive definite" in str(err.value)


def test_discount_is_the_constant_c():
    assert build_spec(base_config()).q == 1.0
    cfg = base_config()
    cfg["coefficients"]["c"] = "1.0 + x*x"
    assert build_spec(cfg).q is None


def test_c_zero_rejected_with_positivity_message():
    cfg = base_config()
    cfg["coefficients"]["c"] = 0.0
    with pytest.raises(ValidationError) as err:
        build_spec(cfg)
    assert "> 0" in str(err.value)


def test_alpha_above_one_rejected_citing_bounded_variation():
    cfg = base_config(levy={"type": "bv_density", "kappa": 1.0, "alpha": 1.5,
                            "delta": 1e-4, "zmax": 1.0, "rays": [[1.0]]})
    with pytest.raises(ValidationError) as err:
        build_spec(cfg)
    assert "bounded variation" in str(err.value)


def test_negative_g_rejected():
    cfg = base_config()
    cfg["coefficients"]["g"] = -1.0
    with pytest.raises(ValidationError):
        build_spec(cfg)


def test_too_coarse_grid_rejected():
    cfg = base_config(h=0.6)
    cfg["domain"] = {"type": "box", "lo": [0.0], "hi": [1.0]}
    with pytest.raises(ValidationError):
        build_spec(cfg)


def test_bad_schedule_rejected():
    with pytest.raises(ValidationError):
        build_spec(base_config(eps_schedule=[0.1, 0.2]))


def test_expression_security():
    cfg = base_config()
    cfg["coefficients"]["h"] = "__import__('os').system('true')"
    with pytest.raises(ValidationError):
        build_spec(cfg)
    cfg["coefficients"]["h"] = "y + 1.0"  # no y in 1d
    with pytest.raises(ValidationError):
        build_spec(cfg)


def test_jump_density_range_validated():
    cfg = base_config(jump_density={"type": "constant", "value": 1.3})
    with pytest.raises(ValidationError):
        build_spec(cfg)
    # s reaches 1.5 only near x = 0.9, far from the first grid points
    cfg = json.loads((CONFIGS / "example_1d_control.json").read_text())
    cfg["jump_density"] = {"type": "expr",
                           "body": "1.0 + 0.5*exp(-1000*(x-0.9)**2)"}
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        build_spec(cfg)


def test_parse_error_reports_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json }")
    with pytest.raises(ParseError) as err:
        load_config(bad)
    assert "line" in str(err.value)


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "gradcap", *args],
                          capture_output=True, text=True)
    return proc


def small_config(tmp_path):
    cfg = base_config(h=0.03125)
    path = tmp_path / "small.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_solve_nidd_and_residual_roundtrip(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "u.csv"
    rep = tmp_path / "rep.json"
    proc = run_cli("solve-nidd", "--config", str(cfg), "--eps", "0.1",
                   "--out", str(out), "--report", str(rep))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(rep.read_text())
    assert report["converged"]
    res_out = tmp_path / "res.json"
    proc2 = run_cli("residual", "--config", str(cfg), "--field", str(out),
                    "--out", str(res_out))
    assert proc2.returncode == 0, proc2.stderr
    res = json.loads(res_out.read_text())
    assert res["pde_pos"] <= 1e-6
    assert res["config_hash"] == report["config_hash"]


def test_cli_missing_config_exit_2(tmp_path):
    proc = run_cli("solve-nidd", "--config", str(tmp_path / "absent.json"),
                   "--eps", "0.1", "--out", str(tmp_path / "u.csv"))
    assert proc.returncode == 2


def test_cli_validation_error_exit_2(tmp_path):
    cfg = base_config()
    cfg["coefficients"]["c"] = 0.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli("solve-nidd", "--config", str(path), "--eps", "0.1",
                   "--out", str(tmp_path / "u.csv"))
    assert proc.returncode == 2
    assert "config error" in proc.stderr


@pytest.mark.parametrize("name", ["example_1d_tight", "example_1d_control"])
@pytest.mark.parametrize("quad", [{"delta": 0.0},
                                  {"delta": float("nan")},
                                  {"n_per_decade": 3},
                                  {"delta": True},
                                  {"n_per_decade": float("inf")}])
def test_cli_bad_quadrature_exit_2(tmp_path, capsys, name, quad):
    # example_1d_tight has no levy block, example_1d_control has one; the
    # error names the one bad key (true is no delta of 1, Infinity no count)
    from gradcap.cli import main
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["quadrature"] = quad
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "u.csv"
    assert main(["solve-hjb", "--config", str(path), "--out", str(out)]) == 2
    (key,) = quad
    assert f"config error: quadrature.{key}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, block, setting", [
    ("solve-nidd", "solver", {"max_iter": "7"}),
    ("simulate", "sde", {"dt": "0.001"}),
    ("simulate", "sde", {"jump_truncation": -1}),
])
def test_cli_bad_setting_exit_2(tmp_path, capsys, command, block, setting):
    from gradcap.cli import main
    cfg = json.loads((CONFIGS / "example_1d_control.json").read_text())
    cfg.setdefault(block, {}).update(setting)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    args = {"solve-nidd": ["--eps", "0.1"],
            "simulate": ["--policy", "null", "--x0", "0.0", "--paths", "20"]}
    assert main([command, "--config", str(path), "--out", str(out)]
                + args[command]) == 2
    key = next(iter(setting))
    assert f"config error: {block}.{key}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("block, key, value", [
    ("solver", "max_iter", True), ("solver", "max_iter", 0),
    ("solver", "max_iter", 2.5), ("solver", "tol_res_factor", 0.0),
    ("solver", "tol_update_factor", float("inf")),
    ("sde", "t_max", float("nan")), ("sde", "dt", False),
    ("sde", "dt", -1e-3), ("sde", "jump_truncation", None),
])
def test_bad_settings_rejected(block, key, value):
    with pytest.raises(ValidationError, match=f"{block}.{key}"):
        build_spec(base_config(**{block: {key: value}}))


def test_horizon_is_14_over_q():
    # a config states no horizon: the simulation runs to 14 / q, q = c
    from gradcap.control import sde_from_problem
    cfg = base_config(sde={"dt": 1e-3})
    cfg["coefficients"]["c"] = 2.0
    spec = build_spec(cfg)
    assert spec.sde == {"dt": 1e-3}
    assert sde_from_problem(spec.problem, **spec.sde).t_max == 7.0


@pytest.mark.parametrize("block, key", [
    ("coefficients", "theta"), ("config", "q"), ("sde", "jump_truncation"),
    ("quadrature", "r"), ("sde", "t_max")])
def test_cli_restated_problem_fact_is_unknown_key_exit_2(tmp_path, capsys,
                                                        block, key):
    # the ellipticity floor, the discount, the jump truncation, the largest
    # jump and the horizon follow from a, c, quadrature.delta, the levy
    # block and 14 / c, so a config may not state them again
    from gradcap.cli import main
    cfg = json.loads((CONFIGS / "example_1d_control.json").read_text())
    value = {"theta": 0.09, "q": 2.0, "jump_truncation": 1e-3, "r": 2.0,
             "t_max": 7.0}[key]
    (cfg if block == "config" else cfg.setdefault(block, {}))[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert main(["simulate", "--config", str(path), "--policy", "null",
                 "--x0", "0.0", "--paths", "20", "--out", str(out)]) == 2
    assert f"config error: {block}.{key}: unknown key" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("block, value, field", [
    ("coefficients", {"c": "2.0 + x*x"}, "coefficients.c"),
    ("jump_density", {"type": "constant", "value": 0.5}, "jump_density")])
def test_cli_unsimulable_problem_names_its_field_exit_2(tmp_path, capsys,
                                                       block, value, field):
    # a varying discount or a jump density s != 1 is a fact of the problem,
    # reported under the config field that states it
    from gradcap.cli import main
    cfg = json.loads((CONFIGS / "example_1d_control.json").read_text())
    cfg[block].update(value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert main(["simulate", "--config", str(path), "--policy", "null",
                 "--x0", "0.0", "--paths", "20", "--out", str(out)]) == 2
    assert f"config error: {field}: simulation requires" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, field", [
    ("c", True, "coefficients.c: expected a finite number"),
    ("g", float("nan"), "coefficients.g: expected a finite number"),
    ("h", float("inf"), "coefficients.h: expected a finite number"),
    ("b", [float("inf")], "coefficients.b[0]: expected a finite number"),
    ("a", [[True]], "coefficients.a[0][0]: expected a finite number"),
    ("a", [["0.1"]], "coefficients.a[0][0]: expected a number"),
    ("a", [["x"]], "coefficients.a[0][0]: expected a number"),
    ("g", 10**400, "coefficients.g: expected a finite number"),
    ("h", "x + True", "coefficients.h: only numeric constants"),
    ("h", "log(x)", "coefficients: h must be finite"),
])
def test_cli_bool_or_non_finite_coefficient_exit_2(tmp_path, capsys, key,
                                                   value, field):
    # JSON's true, NaN and Infinity are not coefficients, nor is a string
    # matrix entry, an integer past the float range or an expression that
    # is not finite at some node (log(x) for x <= 0)
    from gradcap.cli import main
    cfg = json.loads((CONFIGS / "example_1d_control.json").read_text())
    cfg["coefficients"][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "u.csv"
    with np.errstate(all="ignore"):
        code = main(["solve-hjb", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert f"config error: {field}" in capsys.readouterr().err
    assert not out.exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("name, where, value, field", [
    ("example_1d_control", ("h",), NAN, "h: expected a positive finite"),
    ("example_1d_control", ("h",), True, "h: expected a positive finite"),
    ("example_1d_control", ("eps_schedule", 2), NAN,
     "eps_schedule[2]: expected a finite number"),
    ("example_1d_control", ("domain", "hi", 0), "1",
     "domain.hi[0]: expected a number"),
    ("example_1d_control", ("domain", "lo", 0), True,
     "domain.lo[0]: expected a finite number"),
    ("example_1d_control", ("levy", "atoms", 0, 0), NAN,
     "levy.atoms[0][0]: expected a finite number"),
    ("example_1d_control", ("levy", "atoms", 0, 1), INF,
     "levy.atoms[0][1]: expected a finite number"),
    ("example_1d_control", ("levy", "atoms", 0, 0), True,
     "levy.atoms[0][0]: expected a finite number"),
    ("example_2d_ball", ("levy", "kappa"), "0.5",
     "levy.kappa: expected a number"),
    ("example_2d_ball", ("levy", "kappa"), INF,
     "levy.kappa: expected a finite number"),
    ("example_2d_ball", ("levy", "alpha"), NAN,
     "levy.alpha: expected a finite number"),
    ("example_2d_ball", ("levy", "lambda"), NAN,
     "levy.lambda: expected a finite number"),
    ("example_2d_ball", ("levy", "zmax"), INF,
     "levy.zmax: expected a finite number"),
    ("example_2d_ball", ("levy", "rays", 0, 1), NAN,
     "levy.rays[0][1]: expected a finite number"),
    ("example_2d_ball", ("domain", "radius"), True,
     "domain.radius: expected a finite number"),
    ("example_2d_ball", ("domain", "center", 0), NAN,
     "domain.center[0]: expected a finite number"),
    ("example_1d_control", ("eps_schedule", 0), "0.5",
     "eps_schedule[0]: expected a number"),
    ("example_1d_control", ("jump_density", "value"), True,
     "jump_density.value: expected a finite number"),
])
def test_cli_bad_number_outside_coefficients_exit_2(tmp_path, capsys, name,
                                                    where, value, field):
    # as for the coefficients: JSON's true, NaN and Infinity and numbers
    # written as strings are not numbers of the grid, the eps schedule,
    # the domain, the jump measure (zmax bounds the quadrature, so it must
    # be finite too) or the jump density
    from gradcap.cli import main
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    node = cfg
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "u.csv"
    assert main(["solve-nidd", "--config", str(path), "--eps", "0.1",
                 "--out", str(out)]) == 2
    assert f"config error: {field}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_2d_ball(tmp_path):
    # c is constant and s is 1, so the 2D ball's process can be simulated
    from gradcap.cli import main
    out = tmp_path / "out.json"
    assert main(["simulate", "--config",
                 str(CONFIGS / "example_2d_ball.json"), "--policy", "null",
                 "--x0", "0.0,0.0", "--paths", "20", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n_paths"] == 20 and payload["mean"] > 0


def test_cli_solver_failure_exit_1_with_best_iterate(tmp_path):
    cfg = base_config(h=0.015625)
    cfg["coefficients"]["h"] = 10.0
    cfg["coefficients"]["g"] = 0.5
    cfg["solver"] = {"max_iter": 2}
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "u.csv"
    proc = run_cli("solve-nidd", "--config", str(path), "--eps", "0.02",
                   "--out", str(out))
    assert proc.returncode == 1
    assert out.exists()  # best iterate still written


def test_cli_solve_hjb_writes_report(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "u.csv"
    rep = tmp_path / "rep.json"
    proc = run_cli("solve-hjb", "--config", str(cfg), "--out", str(out),
                   "--report", str(rep))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(rep.read_text())
    assert report["complementarity"] <= 1e-6
    assert len(report["eps_trace"]) >= 1


def test_cli_json_artifact_keys(tmp_path):
    """Each JSON artifact carries exactly these keys, so a field added to a
    report dataclass shows here as a schema change."""
    from gradcap.cli import main
    cfg = str(small_config(tmp_path))
    field = str(tmp_path / "u.csv")
    out = {name: tmp_path / f"{name}.json"
           for name in ("nidd", "hjb", "residual", "simulate")}
    assert main(["solve-nidd", "--config", cfg, "--eps", "0.1",
                 "--out", field, "--report", str(out["nidd"])]) == 0
    assert main(["solve-hjb", "--config", cfg,
                 "--out", str(tmp_path / "hjb.csv"),
                 "--report", str(out["hjb"])]) == 0
    assert main(["residual", "--config", cfg, "--field", field,
                 "--out", str(out["residual"])]) == 0
    assert main(["simulate", "--config",
                 str(CONFIGS / "example_1d_control.json"),
                 "--policy", "null", "--x0", "0.0", "--paths", "20",
                 "--out", str(out["simulate"])]) == 0
    keys = {name: set(json.loads(path.read_text()))
            for name, path in out.items()}
    assert keys == {
        "nidd": {"config_hash", "eps", "iterations", "residual_sup",
                 "final_update_norm", "bound_C1", "min_value", "max_value",
                 "grad_sup", "converged"},
        "hjb": {"config_hash", "eps_trace", "residual_pde_pos",
                "residual_grad_pos", "complementarity", "active_set_fraction",
                "grad_sup", "bound_C1", "iterations_total"},
        "residual": {"config_hash", "pde_pos", "grad_pos", "complementarity",
                     "active_set_fraction"},
        "simulate": {"config_hash", "policy", "x0", "mean", "stderr",
                     "n_paths", "seed", "dt", "discarded_bias_bound",
                     "max_rate_observed"},
    }


def test_csv_float_precision_lossless(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "u.csv"
    run_cli("solve-nidd", "--config", str(cfg), "--eps", "0.1",
            "--out", str(out))
    from gradcap.cli import read_field_csv
    spec = load_config(cfg)
    fld = read_field_csv(out, spec)
    from gradcap.nidd import solve_nidd
    rep = solve_nidd(spec.problem, 0.1, spec.solver_options)
    assert np.array_equal(fld.values, rep.solution.values)


def test_csv_rows_match_the_per_cell_format(tmp_path):
    # a row is written as one "%d" + ",%.17g" * k string; its bytes are
    # those of formatting each cell by itself, signed zeros, subnormals and
    # exponents included
    from gradcap.cli import write_field_csv
    from gradcap.geometry import SolutionField
    from gradcap.operators import interior_gradient
    spec = load_config(CONFIGS / "example_2d_ball.json")
    n = spec.grid.n_interior
    cells = [-0.0, 0.0, 5e-324, -2.5e-17, 1.5e22, 1 / 3, -7.0, 0.1, 1e-300]
    u = np.resize(cells, n)
    residual = np.resize(cells[::-1], n)
    path = tmp_path / "u.csv"
    write_field_csv(path, spec, SolutionField.from_interior_vector(
        spec.grid, u), residual)
    grad_norm = np.linalg.norm(interior_gradient(
        spec.grid, spec.problem.grad_ops(), u), axis=1)
    rows = [",".join([str(int(flat))] + [f"{float(c):.17g}" for c in
                                         (*pts, u[i], grad_norm[i],
                                          residual[i])])
            for i, (flat, pts) in enumerate(zip(spec.grid.interior_flat,
                                                spec.grid.interior_points()))]
    lines = path.read_text().splitlines()
    assert lines[2:] == rows
    assert {"-0", "4.9406564584124654e-324", "1.5e+22"} <= \
        set(",".join(rows).split(","))


def test_dump_matrix_flag(tmp_path):
    cfg = small_config(tmp_path)
    mtx = tmp_path / "gamma.mtx"
    proc = run_cli("solve-nidd", "--config", str(cfg), "--eps", "0.1",
                   "--out", str(tmp_path / "u.csv"), "--dump-matrix",
                   str(mtx))
    assert proc.returncode == 0, proc.stderr
    header = mtx.read_text().splitlines()[0]
    assert header.startswith("%%MatrixMarket")


def test_cli_verify_singular_mode(tmp_path):
    cfg_src = json.loads((CONFIGS / "example_1d_control.json").read_text())
    cfg = tmp_path / "ctl.json"
    cfg.write_text(json.dumps(cfg_src))
    out = tmp_path / "u.csv"
    proc = run_cli("solve-hjb", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    ver = tmp_path / "ver.json"
    proc2 = run_cli("verify", "--config", str(cfg), "--mode", "singular",
                    "--field", str(out), "--x0", "0.0", "--paths", "400",
                    "--seed", "3", "--rate-controls", "0.2",
                    "--out", str(ver))
    assert proc2.returncode == 0, proc2.stderr
    payload = json.loads(ver.read_text())
    assert payload["all_pass"]
    assert len(payload["entries"]) == 3  # null + two directed rate controls


def test_cli_simulate_constant_policy(tmp_path):
    cfg = CONFIGS / "example_1d_control.json"
    out = tmp_path / "cost.json"
    base = ("simulate", "--config", str(cfg), "--policy", "constant",
            "--x0", "0.0", "--paths", "20", "--rate", "0.3")
    proc = run_cli(*base, "--eps", "0.1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["max_rate_observed"] == 0.3
    missing_eps = run_cli(*base, "--out", str(out))
    assert missing_eps.returncode == 2
    assert "eps" in missing_eps.stderr
    zero_dir = run_cli(*base, "--eps", "0.1", "--direction", "0",
                       "--out", str(out))
    assert zero_dir.returncode == 2
    assert "direction must be nonzero" in zero_dir.stderr
    two_dims = run_cli(*base, "--eps", "0.1", "--direction", "1,0",
                       "--out", str(out))
    assert two_dims.returncode == 2


def control_field(tmp_path):
    """The shipped control config and a field CSV written for it."""
    from gradcap.cli import write_field_csv
    from gradcap.geometry import SolutionField
    cfg = CONFIGS / "example_1d_control.json"
    spec = load_config(cfg)
    x = spec.grid.interior_points()[:, 0]
    field = tmp_path / "u.csv"
    write_field_csv(field, spec,
                    SolutionField.from_interior_vector(spec.grid, 1.0 - x**2))
    return cfg, field


@pytest.mark.parametrize("eps", ["1.5", "0", "-0.1"])
def test_cli_penalized_eps_outside_unit_interval_exit_2(tmp_path, capsys,
                                                        eps):
    from gradcap.cli import main
    cfg, field = control_field(tmp_path)
    out = tmp_path / "out.json"
    common = ["--config", str(cfg), "--field", str(field), "--eps", eps,
              "--x0", "0.0", "--paths", "20", "--out", str(out)]
    for cmd in (["simulate", "--policy", "penalized"],
                ["verify", "--mode", "penalized"]):
        assert main(cmd + common) == 2, cmd
        assert "must lie in (0, 1)" in capsys.readouterr().err
    assert main(["solve-nidd", "--config", str(cfg), "--eps", eps,
                 "--out", str(out)]) == 2
    assert "config error: eps: --eps" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_fewer_than_two_paths(tmp_path, capsys):
    from gradcap.cli import main
    cfg, field = control_field(tmp_path)
    out = tmp_path / "out.json"
    for paths in ("1", "0", "-3"):
        for cmd in (["simulate", "--policy", "null"],
                    ["verify", "--mode", "singular", "--field", str(field)]):
            assert main(cmd + ["--config", str(cfg), "--x0", "0.0",
                               "--paths", paths, "--out", str(out)]) == 2
            assert "--paths" in capsys.readouterr().err
    assert not out.exists()
    assert main(["simulate", "--policy", "null", "--config", str(cfg),
                 "--x0", "0.0", "--paths", "2", "--out", str(out)]) == 0
    assert np.isfinite(json.loads(out.read_text())["stderr"])


@pytest.mark.parametrize("cmd, bad", [
    (["simulate", "--policy", "null"], ["--x0", "abc"]),
    (["simulate", "--policy", "null"], ["--x0", "0.0", "--x0", "0.5"]),
    (["simulate", "--policy", "constant", "--eps", "0.1", "--rate", "0.3"],
     ["--x0", "0.0", "--direction", "a"]),
    (["verify", "--mode", "singular"], ["--x0", "0.0,0.1"]),
    (["verify", "--mode", "singular"],
     ["--x0", "0.0", "--rate-controls", "x"]),
    (["verify", "--mode", "singular"],
     ["--x0", "0.0", "--rate-controls", "-0.5"]),
    (["verify", "--mode", "singular"],
     ["--x0", "0.0", "--rate-controls", "nan"]),
    (["simulate", "--policy", "null"], ["--x0", "nan"]),
    (["simulate", "--policy", "null"], ["--x0", "1.5"]),
    (["simulate", "--policy", "null"], ["--x0", "0.0", "--seed", "-5"]),
    (["verify", "--mode", "singular"], ["--x0", "0.0", "--x0", "1.0"]),
    (["verify", "--mode", "singular"], ["--x0", "0.0", "--seed", "-5"]),
    # each policy rejects the options it does not read
    (["simulate", "--policy", "null"], ["--x0", "0.0", "--rate", "5"]),
    (["simulate", "--policy", "null"], ["--x0", "0.0", "--direction", "1"]),
    (["simulate", "--policy", "null"], ["--x0", "0.0", "--eps", "0.1"]),
    (["simulate", "--policy", "null"], ["--x0", "0.0", "--field", "u.csv"]),
    (["simulate", "--policy", "penalized", "--field", "u.csv", "--eps",
      "0.1"], ["--x0", "0.0", "--rate", "0.3"]),
    (["simulate", "--policy", "penalized", "--field", "u.csv", "--eps",
      "0.1"], ["--x0", "0.0", "--direction", "1"]),
    (["simulate", "--policy", "constant", "--eps", "0.1", "--rate", "0.3"],
     ["--x0", "0.0", "--field", "u.csv"]),
])
def test_cli_bad_monte_carlo_input_exit_2(tmp_path, capsys, cmd, bad):
    from gradcap.cli import main
    cfg, field = control_field(tmp_path)
    out = tmp_path / "out.json"
    argv = cmd + bad + ["--config", str(cfg), "--paths", "20",
                        "--out", str(out)]
    if cmd[0] == "verify":
        argv += ["--field", str(field)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not out.exists()


def _tamper(lines, spec, case):
    """Break one thing in the lines of a valid field CSV."""
    row = 7  # a data row; line 0 is the hash, line 1 the column header
    if case == "config_hash":
        lines[0] = "# config_hash=" + "0" * len(spec.config_hash)
    elif case == "duplicate_row":
        lines[row] = lines[row + 1]
    else:
        # lattice node 0 is the corner x = -1, a boundary node
        bad = {"negative_index": "-1", "exterior_index": "0",
               "non_numeric_index": "5x"}[case]
        lines[row] = bad + lines[row][lines[row].index(","):]
    return lines


@pytest.mark.parametrize("case", ["duplicate_row", "negative_index",
                                  "exterior_index", "non_numeric_index",
                                  "config_hash"])
def test_read_field_csv_rejects_corrupt_field(tmp_path, case):
    from gradcap.cli import read_field_csv, write_field_csv
    from gradcap.geometry import SolutionField
    spec = load_config(CONFIGS / "example_1d_control.json")
    x = spec.grid.interior_points()[:, 0]
    fld = SolutionField.from_interior_vector(spec.grid, 1.0 - x**2)
    path = tmp_path / "u.csv"
    write_field_csv(path, spec, fld)
    assert np.array_equal(read_field_csv(path, spec).values, fld.values)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# config_hash={spec.config_hash}"
    path.write_text("\n".join(_tamper(lines, spec, case)) + "\n")
    with pytest.raises(ValidationError):
        read_field_csv(path, spec)

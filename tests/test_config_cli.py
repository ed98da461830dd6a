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
    assert spec.normalized["quadrature"] == {"delta": 1e-3, "r": 2.0,
                                             "n_per_decade": 16}
    spec = build_spec(base_config(solver={"max_iter": 7}))
    assert spec.solver_options == SolverOptions(max_iter=7)
    for section in ("quadrature", "solver", "sde"):
        with pytest.raises(ValidationError) as err:
            build_spec(base_config(**{section: [1.0]}))
        assert err.value.field_path == section


def test_unknown_key_rejected():
    with pytest.raises(ValidationError) as err:
        build_spec(base_config(bogus=1))
    assert "bogus" in str(err.value)
    # the solver has one nonlinear path, so these former knobs are unknown
    for key, value in (("damping", 0.7), ("fold_nonlocal", True)):
        with pytest.raises(ValidationError) as err:
            build_spec(base_config(solver={key: value}))
        assert key in str(err.value)


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
@pytest.mark.parametrize("quad", [{"delta": 3.0, "r": 2.0},
                                  {"delta": 2.0, "r": 2.0},
                                  {"n_per_decade": 3}])
def test_cli_bad_quadrature_exit_2(tmp_path, capsys, name, quad):
    # example_1d_tight has no levy block, example_1d_control has one
    from gradcap.cli import main
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["quadrature"] = quad
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "u.csv"
    assert main(["solve-hjb", "--config", str(path), "--out", str(out)]) == 2
    assert "config error: quadrature:" in capsys.readouterr().err
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


def test_null_horizon_means_the_default():
    spec = build_spec(base_config(sde={"t_max": None}))
    assert spec.sde["t_max"] is None


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


def short_control_config(tmp_path):
    cfg = json.loads((CONFIGS / "example_1d_control.json").read_text())
    cfg["sde"]["t_max"] = 0.5
    path = tmp_path / "ctl_short.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_simulate_constant_policy(tmp_path):
    cfg = short_control_config(tmp_path)
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


def short_control_field(tmp_path):
    """A short-horizon control config and a field CSV written for it."""
    from gradcap.cli import write_field_csv
    from gradcap.geometry import SolutionField
    cfg = short_control_config(tmp_path)
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
    cfg, field = short_control_field(tmp_path)
    out = tmp_path / "out.json"
    common = ["--config", str(cfg), "--field", str(field), "--eps", eps,
              "--x0", "0.0", "--paths", "20", "--out", str(out)]
    for cmd in (["simulate", "--policy", "penalized"],
                ["verify", "--mode", "penalized"]):
        assert main(cmd + common) == 2, cmd
        assert "must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_fewer_than_two_paths(tmp_path, capsys):
    from gradcap.cli import main
    cfg, field = short_control_field(tmp_path)
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

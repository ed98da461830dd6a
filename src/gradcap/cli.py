"""Command-line entry points: solve, residual evaluation, simulation,
and verification, with bit-stable CSV/JSON artifacts.

Exit codes: 0 success, 1 solver failure (best iterate still written when
available), 2 configuration or usage error.  All outputs embed the config
hash and the seed so results can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import control as ctl
from .config import load_config
from .errors import (ConfigError, GradcapError, MaxIterationsExceeded,
                     NotSimulable, ValidationError)
from .geometry import SolutionField
from .hjb import HjbOptions, hjb_residual, solve_hjb
from .nidd import solve_nidd
from .operators import interior_gradient


def write_field_csv(path, spec, fld, residual_per_node=None):
    grid = spec.grid
    pts = grid.interior_points()
    u = fld.interior_vector()
    grads = interior_gradient(grid, spec.problem.grad_ops(), u)
    grad_norm = np.linalg.norm(grads, axis=1)
    if residual_per_node is None:
        residual_per_node = np.zeros_like(u)
    coords = ["x"] if grid.dim == 1 else ["x", "y"]
    lines = [f"# config_hash={spec.config_hash}",
             "node_index," + ",".join(coords) + ",u,grad_norm,residual"]
    row_fmt = "%d" + ",%.17g" * (grid.dim + 3)
    table = np.column_stack([pts, u, grad_norm, residual_per_node])
    lines += [row_fmt % (flat, *row) for flat, row
              in zip(grid.interior_flat.tolist(), table.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_field_csv(path, spec):
    """Read a field CSV written for `spec`; the rows must name every
    interior node exactly once, and a config hash, if stamped, must match."""
    grid = spec.grid
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.readline()
        while line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            if key == "config_hash" and value != spec.config_hash:
                raise ValidationError(
                    "field", f"{path}: config_hash {value} does not match "
                    f"the config ({spec.config_hash})")
            line = fh.readline()
        header = line.strip().split(",")
        try:
            i_node = header.index("node_index")
            i_u = header.index("u")
        except ValueError as exc:
            raise ValidationError("field", f"{path}: missing column") from exc
        rows = [parts for parts in (ln.strip().split(",") for ln in fh)
                if len(parts) >= len(header)]
    try:
        nodes = np.array([int(parts[i_node]) for parts in rows],
                         dtype=np.int64)
        values = [float(parts[i_u]) for parts in rows]
    except ValueError as exc:
        raise ValidationError("field", f"{path}: {exc}") from exc
    size = grid.interior_row.size
    bad = (nodes < 0) | (nodes >= size)
    bad[~bad] = grid.interior_row[nodes[~bad]] < 0
    if np.any(bad):
        raise ValidationError(
            "field", f"{path}: node_index {nodes[bad][0]} is not an "
            "interior node")
    uniq, counts = np.unique(nodes, return_counts=True)
    if np.any(counts > 1):
        raise ValidationError(
            "field", f"{path}: node_index {uniq[counts > 1][0]} appears "
            f"{counts[counts > 1][0]} times")
    if nodes.size != grid.n_interior:
        raise ValidationError(
            "field", f"{path}: {nodes.size} rows but grid has "
            f"{grid.n_interior} interior nodes (wrong config?)")
    full = np.zeros(size)
    full[nodes] = values
    return SolutionField(grid, full.reshape(grid.shape))


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fields(report, *skip):
    """Every field of a report dataclass but `skip`, by name."""
    return {f.name: getattr(report, f.name)
            for f in dataclasses.fields(report) if f.name not in skip}


def cmd_solve_nidd(args):
    eps = _penalized_eps(args.eps, "solve-nidd")
    spec = load_config(args.config)
    try:
        rep = solve_nidd(spec.problem, eps, spec.solver_options)
        exit_code = 0
    except MaxIterationsExceeded as exc:
        rep = exc.report
        exit_code = 1
        print(f"warning: {exc}", file=sys.stderr)
    res = hjb_residual(spec.problem, rep.solution)
    write_field_csv(args.out, spec, rep.solution,
                    res["per_node"]["complementarity"])
    if args.report:
        _write_json(args.report, {"config_hash": spec.config_hash,
                                  **_fields(rep, "solution")})
    if args.dump_matrix:
        from scipy.io import mmwrite
        mmwrite(args.dump_matrix, spec.problem.matrix().gamma_matrix())
    return exit_code


def cmd_solve_hjb(args):
    spec = load_config(args.config)
    try:
        rep = solve_hjb(spec.problem, spec.eps_schedule,
                        HjbOptions(nidd=spec.solver_options))
        fld = rep.solution
    except MaxIterationsExceeded as exc:
        rep, fld = None, exc.report.solution
        print(f"error: {exc}", file=sys.stderr)
    res = hjb_residual(spec.problem, fld)
    write_field_csv(args.out, spec, fld, res["per_node"]["complementarity"])
    if rep is None:
        return 1
    if args.report:
        _write_json(args.report, {
            "config_hash": spec.config_hash,
            **_fields(rep, "solution", "nidd_reports")})
    return 0


def cmd_residual(args):
    spec = load_config(args.config)
    fld = read_field_csv(args.field, spec)
    res = hjb_residual(spec.problem, fld)
    del res["per_node"]
    payload = {"config_hash": spec.config_hash, **res}
    if args.out:
        _write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# the config field of each coefficient the simulator may reject
_COEFFICIENT_FIELDS = {"a": "coefficients.a", "c": "coefficients.c",
                       "s": "jump_density"}


def _sde_params(spec):
    try:
        return ctl.sde_from_problem(spec.problem, **spec.sde)
    except NotSimulable as exc:
        raise ValidationError(_COEFFICIENT_FIELDS[exc.coefficient],
                              str(exc)) from exc
    except ValueError as exc:
        raise ValidationError("sde", str(exc)) from exc


def _floats(text, what, dim=None):
    """The comma-separated numbers of option `--what`, `dim` of them if
    given."""
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValidationError(what, f"--{what} {text}: {exc}") from exc
    if dim is not None and len(vals) != dim:
        raise ValidationError(what, f"--{what} {text}: expected {dim} "
                              "comma-separated numbers")
    return vals


def _parse_x0(values, domain):
    """The start points of the `--x0` options, each inside the domain."""
    points = []
    for chunk in values:
        x0 = np.array(_floats(chunk, "x0", domain.dim))
        if not domain.contains(x0):
            raise ValidationError("x0", f"--x0 {chunk}: not inside the domain")
        points.append(x0)
    return points


def _check_sampling(args):
    if args.paths < 2:
        raise ValidationError("paths", f"--paths {args.paths}: a standard "
                              "error needs at least 2")
    if args.seed < 0:
        raise ValidationError("seed", f"--seed {args.seed}: must be "
                              "nonnegative")


def _penalized_eps(eps, what):
    if eps is None:
        raise ValidationError("eps", f"{what} needs --eps")
    if not 0.0 < eps < 1.0:
        raise ValidationError("eps", f"--eps {eps} must lie in (0, 1)")
    return eps


# the options each policy reads; it rejects any other of them
_POLICY_OPTIONS = {"penalized": ("field", "eps"), "null": (),
                   "constant": ("eps", "rate", "direction")}


def cmd_simulate(args):
    _check_sampling(args)
    for option in ("field", "eps", "rate", "direction"):
        if getattr(args, option) is not None \
                and option not in _POLICY_OPTIONS[args.policy]:
            raise ValidationError(option, f"--policy {args.policy} does not "
                                  f"read --{option}")
    spec = load_config(args.config)
    params = _sde_params(spec)
    if len(args.x0) != 1:
        raise ValidationError("x0", "simulate takes exactly one --x0")
    x0, = _parse_x0(args.x0, spec.grid.domain)
    if args.policy == "penalized":
        if not args.field:
            raise ValidationError("policy", "penalized policy needs --field")
        eps = _penalized_eps(args.eps, "penalized policy")
        fld = read_field_csv(args.field, spec)
        policy = ctl.PenalizedFeedback(fld, eps, spec.coeffs.g)
    elif args.policy == "null":
        # a zero rate pushes nowhere and costs nothing
        policy = ctl.SingularControlSpec(n=(1.0,) * spec.grid.dim)
    else:
        eps = _penalized_eps(args.eps, "constant policy")
        direction = _floats(args.direction, "direction", spec.grid.dim) \
            if args.direction else [1.0] * spec.grid.dim
        try:
            policy = ctl.ConstantRate(
                n=tuple(direction), eps=eps,
                rate=0.0 if args.rate is None else args.rate)
        except ValueError as exc:
            raise ValidationError("policy", str(exc)) from exc
    est, = ctl.estimate_jobs(params, [(policy, x0, args.paths, args.seed)])
    _write_json(args.out, {
        "config_hash": spec.config_hash,
        "policy": args.policy,
        "x0": [float(v) for v in np.atleast_1d(x0)],
        **_fields(est)})
    return 0


def cmd_verify(args):
    _check_sampling(args)
    spec = load_config(args.config)
    params = _sde_params(spec)
    fld = read_field_csv(args.field, spec)
    x0_list = _parse_x0(args.x0, spec.grid.domain)
    if args.mode == "penalized":
        eps = _penalized_eps(args.eps, "penalized mode")
        rep = ctl.verify_value_equality(
            spec.problem, fld, "penalized", x0_list, args.paths, args.seed,
            params=params, eps=eps)
    elif args.mode == "singular":
        dim = spec.grid.dim
        controls = [ctl.SingularControlSpec(n=(1.0,) * dim, rate=0.0)]
        for text in args.rate_controls:
            rate, = _floats(text, "rate-controls", 1)
            try:
                controls += [
                    ctl.SingularControlSpec(n=(1.0,) * dim, rate=rate),
                    ctl.SingularControlSpec(n=(-1.0,) + (0.0,) * (dim - 1),
                                            rate=rate)]
            except ValueError as exc:
                raise ValidationError("rate-controls", str(exc)) from exc
        rep = ctl.verify_value_equality(
            spec.problem, fld, "singular", x0_list, args.paths, args.seed,
            params=params, controls=controls)
    else:
        raise ValidationError("mode", f"unknown mode {args.mode!r}")
    payload = {
        "config_hash": spec.config_hash,
        "mode": args.mode,
        "entries": rep.entries,
        "all_pass": rep.all_pass,
        "seed": args.seed,
        "n_paths": args.paths,
    }
    _write_json(args.out, payload)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="gradcap",
        description="Gradient-constrained HJB solver for jump-diffusions "
                    "with Monte Carlo verification")
    sub = p.add_subparsers(dest="command", required=True)

    sn = sub.add_parser("solve-nidd", help="solve the penalized problem "
                        "at one eps")
    sn.add_argument("--config", required=True)
    sn.add_argument("--eps", type=float, required=True)
    sn.add_argument("--out", required=True)
    sn.add_argument("--report")
    sn.add_argument("--dump-matrix")
    sn.set_defaults(func=cmd_solve_nidd)

    sh = sub.add_parser("solve-hjb", help="run the eps-continuation")
    sh.add_argument("--config", required=True)
    sh.add_argument("--out", required=True)
    sh.add_argument("--report")
    sh.set_defaults(func=cmd_solve_hjb)

    rs = sub.add_parser("residual", help="re-evaluate residuals of a "
                        "stored field")
    rs.add_argument("--config", required=True)
    rs.add_argument("--field", required=True)
    rs.add_argument("--out")
    rs.set_defaults(func=cmd_residual)

    sm = sub.add_parser("simulate", help="Monte Carlo cost estimate")
    sm.add_argument("--config", required=True)
    sm.add_argument("--policy", required=True,
                    choices=["penalized", "null", "constant"])
    sm.add_argument("--field")
    sm.add_argument("--eps", type=float)
    sm.add_argument("--x0", action="append", required=True)
    sm.add_argument("--paths", type=int, default=10000)
    sm.add_argument("--seed", type=int, default=42)
    sm.add_argument("--rate", type=float)
    sm.add_argument("--direction")
    sm.add_argument("--out", required=True)
    sm.set_defaults(func=cmd_simulate)

    vf = sub.add_parser("verify", help="value-equality / suboptimality "
                        "verification")
    vf.add_argument("--config", required=True)
    vf.add_argument("--mode", required=True,
                    choices=["penalized", "singular"])
    vf.add_argument("--field", required=True)
    vf.add_argument("--eps", type=float)
    vf.add_argument("--x0", action="append", required=True)
    vf.add_argument("--paths", type=int, default=10000)
    vf.add_argument("--seed", type=int, default=42)
    vf.add_argument("--rate-controls", nargs="*", default=["0.25"])
    vf.add_argument("--out", required=True)
    vf.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GradcapError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

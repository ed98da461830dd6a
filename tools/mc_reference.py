"""Print a bit-identity reference of the solver and Monte Carlo outputs.

One line per case, pinning nothing: run it on two versions of the library
and compare the outputs with `diff`.

    python tools/mc_reference.py [--src DIR] > ref.txt

`--src` names the directory that holds the `gradcap` package (default: the
`src` of this checkout).  The CLI cases print the sha256 of each artifact
with its config-hash stamp left out (the `# config_hash=` line of a CSV,
the `config_hash` key of a JSON file), so a change to the config schema
that moves only the stamps leaves the reference unchanged:
the `solve-hjb` CSV and report of every shipped config; on
`example_1d_control`, the `solve-nidd` report at eps 0.1 and at eps 0.01
(a cold solve that the eps-continuation retries), the `residual` JSON of
the eps-0.1 field, `simulate` (null, constant and penalized policies) and
`verify` (penalized and singular modes) JSON; and the report of a cold
`solve-nidd` on `example_1d_tight` at eps 1e-4, where a bare Newton solve
fails and the continuation gets through.
The library cases print the node count and total mass in hex of the
`example_2d_ball` quadrature; the sha256 of the `PenalizedFeedback` node
table of every shipped config at eps 0.1, so that a change to the policy
shows even where no sampled path reads the moved column; and the mean,
standard error and largest push rate in hex of 2D estimates: penalized verification with compound-Poisson jumps in
the unit ball and in a box, an impulse along (1, 1), a callable rate, a
pooled call of four controls at two start points, and the same call with
one base seed for all eight jobs, as `verify` seeds its entries; the
exit flag, exit time (the horizon if the path did not exit) and cost of
one path under the impulse control; and a 1D singular `verify` of three
controls x 9000 paths, more seed groups than a normals buffer of 2^21
holds at full width.
Every control direction is a unit vector.  The whole run takes about 10 s
on two cores.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
PATHS = 1000


# the stamp line of a field CSV and of an indented JSON artifact
_STAMP = re.compile(rb'\s*(# config_hash=|"config_hash": )')


def _sha(path):
    lines = Path(path).read_bytes().splitlines(keepends=True)
    return hashlib.sha256(
        b"".join(ln for ln in lines if not _STAMP.match(ln))).hexdigest()


def _hex(est):
    return (f"mean={float(est.mean).hex()} stderr={float(est.stderr).hex()} "
            f"max_rate={float(est.max_rate_observed).hex()}")


def cli_cases(out):
    from gradcap.cli import main

    for cfg in sorted(CONFIGS.glob("*.json")):
        csv = out / f"{cfg.stem}_u.csv"
        report = out / f"{cfg.stem}_hjb.json"
        code = main(["solve-hjb", "--config", str(cfg), "--out", str(csv),
                     "--report", str(report)])
        yield (f"solve-hjb {cfg.stem} exit={code} {_sha(csv)} "
               f"report={_sha(report)}")

    tight = str(CONFIGS / "example_1d_tight.json")
    report = out / "tight_nidd.json"
    code = main(["solve-nidd", "--config", tight, "--eps", "0.0001",
                 "--out", str(out / "tight_u.csv"), "--report", str(report)])
    yield f"solve-nidd tight eps=0.0001 exit={code} report={_sha(report)}"

    cfg = str(CONFIGS / "example_1d_control.json")
    field = str(out / "u_eps.csv")
    report = out / "u_eps.json"
    code = main(["solve-nidd", "--config", cfg, "--eps", "0.1", "--out", field,
                 "--report", str(report)])
    yield f"solve-nidd control eps=0.1 exit={code} report={_sha(report)}"
    cold = out / "u_eps_0.01.json"
    code = main(["solve-nidd", "--config", cfg, "--eps", "0.01",
                 "--out", str(out / "u_eps_0.01.csv"), "--report", str(cold)])
    yield f"solve-nidd control eps=0.01 exit={code} report={_sha(cold)}"
    residual = out / "residual.json"
    code = main(["residual", "--config", cfg, "--field", field,
                 "--out", str(residual)])
    yield f"residual control exit={code} {_sha(residual)}"
    common = ["--config", cfg, "--paths", str(PATHS), "--seed", "42"]
    runs = {
        "simulate null": ["simulate", "--policy", "null", "--x0", "0.0"],
        "simulate constant": ["simulate", "--policy", "constant",
                              "--rate", "0.3", "--eps", "0.1",
                              "--x0", "0.2"],
        "simulate penalized": ["simulate", "--policy", "penalized",
                               "--field", field, "--eps", "0.1",
                               "--x0", "0.0"],
        "verify penalized": ["verify", "--mode", "penalized",
                             "--field", field, "--eps", "0.1",
                             "--x0", "0.0", "--x0", "0.4"],
        "verify singular": ["verify", "--mode", "singular",
                            "--field", field, "--x0", "0.0",
                            "--rate-controls", "0.25"],
    }
    for name, argv in runs.items():
        path = out / (name.replace(" ", "_") + ".json")
        code = main(argv + common + ["--out", str(path)])
        yield f"{name} exit={code} {_sha(path)}"


def _quadrature(levy, delta):
    """`build_quadrature(levy, delta)`; a library that still takes a tail
    cutoff R is given R = 2, above every jump of the cases here."""
    from gradcap.levy import build_quadrature

    try:
        return build_quadrature(levy, delta)
    except TypeError:
        return build_quadrature(levy, delta, 2.0)


def _problem_2d(domain):
    from gradcap.geometry import build_grid
    from gradcap.levy import CompoundPoisson, constant_density
    from gradcap.operators import Coefficients
    from gradcap.problem import Problem

    grid = build_grid(domain, 1 / 32)
    cp = CompoundPoisson(atoms=(((0.25, -0.2), 0.5),))
    co = dataclasses.replace(
        Coefficients.from_constants(2, a=0.15 * np.eye(2), b=(0.1, -0.05),
                                    c=1.5, g=0.6),
        h=lambda X: 3.0 * np.exp(-6.0 * np.sum(np.atleast_2d(X)**2, axis=1)))
    quad = _quadrature(cp, 1e-3)
    return Problem(grid, co, constant_density(1.0), quad), cp


def _penalized_verify(name, prob, params, x0s):
    from gradcap import control as ctl
    from gradcap.nidd import solve_nidd

    fld = solve_nidd(prob, 0.1).solution
    rep = ctl.verify_value_equality(prob, fld, "penalized", x0s, PATHS, 42,
                                    params=params, eps=0.1)
    for e in rep.entries:
        x0 = ",".join(f"{float(v):g}" for v in e["x0"])
        yield (f"{name} penalized verify x0={x0} "
               f"mean={e['mc_mean'].hex()} stderr={e['stderr'].hex()} "
               f"max_rate={e['max_rate_observed'].hex()} "
               f"tol={e['tolerance'].hex()} pass={e['pass']}")


def library_cases():
    from gradcap import control as ctl
    from gradcap.config import load_config
    from gradcap.geometry import Ball, Box
    from gradcap.nidd import solve_nidd

    quad = load_config(CONFIGS / "example_2d_ball.json").quad
    yield (f"quadrature 2d ball nodes={len(quad.weights)} "
           f"total_mass={quad.total_mass.hex()}")
    for cfg in sorted(CONFIGS.glob("*.json")):
        prob = load_config(cfg).problem
        policy = ctl.PenalizedFeedback(solve_nidd(prob, 0.1).solution, 0.1,
                                       prob.coeffs.g)
        table = np.ascontiguousarray(policy.table).tobytes()
        yield (f"feedback table {cfg.stem} eps=0.1 "
               f"{hashlib.sha256(table).hexdigest()}")

    prob, cp = _problem_2d(Ball(center=(0.0, 0.0), radius=1.0))
    params = ctl.sde_from_problem(prob, 1.5, t_max=4.0, levy=cp)
    x0s = [np.array([0.0, 0.0]), np.array([0.3, -0.2])]
    yield from _penalized_verify("2d", prob, params, x0s)
    box, _ = _problem_2d(Box(lo=(-1.0, -0.75), hi=(0.75, 1.0)))
    yield from _penalized_verify(
        "2d box", box, ctl.sde_from_problem(box, t_max=4.0), x0s[1:])

    impulse = ctl.SingularControlSpec(n=(0.0, -1.0), rate=0.2,
                                      pushes=((0.3, (1.0, 1.0), 0.1),))
    callable_rate = ctl.SingularControlSpec(
        n=(0.0, 1.0), rate=lambda t: 0.4 if t < 0.25 else 0.1)
    alone = {"impulse (1,1)": impulse, "callable rate": callable_rate}
    for name, control in alone.items():
        est, = ctl.estimate_jobs(params, [(control, x0s[1], PATHS, 7)])
        yield f"2d {name} {_hex(est)}"
    path, = ctl._simulate_pool(params, [(impulse, x0s[1], 1, 7)])
    exited = bool(path["exited"][0])
    exit_time = path["steps"][0] * params.dt if exited else params.t_max
    yield (f"2d impulse (1,1) path exited={exited} "
           f"exit_time={float(exit_time).hex()} "
           f"cost={float(path['cost'][0]).hex()}")

    controls = [
        ctl.SingularControlSpec(n=(1.0, 0.0), rate=0.0),
        ctl.ConstantRate(n=(1.0, 0.0), rate=0.3, eps=0.1),
        ctl.SingularControlSpec(n=(0.0, 1.0),
                                rate=lambda t: 0.4 if t < 0.25 else 0.1),
        ctl.SingularControlSpec(n=(0.0, -1.0), rate=0.2,
                                pushes=((0.3, (1.0, 1.0), 0.1),)),
    ]
    jobs = [(c, x0, 200, 40 + 200 * i) for i, c in enumerate(controls)
            for x0 in x0s]
    for i, est in enumerate(ctl.estimate_jobs(params, jobs)):
        yield f"2d pooled job {i} {_hex(est)}"
    # one base seed for every job, as `verify` seeds its entries: path i
    # of all eight jobs draws seed 40 + i
    shared = [(c, x0, n, 40) for c, x0, n, _ in jobs]
    for i, est in enumerate(ctl.estimate_jobs(params, shared)):
        yield f"2d shared-seed pooled job {i} {_hex(est)}"

    # 9000 seed groups, each of three paths, on example_1d_control
    prob = load_config(CONFIGS / "example_1d_control.json").problem
    fld = solve_nidd(prob, 0.1).solution
    singular = [ctl.SingularControlSpec(n=(1.0,), rate=0.0),
                ctl.SingularControlSpec(n=(1.0,), rate=0.25),
                ctl.SingularControlSpec(n=(-1.0,), rate=0.25)]
    rep = ctl.verify_value_equality(
        prob, fld, "singular", [np.array([0.0])], 9000, 42,
        params=ctl.sde_from_problem(prob, t_max=1.0), controls=singular)
    for i, e in enumerate(rep.entries):
        yield (f"1d singular verify 9000 paths control {i} "
               f"mean={e['mc_mean'].hex()} stderr={e['stderr'].hex()} "
               f"margin={e['margin'].hex()} pass={e['pass']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the gradcap package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        for line in cli_cases(Path(tmp)):
            print(line, flush=True)
    for line in library_cases():
        print(line, flush=True)


if __name__ == "__main__":
    main()

"""The benchmark's four workloads.

A workload has a set-up (what the CLI does before its first solve) and a
list of operations, each one CLI command's worth of library calls, made in
the order the commands make them: `load_config` -> `solve_hjb` /
`solve_nidd` -> `write_field_csv` / `read_field_csv` -> `hjb_residual` /
`verify_value_equality`.  Library calls go through module attributes, so
the wrappers of a traced round see them.  Inputs come from the seed alone.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

import gradcap.cli
import gradcap.config
import gradcap.control
import gradcap.geometry
import gradcap.hjb
import gradcap.nidd

import checks

# Monte Carlo base seeds: the engine seeds path i with base + i.  Every
# round of a run repeats the run's sample, so rounds do the same work and
# their times differ only by the machine; runs lie MC_SEED_STRIDE apart,
# so no two runs share a path.
MC_SEED_BASE = 1_000_000
MC_SEED_STRIDE = 1_000_000


def mc_base_seed(seed, n_paths):
    if n_paths > MC_SEED_STRIDE:
        raise ValueError(f"{n_paths} paths would reach the next seed's "
                         "paths")
    return MC_SEED_BASE + seed * MC_SEED_STRIDE


class Workload:
    """`setup()` returns per-config items; `ops(items, out)` lists the
    operations of one round; `check(items, out)` returns failures."""

    name = None
    configs = ()
    needs_sde = False

    def __init__(self, config_dir, out_dir, seed):
        self.config_dir = config_dir
        self.out_dir = out_dir
        self.seed = seed

    def setup(self):
        items = []
        for name in self.configs:
            spec = gradcap.config.load_config(self.config_dir / name)
            spec.problem.matrix()
            spec.problem.grad_ops()
            items.append({
                "name": name, "spec": spec,
                "params": _sde_params(spec) if self.needs_sde else None,
                "csv": self.out_dir / name.replace(".json", "_u.csv"),
            })
        return items

    def ops(self, items, out):
        ops = []
        for item in items:
            ops.append((f"solve-hjb {item['name']}", _solve_hjb(item, out)))
            ops.append((f"residual {item['name']}", _residual(item, out)))
        return ops

    def check(self, items, out):
        raise NotImplementedError

    @staticmethod
    def fingerprint(out):
        """Digest of every numeric output, to compare rounds bit for bit."""
        digest = hashlib.sha256()
        for name in sorted(out):
            digest.update(name.encode())
            for key in sorted(out[name]):
                digest.update(key.encode())
                for arr in _arrays(out[name][key]):
                    digest.update(np.ascontiguousarray(arr, float).tobytes())
        return digest.hexdigest()


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, dict):
                yield np.array([v["mc_mean"], v["stderr"]])
            else:
                yield v


def _sde_params(spec):
    sde = spec.sde
    return gradcap.control.sde_from_problem(
        spec.problem, spec.q, dt=sde.get("dt", 1e-3), t_max=sde.get("t_max"),
        jump_truncation=sde.get("jump_truncation", 1e-3), levy=spec.levy)


def _write(spec, fld, csv_path):
    res = gradcap.hjb.hjb_residual(spec.problem, fld)
    gradcap.cli.write_field_csv(csv_path, spec, fld,
                                res["per_node"]["complementarity"])


def _solve_hjb(item, out):
    def op():
        spec = item["spec"]
        opts = gradcap.hjb.HjbOptions(nidd=spec.solver_options)
        rep = gradcap.hjb.solve_hjb(spec.problem, spec.eps_schedule, opts)
        _write(spec, rep.solution, item["csv"])
        out[item["name"]] = {
            "u": rep.solution.interior_vector(),
            "stages": [r.solution.interior_vector()
                       for r in rep.nidd_reports],
        }
    return op


def _solve_nidd(item, eps, out):
    def op():
        spec = item["spec"]
        rep = gradcap.nidd.solve_nidd(spec.problem, eps, spec.solver_options)
        _write(spec, rep.solution, item["csv"])
        out[item["name"]] = {"u": rep.solution.interior_vector()}
    return op


def _residual(item, out):
    def op():
        spec = item["spec"]
        fld = gradcap.cli.read_field_csv(item["csv"], spec)
        res = gradcap.hjb.hjb_residual(spec.problem, fld)
        out[item["name"]].update(
            read_back=fld.interior_vector(),
            residual=np.array([res["pde_pos"], res["grad_pos"],
                               res["complementarity"]]))
    return op


def _verify(item, out, **kwargs):
    def op():
        spec = item["spec"]
        fld = gradcap.cli.read_field_csv(item["csv"], spec)
        rep = gradcap.control.verify_value_equality(
            spec.problem, fld, params=item["params"], **kwargs)
        out[item["name"]].update(read_back=fld.interior_vector(),
                                 entries=rep.entries)
    return op


def _field(spec, u_int):
    return gradcap.geometry.SolutionField.from_interior_vector(spec.grid,
                                                               u_int)


def _round_trip(item, res):
    spec = item["spec"]
    return checks.csv_round_trip(item["csv"], spec, res["u"],
                                 _field(spec, res["read_back"]), item["name"])


def _pde_checks(items, out, seed, complementarity_on=(), linear_on=()):
    fails = []
    for item in items:
        name, spec = item["name"], item["spec"]
        res = out[name]
        fails += _round_trip(item, res)
        fails += checks.operator_consistency(spec, seed, name)
        fails += checks.sandwich(spec, res["stages"], name)
        fails += checks.monotone(spec, res["stages"], name)
        if name in complementarity_on:
            fails += checks.complementarity(spec, res["read_back"], name)
        if name in linear_on:
            fails += checks.linear_roundoff(spec, res["read_back"], name)
    return fails


class Pde2dBall(Workload):
    """solve_hjb on the 2D ball: nonlocal assembly, GMRES, Newton LUs."""

    name = "pde_2d_ball"
    configs = ("example_2d_ball.json",)

    def check(self, items, out):
        return _pde_checks(items, out, self.seed,
                           complementarity_on=self.configs)


class Pde1dShipped(Workload):
    """solve_hjb on the four shipped 1D configs: direct, lagged-jump and
    Picard->Newton paths on small banded matrices."""

    name = "pde_1d_shipped"

    def __init__(self, config_dir, out_dir, seed):
        super().__init__(config_dir, out_dir, seed)
        # the seed fixes the order in which a round visits the configs
        order = ["example_1d_unconstrained.json", "example_1d_tight.json",
                 "example_1d_jumps.json", "example_1d_control.json"]
        random.Random(seed).shuffle(order)
        self.configs = tuple(order)

    def check(self, items, out):
        return _pde_checks(items, out, self.seed,
                           complementarity_on=("example_1d_tight.json",),
                           linear_on=("example_1d_unconstrained.json",))


class McPenalized(Workload):
    """solve_nidd at one eps, then the penalized value-equality check."""

    name = "mc_penalized"
    configs = ("example_1d_control.json",)
    needs_sde = True
    eps = 0.1
    x0 = (0.0,)

    def __init__(self, config_dir, out_dir, seed, n_paths=4096):
        super().__init__(config_dir, out_dir, seed)
        self.n_paths = n_paths

    def ops(self, items, out):
        item = items[0]
        return [
            (f"solve-nidd {item['name']}", _solve_nidd(item, self.eps, out)),
            (f"verify {item['name']}", _verify(
                item, out, mode="penalized",
                x0_list=[np.array([x]) for x in self.x0],
                n_paths=self.n_paths,
                base_seed=mc_base_seed(self.seed, self.n_paths),
                eps=self.eps)),
        ]

    def check(self, items, out):
        item = items[0]
        res = out[item["name"]]
        return _round_trip(item, res) + checks.penalized_mc(
            item["spec"], item["params"], res["read_back"], self.eps,
            res["entries"], self.x0, item["name"])


def singular_controls(dim=1, rates=(0.25,)):
    """The controls `verify --mode singular` builds: the null control and,
    per rate, a constant push along +e and along -e_1."""
    controls = [gradcap.control.SingularControlSpec(n=(1.0,) * dim,
                                                    rate=0.0)]
    for rate in rates:
        controls.append(gradcap.control.SingularControlSpec(
            n=(1.0,) * dim, rate=rate))
        controls.append(gradcap.control.SingularControlSpec(
            n=(-1.0,) + (0.0,) * (dim - 1), rate=rate))
    return controls


class McSingular(Workload):
    """solve_hjb, then one-sided dominance of the singular test controls
    where the gradient constraint never binds."""

    name = "mc_singular"
    configs = ("example_1d_unconstrained.json",)
    needs_sde = True
    x0 = (0.0,)

    def __init__(self, config_dir, out_dir, seed, n_paths=4000):
        super().__init__(config_dir, out_dir, seed)
        self.n_paths = n_paths
        self.controls = singular_controls()

    def ops(self, items, out):
        item = items[0]
        return [
            (f"solve-hjb {item['name']}", _solve_hjb(item, out)),
            (f"verify {item['name']}", _verify(
                item, out, mode="singular",
                x0_list=[np.array([x]) for x in self.x0],
                n_paths=self.n_paths,
                base_seed=mc_base_seed(self.seed, self.n_paths),
                controls=self.controls)),
        ]

    def check(self, items, out):
        item = items[0]
        res = out[item["name"]]
        return _round_trip(item, res) + checks.singular_mc(
            item["spec"], item["params"], res["read_back"], self.controls,
            res["entries"], self.x0, item["name"])


WORKLOADS = {cls.name: cls
             for cls in (Pde2dBall, Pde1dShipped, McPenalized, McSingular)}

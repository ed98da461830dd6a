"""In-memory span recorder and the wrappers that attribute time to layers.

Every wrapper is installed from outside the library, for the duration of
one traced round, around a public entry point of one layer: module
functions of gradcap, methods of its domain, operator, feedback and
penalty classes, the callables stored in SdeParams, and scipy's `splu` and
`gmres`.  Nothing inside `src/gradcap` changes.

A span's self time is its duration minus the durations of its child spans.
The round itself is the root span, so its self time is the part of the
round that no layer claims (`trace.unattributed_s`).  Counts are recorded
at the same boundaries.  Spans of the first traced round are kept in
memory and written out when the run ends; later rounds keep only their
per-layer totals.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import scipy.sparse.linalg as spla

import gradcap  # noqa: F401  (puts every gradcap module in sys.modules)
from gradcap.errors import MaxIterationsExceeded

ROOT = "round"

# per-layer metrics, in the order BENCHMARK.json lists them
TIME_METRICS = (
    "config.load_s", "geometry.grid_s", "geometry.interp_s",
    "geometry.exit_test_s", "levy.quadrature_s", "levy.sample_jumps_s",
    "penalty.legendre_s", "operators.assemble_s", "operators.nonlocal_s",
    "nidd.factor_s", "nidd.gmres_s", "nidd.linear_solve_s", "nidd.solve_s",
    "hjb.solve_s", "hjb.residual_s", "control.estimate_s", "control.policy_s",
    "control.sigma_s", "control.cost_eval_s", "control.drift_s",
    "control.step_self_s", "cli.write_csv_s", "cli.read_csv_s",
)
COUNT_METRICS = (
    "geometry.interp_calls", "levy.jumps_sampled", "operators.jump_nnz",
    "nidd.factor_count", "nidd.factor_nnz", "nidd.gmres_calls",
    "nidd.path_direct", "nidd.path_lag", "nidd.path_gmres",
    "nidd.solve_count", "nidd.iterations", "hjb.eps_stages", "hjb.substeps",
    "control.steps", "control.path_steps",
)


class Recorder:
    """Collects spans and counts of traced rounds, one round at a time."""

    def __init__(self):
        self.rounds = []        # per-round dicts of self times and counts
        self.kept_spans = []    # (name, start, end, parent) of round one
        self._reset()

    def _reset(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []
        self._spans = [] if not self.rounds else None
        self._lag_bounds = {}
        self.hook_s = 0.0

    def _enter(self, name):
        self.calls[name] += 1
        frame = [name, 0.0, -1]
        if self._spans is not None:
            frame[2] = len(self._spans)
            self._spans.append(None)
        self._stack.append(frame)
        return frame

    def _exit(self, frame, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        name = frame[0]
        self.self_s[name] += dur - frame[1]
        self.incl_s[name] += dur
        if self._stack:
            self._stack[-1][1] += dur
        if self._spans is not None:
            parent = self._stack[-1][2] if self._stack else -1
            self._spans[frame[2]] = (name, t0, t1, parent)

    def _hook(self, hook, args, kwargs, out, exc):
        """Run a count hook; its time is charged to no layer."""
        t0 = time.perf_counter()
        hook(self, args, kwargs, out, exc)
        dur = time.perf_counter() - t0
        self.hook_s += dur
        if self._stack:
            self._stack[-1][1] += dur

    def inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    @contextmanager
    def round(self):
        """Root span of one traced round; patches gradcap while it lasts."""
        self._reset()
        with installed(self):
            frame = self._enter(ROOT)
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self._exit(frame, t0, time.perf_counter())
        if self._spans is not None:
            self.kept_spans = self._spans
        self.rounds.append(self._summary())

    def _summary(self):
        s = self.self_s
        c = self.counts
        est_incl = self.incl_s["control.estimate"]
        out = {
            "config.load_s": s["config.load"],
            "geometry.grid_s": s["geometry.grid"],
            "geometry.interp_s": s["geometry.interp"],
            "geometry.exit_test_s": s["geometry.exit_test"],
            "levy.quadrature_s": s["levy.quadrature"],
            "levy.sample_jumps_s": s["levy.sample_jumps"],
            "penalty.legendre_s": s["penalty.legendre"],
            "operators.assemble_s": s["operators.assemble"],
            "operators.nonlocal_s": s["operators.nonlocal"],
            "nidd.factor_s": s["nidd.factor"],
            "nidd.gmres_s": s["nidd.gmres"],
            "nidd.linear_solve_s": s["nidd.linear_solve"],
            "nidd.solve_s": s["nidd.solve"],
            "hjb.solve_s": s["hjb.solve"],
            "hjb.residual_s": s["hjb.residual"],
            # inclusive: the whole Monte Carlo estimate with its children
            "control.estimate_s": est_incl,
            "control.policy_s": s["control.policy"],
            "control.sigma_s": s["control.sigma"],
            "control.cost_eval_s": s["control.cost_eval"],
            "control.drift_s": s["control.drift"],
            # the step loop itself: Euler update, RNG draws, jump application
            "control.step_self_s": s["control.estimate"],
            "cli.write_csv_s": s["cli.write_csv"],
            "cli.read_csv_s": s["cli.read_csv"],
            "geometry.interp_calls": self.calls["geometry.interp"],
            "levy.jumps_sampled": c["levy.jumps_sampled"],
            "operators.jump_nnz": c["operators.jump_nnz"],
            "nidd.factor_count": self.calls["nidd.factor"],
            "nidd.factor_nnz": c["nidd.factor_nnz"],
            "nidd.gmres_calls": self.calls["nidd.gmres"],
            "nidd.path_direct": c["nidd.path_direct"],
            "nidd.path_lag": c["nidd.path_lag"],
            "nidd.path_gmres": c["nidd.path_gmres"],
            "nidd.solve_count": self.calls["nidd.solve"],
            "nidd.iterations": c["nidd.iterations"],
            "hjb.eps_stages": c["hjb.eps_stages"],
            "hjb.substeps": c["hjb.nidd_calls"] - c["hjb.eps_stages"],
            "control.steps": c["control.steps"],
            "control.path_steps": c["control.path_steps"],
            "control.path_steps_per_s": (c["control.path_steps"] / est_incl
                                         if est_incl > 0 else 0.0),
            "trace.round_s": self.incl_s[ROOT],
            "trace.unattributed_s": s[ROOT],
            "trace.hook_s": self.hook_s,
        }
        return out

    def write(self, path, meta):
        """Write kept spans and per-round totals as one JSON document."""
        names = sorted({sp[0] for sp in self.kept_spans})
        ids = {n: i for i, n in enumerate(names)}
        t_base = self.kept_spans[0][1] if self.kept_spans else 0.0
        doc = {
            "meta": meta,
            "rounds": self.rounds,
            "first_round_spans": {
                "names": names,
                "columns": ["name", "start_s", "end_s", "parent"],
                "rows": [[ids[n], round(a - t_base, 7), round(b - t_base, 7),
                          p] for n, a, b, p in self.kept_spans],
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


def _wrap(rec, name, fn, hook=None):
    """Time `fn` as span `name`; `hook(rec, args, kwargs, out, exc)` then
    records counts, outside every span's self time."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = rec._enter(name)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            rec._exit(frame, t0, time.perf_counter())
            if hook is not None:
                rec._hook(hook, args, kwargs, None, exc)
            raise
        rec._exit(frame, t0, time.perf_counter())
        if hook is not None:
            rec._hook(hook, args, kwargs, out, None)
        return out

    return traced


# count hooks -------------------------------------------------------------

def _count_jumps(rec, args, kwargs, out, exc):
    if exc is None:
        rec.counts["levy.jumps_sampled"] += len(out)


def _count_jump_nnz(rec, args, kwargs, out, exc):
    if exc is None:
        rec.counts["operators.jump_nnz"] += out.jump_gather.nnz


def _count_fill(rec, args, kwargs, out, exc):
    if exc is None:
        rec.counts["nidd.factor_nnz"] += out.nnz


def _linear_path(rec, matrix, rhs, opts):
    """The path solve_linear_dirichlet takes, read from the public
    quantities that select it."""
    vec = rhs.interior_vector() if hasattr(rhs, "interior_vector") \
        else np.asarray(rhs, dtype=float)
    if not vec.size or float(np.max(np.abs(vec))) == 0.0:
        return None
    if (opts is not None and opts.fold_nonlocal) \
            or matrix.jump_gather.nnz == 0:
        return "direct"
    key = id(matrix)
    # the matrix is kept with its bound so that its id is not reused
    if key not in rec._lag_bounds:
        rec._lag_bounds[key] = (matrix, matrix.lag_contraction_bound())
    return "lag" if rec._lag_bounds[key][1] <= 0.7 else "gmres"


def _count_path(rec, args, kwargs, out, exc):
    matrix = args[0] if args else kwargs["matrix"]
    rhs = args[1] if len(args) > 1 else kwargs["rhs"]
    opts = args[2] if len(args) > 2 else kwargs.get("opts")
    path = _linear_path(rec, matrix, rhs, opts)
    if path is not None:
        rec.counts["nidd.path_" + path] += 1


def _count_nidd(rec, args, kwargs, out, exc):
    if exc is None:
        rec.counts["nidd.iterations"] += out.iterations
    elif isinstance(exc, MaxIterationsExceeded) and exc.report is not None:
        rec.counts["nidd.iterations"] += exc.report.iterations
    if rec.inside("hjb.solve"):
        rec.counts["hjb.nidd_calls"] += 1


def _count_stages(rec, args, kwargs, out, exc):
    if exc is None:
        rec.counts["hjb.eps_stages"] += len(out.eps_trace)


def _count_steps(rec, args, kwargs, out, exc):
    rec.counts["control.steps"] += 1
    rec.counts["control.path_steps"] += len(args[0])


def _trace_sde_callables(rec, args, kwargs, out, exc):
    """Route the SdeParams callables through spans."""
    if exc is not None:
        return
    out.drift = _wrap(rec, "control.drift", out.drift)
    out.sigma = _wrap(rec, "control.sigma", out.sigma)
    out.h_cost = _wrap(rec, "control.cost_eval", out.h_cost, _count_steps)
    out.g_cost = _wrap(rec, "control.cost_eval", out.g_cost)


def _untimed(fn, hook, rec):
    """Run `hook` on the result of `fn` without opening a span."""

    @functools.wraps(fn)
    def call(*args, **kwargs):
        out = fn(*args, **kwargs)
        rec._hook(hook, args, kwargs, out, None)
        return out

    return call


# installation ------------------------------------------------------------
# Targets are named, not imported: an entry point that a later version of
# the library drops is skipped, and its metric reads 0.

_FUNCTIONS = (
    ("config", "load_config", "config.load", None),
    ("geometry", "build_grid", "geometry.grid", None),
    ("geometry", "interp_weights", "geometry.interp", None),
    ("levy", "build_quadrature", "levy.quadrature", None),
    ("levy", "sample_jumps", "levy.sample_jumps", _count_jumps),
    ("operators", "assemble_linear_system", "operators.assemble",
     _count_jump_nnz),
    ("operators", "build_gradient_ops", "operators.assemble", None),
    ("operators", "build_nonlocal_parts", "operators.nonlocal", None),
    ("nidd", "solve_linear_dirichlet", "nidd.linear_solve", _count_path),
    ("nidd", "solve_nidd", "nidd.solve", _count_nidd),
    ("hjb", "solve_hjb", "hjb.solve", _count_stages),
    ("hjb", "hjb_residual", "hjb.residual", None),
    ("control", "estimate_penalized_value", "control.estimate", None),
    ("control", "estimate_singular_value", "control.estimate", None),
    ("cli", "write_field_csv", "cli.write_csv", None),
    ("cli", "read_field_csv", "cli.read_csv", None),
)

_METHODS = (
    ("geometry", "Box", "contains_batch", "geometry.exit_test"),
    ("geometry", "Ball", "contains_batch", "geometry.exit_test"),
    ("penalty", "PenaltyFn", "legendre_batch", "penalty.legendre"),
    ("control", "PenalizedFeedback", "rate_and_direction", "control.policy"),
    ("control", "PenalizedFeedback", "effort_price", "control.policy"),
    ("operators", "OperatorMatrix", "gamma_matrix", "operators.assemble"),
)

_SCIPY = (
    ("splu", "nidd.factor", _count_fill),
    ("gmres", "nidd.gmres", None),
)


def _gradcap_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gradcap"
                                  or name.startswith("gradcap."))]


def _lookup(module, *names):
    obj = sys.modules.get("gradcap." + module)
    for name in names:
        obj = getattr(obj, name, None)
    return obj


@contextmanager
def installed(rec):
    """Patch every reference to the traced entry points, then restore."""
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    modules = _gradcap_modules()
    replacements = []
    for module, attr, name, hook in _FUNCTIONS:
        fn = _lookup(module, attr)
        if fn is not None:
            replacements.append((fn, _wrap(rec, name, fn, hook)))
    sde = _lookup("control", "sde_from_problem")
    if sde is not None:
        replacements.append((sde, _untimed(sde, _trace_sde_callables, rec)))
    try:
        for fn, new in replacements:
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        patch(mod, attr, new)
        for module, cls_name, attr, name in _METHODS:
            cls = _lookup(module, cls_name)
            if cls is not None and attr in vars(cls):
                patch(cls, attr, _wrap(rec, name, vars(cls)[attr]))
        for attr, name, hook in _SCIPY:
            patch(spla, attr, _wrap(rec, name, getattr(spla, attr), hook))
        yield rec
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

"""Problem configuration: strict JSON parsing, validation, and assembly.

Configs are plain JSON with a fixed schema; unknown keys are rejected and
every violated standing assumption is reported with its field path.
Coefficient fields may be constants or small arithmetic expressions over the
coordinates (x, y), evaluated vectorized through a whitelisted AST.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (DivergentMeasure, EllipticityViolation, InvalidCutoffs,
                     ParseError, SpacingTooCoarse, ValidationError)
from .geometry import Ball, Box, build_grid
from .hjb import DEFAULT_EPS_SCHEDULE, check_eps_schedule
from .levy import (BVDensity, CompoundPoisson, JumpDensity, build_quadrature,
                   constant_density)
from .nidd import SolverOptions
from .operators import Coefficients
from .problem import Problem

_ALLOWED_FUNCS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt,
    "abs": np.abs, "tanh": np.tanh, "log": np.log,
}

_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Load,
    ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub,
    ast.UAdd,
)


def compile_expr(body, var_names, field_path):
    """Compile a whitelisted arithmetic expression into a vectorized callable.

    The returned function takes one numpy array per name of `var_names`,
    positionally and in that order, and evaluates elementwise.
    """
    try:
        tree = ast.parse(body, mode="eval")
    except SyntaxError as exc:
        raise ValidationError(field_path, f"bad expression: {exc}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValidationError(
                field_path, f"disallowed syntax {type(node).__name__!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) \
                    or node.func.id not in _ALLOWED_FUNCS or node.keywords:
                raise ValidationError(field_path, "disallowed function call")
        if isinstance(node, ast.Name) and node.id not in var_names \
                and node.id not in _ALLOWED_FUNCS:
            raise ValidationError(field_path, f"unknown name {node.id!r}")
        if isinstance(node, ast.Constant) and (
                isinstance(node.value, bool)
                or not isinstance(node.value, (int, float))):
            raise ValidationError(field_path, "only numeric constants allowed")
    args = ast.arguments(posonlyargs=[], args=[ast.arg(arg=name)
                                               for name in var_names],
                         kwonlyargs=[], kw_defaults=[], defaults=[])
    fn = ast.fix_missing_locations(ast.Expression(
        body=ast.Lambda(args=args, body=tree.body)))
    return eval(compile(fn, f"<{field_path}>", "eval"),
                {"__builtins__": {}, **_ALLOWED_FUNCS})


def _number(value, field_path):
    """Whether value is a number; a bool, or a number that is not a finite
    float (NaN, an infinity or an integer past the float range), is
    rejected."""
    if isinstance(value, bool) or isinstance(value, (int, float)) \
            and not abs(value) <= sys.float_info.max:
        raise ValidationError(field_path,
                              f"expected a finite number, got {value!r}")
    return isinstance(value, (int, float))


def _finite(value, field_path):
    """value as a float; anything but a finite number is rejected."""
    if not _number(value, field_path):
        raise ValidationError(field_path, f"expected a number, got {value!r}")
    return float(value)


def _finite_list(values, field_path, size=None):
    """The list `values` as a tuple of `_finite` floats, `size` of them if
    given."""
    if not isinstance(values, list) \
            or size is not None and len(values) != size:
        raise ValidationError(field_path, "expected a list of "
                              f"{size or 'finite'} numbers")
    return tuple(_finite(v, f"{field_path}[{k}]")
                 for k, v in enumerate(values))


def _scalar_field(value, dim, field_path):
    if _number(value, field_path):
        v = float(value)
        return lambda X: np.full(np.atleast_2d(X).shape[0], v)
    if isinstance(value, str):
        fn = compile_expr(value, ("x", "y")[:dim], field_path)

        def call(X):
            X = np.atleast_2d(np.asarray(X, dtype=float))
            out = fn(*X.T)
            # an array the expression computed is the caller's already; a
            # number, or a coordinate itself, is copied out to (n,)
            if isinstance(out, np.ndarray) and out.flags.owndata \
                    and out.dtype == float and out.shape == (X.shape[0],):
                return out
            return np.broadcast_to(np.asarray(out, dtype=float),
                                   (X.shape[0],)).astype(float)

        return call
    raise ValidationError(field_path, "expected a number or expression string")


def _expect_keys(d, path, required, optional=()):
    if not isinstance(d, dict):
        raise ValidationError(path, "expected an object")
    for key in d:
        if key not in required and key not in optional:
            raise ValidationError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in d:
            raise ValidationError(f"{path}.{key}", "missing required key")


def _positive_number(value, field_path):
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0 < value < math.inf:
        raise ValidationError(field_path,
                              f"expected a positive finite number, got "
                              f"{value!r}")


def _check_settings(solver, sde):
    """Types and ranges of the solver and sde settings."""
    value = solver.get("max_iter", 1)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError("solver.max_iter",
                              f"expected a positive integer, got {value!r}")
    for key, value in sde.items():
        _positive_number(value, f"sde.{key}")


def _parse_domain(d):
    _expect_keys(d, "domain", ("type",), ("lo", "hi", "center", "radius"))
    kind = d["type"]
    if kind == "box":
        _expect_keys(d, "domain", ("type", "lo", "hi"))
        lo = _finite_list(d["lo"], "domain.lo")
        hi = _finite_list(d["hi"], "domain.hi")
        try:
            return Box(lo=lo, hi=hi)
        except ValueError as exc:
            raise ValidationError("domain", str(exc)) from exc
    if kind == "ball":
        _expect_keys(d, "domain", ("type", "center", "radius"))
        center = _finite_list(d["center"], "domain.center")
        radius = _finite(d["radius"], "domain.radius")
        try:
            return Ball(center=center, radius=radius)
        except ValueError as exc:
            raise ValidationError("domain", str(exc)) from exc
    raise ValidationError("domain.type", f"unknown domain type {kind!r}")


def _parse_levy(d, dim):
    _expect_keys(d, "levy", ("type",),
                 ("atoms", "kappa", "alpha", "lambda", "delta", "zmax",
                  "rays"))
    kind = d["type"]
    if kind == "none":
        return None
    if kind == "compound_poisson":
        _expect_keys(d, "levy", ("type", "atoms"))
        if not isinstance(d["atoms"], list):
            raise ValidationError("levy.atoms", "expected a list of atoms")
        atoms = []
        for i, row in enumerate(d["atoms"]):
            # [z_1 .. z_dim, mass]
            *z, mass = _finite_list(row, f"levy.atoms[{i}]", dim + 1)
            atoms.append((tuple(z), mass))
        try:
            return CompoundPoisson(atoms=tuple(atoms))
        except ValueError as exc:
            raise ValidationError("levy.atoms", str(exc)) from exc
    if kind == "bv_density":
        _expect_keys(d, "levy",
                     ("type", "kappa", "alpha", "delta", "zmax", "rays"),
                     ("lambda",))
        num = {key: _finite(d[key], f"levy.{key}")
               for key in ("kappa", "alpha", "lambda", "delta", "zmax")
               if key in d}
        if not isinstance(d["rays"], list):
            raise ValidationError("levy.rays", "expected a list of rays")
        rays = tuple(_finite_list(r, f"levy.rays[{i}]", dim)
                     for i, r in enumerate(d["rays"]))
        try:
            return BVDensity(kappa=num["kappa"], alpha=num["alpha"],
                             lambda_temper=num.get("lambda", 0.0),
                             z_min=num["delta"], z_max=num["zmax"],
                             rays=rays)
        except DivergentMeasure as exc:
            raise ValidationError(
                "levy.alpha",
                f"{exc} (bounded variation requires alpha < 1)") from exc
        except ValueError as exc:
            raise ValidationError("levy", str(exc)) from exc
    raise ValidationError("levy.type", f"unknown levy type {kind!r}")


def _parse_jump_density(d, dim):
    _expect_keys(d, "jump_density", ("type",), ("value", "body"))
    kind = d["type"]
    if kind == "constant":
        _expect_keys(d, "jump_density", ("type", "value"))
        value = _finite(d["value"], "jump_density.value")
        try:
            return constant_density(value)
        except ValueError as exc:
            raise ValidationError("jump_density.value", str(exc)) from exc
    if kind == "expr":
        _expect_keys(d, "jump_density", ("type", "body"))
        names = ("x", "z") if dim == 1 else ("x", "y", "z0", "z1")
        fn = compile_expr(d["body"], names, "jump_density.body")

        def call(X, z):
            X = np.atleast_2d(np.asarray(X, dtype=float))
            z = np.atleast_1d(np.asarray(z, dtype=float))
            out = np.asarray(fn(*X.T, *z), dtype=float)
            return np.broadcast_to(out, (X.shape[0],)).astype(float)

        return JumpDensity(fn=call)
    raise ValidationError("jump_density.type", f"unknown type {kind!r}")


def _parse_matrix_field(value, dim, field_path):
    if _number(value, field_path):
        mat = np.eye(dim) * float(value)
    elif isinstance(value, list):
        if len(value) != dim:
            raise ValidationError(field_path, f"expected a {dim}x{dim} matrix")
        mat = np.array([_finite_list(row, f"{field_path}[{i}]", dim)
                        for i, row in enumerate(value)])
        if not np.allclose(mat, mat.T):
            raise ValidationError(field_path, "matrix must be symmetric")
    else:
        raise ValidationError(field_path, "expected a number or matrix")

    def call(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.broadcast_to(mat, (X.shape[0], dim, dim)).copy()

    return call


def _parse_vector_field(value, dim, field_path):
    if _number(value, field_path):
        value = [value] * dim
    if not isinstance(value, list) or len(value) != dim:
        raise ValidationError(field_path, f"expected {dim} components")
    # a numeric component is written as it is, an expression evaluated
    comps = [float(v) if _number(v, f"{field_path}[{k}]")
             else _scalar_field(v, dim, f"{field_path}[{k}]")
             for k, v in enumerate(value)]

    def call(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty((X.shape[0], dim))
        for k, comp in enumerate(comps):
            out[:, k] = comp(X) if callable(comp) else comp
        return out

    return call


def _parse_coefficients(d, dim):
    _expect_keys(d, "coefficients", ("a", "b", "c", "h", "g"))
    a_fn = _parse_matrix_field(d["a"], dim, "coefficients.a")
    b_fn = _parse_vector_field(d["b"], dim, "coefficients.b")
    c_fn = _scalar_field(d["c"], dim, "coefficients.c")
    h_fn = _scalar_field(d["h"], dim, "coefficients.h")
    g_fn = _scalar_field(d["g"], dim, "coefficients.g")
    return Coefficients(a=a_fn, b=b_fn, c=c_fn, h=h_fn, g=g_fn)


@dataclass
class ProblemSpec:
    """Validated problem: geometry, operator data, schedules, SDE settings;
    `q` is c if c is one constant (the simulated discount), else None."""

    grid: object
    problem: Problem
    eps_schedule: tuple
    solver_options: SolverOptions
    q: float
    sde: dict
    normalized: dict
    config_hash: str

    def __eq__(self, other):
        return isinstance(other, ProblemSpec) \
            and self.normalized == other.normalized

    @property
    def coeffs(self):
        return self.problem.coeffs

    @property
    def s(self):
        return self.problem.s

    @property
    def quad(self):
        return self.problem.quad

    @property
    def levy(self):
        return self.problem.quad.levy


_TOP_KEYS_REQ = ("domain", "h", "coefficients")
_TOP_KEYS_OPT = ("levy", "jump_density", "quadrature", "eps_schedule",
                 "solver", "sde")


def _normalize(raw):
    """Fill defaults into a canonical dict used for hashing and round trips."""
    out = {
        "domain": raw["domain"],
        "h": raw["h"],
        "coefficients": dict(raw["coefficients"]),
        "levy": raw.get("levy", {"type": "none"}),
        "jump_density": raw.get("jump_density",
                                {"type": "constant", "value": 1.0}),
        "quadrature": {
            "delta": raw.get("quadrature", {}).get("delta", 1e-3),
            "n_per_decade": raw.get("quadrature", {}).get("n_per_decade", 16),
        },
        "eps_schedule": raw.get("eps_schedule", list(DEFAULT_EPS_SCHEDULE)),
        "solver": raw.get("solver", {}),
        "sde": raw.get("sde", {}),
    }
    return out


def load_config(path):
    """Read, validate, and assemble a problem specification from JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, col {exc.colno}: "
            f"{exc.msg}") from exc
    return build_spec(raw)


def build_spec(raw):
    _expect_keys(raw, "config", _TOP_KEYS_REQ, _TOP_KEYS_OPT)
    domain = _parse_domain(raw["domain"])
    dim = domain.dim
    _positive_number(raw["h"], "h")
    try:
        grid = build_grid(domain, float(raw["h"]))
    except SpacingTooCoarse as exc:
        raise ValidationError("h", str(exc)) from exc

    coeffs = _parse_coefficients(raw["coefficients"], dim)
    try:
        coeffs.validate_on_grid(grid)
    except EllipticityViolation as exc:
        raise ValidationError("coefficients.a", str(exc)) from exc
    except ValueError as exc:
        raise ValidationError("coefficients", str(exc)) from exc

    _expect_keys(raw.get("quadrature", {}), "quadrature", (),
                 ("delta", "n_per_decade"))
    _expect_keys(raw.get("solver", {}), "solver", (), ("max_iter",))
    sde = raw.get("sde", {})
    _expect_keys(sde, "sde", (), ("dt",))
    _check_settings(raw.get("solver", {}), sde)
    normalized = _normalize(raw)
    levy = _parse_levy(normalized["levy"], dim)
    s = _parse_jump_density(normalized["jump_density"], dim)

    qd = {key: _finite(value, f"quadrature.{key}")
          for key, value in normalized["quadrature"].items()}
    try:
        quad = build_quadrature(levy, qd["delta"], qd["n_per_decade"])
    except InvalidCutoffs as exc:
        raise ValidationError("quadrature.delta", str(exc)) from exc
    except ValueError as exc:
        raise ValidationError("quadrature.n_per_decade", str(exc)) from exc

    # the operator reads s at every interior point and quadrature node
    probes = quad.nodes if quad.nodes.size else \
        [np.full(dim, 0.5), np.full(dim, -0.5)]
    pts = grid.interior_points()
    for z in probes:
        vals = s.eval(pts, z)
        if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-12):
            raise ValidationError("jump_density",
                                  "s(x, z) must take values in [0, 1]")

    try:
        arr = check_eps_schedule(_finite_list(normalized["eps_schedule"],
                                              "eps_schedule"))
    except ValueError as exc:
        raise ValidationError("eps_schedule", str(exc)) from exc

    problem = Problem(grid, coeffs, s, quad)
    blob = json.dumps(normalized, sort_keys=True,
                      separators=(",", ":")).encode()
    return ProblemSpec(
        grid=grid, problem=problem,
        eps_schedule=tuple(float(e) for e in arr),
        solver_options=SolverOptions(**normalized["solver"]),
        q=problem.discount(), sde=dict(sde), normalized=normalized,
        config_hash=hashlib.sha256(blob).hexdigest()[:16],
    )


def emit(spec):
    """Canonical JSON dict; build_spec(emit(spec)) reproduces the spec."""
    return json.loads(json.dumps(spec.normalized))

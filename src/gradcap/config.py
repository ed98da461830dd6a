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
from dataclasses import dataclass

import numpy as np

from .errors import (DivergentMeasure, EllipticityViolation, InvalidCutoffs,
                     ParseError, SpacingTooCoarse, ValidationError)
from .geometry import Ball, Box, build_grid
from .hjb import DEFAULT_EPS_SCHEDULE
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

    The returned function takes an environment dict of numpy arrays keyed by
    `var_names` and evaluates elementwise.
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
        if isinstance(node, ast.Constant) \
                and not isinstance(node.value, (int, float)):
            raise ValidationError(field_path, "only numeric constants allowed")
    code = compile(tree, f"<{field_path}>", "eval")

    def run(env):
        scope = dict(_ALLOWED_FUNCS)
        scope.update(env)
        return eval(code, {"__builtins__": {}}, scope)

    return run


def _coord_env(X, dim):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    env = {"x": X[:, 0]}
    if dim == 2:
        env["y"] = X[:, 1]
    return env


def _scalar_field(value, dim, field_path):
    if isinstance(value, (int, float)):
        v = float(value)
        return lambda X: np.full(np.atleast_2d(X).shape[0], v)
    if isinstance(value, str):
        names = {"x", "y"} if dim == 2 else {"x"}
        fn = compile_expr(value, names, field_path)

        def call(X):
            X = np.atleast_2d(np.asarray(X, dtype=float))
            out = np.asarray(fn(_coord_env(X, dim)), dtype=float)
            return np.broadcast_to(out, (X.shape[0],)).astype(float)

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
    for key, value in solver.items():
        if key == "max_iter":
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 1:
                raise ValidationError("solver.max_iter",
                                      f"expected a positive integer, got "
                                      f"{value!r}")
        else:
            _positive_number(value, f"solver.{key}")
    for key, value in sde.items():
        # a null horizon means the default, 14 / q
        if not (key == "t_max" and value is None):
            _positive_number(value, f"sde.{key}")


def _parse_domain(d):
    _expect_keys(d, "domain", ("type",), ("lo", "hi", "center", "radius"))
    kind = d["type"]
    if kind == "box":
        _expect_keys(d, "domain", ("type", "lo", "hi"))
        try:
            return Box(lo=tuple(d["lo"]), hi=tuple(d["hi"]))
        except (ValueError, TypeError) as exc:
            raise ValidationError("domain", str(exc)) from exc
    if kind == "ball":
        _expect_keys(d, "domain", ("type", "center", "radius"))
        try:
            return Ball(center=tuple(d["center"]), radius=d["radius"])
        except (ValueError, TypeError) as exc:
            raise ValidationError("domain", str(exc)) from exc
    raise ValidationError("domain.type", f"unknown domain type {kind!r}")


def _parse_levy(d, dim):
    if d is None:
        return None
    _expect_keys(d, "levy", ("type",),
                 ("atoms", "kappa", "alpha", "lambda", "delta", "zmax",
                  "rays"))
    kind = d["type"]
    if kind == "none":
        return None
    if kind == "compound_poisson":
        _expect_keys(d, "levy", ("type", "atoms"))
        atoms = []
        for i, row in enumerate(d["atoms"]):
            if not isinstance(row, list) or len(row) != dim + 1:
                raise ValidationError(
                    f"levy.atoms[{i}]",
                    f"expected [z_1..z_{dim}, mass]")
            atoms.append((tuple(row[:dim]), row[dim]))
        try:
            return CompoundPoisson(atoms=tuple(atoms))
        except ValueError as exc:
            raise ValidationError("levy.atoms", str(exc)) from exc
    if kind == "bv_density":
        _expect_keys(d, "levy",
                     ("type", "kappa", "alpha", "delta", "zmax", "rays"),
                     ("lambda",))
        try:
            return BVDensity(kappa=d["kappa"], alpha=d["alpha"],
                             lambda_temper=d.get("lambda", 0.0),
                             z_min=d["delta"], z_max=d["zmax"],
                             rays=tuple(tuple(r) for r in d["rays"]))
        except DivergentMeasure as exc:
            raise ValidationError(
                "levy.alpha",
                f"{exc} (bounded variation requires alpha < 1)") from exc
        except ValueError as exc:
            raise ValidationError("levy", str(exc)) from exc
    raise ValidationError("levy.type", f"unknown levy type {kind!r}")


def _parse_jump_density(d, dim):
    if d is None:
        return constant_density(1.0)
    _expect_keys(d, "jump_density", ("type",), ("value", "body", "lipschitz"))
    kind = d["type"]
    if kind == "constant":
        _expect_keys(d, "jump_density", ("type", "value"))
        try:
            return constant_density(d["value"])
        except ValueError as exc:
            raise ValidationError("jump_density.value", str(exc)) from exc
    if kind == "expr":
        _expect_keys(d, "jump_density", ("type", "body"), ("lipschitz",))
        names = {"x", "z"} if dim == 1 else {"x", "y", "z0", "z1"}
        fn = compile_expr(d["body"], names, "jump_density.body")

        def call(X, z):
            X = np.atleast_2d(np.asarray(X, dtype=float))
            env = _coord_env(X, dim)
            z = np.atleast_1d(np.asarray(z, dtype=float))
            if dim == 1:
                env["z"] = z[0]
            else:
                env["z0"], env["z1"] = z[0], z[1]
            out = np.asarray(fn(env), dtype=float)
            return np.broadcast_to(out, (X.shape[0],)).astype(float)

        return JumpDensity(fn=call, lipschitz_bound=d.get("lipschitz", 0.0))
    raise ValidationError("jump_density.type", f"unknown type {kind!r}")


def _parse_matrix_field(value, dim, field_path):
    if isinstance(value, (int, float)):
        mat = np.eye(dim) * float(value)
    elif isinstance(value, list):
        mat = np.asarray(value, dtype=float)
        if mat.shape != (dim, dim):
            raise ValidationError(field_path, f"expected a {dim}x{dim} matrix")
        if not np.allclose(mat, mat.T):
            raise ValidationError(field_path, "matrix must be symmetric")
    else:
        raise ValidationError(field_path, "expected a number or matrix")

    def call(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.broadcast_to(mat, (X.shape[0], dim, dim)).copy()

    return call, mat


def _parse_vector_field(value, dim, field_path):
    if isinstance(value, (int, float)):
        value = [value] * dim
    if not isinstance(value, list) or len(value) != dim:
        raise ValidationError(field_path, f"expected {dim} components")
    comps = [_scalar_field(v, dim, f"{field_path}[{k}]")
             for k, v in enumerate(value)]

    def call(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.column_stack([c(X) for c in comps])

    return call


def _parse_coefficients(d, dim):
    _expect_keys(d, "coefficients", ("a", "b", "c", "h", "g"), ("theta",))
    a_fn, a_mat = _parse_matrix_field(d["a"], dim, "coefficients.a")
    b_fn = _parse_vector_field(d["b"], dim, "coefficients.b")
    c_fn = _scalar_field(d["c"], dim, "coefficients.c")
    h_fn = _scalar_field(d["h"], dim, "coefficients.h")
    g_fn = _scalar_field(d["g"], dim, "coefficients.g")
    theta = d.get("theta")
    if theta is None:
        theta = 0.999 * float(np.min(np.linalg.eigvalsh(a_mat)))
    if theta <= 0:
        raise ValidationError("coefficients.theta",
                              "ellipticity floor must be positive")
    return Coefficients(a=a_fn, b=b_fn, c=c_fn, h=h_fn, g=g_fn,
                        theta=float(theta), dim=dim)


@dataclass
class ProblemSpec:
    """Validated problem: geometry, operator data, schedules, SDE settings."""

    domain: object
    grid: object
    problem: Problem
    levy: object
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


_TOP_KEYS_REQ = ("domain", "h", "coefficients")
_TOP_KEYS_OPT = ("levy", "jump_density", "quadrature", "eps_schedule",
                 "solver", "q", "sde")


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
            "r": raw.get("quadrature", {}).get("r", 2.0),
            "n_per_decade": raw.get("quadrature", {}).get("n_per_decade", 16),
        },
        "eps_schedule": raw.get("eps_schedule", list(DEFAULT_EPS_SCHEDULE)),
        "solver": raw.get("solver", {}),
        "q": raw.get("q"),
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
    if not isinstance(raw["h"], (int, float)) or raw["h"] <= 0:
        raise ValidationError("h", "grid spacing must be a positive number")
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

    levy = _parse_levy(raw.get("levy"), dim)
    s = _parse_jump_density(raw.get("jump_density"), dim)

    _expect_keys(raw.get("quadrature", {}), "quadrature", (),
                 ("delta", "r", "n_per_decade"))
    _expect_keys(raw.get("solver", {}), "solver", (),
                 ("tol_update_factor", "tol_res_factor", "max_iter"))
    sde = raw.get("sde", {})
    _expect_keys(sde, "sde", (), ("dt", "t_max", "jump_truncation"))
    _check_settings(raw.get("solver", {}), sde)
    normalized = _normalize(raw)

    qd = normalized["quadrature"]
    try:
        quad = build_quadrature(levy, qd["delta"], qd["r"], qd["n_per_decade"])
    except (InvalidCutoffs, ValueError, TypeError) as exc:
        raise ValidationError("quadrature", str(exc)) from exc

    # the operator reads s at every interior point and quadrature node
    probes = quad.nodes if quad.nodes.size else \
        [np.full(dim, 0.5), np.full(dim, -0.5)]
    pts = grid.interior_points()
    for z in probes:
        vals = s.eval(pts, z)
        if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-12):
            raise ValidationError("jump_density",
                                  "s(x, z) must take values in [0, 1]")

    arr = np.asarray(normalized["eps_schedule"], dtype=float)
    if arr.size == 0 or np.any(arr <= 0) or np.any(arr >= 1) \
            or np.any(np.diff(arr) >= 0):
        raise ValidationError(
            "eps_schedule", "must be strictly decreasing within (0, 1)")

    q_val = raw.get("q")
    if q_val is not None and (not isinstance(q_val, (int, float))
                              or q_val <= 0):
        raise ValidationError("q", "discount must be positive")

    problem = Problem(grid, coeffs, s, quad)
    blob = json.dumps(normalized, sort_keys=True,
                      separators=(",", ":")).encode()
    return ProblemSpec(
        domain=domain, grid=grid, problem=problem, levy=levy,
        eps_schedule=tuple(float(e) for e in arr),
        solver_options=SolverOptions(**normalized["solver"]),
        q=float(q_val) if q_val is not None else None,
        sde=dict(sde), normalized=normalized,
        config_hash=hashlib.sha256(blob).hexdigest()[:16],
    )


def emit(spec):
    """Canonical JSON dict; build_spec(emit(spec)) reproduces the spec."""
    return json.loads(json.dumps(spec.normalized))

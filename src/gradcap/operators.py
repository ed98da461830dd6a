"""Discrete local/nonlocal operator assembly and application.

The local part uses central second differences, first-order upwinding on the
drift, and (in 2D) the 7-point cross-derivative stencil that stays monotone
while |a12| <= min(a11, a22).  The nonlocal part evaluates the jump integral
with quadrature nodes, multilinear interpolation at x + z, and zero extension
outside the domain.  Interior rows of the assembled system form an M-matrix,
which is what the comparison diagnostics in the solvers rely on.  The
discrete gradient is one rule, stated at every lattice node: the
solver's penalty reads its interior rows, the feedback policy all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import EllipticityViolation, GridMismatch
from .geometry import INTERIOR, SolutionField, interp_weights


def _vectorize_scalar(f):
    def wrapped(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.asarray(f(X), dtype=float)
        return np.broadcast_to(out, (X.shape[0],)).astype(float)
    return wrapped


@dataclass(frozen=True)
class Coefficients:
    """Coefficient fields of the operator, as vectorized callables.

    a(X) -> (n, d, d) symmetric; b(X) -> (n, d); c, h, g map X -> (n,).
    """

    a: object
    b: object
    c: object
    h: object
    g: object

    @classmethod
    def from_constants(cls, dim, a=1.0, b=0.0, c=1.0, h=0.0, g=1.0):
        a_mat = np.asarray(a, dtype=float)
        if a_mat.ndim == 0:
            a_mat = np.eye(dim) * float(a_mat)
        b_vec = np.broadcast_to(np.asarray(b, dtype=float), (dim,)).copy()

        def a_fn(X):
            return np.broadcast_to(a_mat, (X.shape[0], dim, dim)).copy()

        def b_fn(X):
            return np.broadcast_to(b_vec, (X.shape[0], dim)).copy()

        return cls(a=a_fn, b=b_fn,
                   c=_vectorize_scalar(lambda X: float(c)),
                   h=_vectorize_scalar(lambda X: float(h)),
                   g=_vectorize_scalar(lambda X: float(g)))

    def validate_on_grid(self, grid):
        """Check the standing sign/ellipticity assumptions at grid nodes."""
        pts = grid.points()
        interior = grid.interior_points()
        vals = {"a": self.a(interior), "b": self.b(interior),
                "c": self.c(interior), "h": self.h(pts), "g": self.g(pts)}
        for name, v in vals.items():
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite at every node")
        if np.any(vals["c"] <= 0):
            raise ValueError("c must be > 0 at every interior node")
        if np.any(vals["h"] < 0):
            raise ValueError("h must be >= 0 on the grid")
        if np.any(vals["g"] < 0):
            raise ValueError("g must be >= 0 on the grid")
        a = vals["a"]
        # Sylvester's criterion for d <= 2: the leading minors a11 and det a
        det = a[:, 0, 0] if grid.dim == 1 \
            else a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        if not (np.all(a[:, 0, 0] > 0) and np.all(det > 0)):
            raise EllipticityViolation(
                "a must be positive definite at every interior node")


def _interior_neighbors(grid):
    """For each axis, the flat lattice indices of the plus and minus
    neighbors of every interior node and whether each is interior."""
    classes = grid.classes.ravel()
    multis = np.array(np.unravel_index(grid.interior_flat, grid.shape)).T
    info = []
    for k in range(grid.dim):
        step = np.zeros(grid.dim, dtype=int)
        step[k] = 1
        plus = np.ravel_multi_index((multis + step).T, grid.shape)
        minus = np.ravel_multi_index((multis - step).T, grid.shape)
        info.append((plus, minus,
                     classes[plus] == INTERIOR, classes[minus] == INTERIOR))
    return info


def build_node_gradient_ops(grid, nodes=None):
    """Sparse gradient operators from interior values to the lattice nodes
    `nodes` (flat indices, default every node), one per axis: the scheme's
    one discrete gradient.

    The field is read as its zero extension.  At a node, along each axis:
    central (u+ - u-) / 2h where both axis neighbors are interior;
    one-sided toward the interior one, (u - u-) / h or (u+ - u) / h with
    the node's own value u, where only one is; zero where neither is.
    """
    rows_of = grid.interior_row.reshape(grid.shape)
    if nodes is None:
        nodes = np.arange(rows_of.size)
    h = grid.h
    ops = []
    for k in range(grid.dim):
        # interior rows of each node's minus neighbor, itself and its plus
        # neighbor (-1 for none): increasing, as CSR orders a row
        minus = np.full(grid.shape, -1)
        plus = np.full(grid.shape, -1)
        head = (slice(None),) * k + (slice(1, None),)
        tail = (slice(None),) * k + (slice(None, -1),)
        minus[head] = rows_of[tail]
        plus[tail] = rows_of[head]
        cols = np.column_stack([minus.ravel(), rows_of.ravel(),
                                plus.ravel()])[nodes]
        m_in, p_in = cols[:, 0] >= 0, cols[:, 2] >= 0
        side = np.where(m_in & p_in, 1.0 / (2 * h), 1.0 / h)
        # the weights of u-, u and u+; u weighs in only one-sided, and a
        # node off the interior reads its own u as 0
        vals = np.column_stack([-side * m_in, (m_in * 1.0 - p_in) / h,
                                side * p_in])
        keep = (cols >= 0) & (vals != 0.0)
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        ops.append(sp.csr_matrix((vals[keep], cols[keep], indptr),
                                 shape=(len(nodes), grid.n_interior)))
    return ops


def build_gradient_ops(grid):
    """The interior rows of `build_node_gradient_ops`: interior-to-interior
    gradient operators, one per axis."""
    return build_node_gradient_ops(grid, grid.interior_flat)


def interior_gradient(grid, grad_ops, u_int):
    """Stack (n_int, d) of discrete gradient components."""
    return np.column_stack([G @ u_int for G in grad_ops])


def build_local_matrix(coeffs, grid):
    """Interior rows of -tr[a D^2 u] + <b, D u> + c u as a sparse M-matrix."""
    X = grid.interior_points()
    n_int = grid.n_interior
    h2 = grid.h ** 2
    info = _interior_neighbors(grid)
    b_vals = coeffs.b(X)
    c_vals = coeffs.c(X)
    rows_idx = np.arange(n_int)
    rows, cols, vals = [], [], []
    diag = c_vals.copy()

    def add(r, flat_cols, v):
        inrow = grid.interior_row[flat_cols]
        keep = inrow >= 0
        rows.append(r[keep])
        cols.append(inrow[keep])
        vals.append(v[keep] if np.ndim(v) else np.full(keep.sum(), v))

    a_vals = coeffs.a(X)
    if grid.dim == 1:
        a11 = a_vals[:, 0, 0]
        if np.any(a11 <= 0):
            raise EllipticityViolation("a must be positive")
        coef_axis = [a11]
        coef_cross = None
    else:
        a11, a22, a12 = a_vals[:, 0, 0], a_vals[:, 1, 1], a_vals[:, 0, 1]
        cross = np.abs(a12)
        if np.any(np.minimum(a11, a22) - cross < -1e-14):
            bad = int(np.argmax(cross - np.minimum(a11, a22)))
            raise EllipticityViolation(
                f"|a12| > min(a11, a22) at interior node {bad}; "
                "7-point stencil loses monotonicity")
        coef_axis = [a11 - cross, a22 - cross]
        coef_cross = (a12, cross)

    for k, (plus, minus, _, _) in enumerate(info):
        coef = coef_axis[k]
        diag += 2.0 * coef / h2
        add(rows_idx, plus, -coef / h2)
        add(rows_idx, minus, -coef / h2)
        # upwind drift: pick the side that keeps the off-diagonal nonpositive
        bk = b_vals[:, k]
        pos = bk > 0
        neg = bk < 0
        diag += np.abs(bk) / grid.h
        add(rows_idx[pos], minus[pos], -bk[pos] / grid.h)
        add(rows_idx[neg], plus[neg], bk[neg] / grid.h)

    if coef_cross is not None:
        a12, cross = coef_cross
        ny = grid.shape[1]
        flat_int = grid.interior_flat
        up = a12 >= 0
        # a12 >= 0: second difference along (1, 1); a12 < 0: along (1, -1)
        off = np.where(up, ny + 1, ny - 1)
        diag += 2.0 * cross / h2
        add(rows_idx, flat_int + off, -cross / h2)
        add(rows_idx, flat_int - off, -cross / h2)

    rows.append(rows_idx)
    cols.append(rows_idx)
    vals.append(diag)
    local = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_int, n_int)).tocsr()

    # monotonicity audit: nonpositive off-diagonals, diag >= sum|off| + c
    dense_diag = local.diagonal()
    off = local - sp.diags(dense_diag)
    if off.nnz and off.data.max() > 1e-12 * max(1.0, np.abs(dense_diag).max()):
        raise EllipticityViolation("positive off-diagonal in local stencil")
    row_abs = np.asarray(np.abs(off).sum(axis=1)).ravel()
    slack = dense_diag - row_abs - c_vals
    if np.any(slack < -1e-10 * max(1.0, np.abs(dense_diag).max())):
        raise EllipticityViolation("diagonal dominance lost in local stencil")
    return local


def build_nonlocal_parts(s, quad, grid):
    """Gather matrix J and diagonal mass D with I u = J u - D * u.

    J holds, per interior row, the interpolation stencil of u(x + z_k)
    weighted by w_k s(x, z_k); landings outside O contribute nothing (zero
    extension).  D_i = sum_k w_k s(x_i, z_k).
    """
    n_int = grid.n_interior
    X = grid.interior_points()
    D = np.zeros(n_int)
    rows, cols, vals = [], [], []
    for z, w in zip(quad.nodes, quad.weights):
        s_vals = s.eval(X, z)
        D += w * s_vals
        shifted = X + z
        inside = grid.domain.contains_batch(shifted)
        if not np.any(inside):
            continue
        lat_cols, wts = interp_weights(grid, shifted[inside])
        r = np.flatnonzero(inside)
        factor = (w * s_vals[inside])[:, None] * wts
        inrow = grid.interior_row[lat_cols]
        keep = inrow >= 0
        rows.append(np.broadcast_to(r[:, None], lat_cols.shape)[keep])
        cols.append(inrow[keep])
        vals.append(factor[keep])
    if rows:
        J = sp.coo_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_int, n_int)).tocsr()
    else:
        J = sp.csr_matrix((n_int, n_int))
    return J, D


@dataclass
class OperatorMatrix:
    """Assembled discrete operator over interior nodes.

    gamma = local + diag(jump_mass) - jump_gather; the local part alone is
    an M-matrix, and adding the nonnegative jump mass keeps it one.
    Factorizations are cached since linear solves repeat across the
    eps-continuation.
    """

    grid: object
    local_part: sp.csr_matrix
    jump_gather: sp.csr_matrix
    jump_mass: np.ndarray

    def __post_init__(self):
        self._cache = {}

    def gamma_matrix(self):
        if "gamma" not in self._cache:
            self._cache["gamma"] = (
                self.local_part + sp.diags(self.jump_mass)
                - self.jump_gather).tocsr()
        return self._cache["gamma"]

    def apply_gamma_vec(self, u_int):
        return (self.local_part @ u_int + self.jump_mass * u_int
                - self.jump_gather @ u_int)

    def local_matrix(self):
        """Local M-matrix plus jump mass: gamma without the jump gather."""
        if "local" not in self._cache:
            self._cache["local"] = (
                self.local_part + sp.diags(self.jump_mass)).tocsr()
        return self._cache["local"]

    def local_solver(self):
        """Cached factorization of the local M-matrix plus jump mass.

        It preconditions the linear Dirichlet solve and every Newton step
        of nidd with few active penalty rows.
        """
        import scipy.sparse.linalg as spla
        if "local_lu" not in self._cache:
            self._cache["local_lu"] = spla.splu(self.local_matrix().tocsc())
        return self._cache["local_lu"]

    def jacobian(self, grad_ops, scales):
        """local_matrix() + sum_k diag(scales[:, k]) grad_ops[k], in CSC.

        The Newton matrix of nidd's factored split.  Its pattern is the
        same at every `scales`, so the first call caches it (`grad_ops`
        must be the same operators at every call) and each call fills a
        copy of it: the axis-k products are added in axis order, as the
        sparse sum adds them, and the exact zeros that sum would drop are
        dropped, since SuperLU's column ordering reads the pattern.
        """
        if "jacobian" not in self._cache:
            self._cache["jacobian"] = _jacobian_pattern(self.local_matrix(),
                                                        grad_ops)
        pattern, axes = self._cache["jacobian"]
        P = pattern.copy()
        for k, (pos, rows, vals) in enumerate(axes):
            P.data[pos] += scales[rows, k] * vals
        P.eliminate_zeros()
        return P

    def gamma_solver(self):
        """Cached factorization of the full assembled operator."""
        import scipy.sparse.linalg as spla
        if "gamma_lu" not in self._cache:
            self._cache["gamma_lu"] = spla.splu(self.gamma_matrix().tocsc())
        return self._cache["gamma_lu"]

    def lag_contraction_bound(self):
        """Upper bound on |local_matrix()^-1 jump_gather|_inf.

        It is the contraction factor of a lagged jump term, and it bounds
        the spectrum the preconditioned Krylov solve in nidd has to resolve.
        """
        row_gather = np.asarray(self.jump_gather.sum(axis=1)).ravel()
        denom = self.local_part.diagonal() + self.jump_mass
        off = self.local_part - sp.diags(self.local_part.diagonal())
        denom = denom - np.asarray(np.abs(off).sum(axis=1)).ravel()
        return float(np.max(row_gather / np.maximum(denom, 1e-300),
                            initial=0.0))


def _jacobian_pattern(local, grad_ops):
    """The CSC union pattern of `local` and every G_k, holding local's
    data, and per axis where G_k's entries fall in it, their rows and
    their values."""
    n = local.shape[0]
    parts = [A.tocoo() for A in (local, *grad_ops)]
    keys = [A.col.astype(np.int64) * n + A.row for A in parts]
    union = np.unique(np.concatenate(keys))
    cols = union // n
    data = np.zeros(union.size)
    pos = [np.searchsorted(union, key) for key in keys]
    data[pos[0]] = parts[0].data
    pattern = sp.csc_matrix(
        (data, union - cols * n, np.searchsorted(cols, np.arange(n + 1))),
        shape=local.shape)
    return pattern, [(p, A.row, A.data) for p, A in zip(pos[1:], parts[1:])]


def assemble_linear_system(coeffs, s, quad, grid):
    local = build_local_matrix(coeffs, grid)
    J, D = build_nonlocal_parts(s, quad, grid)
    return OperatorMatrix(grid=grid, local_part=local, jump_gather=J,
                          jump_mass=D)


def _check_same_grid(grid, field):
    if field.grid is not grid and not field.grid.same_as(grid):
        raise GridMismatch("field lives on a different grid")


def apply_L(coeffs, field):
    """-tr[a D^2 u] + <b, D u> + c u at interior nodes (0 elsewhere).

    Works on arbitrary node samples (boundary values included), which is
    what manufactured-solution checks need; interior nodes always have all
    lattice neighbors.
    """
    grid = field.grid
    v = field.values
    h = grid.h
    X = grid.interior_points()
    info = _interior_neighbors(grid)
    flat = grid.interior_flat
    vflat = v.ravel()
    u0 = vflat[flat]
    b_vals = coeffs.b(X)
    c_vals = coeffs.c(X)
    out = c_vals * u0

    a_vals = coeffs.a(X)
    if grid.dim == 1:
        coef_axis = [a_vals[:, 0, 0]]
        cross = None
    else:
        a11, a22, a12 = a_vals[:, 0, 0], a_vals[:, 1, 1], a_vals[:, 0, 1]
        cr = np.abs(a12)
        coef_axis = [a11 - cr, a22 - cr]
        cross = (a12, cr)

    for k, (plus, minus, _, _) in enumerate(info):
        up = vflat[plus]
        um = vflat[minus]
        out -= coef_axis[k] * (up - 2.0 * u0 + um) / h**2
        bk = b_vals[:, k]
        upwind = np.where(bk > 0, (u0 - um) / h, (up - u0) / h)
        out += bk * upwind

    if cross is not None:
        a12, cr = cross
        ny = grid.shape[1]
        off = np.where(a12 >= 0, ny + 1, ny - 1)
        out -= cr * (vflat[flat + off] - 2.0 * u0 + vflat[flat - off]) / h**2

    return SolutionField.from_interior_vector(grid, out)


def apply_I(s, quad, field):
    """Quadrature jump integral sum_k w_k [u(x+z_k) - u(x)] s(x, z_k)."""
    grid = field.grid
    X = grid.interior_points()
    u0 = field.values.ravel()[grid.interior_flat]
    acc = np.zeros_like(u0)
    for z, w in zip(quad.nodes, quad.weights):
        shifted_vals = field.values_extended(X + z)
        acc += w * s.eval(X, z) * (shifted_vals - u0)
    return SolutionField.from_interior_vector(grid, acc)


def apply_Gamma(coeffs, s, quad, field):
    lu = apply_L(coeffs, field)
    iu = apply_I(s, quad, field)
    return SolutionField.from_interior_vector(
        field.grid, lu.interior_vector() - iu.interior_vector())


def bracket_identity_residual(s, quad, w_field, v_field):
    """Sup-norm defect of the product rule for the jump integral.

    All three integral applications evaluate the same multilinear
    reconstructions at x + z_k, so the identity cancels in exact arithmetic
    and the residual measures pure floating-point noise.
    """
    grid = w_field.grid
    _check_same_grid(grid, v_field)
    X = grid.interior_points()
    w0 = w_field.values.ravel()[grid.interior_flat]
    v0 = v_field.values.ravel()[grid.interior_flat]
    bracket = np.zeros_like(w0)
    i_wv = np.zeros_like(w0)
    i_w = np.zeros_like(w0)
    i_v = np.zeros_like(w0)
    for z, wq in zip(quad.nodes, quad.weights):
        sw = wq * s.eval(X, z)
        W = w_field.values_extended(X + z)
        V = v_field.values_extended(X + z)
        bracket += sw * (W - w0) * (V - v0)
        i_wv += sw * (W * V - w0 * v0)
        i_w += sw * (W - w0)
        i_v += sw * (V - v0)
    defect = bracket - (i_wv - w0 * i_v - v0 * i_w)
    return float(np.max(np.abs(defect))) if defect.size else 0.0

"""Convex computational domains, uniform lattices, and zero-extended grid fields.

The open set O is either a box or a ball in d in {1, 2}.  A Grid is a uniform
lattice covering the bounding box of O; every node carries exactly one class
tag.  Fields sampled on the grid evaluate to 0 at any point outside O, which
is what makes the nonlocal jump integral well defined when x + z leaves the
domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, SpacingTooCoarse

INTERIOR = 0
EXTERIOR = 1

INSIDE = "inside"
OUTSIDE = "outside"


def _as_vector(x, dim=None):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValueError(f"expected dimension {dim}, got {v.size}")
    return v


@dataclass(frozen=True)
class Box:
    """Axis-aligned open box prod_i (lo_i, hi_i)."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = _as_vector(self.lo)
        hi = _as_vector(self.hi, lo.size)
        if lo.size not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if not np.all(lo < hi):
            raise ValueError("box requires lo[i] < hi[i] on every axis")
        object.__setattr__(self, "lo", tuple(float(v) for v in lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in hi))
        # the exit test reads the bounds as arrays at every Monte Carlo step
        object.__setattr__(self, "_lo", np.array(self.lo))
        object.__setattr__(self, "_hi", np.array(self.hi))

    @property
    def dim(self):
        return len(self.lo)

    def bounding_box(self):
        return np.array(self.lo), np.array(self.hi)

    def contains(self, x):
        x = _as_vector(x, self.dim)
        return bool(np.all(x > self.lo) and np.all(x < self.hi))

    def contains_batch(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.all(pts > self._lo, axis=-1) & np.all(pts < self._hi,
                                                        axis=-1)


@dataclass(frozen=True)
class Ball:
    """Open ball of positive radius."""

    center: tuple
    radius: float

    def __post_init__(self):
        c = _as_vector(self.center)
        if c.size not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if not self.radius > 0:
            raise ValueError("ball requires radius > 0")
        object.__setattr__(self, "center", tuple(float(v) for v in c))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self):
        return len(self.center)

    def bounding_box(self):
        c = np.array(self.center)
        return c - self.radius, c + self.radius

    def contains(self, x):
        x = _as_vector(x, self.dim)
        return bool(np.linalg.norm(x - self.center) < self.radius)

    def contains_batch(self, pts):
        pts = np.asarray(pts, dtype=float)
        r = np.linalg.norm(pts - np.array(self.center), axis=-1)
        return r < self.radius


def classify_point(domain, x):
    """Inside iff x belongs to the open set O; boundary points are Outside."""
    return INSIDE if domain.contains(x) else OUTSIDE


class Grid:
    """Uniform lattice over the bounding box of a domain, with node classes.

    Interior nodes lie strictly inside O; every other node is Exterior and
    pinned to value 0.  Node indexing is row-major over the lattice shape.
    """

    def __init__(self, domain, h):
        if not h > 0:
            raise ValueError("spacing h must be positive")
        self.domain = domain
        self.h = float(h)
        lo, hi = domain.bounding_box()
        counts = np.ceil((hi - lo) / self.h - 1e-9).astype(int)
        self.axes = tuple(lo[k] + self.h * np.arange(counts[k] + 1)
                          for k in range(domain.dim))
        self.shape = tuple(len(ax) for ax in self.axes)
        self.dim = domain.dim

        pts = self.points()
        inside = domain.contains_batch(pts)
        classes = np.full(pts.shape[0], EXTERIOR, dtype=np.int8)
        classes[inside] = INTERIOR
        self.classes = classes.reshape(self.shape)

        self.interior_flat = np.flatnonzero(classes == INTERIOR)
        self.n_interior = self.interior_flat.size
        self.interior_row = np.full(pts.shape[0], -1, dtype=np.int64)
        self.interior_row[self.interior_flat] = np.arange(self.n_interior)
        self._points = pts

        for k in range(self.dim):
            coords = pts[self.interior_flat, k]
            if np.unique(np.round(coords / self.h)).size < 3:
                raise SpacingTooCoarse(
                    f"axis {k}: fewer than 3 interior nodes at h={self.h}")

    def points(self):
        """All lattice node coordinates, shape (n_nodes, dim), row-major."""
        if self.dim == 1:
            return self.axes[0][:, None].copy()
        X, Y = np.meshgrid(self.axes[0], self.axes[1], indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])

    def interior_points(self):
        return self._points[self.interior_flat]

    def same_as(self, other):
        return (self.shape == other.shape and self.h == other.h
                and self.domain == other.domain)


def build_grid(domain, h):
    """Build the classified lattice; raises SpacingTooCoarse when too few
    interior nodes result."""
    return Grid(domain, h)


def interp_weights(grid, pts):
    """Multilinear interpolation stencils for points assumed inside O.

    Returns (cols, wts) with shape (n_pts, 2**dim): flat lattice indices and
    convex weights.  Points are clamped to the lattice hull, which is safe
    because O is contained in it.
    """
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[0]
    dim = grid.dim
    idx = []
    frac = []
    for k in range(dim):
        ax = grid.axes[k]
        t = (pts[:, k] - ax[0]) / grid.h
        i = np.clip(np.floor(t).astype(np.int64), 0, len(ax) - 2)
        idx.append(i)
        frac.append(np.clip(t - i, 0.0, 1.0))
    if dim == 1:
        i = idx[0]
        f = frac[0]
        cols = np.stack([i, i + 1], axis=1)
        wts = np.stack([1.0 - f, f], axis=1)
        return cols, wts
    i, j = idx
    fx, fy = frac
    ny = grid.shape[1]
    base = i * ny + j
    cols = np.stack([base, base + 1, base + ny, base + ny + 1], axis=1)
    wts = np.stack([(1 - fx) * (1 - fy), (1 - fx) * fy,
                    fx * (1 - fy), fx * fy], axis=1)
    return cols, wts


class SolutionField:
    """Scalar field sampled on a Grid, evaluated with zero extension.

    `values` covers the full lattice; solver outputs keep 0 at every
    non-interior node, but arbitrary samples (e.g. of a test function) are
    allowed for operator experiments.
    """

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise GridMismatch(
                f"values shape {values.shape} != grid shape {grid.shape}")
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid, f):
        """Sample f at every lattice node (including boundary/exterior)."""
        pts = grid.points()
        vals = np.array([f(p) for p in pts], dtype=float)
        return cls(grid, vals.reshape(grid.shape))

    @classmethod
    def from_interior_vector(cls, grid, vec):
        """Lift an interior-node vector to the lattice, zero elsewhere."""
        vec = np.asarray(vec, dtype=float)
        if vec.size != grid.n_interior:
            raise GridMismatch("interior vector length mismatch")
        full = np.zeros(int(np.prod(grid.shape)))
        full[grid.interior_flat] = vec
        return cls(grid, full.reshape(grid.shape))

    def copy(self):
        return SolutionField(self.grid, self.values.copy())

    def interior_vector(self):
        return self.values.ravel()[self.grid.interior_flat].copy()

    def values_extended(self, pts):
        """Vectorized zero-extended evaluation at points of shape (n, dim)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.zeros(pts.shape[0])
        inside = self.grid.domain.contains_batch(pts)
        if np.any(inside):
            cols, wts = interp_weights(self.grid, pts[inside])
            out[inside] = np.sum(self.values.ravel()[cols] * wts, axis=1)
        return out

    def value_extended(self, x):
        return float(self.values_extended(_as_vector(x, self.grid.dim)[None, :])[0])


def field_value_extended(field, x):
    """Zero outside O exactly; multilinear interpolation of grid values inside."""
    return field.value_extended(x)

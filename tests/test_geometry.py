import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcap.errors import SpacingTooCoarse
from gradcap.geometry import (EXTERIOR, INTERIOR, Ball, Box, SolutionField,
                              build_grid)


def test_box_lattice_and_interior():
    g = build_grid(Box(lo=(-1,), hi=(1,)), 0.5)
    assert np.allclose(g.axes[0], [-1, -0.5, 0, 0.5, 1])
    assert np.allclose(sorted(g.interior_points().ravel()), [-0.5, 0, 0.5])


def test_ball_membership_classification():
    g = build_grid(Ball(center=(0.0, 0.0), radius=1.0), 0.5)
    pts = g.points()
    inside = np.linalg.norm(pts, axis=1) < 1.0
    assert np.array_equal(g.classes.ravel() == INTERIOR, inside)
    # (0.5, 0.5) has norm ~0.707 < 1
    assert Ball(center=(0.0, 0.0), radius=1.0).contains((0.5, 0.5))


def test_spacing_too_coarse():
    with pytest.raises(SpacingTooCoarse):
        build_grid(Box(lo=(0,), hi=(1,)), 0.6)


def test_classify_point_examples():
    box = Box(lo=(-1,), hi=(1,))
    assert box.contains(0.0)
    assert not box.contains(1.0)  # boundary is outside the open set
    assert not Ball(center=(0, 0), radius=1.0).contains((1, 1))


def test_partition_property():
    for dom, h in [(Box(lo=(-1,), hi=(1,)), 0.25),
                   (Ball(center=(0.0, 0.0), radius=1.0), 0.25)]:
        g = build_grid(dom, h)
        cls = g.classes.ravel()
        assert set(np.unique(cls)) <= {INTERIOR, EXTERIOR}
        n = (cls == INTERIOR).sum() + (cls == EXTERIOR).sum()
        assert n == cls.size
        assert np.array_equal(cls == INTERIOR,
                              dom.contains_batch(g.points()))


def _ulp_around(values):
    """Each value and the floats one ulp below and above it."""
    v = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(v, -np.inf), v,
                           np.nextafter(v, np.inf)])


def _boundary_probes(dom):
    """Points on the boundary of dom and one ulp to either side of it along
    each coordinate, with a few interior and exterior points."""
    if isinstance(dom, Box):
        per_axis = [_ulp_around([lo, 0.5 * (lo + hi), hi])
                    for lo, hi in zip(dom.lo, dom.hi)]
        return np.stack(np.meshgrid(*per_axis, indexing="ij"),
                        axis=-1).reshape(-1, dom.dim)
    c = np.array(dom.center)
    if dom.dim == 1:
        return _ulp_around([c[0] - dom.radius, c[0], c[0] + dom.radius,
                            c[0] + 2 * dom.radius])[:, None]
    theta = np.linspace(0.0, 2 * np.pi, 13)
    ring = c + dom.radius * np.column_stack([np.cos(theta), np.sin(theta)])
    probes = [np.stack(np.meshgrid(_ulp_around([x]), _ulp_around([y]),
                                   indexing="ij"), axis=-1).reshape(-1, 2)
              for x, y in ring]
    return np.vstack([np.vstack(probes), c[None, :], 2 * c[None, :] + 3.0])


@pytest.mark.parametrize("dom", [
    Box(lo=(-1.0,), hi=(0.75,)), Box(lo=(-1.0, 0.1), hi=(0.5, 2.0)),
    Ball(center=(0.3,), radius=0.7), Ball(center=(0.1, -0.2), radius=1.0)])
def test_contains_batch_agrees_with_contains_at_the_boundary(dom):
    pts = _boundary_probes(dom)
    inside = dom.contains_batch(pts)
    assert inside.dtype == bool and inside.shape == (pts.shape[0],)
    assert inside.tolist() == [dom.contains(p) for p in pts]
    # the open set excludes its boundary but not every probe is outside
    assert 0 < inside.sum() < pts.shape[0]


def test_zero_extension_exact():
    g = build_grid(Box(lo=(-1,), hi=(1,)), 0.5)
    rng = np.random.default_rng(3)
    f = SolutionField(g, rng.standard_normal(g.shape))
    for x in [1.0, -1.0, 1.5, -2.3]:
        assert f.value_extended(x) == 0.0


def test_interpolation_of_constants_and_linear():
    g = build_grid(Box(lo=(-1,), hi=(1,)), 0.5)
    ones = SolutionField.from_function(g, lambda p: 1.0)
    assert ones.value_extended(0.25) == 1.0
    lin = SolutionField.from_function(g, lambda p: p[0])
    assert lin.value_extended(0.25) == pytest.approx(0.25, abs=1e-15)


@settings(max_examples=60, derandomize=True)
@given(st.floats(-0.999, 0.999), st.floats(-3, 3), st.floats(-3, 3))
def test_affine_reproduction_1d(x, alpha, beta):
    g = build_grid(Box(lo=(-1,), hi=(1,)), 0.25)
    f = SolutionField.from_function(g, lambda p: alpha * p[0] + beta)
    assert f.value_extended(x) == pytest.approx(alpha * x + beta,
                                                abs=1e-12 * (1 + abs(alpha) + abs(beta)))


@settings(max_examples=60, derandomize=True)
@given(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6),
       st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
def test_affine_reproduction_2d(x, y, ax, ay, b):
    g = build_grid(Ball(center=(0.0, 0.0), radius=1.0), 0.25)
    f = SolutionField.from_function(g, lambda p: ax * p[0] + ay * p[1] + b)
    expect = ax * x + ay * y + b
    assert f.value_extended((x, y)) == pytest.approx(
        expect, abs=1e-12 * (1 + abs(ax) + abs(ay) + abs(b)))


def test_interior_nodes_never_on_lattice_hull():
    for dom in [Box(lo=(-1,), hi=(1,)), Ball(center=(0.0, 0.0), radius=1.0)]:
        g = build_grid(dom, 0.25)
        multis = np.array(np.unravel_index(g.interior_flat, g.shape)).T
        for k in range(g.dim):
            assert multis[:, k].min() >= 1
            assert multis[:, k].max() <= g.shape[k] - 2

import pathlib

import numpy as np
import pytest

from gradcap.geometry import Box, build_grid
from gradcap.levy import QuadratureRule, constant_density
from gradcap.operators import Coefficients
from gradcap.problem import Problem

REPO = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def empty_quadrature(dim=1):
    return QuadratureRule(nodes=np.zeros((0, dim)), weights=np.zeros(0),
                          small_jump_cutoff=0.1)


def make_problem_1d(h_grid=0.125, a=1.0, b=0.0, c=1.0, h=2.0, g=10.0,
                    quad=None, s=None):
    grid = build_grid(Box(lo=(-1,), hi=(1,)), h_grid)
    coeffs = Coefficients.from_constants(1, a=a, b=b, c=c, h=h, g=g)
    return Problem(grid, coeffs,
                   s if s is not None else constant_density(1.0),
                   quad if quad is not None else empty_quadrature(1))


@pytest.fixture
def unit_density():
    return constant_density(1.0)


@pytest.fixture(scope="session")
def config_paths():
    paths = sorted(CONFIGS.glob("example_*.json"))
    assert paths, "shipped example configs missing"
    return paths

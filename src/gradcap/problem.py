"""Numerical problem container shared by the solver modules.

Bundles the grid, coefficient fields, jump density, and quadrature rule, and
caches the assembled operator, the gradient stencils and the a priori bound
C1, which are reused across Newton steps and the whole eps-continuation.
"""

from __future__ import annotations

import numpy as np

from .nidd import solve_linear_dirichlet
from .operators import assemble_linear_system, build_gradient_ops


class Problem:
    def __init__(self, grid, coeffs, s, quad):
        self.grid = grid
        self.coeffs = coeffs
        self.s = s
        self.quad = quad
        self._matrix = None
        self._c1 = None
        self._grad_ops = None
        self._h_int = None
        self._g_int = None

    def matrix(self):
        if self._matrix is None:
            self._matrix = assemble_linear_system(
                self.coeffs, self.s, self.quad, self.grid)
        return self._matrix

    def bound_c1(self):
        """C1 = max v for the linear problem gamma v = h, the upper end of
        the sandwich 0 <= u_eps <= C1 that every eps shares."""
        if self._c1 is None:
            v = solve_linear_dirichlet(self.matrix(), self.h_interior())
            self._c1 = float(np.max(v.values))
        return self._c1

    def discount(self):
        """The value of c if it is one constant at every interior node, else
        None: the discount of the process the operator generates."""
        c = self.coeffs.c(self.grid.interior_points())
        return float(c[0]) if np.all(c == c[0]) else None

    def grad_ops(self):
        if self._grad_ops is None:
            self._grad_ops = build_gradient_ops(self.grid)
        return self._grad_ops

    def h_interior(self):
        if self._h_int is None:
            self._h_int = self.coeffs.h(self.grid.interior_points())
        return self._h_int.copy()

    def g_interior(self):
        if self._g_int is None:
            self._g_int = self.coeffs.g(self.grid.interior_points())
        return self._g_int.copy()

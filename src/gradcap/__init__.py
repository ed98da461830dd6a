"""Gradient-constrained HJB solver for jump-diffusions, with stochastic
verification of the computed value function."""

from .config import ProblemSpec, build_spec, emit, load_config
from .control import (ConstantRate, CostEstimate, PenalizedFeedback,
                      SdeParams, SingularControlSpec, estimate_jobs,
                      sde_from_problem, verify_value_equality)
from .geometry import Ball, Box, Grid, SolutionField, build_grid
from .hjb import (DEFAULT_EPS_SCHEDULE, HjbOptions, HjbReport, hjb_residual,
                  solve_hjb)
from .levy import (BVDensity, CompoundPoisson, JumpDensity, QuadratureRule,
                   bounded_variation_error_bound, build_quadrature,
                   constant_density, moment_check, sample_jumps)
from .nidd import (NiddReport, SolverOptions, comparison_check,
                   solve_linear_dirichlet, solve_nidd)
from .operators import (Coefficients, OperatorMatrix, apply_Gamma, apply_I,
                        apply_L, assemble_linear_system,
                        bracket_identity_residual, build_gradient_ops,
                        build_node_gradient_ops, interior_gradient)
from .penalty import PenaltyFn
from .problem import Problem

__version__ = "0.1.0"

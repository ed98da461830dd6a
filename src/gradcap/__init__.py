"""Gradient-constrained HJB solver for jump-diffusions, with stochastic
verification of the computed value function."""

from .config import ProblemSpec, build_spec, emit, load_config
from .control import (ConstantRate, CostEstimate, NullControl,
                      PenalizedFeedback, SdeParams, SingularControlSpec,
                      estimate_jobs, estimate_penalized_value,
                      estimate_singular_value, sde_from_problem,
                      simulate_path, verify_value_equality)
from .geometry import (Ball, Box, Grid, SolutionField, build_grid,
                       classify_point, field_value_extended)
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
                        interior_gradient)
from .penalty import PenaltyFn
from .problem import Problem

__version__ = "0.1.0"

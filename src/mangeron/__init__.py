"""Dirichlet solver for the generalized Mangeron equation on a rectangle.

The fourth-order pseudoparabolic equation with nonsmooth coefficients is
reduced to second-kind integral equations, discretized by a Nystrom scheme
on composite trapezoid quadrature, and solved by successive approximations
with a dense direct fallback.  Verification utilities (manufactured
solutions, a finite-difference oracle, convergence studies) and a config
driven CLI are included.
"""

from .grids import (Axis, Domain, Grid2D, GridFn1D, GridFn2D, build_grid,
                    fd_derivatives, moment_integral_1d, quad_1d, trapezoid_error_bound)
from .fields import (ANALYTIC, CONTINUOUS, LINF_X_LP_Y, LP, LP_X_LINF_Y, PIECEWISE,
                     SAMPLES, Field1D, Field2D, Piece2D, Segment1D, const1d, const2d,
                     piecewise1d, piecewise2d, samples1d, samples2d)
from .norms import DERIVATIVE_KEYS, INF, NormSpec, data_norm, lp_norm, sobolev_norm
from .problem import (BoundaryTrace, CheckReport, ClassicalData, Coefficients,
                      ConstraintError, CornerMismatchError, DataConsistencyError,
                      NonclassicalData, PdeProblem, check_data_constraints,
                      check_matching, classical_to_nonclassical, constraint_tolerance,
                      nonclassical_to_classical, sample_data, sample_problem)
from .reduction import (CoupledSystem, DiscreteOperator, apply_pde_operator, assemble_base,
                        assemble_coupled, assemble_eliminated, reduced_rhs)
from .solver import (ReducedUnknowns, ResidualReport, SolutionBundle, SolveReport,
                     SolveResult, SolverError, StabilityEstimate, assemble_solution,
                     calibrate_residual_threshold, estimate_stability_ratio,
                     reconstruct_lower, residual_report, solve_dense, solve_neumann,
                     solve_problem)
from .mms import (ConvergenceTable, MmsCase, SeparableSolution, bilinear_solution,
                  biquadratic_solution, bicubic_solution, convergence_study,
                  exact_bundle, fd_oracle, forward_problem, make_mms, named_cases,
                  random_coefficients, random_forward_problem, random_solution,
                  trig_solution)

__version__ = "0.1.0"

"""Dirichlet solver for the generalized Mangeron equation on a rectangle.

The fourth-order pseudoparabolic equation with nonsmooth coefficients is
reduced to second-kind integral equations, discretized by a Nystrom scheme
on the quadrature rule of `grids.Axis`, and solved by successive
approximations with a dense direct fallback.  What `mangeron verify` runs
(manufactured solutions, the named cases, convergence studies) lives in
`mangeron.mms`, which the package does not import, so a solve loads neither
it nor numpy.polynomial; a config driven CLI is included.
"""

from .grids import Axis, Domain, Grid2D, GridFn2D, build_grid, fd_derivatives
from .fields import Field1D, Field2D, const1d, const2d, piecewise2d, samples1d
from .norms import NormSpec, data_norm, lp_norm, sobolev_norm
from .problem import (DERIVATIVES, BoundaryTrace, CheckReport, ClassicalData, Coefficients,
                      ConstraintError, CornerMismatchError, DataConsistencyError,
                      NonclassicalData, PdeProblem, check_data_constraints,
                      check_matching, classical_to_nonclassical, constraint_tolerance,
                      nonclassical_to_classical, sample_data, sample_problem,
                      solution_data, trace_axis)
from .reduction import (CoupledSystem, DiscreteOperator, apply_pde_operator,
                        assemble_eliminated, reduced_rhs)
from .solver import (ResidualReport, SolutionBundle, SolveReport, SolveResult, SolverError,
                     assemble_solution, calibrate_residual_threshold, residual_report,
                     solve_dense, solve_neumann, solve_problem)

__version__ = "0.1.0"

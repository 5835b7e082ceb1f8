"""Test-only helpers over the package: a known solution's exact bundle, the
linear combination of data elements, and an empirical stability ratio over
a family of problems."""

from dataclasses import dataclass

import numpy as np

from mangeron import (DERIVATIVES, ConstraintError, Field1D, GridFn2D, NonclassicalData,
                      SolutionBundle, SolverError, solve_problem)


def exact_bundle(u_star, grid) -> SolutionBundle:
    """All nine derivative grids of a known solution, sampled at the nodes."""
    xx, yy = grid.meshgrid()
    return SolutionBundle(**{key: GridFn2D(grid, u_star.eval_deriv(i, j, xx, yy))
                             for key, (i, j) in DERIVATIVES.items()})


def combine(*terms) -> NonclassicalData:
    """The data element sum of c * d over the (c, d) pairs `terms`: each
    scalar component is combined as a number, each trace pointwise."""
    parts = {}
    for key in NonclassicalData.PLACES:
        if key in NonclassicalData.SCALAR_KEYS:
            parts[key] = sum(c * getattr(d, key) for c, d in terms)
        else:
            fns = [(c, getattr(d, key).fn) for c, d in terms]
            parts[key] = Field1D(lambda t, _fns=fns: sum(c * np.asarray(f(t)) for c, f in _fns))
    return NonclassicalData(**parts)


@dataclass
class StabilityEstimate:
    max_ratio: float
    ratios: list[float]
    excluded: int


def estimate_stability_ratio(make_problem, grid, trials: int) -> StabilityEstimate:
    """Empirical bound sup ||u|| / (||data|| + ||forcing||) over a family.

    `make_problem(k)` supplies the k-th trial problem, solved on the default
    route ("auto") with the 2-norm.  Trials whose solve fails, diverges or
    fails the residual gate are excluded from the maximum and counted.
    """
    ratios = []
    excluded = 0
    for k in range(trials):
        prob = make_problem(k)
        try:
            result = solve_problem(prob, grid)
        except (SolverError, ConstraintError):
            excluded += 1
            continue
        if not result.report.residual_pass:    # a pass implies convergence
            excluded += 1
            continue
        ratios.append(result.report.stability_ratio)
    if not ratios:
        raise SolverError("no trial produced a usable solve")
    return StabilityEstimate(max_ratio=max(ratios), ratios=ratios, excluded=excluded)

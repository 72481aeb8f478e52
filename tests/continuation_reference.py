"""Slow reference for the continuation Newton loop, through the transforms.

`ContinuationProblem` evaluates the residual, its Jacobian and dR/dlambda
as quadrature sums over stored grid values of its basis.  Here every call
synthesises the assembled field and the basis fields again, analyses the
nonlinearity with `sht.Transform`, inverts the Laplacian on the half tables
and projects, and dR/dlambda is a central difference.  Only the subspace,
the family and the grid are shared, so agreement pins the quadrature
identity, the 1 / (l (l + 1)) factors and the rotating-frame forcing.
"""

import math

import numpy as np

from rotosphere import sht

ZONAL_DEGREE_ONE_COEFF = 2.0 * math.sqrt(math.pi / 3.0)  # sin(lat) = this * Y_1^0


def _z_values(problem):
    grid = problem.transform.grid
    return np.broadcast_to(grid.nodes[:, None], (grid.nlat, grid.nlon))


def _nonlinearity(problem, lam, f_values):
    if problem.mode == "fixed_frame":
        return problem.family.value(lam, f_values)
    arg = (1.0 + lam * lam) * f_values - problem.family.mu * _z_values(problem)
    return problem.family.p(arg)


def _nonlinearity_derivative(problem, lam, f_values):
    if problem.mode == "fixed_frame":
        return problem.family.derivative(lam, f_values)
    arg = (1.0 + lam * lam) * f_values - problem.family.mu * _z_values(problem)
    return (1.0 + lam * lam) * problem.family.dp(arg)


def residual(problem, lam, x):
    tr, sub = problem.transform, problem.subspace
    f_half = sub.assemble_half(x)
    rhs = tr.analysis(_nonlinearity(problem, lam, tr.synthesis(f_half)))
    if problem.mode == "rotating_frame":
        rhs[1, 0] -= 2.0 * problem.family.nu * ZONAL_DEGREE_ONE_COEFF
    rhs[0, 0] = 0.0
    return sub.project_half(f_half - sht.inverse_laplacian_table(rhs))


def jacobian(problem, lam, x):
    tr, sub = problem.transform, problem.subspace
    f_values = tr.synthesis(sub.assemble_half(x))
    forced = tr.synthesis(sub.halves) * _nonlinearity_derivative(problem, lam, f_values)
    images = sht.inverse_laplacian_table(tr.analysis(forced))
    return np.eye(sub.dim) - sub.project_half(images).T


def dresidual_dlambda(problem, lam, x, h=1e-7):
    return (residual(problem, lam + h, x) - residual(problem, lam - h, x)) / (2.0 * h)

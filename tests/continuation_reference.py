"""Slow reference for the continuation Newton loop, through the transforms.

`ContinuationProblem` evaluates the residual, its Jacobian and dR/dlambda
as quadrature sums over stored grid values of its basis.  Here every call
synthesises the assembled field and the basis fields again, analyses the
nonlinearity with `sht.Transform`, inverts the Laplacian on the half tables
and projects, and dR/dlambda is a central difference.  Only the subspace,
the family's profile P (and P') and the grid are shared: the frame's
formulas are chosen by the family's type and written out here, so
agreement pins the quadrature identity, the 1 / (l (l + 1)) factors, the
family's N, dN/df and dN/dlambda, and the rotating-frame forcing.

`residual_field` is the unprojected residual on the problem's own transform
path, `invariance_defect` rotates every basis field by every group
element, `sup_bound` is the a-priori bound on sup |psi| along a
saturating family's branch, and `projectors_by_element` is the group
average of the rotation blocks summed one element at a time.
"""

import math

import numpy as np
from scipy import optimize

from rotosphere import bifurcation as bif, sht

ZONAL_DEGREE_ONE_COEFF = 2.0 * math.sqrt(math.pi / 3.0)  # sin(lat) = this * Y_1^0


def _fixed_frame(problem):
    return isinstance(problem.family, bif.CubicShiftFamily)


def _z_values(problem):
    grid = problem.transform.grid
    return np.broadcast_to(grid.nodes[:, None], (grid.nlat, grid.nlon))


def _nonlinearity(problem, lam, f_values):
    family = problem.family
    if _fixed_frame(problem):
        return family.p(lam + f_values) - family.p(lam)
    arg = (1.0 + lam * lam) * f_values - family.mu * _z_values(problem)
    return family.p(arg)


def _nonlinearity_derivative(problem, lam, f_values):
    family = problem.family
    if _fixed_frame(problem):
        return family.dp(lam + f_values)
    arg = (1.0 + lam * lam) * f_values - family.mu * _z_values(problem)
    return (1.0 + lam * lam) * family.dp(arg)


def residual(problem, lam, x):
    tr, sub = problem.transform, problem.subspace
    f_half = sub.assemble_half(x)
    rhs = tr.analysis(_nonlinearity(problem, lam, tr.synthesis(f_half)))
    if not _fixed_frame(problem):  # the -2 nu z forcing, added as a coefficient
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


def residual_field(problem, lam, x):
    """Unprojected residual f - inv_laplacian(rhs) as a spectral field."""
    return sht.SpectralField(problem._residual_half(lam, x))


def invariance_defect(subspace):
    """Largest coefficient change of a basis field under a group element."""
    worst = 0.0
    for elem in subspace.group.elements():
        for b in subspace.basis:
            rotated = sht.rotate(b, elem.rotation, parity=elem.parity)
            worst = max(worst, float(np.max(np.abs(rotated.halves - b.halves))))
    return worst


def sup_bound(family: bif.SaturatingLinearFamily) -> float:
    """mu + b, with b chosen so P(b) dominates |P| on the non-monotone window."""
    zero_hi = 2.0 * family.mu + (2.0 * family.nu / (family.mu * family.kappa)) ** (1.0 / 3.0) * (
        (3.0 * family.mu) ** (1.0 / 3.0)
    )
    hi = max(4.0 * family.mu, zero_hi)
    while family.p(hi) <= 0:
        hi *= 2.0
    a = float(optimize.brentq(lambda t: float(family.p(t)), 2.0 * family.mu, hi, xtol=1e-12))
    tt = np.linspace(0.0, a, 4001)
    depth = float(np.max(np.abs(family.p(tt))))
    hi_b = a + 1.0
    while family.p(hi_b) < depth:
        hi_b *= 2.0
    b = float(optimize.brentq(lambda t: float(family.p(t)) - depth, a, hi_b, xtol=1e-12))
    return family.mu + b


def projectors_by_element(elements, lmax):
    """{l: P_l} for l = 1..lmax, each element's factorised block added in turn."""
    phases = [sht.rotation_phases(e.rotation, lmax) for e in elements]
    out = {}
    for l, delta in enumerate(sht.pi2_factors(lmax)):
        if l == 0:
            continue
        orders = slice(lmax - l, lmax + l + 1)
        total = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
        for elem, (left, middle, right) in zip(elements, phases):
            block = left[orders, None] * ((delta * middle[orders]) @ delta.T) * right[orders]
            total += -block if elem.parity and l % 2 == 1 else block
        v = bif._real_to_complex_block(l)
        out[l] = (v.conj().T @ total @ v).real / len(elements)
    return out

"""Oracle paths for the integral diagnostics of `fields`.

`grid_energy` integrates |U|^2 of the velocity on the grid, independently
of the gradient Parseval sum of `fields.energy`; `casimir_moment` reads one
order of `fields.casimir_moments`.
"""

from rotosphere import fields, sht


def grid_energy(psi):
    """Kinetic energy by direct quadrature of |U|^2 on the grid for psi's degree."""
    vel = fields.velocity_from_stream(psi, sht.default_transform(psi.lmax))
    return float(0.5 * vel.grid.integrate(vel.speed_squared()).real)


def casimir_moment(psi, k):
    """Integral of (vorticity)^k over the sphere, exact for bandlimited psi."""
    return fields.casimir_moments(psi, (k,))[k]

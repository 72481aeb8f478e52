"""Slow reference particle integrator on numpy arrays.

Fixed-step RK4 on a length-2 state array per seed, with a new array built
at every stage and the base gradient evaluated through numpy on scalars.
`stratosphere.particle_paths` runs the same scheme on Python floats, so
agreement between the two pins its stage times, stage weights and the
velocity formulas.
"""

import math

import numpy as np


def reference_paths(field, seeds, t_end, dt):
    """[(times, phi, theta)] for each seed."""
    n_steps = int(round(t_end / dt))
    out = []
    for phi0, theta0, z0 in seeds:
        inv_sqrt_rho = float(field.density.inv_sqrt(z0))

        def rhs(t, y):
            phi, theta = y
            big_phi = phi + field.omega * t
            s = math.sin(theta)
            cos_lat = math.cos(theta)
            d_phi, d_theta = field.base.gradient(big_phi, s)
            u = -field.omega * cos_lat - inv_sqrt_rho * float(d_theta)
            v = inv_sqrt_rho * float(d_phi) / cos_lat
            return np.array([u / cos_lat, v])

        y = np.array([phi0, theta0], dtype=float)
        times = [0.0]
        path = [y.copy()]
        t = 0.0
        for _ in range(n_steps):
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
            k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
            k4 = rhs(t + dt, y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += dt
            times.append(t)
            path.append(y.copy())
        path_arr = np.array(path)
        out.append((np.array(times), path_arr[:, 0], path_arr[:, 1]))
    return out

import numpy as np
import pytest

from rotosphere import sht


def real_part(lmax: int, coefficients: dict) -> sht.SpectralField:
    """The real field Re sum z Y_l^m over {(l, m): z} with m >= 0: its half
    table holds z/2 at m > 0 and Re z at m = 0."""
    field = sht.SpectralField.zeros(lmax)
    for (l, m), z in coefficients.items():
        field.halves[l, m] = complex(z).real if m == 0 else 0.5 * z
    return field


def random_real_field(lmax: int, seed: int = 0, decay: float = 0.0,
                      zero_mean: bool = True) -> sht.SpectralField:
    """Seeded random real-valued spectral field for property tests."""
    rng = np.random.default_rng(seed)
    field = real_part(lmax, {(l, m): np.exp(-decay * l) * (rng.normal() + 1j * rng.normal())
                             for l in range(1, lmax + 1) for m in range(0, l + 1)})
    if zero_mean:
        field.set(0, 0, 0.0)
    return field


@pytest.fixture(scope="session")
def transform31():
    return sht.default_transform(31)

import numpy as np
import pytest

from rotosphere import sht


def random_real_field(lmax: int, seed: int = 0, decay: float = 0.0,
                      zero_mean: bool = True) -> sht.SpectralField:
    """Seeded random real-valued spectral field for property tests."""
    rng = np.random.default_rng(seed)
    field = sht.SpectralField.zeros(lmax, real_valued=False)
    for l in range(1, lmax + 1):
        scale = np.exp(-decay * l)
        for m in range(0, l + 1):
            field.set(l, m, scale * (rng.normal() + 1j * rng.normal()))
    field.enforce_reality()
    if zero_mean:
        field.set(0, 0, 0.0)
    return field


@pytest.fixture(scope="session")
def transform31():
    return sht.default_transform(31)

"""Pseudospectral tools for inviscid flow on a rotating sphere."""

__version__ = "0.1.0"

from .sht import (  # noqa: F401
    GaussGrid,
    RotationSpec,
    SpectralField,
    build_grid,
    harmonic,
    invert_laplacian,
    laplacian,
    rotate,
)


def clear_caches() -> None:
    """Empty every cache of numerical tables the package keeps: transforms,
    Laplacian eigenvalues, the Wigner d(pi/2) tables above degree 0, named
    invariant subspaces and continuation grids.  Later calls rebuild them
    with the same bytes."""
    from . import bifurcation, sht

    for cached in (sht.get_transform, sht.laplacian_eigenvalues,
                   bifurcation._named_subspace, bifurcation._orbit_quadrature):
        cached.cache_clear()
    for l in [l for l in sht._pi2_tables if l > 0]:
        del sht._pi2_tables[l]

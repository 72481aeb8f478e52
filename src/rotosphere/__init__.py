"""Pseudospectral tools for inviscid flow on a rotating sphere."""

__version__ = "0.1.0"

from .sht import (  # noqa: F401
    GaussGrid,
    GridField,
    RotationSpec,
    SpectralField,
    TruncationSpec,
    build_grid,
    harmonic,
    invert_laplacian,
    laplacian,
    rotate,
)

"""Slow reference transforms over the full table of orders -L..L.

The negative orders are synthesised and analysed separately, the longitude
transforms are complex FFTs, and the real part of the result is kept.
It shares only the Legendre table and the grid with `sht.Transform`, so
agreement between the two pins the m >= 0 contraction, the rfft/irfft
scaling, the i*m factor and the rebuilding of negative orders.
"""

import math

import numpy as np

from rotosphere import sht


class ReferenceTransform:
    def __init__(self, lmax: int, nlat: int, nlon: int):
        self.lmax = L = lmax
        self.grid = sht.build_grid(nlat, nlon)
        coslat = self.grid.cos_lat
        ptab_ext = sht.normalized_legendre_table(L + 1, self.grid.nodes)
        ptab = ptab_ext[:, : L + 1, : L + 1]
        eps = np.zeros((L + 2, L + 1))
        for l in range(1, L + 2):
            for m in range(0, min(l, L) + 1):
                eps[l, m] = math.sqrt((l * l - m * m) / (4.0 * l * l - 1.0))
        dtab = np.zeros_like(ptab)
        for l in range(L + 1):
            upper = (l + 1) * eps[l, : l + 1] * (ptab_ext[:, l - 1, : l + 1] if l >= 1 else 0.0)
            lower = l * eps[l + 1, : l + 1] * ptab_ext[:, l + 1, : l + 1]
            dtab[:, l, : l + 1] = (upper - lower) / coslat[:, None]
        # (order, nlat, degree) tables
        self._p = ptab.transpose(2, 0, 1)
        self._d = dtab.transpose(2, 0, 1)
        self._pc = (ptab / coslat[:, None, None]).transpose(2, 0, 1)
        self._msigns = np.where(np.arange(L + 1) % 2 == 0, 1.0, -1.0)

    def _split(self, coeffs):
        L = self.lmax
        return coeffs[:, L:], coeffs[:, L - 1 :: -1] * self._msigns[1:][None, :]

    @staticmethod
    def _apply(table, cols):
        # table (order, rows, degree) times complex columns (degree, order)
        return np.einsum("mrl,lm->rm", table, cols)

    def _to_grid(self, coeffs, table):
        L, nlon = self.lmax, self.grid.nlon
        cpos, cneg = self._split(coeffs)
        spectrum = np.zeros((self.grid.nlat, nlon), dtype=complex)
        spectrum[:, : L + 1] = self._apply(table, cpos)
        spectrum[:, nlon - L :] = self._apply(table[1:], cneg)[:, ::-1]
        return (np.fft.ifft(spectrum, axis=1) * nlon).real

    def synthesis(self, field):
        return self._to_grid(field.coeffs, self._p)

    def gradient_values(self, field):
        m = np.arange(-self.lmax, self.lmax + 1)
        return (self._to_grid(field.coeffs, self._d),
                self._to_grid(field.coeffs * (1j * m)[None, :], self._pc))

    def analysis(self, values):
        L, nlon = self.lmax, self.grid.nlon
        fourier = np.fft.fft(values, axis=1) * (2.0 * math.pi / nlon)
        weighted = self.grid.weights[:, None] * fourier
        ptab_t = self._p.transpose(0, 2, 1)
        cpos = self._apply(ptab_t, weighted[:, : L + 1])
        cneg = self._apply(ptab_t[1:], weighted[:, nlon - L :][:, ::-1]) * self._msigns[1:]
        coeffs = np.zeros((L + 1, 2 * L + 1), dtype=complex)
        coeffs[:, L:] = cpos
        coeffs[:, :L] = cneg[:, ::-1]
        return sht.SpectralField.from_table(coeffs)

"""Slow reference transforms over the full table of orders -L..L.

The negative orders are synthesised and analysed separately, the longitude
transforms are complex FFTs, and the real part of the result is kept.
It shares only the grid with `sht.Transform`; its Legendre table is
`full_legendre_table`, so agreement between the two pins the m >= 0
contraction, the rfft/irfft scaling, the i*m factor, the rebuilding of
negative orders and the library's Legendre recurrence.

`ScipyFFTTransform` is `sht.Transform` as it was on scipy.fft, with its
gradient table built eagerly from the degree lmax+1 Legendre table: an
independent FFT path for the real-DFT longitude stage and the lazily built
gradient table, on the m >= 0 orders and with batches.

`FullTableTransform` is `sht.Transform`'s Legendre stage as it was before the
per-group slabs: full (lmax+1)^2 x nlat tables from `full_legendre_table`,
the former recurrence that writes each order in place, sliced per order
group.  It multiplies the same numbers in the same order as the slabs, so
the two agree bit for bit.

`evaluate` sums a field's harmonics at arbitrary points, and
`rotate_field_values`, the grid oracle for `sht.rotate`, samples the rotated
field with it at the rotated grid points.  `antipodal` applies the antipodal map that
turns a rotation into an improper element.
"""

import math

import numpy as np
import scipy.fft

from rotosphere import sht


class ReferenceTransform:
    def __init__(self, lmax: int, nlat: int, nlon: int):
        self.lmax = L = lmax
        self.grid = sht.build_grid(nlat, nlon)
        coslat = self.grid.cos_lat
        ptab_ext = full_legendre_table(L + 1, self.grid.nodes)
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
        return sht.SpectralField.from_table(self.analysis_table(values))

    def analysis_table(self, values):
        """The full table of `analysis`, before its reality check: the mirror
        defect of values far from bandlimited exceeds that check's 1e-12."""
        L, nlon = self.lmax, self.grid.nlon
        fourier = np.fft.fft(values, axis=1) * (2.0 * math.pi / nlon)
        weighted = self.grid.weights[:, None] * fourier
        ptab_t = self._p.transpose(0, 2, 1)
        cpos = self._apply(ptab_t, weighted[:, : L + 1])
        cneg = self._apply(ptab_t[1:], weighted[:, nlon - L :][:, ::-1]) * self._msigns[1:]
        coeffs = np.zeros((L + 1, 2 * L + 1), dtype=complex)
        coeffs[:, L:] = cpos
        coeffs[:, :L] = cneg[:, ::-1]
        return coeffs


def antipodal(field):
    """The field composed with x -> -x, which multiplies degree l by (-1)^l:
    with a rotation, an improper element of O(3)."""
    halves = field.halves.copy()
    halves[1::2] *= -1.0
    return sht.SpectralField(halves)


def rotate_field_values(field, rot, grid, parity=False):
    """Sample f(R^{-1} x) on the grid by point evaluation."""
    R = rot.matrix()
    if parity:
        R = -R
    s_grid = np.broadcast_to(grid.nodes[:, None], (grid.nlat, grid.nlon))
    phi_grid = np.broadcast_to(grid.longitudes[None, :], (grid.nlat, grid.nlon))
    cos_lat = np.sqrt(1.0 - s_grid**2)
    xyz = np.stack(
        [cos_lat * np.cos(phi_grid), cos_lat * np.sin(phi_grid), s_grid], axis=-1
    )
    rotated = xyz @ R  # row-vector convention: equals R^{-1} applied to each point
    s_new = np.clip(rotated[..., 2], -1.0, 1.0)
    phi_new = np.arctan2(rotated[..., 1], rotated[..., 0])
    return evaluate(field, phi_new.ravel(), s_new.ravel()).reshape(phi_new.shape)


class ScipyFFTTransform:
    """`sht.Transform` as it was on scipy.fft: the Legendre products on the
    order-major columns [h_0.re, h_0.im, h_1.re, ...], the gradient table built
    eagerly from the degree lmax+1 Legendre table, the i*m factor applied to
    the Fourier rows, and scipy's irfft/rfft in longitude."""

    def __init__(self, lmax, nlat, nlon):
        self.lmax = L = lmax
        self.grid = sht.build_grid(nlat, nlon)
        coslat = self.grid.cos_lat[None, :, None]
        ptab = full_legendre_table(L + 1, self.grid.nodes).transpose(2, 0, 1)[: L + 1]
        self._p = np.ascontiguousarray(ptab[:, :, : L + 1])
        l = np.arange(L + 2)[None, :]
        m = np.arange(L + 1)[:, None]
        eps = np.sqrt(np.where((m <= l) & (l > 0), l * l - m * m, 0) / (4.0 * l * l - 1.0))
        self._grad = np.zeros((L + 1, 2 * nlat, L + 1))
        dtheta = self._grad[:, :nlat]
        dtheta[:, :, 1:] = ((l[:, 1 : L + 1] + 1) * eps[:, 1 : L + 1])[:, None, :] * ptab[:, :, :L]
        dtheta -= (l[:, : L + 1] * eps[:, 1:])[:, None, :] * ptab[:, :, 1:]
        dtheta /= coslat
        np.divide(self._p, coslat, out=self._grad[:, nlat:])
        self._weights = self.grid.weights[:, None] * (2.0 * math.pi / nlon)
        self._im = 1j * np.arange(L + 1)

    @staticmethod
    def _to_grid(table, halves):
        # (batch, l, m) half tables -> (batch, rows, m) Fourier rows
        cols = np.ascontiguousarray(halves.transpose(2, 1, 0), dtype=complex).view(float)
        return np.matmul(table, cols).view(complex).transpose(2, 1, 0)

    def _irfft(self, spectra):
        return scipy.fft.irfft(spectra, n=self.grid.nlon, axis=-1, norm="forward")

    def _analyse(self, values):
        fourier = np.ascontiguousarray(scipy.fft.rfft(values.transpose(2, 1, 0), axis=0)[: self.lmax + 1])
        fourier *= self._weights
        return np.matmul(self._p.transpose(0, 2, 1), fourier.view(float)).view(complex).transpose(2, 1, 0)

    def synthesis(self, halves):
        batch = halves.reshape(-1, self.lmax + 1, self.lmax + 1)
        values = self._irfft(self._to_grid(self._p, batch))
        return values.reshape(*halves.shape[:-2], *values.shape[1:])

    def gradient_values(self, halves):
        batch, nlat = halves.reshape(-1, self.lmax + 1, self.lmax + 1), self.grid.nlat
        spectra = self._to_grid(self._grad, batch)
        spectra[:, nlat:] *= self._im
        values = self._irfft(spectra).reshape(*halves.shape[:-2], 2 * nlat, self.grid.nlon)
        return values[..., :nlat, :], values[..., nlat:, :]

    def analysis(self, values):
        halves = self._analyse(values.reshape(-1, self.grid.nlat, self.grid.nlon))
        return halves.reshape(*values.shape[:-2], *halves.shape[1:])

    def bracket(self, pair):
        dtheta, dphi_over_cos = self.gradient_values(pair)
        out = self.analysis(-dtheta[0] * dphi_over_cos[1] + dphi_over_cos[0] * dtheta[1])
        out[0, 0] = 0.0
        return out


def full_legendre_table(lmax, s):
    """Orthonormal associated Legendre functions at the points s, shape
    (len(s), lmax+1, lmax+1) with P[i, l, m] the degree-l order-m function
    at s[i]: the library's full table as it was before the slab storage, each
    order's recurrence reading its two lower degrees back from the table."""
    s = np.asarray(s, dtype=float)
    table = np.zeros((s.size, lmax + 1, lmax + 1))
    c = np.sqrt(np.maximum(0.0, 1.0 - s * s))
    log_ratio = 0.0
    for m in range(lmax + 1):
        column = table[:, :, m]
        if m == 0:
            pmm = np.full(s.size, 1.0 / math.sqrt(4.0 * math.pi))
        else:
            log_ratio += 0.5 * math.log((2 * m + 1) / (2 * m))
            with np.errstate(divide="ignore"):
                logc = np.log(np.where(c > 0.0, c, 1.0))
            sign = -1.0 if m % 2 else 1.0
            pmm = sign / math.sqrt(4.0 * math.pi) * np.exp(log_ratio + m * logc)
            pmm = np.where(c > 0.0, pmm, 0.0)
        column[:, m] = pmm
        if m < lmax:
            column[:, m + 1] = math.sqrt(2 * m + 3) * s * pmm
        for l in range(m + 2, lmax + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(
                ((2.0 * l + 1.0) * (l - 1.0 - m) * (l - 1.0 + m))
                / ((2.0 * l - 3.0) * (l - m) * (l + m))
            )
            column[:, l] = a * s * column[:, l - 1] - b * column[:, l - 2]
    return table


class FullTableTransform:
    """`sht.Transform` on full Legendre tables: P (m, latitude, l), its degree
    lmax+1, and the [d/dtheta, P / cos] table (2, m, l, latitude) built from
    them whole; each group of sht.ORDER_GROUP orders from lo multiplies a
    strided view of its degrees l >= lo.  The DFT tables and the column
    converters are `sht`'s own."""

    def __init__(self, lmax, nlat, nlon):
        self.lmax = L = lmax
        self.grid = sht.build_grid(nlat, nlon)
        ptab = full_legendre_table(L + 1, self.grid.nodes).transpose(2, 0, 1)[: L + 1]
        self._p = np.ascontiguousarray(ptab[:, :, : L + 1])
        p_next = np.ascontiguousarray(ptab[:, :, L + 1])
        self._dft = sht._dft_tables(L, nlon)
        coslat = self.grid.cos_lat[None, :, None]
        l = np.arange(L + 2)[None, :]
        m = np.arange(L + 1)[:, None]
        eps = np.sqrt(np.where((m <= l) & (l > 0), l * l - m * m, 0) / (4.0 * l * l - 1.0))
        self._grad = np.zeros((2, L + 1, L + 1, nlat))
        dtheta, p_over_cos = self._grad.transpose(0, 1, 3, 2)
        dtheta[:, :, 1:] = ((l[:, 1 : L + 1] + 1) * eps[:, 1 : L + 1])[:, None, :] * self._p[:, :, :L]
        lower = l[:, : L + 1] * eps[:, 1:]
        dtheta[:, :, :L] -= lower[:, None, :L] * self._p[:, :, 1:]
        dtheta[:, :, L] -= lower[:, L:] * p_next
        dtheta /= coslat
        np.divide(self._p, coslat, out=p_over_cos)

    def _to_grid(self, table, cols):
        orders, batch, nlat = self.lmax + 1, cols.shape[1] // 2, self.grid.nlat
        rows = np.empty((len(table), orders, 2 * batch, nlat))
        for lo in range(0, orders, sht.ORDER_GROUP):
            group = slice(lo, lo + sht.ORDER_GROUP)
            np.matmul(cols[group, :, lo:], table[:, group, lo:], out=rows[:, group])
        fields = rows.reshape(len(table), 2 * orders, batch, nlat).transpose(0, 2, 1, 3)
        synthesis = self._dft[0][: len(table), None].transpose(0, 1, 3, 2)
        return np.matmul(synthesis, fields).transpose(0, 1, 3, 2)

    def _analyse(self, values):
        batch, nlat, nlon = values.shape
        orders = self.lmax + 1
        rows = self._dft[1].T @ values.transpose(2, 0, 1).reshape(nlon, batch * nlat)
        rows = rows.reshape(orders, 2 * batch, nlat)
        rows *= self.grid.weights
        out = np.zeros((orders, 2 * batch, orders))
        for lo in range(0, orders, sht.ORDER_GROUP):
            group = slice(lo, lo + sht.ORDER_GROUP)
            np.matmul(rows[group], self._p[group, :, lo:], out=out[group, :, lo:])
        return out

    def synthesis(self, halves):
        batch = halves.reshape(-1, self.lmax + 1, self.lmax + 1)
        values = self._to_grid(self._p.transpose(0, 2, 1)[None], sht.to_columns(batch))[0]
        return values.reshape(*halves.shape[:-2], *values.shape[1:])

    def gradient_values(self, halves):
        batch = halves.reshape(-1, self.lmax + 1, self.lmax + 1)
        dtheta, dphi_over_cos = self._to_grid(self._grad, sht.to_columns(batch))
        shape = (*halves.shape[:-2], *dtheta.shape[1:])
        return dtheta.reshape(shape), dphi_over_cos.reshape(shape)

    def analysis(self, values):
        halves = sht.from_columns(self._analyse(values.reshape(-1, self.grid.nlat, self.grid.nlon)))
        return halves.reshape(*values.shape[:-2], *halves.shape[1:])

    def bracket(self, pair):
        dtheta, dphi_over_cos = self._to_grid(self._grad, sht.to_columns(pair))
        product = dphi_over_cos[0] * dtheta[1]
        product -= dtheta[0] * dphi_over_cos[1]
        out = self._analyse(product[None])
        out[0, :, 0] = 0.0
        return sht.from_columns(out)[0]


def evaluate(field, phi, s):
    """Pointwise evaluation of a spectral field at arbitrary (phi, s) locations."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if phi.shape != s.shape:
        raise ValueError("phi and s must have matching shapes")
    L = field.lmax
    ptab = full_legendre_table(L, s.ravel())
    # order -m adds the conjugate of order m: twice the real part for m > 0
    weighted = field.halves * np.where(np.arange(L + 1) == 0, 1.0, 2.0)
    phases = np.exp(1j * np.outer(phi.ravel(), np.arange(L + 1)))
    return np.einsum("ilm,lm,im->i", ptab, weighted, phases).real.reshape(phi.shape)

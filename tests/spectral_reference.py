"""Full-table model of the `sht.SpectralField` arithmetic.

The field is a dense (lmax+1, 2*lmax+1) complex table over the orders
-l..l, column lmax + m, as `SpectralField` was stored before it kept only
its m >= 0 half tables.  Each operation is the full-table arithmetic of that
layout; element writes to a real field also write the mirror
c_l^{-m} = (-1)^m conj(c_l^m), so both models realise the same field.
"""

import numpy as np


def order_signs(lmax: int) -> np.ndarray:
    """(-1)^m for m = 0..lmax."""
    return np.where(np.arange(lmax + 1) % 2 == 0, 1.0, -1.0)


def reality_defect(table: np.ndarray) -> float:
    """Max violation of c_l^{-m} = (-1)^m conj(c_l^m) and of a real m = 0 column."""
    L = table.shape[0] - 1
    pos, neg = table[:, L + 1 :], table[:, L - 1 :: -1]
    defect = float(np.max(np.abs(neg - order_signs(L)[None, 1:] * np.conj(pos)), initial=0.0))
    return max(defect, float(np.max(np.abs(table[:, L].imag), initial=0.0)))


class FullTableField:
    def __init__(self, lmax: int, real_valued: bool = True, coeffs=None):
        self.lmax = lmax
        self.real_valued = real_valued
        shape = (lmax + 1, 2 * lmax + 1)
        self.coeffs = np.zeros(shape, dtype=complex) if coeffs is None else coeffs.copy()

    def get(self, l: int, m: int) -> complex:
        return self.coeffs[l, self.lmax + m]

    def _write(self, l: int, m: int, value: complex, add: bool) -> None:
        L = self.lmax
        entries = [(m, value)]
        if self.real_valued:
            if m == 0 and complex(value).imag != 0.0:
                raise ValueError("an m = 0 coefficient of a real field must be real")
            entries = [(m, complex(value).real)] if m == 0 else entries + [
                (-m, (-1.0) ** m * np.conj(value))]
        for order, v in entries:
            if add:
                self.coeffs[l, L + order] += v
            else:
                self.coeffs[l, L + order] = v

    def set(self, l: int, m: int, value: complex) -> None:
        self._write(l, m, value, add=False)

    def add_to(self, l: int, m: int, value: complex) -> None:
        self._write(l, m, value, add=True)

    def __add__(self, other: "FullTableField") -> "FullTableField":
        return FullTableField(self.lmax, self.real_valued and other.real_valued,
                              self.coeffs + other.coeffs)

    def __sub__(self, other: "FullTableField") -> "FullTableField":
        return FullTableField(self.lmax, self.real_valued and other.real_valued,
                              self.coeffs - other.coeffs)

    def scaled(self, factor: complex) -> "FullTableField":
        return FullTableField(self.lmax, self.real_valued and bool(np.isreal(factor)),
                              self.coeffs * factor)

    def truncated(self, lmax: int) -> "FullTableField":
        out = FullTableField(lmax, self.real_valued)
        L = min(lmax, self.lmax)
        out.coeffs[: L + 1, lmax - L : lmax + L + 1] = self.coeffs[
            : L + 1, self.lmax - L : self.lmax + L + 1]
        return out

    def laplacian(self) -> "FullTableField":
        l = np.arange(self.lmax + 1, dtype=float)
        return FullTableField(self.lmax, self.real_valued,
                              self.coeffs * (-l * (l + 1.0))[:, None])

    def invert_laplacian(self) -> "FullTableField":
        l = np.arange(1, self.lmax + 1, dtype=float)
        out = FullTableField(self.lmax, self.real_valued)
        out.coeffs[1:] = self.coeffs[1:] / (-l * (l + 1.0))[:, None]
        return out

    def enforce_reality(self) -> "FullTableField":
        """The real part: (c_l^m + (-1)^m conj(c_l^{-m})) / 2 and its mirror."""
        L = self.lmax
        signs = order_signs(L)
        half = 0.5 * (self.coeffs[:, L:] + signs * np.conj(self.coeffs[:, L::-1]))
        self.coeffs[:, L:] = half
        self.coeffs[:, L] = half[:, 0].real
        self.coeffs[:, :L] = (signs[1:] * np.conj(half[:, 1:]))[:, ::-1]
        self.real_valued = True
        return self

    def degree_power(self) -> np.ndarray:
        return np.sum(np.abs(self.coeffs) ** 2, axis=1)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

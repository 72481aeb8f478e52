"""Symmetry-restricted Galerkin-Newton continuation for semilinear balances.

The stationary problem is posed as a fixed-point equation in the zero-mean
Hoelder space, f = inv_laplacian(F(lambda, f) - mean), restricted to the
subspace of fields invariant under a finite subgroup of the orthogonal
group.  Bifurcation points off the trivial branch are detected from the
scalar linearized multiplier, and branches are followed by pseudo-arclength
predictor-corrector steps with a-priori bound monitoring.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from . import sht
from .sht import RotationSpec, SpectralField

# ---------------------------------------------------------------------------
# Finite subgroups of O(3)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class GroupElement:
    rotation: RotationSpec
    parity: bool


@dataclasses.dataclass
class SymmetryGroup:
    name: str
    matrices: list[np.ndarray]

    @property
    def order(self) -> int:
        return len(self.matrices)

    def elements(self) -> list[GroupElement]:
        out = []
        for mat in self.matrices:
            parity = np.linalg.det(mat) < 0
            rot = -mat if parity else mat
            out.append(GroupElement(rotation=sht.euler_from_matrix(rot), parity=bool(parity)))
        return out


def _closure(generators: list[np.ndarray], max_order: int = 256) -> list[np.ndarray]:
    def key(mat):
        return tuple(np.round(mat, 9).ravel())

    elems = {key(np.eye(3)): np.eye(3)}
    frontier = [np.eye(3)]
    gens = [np.asarray(g, dtype=float) for g in generators]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = g @ a
                k = key(b)
                if k not in elems:
                    if len(elems) >= max_order:
                        raise ArithmeticError("group closure exceeded the element budget")
                    elems[k] = b
                    nxt.append(b)
        frontier = nxt
    return [elems[k] for k in sorted(elems)]


def group_from_generators(name: str, generators: list[np.ndarray]) -> SymmetryGroup:
    for g in generators:
        if abs(abs(np.linalg.det(g)) - 1.0) > 1e-10:
            raise ValueError("group generators must be orthogonal matrices")
    return SymmetryGroup(name=name, matrices=_closure(generators))


def tetrahedral_group() -> SymmetryGroup:
    """Full symmetry group of the regular tetrahedron (order 24)."""
    c3 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # x->y->z->x
    s4z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    group = group_from_generators("tetrahedral", [c3, s4z])
    assert group.order == 24
    return group


def antiprism_group(n: int = 4) -> SymmetryGroup:
    """Symmetry group of the n-gonal antiprism (order 4n)."""
    angle = math.pi / n
    s2n = sht._rot_z(angle) @ np.diag([1.0, 1.0, -1.0])
    c2x = np.diag([1.0, -1.0, -1.0])
    group = group_from_generators(f"D{n}d", [s2n, c2x])
    assert group.order == 4 * n
    return group


def trivial_group() -> SymmetryGroup:
    return SymmetryGroup(name="trivial", matrices=[np.eye(3)])


NAMED_GROUPS: dict[str, Callable[[], SymmetryGroup]] = {
    "tetrahedral": tetrahedral_group,
    "d4d": lambda: antiprism_group(4),
    "d2d": lambda: antiprism_group(2),
    "trivial": trivial_group,
}


# ---------------------------------------------------------------------------
# Invariant subspaces by group averaging
# ---------------------------------------------------------------------------

def _real_to_complex_block(l: int) -> np.ndarray:
    """Unitary sending real-basis coordinates to complex coefficients, degree l."""
    dim = 2 * l + 1
    v = np.zeros((dim, dim), dtype=complex)
    v[l, l] = 1.0
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for mu in range(1, l + 1):
        sign = (-1.0) ** mu
        # column for the cos-type real function (label +mu)
        v[l + mu, l + mu] = inv_sqrt2
        v[l - mu, l + mu] = sign * inv_sqrt2
        # column for the sin-type real function (label -mu)
        v[l + mu, l - mu] = -1j * sign * inv_sqrt2
        v[l - mu, l - mu] = 1j * inv_sqrt2
    return v


def group_projectors(elements: Sequence[GroupElement],
                     lmax: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (l, P_l) for l = 1..lmax: the group average of the degree-l
    rotation blocks in the real basis.

    Every block is diag(left) Delta diag(middle) Delta^T diag(right) (see
    `sht.rotation_block`); a degree sums the elements' blocks, parity signs
    included, in one pass and takes the sum to the real basis once.  The
    middle product depends on beta alone, so elements sharing a beta share
    it, and the rest is elementwise.
    """
    phases = [sht.rotation_phases(e.rotation, lmax) for e in elements]
    for l, delta in enumerate(sht.pi2_factors(lmax)):
        if l == 0:
            continue
        orders = slice(lmax - l, lmax + l + 1)
        total = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
        by_beta: dict[float, np.ndarray] = {}
        for elem, (left, middle, right) in zip(elements, phases):
            beta = elem.rotation.beta
            if beta not in by_beta:
                by_beta[beta] = (delta * middle[orders]) @ delta.T
            sign = -1.0 if elem.parity and l % 2 == 1 else 1.0
            total += sign * left[orders, None] * by_beta[beta] * right[orders]
        v = _real_to_complex_block(l)
        yield l, (v.conj().T @ total @ v).real / len(elements)


@dataclasses.dataclass
class SymmetrySubspace:
    """Orthonormal real basis of group-invariant fields, organized by degree."""

    group: SymmetryGroup
    lmax: int
    degrees: list[int]                 # degree of each basis element
    basis: list[SpectralField]         # unit-norm real fields, one degree each
    dimension_by_degree: dict[int, int]

    def __post_init__(self):
        # m >= 0 half tables of the basis fields, stacked (dim, l, m)
        self.halves = np.stack([b.halves for b in self.basis])
        # inner products of real fields on half tables: order 0 once, m > 0 twice
        weighted = self.halves * np.where(np.arange(self.lmax + 1) == 0, 1.0, 2.0)
        self._rows = weighted.view(float).reshape(self.dim, -1)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def simple_degrees(self) -> list[int]:
        """Degrees whose invariant subspace is one-dimensional."""
        return sorted(l for l, d in self.dimension_by_degree.items() if d == 1)

    def assemble_half(self, x: np.ndarray) -> np.ndarray:
        return np.tensordot(x, self.halves, axes=1)

    def assemble(self, x: np.ndarray) -> SpectralField:
        return SpectralField(self.assemble_half(x))

    def project_half(self, halves: np.ndarray) -> np.ndarray:
        """Coordinates of real fields given as half tables (..., l, m); a
        leading batch axis gives one row of coordinates per field."""
        flat = np.ascontiguousarray(halves).view(float)
        return flat.reshape(*halves.shape[:-2], -1) @ self._rows.T

    def project(self, field: SpectralField) -> np.ndarray:
        """Coordinates of the field."""
        return self.project_half(field.halves)

    def generator_index(self, degree: int) -> int:
        idx = [i for i, d in enumerate(self.degrees) if d == degree]
        if len(idx) != 1:
            raise ValueError(f"degree {degree} does not carry a one-dimensional subspace")
        return idx[0]


def build_subspace(group: SymmetryGroup | str, lmax: int,
                   eig_threshold: float = 0.5) -> SymmetrySubspace:
    """Group-averaged projector per degree, orthonormal invariant basis.

    The averaging matrix over an orthogonal representation is a symmetric
    idempotent; its unit-eigenvalue eigenvectors span the invariants.
    """
    if isinstance(group, str):
        if group.lower() not in NAMED_GROUPS:
            raise ValueError(f"unknown group {group!r}; known: {sorted(NAMED_GROUPS)}")
        group = NAMED_GROUPS[group.lower()]()
    degrees: list[int] = []
    basis: list[SpectralField] = []
    dims: dict[int, int] = {}
    for l, proj in group_projectors(group.elements(), lmax):
        eigvals, eigvecs = np.linalg.eigh(0.5 * (proj + proj.T))
        keep = [i for i in range(eigvals.size) if eigvals[i] > eig_threshold]
        dims[l] = len(keep)
        v = _real_to_complex_block(l)
        for i in keep:
            r = eigvecs[:, i]
            # deterministic sign: largest-magnitude coordinate positive
            pivot = int(np.argmax(np.abs(r)))
            if r[pivot] < 0:
                r = -r
            c_block = v @ r
            table = np.zeros((lmax + 1, 2 * lmax + 1), dtype=complex)
            table[l, lmax - l : lmax + l + 1] = c_block
            degrees.append(l)
            # the real part: the average of the computed row and its mirror
            basis.append(SpectralField(sht._mirror_average(table)))
    if not basis:
        raise ArithmeticError(f"group {group.name!r} has no invariant harmonics up to degree {lmax}")
    return SymmetrySubspace(group=group, lmax=lmax, degrees=degrees, basis=basis,
                            dimension_by_degree=dims)


# ---------------------------------------------------------------------------
# Nonlinearity families
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CubicShiftFamily:
    """F(lambda, f) = P(lambda + f) - P(lambda) for a shifted odd cubic P.

    P(t) = mu1 t^3 - (mu + l(l+1)) t with mu, mu1 > 0; the trivial branch
    f = 0 exists for all lambda and loses simplicity where P'(lambda)
    crosses -l(l+1), i.e. at lambda = +/- sqrt(mu / (3 mu1)).
    """

    mu: float
    mu1: float
    degree: int

    def __post_init__(self):
        if self.mu <= 0 or self.mu1 <= 0:
            raise ValueError("mu and mu1 must be positive")

    def p(self, t):
        return self.mu1 * t**3 - (self.mu + self.degree * (self.degree + 1)) * t

    def dp(self, t):
        return 3.0 * self.mu1 * t**2 - (self.mu + self.degree * (self.degree + 1))

    def value(self, lam: float, f: np.ndarray) -> np.ndarray:
        return self.p(lam + f) - self.p(lam)

    def derivative(self, lam: float, f: np.ndarray) -> np.ndarray:
        return self.dp(lam + f)

    def linear_multiplier(self, lam):
        return self.dp(lam)

    def apriori_bounds(self) -> tuple[float, float, float]:
        """(a_minus, a_plus, A): window with P increasing outside and |P| <= A inside."""
        from scipy import optimize

        ll1 = self.degree * (self.degree + 1)
        turn = math.sqrt((self.mu + ll1) / (3.0 * self.mu1))
        depth = abs(self.p(turn))
        root = math.sqrt((self.mu + ll1) / self.mu1)

        def excess(t):
            return self.p(t) - depth

        hi = root + 1.0
        while excess(hi) < 0:
            hi *= 2.0
        a_plus = float(optimize.brentq(excess, root, hi, xtol=1e-12))
        return (-a_plus, a_plus, float(self.p(a_plus)))


@dataclasses.dataclass(frozen=True)
class SaturatingLinearFamily:
    """Odd C^2 profile: linear with slope -2 nu / mu near zero, cubic growth outside.

    Used for the rotating-frame branch: the balance reads
    Delta f = P((1+lambda^2) f - mu z) - 2 nu z - mean, z the axial
    coordinate, and nu is pinned to the degree by
    nu = beta l(l+1) / (l(l+1) - 2).
    """

    beta: float
    mu: float
    degree: int

    def __post_init__(self):
        ll1 = self.degree * (self.degree + 1)
        if self.degree < 2:
            raise ValueError(f"degree must be >= 2, got {self.degree}")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.mu <= 2.0 * self.nu / ll1:
            raise ValueError(
                f"mu must exceed 2 nu / (l(l+1)) = {2.0 * self.nu / ll1}"
            )

    @property
    def nu(self) -> float:
        ll1 = self.degree * (self.degree + 1)
        return self.beta * ll1 / (ll1 - 2.0)

    @property
    def slope(self) -> float:
        return -2.0 * self.nu / self.mu

    @property
    def kappa(self) -> float:
        return self.nu / self.mu**3

    def p(self, t):
        t = np.asarray(t, dtype=float)
        core = self.slope * t
        excess = np.abs(t) - 2.0 * self.mu
        outer = np.where(excess > 0.0, self.kappa * np.sign(t) * np.maximum(excess, 0.0) ** 3, 0.0)
        return core + outer

    def dp(self, t):
        t = np.asarray(t, dtype=float)
        excess = np.abs(t) - 2.0 * self.mu
        return self.slope + np.where(excess > 0.0, 3.0 * self.kappa * np.maximum(excess, 0.0) ** 2, 0.0)

    def linear_multiplier(self, lam):
        return (1.0 + lam * lam) * self.slope

    def bifurcation_lambda(self) -> float:
        ll1 = self.degree * (self.degree + 1)
        val = self.mu * ll1 / (2.0 * self.nu) - 1.0
        if val <= 0:
            raise ArithmeticError("no real bifurcation parameter for these constants")
        return math.sqrt(val)

    def sup_bound(self) -> float:
        """mu + b, with b chosen so P(b) dominates |P| on the non-monotone window."""
        from scipy import optimize

        zero_hi = 2.0 * self.mu + (2.0 * self.nu / (self.mu * self.kappa)) ** (1.0 / 3.0) * (
            (3.0 * self.mu) ** (1.0 / 3.0)
        )
        hi = max(4.0 * self.mu, zero_hi)
        while self.p(hi) <= 0:
            hi *= 2.0
        a = float(optimize.brentq(lambda t: float(self.p(t)), 2.0 * self.mu, hi, xtol=1e-12))
        tt = np.linspace(0.0, a, 4001)
        depth = float(np.max(np.abs(self.p(tt))))
        hi_b = a + 1.0
        while self.p(hi_b) < depth:
            hi_b *= 2.0
        b = float(optimize.brentq(lambda t: float(self.p(t)) - depth, a, hi_b, xtol=1e-12))
        return self.mu + b


# ---------------------------------------------------------------------------
# Continuation problems
# ---------------------------------------------------------------------------

def grid_orbit_labels(group: SymmetryGroup, grid: sht.GaussGrid,
                      fix_z: bool) -> np.ndarray:
    """Orbit label of each grid point, flattened: the smallest flat index of
    its images under the group elements that map the grid onto itself.

    An element folds when it sends z to +/- z (to z alone if `fix_z`), which
    maps Gauss row i to itself or to nlat - 1 - i, and longitude phi to
    +/- phi + c with c a multiple of 2 pi / nlon.  Those elements form a
    subgroup, so each label names one orbit; a group-invariant integrand
    takes one value on an orbit.
    """
    nlat, nlon = grid.nlat, grid.nlon
    rows, cols = np.arange(nlat)[:, None], np.arange(nlon)
    labels = rows * nlon + cols
    for mat in group.matrices:
        flip = mat[2, 2]
        off_axis = max(np.max(np.abs(mat[2, :2])), np.max(np.abs(mat[:2, 2])))
        if off_axis > 1e-9 or (fix_z and flip < 0):
            continue
        plane = mat[:2, :2]  # rotation phi -> phi + c, or reflection phi -> c - phi
        shift = math.atan2(plane[1, 0], plane[0, 0]) * nlon / (2.0 * math.pi)
        if abs(shift - round(shift)) > 1e-9:
            continue
        sign = 1 if np.linalg.det(plane) > 0 else -1
        image_rows = rows if flip > 0 else nlat - 1 - rows
        labels = np.minimum(labels, image_rows * nlon + (sign * cols + round(shift)) % nlon)
    return labels.ravel()


@dataclasses.dataclass
class ContinuationProblem:
    """Galerkin form of the fixed-point equation on an invariant subspace.

    Each basis field b_i has the single degree l_i and the analysis is
    Gauss quadrature, so the coordinates of the projected residual are
    R_i = x_i + sum_grid w b_i N(lambda, f) / (l_i (l_i + 1)) with
    f = sum_j x_j b_j.  The Newton loop therefore runs on the grid
    values of the basis, synthesised once: residual, Jacobian and
    dR/dlambda are matrix-vector products and one basis-sized product.

    The integrand is invariant under the group, so the sums run over one
    grid point per orbit of `grid_orbit_labels` (`grid_points`, flat
    indices), weighted by the orbit's total quadrature weight.  The
    rotating frame's N depends on z, so it folds only by elements that
    fix z.
    """

    family: CubicShiftFamily | SaturatingLinearFamily
    subspace: SymmetrySubspace
    mode: str = "fixed_frame"  # or "rotating_frame"

    def __post_init__(self):
        if self.mode not in ("fixed_frame", "rotating_frame"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "rotating_frame" and not isinstance(self.family, SaturatingLinearFamily):
            raise ValueError("rotating_frame mode requires the saturating family")
        # grid sized for cubic products (alias-free for polynomial families of
        # degree <= 3; generous quadrature for the saturating profile)
        lmax = self.subspace.lmax
        self._transform = sht.get_transform(lmax, 2 * lmax + 9, 4 * lmax + 10)
        grid = self._transform.grid
        labels = grid_orbit_labels(self.subspace.group, grid,
                                   fix_z=self.mode == "rotating_frame")
        self.grid_points, orbit = np.unique(labels, return_inverse=True)
        # (dim, orbits) grid values of the basis fields at the representatives
        values = self._transform.synthesis(self.subspace.halves).reshape(self.subspace.dim, -1)
        self._basis = np.take(values, self.grid_points, axis=1)  # C-contiguous, unlike [:, idx]
        self._z = np.repeat(grid.nodes, grid.nlon)[self.grid_points]
        weights = np.repeat(grid.weights * (2.0 * math.pi / grid.nlon), grid.nlon)
        self._weights = np.bincount(orbit, weights)
        degrees = np.asarray(self.subspace.degrees, dtype=float)
        self._ll1 = degrees * (degrees + 1.0)

    @property
    def transform(self) -> sht.Transform:
        return self._transform

    def _saturation_argument(self, lam: float, f_values: np.ndarray,
                             z: np.ndarray | None = None) -> np.ndarray:
        """(1 + lambda^2) f - mu z, the rotating frame's argument of P; z is
        that of the orbit representatives unless given."""
        return (1.0 + lam * lam) * f_values - self.family.mu * (self._z if z is None else z)

    def _nonlinearity(self, lam: float, f_values: np.ndarray,
                      z: np.ndarray | None = None) -> np.ndarray:
        if self.mode == "fixed_frame":
            return self.family.value(lam, f_values)
        z = self._z if z is None else z
        return self.family.p(self._saturation_argument(lam, f_values, z)) - 2.0 * self.family.nu * z

    def _nonlinearity_derivative(self, lam: float, f_values: np.ndarray) -> np.ndarray:
        if self.mode == "fixed_frame":
            return self.family.derivative(lam, f_values)
        return (1.0 + lam * lam) * self.family.dp(self._saturation_argument(lam, f_values))

    def values(self, x: np.ndarray) -> np.ndarray:
        """Values of the field with subspace coordinates x at the orbit
        representatives `grid_points`."""
        return x @ self._basis

    def _residual_half(self, lam: float, x: np.ndarray) -> np.ndarray:
        """Half table of the residual f - inv_laplacian(rhs - mean), through
        the spherical transforms on the whole grid rather than the stored
        basis values."""
        f_half = self.subspace.assemble_half(x)
        rhs = self._transform.analysis(self._nonlinearity(
            lam, self._transform.synthesis(f_half), self._transform.grid.nodes[:, None]))
        rhs[0, 0] = 0.0
        return f_half - sht.inverse_laplacian_table(rhs)

    def residual_norms(self, lam: float, x: np.ndarray) -> tuple[float, float]:
        """(subspace-projected norm, full-sphere norm) of the residual."""
        half = self._residual_half(lam, x)
        projected = float(np.linalg.norm(self.subspace.project_half(half)))
        return projected, SpectralField(half).norm()

    def _quadrature(self, grid_values: np.ndarray) -> np.ndarray:
        """sum_grid w b_i g / (l_i (l_i + 1)) for every basis field b_i."""
        return (self._basis @ (self._weights * grid_values)) / self._ll1

    def residual(self, lam: float, x: np.ndarray) -> np.ndarray:
        return x + self._quadrature(self._nonlinearity(lam, self.values(x)))

    def jacobian(self, lam: float, x: np.ndarray) -> np.ndarray:
        weighted = self._weights * self._nonlinearity_derivative(lam, self.values(x))
        coupling = (self._basis * weighted) @ self._basis.T
        return np.eye(self.subspace.dim) + coupling / self._ll1[:, None]

    def dresidual_dlambda(self, lam: float, x: np.ndarray) -> np.ndarray:
        f_values = self.values(x)
        if self.mode == "fixed_frame":  # d/dlambda [P(lambda + f) - P(lambda)]
            return self._quadrature(self.family.dp(lam + f_values) - self.family.dp(lam))
        arg = self._saturation_argument(lam, f_values)
        return self._quadrature(2.0 * lam * f_values * self.family.dp(arg))

    def stream_values(self, lam: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values of the stream function and of its vorticity at the orbit
        representatives; in the rotating frame psi = f - mu z / (1 + lambda^2)."""
        psi = self.values(x)
        vorticity = self.values(-self._ll1 * x)  # each basis field has one degree
        if self.mode == "rotating_frame":
            shift = (-self.family.mu / (1.0 + lam * lam)) * self._z
            psi += shift
            vorticity -= 2.0 * shift  # z has degree 1
        return psi, vorticity

    def linear_multiplier(self, lam):
        """The family's multiplier at a float or elementwise on an array."""
        return self.family.linear_multiplier(lam)


# ---------------------------------------------------------------------------
# Bifurcation-point detection
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class BifurcationPoint:
    lam: float
    degree: int
    transversal: bool
    multiplier_slope: float


def detect_bifurcation_points(problem: ContinuationProblem,
                              lambda_range: tuple[float, float],
                              degrees: Sequence[int] | None = None,
                              n_scan: int = 400) -> list[BifurcationPoint]:
    """Roots of (linearized multiplier) + l(l+1) over the simple degrees.

    Follows the crossing condition of the trivial-branch linearization: the
    fixed-point derivative is singular where the multiplier equals
    -l(l+1).  Transversality is the nonvanishing of the lambda-derivative
    of the multiplier at the crossing; non-transversal roots are excluded
    and degenerate (identically zero) scans are reported as errors.
    """
    from scipy import optimize

    lo, hi = lambda_range
    if not lo < hi:
        raise ValueError("empty lambda range")
    if degrees is None:
        degrees = problem.subspace.simple_degrees()
    points: list[BifurcationPoint] = []
    lam_grid = np.linspace(lo, hi, n_scan)
    for ell in degrees:
        target = ell * (ell + 1)

        def crossing(lam):
            return problem.linear_multiplier(lam) + target

        # a constant multiplier comes back as a scalar
        vals = np.broadcast_to(crossing(lam_grid), lam_grid.shape)
        if np.max(np.abs(vals)) < 1e-12:
            raise ArithmeticError(
                f"degree {ell}: multiplier identically equals -l(l+1) on the range; "
                "no isolated bifurcation point"
            )
        sign = np.sign(vals)
        for i in np.nonzero(np.diff(sign) != 0)[0]:
            if sign[i] == 0:
                continue
            lam_star = float(optimize.brentq(crossing, lam_grid[i], lam_grid[i + 1],
                                             xtol=1e-14, rtol=8.9e-16))
            h = 1e-6 * max(1.0, abs(lam_star))
            slope = (crossing(lam_star + h) - crossing(lam_star - h)) / (2.0 * h)
            transversal = abs(slope) > 1e-8
            if transversal:
                points.append(BifurcationPoint(lam=lam_star, degree=ell,
                                               transversal=True, multiplier_slope=slope))
    points.sort(key=lambda p: p.lam)
    return points


# ---------------------------------------------------------------------------
# Pseudo-arclength continuation
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class BranchPoint:
    lam: float
    x: np.ndarray
    residual: float
    full_residual: float
    sup_psi: float
    sup_vorticity: float
    arclength: float
    within_bounds: bool
    extras: dict


@dataclasses.dataclass
class ContinuationBranch:
    origin: BifurcationPoint
    points: list[BranchPoint]
    status: str  # completed | reconnected_trivial | bound_violation | stalled

    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])


def _newton_corrector(problem: ContinuationProblem, tangent: np.ndarray,
                      anchor: np.ndarray, ds: float,
                      tol: float, max_iter: int = 25):
    n = problem.subspace.dim
    u = anchor + ds * tangent  # predictor
    for _ in range(max_iter):
        r = problem.residual(u[n], u[:n])
        constraint = float(tangent @ (u - anchor)) - ds
        if np.linalg.norm(r) < tol and abs(constraint) < tol:
            return u[:n], float(u[n]), float(np.linalg.norm(r))
        jac = np.zeros((n + 1, n + 1))
        jac[:n, :n] = problem.jacobian(u[n], u[:n])
        jac[:n, n] = problem.dresidual_dlambda(u[n], u[:n])
        jac[n, :] = tangent
        rhs = np.concatenate([r, [constraint]])
        try:
            delta = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            return None
        u = u - delta
        if not np.all(np.isfinite(u)):
            return None
    return None


def _branch_tangent(problem: ContinuationProblem, lam: float, x: np.ndarray,
                    previous: np.ndarray) -> np.ndarray:
    n = problem.subspace.dim
    jac = np.zeros((n + 1, n + 1))
    jac[:n, :n] = problem.jacobian(lam, x)
    jac[:n, n] = problem.dresidual_dlambda(lam, x)
    jac[n, :] = previous
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    try:
        t = np.linalg.solve(jac, rhs)
    except np.linalg.LinAlgError:
        return previous
    norm = np.linalg.norm(t)
    if norm == 0 or not np.all(np.isfinite(t)):
        return previous
    return t / norm


def _measure_point(problem: ContinuationProblem, lam: float, x: np.ndarray,
                   arclength: float, bounds_check, extras_fn) -> BranchPoint:
    projected, full = problem.residual_norms(lam, x)
    extras = extras_fn(lam, x) if extras_fn else {}
    psi, vorticity = problem.stream_values(lam, x)
    sup_psi = float(np.max(np.abs(psi)))
    sup_vort = float(np.max(np.abs(vorticity)))
    within = bounds_check(lam, sup_psi, sup_vort) if bounds_check else True
    return BranchPoint(lam=lam, x=x.copy(), residual=projected, full_residual=full,
                       sup_psi=sup_psi, sup_vorticity=sup_vort, arclength=arclength,
                       within_bounds=within, extras=extras)


def continue_branch(problem: ContinuationProblem, point: BifurcationPoint,
                    steps: int, ds: float = 0.05, direction: float = 1.0,
                    newton_tol: float = 1e-10, extras_fn=None) -> ContinuationBranch:
    """Follow the nontrivial branch rooted at a detected bifurcation point.

    The first tangent is the invariant generator of the critical degree;
    afterwards the tangent is continued through the bordered system.  Newton
    failures halve the step; six consecutive failures stall the branch.
    Returns to the trivial solution away from the origin (the global
    alternative) terminate it, as do a-priori bound violations.
    """
    sub = problem.subspace
    n = sub.dim
    gen = sub.generator_index(point.degree)

    bounds_check = None
    if isinstance(problem.family, CubicShiftFamily):
        a_minus, a_plus, amp = problem.family.apriori_bounds()

        def bounds_check(lam, sup_psi, sup_vort):
            return (abs(lam) + sup_psi <= 2.0 * (a_plus - a_minus) + 1e-9) and (
                sup_vort <= 2.0 * amp + 1e-9
            )

    tangent = np.zeros(n + 1)
    tangent[gen] = direction
    anchor = np.concatenate([np.zeros(n), [point.lam]])
    branch = ContinuationBranch(origin=point, points=[], status="completed")
    branch.points.append(
        _measure_point(problem, point.lam, np.zeros(n), 0.0, bounds_check, extras_fn)
    )
    arclength = 0.0
    failures = 0
    step_size = ds
    while len(branch.points) - 1 < steps:
        result = _newton_corrector(problem, tangent, anchor, step_size, newton_tol)
        if result is None:
            failures += 1
            step_size *= 0.5
            if failures >= 6:
                branch.status = "stalled"
                break
            continue
        failures = 0
        x_new, lam_new, _ = result
        arclength += step_size
        bp = _measure_point(problem, lam_new, x_new, arclength, bounds_check, extras_fn)
        branch.points.append(bp)
        if not bp.within_bounds:
            branch.status = "bound_violation"
            break
        if np.linalg.norm(x_new) < 1e-8 and abs(lam_new - point.lam) > 10 * step_size:
            branch.status = "reconnected_trivial"
            break
        anchor = np.concatenate([x_new, [lam_new]])
        tangent = _branch_tangent(problem, lam_new, x_new, tangent)
        step_size = min(ds, step_size * 1.5)
    return branch


def omega_branch(family: SaturatingLinearFamily, subspace: SymmetrySubspace,
                 steps: int, ds: float = 0.05, direction: float = 1.0) -> ContinuationBranch:
    """Rotating-frame branch in the auxiliary unknown, with regime tracking.

    Each accepted point records the saturation margin sup|(1+lambda^2) f -
    mu z|; while it stays within the linear window the parameter must sit at
    the crossing value exactly, and the recovered stream function
    psi = f - mu z / (1 + lambda^2) obeys the sup bound mu + b.
    """
    problem = ContinuationProblem(family=family, subspace=subspace, mode="rotating_frame")
    lam_star = family.bifurcation_lambda()
    points = detect_bifurcation_points(
        problem, (max(0.0, lam_star - 1.0), lam_star + 1.0), degrees=[family.degree]
    )
    target = min(points, key=lambda p: abs(p.lam - lam_star))
    sup_bound = family.sup_bound()

    def extras(lam, x):
        margin = float(np.max(np.abs(problem._saturation_argument(lam, problem.values(x)))))
        return {
            "saturation_margin": margin,
            "linear_regime": margin <= 2.0 * family.mu,
            "sup_bound": sup_bound,
        }

    return continue_branch(problem, target, steps=steps, ds=ds, direction=direction,
                           extras_fn=extras)

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
import fractions
import functools
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from . import sht
from ._roots import brentq
from .sht import RotationSpec, SpectralField

# ---------------------------------------------------------------------------
# Finite subgroups of O(3)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class GroupElement:
    rotation: RotationSpec
    parity: bool


@dataclasses.dataclass(frozen=True, eq=False)
class SymmetryGroup:
    """A finite subgroup of O(3); read-only copies of its matrices fix its grid fold."""

    name: str
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        matrices = tuple(np.array(mat, dtype=float) for mat in self.matrices)
        for mat in matrices:
            mat.setflags(write=False)
        object.__setattr__(self, "matrices", matrices)

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


def _closure(generators: list[np.ndarray]) -> list[np.ndarray]:
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
                    if len(elems) >= 256:
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
    return SymmetryGroup(name="trivial", matrices=(np.eye(3),))


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
    """Unitary sending real coordinates (cos-type l + mu, sin-type l - mu) to complex ones."""
    mu, inv_sqrt2 = np.arange(1, l + 1), 1.0 / math.sqrt(2.0)
    signed = sht._order_signs(l)[1:] * inv_sqrt2
    v = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
    v[l, l] = 1.0
    v[l + mu, l + mu], v[l - mu, l + mu] = inv_sqrt2, signed
    v[l + mu, l - mu], v[l - mu, l - mu] = -1j * signed, 1j * inv_sqrt2
    return v


def group_projectors(elements: Sequence[GroupElement],
                     lmax: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (l, P_l) for l = 1..lmax: the group average of the degree-l
    rotation blocks in the real basis.

    Every block is diag(left) Delta diag(middle) Delta^T diag(right) (see
    `sht.rotation_block`), and the middle product M_beta depends on beta
    alone.  So a degree sums over the beta classes of the elements,
    M_beta * (L_beta^T diag(sign) R_beta) elementwise, where the rows of
    L_beta and R_beta are the left and right phases of the class's elements
    and sign carries their parity on odd degrees; the sum goes to the real
    basis once.  The tetrahedral group has three classes (beta 0, pi/2, pi).
    """
    classes: dict[float, list[GroupElement]] = {}
    for elem in elements:
        classes.setdefault(elem.rotation.beta, []).append(elem)
    stacks = []
    for members in classes.values():
        left, middle, right = zip(*(sht.rotation_phases(e.rotation, lmax) for e in members))
        parity = np.array([-1.0 if e.parity else 1.0 for e in members])
        stacks.append((np.array(left), middle[0], np.array(right), parity))
    for l, delta in enumerate(sht.pi2_factors(lmax)):
        if l == 0:
            continue
        orders = slice(lmax - l, lmax + l + 1)
        total = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
        for left, middle, right, parity in stacks:
            sign = parity if l % 2 == 1 else 1.0
            total += ((delta * middle[orders]) @ delta.T) * ((left[:, orders].T * sign) @ right[:, orders])
        v = _real_to_complex_block(l)
        yield l, (v.conj().T @ total @ v).real / len(elements)


@dataclasses.dataclass(frozen=True, eq=False)
class SymmetrySubspace:
    """Orthonormal real basis of group-invariant fields, organized by degree:
    one read-only stack `halves` (dim, lmax+1, lmax+1) of m >= 0 half tables,
    field i of the single degree `degrees[i]`.  `lmax`, `dim` and
    `dimension_by_degree` (0 for an empty degree in 1..lmax) derive from them."""

    group: SymmetryGroup
    degrees: tuple[int, ...]
    halves: np.ndarray

    def __post_init__(self):
        halves = np.array(self.halves, dtype=complex)
        halves.setflags(write=False)
        object.__setattr__(self, "halves", halves)

    @property
    def lmax(self) -> int:
        return self.halves.shape[-1] - 1

    @property
    def dim(self) -> int:
        return len(self.halves)

    @property
    def dimension_by_degree(self) -> dict[int, int]:
        return {l: self.degrees.count(l) for l in range(1, self.lmax + 1)}

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
        # inner products of real fields on half tables: order 0 once, m > 0 twice
        weight = np.where(np.arange(self.lmax + 1) == 0, 1.0, 2.0)
        rows = np.ascontiguousarray(halves * weight).view(float).reshape(*halves.shape[:-2], -1)
        return rows @ self.halves.view(float).reshape(self.dim, -1).T

    def generator_index(self, degree: int) -> int:
        if self.degrees.count(degree) != 1:
            raise ValueError(f"degree {degree} does not carry a one-dimensional subspace")
        return self.degrees.index(degree)


def build_subspace(group: SymmetryGroup | str, lmax: int) -> SymmetrySubspace:
    """Group-averaged projector per degree, orthonormal invariant basis.

    The averaging matrix over an orthogonal representation is a symmetric
    idempotent; its unit-eigenvalue eigenvectors R span the invariants, in
    the real basis of `_real_to_complex_block`.  Each R is written straight
    into its degree-l half-table row: c_l^0 = R[l] and, for mu = 1..l,
    c_l^mu = (R[l + mu] - i (-1)^mu R[l - mu]) / sqrt(2).
    """
    if lmax < 1:
        raise ValueError(f"lmax must be >= 1, got {lmax}")
    if isinstance(group, str):
        if group.lower() not in NAMED_GROUPS:
            raise ValueError(f"unknown group {group!r}; known: {sorted(NAMED_GROUPS)}")
        group = NAMED_GROUPS[group.lower()]()
    degrees, blocks, inv_sqrt2 = [], [], 1.0 / math.sqrt(2.0)  # blocks: (n_l, l, m) half tables
    for l, proj in group_projectors(group.elements(), lmax):
        eigvals, eigvecs = np.linalg.eigh(0.5 * (proj + proj.T))
        kept = eigvecs[:, eigvals > 0.5].T  # eigenvalues are 0 or 1
        # deterministic sign: largest-magnitude coordinate positive
        kept *= np.sign(kept[np.arange(len(kept)), np.argmax(np.abs(kept), axis=1)])[:, None]
        h = np.zeros((len(kept), lmax + 1, lmax + 1), dtype=complex)
        h[:, l, 0] = kept[:, l]
        signed = sht._order_signs(l)[1:] * inv_sqrt2
        h[:, l, 1 : l + 1] = inv_sqrt2 * kept[:, l + 1 :] - 1j * signed * kept[:, l - 1 :: -1]
        degrees += [l] * len(kept)
        blocks.append(h)
    if not degrees:
        raise ArithmeticError(f"group {group.name!r} has no invariant harmonics up to degree {lmax}")
    # + 0.0 turns the formula's signed zeros into the +0.0 of a mirror average
    return SymmetrySubspace(group=group, degrees=tuple(degrees), halves=np.concatenate(blocks) + 0.0)


# ---------------------------------------------------------------------------
# Nonlinearity families
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CubicShiftFamily:
    """F(lambda, f) = P(lambda + f) - P(lambda) for a shifted odd cubic P.

    P(t) = mu1 t^3 - (mu + l(l+1)) t with mu, mu1 > 0; the trivial branch
    f = 0 exists for all lambda and loses simplicity where P'(lambda)
    crosses -l(l+1), i.e. at lambda = +/- sqrt(mu / (3 mu1)).  The balance
    is posed in the fixed frame: N ignores z and psi is f itself.
    """

    mu: float
    mu1: float
    degree: int
    depends_on_z = False  # every group element commutes with N

    def __post_init__(self):
        if self.mu <= 0 or self.mu1 <= 0:
            raise ValueError("mu and mu1 must be positive")

    def p(self, t):
        return self.mu1 * (t * t * t) - (self.mu + self.degree * (self.degree + 1)) * t

    def dp(self, t):
        return 3.0 * self.mu1 * t**2 - (self.mu + self.degree * (self.degree + 1))

    def value(self, lam: float, f: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self.p(lam + f) - self.p(lam)

    def derivative(self, lam: float, f: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self.dp(lam + f)

    def dlambda(self, lam: float, f: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self.dp(lam + f) - self.dp(lam)

    def stream_shift(self, lam: float, z: np.ndarray) -> float:
        return 0.0

    def linear_multiplier(self, lam):
        return self.dp(lam)

    def apriori_bounds(self) -> tuple[float, float, float]:
        """(a_minus, a_plus, A): window with P increasing outside and |P| <= A inside."""
        ll1 = self.degree * (self.degree + 1)
        turn = math.sqrt((self.mu + ll1) / (3.0 * self.mu1))
        depth = abs(self.p(turn))
        root = math.sqrt((self.mu + ll1) / self.mu1)

        hi = root + 1.0
        while self.p(hi) < depth:
            hi *= 2.0
        a_plus = brentq(lambda t: self.p(t) - depth, root, hi, xtol=1e-12)
        return (-a_plus, a_plus, float(self.p(a_plus)))

    _window = functools.cached_property(apriori_bounds)  # found once per family

    def within_bounds(self, lam: float, sup_psi: float, sup_vort: float) -> bool:
        """|lambda| + sup|psi| <= 2 (a_plus - a_minus) and sup|Delta psi| <= 2 A."""
        a_minus, a_plus, amp = self._window
        return (abs(lam) + sup_psi <= 2.0 * (a_plus - a_minus) + 1e-9
                and sup_vort <= 2.0 * amp + 1e-9)


@dataclasses.dataclass(frozen=True)
class SaturatingLinearFamily:
    """Odd C^2 profile: linear with slope -2 nu / mu near zero, cubic growth outside.

    Used for the rotating-frame branch: the balance reads
    Delta f = P((1+lambda^2) f - mu z) - 2 nu z - mean, z the axial
    coordinate, and nu is pinned to the degree by
    nu = beta l(l+1) / (l(l+1) - 2).  The stream function is
    psi = f - mu z / (1 + lambda^2).
    """

    beta: float
    mu: float
    degree: int
    depends_on_z = True  # only the elements that fix z commute with N

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
        excess = np.maximum(np.abs(t) - 2.0 * self.mu, 0.0)
        return self.slope * t + self.kappa * np.sign(t) * (excess * excess * excess)

    def dp(self, t):
        excess = np.maximum(np.abs(t) - 2.0 * self.mu, 0.0)
        return self.slope + 3.0 * self.kappa * excess**2

    def argument(self, lam: float, f: np.ndarray, z: np.ndarray) -> np.ndarray:
        """(1 + lambda^2) f - mu z, the argument of P."""
        return (1.0 + lam * lam) * f - self.mu * z

    def value(self, lam: float, f: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self.p(self.argument(lam, f, z)) - 2.0 * self.nu * z

    def derivative(self, lam: float, f: np.ndarray, z: np.ndarray) -> np.ndarray:
        return (1.0 + lam * lam) * self.dp(self.argument(lam, f, z))

    def dlambda(self, lam: float, f: np.ndarray, z: np.ndarray) -> np.ndarray:
        return 2.0 * lam * f * self.dp(self.argument(lam, f, z))

    def stream_shift(self, lam: float, z: np.ndarray) -> np.ndarray:
        return (-self.mu / (1.0 + lam * lam)) * z

    def linear_multiplier(self, lam):
        return (1.0 + lam * lam) * self.slope

    def within_bounds(self, lam: float, sup_psi: float, sup_vort: float) -> bool:
        """True: no a-priori bound is enforced in the rotating frame.  A rule that
        ends the branch outside the linear window |argument| <= 2 mu goes here."""
        return True

    def bifurcation_lambda(self) -> float:
        ll1 = self.degree * (self.degree + 1)
        val = self.mu * ll1 / (2.0 * self.nu) - 1.0
        if val <= 0:
            raise ArithmeticError("no real bifurcation parameter for these constants")
        return math.sqrt(val)


# ---------------------------------------------------------------------------
# Continuation problems
# ---------------------------------------------------------------------------

def _axis_moves(group: SymmetryGroup) -> list[tuple[int, int, fractions.Fraction]]:
    """(z sign, longitude sign, c) of each element that sends z to +/- z:
    it maps (z, phi) to (z sign * z, longitude sign * phi + 2 pi c), with c
    in turns, exact.  An element whose c is not a fraction of denominator
    at most 4 * order folds no grid and is left out."""
    moves = []
    for mat in group.matrices:
        off_axis = max(np.max(np.abs(mat[2, :2])), np.max(np.abs(mat[:2, 2])))
        if off_axis > 1e-9:
            continue
        plane = mat[:2, :2]  # rotation phi -> phi + c, or reflection phi -> c - phi
        turns = math.atan2(plane[1, 0], plane[0, 0]) / (2.0 * math.pi) % 1.0
        c = fractions.Fraction(turns).limit_denominator(4 * group.order)
        if abs(float(c) - turns) > 1e-9:
            continue
        sign = 1 if np.linalg.det(plane) > 0 else -1
        moves.append((1 if mat[2, 2] > 0 else -1, sign, c % 1))
    return moves


def _longitude_period(group: SymmetryGroup) -> int:
    """The smallest q with every c of `_axis_moves` a multiple of 1 / q: a grid
    of nlon longitudes is folded by all those elements when q divides nlon,
    and its longitudes include every mirror meridian phi = pi c when 2 q
    divides nlon.  Tetrahedral and d2d give 4, d4d 8, trivial 1."""
    return math.lcm(1, *(c.denominator for _, _, c in _axis_moves(group)))


def grid_orbit_labels(group: SymmetryGroup, grid: sht.GaussGrid,
                      fix_z: bool) -> np.ndarray:
    """Orbit label of each grid point, flattened: the smallest flat index of
    its images under the group elements that map the grid onto itself.

    An element folds when it sends z to +/- z (to z alone if `fix_z`), which
    maps Gauss row i to itself or to nlat - 1 - i, and longitude phi to
    +/- phi + 2 pi c with c a multiple of 1 / nlon (`_axis_moves`).  Those
    elements form a subgroup, so each label names one orbit; a
    group-invariant integrand takes one value on an orbit.  On the grid of
    a `ContinuationProblem` every element that sends z to +/- z folds.
    """
    nlat, nlon = grid.nlat, grid.nlon
    rows, cols = np.arange(nlat)[:, None], np.arange(nlon)
    labels = rows * nlon + cols
    for flip, sign, c in _axis_moves(group):
        shift = c * nlon
        if (fix_z and flip < 0) or shift.denominator != 1:
            continue
        image_rows = rows if flip > 0 else nlat - 1 - rows
        labels = np.minimum(labels, image_rows * nlon + (sign * cols + int(shift)) % nlon)
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

    The grid has 2 lmax + 9 Gauss latitudes and nlon longitudes, nlon the
    smallest multiple of 2 q at or above 4 lmax + 10, q the group's
    longitude period (`_longitude_period`: tetrahedral and d2d 4, d4d 8,
    trivial 1).  So every element that sends z to +/- z maps the grid onto
    itself, every mirror meridian is a grid longitude, and the trivial
    group keeps 4 lmax + 10.  The integrand is invariant under the group,
    so the sums run over one grid point per orbit of `grid_orbit_labels`
    (`grid_points`, flat indices), weighted by the orbit's total quadrature
    weight: at tetrahedral lmax 24, 827 of 57 x 112 = 6,384 points.  The
    family sets the fold rule: an element folds only if it commutes with N,
    so a family whose N depends on z (`depends_on_z`) folds only by
    elements that fix z (1,653 points there).  The family also owns its
    frame's stream function and bounds.  A branch point's `sup_psi` and
    `sup_vorticity` are maxima over the grid points, so they are sampled
    estimates of the suprema and move with the grid.
    """

    family: CubicShiftFamily | SaturatingLinearFamily
    subspace: SymmetrySubspace

    def __post_init__(self):
        # grid sized for cubic products (alias-free for polynomial families of
        # degree <= 3; generous quadrature for the saturating profile), with
        # nlon a multiple of twice the longitude period so that every element
        # sending z to +/- z folds it
        lmax, period = self.subspace.lmax, 2 * _longitude_period(self.subspace.group)
        nlon = period * math.ceil((4 * lmax + 10) / period)
        self.transform = sht.get_transform(lmax, 2 * lmax + 9, nlon)
        grid = self.transform.grid
        labels = grid_orbit_labels(self.subspace.group, grid, fix_z=self.family.depends_on_z)
        self.grid_points, orbit = np.unique(labels, return_inverse=True)
        # (dim, orbits) values at the representatives, one field at a time: no whole-grid batch
        self._basis = np.array([self.transform.synthesis(half).ravel()[self.grid_points]
                                for half in self.subspace.halves])
        self._z = np.repeat(grid.nodes, grid.nlon)[self.grid_points]
        weights = np.repeat(grid.weights * (2.0 * math.pi / grid.nlon), grid.nlon)
        self._weights = np.bincount(orbit, weights)
        degrees = np.asarray(self.subspace.degrees, dtype=float)
        self._ll1 = degrees * (degrees + 1.0)

    def values(self, x: np.ndarray) -> np.ndarray:
        """Values of the field with subspace coordinates x at the orbit
        representatives `grid_points`."""
        return x @ self._basis

    def _residual_half(self, lam: float, x: np.ndarray) -> np.ndarray:
        """Half table of the residual f - inv_laplacian(rhs - mean), through
        the spherical transforms on the whole grid rather than the stored
        basis values."""
        f_half, tr = self.subspace.assemble_half(x), self.transform
        rhs = tr.analysis(self.family.value(lam, tr.synthesis(f_half), tr.grid.nodes[:, None]))
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
        return x + self._quadrature(self.family.value(lam, self.values(x), self._z))

    def jacobian(self, lam: float, x: np.ndarray) -> np.ndarray:
        weighted = self._weights * self.family.derivative(lam, self.values(x), self._z)
        coupling = (self._basis * weighted) @ self._basis.T
        return np.eye(self.subspace.dim) + coupling / self._ll1[:, None]

    def dresidual_dlambda(self, lam: float, x: np.ndarray) -> np.ndarray:
        return self._quadrature(self.family.dlambda(lam, self.values(x), self._z))

    def stream_values(self, lam: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values of the stream function and of its vorticity at the orbit
        representatives: f plus the family's shift in z.  Each basis field
        and z have one degree, so the Laplacian is a factor on each."""
        shift = self.family.stream_shift(lam, self._z)
        return self.values(x) + shift, self.values(-self._ll1 * x) - 2.0 * shift


# ---------------------------------------------------------------------------
# Bifurcation-point detection
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class BifurcationPoint:
    lam: float
    degree: int


def detect_bifurcation_points(problem: ContinuationProblem,
                              lambda_range: tuple[float, float],
                              degrees: Sequence[int] | None = None) -> list[BifurcationPoint]:
    """Roots of (linearized multiplier) + l(l+1) over the simple degrees.

    Follows the crossing condition of the trivial-branch linearization: the
    fixed-point derivative is singular where the multiplier equals
    -l(l+1).  A crossing counts only where the lambda-derivative of the
    multiplier does not vanish (|slope| > 1e-8); tangential roots are
    excluded, and degenerate (identically zero) scans are reported as
    errors.
    """
    lo, hi = lambda_range
    if not lo < hi:
        raise ValueError("empty lambda range")
    if degrees is None:
        degrees = problem.subspace.simple_degrees()
    points: list[BifurcationPoint] = []
    lam_grid = np.linspace(lo, hi, 400)
    for ell in degrees:
        target = ell * (ell + 1)

        def crossing(lam):
            return problem.family.linear_multiplier(lam) + target

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
            lam_star = brentq(crossing, lam_grid[i], lam_grid[i + 1], xtol=1e-14, rtol=8.9e-16)
            h = 1e-6 * max(1.0, abs(lam_star))
            slope = (crossing(lam_star + h) - crossing(lam_star - h)) / (2.0 * h)
            if abs(slope) > 1e-8:
                points.append(BifurcationPoint(lam=lam_star, degree=ell))
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


@dataclasses.dataclass
class ContinuationBranch:
    origin: BifurcationPoint
    points: list[BranchPoint]
    status: str  # completed | reconnected_trivial | bound_violation | stalled

    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])


def _bordered(problem: ContinuationProblem, lam: float, x: np.ndarray,
              tangent: np.ndarray) -> np.ndarray:
    """The bordered matrix [[dR/dx, dR/dlambda], [tangent]] at (x, lam)."""
    n = problem.subspace.dim
    jac = np.zeros((n + 1, n + 1))
    jac[:n, :n] = problem.jacobian(lam, x)
    jac[:n, n] = problem.dresidual_dlambda(lam, x)
    jac[n, :] = tangent
    return jac


def _newton_corrector(problem: ContinuationProblem, tangent: np.ndarray,
                      anchor: np.ndarray, ds: float):
    n, tol = problem.subspace.dim, 1e-10
    u = anchor + ds * tangent  # predictor
    for _ in range(25):
        r = problem.residual(u[n], u[:n])
        constraint = float(tangent @ (u - anchor)) - ds
        if np.linalg.norm(r) < tol and abs(constraint) < tol:
            return u[:n], float(u[n])
        rhs = np.concatenate([r, [constraint]])
        try:
            delta = np.linalg.solve(_bordered(problem, u[n], u[:n], tangent), rhs)
        except np.linalg.LinAlgError:
            return None
        u = u - delta
        if not np.all(np.isfinite(u)):
            return None
    return None


def _branch_tangent(problem: ContinuationProblem, lam: float, x: np.ndarray,
                    previous: np.ndarray) -> np.ndarray:
    rhs = np.zeros(problem.subspace.dim + 1)
    rhs[-1] = 1.0
    try:
        t = np.linalg.solve(_bordered(problem, lam, x, previous), rhs)
    except np.linalg.LinAlgError:
        return previous
    norm = np.linalg.norm(t)
    if norm == 0 or not np.all(np.isfinite(t)):
        return previous
    return t / norm


def _measure_point(problem: ContinuationProblem, lam: float, x: np.ndarray,
                   arclength: float) -> BranchPoint:
    projected, full = problem.residual_norms(lam, x)
    psi, vorticity = problem.stream_values(lam, x)
    sup_psi = float(np.max(np.abs(psi)))
    sup_vort = float(np.max(np.abs(vorticity)))
    return BranchPoint(lam=lam, x=x.copy(), residual=projected, full_residual=full,
                       sup_psi=sup_psi, sup_vorticity=sup_vort, arclength=arclength,
                       within_bounds=problem.family.within_bounds(lam, sup_psi, sup_vort))


def continue_branch(problem: ContinuationProblem, point: BifurcationPoint,
                    steps: int, ds: float = 0.05, direction: float = 1.0) -> ContinuationBranch:
    """Follow the nontrivial branch rooted at a detected bifurcation point.

    The first tangent is the invariant generator of the critical degree;
    afterwards the tangent is continued through the bordered system.  Newton
    failures halve the step; six consecutive failures stall the branch.
    Points outside the family's a-priori bounds (`within_bounds`) end it.
    A return to the trivial solution away from the origin (the global
    alternative) ends it only at ||x|| < 1e-8; fixed steps pass the
    partner point at ||x|| >= 7.7e-4 (tetrahedral cubic branches, lmax 12
    and 24, ds 0.03 to 0.1), so in practice the branch runs on through it.
    """
    sub = problem.subspace
    n = sub.dim
    gen = sub.generator_index(point.degree)
    tangent = np.zeros(n + 1)
    tangent[gen] = direction
    anchor = np.concatenate([np.zeros(n), [point.lam]])
    branch = ContinuationBranch(origin=point, points=[], status="completed")
    branch.points.append(_measure_point(problem, point.lam, np.zeros(n), 0.0))
    arclength = 0.0
    failures = 0
    step_size = ds
    while len(branch.points) - 1 < steps:
        result = _newton_corrector(problem, tangent, anchor, step_size)
        if result is None:
            failures += 1
            step_size *= 0.5
            if failures >= 6:
                branch.status = "stalled"
                break
            continue
        failures = 0
        x_new, lam_new = result
        arclength += step_size
        bp = _measure_point(problem, lam_new, x_new, arclength)
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

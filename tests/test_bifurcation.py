import dataclasses
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rotosphere import bifurcation as bif, sht
import continuation_reference as ref
from conftest import random_real_field


@pytest.fixture(scope="module")
def tetra_subspace():
    return bif.build_subspace("tetrahedral", 12)


@pytest.fixture(scope="module")
def tetra24_subspace():
    return bif.build_subspace("tetrahedral", 24)


@pytest.fixture(scope="module")
def cubic_problem(tetra_subspace):
    family = bif.CubicShiftFamily(mu=1.0, mu1=1.0, degree=3)
    return bif.ContinuationProblem(family=family, subspace=tetra_subspace)


@pytest.fixture(scope="module")
def rotating_problem(tetra_subspace):
    family = bif.SaturatingLinearFamily(beta=1.0, mu=1.0, degree=3)
    return bif.ContinuationProblem(family=family, subspace=tetra_subspace)


def _problem(group, lmax, frame):
    """A cubic fixed-frame or saturating rotating-frame problem and the
    amplitude of its test point."""
    subspace = bif.build_subspace(group, lmax)
    if frame == "fixed_frame":
        family, amplitude = bif.CubicShiftFamily(mu=1.0, mu1=1.0, degree=3), 0.3
    else:
        family, amplitude = bif.SaturatingLinearFamily(beta=1.0, mu=1.0, degree=3), 0.6
    return bif.ContinuationProblem(family=family, subspace=subspace), amplitude


def _basis_field(subspace, i):
    """Basis field i of the subspace as a spectral field."""
    return subspace.assemble(np.eye(subspace.dim)[i])


def _newton_point(problem, amplitude, seed):
    """A point (lambda, x) off the trivial branch: in the rotating frame near
    the crossing lambda = 2 with the saturating profile's cubic part active."""
    x = amplitude * np.random.default_rng(seed).normal(size=problem.subspace.dim)
    return (0.4, x) if isinstance(problem.family, bif.CubicShiftFamily) else (2.1, x)


class TestGroups:
    def test_orders(self):
        assert bif.tetrahedral_group().order == 24
        assert bif.antiprism_group(4).order == 16
        assert bif.antiprism_group(2).order == 8
        assert bif.trivial_group().order == 1

    def test_elements_decompose_into_rotation_and_parity(self):
        group = bif.tetrahedral_group()
        n_improper = sum(1 for e in group.elements() if e.parity)
        assert n_improper == 12  # half of the full tetrahedral group

    def test_non_orthogonal_generator_rejected(self):
        with pytest.raises(ValueError):
            bif.group_from_generators("bad", [np.diag([2.0, 1.0, 1.0])])


class TestSubspaces:
    def test_tetrahedral_degree_three_generator(self, tetra_subspace):
        assert tetra_subspace.dimension_by_degree[3] == 1
        gen = _basis_field(tetra_subspace, tetra_subspace.generator_index(3))
        # the generator is the sin(2 phi)-type real harmonic of degree 3
        ref = sht.SpectralField.zeros(12)
        ref.set(3, -2, 1j / math.sqrt(2))
        ref.set(3, 2, -1j / math.sqrt(2))
        overlap = abs(np.sum(np.conj(ref.coeffs) * gen.coeffs))
        assert overlap > 1.0 - 1e-12

    def test_tetrahedral_low_degrees_empty(self, tetra_subspace):
        assert tetra_subspace.dimension_by_degree[1] == 0
        assert tetra_subspace.dimension_by_degree[2] == 0

    def test_antiprism_degree_five_generator(self):
        sub = bif.build_subspace("d4d", 5)
        assert sub.dimension_by_degree[5] == 1
        gen = _basis_field(sub, sub.generator_index(5))
        support = [(l, m - 5) for l in range(6) for m in range(11)
                   if abs(gen.coeffs[l, m]) > 1e-10]
        assert support == [(5, -4), (5, 4)]

    def test_d2d_degree_five_generator_support(self):
        sub = bif.build_subspace("d2d", 5)
        assert sub.dimension_by_degree[5] == 1
        gen = _basis_field(sub, sub.generator_index(5))
        support = [(l, m - 5) for l in range(6) for m in range(11)
                   if abs(gen.coeffs[l, m]) > 1e-10]
        assert support == [(5, -2), (5, 2)]

    def test_trivial_group_full_dimension(self):
        sub = bif.build_subspace("trivial", 3)
        assert sub.dimension_by_degree == {1: 3, 2: 5, 3: 7}

    def test_basis_orthonormal(self, tetra_subspace):
        basis = [_basis_field(tetra_subspace, i) for i in range(tetra_subspace.dim)]
        gram = np.array([[float(np.sum((np.conj(a.coeffs) * b.coeffs).real)) for b in basis]
                         for a in basis])
        assert np.max(np.abs(gram - np.eye(tetra_subspace.dim))) < 1e-12

    def test_basis_invariant_under_all_elements(self, tetra_subspace):
        assert ref.invariance_defect(tetra_subspace) < 1e-10

    def test_projector_idempotent_and_commutes_with_laplacian(self):
        projectors = dict(bif.group_projectors(bif.tetrahedral_group().elements(), 6))
        for l in (3, 4, 6):
            proj = projectors[l]
            assert np.max(np.abs(proj @ proj - proj)) < 1e-12
            # the projector acts within a single eigenspace, so it commutes
            # with the Laplacian trivially; check the block is orthogonal-sym
            assert np.max(np.abs(proj - proj.T)) < 1e-12

    @pytest.mark.parametrize("name", ["d2d", "d4d", "tetrahedral"])
    def test_projector_matches_closed_form_average(self, name):
        elements = bif.NAMED_GROUPS[name]().elements()
        for l, proj in bif.group_projectors(elements, 8):
            v = bif._real_to_complex_block(l)
            total = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
            for e in elements:
                block = sht.rotation_block(l, e.rotation, closed_form=True)
                total += -block if e.parity and l % 2 == 1 else block
            expected = (v.conj().T @ total @ v).real / len(elements)
            assert np.max(np.abs(proj - expected)) < 1e-12

    @pytest.mark.parametrize("name, lmax", [("tetrahedral", 24), ("d4d", 16), ("d2d", 16),
                                            ("trivial", 4)])
    def test_projector_matches_sum_by_element(self, name, lmax):
        elements = bif.NAMED_GROUPS[name]().elements()
        expected = ref.projectors_by_element(elements, lmax)
        projectors = dict(bif.group_projectors(elements, lmax))
        assert sorted(projectors) == list(range(1, lmax + 1))
        for l, proj in projectors.items():
            assert np.max(np.abs(proj - expected[l])) < 1e-13, l

    def test_lmax24_projectors_symmetric_and_idempotent(self):
        for l, proj in bif.group_projectors(bif.tetrahedral_group().elements(), 24):
            assert np.max(np.abs(proj - proj.T)) < 1e-13, l
            assert np.max(np.abs(proj @ proj - proj)) < 1e-13, l

    def test_tetrahedral_lmax24_dimensions_and_invariance(self, tetra24_subspace):
        expected = {l: 0 for l in range(1, 25)}
        expected.update({3: 1, 4: 1, 12: 2, 13: 1, 14: 1, 15: 2, 16: 2, 17: 1, 24: 3})
        expected.update({l: 1 for l in range(6, 12)})
        expected.update({l: 2 for l in range(18, 24)})
        assert tetra24_subspace.dimension_by_degree == expected
        assert tetra24_subspace.dim == 32
        assert ref.invariance_defect(tetra24_subspace) < 1e-12

    def test_project_and_assemble_match_coefficient_sums(self, tetra24_subspace):
        sub = tetra24_subspace
        field = random_real_field(24, seed=21)
        basis = [_basis_field(sub, i) for i in range(sub.dim)]
        loop = np.array([float(np.sum((np.conj(b.coeffs) * field.coeffs).real)) for b in basis])
        assert np.max(np.abs(sub.project_half(field.halves) - loop)) < 1e-13
        x = np.random.default_rng(22).normal(size=sub.dim)
        summed = sum(xi * b.coeffs for xi, b in zip(x, basis))
        assert np.max(np.abs(sub.assemble(x).coeffs - summed)) < 1e-13

    def test_unknown_group_name(self):
        with pytest.raises(ValueError):
            bif.build_subspace("icosahedral", 6)

    def test_empty_subspace_rejected(self):
        with pytest.raises(ArithmeticError):
            bif.build_subspace("tetrahedral", 2)

    @pytest.mark.parametrize("lmax", [0, -3])
    def test_lmax_below_one_rejected(self, lmax):
        with pytest.raises(ValueError, match=f"lmax must be >= 1, got {lmax}"):
            bif.build_subspace("tetrahedral", lmax)

    @pytest.mark.parametrize("group", ["tetrahedral", "d2d", "d4d", "trivial"])
    @pytest.mark.parametrize("lmax", [8, 12, 24])
    def test_halves_match_full_table_construction(self, group, lmax):
        sub = bif.build_subspace(group, lmax)
        expected = ref.full_table_halves(bif.NAMED_GROUPS[group](), lmax)
        assert sub.halves.tobytes() == expected.tobytes()
        assert sub.degrees == tuple(l for l in range(1, lmax + 1)
                                    for _ in range(sub.dimension_by_degree[l]))
        assert sub.lmax == lmax and sub.dim == len(expected)

    def test_subspace_and_group_are_frozen(self, tetra_subspace):
        group = tetra_subspace.group
        for obj, name in ((tetra_subspace, "halves"), (tetra_subspace, "degrees"),
                          (tetra_subspace, "group"), (group, "matrices"), (group, "name")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))
        for array in (tetra_subspace.halves, group.matrices[1]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            tetra_subspace.halves.real[0] += 1.0

    def test_group_copies_its_matrices(self):
        mats = [np.eye(3), np.diag([1.0, -1.0, -1.0])]
        group = bif.SymmetryGroup(name="c2", matrices=mats)
        mats[1][0, 0] = 5.0
        assert group.matrices[1][0, 0] == 1.0 and isinstance(group.matrices, tuple)


class TestResidual:
    def test_trivial_solution_for_all_lambda(self, cubic_problem):
        x0 = np.zeros(cubic_problem.subspace.dim)
        for lam in (-1.5, 0.0, 0.3, 2.0):
            assert np.linalg.norm(cubic_problem.residual(lam, x0)) < 1e-14

    def test_linear_family_eigen_residual(self, tetra_subspace):
        # for the pure eigen-balance the invariant degree-l generator solves exactly
        class LinearFamily:
            degree = 3
            depends_on_z = False

            def value(self, lam, f, z):
                return -12.0 * f

            def derivative(self, lam, f, z):
                return -12.0 * np.ones_like(f)

            def linear_multiplier(self, lam):
                return -12.0

        problem = bif.ContinuationProblem(family=LinearFamily(), subspace=tetra_subspace)
        x = np.zeros(tetra_subspace.dim)
        x[tetra_subspace.generator_index(3)] = 0.73
        assert np.linalg.norm(problem.residual(0.0, x)) < 1e-12

    def test_jacobian_matches_finite_differences(self, cubic_problem, rotating_problem):
        h = 1e-6
        # the rotating frame's entries reach about 12, so its bound is relative
        for problem, amplitude in ((cubic_problem, 0.1), (rotating_problem, 0.5)):
            lam, x = _newton_point(problem, amplitude, seed=3)
            jac = problem.jacobian(lam, x)
            tol = 1e-9 if problem is cubic_problem else 1e-9 * np.max(np.abs(jac))
            for j in range(problem.subspace.dim):
                e = np.zeros_like(x)
                e[j] = h
                col = (problem.residual(lam, x + e) - problem.residual(lam, x - e)) / (2 * h)
                assert np.max(np.abs(jac[:, j] - col)) < tol
            col = (problem.residual(lam + h, x) - problem.residual(lam - h, x)) / (2 * h)
            assert np.max(np.abs(problem.dresidual_dlambda(lam, x) - col)) < tol

    def test_residual_orthogonal_to_discarded_modes(self, cubic_problem):
        # equivariance: the unprojected residual stays inside the invariant part
        rng = np.random.default_rng(4)
        x = 0.2 * rng.normal(size=cubic_problem.subspace.dim)
        field = ref.residual_field(cubic_problem, 0.5, x)
        coords = cubic_problem.subspace.project_half(field.halves)
        recon = cubic_problem.subspace.assemble(coords)
        leak = (field - recon).norm()
        assert leak < 1e-10 * max(1.0, field.norm())


class TestGridPath:
    """The Newton loop's quadrature on stored basis values against the
    transform path of `continuation_reference`."""

    @pytest.mark.parametrize("group,lmax", [("tetrahedral", 24), ("d4d", 12), ("trivial", 6)])
    @pytest.mark.parametrize("frame", ["fixed_frame", "rotating_frame"])
    def test_matches_transform_path(self, group, lmax, frame):
        problem, amplitude = _problem(group, lmax, frame)
        lam, x = _newton_point(problem, amplitude, seed=5)
        if frame == "rotating_frame":  # past the linear window of the profile
            arg = problem.family.argument(lam, problem.values(x), problem._z)
            assert np.max(np.abs(arg)) > 2.0 * problem.family.mu
        for grid_path, transform_path in (
                (problem.residual(lam, x), ref.residual(problem, lam, x)),
                (problem.jacobian(lam, x), ref.jacobian(problem, lam, x))):
            scale = np.max(np.abs(transform_path))
            assert np.max(np.abs(grid_path - transform_path)) < 1e-13 * scale
        # the central difference is good to about h^2 and 1e-16 / h
        analytic, central = problem.dresidual_dlambda(lam, x), ref.dresidual_dlambda(problem, lam, x)
        assert np.max(np.abs(analytic - central)) < 1e-7 * np.max(np.abs(central))

    def test_stream_values_match_synthesis(self, rotating_problem):
        lam, x = _newton_point(rotating_problem, 0.5, seed=6)
        psi, vorticity = rotating_problem.stream_values(lam, x)
        stream = rotating_problem.subspace.assemble(x)
        stream.add_to(1, 0, -rotating_problem.family.mu / (1.0 + lam * lam)
                      * ref.ZONAL_DEGREE_ONE_COEFF)
        tr, points = rotating_problem.transform, rotating_problem.grid_points
        for values, field in ((psi, stream), (vorticity, sht.laplacian(stream))):
            expected = tr.synthesis(field.halves).ravel()[points]
            assert np.max(np.abs(values - expected)) < 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("group,lmax", [("tetrahedral", 24), ("d4d", 12), ("d2d", 12),
                                            ("trivial", 6)])
    @pytest.mark.parametrize("frame", ["fixed_frame", "rotating_frame"])
    def test_basis_constant_on_orbits(self, group, lmax, frame):
        problem, _ = _problem(group, lmax, frame)
        sub, tr = problem.subspace, problem.transform
        labels = bif.grid_orbit_labels(sub.group, tr.grid, fix_z=frame == "rotating_frame")
        assert np.array_equal(problem.grid_points, np.unique(labels))
        values = tr.synthesis(sub.halves).reshape(sub.dim, -1)
        defect = np.max(np.abs(values - values[:, labels]), axis=1)
        assert np.all(defect <= 1e-13 * np.max(np.abs(values), axis=1))
        if frame == "rotating_frame":  # z varies on the sphere, so no orbit leaves its row
            assert np.array_equal(labels // tr.grid.nlon, np.arange(labels.size) // tr.grid.nlon)
        assert abs(np.sum(problem._weights) - 4.0 * math.pi) < 1e-13

    def test_folded_point_counts(self):
        counts = {frame: _problem("tetrahedral", 24, frame)[0].grid_points.size
                  for frame in ("fixed_frame", "rotating_frame")}
        assert counts == {"fixed_frame": 827, "rotating_frame": 1653}  # of 57 x 112 = 6384
        problem, _ = _problem("trivial", 6, "fixed_frame")
        grid = problem.transform.grid
        assert np.array_equal(problem.grid_points, np.arange(grid.nlat * grid.nlon))


@functools.cache
def _subspace(group, lmax):
    return bif.build_subspace(group, lmax)


def _axis_elements(group, fix_z):
    """The group matrices that send z to +z (and to -z unless `fix_z`),
    found from the matrices themselves."""
    return [mat for mat in group.matrices
            if np.allclose(mat[2, :2], 0.0, atol=1e-12) and np.allclose(mat[:2, 2], 0.0, atol=1e-12)
            and (mat[2, 2] > 0 or not fix_z)]


class TestGridRule:
    """nlon is the smallest multiple of twice the longitude period at or
    above 4 lmax + 10, so the whole z-axis stabiliser folds the grid."""

    PERIODS = {"tetrahedral": 4, "d2d": 4, "d4d": 8, "trivial": 1}
    # elements sending z to +/- z (fixed frame) and to z (rotating frame)
    FOLDING = {"tetrahedral": (8, 4), "d2d": (8, 4), "d4d": (16, 8), "trivial": (1, 1)}
    FAMILIES = (bif.CubicShiftFamily(mu=1.0, mu1=1.0, degree=3),
                bif.SaturatingLinearFamily(beta=1.0, mu=1.0, degree=3))

    @pytest.mark.parametrize("frame", [0, 1], ids=["fixed_frame", "rotating_frame"])
    @pytest.mark.parametrize("lmax", [8, 12, 24])
    @pytest.mark.parametrize("group", ["tetrahedral", "d2d", "d4d", "trivial"])
    def test_whole_stabiliser_folds_the_grid(self, group, lmax, frame):
        sub = _subspace(group, lmax)
        assert bif._longitude_period(sub.group) == self.PERIODS[group]
        problem = bif.ContinuationProblem(family=self.FAMILIES[frame], subspace=sub)
        grid = problem.transform.grid
        nlon = grid.nlon
        assert grid.nlat == 2 * lmax + 9
        assert nlon >= 4 * lmax + 10 and nlon % (2 * self.PERIODS[group]) == 0
        if group == "trivial":
            assert nlon == 4 * lmax + 10
        lat = np.arcsin(grid.nodes)[:, None]
        points = np.stack(np.broadcast_arrays(np.cos(lat) * np.cos(grid.longitudes),
                                              np.cos(lat) * np.sin(grid.longitudes),
                                              np.sin(lat)), axis=-1).reshape(-1, 3)
        labels = bif.grid_orbit_labels(sub.group, grid, fix_z=bool(frame))
        elements = _axis_elements(sub.group, fix_z=bool(frame))
        assert len(elements) == self.FOLDING[group][frame]
        for mat in elements:
            # the image of each point is a grid point, and in its orbit
            images = points @ mat.T
            rows = np.argmin(np.abs(images[:, 2, None] - grid.nodes), axis=1)
            cols = np.rint(np.arctan2(images[:, 1], images[:, 0]) * nlon / (2.0 * math.pi))
            flat = rows * nlon + cols.astype(int) % nlon
            assert np.max(np.abs(points[flat] - images)) < 1e-12
            assert np.array_equal(labels[flat], labels)
        assert np.array_equal(problem.grid_points, np.unique(labels))

    @pytest.mark.parametrize("group", ["tetrahedral", "d2d", "d4d"])
    def test_mirror_meridians_are_grid_longitudes(self, group):
        for lmax in (8, 12, 24):
            problem = bif.ContinuationProblem(bif.CubicShiftFamily(mu=1.0, mu1=1.0, degree=3),
                                              _subspace(group, lmax))
            nlon = problem.transform.grid.nlon
            mirrors = [mat for mat in _axis_elements(problem.subspace.group, fix_z=True)
                       if np.linalg.det(mat[:2, :2]) < 0]
            assert mirrors
            for mat in mirrors:
                # the meridian a mirror fixes is its plane's +1 eigenvector
                eigvals, eigvecs = np.linalg.eigh(mat[:2, :2])
                axis = eigvecs[:, np.argmax(eigvals)]
                position = math.atan2(axis[1], axis[0]) * nlon / (2.0 * math.pi)
                assert abs(position - round(position)) < 1e-9

    def test_cubic_quadrature_exact_on_the_former_grid(self):
        """Cubic integrands are exact on both grids, so the folded sums on the
        new grid equal whole-grid sums on the former 4 lmax + 10 longitudes."""
        lmax = 12
        problem = bif.ContinuationProblem(bif.CubicShiftFamily(mu=1.0, mu1=1.0404, degree=3),
                                          _subspace("tetrahedral", lmax))
        former = sht.get_transform(lmax, 2 * lmax + 9, 4 * lmax + 10)
        assert former.grid.nlon != problem.transform.grid.nlon
        point = bif.detect_bifurcation_points(problem, (0.0, 2.0), degrees=[3])[-1]
        branch = bif.continue_branch(problem, point, steps=20, ds=0.08)
        assert len(branch.points) == 21
        for p in branch.points:
            residual, jacobian = ref.whole_grid_quadrature(problem, former, p.lam, p.x)
            scale = max(1.0, np.max(np.abs(p.x)))
            assert np.max(np.abs(problem.residual(p.lam, p.x) - residual)) < 1e-13 * scale
            assert np.max(np.abs(problem.jacobian(p.lam, p.x) - jacobian)) < 1e-13


class TestProfileCubes:
    """The profiles cube by products; they agree with the pow forms to 1e-15
    of the size of their terms."""

    CUBICS = [bif.CubicShiftFamily(mu=1.0, mu1=1.0404, degree=3),
              bif.CubicShiftFamily(mu=2.5, mu1=0.3, degree=5)]
    SATURATING = [bif.SaturatingLinearFamily(beta=1.0, mu=1.0, degree=3),
                  bif.SaturatingLinearFamily(beta=0.5, mu=2.0, degree=4)]
    FLOATS = [0.0, -0.0, 1.0, -1.0, 0.3, -2.5, 2.0000001, 7.25, -123.456, 1e3, -1e3, 3.7e-5]

    @staticmethod
    def arrays():
        rng = np.random.default_rng(19)
        values = np.concatenate([rng.uniform(-1e3, 1e3, 500), rng.uniform(-5.0, 5.0, 500),
                                 np.zeros(4), -np.logspace(-8, 3, 50), np.logspace(-8, 3, 50)])
        return [values, values.reshape(-1, 6)[:, ::-1]]

    @staticmethod
    def cubic_pow(family, t):
        return family.mu1 * t**3 - (family.mu + family.degree * (family.degree + 1)) * t

    @staticmethod
    def cubic_scale(family, t):
        return family.mu1 * np.abs(t) ** 3 + (family.mu + family.degree * (family.degree + 1)) * np.abs(t)

    @pytest.mark.parametrize("family", CUBICS, ids=["mu1-1.0404", "mu1-0.3"])
    def test_cubic_matches_pow(self, family):
        for t in self.arrays() + self.FLOATS:
            got = family.p(t)
            assert np.all(np.abs(got - self.cubic_pow(family, t)) <= 1e-15 * self.cubic_scale(family, t))
            if isinstance(t, float):
                assert isinstance(got, float)
        for lam in (0.0, 0.56603, -1.3, 40.0):
            for f in self.arrays() + self.FLOATS:
                got = family.value(lam, f, None)
                expected = self.cubic_pow(family, lam + f) - self.cubic_pow(family, lam)
                scale = self.cubic_scale(family, lam + f) + self.cubic_scale(family, lam)
                assert np.all(np.abs(got - expected) <= 1e-15 * scale)

    @pytest.mark.parametrize("family", SATURATING, ids=["beta-1", "beta-0.5"])
    def test_saturating_matches_pow(self, family):
        for t in self.arrays() + self.FLOATS:
            t = np.asarray(t, dtype=float)
            excess = np.abs(t) - 2.0 * family.mu
            outer = np.where(excess > 0.0,
                             family.kappa * np.sign(t) * np.maximum(excess, 0.0) ** 3, 0.0)
            expected = family.slope * t + outer
            scale = np.abs(family.slope * t) + np.abs(outer)
            got = family.p(t)
            assert got.shape == t.shape
            assert np.all(np.abs(got - expected) <= 1e-15 * scale)
            # the linear window is exact
            inside = excess <= 0.0
            assert np.array_equal(got[inside], expected[inside])


class TestDetection:
    def test_cubic_family_crossings(self, cubic_problem):
        points = bif.detect_bifurcation_points(cubic_problem, (-2.0, 2.0))
        lams = sorted(p.lam for p in points if p.degree == 3)
        expected = 1.0 / math.sqrt(3.0)
        assert abs(lams[0] + expected) < 1e-10
        assert abs(lams[-1] - expected) < 1e-10

    def test_detection_independent_of_subspace_cap(self):
        for lmax in (8, 12, 16):
            sub = bif.build_subspace("tetrahedral", lmax)
            problem = bif.ContinuationProblem(
                family=bif.CubicShiftFamily(mu=1.0, mu1=1.0, degree=3), subspace=sub)
            points = bif.detect_bifurcation_points(problem, (0.0, 2.0), degrees=[3])
            assert abs(points[0].lam - 1.0 / math.sqrt(3.0)) < 1e-12

    def test_multiplier_scan_matches_scalar_calls(self, cubic_problem, rotating_problem):
        # the scan evaluates the multiplier on the whole grid in one call
        lam_grid = np.linspace(-2.0, 2.0, 400)
        for problem in (cubic_problem, rotating_problem):
            loop = [problem.family.linear_multiplier(float(lam)) for lam in lam_grid]
            assert np.array_equal(problem.family.linear_multiplier(lam_grid), loop)

    def test_degenerate_linear_multiplier_reported(self, tetra_subspace):
        class DegenerateFamily:
            degree = 3
            depends_on_z = False

            def value(self, lam, f, z):
                return -12.0 * f

            def derivative(self, lam, f, z):
                return -12.0 * np.ones_like(f)

            def linear_multiplier(self, lam):
                return -12.0

        problem = bif.ContinuationProblem(family=DegenerateFamily(), subspace=tetra_subspace)
        with pytest.raises(ArithmeticError):
            bif.detect_bifurcation_points(problem, (-1.0, 1.0), degrees=[3])

    def test_tangential_crossing_excluded(self, tetra_subspace):
        # multiplier + l(l+1) = lambda^3 changes sign at 0 with zero slope
        class TangentialFamily:
            degree = 3
            depends_on_z = False

            def linear_multiplier(self, lam):
                return lam**3 - 12.0

        problem = bif.ContinuationProblem(family=TangentialFamily(), subspace=tetra_subspace)
        assert bif.detect_bifurcation_points(problem, (-1.0, 1.0)) == []

    def test_saturating_family_constants(self):
        fam = bif.SaturatingLinearFamily(beta=1.0, mu=1.0, degree=3)
        assert abs(fam.nu - 1.2) < 1e-15
        assert abs(fam.bifurcation_lambda() - 2.0) < 1e-15

    def test_saturating_family_constraint(self):
        with pytest.raises(ValueError):
            bif.SaturatingLinearFamily(beta=1.0, mu=0.1, degree=3)


class TestContinuation:
    def test_zero_steps_branch(self, cubic_problem):
        points = bif.detect_bifurcation_points(cubic_problem, (0.0, 1.0))
        branch = bif.continue_branch(cubic_problem, points[0], steps=0)
        assert len(branch.points) == 1
        assert branch.points[0].lam == points[0].lam
        assert np.linalg.norm(branch.points[0].x) == 0.0

    def test_branch_tangent_and_bounds(self, cubic_problem):
        points = bif.detect_bifurcation_points(cubic_problem, (0.0, 1.0))
        branch = bif.continue_branch(cubic_problem, points[0], steps=50, ds=0.08)
        assert branch.status == "completed"
        assert len(branch.points) == 51
        first = branch.points[1]
        gen = cubic_problem.subspace.generator_index(3)
        alignment = abs(first.x[gen]) / np.linalg.norm(first.x)
        assert alignment > 0.99
        a_minus, a_plus, amp = cubic_problem.family.apriori_bounds()
        for p in branch.points:
            assert p.within_bounds
            assert abs(p.lam) + p.sup_psi <= 2 * (a_plus - a_minus) + 1e-9
            assert p.sup_vorticity <= 2 * amp + 1e-9
            assert p.residual < 1e-9

    def test_within_bounds_is_the_family_window(self):
        fam = bif.CubicShiftFamily(mu=1.0, mu1=1.0, degree=3)
        a_minus, a_plus, amp = fam.apriori_bounds()
        edge = 2 * (a_plus - a_minus)
        assert fam.within_bounds(0.5, edge - 0.5, 2 * amp)
        assert not fam.within_bounds(0.5, edge - 0.4, 0.0)
        assert not fam.within_bounds(0.0, 0.0, 2 * amp + 1e-6)
        # no a-priori bound in the rotating frame
        assert bif.SaturatingLinearFamily(beta=1.0, mu=1.0, degree=3).within_bounds(9.0, 9.0, 9.0)

    def test_point_outside_family_bounds_ends_branch(self, tetra_subspace):
        class Trivial(bif.CubicShiftFamily):  # bounds that admit the trivial branch only
            def within_bounds(self, lam, sup_psi, sup_vort):
                return sup_psi == 0.0

        problem = bif.ContinuationProblem(family=Trivial(mu=1.0, mu1=1.0, degree=3),
                                          subspace=tetra_subspace)
        points = bif.detect_bifurcation_points(problem, (0.0, 1.0))
        branch = bif.continue_branch(problem, points[0], steps=10, ds=0.08)
        assert branch.status == "bound_violation"
        assert [p.within_bounds for p in branch.points] == [True, False]

    def test_full_residual_tracks_subspace_residual(self, cubic_problem):
        points = bif.detect_bifurcation_points(cubic_problem, (0.0, 1.0))
        branch = bif.continue_branch(cubic_problem, points[0], steps=12, ds=0.08)
        for p in branch.points[1:]:
            assert p.full_residual <= 10.0 * p.residual + 1e-12

    def test_branch_converges_in_subspace_cap(self):
        # the same arclength point agrees between caps once the cap clears
        # the nonlinear harmonics generated at low amplitude
        finals = []
        for lmax in (12, 16):
            sub = bif.build_subspace("tetrahedral", lmax)
            problem = bif.ContinuationProblem(
                family=bif.CubicShiftFamily(mu=1.0, mu1=1.0, degree=3), subspace=sub)
            points = bif.detect_bifurcation_points(problem, (0.0, 1.0))
            branch = bif.continue_branch(problem, points[0], steps=10, ds=0.05)
            last = branch.points[-1]
            finals.append((last.lam, sub.assemble(last.x).norm()))
        assert abs(finals[0][0] - finals[1][0]) < 1e-7
        assert abs(finals[0][1] - finals[1][1]) < 1e-7


    def test_branch_independent_of_blas_threads(self, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text('{"group": "tetrahedral", "lmax": 24, "steps": 10, "ds": 0.08, '
                           '"family": {"kind": "cubic", "mu": 1.0, "mu1": 1.0404, "degree": 3}}')
        src = str(Path(bif.__file__).resolve().parents[1])
        columns = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "rotosphere", "bifurcate", str(problem),
                            "--outdir", str(out)], env=env, check=True)
            rows = (out / "branch.csv").read_text().splitlines()[1:]
            columns.append(np.array([[float(v) for v in r.split(",")[:2]] for r in rows]))
        assert columns[0].shape == (11, 2)
        # lambda and amplitude; the amplitude at the bifurcation point is exactly 0
        assert np.all(np.abs(columns[0] - columns[1]) <= 1e-12 * np.abs(columns[0]))


def _rotating_branch(problem, steps, ds):
    """The saturating branch as `bifurcate` follows it, from the one crossing
    in (max(0, lambda* - 1), lambda* + 1), and each point's saturation margin
    sup |(1 + lambda^2) f - mu z| at the orbit representatives."""
    fam, grid = problem.family, problem.transform.grid
    lam_star = fam.bifurcation_lambda()
    points = bif.detect_bifurcation_points(
        problem, (max(0.0, lam_star - 1.0), lam_star + 1.0), degrees=[fam.degree])
    assert len(points) == 1
    branch = bif.continue_branch(problem, points[0], steps=steps, ds=ds)
    z = grid.nodes[problem.grid_points // grid.nlon]
    margins = [float(np.max(np.abs(fam.argument(p.lam, problem.values(p.x), z))))
               for p in branch.points]
    return branch, margins


class TestRotatingFrameBranch:
    def test_linear_regime_pins_lambda(self, rotating_problem):
        fam = rotating_problem.family
        branch, margins = _rotating_branch(rotating_problem, steps=15, ds=0.05)
        lam_star = fam.bifurcation_lambda()
        linear_pts = [p for p, m in zip(branch.points[1:], margins[1:]) if m <= 2.0 * fam.mu]
        assert len(linear_pts) >= 3
        gen = rotating_problem.subspace.generator_index(3)
        for p in linear_pts:
            assert abs(p.lam - lam_star) < 1e-9
            # in the window the solution is a pure multiple of the generator
            others = np.delete(p.x, gen)
            assert np.max(np.abs(others)) < 1e-8

    def test_sup_bound_holds_along_branch(self, rotating_problem):
        branch, _ = _rotating_branch(rotating_problem, steps=20, ds=0.05)
        bound = ref.sup_bound(rotating_problem.family)
        for p in branch.points:
            assert p.within_bounds
            assert p.sup_psi <= bound + 1e-9

    def test_nonlinear_regime_flagged(self, rotating_problem):
        # the margin flags the nonlinear regime: the 20-step branch leaves the window
        branch, margins = _rotating_branch(rotating_problem, steps=20, ds=0.05)
        assert len(branch.points) == 21
        assert margins[0] <= 2.0 * rotating_problem.family.mu
        assert max(margins) > 2.0 * rotating_problem.family.mu

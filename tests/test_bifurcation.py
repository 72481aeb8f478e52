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
    return bif.ContinuationProblem(family=family, subspace=tetra_subspace, mode="rotating_frame")


def _newton_point(problem, amplitude, seed):
    """A point (lambda, x) off the trivial branch: in the rotating frame near
    the crossing lambda = 2 with the saturating profile's cubic part active."""
    x = amplitude * np.random.default_rng(seed).normal(size=problem.subspace.dim)
    return (0.4, x) if problem.mode == "fixed_frame" else (2.1, x)


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
        gen = tetra_subspace.basis[tetra_subspace.generator_index(3)]
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
        gen = sub.basis[sub.generator_index(5)]
        support = [(l, m - 5) for l in range(6) for m in range(11)
                   if abs(gen.coeffs[l, m]) > 1e-10]
        assert support == [(5, -4), (5, 4)]

    def test_d2d_degree_five_generator_support(self):
        sub = bif.build_subspace("d2d", 5)
        assert sub.dimension_by_degree[5] == 1
        gen = sub.basis[sub.generator_index(5)]
        support = [(l, m - 5) for l in range(6) for m in range(11)
                   if abs(gen.coeffs[l, m]) > 1e-10]
        assert support == [(5, -2), (5, 2)]

    def test_trivial_group_full_dimension(self):
        sub = bif.build_subspace("trivial", 3)
        assert sub.dimension_by_degree == {1: 3, 2: 5, 3: 7}

    def test_basis_orthonormal(self, tetra_subspace):
        gram = np.array([
            [float(np.sum((np.conj(a.coeffs) * b.coeffs).real)) for b in tetra_subspace.basis]
            for a in tetra_subspace.basis
        ])
        assert np.max(np.abs(gram - np.eye(tetra_subspace.dim))) < 1e-12

    def test_basis_invariant_under_all_elements(self, tetra_subspace):
        assert tetra_subspace.invariance_defect() < 1e-10

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

    def test_tetrahedral_lmax24_dimensions_and_invariance(self, tetra24_subspace):
        expected = {l: 0 for l in range(1, 25)}
        expected.update({3: 1, 4: 1, 12: 2, 13: 1, 14: 1, 15: 2, 16: 2, 17: 1, 24: 3})
        expected.update({l: 1 for l in range(6, 12)})
        expected.update({l: 2 for l in range(18, 24)})
        assert tetra24_subspace.dimension_by_degree == expected
        assert tetra24_subspace.dim == 32
        assert tetra24_subspace.invariance_defect() < 1e-12

    def test_project_and_assemble_match_coefficient_sums(self, tetra24_subspace):
        sub = tetra24_subspace
        field = random_real_field(24, seed=21)
        loop = np.array([float(np.sum((np.conj(b.coeffs) * field.coeffs).real)) for b in sub.basis])
        assert np.max(np.abs(sub.project(field) - loop)) < 1e-13
        x = np.random.default_rng(22).normal(size=sub.dim)
        summed = sum(xi * b.coeffs for xi, b in zip(x, sub.basis))
        assert np.max(np.abs(sub.assemble(x).coeffs - summed)) < 1e-13

    def test_unknown_group_name(self):
        with pytest.raises(ValueError):
            bif.build_subspace("icosahedral", 6)

    def test_empty_subspace_rejected(self):
        with pytest.raises(ArithmeticError):
            bif.build_subspace("tetrahedral", 2)


class TestResidual:
    def test_trivial_solution_for_all_lambda(self, cubic_problem):
        x0 = np.zeros(cubic_problem.subspace.dim)
        for lam in (-1.5, 0.0, 0.3, 2.0):
            assert np.linalg.norm(cubic_problem.residual(lam, x0)) < 1e-14

    def test_linear_family_eigen_residual(self, tetra_subspace):
        # for the pure eigen-balance the invariant degree-l generator solves exactly
        class LinearFamily:
            degree = 3

            def value(self, lam, f):
                return -12.0 * f

            def derivative(self, lam, f):
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
        field = cubic_problem.residual_field(0.5, x)
        coords = cubic_problem.subspace.project(field)
        recon = cubic_problem.subspace.assemble(coords)
        leak = (field - recon).norm()
        assert leak < 1e-10 * max(1.0, field.norm())


class TestGridPath:
    """The Newton loop's quadrature on stored basis values against the
    transform path of `continuation_reference`."""

    @pytest.mark.parametrize("group,lmax", [("tetrahedral", 24), ("d4d", 12), ("trivial", 6)])
    @pytest.mark.parametrize("mode", ["fixed_frame", "rotating_frame"])
    def test_matches_transform_path(self, group, lmax, mode):
        subspace = bif.build_subspace(group, lmax)
        if mode == "fixed_frame":
            family, amplitude = bif.CubicShiftFamily(mu=1.0, mu1=1.0, degree=3), 0.3
        else:
            family, amplitude = bif.SaturatingLinearFamily(beta=1.0, mu=1.0, degree=3), 0.6
        problem = bif.ContinuationProblem(family=family, subspace=subspace, mode=mode)
        lam, x = _newton_point(problem, amplitude, seed=5)
        if mode == "rotating_frame":  # past the linear window of the profile
            arg = problem._saturation_argument(lam, problem.values(x))
            assert np.max(np.abs(arg)) > 2.0 * family.mu
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
        tr = rotating_problem.transform
        for values, field in ((psi, stream), (vorticity, sht.laplacian(stream))):
            expected = tr.synthesis(field.halves).ravel()
            assert np.max(np.abs(values - expected)) < 1e-13 * np.max(np.abs(expected))


class TestDetection:
    def test_cubic_family_crossings(self, cubic_problem):
        points = bif.detect_bifurcation_points(cubic_problem, (-2.0, 2.0))
        lams = sorted(p.lam for p in points if p.degree == 3)
        expected = 1.0 / math.sqrt(3.0)
        assert abs(lams[0] + expected) < 1e-10
        assert abs(lams[-1] - expected) < 1e-10
        assert all(p.transversal for p in points)

    def test_detection_independent_of_subspace_cap(self):
        for lmax in (8, 12, 16):
            sub = bif.build_subspace("tetrahedral", lmax)
            problem = bif.ContinuationProblem(
                family=bif.CubicShiftFamily(mu=1.0, mu1=1.0, degree=3), subspace=sub)
            points = bif.detect_bifurcation_points(problem, (0.0, 2.0), degrees=[3])
            assert abs(points[0].lam - 1.0 / math.sqrt(3.0)) < 1e-12

    def test_degenerate_linear_multiplier_reported(self, tetra_subspace):
        class DegenerateFamily:
            degree = 3

            def value(self, lam, f):
                return -12.0 * f

            def derivative(self, lam, f):
                return -12.0 * np.ones_like(f)

            def linear_multiplier(self, lam):
                return -12.0

        problem = bif.ContinuationProblem(family=DegenerateFamily(), subspace=tetra_subspace)
        with pytest.raises(ArithmeticError):
            bif.detect_bifurcation_points(problem, (-1.0, 1.0), degrees=[3])

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


class TestRotatingFrameBranch:
    def test_linear_regime_pins_lambda(self, tetra_subspace):
        fam = bif.SaturatingLinearFamily(beta=1.0, mu=1.0, degree=3)
        branch = bif.omega_branch(fam, tetra_subspace, steps=15, ds=0.05)
        lam_star = fam.bifurcation_lambda()
        linear_pts = [p for p in branch.points[1:] if p.extras["linear_regime"]]
        assert len(linear_pts) >= 3
        for p in linear_pts:
            assert abs(p.lam - lam_star) < 1e-9
            # in the window the solution is a pure multiple of the generator
            gen = tetra_subspace.generator_index(3)
            others = np.delete(p.x, gen)
            assert np.max(np.abs(others)) < 1e-8

    def test_sup_bound_holds_along_branch(self, tetra_subspace):
        fam = bif.SaturatingLinearFamily(beta=1.0, mu=1.0, degree=3)
        branch = bif.omega_branch(fam, tetra_subspace, steps=20, ds=0.05)
        for p in branch.points:
            assert p.sup_psi <= p.extras["sup_bound"] + 1e-9

    def test_nonlinear_regime_flagged(self, tetra_subspace):
        fam = bif.SaturatingLinearFamily(beta=1.0, mu=1.0, degree=3)
        branch = bif.omega_branch(fam, tetra_subspace, steps=20, ds=0.05)
        flags = [p.extras["linear_regime"] for p in branch.points]
        if not all(flags):
            # once the saturation margin exceeds the window the flag flips
            # and the full-sphere residual reports the symmetry commitment
            idx = flags.index(False)
            assert branch.points[idx].extras["saturation_margin"] > 2 * fam.mu

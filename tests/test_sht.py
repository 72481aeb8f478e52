import math
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotosphere import sht
from conftest import random_real_field
from sht_reference import ReferenceTransform, ScipyFFTTransform, evaluate, rotate_field_values
from spectral_reference import FullTableField, reality_defect


class TestGrid:
    def test_two_node_grid_is_exact(self):
        # roots of the degree-2 Legendre polynomial with unit weights
        grid = sht.build_grid(2, 3)
        assert np.allclose(grid.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        assert np.allclose(grid.weights, [1.0, 1.0], atol=1e-15)
        # exact integration of s^0..s^3
        for k, exact in [(0, 2.0), (1, 0.0), (2, 2 / 3), (3, 0.0)]:
            assert abs(grid.weights @ grid.nodes**k - exact) < 1e-14

    def test_weights_sum_to_two(self):
        for nlat in (2, 7, 16, 33):
            grid = sht.build_grid(nlat, 3)
            assert abs(grid.weights.sum() - 2.0) < 1e-14

    def test_quartic_moment(self):
        grid = sht.build_grid(16, 31)
        assert abs(grid.weights @ grid.nodes**4 - 2 / 5) < 1e-14

    def test_moments_match_analytic_up_to_exactness_degree(self):
        nlat = 6
        grid = sht.build_grid(nlat, 11)
        for k in range(2 * nlat):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(grid.weights @ grid.nodes**k - exact) < 1e-14

    def test_nodes_increasing_and_symmetric(self):
        grid = sht.build_grid(12, 19)
        assert np.all(np.diff(grid.nodes) > 0)
        assert np.allclose(grid.nodes, -grid.nodes[::-1], atol=1e-15)

    @pytest.mark.parametrize("lmax,nlat,nlon", [(4, 4, 9), (4, 5, 8), (0, 2, 3)])
    def test_invalid_specs_rejected(self, lmax, nlat, nlon):
        with pytest.raises(sht.GridShapeError if lmax >= 1 else ValueError):
            sht.Transform(lmax, nlat, nlon)


class TestHarmonics:
    def test_degree_one_zonal_at_pole(self, transform31):
        grid = transform31.grid
        y = sht.harmonic(1, 0, grid)
        expected = 0.5 * math.sqrt(3 / math.pi) * grid.nodes
        assert np.max(np.abs(y[:, 0] - expected)) < 1e-14

    def test_degree_two_zonal_at_equator(self):
        # value -(1/4) sqrt(5/pi) where sin(lat) = 0
        grid = sht.build_grid(8, 9)
        y = sht.harmonic(2, 0, grid)
        expected = 0.25 * math.sqrt(5 / math.pi) * (3 * grid.nodes**2 - 1)
        assert np.max(np.abs(y[:, 0] - expected)) < 1e-14

    def test_degree_one_sectoral_value(self):
        grid = sht.build_grid(8, 9)
        y = sht.harmonic(1, 1, grid)
        cos_lat = np.sqrt(1 - grid.nodes**2)
        expected = -0.5 * math.sqrt(3 / (2 * math.pi)) * cos_lat[:, None] * np.exp(
            1j * grid.longitudes[None, :])
        assert np.max(np.abs(y - expected)) < 1e-14

    def test_order_beyond_degree_rejected(self, transform31):
        with pytest.raises(ValueError):
            sht.harmonic(2, 3, transform31.grid)

    def test_orthonormality_matrix(self):
        lmax = 7
        tr = sht.default_transform(lmax)
        grid = tr.grid
        pairs = [(l, m) for l in range(1, lmax + 1) for m in range(-l, l + 1)]
        worst = 0.0
        sampled = [sht.harmonic(l, m, grid) for l, m in pairs]
        for i, a in enumerate(sampled):
            for j, b in enumerate(sampled):
                val = grid.integrate(a * np.conj(b))
                worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
        assert worst < 1e-12

    def test_wallis_integrals(self):
        # latitude quadrature of cos^k via the (1-s^2) powers
        grid = sht.build_grid(8, 15)
        wallis = {3: 4 / 3, 5: 16 / 15, 7: 32 / 35, 9: 256 / 315, 11: 512 / 693}
        for k, exact in wallis.items():
            value = grid.weights @ (1 - grid.nodes**2) ** ((k - 1) / 2)
            assert abs(value - exact) < 1e-14


class TestTransforms:
    def test_basis_round_trip(self, transform31):
        f = sht.SpectralField.zeros(31)
        f.set(1, 0, 1.0)
        values = transform31.synthesis(f.halves)
        back = sht.SpectralField(transform31.analysis(values))
        assert abs(back.get(1, 0) - 1.0) < 1e-13
        back.set(1, 0, 0.0)
        assert np.max(np.abs(back.coeffs)) < 1e-13

    def test_zero_field(self, transform31):
        zeros = np.zeros((transform31.grid.nlat, transform31.grid.nlon))
        out = transform31.analysis(zeros)
        assert np.max(np.abs(out)) == 0.0

    def test_random_round_trip_lmax31(self, transform31):
        f = random_real_field(31, seed=11)
        back = sht.SpectralField(transform31.analysis(transform31.synthesis(f.halves)))
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))

    def test_round_trip_lmax63(self):
        tr = sht.default_transform(63)
        f = random_real_field(63, seed=5)
        back = sht.SpectralField(tr.analysis(tr.synthesis(f.halves)))
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))

    def test_analysis_of_real_field_obeys_reality(self, transform31):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(transform31.grid.nlat, transform31.grid.nlon))
        out = sht.SpectralField(transform31.analysis(values))
        assert reality_defect(out.coeffs) == 0.0

    def test_complex_values_rejected(self, transform31):
        values = np.zeros((transform31.grid.nlat, transform31.grid.nlon), dtype=complex)
        with pytest.raises(ValueError):
            transform31.analysis(values)

    def test_one_half_table_per_field(self):
        for shape in [(2, 5, 5), (1, 5, 5), (5, 4), (1, 1), (5,)]:
            with pytest.raises(ValueError):
                sht.SpectralField(np.zeros(shape))
        for lmax in (1, 4):
            assert sht.SpectralField.zeros(lmax).halves.shape == (lmax + 1, lmax + 1)

    def test_dimension_mismatch_rejected(self, transform31):
        with pytest.raises(sht.GridShapeError):
            transform31.analysis(np.zeros((3, 4)))
        f = random_real_field(8)
        with pytest.raises(sht.GridShapeError):
            transform31.synthesis(f.halves)

    def test_point_evaluation_matches_synthesis(self, transform31):
        f = random_real_field(31, seed=9, decay=0.2)
        vals = transform31.synthesis(f.halves)
        grid = transform31.grid
        phi, s = np.meshgrid(grid.longitudes, grid.nodes)
        pointwise = evaluate(f, phi, s)
        assert np.max(np.abs(pointwise - vals)) < 1e-11


def _rel(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# the two named grid rules, by the ids their test cases carry
GRID_RULES = {"for_lmax": sht.default_transform, "dealiased": sht.dealiased_transform}
TRANSFORMS = [pytest.param(rule, lmax, id=f"{name}-{lmax}")
              for lmax in (8, 31) for name, rule in GRID_RULES.items()]


class TestRealFieldCore:
    """The m >= 0 core against the full-order reference transform."""

    @pytest.mark.parametrize("kind", ["real"])
    @pytest.mark.parametrize("rule, lmax", TRANSFORMS)
    def test_matches_reference(self, rule, lmax, kind):
        tr = rule(lmax)
        nlat, nlon = tr.grid.nlat, tr.grid.nlon
        ref = ReferenceTransform(lmax, nlat, nlon)
        f = random_real_field(lmax, seed=nlon, zero_mean=False)
        want = ref.synthesis(f)
        assert _rel(tr.synthesis(f.halves), want) < 1e-13
        for got, expected in zip(tr.gradient_values(f.halves), ref.gradient_values(f)):
            assert _rel(got, expected) < 1e-13
        assert _rel(sht.SpectralField(tr.analysis(want)).coeffs, ref.analysis(want).coeffs) < 1e-13
        # arbitrary grid values, not only bandlimited ones
        rng = np.random.default_rng(lmax)
        values = rng.normal(size=(nlat, nlon))
        assert _rel(sht.SpectralField(tr.analysis(values)).coeffs,
                    ref.analysis(values).coeffs) < 1e-13

    def test_batched_calls_match_single_calls(self):
        tr = sht.dealiased_transform(12)
        fields = [random_real_field(12, seed=s) for s in (1, 2, 3)]
        halves = np.stack([f.halves for f in fields])
        dtheta, dphi = tr.gradient_values(halves)
        values = np.stack([tr.synthesis(f.halves) for f in fields])
        assert np.array_equal(tr.synthesis(halves), values)
        batched = tr.analysis(values)
        for i, f in enumerate(fields):
            single_theta, single_phi = tr.gradient_values(f.halves)
            assert np.array_equal(dtheta[i], single_theta)
            assert np.array_equal(dphi[i], single_phi)
            assert np.array_equal(batched[i], tr.analysis(values[i]))

    def test_leading_axes_are_kept(self):
        tr = sht.default_transform(6)
        nlat, nlon = tr.grid.nlat, tr.grid.nlon
        stack = np.stack([[random_real_field(6, seed=2 * i + j).halves for j in range(3)]
                          for i in range(2)])
        values = tr.synthesis(stack)
        assert values.shape == (2, 3, nlat, nlon)
        assert all(g.shape == (2, 3, nlat, nlon) for g in tr.gradient_values(stack))
        assert tr.analysis(values).shape == stack.shape
        assert np.array_equal(values[1, 2], tr.synthesis(stack[1, 2]))
        assert tr.synthesis(stack[0, 0]).shape == (nlat, nlon)
        assert tr.analysis(values[0, 0]).shape == (7, 7)

    def test_batched_input_checks(self):
        tr = sht.default_transform(4)
        with pytest.raises(ValueError):
            tr.analysis(np.zeros((2, tr.grid.nlat, tr.grid.nlon), dtype=complex))
        with pytest.raises(sht.GridShapeError):
            tr.gradient_values(np.zeros((2, 4, 4), dtype=complex))
        with pytest.raises(sht.GridShapeError):
            tr.synthesis(np.zeros((5, 4), dtype=complex))
        with pytest.raises(sht.GridShapeError):
            tr.synthesis(np.zeros(5, dtype=complex))

    def test_halves_rebuild_the_table(self):
        g = random_real_field(9, seed=4)
        assert np.array_equal(sht.SpectralField.from_table(g.coeffs).coeffs, g.coeffs)

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("lmax", [1, 8, 31, 63])
    def test_columns_round_trip(self, lmax, lead):
        rng = np.random.default_rng(lmax)
        shape = (*lead, lmax + 1, lmax + 1)
        halves = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        halves.real[..., ::3, :] = -0.0
        halves.imag[..., 1::4] = -0.0
        halves.flat[1] = complex(np.inf, np.nan)
        cols = sht.to_columns(halves)
        batch = math.prod(lead)
        assert cols.shape == (lmax + 1, 2 * batch, lmax + 1)
        # order-major: the real parts of every field, then the imaginary parts
        flat = halves.reshape(batch, lmax + 1, lmax + 1)
        assert cols[2 % (lmax + 1), batch - 1, 1].tobytes() == flat[-1, 1, 2 % (lmax + 1)].real.tobytes()
        assert cols[1, 2 * batch - 1, lmax].tobytes() == flat[-1, lmax, 1].imag.tobytes()
        assert sht.from_columns(cols).reshape(shape).tobytes() == halves.tobytes()


def _grid_sizes(rule: str, lmax: int) -> tuple[int, int]:
    """(nlat, nlon) of each grid rule the package builds; the Casimir k = 5 grid
    (fields.casimir_moments, odd nlon at even lmax) and the continuation grid
    (bifurcation.ContinuationProblem) are written out as those modules size them."""
    if rule == "casimir5":
        return (5 * lmax) // 2 + 2, max(5 * lmax + 1, 2 * lmax + 1)
    if rule == "continuation":
        return 2 * lmax + 9, 4 * lmax + 10
    grid = GRID_RULES[rule](lmax).grid
    return grid.nlat, grid.nlon


class TestLongitudeFFT:
    """The longitude stage (real-DFT matmuls up to sht.DFT_MAX_NLON
    longitudes, numpy.fft above) and the lazily built gradient table against
    the former scipy.fft path with its eager table and against the full-order
    reference, to 1e-13 relative."""

    # the name is that of the bit-for-bit comparison the DFT stage replaced
    @pytest.mark.parametrize("batch", [(), (2,)], ids=["single", "batch2"])
    @pytest.mark.parametrize("lmax", [1, 2, 12, 24, 31, 63])
    @pytest.mark.parametrize("rule", ["for_lmax", "dealiased", "casimir5", "continuation"])
    def test_bit_identical_to_scipy_fft(self, rule, lmax, batch):
        nlat, nlon = _grid_sizes(rule, lmax)
        tr, fft = sht.Transform(lmax, nlat, nlon), ScipyFFTTransform(lmax, nlat, nlon)
        fields = [random_real_field(lmax, seed=nlon + i, zero_mean=False) for i in range(2)]
        pair = np.stack([f.halves for f in fields])
        halves = pair if batch else pair[0]
        values = np.random.default_rng(nlat).normal(size=(*batch, nlat, nlon))
        synthesised, analysed = tr.synthesis(halves), tr.analysis(values)
        gradients = tr.gradient_values(halves)
        assert _rel(synthesised, fft.synthesis(halves)) < 1e-13
        for got, want in zip(gradients, fft.gradient_values(halves)):
            assert _rel(got, want) < 1e-13
        assert _rel(analysed, fft.analysis(values)) < 1e-13
        bracket = tr.bracket(pair)
        assert _rel(bracket, fft.bracket(pair)) < 1e-13
        # the full-order reference, one field at a time
        ref = ReferenceTransform(lmax, nlat, nlon)
        for i, f in enumerate(fields[: len(pair) if batch else 1]):
            at = (i,) if batch else ()
            assert _rel(synthesised[at], ref.synthesis(f)) < 1e-13
            for got, want in zip(gradients, ref.gradient_values(f)):
                assert _rel(got[at], want) < 1e-13
            assert _rel(analysed[at], ref.analysis_table(values[at])[:, lmax:]) < 1e-13
        (psi_theta, psi_phi), (q_theta, q_phi) = (ref.gradient_values(f) for f in fields)
        want = ref.analysis_table(-psi_theta * q_phi + psi_phi * q_theta)[:, lmax:]
        want[0, 0] = 0.0
        assert _rel(bracket, want) < 1e-13

    @pytest.mark.parametrize("rule", ["for_lmax", "dealiased", "casimir5", "continuation"])
    def test_no_fft_below_crossover(self, rule, monkeypatch):
        # the sizes of each lmax's grid, without building (and caching) its transform
        monkeypatch.setattr(sht, "get_transform", lambda lmax, nlat, nlon: types.SimpleNamespace(
            grid=types.SimpleNamespace(nlat=nlat, nlon=nlon)))
        below, lmax = {}, 1
        while (sizes := _grid_sizes(rule, lmax))[1] <= sht.DFT_MAX_NLON:
            below[lmax], lmax = sizes, lmax + 1
        above = lmax, sizes

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.fft called")

        monkeypatch.setattr(np.fft, "rfft", refuse)
        monkeypatch.setattr(np.fft, "irfft", refuse)
        top = max(below)
        for lmax in sorted({*range(1, 5), *range(8, top, 8), top}):
            tr = sht.Transform(lmax, *below[lmax])
            pair = np.stack([random_real_field(lmax, seed=s).halves for s in (1, 2)])
            values = tr.synthesis(pair)
            assert all(g.shape == values.shape for g in tr.gradient_values(pair))
            assert tr.bracket(pair).shape == pair.shape[1:]
            assert _rel(tr.analysis(values), pair) < 1e-12
        lmax, sizes = above
        with pytest.raises(AssertionError, match="numpy.fft called"):
            sht.Transform(lmax, *sizes).synthesis(random_real_field(lmax, seed=1).halves)

    def test_bracket_shared_between_threads(self):
        # both threads also race to build the gradient table on first use
        tr = sht.Transform(31, 48, 96)
        pairs = [np.stack([random_real_field(31, seed=2 * i).halves,
                           random_real_field(31, seed=2 * i + 1).halves]) for i in range(6)]
        serial = [sht.Transform(31, 48, 96).bracket(pair) for pair in pairs]
        results = [[], []]
        start = threading.Barrier(2)

        def work(out):
            start.wait(timeout=30)
            for _ in range(10):
                out.extend(tr.bracket(pair) for pair in pairs)

        threads = [threading.Thread(target=work, args=(out,)) for out in results]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for out in results:
            assert len(out) == 10 * len(pairs)
            assert all(np.array_equal(got, serial[i % len(pairs)]) for i, got in enumerate(out))

    def test_gradient_table_built_on_first_use(self):
        tr = sht.Transform(12, 13, 26)
        f = random_real_field(12, seed=3)
        tr.analysis(tr.synthesis(f.halves))
        assert tr._grad is None
        got = tr.gradient_values(f.halves)
        assert tr._grad is not None
        want = ScipyFFTTransform(12, 13, 26).gradient_values(f.halves)
        assert all(_rel(g, w) < 1e-13 for g, w in zip(got, want))


def _layout_value(rng, m: int) -> complex:
    value = complex(rng.normal(), rng.normal())
    return complex(value.real) if m == 0 else value


def _layout_pair(rng, lmax: int):
    """The same random field as a SpectralField and as a full-table model."""
    new, ref = sht.SpectralField.zeros(lmax), FullTableField(lmax)
    for l in range(lmax + 1):
        for m in range(0, l + 1):
            value = _layout_value(rng, m)
            new.set(l, m, value)
            ref.set(l, m, value)
    return new, ref


def _layout_step(op: str, new, ref, rng):
    """Apply `op` to both models; returns the two results to compare."""
    l = int(rng.integers(0, new.lmax + 1))
    m = int(rng.integers(-l, l + 1))
    if op in ("get", "set", "add_to"):
        if op == "get":
            return new.get(l, m), ref.get(l, m)
        value = _layout_value(rng, m)
        getattr(new, op)(l, m, value)
        getattr(ref, op)(l, m, value)
    elif op in ("+", "-"):
        other_new, other_ref = _layout_pair(rng, new.lmax)
        new, ref = (new + other_new, ref + other_ref) if op == "+" else (
            new - other_new, ref - other_ref)
    elif op == "scaled":
        factor = rng.normal()
        new, ref = new.scaled(factor), ref.scaled(factor)
    elif op == "truncated":
        lmax = int(rng.integers(1, 9))
        new, ref = new.truncated(lmax), ref.truncated(lmax)
    elif op == "laplacian":
        new, ref = sht.laplacian(new), ref.laplacian()
    elif op == "invert_laplacian":
        new.set(0, 0, 0.0)
        ref.set(0, 0, 0.0)
        new, ref = sht.invert_laplacian(new), ref.invert_laplacian()
    else:
        return getattr(new, op)(), getattr(ref, op)()
    return new, ref


LAYOUT_OPS = ["get", "set", "add_to", "+", "-", "scaled", "truncated",
              "laplacian", "invert_laplacian", "degree_power", "norm"]


class TestHalfTableLayout:
    """`SpectralField` on its half table against the full-table model of its arithmetic."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(LAYOUT_OPS), min_size=1, max_size=12))
    def test_matches_full_table_model(self, lmax, seed, ops):
        rng = np.random.default_rng(seed)
        new, ref = _layout_pair(rng, lmax)
        # both layouts run through the same arithmetic
        for op in ops:
            got, want = _layout_step(op, new, ref, rng)
            if op in ("degree_power", "norm"):
                # summed in another order
                assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), op
                continue
            if op == "get":
                got, want = np.array(got), np.array(want)
            else:
                new, ref = got, want
                got, want = new.coeffs, ref.coeffs
            assert np.array_equal(got, want), op
        L = new.lmax
        table = new.coeffs
        assert all(new.get(l, m) == table[l, L + m] for l in range(L + 1) for m in range(-l, l + 1))


FIELD_CASES = st.tuples(st.integers(1, 24), st.integers(0, 2**32 - 1),
                        st.sampled_from(list(GRID_RULES.values())))


class TestTransformProperties:
    @settings(max_examples=40, deadline=None, database=None)
    @given(FIELD_CASES)
    def test_round_trip(self, case):
        lmax, seed, make = case
        tr = make(lmax)
        f = random_real_field(lmax, seed, zero_mean=False)
        back = sht.SpectralField(tr.analysis(tr.synthesis(f.halves)))
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))

    @settings(max_examples=40, deadline=None, database=None)
    @given(FIELD_CASES)
    def test_parseval(self, case):
        lmax, seed, make = case
        tr = make(lmax)
        f = random_real_field(lmax, seed, zero_mean=False)
        values = tr.synthesis(f.halves)
        grid_norm2 = tr.grid.integrate(values**2)
        assert abs(grid_norm2 - f.norm() ** 2) < 1e-12 * f.norm() ** 2


class TestLaplacian:
    def test_eigenrelation_y21(self):
        f = sht.SpectralField.zeros(8)
        f.set(2, 1, 1.0)
        lap = sht.laplacian(f)
        assert lap.get(2, 1) == -6.0

    def test_eigenrelation_on_grid_all_degrees(self):
        lmax = 15
        tr = sht.default_transform(lmax)
        for l in (1, 2, 5, 15):
            for m in (0, 1, l):
                y = sht.harmonic(l, m, tr.grid)
                for part in (y.real, y.imag):
                    back = tr.synthesis(sht.laplacian(sht.SpectralField(tr.analysis(part))).halves)
                    assert np.max(np.abs(back + l * (l + 1) * part)) < 1e-12 * l * (l + 1)

    def test_sin_lat_field(self):
        # Laplacian of sin(lat) is -2 sin(lat)
        lmax = 8
        tr = sht.default_transform(lmax)
        s_field = tr.grid.nodes[:, None] * np.ones((1, tr.grid.nlon))
        lap = tr.synthesis(sht.laplacian(sht.SpectralField(tr.analysis(s_field))).halves)
        assert np.max(np.abs(lap + 2 * s_field)) < 5e-13

    def test_inverse_pair(self):
        f = random_real_field(12, seed=2)
        assert np.max(np.abs(sht.invert_laplacian(sht.laplacian(f)).coeffs - f.coeffs)) < 1e-13

    def test_inversion_rejects_nonzero_mean(self):
        f = random_real_field(6, seed=4, zero_mean=False)
        f.set(0, 0, 1.0)
        with pytest.raises(sht.MeanConstraintError):
            sht.invert_laplacian(f)


ANGLES = st.floats(-math.pi, math.pi)
# the edge angles 0, pi/2 and pi are where the Euler decomposition degenerates
BETAS = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]), st.floats(0.0, math.pi))


class TestRotation:
    def test_identity(self):
        f = random_real_field(10, seed=6)
        out = sht.rotate(f, sht.RotationSpec())
        assert np.max(np.abs(out.coeffs - f.coeffs)) < 1e-14

    def test_rotation_of_zonal_degree_one_stays_unit_norm(self):
        f = sht.SpectralField.zeros(4)
        f.set(1, 0, 1.0)
        out = sht.rotate(f, sht.RotationSpec(beta=math.pi / 2))
        power = out.degree_power()
        assert abs(power[1] - 1.0) < 1e-13
        assert power[2:].sum() < 1e-26

    def test_matches_grid_resampling_oracle(self):
        lmax = 10
        tr = sht.default_transform(lmax)
        f = random_real_field(lmax, seed=7)
        rot = sht.RotationSpec(alpha=0.45, beta=1.3, gamma=-0.8)
        spectral = sht.rotate(f, rot)
        resampled = sht.SpectralField(tr.analysis(rotate_field_values(f, rot, tr.grid)))
        assert np.max(np.abs(spectral.coeffs - resampled.coeffs)) < 1e-12

    def test_parity_matches_oracle(self):
        lmax = 6
        tr = sht.default_transform(lmax)
        f = random_real_field(lmax, seed=8)
        rot = sht.RotationSpec(alpha=0.2, beta=0.9, gamma=0.1)
        spectral = sht.rotate(f, rot, parity=True)
        resampled = sht.SpectralField(
            tr.analysis(rotate_field_values(f, rot, tr.grid, parity=True)))
        assert np.max(np.abs(spectral.coeffs - resampled.coeffs)) < 1e-12

    @pytest.mark.parametrize("l", [1, 3, 10, 32, 63])
    def test_unitarity(self, l):
        block = sht.rotation_block(l, sht.RotationSpec(0.3, 0.7, -0.2))
        defect = np.max(np.abs(block @ block.conj().T - np.eye(2 * l + 1)))
        assert defect < 1e-12

    def test_pi2_cache_is_bounded(self):
        l = sht.PI2_CACHE_LMAX + 3
        block = sht.rotation_block(l, sht.RotationSpec(0.3, 0.7, -0.2))
        assert np.max(np.abs(block @ block.conj().T - np.eye(2 * l + 1))) < 1e-12
        assert sorted(sht._pi2_tables) == list(range(sht.PI2_CACHE_LMAX + 1))

    @pytest.mark.parametrize("l", [1, 2, 5, 10])
    def test_closed_form_matches_recurrence(self, l):
        # beta = 0, pi/2 and pi are the tetrahedral group's angles
        for beta in (1.11, 0.0, math.pi / 2, math.pi):
            rot = sht.RotationSpec(alpha=0.37, beta=beta, gamma=2.2)
            a = sht.rotation_block(l, rot, closed_form=False)
            b = sht.rotation_block(l, rot, closed_form=True)
            assert np.max(np.abs(a - b)) < 1e-12, beta

    def test_rotate_applies_rotation_block(self):
        lmax = 12
        f = random_real_field(lmax, seed=15)
        rot = sht.RotationSpec(0.9, 2.3, -0.6)
        out = sht.rotate(f, rot)
        for l in range(lmax + 1):
            expected = sht.rotation_block(l, rot) @ f.coeffs[l, lmax - l : lmax + l + 1]
            assert np.max(np.abs(out.coeffs[l, lmax - l : lmax + l + 1] - expected)) < 1e-13

    def test_commutes_with_laplacian(self):
        f = random_real_field(20, seed=10)
        rot = sht.RotationSpec(0.5, 0.6, 0.7)
        a = sht.laplacian(sht.rotate(f, rot))
        b = sht.rotate(sht.laplacian(f), rot)
        scale = np.max(np.abs(b.coeffs))
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12 * scale

    def test_per_degree_norm_preserved(self):
        f = random_real_field(16, seed=12)
        out = sht.rotate(f, sht.RotationSpec(1.0, 0.4, -1.5))
        assert np.max(np.abs(out.degree_power() - f.degree_power())) < 1e-12

    def test_composition_matches_matrix_product(self):
        rot1 = sht.RotationSpec(0.3, 0.8, -0.4)
        rot2 = sht.RotationSpec(-0.9, 0.5, 1.2)
        combined = sht.euler_from_matrix(rot2.matrix() @ rot1.matrix())
        f = random_real_field(8, seed=13)
        seq = sht.rotate(sht.rotate(f, rot1), rot2)
        direct = sht.rotate(f, combined)
        assert np.max(np.abs(seq.coeffs - direct.coeffs)) < 1e-12

    @settings(max_examples=40, deadline=None, database=None)
    @given(lmax=st.integers(1, 16), seed=st.integers(0, 2**16),
           first=st.tuples(ANGLES, BETAS, ANGLES, st.booleans()),
           second=st.tuples(ANGLES, BETAS, ANGLES, st.booleans()))
    def test_rotation_homomorphism(self, lmax, seed, first, second):
        """rotate(f, g2 g1) == rotate(rotate(f, g1), g2) on O(3), parity included."""
        rot1, rot2 = sht.RotationSpec(*first[:3]), sht.RotationSpec(*second[:3])
        combined = sht.euler_from_matrix(rot2.matrix() @ rot1.matrix())
        parity = first[3] != second[3]
        f = random_real_field(lmax, seed=seed)
        seq = sht.rotate(sht.rotate(f, rot1, parity=first[3]), rot2, parity=second[3])
        direct = sht.rotate(f, combined, parity=parity)
        assert np.max(np.abs(seq.coeffs - direct.coeffs)) < 1e-12

    def test_euler_from_matrix_round_trip(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            rot = sht.RotationSpec(*rng.uniform(-math.pi, math.pi, size=3))
            rec = sht.euler_from_matrix(rot.matrix())
            assert np.max(np.abs(rec.matrix() - rot.matrix())) < 1e-12
        # next to the degenerate ends only alpha + gamma (or alpha - gamma) is
        # well-conditioned; the matrix must still come back to rounding
        for beta in (0.0, 6e-8, 1e-6, math.pi - 1e-7, math.pi):
            rot = sht.RotationSpec(0.3, beta, 1.0)
            rec = sht.euler_from_matrix(rot.matrix())
            assert np.max(np.abs(rec.matrix() - rot.matrix())) < 1e-12, beta

    def test_nonfinite_angles_rejected(self):
        with pytest.raises(ValueError):
            sht.RotationSpec(alpha=math.nan)

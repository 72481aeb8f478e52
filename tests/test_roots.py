"""The package's Brent root finder against scipy.optimize.brentq, bit for bit.

`rotosphere._roots.brentq` transcribes SciPy's C routine on Python floats, so
the two must agree to the last bit wherever neither build contracts a
multiply-add into an FMA.  Every call site's brackets and tolerances are
replayed through both finders: the a-priori window of the cubic family, the
detection of bifurcation points over three symmetry groups and both families,
and the sign changes of the Rayleigh criterion.
"""

import math

import numpy as np
import pytest
from scipy import optimize

from rotosphere import _roots, bifurcation as bif, stability


@pytest.fixture
def calls(monkeypatch):
    """Route the package's root finding through both finders; each record is
    (ours, scipy's, tolerances)."""
    record = []

    def both(f, a, b, **tol):
        ours = _roots.brentq(f, a, b, **tol)
        record.append((ours, optimize.brentq(f, a, b, **tol), tol))
        return ours

    for module in (bif, stability):
        monkeypatch.setattr(module, "brentq", both)
    return record


def assert_bitwise_equal(record, min_calls):
    assert len(record) >= min_calls
    for ours, theirs, tol in record:
        assert ours.hex() == float(theirs).hex(), tol


def test_apriori_bounds_over_random_cubic_families(calls):
    rng = np.random.default_rng(16)
    for _ in range(300):
        bif.CubicShiftFamily(mu=rng.uniform(0.01, 10.0), mu1=rng.uniform(0.01, 10.0),
                             degree=int(rng.integers(1, 12))).apriori_bounds()
    assert_bitwise_equal(calls, 300)
    assert {tuple(sorted(t.items())) for *_, t in calls} == {(("xtol", 1e-12),)}


@pytest.mark.parametrize("group", ["tetrahedral", "d4d", "d2d"])
def test_detection_over_groups(calls, group):
    rng = np.random.default_rng(sum(map(ord, group)))
    subspace = bif.build_subspace(group, 12)
    for _ in range(20):
        cubic = bif.CubicShiftFamily(mu=rng.uniform(0.05, 5.0), mu1=rng.uniform(0.05, 5.0),
                                     degree=int(rng.choice(subspace.simple_degrees())))
        reach = 4.0 * math.sqrt((cubic.mu + 150.0) / cubic.mu1)
        bif.detect_bifurcation_points(bif.ContinuationProblem(cubic, subspace), (-reach, reach))
        saturating = bif.SaturatingLinearFamily(beta=rng.uniform(0.1, 2.0), mu=rng.uniform(1.0, 4.0),
                                                degree=int(rng.integers(2, 7)))
        lam_star = saturating.bifurcation_lambda()
        bif.detect_bifurcation_points(bif.ContinuationProblem(saturating, subspace),
                                      (max(0.0, lam_star - 1.0), lam_star + 1.0))
    assert_bitwise_equal(calls, 60)
    assert {tuple(sorted(t.items())) for *_, t in calls} == {(("rtol", 8.9e-16), ("xtol", 1e-14))}


def test_rayleigh_sign_changes(calls):
    rng = np.random.default_rng(7)
    for _ in range(60):
        zp = stability.ZonalProfile.from_zonal_coefficients({l: rng.normal() for l in range(1, 7)})
        stability.rayleigh_criterion(zp, omega=rng.uniform(-2.0, 2.0))
    assert_bitwise_equal(calls, 60)
    assert {tuple(t.items()) for *_, t in calls} == {()}  # scipy's default tolerances


def cubic(x):
    return x**3 - 2.0 * x - 5.0


def triple_root(x):  # too flat for Brent to close in on within _MAXITER steps at xtol 5e-324
    return (x - 1.0) ** 3


class TestEdgeCases:
    def test_root_at_an_endpoint_is_returned_as_is(self):
        for a, b in [(0.0, 1.5), (-2.5, 0.0), (-0.0, 3.0)]:
            ours = _roots.brentq(math.sin, a, b)
            assert ours.hex() == optimize.brentq(math.sin, a, b).hex()
            assert ours.hex() == (a if a == 0 else b).hex()

    def test_same_sign_bracket_raises_value_error(self):
        for finder in (_roots.brentq, optimize.brentq):
            with pytest.raises(ValueError):
                finder(cubic, 3.0, 4.0)

    def test_nan_raises_value_error(self):
        for finder in (_roots.brentq, optimize.brentq):
            with pytest.raises(ValueError):
                finder(lambda x: math.nan if 2.05 < x < 2.5 else cubic(x), 2.0, 3.0)

    def test_no_convergence_raises_runtime_error(self):
        for finder in (_roots.brentq, optimize.brentq):
            with pytest.raises(RuntimeError):
                finder(triple_root, 0.0, 2.5, xtol=5e-324)

    def test_nan_at_the_last_evaluation_raises_value_error(self):
        # two bracket evaluations and one per step: the last is number _MAXITER + 2
        for finder in (_roots.brentq, optimize.brentq):
            count = 0

            def f(x):
                nonlocal count
                count += 1
                return math.nan if count == _roots._MAXITER + 2 else triple_root(x)

            with pytest.raises(ValueError):
                finder(f, 0.0, 2.5, xtol=5e-324)
            assert count == _roots._MAXITER + 2

    @pytest.mark.parametrize("tol", [{}, {"xtol": 1e-12}, {"xtol": 1e-14, "rtol": 8.9e-16},
                                     {"xtol": 1e-3}, {"xtol": 5e-324}])
    def test_textbook_roots(self, tol):
        def outcome(finder, f, a, b):
            try:
                return finder(f, a, b, **tol).hex()
            except RuntimeError:  # the triple root does not converge at the tightest tolerances
                return "RuntimeError"

        for f, a, b in [(cubic, 2.0, 3.0), (math.cos, 0.0, 3.0), (lambda x: math.exp(x) - 2.0, -1.0, 4.0),
                        (triple_root, 0.0, 2.5), (math.tanh, -1e6, 1.0)]:
            assert outcome(_roots.brentq, f, a, b) == outcome(optimize.brentq, f, a, b)

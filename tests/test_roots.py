"""The package's Brent root finder against scipy.optimize.brentq, bit for bit,
and the closed-form crossings that need no root finder against SciPy's solves.

`rotosphere._roots.brentq` transcribes SciPy's C routine on Python floats at
SciPy's default tolerances, so the two must agree to the last bit wherever
neither build contracts a multiply-add into an FMA.  Its one call site, the
crossings of the zonal shear criteria, is replayed through both finders.
"""

import math

import numpy as np
import pytest
from scipy import optimize

from rotosphere import _roots, bifurcation as bif, stability


@pytest.fixture
def calls(monkeypatch):
    """Route the package's root finding through both finders; each record is
    (ours, scipy's)."""
    record = []

    def both(f, a, b):
        ours = _roots.brentq(f, a, b)
        record.append((ours, optimize.brentq(f, a, b)))
        return ours

    monkeypatch.setattr(stability, "brentq", both)
    return record


def scipy_root(f, lo, hi):
    """SciPy's root of f in [lo, hi], to the last few bits of its size."""
    return optimize.brentq(f, lo, hi, xtol=1e-300)


def test_apriori_bounds_over_random_cubic_families():
    rng = np.random.default_rng(16)
    for _ in range(300):
        family = bif.CubicShiftFamily(mu=rng.uniform(0.01, 10.0), mu1=rng.uniform(0.01, 10.0),
                                      degree=int(rng.integers(1, 12)))
        a_minus, a_plus, amp = family.apriori_bounds()
        # P turns at tau and climbs back to |P(tau)| beyond it, before 3 tau
        tau = math.sqrt((family.mu + family.degree * (family.degree + 1)) / (3.0 * family.mu1))
        depth = abs(family.p(tau))
        edge = scipy_root(lambda t: family.p(t) - depth, 1.5 * tau, 3.0 * tau)
        assert a_minus == -a_plus
        assert abs(a_plus - edge) <= 1e-12 * edge
        assert abs(amp - depth) <= 1e-12 * depth


def saturating_multiplier(family):
    """(1 + lambda^2) P'(0), the saturating family's multiplier, as a function."""
    return lambda lam: (1.0 + lam * lam) * family.dp(0.0)


@pytest.mark.parametrize("group", ["tetrahedral", "d4d", "d2d"])
def test_detection_over_groups(group):
    """Every crossing in the window is found, each to 1e-13 of SciPy's solve
    on a bracket that holds it alone."""
    rng = np.random.default_rng(sum(map(ord, group)))
    subspace = bif.build_subspace(group, 12)
    for _ in range(20):
        cubic = bif.CubicShiftFamily(mu=rng.uniform(0.05, 5.0), mu1=rng.uniform(0.05, 5.0),
                                     degree=int(rng.choice(subspace.simple_degrees())))
        reach = 4.0 * math.sqrt((cubic.mu + 150.0) / cubic.mu1)
        saturating = bif.SaturatingLinearFamily(beta=rng.uniform(0.1, 2.0), mu=rng.uniform(1.0, 4.0),
                                                degree=int(rng.integers(2, 7)))
        for family, multiplier, window, degrees in [
                (cubic, cubic.dp, (-reach, reach), subspace.simple_degrees()),
                (saturating, saturating_multiplier(saturating), (0.0, math.inf), [saturating.degree])]:
            points = bif.detect_bifurcation_points(bif.ContinuationProblem(family, subspace),
                                                   window, degrees)
            per_side = 2 if window[0] < 0.0 else 1
            for l in degrees:
                target = l * (l + 1)
                # an even multiplier monotone in |lambda|: one crossing per side or none
                crosses = (multiplier(0.0) + target) * (multiplier(1e8) + target) < 0.0
                lams = [p.lam for p in points if p.degree == l]
                assert len(lams) == (per_side if crosses else 0)
                for lam in lams:
                    solved = scipy_root(lambda t: multiplier(t) + target, 0.5 * lam, 1.5 * lam)
                    assert abs(lam - solved) <= 1e-13 * abs(solved)


def test_rayleigh_sign_changes(calls):
    rng = np.random.default_rng(7)
    for _ in range(60):
        zp = stability.ZonalProfile.from_zonal_coefficients({l: rng.normal() for l in range(1, 7)})
        stability.shear_criteria(zp, omega=rng.uniform(-2.0, 2.0))
    assert len(calls) >= 60
    for ours, theirs in calls:
        assert ours.hex() == float(theirs).hex()


def cubic(x):
    return x**3 - 2.0 * x - 5.0


def triple_root(x):  # too flat for Brent to close in on within a few steps
    return (x - 1.0) ** 3


class TestEdgeCases:
    MAXITER = 3  # well short of the steps the triple root needs

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

    def test_no_convergence_raises_runtime_error(self, monkeypatch):
        monkeypatch.setattr(_roots, "_MAXITER", self.MAXITER)
        for finder in (_roots.brentq, lambda *args: optimize.brentq(*args, maxiter=self.MAXITER)):
            with pytest.raises(RuntimeError):
                finder(triple_root, 0.0, 2.5)

    def test_nan_at_the_last_evaluation_raises_value_error(self, monkeypatch):
        # two bracket evaluations and one per step: the last is number MAXITER + 2
        monkeypatch.setattr(_roots, "_MAXITER", self.MAXITER)
        for finder in (_roots.brentq, lambda *args: optimize.brentq(*args, maxiter=self.MAXITER)):
            count = 0

            def f(x):
                nonlocal count
                count += 1
                return math.nan if count == self.MAXITER + 2 else triple_root(x)

            with pytest.raises(ValueError):
                finder(f, 0.0, 2.5)
            assert count == self.MAXITER + 2

    @pytest.mark.parametrize("tol", [{}, {"xtol": 1e-12}, {"xtol": 1e-14, "rtol": 8.9e-16},
                                     {"xtol": 1e-3}, {"xtol": 5e-324}])
    def test_textbook_roots(self, monkeypatch, tol):
        """SciPy's defaults ({}), and other tolerances set as the module's constants."""
        for name, value in tol.items():
            monkeypatch.setattr(_roots, f"_{name.upper()}", value)

        def outcome(finder, f, a, b):
            try:
                return finder(f, a, b).hex()
            except RuntimeError:  # the triple root does not converge at the tightest tolerances
                return "RuntimeError"

        for f, a, b in [(cubic, 2.0, 3.0), (math.cos, 0.0, 3.0), (lambda x: math.exp(x) - 2.0, -1.0, 4.0),
                        (triple_root, 0.0, 2.5), (math.tanh, -1e6, 1.0)]:
            assert outcome(_roots.brentq, f, a, b) == outcome(
                lambda *args: optimize.brentq(*args, **tol), f, a, b)

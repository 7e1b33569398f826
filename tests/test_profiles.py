import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from driftlab.profiles import (
    Linear,
    LogCorrected,
    PowerLaw,
    ProfileRangeError,
    Tabulated,
    Zero,
)

ALL_PROFILES = [
    PowerLaw(3.0, -1.0, 1.0),
    PowerLaw(1.0, 0.5, 2.0),
    PowerLaw(-2.0, -1.5, 0.5),
    LogCorrected(n_dim=2, alpha=2.0),
    LogCorrected(n_dim=3, alpha=-1.0, r0=1.5),
    Linear(),
    Zero(),
    Tabulated([0.0, 1.0, 4.0], [0.0, 2.0, -1.0]),
]


def test_zero_profile_is_identically_zero():
    assert Zero().psi(7.3) == 0.0


def test_powerlaw_point_value():
    # A r^beta at r = 2 with A=3, beta=-1
    assert PowerLaw(3.0, -1.0, 1.0).psi(2.0) == pytest.approx(1.5, rel=1e-15)


def test_logcorrected_point_value():
    # (n + alpha/log r)/r at r = e^2, n=2, alpha=2: (2 + 1)/e^2
    p = LogCorrected(n_dim=2, alpha=2.0, r0=math.e)
    assert p.psi(math.e**2) == pytest.approx(3.0 / math.e**2, rel=1e-14)
    assert p.psi(math.e**2) == pytest.approx(0.4060058497098381, rel=1e-12)


@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: type(p).__name__)
def test_origin_value_is_zero(profile):
    assert profile.psi(0.0) == 0.0


def test_far_field_formula_exact():
    p = PowerLaw(2.5, -0.7, 1.3)
    for r in (1.3, 2.0, 17.0):
        assert p.psi(r) == 2.5 * r**-0.7
    q = LogCorrected(n_dim=2, alpha=1.5, r0=2.0)
    for r in (2.0, 5.0, 40.0):
        assert q.psi(r) == (2 + 1.5 / math.log(r)) / r


def test_ramp_is_continuous_at_activation_radius():
    for p in (PowerLaw(3.0, -1.0, 1.0), PowerLaw(-1.0, 2.0, 0.7), LogCorrected(n_dim=2, alpha=-3.0, r0=2.0)):
        r0 = p.r0
        below = p.psi(r0 * (1 - 1e-9))
        at = p.psi(r0)
        assert below == pytest.approx(at, rel=1e-6, abs=1e-9)


def test_ramp_slope_matches_when_monotone_compatible():
    # for exponents in [0, 3] the ramp is C^1 across r0: one-sided slopes agree
    p = PowerLaw(2.0, 1.5, 1.0)
    eps = 1e-6
    left = (p.psi(1.0) - p.psi(1.0 - eps)) / eps
    right = (p.psi(1.0 + eps) - p.psi(1.0)) / eps
    assert left == pytest.approx(right, rel=1e-4)


@settings(max_examples=60, deadline=None)
@given(
    amplitude=st.floats(-5, 5, allow_nan=False),
    exponent=st.floats(-3, 3, allow_nan=False),
    r0=st.floats(0.1, 3.0, allow_nan=False),
)
def test_powerlaw_ramp_monotone_and_bounded(amplitude, exponent, r0):
    p = PowerLaw(amplitude, exponent, r0)
    s = np.linspace(0.0, r0, 200)
    vals = p.psi(s)
    target = amplitude * r0**exponent
    diffs = np.diff(vals)
    if target >= 0:
        assert np.all(diffs >= -1e-12 * max(1.0, abs(target)))
    else:
        assert np.all(diffs <= 1e-12 * max(1.0, abs(target)))
    assert abs(vals[-1] - target) <= 1e-12 * max(1.0, abs(target))
    assert vals[0] == 0.0


@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: type(p).__name__)
def test_cumulative_integral_matches_quadrature(profile):
    # dual route: closed form / exact piecewise form against adaptive quadrature
    r_hi = 4.0
    kink = [getattr(profile, "r0", None)]
    points = [k for k in kink if k is not None and k < r_hi]
    for r in (0.3, 1.7, r_hi):
        expected, err = quad(lambda s: profile.psi(s), 0.0, r,
                             points=[k for k in points if k < r], limit=200)
        assert profile.psi_integral(r) == pytest.approx(expected, rel=1e-8, abs=1e-10)


def test_tabulated_interpolation_and_range():
    t = Tabulated([0.0, 1.0, 3.0], [0.0, 2.0, 2.0])
    assert t.psi(0.5) == pytest.approx(1.0)
    assert t.psi(2.0) == pytest.approx(2.0)
    np.testing.assert_allclose(t.psi(np.array([0.0, 1.0, 3.0])), [0.0, 2.0, 2.0])
    with pytest.raises(ProfileRangeError):
        t.psi(3.5)
    with pytest.raises(ValueError):
        t.psi(-0.1)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        Tabulated([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])  # not strictly increasing
    with pytest.raises(ValueError):
        Tabulated([0.5, 1.0], [0.0, 1.0])  # does not start at the origin
    with pytest.raises(ValueError):
        Tabulated([0.0, 1.0], [0.5, 1.0])  # psi(0) != 0
    with pytest.raises(ValueError):
        Tabulated([0.0], [0.0])  # too few samples


def test_tabulated_positive_part_integral():
    t = Tabulated([0.0, 1.0, 2.0, 4.0], [0.0, 2.0, -2.0, 1.0])
    tp = t.positive_part()
    assert min(tp.speeds) >= 0.0
    for r in (0.7, 1.4, 2.9, 4.0):
        expected, _ = quad(lambda s: max(t.psi(s), 0.0), 0.0, r,
                           points=[p for p in (1.0, 1.5, 2.0, 3.0) if p < r], limit=200)
        assert tp.psi_integral(r) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_powerlaw_rejects_bad_r0():
    with pytest.raises(ValueError):
        PowerLaw(1.0, -1.0, 0.0)


def test_powerlaw_rejects_a_knot_value_past_the_double_range():
    # psi(r0) = A r0^beta: 10^400 and 0.01^-400 are no doubles
    for exponent, r0 in ((400.0, 10.0), (-400.0, 0.01)):
        with pytest.raises(ValueError, match="not a finite double"):
            PowerLaw(1.0, exponent, r0)


def test_powerlaw_rejects_a_ramp_scale_past_the_double_range():
    # psi(r0) = 10^308 is a double; psi(r0) r0 = 10^309, the scale of Psi on the ramp, is not
    with pytest.raises(ValueError, match=r"^psi\(r0\) r0 of .* is not a finite double$"):
        PowerLaw(1.0, 308.0, 10.0)


def test_powerlaw_integral_where_r0_to_the_g_is_no_double():
    # beta = 308, r0 = 10: r0^(beta+1) = 10^309 overflows while A/(beta+1) r0^(beta+1) does
    # not; the reference is the closed form in 40 digits, with the ramp's share v r0 / 4
    mpmath = pytest.importorskip("mpmath")
    radii = (10.0, 10.1, 10.5)
    p = PowerLaw(1e-10, 308.0, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = p.psi_integral(np.array(radii))
    with mpmath.workdps(40):
        A, g, r0 = mpmath.mpf(1e-10), mpmath.mpf(309), mpmath.mpf(10)
        ref = [float(A * r0**g / 4 + A / g * (mpmath.mpf(r)**g - r0**g)) for r in radii]
    np.testing.assert_allclose(got, ref, rtol=1e-13)


def test_powerlaw_integral_where_psi_r0_underflows_and_r_over_r0_to_the_g_overflows():
    # A r0^beta underflows to 0 and (r/r0)^g = 100^362 overflows: A/g r^g (1 - (r0/r)^g)
    # with r^g in logarithms, not 0 * inf = NaN; the ramp's share is below the least double
    mpmath = pytest.importorskip("mpmath")
    radii = (0.5, 0.9456140341010968)
    for A in (3.334094882154609e-54, -3.334094882154609e-54):
        p = PowerLaw(A, 361.454043856422, 0.009415425396125283)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = p.psi_integral(np.array(radii))
        with mpmath.workdps(40):
            g, r0 = mpmath.mpf(p.exponent) + 1, mpmath.mpf(p.r0)
            ref = [float(mpmath.mpf(A) / g * (mpmath.mpf(r)**g - r0**g)) for r in radii]
        np.testing.assert_allclose(got, ref, rtol=1e-13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert PowerLaw(0.0, 400.0, 0.01).psi_integral(20.0) == 0.0


def test_logcorrected_requires_r0_beyond_one():
    with pytest.raises(ValueError):
        LogCorrected(n_dim=2, alpha=1.0, r0=1.0)


@pytest.mark.parametrize("n_dim", [1, 2, 3])
@pytest.mark.parametrize("alpha", [-6.0, -1.0, -0.5, 0.0, 2.0])
@pytest.mark.parametrize("r0", [1.5, math.e])
def test_logcorrected_nonnegative_flag_is_exact(n_dim, alpha, r0):
    p = LogCorrected(n_dim=n_dim, alpha=alpha, r0=r0)
    r = np.concatenate([np.linspace(0.0, 200.0, 200_001), [r0]])
    assert p.nonnegative is bool(np.min(p.psi(r)) >= 0)


@pytest.mark.parametrize("method", ["psi", "psi_integral", "psi_plus_integral"])
@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: type(p).__name__)
def test_vectorized_matches_scalar(profile, method):
    # one scalar/array template: a scalar radius gives a float, the very entry of an array
    f = getattr(profile, method)
    rs = np.array([0.0, 0.4, 0.5, 1.0, 1.5, 2.0, math.e, 2.5, 4.0])
    values = f(rs)
    for r, value in zip(rs, values):
        scalar = f(float(r))
        assert type(scalar) is float and scalar == value, r
    with pytest.raises(ValueError):
        f(-0.5)

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from driftlab import weights
from driftlab.grid import RadialField, RadialGrid, unit_sphere_area
from driftlab.oracles import GaussianData
from driftlab.profiles import Linear, LogCorrected, PowerLaw, Tabulated, Zero
from driftlab.solver import SolverConfig, solve
from driftlab.weights import (
    Verdict,
    WeightFunction,
    classify,
    diagnostics,
    mass_weights,
    phi_tail_bound,
    predict_liftoff_level,
    upper_gamma,
    weighted_mass,
)


# --- the weight itself ------------------------------------------------------


def test_phi_zero_profile_is_one():
    w = WeightFunction(Zero())
    assert w.phi(0.0) == 1.0
    assert w.phi(13.7) == 1.0


def test_phi_linear_profile_closed_form():
    w = WeightFunction(Linear())
    assert w.phi(1.0) == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert w.phi(0.0) == 1.0


@pytest.mark.parametrize("profile", [
    PowerLaw(3.0, -1.0, 1.0),
    PowerLaw(-1.0, 0.5, 0.8),
    LogCorrected(n_dim=2, alpha=2.0),
    Linear(),
    Tabulated([0.0, 1.0, 6.0], [0.0, 1.5, -0.5]),
], ids=lambda p: type(p).__name__)
def test_phi_normalization_and_positivity(profile):
    w = WeightFunction(profile)
    assert w.phi(0.0) == 1.0
    r = np.linspace(0.0, 5.0, 400)
    vals = np.asarray(w.phi(r))
    assert np.all(vals > 0)


def test_phi_nonincreasing_for_positive_part_weight():
    for profile in (PowerLaw(2.0, -1.0, 1.0), LogCorrected(n_dim=2, alpha=-4.0, r0=1.5),
                    Tabulated([0.0, 1.0, 6.0], [0.0, 1.5, -0.5])):
        w = WeightFunction(profile, positive_part=True)
        r = np.linspace(0.0, 6.0, 500)
        vals = np.asarray(w.phi(r))
        assert np.all(np.diff(vals) <= 1e-15)


def test_positive_part_of_nonpositive_profile_is_unit_weight():
    w = WeightFunction(PowerLaw(-2.0, 0.0, 1.0), positive_part=True)
    r = np.linspace(0, 10, 50)
    np.testing.assert_array_equal(np.asarray(w.phi(r)), np.ones(50))


def test_positive_part_cumulative_against_quadrature():
    # sign-changing (psi > 0 only past r* = e^3) and nonnegative (psi(r0) = 0) log-corrected
    for p in (LogCorrected(n_dim=2, alpha=-6.0, r0=1.5), LogCorrected(n_dim=2, alpha=-1.0)):
        w = WeightFunction(p, positive_part=True)
        for r in (0.5, 2.0, 7.0, 20.0, 40.0):
            expected, _ = quad(lambda s: max(p.psi(s), 0.0), 0.0, r, limit=300)
            assert w.cumulative(r) == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_tabulated_positive_part_cumulative_is_exact():
    p = Tabulated([0.0, 1.0, 2.0, 5.0], [0.0, 2.0, -1.0, 0.5])
    w = WeightFunction(p, positive_part=True)
    for r in (0.5, 1.9, 3.3, 5.0):
        expected, _ = quad(lambda s: max(p.psi(s), 0.0), 0.0, r,
                           points=[x for x in (1.0, 2.0, 4.0) if x < r], limit=200)
        assert w.cumulative(r) == pytest.approx(expected, rel=1e-10, abs=1e-12)


# --- weighted mass ----------------------------------------------------------


def test_weighted_mass_unit_disk_area():
    g = RadialGrid(2.0, 2001, 2)
    ones = RadialField(g, np.ones(g.num_nodes))
    assert weighted_mass(ones, WeightFunction(Zero()), 1.0) == pytest.approx(math.pi, rel=1e-12)


def test_weighted_mass_zero_field():
    g = RadialGrid(2.0, 101, 2)
    zero = RadialField(g, np.zeros(g.num_nodes))
    assert weighted_mass(zero, WeightFunction(Linear()), 2.0) == 0.0


def test_weighted_mass_gaussian_against_quadrature():
    # u = e^{-r^2/4}, psi = r, n = 2: int e^{-3 r^2/4} dx = 4 pi / 3
    g = RadialGrid(20.0, 2001, 2)
    u = RadialField(g, np.exp(-g.nodes * g.nodes / 4.0))
    w = WeightFunction(Linear())
    expected, _ = quad(lambda r: math.exp(-0.75 * r * r) * 2 * math.pi * r, 0.0, 20.0)
    assert expected == pytest.approx(4 * math.pi / 3, rel=1e-10)
    assert weighted_mass(u, w, 20.0) == pytest.approx(expected, rel=5e-5)


def test_weight_overflowing_past_the_radius_is_not_integrated():
    # psi = -10 beyond r = 1: phi = exp(-Psi) overflows to inf from r ~ 72 on,
    # past the radius 50 and inside the radius 80
    g = RadialGrid(100.0, 401, 2)
    w = WeightFunction(Tabulated([0.0, 1.0, 100.0], [0.0, -10.0, -10.0]))
    assert np.isinf(w.phi(g.nodes[-1]))
    ones = RadialField(g, np.ones(g.num_nodes))
    with np.errstate(all="raise"):
        wq = mass_weights(w, g, 50.0)
        assert math.isfinite(weighted_mass(ones, w, 50.0))
    assert np.all(wq[g.nodes > 50.0] == 0.0)
    assert not np.all(np.isfinite(mass_weights(w, g, 80.0)))


def test_weighted_mass_radius_beyond_grid():
    g = RadialGrid(2.0, 101, 2)
    ones = RadialField(g, np.ones(g.num_nodes))
    with pytest.raises(ValueError):
        weighted_mass(ones, WeightFunction(Zero()), 3.0)


# --- classifier -------------------------------------------------------------


@pytest.mark.parametrize("profile,n,verdict", [
    (PowerLaw(3.0, -1.0, 1.0), 2, Verdict.LIFT_OFF),
    (PowerLaw(1.0, 0.0, 1.0), 2, Verdict.LIFT_OFF),
    (PowerLaw(1.0, -1.0, 1.0), 2, Verdict.DECAY),
    (PowerLaw(5.0, -2.0, 1.0), 3, Verdict.DECAY),
    (PowerLaw(2.0, -1.0, 1.0), 2, Verdict.CRITICAL_DECAY),
    (PowerLaw(-4.0, 1.0, 1.0), 2, Verdict.DECAY),
    (PowerLaw(0.0, 1.0, 1.0), 2, Verdict.DECAY),
    (LogCorrected(n_dim=2, alpha=2.0), 2, Verdict.CRITICAL_LIFT_OFF),
    (LogCorrected(n_dim=2, alpha=1.0), 2, Verdict.CRITICAL_DECAY),
    (LogCorrected(n_dim=2, alpha=0.5), 2, Verdict.CRITICAL_DECAY),
    (LogCorrected(n_dim=2, alpha=2.0), 3, Verdict.DECAY),
    (Linear(), 2, Verdict.LIFT_OFF),
    (Zero(), 2, Verdict.DECAY),
])
def test_classifier_verdicts(profile, n, verdict):
    result = classify(profile, n)
    assert result.verdict is verdict
    if verdict.lifts_off:
        assert math.isfinite(result.phi_mass)
    elif verdict.decays:
        assert result.phi_mass == math.inf


def test_classifier_growth_limits():
    assert classify(PowerLaw(3.0, -1.0, 1.0), 2).growth_limit == 3.0
    assert classify(PowerLaw(1.0, 0.0, 1.0), 2).growth_limit == math.inf
    assert classify(PowerLaw(5.0, -2.0, 1.0), 3).growth_limit == 0.0
    assert classify(LogCorrected(n_dim=2, alpha=0.5), 2).growth_limit == 2.0
    assert classify(Zero(), 2).growth_limit == 0.0
    assert classify(PowerLaw(-4.0, 1.0, 1.0), 2).growth_limit == -math.inf
    assert classify(PowerLaw(0.0, 1.0, 1.0), 2).growth_limit == 0.0
    assert classify(PowerLaw(2.0, -1.5, 1.0), 2).growth_limit == 0.0
    assert classify(Linear(), 2).growth_limit == math.inf
    assert classify(LogCorrected(n_dim=3, alpha=2.0), 2).growth_limit == 3.0


@pytest.mark.parametrize("profile,note", [
    (PowerLaw(2.0, -1.0, 1.0), "critical growth L = n = 2; weight mass diverges "
                               "(phi ~ r^-2 against dimension 2)"),
    (LogCorrected(n_dim=2, alpha=1.0), "critical growth L = n = 2; weight mass diverges "
                                       "(log-corrected alpha=1 <= 1)"),
    (LogCorrected(n_dim=2, alpha=2.0), "critical growth L = n = 2; weight mass finite "
                                       "(log-corrected alpha=2 > 1)"),
], ids=["power", "log-alpha-1", "log-alpha-2"])
def test_critical_line_notes(profile, note):
    # report.json carries the note as classifier_note
    assert classify(profile, 2).note == note


def test_classifier_tabulated_is_undetermined():
    result = classify(Tabulated([0.0, 1.0, 8.0], [0.0, 1.0, 0.5]), 2)
    assert result.verdict is Verdict.UNDETERMINED
    assert result.growth_limit is None
    assert result.phi_mass is None
    assert result.growth_bounds is not None
    lo, hi = result.growth_bounds
    assert lo <= hi


def test_classifier_integrability_coherence():
    # verdict lifts off <=> the weight-mass integral converges under radius
    # doubling.  Critical-line profiles are excluded: their integrals converge
    # or diverge only logarithmically, which is exactly why they are resolved
    # symbolically rather than numerically.
    cases = [
        (PowerLaw(3.0, -1.0, 1.0), 2, True),
        (PowerLaw(1.0, -1.0, 1.0), 2, False),
        (PowerLaw(1.0, 0.0, 1.0), 2, True),
        (PowerLaw(5.0, -2.0, 1.0), 3, False),
        (PowerLaw(-1.0, 0.5, 1.0), 2, False),
        (Linear(), 2, True),
        (Zero(), 3, False),
    ]

    def span(w, n, a, b):
        # a trapezoid of phi r^{n-1}, independent of the closed-form far fields
        r = np.linspace(a, b, 257)
        return np.trapezoid(w.phi(r) * r ** (n - 1), r)

    for profile, n, lifts in cases:
        assert classify(profile, n).verdict.lifts_off is lifts
        w = WeightFunction(profile)
        with np.errstate(over="ignore"):
            prev = span(w, n, 0.0, 8.0)
            converged = False
            radius = 8.0
            for _ in range(18):
                radius *= 2.0
                cur = prev + span(w, n, radius / 2, radius)
                if not math.isfinite(cur):
                    break  # overflowed: certainly not convergent
                if abs(cur - prev) < 1e-6 * abs(cur):
                    converged = True
                    break
                prev = cur
        assert converged is lifts, f"{profile} in n={n}"


def test_phi_mass_values():
    # psi = r: int_{R^2} e^{-r^2/2} dx = 2 pi
    assert classify(Linear(), 2).phi_mass == pytest.approx(2 * math.pi, rel=1e-12)
    # A=3, beta=-1, r0=1: ramp numerics + exact far field, cross-checked by quadrature
    p = PowerLaw(3.0, -1.0, 1.0)
    w = WeightFunction(p)
    far, _ = quad(lambda r: w.phi(r) * 2 * math.pi * r, 0.0, 60.0, points=[1.0], limit=300)
    tail = 2 * math.pi * w.phi(60.0) * 60.0**2 / (3.0 - 2.0)  # = omega K R^{n-A}/(A-n)
    assert classify(p, 2).phi_mass == pytest.approx(far + tail, rel=1e-6)


def test_phi_mass_past_the_range_of_the_gamma_function():
    # psi = r^-0.99 beyond r0 = 1 in n = 2: s = n / (beta + 1) = 200, so Gamma(200) and
    # c^-s = 100^-200 leave the double range while the weight mass does not; the reference
    # is scipy's gammaln and gammaincc for the far field plus the ramp segment
    result = classify(PowerLaw(1.0, -0.99, 1.0), 2)
    assert result.verdict is Verdict.LIFT_OFF
    assert result.phi_mass == pytest.approx(4.0396102184774825e18, rel=1e-13)
    # s = 40 stays on the direct product
    assert classify(PowerLaw(1.0, -0.95, 1.0), 2).phi_mass == 68600.98299720121
    # beta = -0.999: c r0^g = 1000 also puts K = phi(r0) e^{c r0^g} past the double range;
    # the logarithms summed are ~1e4, so each rounds by ~2e-12 (same reference)
    result = classify(PowerLaw(1.0, -0.999, 1.0), 2)
    assert result.verdict is Verdict.LIFT_OFF
    assert result.phi_mass == pytest.approx(1.244901768990049e170, rel=1e-11)


@pytest.mark.parametrize("profile, far", [
    # phi(r0) r0^n / (A - n) and phi(r0) r0^n log(r0) / (alpha - 1) hold none of the factors
    # r0^A, log(r0)^alpha and phi(r0) that leave the double range in K
    (PowerLaw(400.0, -1.0, 10.0), lambda phi0, r0: phi0 * r0**2 / (400.0 - 2.0)),
    (PowerLaw(400.0, -1.0, 0.1), lambda phi0, r0: phi0 * r0**2 / (400.0 - 2.0)),
    (LogCorrected(n_dim=2, alpha=300.0, r0=1e10),
     lambda phi0, r0: phi0 * r0**2 * math.log(r0) / (300.0 - 1.0)),
], ids=["power-K-overflows", "power-K-underflows", "log-K-overflows"])
def test_tail_constant_past_the_double_range_keeps_the_weight_mass(profile, far):
    tail = profile.tail()
    assert tail.K in (0.0, math.inf) and math.isfinite(tail.log_K)
    w, r0, area = WeightFunction(profile), profile.r0, unit_sphere_area(2)
    assert phi_tail_bound(w, 2, r0) == pytest.approx(area * far(w.phi(r0), r0), rel=1e-12)
    result = classify(profile, 2)
    assert result.verdict.lifts_off and math.isfinite(result.phi_mass)
    near = weights._numeric_segment(w, 2, 0.0, r0)
    assert result.phi_mass == pytest.approx(area * (near + far(w.phi(r0), r0)), rel=1e-12)


def test_log_tail_constant_past_the_double_range_keeps_the_verdict():
    # phi(r0) = e^3073 overflows; alpha = -300 <= 1 still diverges: a critical decay
    result = classify(LogCorrected(n_dim=2, alpha=-300.0, r0=1.05), 2)
    assert result.verdict is Verdict.CRITICAL_DECAY and result.phi_mass == math.inf
    # r0^2 overflows K; the convergent mass itself is past the double range
    result = classify(LogCorrected(n_dim=2, alpha=1.5, r0=1e300), 2)
    assert result.verdict is Verdict.CRITICAL_LIFT_OFF and result.phi_mass == math.inf
    assert result.note.endswith("; weight mass exceeds the double range")


@pytest.mark.parametrize("profile", [PowerLaw(1.0, 300.0, 10.0), PowerLaw(1e-10, 308.0, 10.0),
                                     PowerLaw(1e300, -1.0, 1.0), PowerLaw(1e303, -0.999999, 1.0)],
                         ids=["b300", "b308", "A1e300", "A1e303"])
def test_a_lift_off_whose_weight_mass_underflows_is_undetermined(profile):
    # Psi grows like 1e296 r^4 (1e300 r^3 for A = 1e300, 1e303 r^3 for A = 1e303) on the
    # ramp: phi vanishes in doubles beyond r ~ 1e-73 (1e-100, 1e-101), inside the first
    # quadrature panel, in every dimension (in n = 1 that panel alone would count phi(0) h/2)
    for n in (1, 2, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = classify(profile, n)
        assert result.verdict is Verdict.UNDETERMINED and result.phi_mass is None
        assert result.note.endswith("but the weight mass reads 0 (phi falls to 0 within the first "
                                    "quadrature panel, or the mass underflows): no plateau "
                                    "level to predict")


@pytest.mark.parametrize("A", [5e12, 5e13, 7e14, 1e16])
def test_a_weight_that_falls_within_its_first_panels_is_resolved(A):
    # Psi = A (s^3 - s^4/2) on the ramp: phi falls to 1/e by r ~ A^(-1/3), inside one 1e-4
    # panel, and the n = 1 mass is 2 Gamma(4/3) A^(-1/3) to leading order.  Panels of
    # 1e-4 alone read 1e-4 for A = 5e13 and 7e14, 3% low at A = 5e12, and phi = 0 at every
    # node past 0 at A = 1e16
    w, scale = WeightFunction(PowerLaw(A, -1.0, 1.0)), A ** (-1 / 3)
    mass = classify(PowerLaw(A, -1.0, 1.0), 1).phi_mass
    assert mass == pytest.approx(2 * math.gamma(4 / 3) * scale, rel=1e-5)
    assert mass == pytest.approx(2 * quad(w.phi, 0.0, 20 * scale)[0], rel=1e-6)


def test_gamma_tail_whose_constant_overflows_is_free_of_nan():
    # c = A/(beta+1) = 1e309 and c r0^g leave the double range; log c is log A - log g
    tail = PowerLaw(1e303, -0.999999, 1.0).tail()
    assert not any(math.isnan(v) for v in (tail.K, tail.p, tail.q, tail.log_K, tail.log_p))
    assert tail.log_p == pytest.approx(math.log(1e303) - math.log(1e-6), rel=1e-9)
    assert tail.exponent(1.0) == math.inf
    assert phi_tail_bound(WeightFunction(PowerLaw(1e303, -0.999999, 1.0)), 2, 1.0) == 0.0


@pytest.mark.parametrize("profile, n, beyond", [(PowerLaw(1.0, 300.0, 10.0), 1, 40.0),
                                                (PowerLaw(2.0, 1.0, 1.0), 3, 1e160),
                                                (Linear(), 2, 1e160)])
def test_gamma_tail_exponent_past_the_double_range_reads_a_zero_mass(profile, n, beyond):
    # c r^g = 40^301 / 301, r^2 and r^2 / 2 at r = 1e160 are no doubles: phi reads 0 there
    assert profile.tail().exponent(beyond) == math.inf
    assert phi_tail_bound(WeightFunction(profile), n, beyond) == 0.0


def test_gamma_tail_below_the_least_double_matches_mpmath():
    # c = A/(beta+1) = 2.2e-324 underflows; the tail carries log c, so the mass keeps
    # every digit (with c rounded to the least double it would be 2.49e294).  Reference: 2 pi e^c
    # Gamma(s, c) / (g c^s) over r >= r0 = 1 in 40 digits; the ramp's share, at most
    # 2 pi int_0^1 r dr = pi, is below the mass's last digit
    with mpmath.workdps(40):
        g = mpmath.mpf(1.2) + 1
        c, s = mpmath.mpf(5e-324) / g, 2 / g
        ref = float(2 * mpmath.pi * mpmath.exp(c) * mpmath.gammainc(s, c) / (g * c**s))
    assert ref == pytest.approx(5.1012e294, rel=1e-5)
    assert classify(PowerLaw(5e-324, 1.2), 2).phi_mass == pytest.approx(ref, rel=1e-13)


def test_upper_gamma_matches_scipy():
    from scipy.special import gamma, gammaincc

    s = np.concatenate([np.linspace(0.05, 20.0, 80), [0.5, 1.0, 1.5, 2.5, 3.0]])
    x = np.concatenate([np.linspace(0.0, 60.0, 241), [0.7, 1.05, 100.0, 200.0, 500.0, 700.0]])
    S, X = np.meshgrid(s, x)
    ref = gamma(S) * gammaincc(S, X)
    got = np.vectorize(upper_gamma)(S, X)
    meaningful = ref >= 1e-290
    assert meaningful.sum() > 0.9 * ref.size
    rel = np.abs(got[meaningful] - ref[meaningful]) / ref[meaningful]
    assert rel.max() <= 1e-13


def test_upper_gamma_of_nonpositive_order_matches_mpmath():
    # the log tail reads Gamma(1 - alpha, x) with 1 - alpha <= 0 for alpha >= 1
    for s in (-4.0, -2.5, -1.0, -0.5, 0.0):
        for x in np.geomspace(0.05, 60.0, 40):
            ref = float(mpmath.gammainc(s, x))
            assert abs(upper_gamma(s, x) - ref) <= 1e-12 * ref


def test_upper_gamma_at_zero_is_the_complete_gamma():
    for s in (0.05, 0.5, 1.0, 2.5, 7.0, 20.0):
        assert upper_gamma(s, 0.0) == math.gamma(s)
    assert upper_gamma(1.0, 3.0) == pytest.approx(math.exp(-3.0), rel=1e-15)
    # Gamma(200) is beyond the double range
    assert upper_gamma(200.0, 100.0) == math.inf


@pytest.mark.parametrize("p, n", [(2, 1), (3, 2), (3, 1)])
def test_log_tail_off_its_own_dimension_matches_mpmath(p, n):
    # phi = phi(r0) (r/r0)^-p (log r / log r0)^-alpha beyond r0, integrated in n < p;
    # the reference integrates that expression, not the library's closed form
    area = unit_sphere_area(n)
    for alpha in (-6.0, -1.0, 0.5, 1.0, 2.0):
        for r0 in (1.5, math.e):
            profile = LogCorrected(n_dim=p, alpha=alpha, r0=r0)
            w = WeightFunction(profile)
            phi0, log_r0 = mpmath.exp(-profile.psi_integral(r0)), mpmath.log(r0)

            def far(a):
                def f(r):
                    return phi0 * (r / r0) ** -p * (mpmath.log(r) / log_r0) ** -alpha * r ** (n - 1)
                with mpmath.workdps(25):
                    return area * float(mpmath.quad(f, [a, 10 * a, 1e3 * a, mpmath.inf]))

            for beyond in (r0, 4.0, 40.0):
                assert phi_tail_bound(w, n, beyond) == pytest.approx(far(beyond), rel=1e-12)
            # the mass is the near-field quadrature up to r0 plus the far field
            near = area * weights._numeric_segment(w, n, 0.0, r0)
            assert classify(profile, n).phi_mass == pytest.approx(near + far(r0), rel=1e-12)


def test_log_tail_mass_in_a_lower_dimension_is_pinned():
    # mpmath.quad over the same weight gives 438364719.97; the trapezoid radius doubling
    # to r = 65536 that this closed form replaced gave 405497567.03
    result = classify(LogCorrected(n_dim=2, alpha=-6.0, r0=1.5), 1)
    assert result.verdict is Verdict.LIFT_OFF
    assert result.phi_mass == pytest.approx(438364719.9676742, rel=1e-14)
    assert result.note == "averaged growth 2 exceeds dimension 1"


def test_far_field_to_infinity_is_closed_form_or_diverges():
    for profile in (PowerLaw(3.0, -1.0, 1.0), PowerLaw(0.0, 1.0, 1.0), PowerLaw(1.0, 0.5, 1.0),
                    LogCorrected(n_dim=2, alpha=2.0), Linear(), Zero()):
        assert profile.tail().kind in ("power", "gamma", "log")
    tail = LogCorrected(n_dim=2, alpha=2.0).tail()
    with pytest.raises(ValueError, match="diverges"):
        weights._far_integral(tail, 3, 4.0)
    assert weights._far_integral(tail, 1, 4.0) > 0


def test_phi_tail_bound_matches_direct_integral():
    w = WeightFunction(PowerLaw(3.0, -1.0, 1.0))
    tail = phi_tail_bound(w, 2, 40.0)
    # phi = e^{-1.5} r^{-3} beyond r0=1: 2 pi int_40^inf r^{-2} dr = 2 pi e^{-1.5} / 40
    assert tail == pytest.approx(2 * math.pi * math.exp(-1.5) / 40.0, rel=1e-12)
    # no analytic tail for tabulated data
    assert phi_tail_bound(WeightFunction(Tabulated([0, 1], [0, 1])), 2, 1.0) is None


@pytest.mark.parametrize("beyond", [-1.0, -1e-300, math.nan])
def test_phi_tail_bound_refuses_a_negative_or_nan_radius(beyond):
    # a bad radius is an error, not a divergent integral (None) or a NaN mass
    with pytest.raises(ValueError, match="negative or NaN radius"):
        phi_tail_bound(WeightFunction(PowerLaw(3.0, -1.0, 1.0)), 2, beyond)
    with pytest.raises(ValueError, match="negative or NaN radius"):
        phi_tail_bound(WeightFunction(Tabulated([0, 1], [0, 1])), 2, beyond)


# --- lift-off level ---------------------------------------------------------


def test_predicted_level_constant_field():
    g = RadialGrid(20.0, 501, 2)
    c = RadialField(g, np.full(g.num_nodes, 3.7))
    w = WeightFunction(Linear())
    assert predict_liftoff_level(c, w, 2) == pytest.approx(3.7, rel=1e-12)


def test_predicted_level_zero_field():
    g = RadialGrid(20.0, 501, 2)
    zero = RadialField(g, np.zeros(g.num_nodes))
    assert predict_liftoff_level(zero, WeightFunction(Linear()), 2) == 0.0


@pytest.mark.parametrize("sigma,n", [(1.0, 2), (2.0, 2), (1.0, 3)])
def test_predicted_level_matches_gaussian_closed_form(sigma, n):
    # h = (sigma / (sigma + 1/2))^{n/2}, independently the long-time oracle limit
    g = RadialGrid(24.0, 2401, n)
    u0 = GaussianData(sigma, n).field(g)
    h = predict_liftoff_level(u0, WeightFunction(Linear()), n)
    assert h == pytest.approx((sigma / (sigma + 0.5)) ** (n / 2), rel=1e-4)


def test_predicted_level_requires_finite_weight_mass():
    g = RadialGrid(20.0, 501, 2)
    u0 = GaussianData(1.0, 2).field(g)
    with pytest.raises(ValueError):
        predict_liftoff_level(u0, WeightFunction(PowerLaw(1.0, -1.0, 1.0)), 2)


# --- diagnostics ------------------------------------------------------------


def test_diagnostics_single_snapshot():
    g = RadialGrid(10.0, 101, 2)
    u0 = GaussianData(1.0, 2).field(g)
    traj = solve(u0, Zero(), SolverConfig(dt=0.1), 0.0)
    series = diagnostics(traj, WeightFunction(Zero()), 8.0)
    assert len(series) == 1
    assert series.sup[0] == pytest.approx(1.0)
    assert series.center[0] == pytest.approx(1.0)
    assert series.radius == 8.0


def test_diagnostics_weighted_mass_drift_supercritical():
    # short supercritical run: the conserved functional drifts only at O(h^2)
    p = PowerLaw(3.0, -1.0, 1.0)
    g = RadialGrid(20.0, 1001, 2)
    u0 = GaussianData(1.0, 2).field(g)
    cfg = SolverConfig(dt=2e-3, theta=0.5, snapshot_stride=100)
    traj = solve(u0, p, cfg, 2.0)
    series = diagnostics(traj, WeightFunction(p), 16.0)
    drift = np.max(np.abs(series.weighted_mass - series.weighted_mass[0]))
    assert drift / series.weighted_mass[0] < 1e-3


def test_diagnostics_weighted_mass_monotone_subcritical():
    p = PowerLaw(1.0, -1.0, 1.0)
    g = RadialGrid(40.0, 1001, 2)
    u0 = GaussianData(1.0, 2).field(g)
    cfg = SolverConfig(dt=2e-3, theta=1.0, advection="upwind", snapshot_stride=200)
    traj = solve(u0, p, cfg, 4.0)
    series = diagnostics(traj, WeightFunction(p, positive_part=True), 32.0)
    iw = series.weighted_mass
    assert np.all(iw[1:] <= iw[:-1] * (1 + 1e-6))


def test_weighted_mass_drift_is_discretization_error():
    # with the far boundary quiescent the conserved functional's drift is pure
    # scheme error: halving h and dt must shrink it at second order
    p = PowerLaw(3.0, -1.0, 1.0)
    g = GaussianData(1.0, 2)
    w = WeightFunction(p)
    drifts = []
    for nodes, dt in [(401, 4e-3), (801, 2e-3)]:
        grid = RadialGrid(16.0, nodes, 2)
        cfg = SolverConfig(dt=dt, theta=0.5, snapshot_stride=100)
        traj = solve(g.field(grid), p, cfg, 2.0)
        series = diagnostics(traj, w, grid.r_max)
        iw = series.weighted_mass
        drifts.append(float(np.max(np.abs(iw - iw[0])) / iw[0]))
    assert drifts[0] < 1e-3
    assert drifts[0] / drifts[1] > 3.0


def test_diagnostics_rows_are_the_weighted_mass_of_each_frame():
    p = PowerLaw(3.0, -1.0, 1.0)
    g = RadialGrid(20.0, 401, 2)
    cfg = SolverConfig(dt=1e-2, theta=0.5, snapshot_stride=20)
    traj = solve(GaussianData(1.0, 2).field(g), p, cfg, 1.0)
    w = WeightFunction(p)
    series = diagnostics(traj, w, 15.52)  # the radius falls between nodes
    assert len(series) == len(traj) == 6
    for k, row in enumerate(traj.values):
        field = RadialField(g, row)
        assert series.weighted_mass[k] == pytest.approx(weighted_mass(field, w, 15.52), rel=1e-14)
        assert series.mass[k] == pytest.approx(
            weighted_mass(field, WeightFunction(Zero()), 15.52), rel=1e-14)
        assert series.sup[k] == np.max(row) and series.center[k] == row[0]
    assert np.array_equal(series.times, traj.times)


def test_diagnostics_radius_validation():
    g = RadialGrid(10.0, 101, 2)
    u0 = GaussianData(1.0, 2).field(g)
    traj = solve(u0, Zero(), SolverConfig(dt=0.1), 0.0)
    with pytest.raises(ValueError):
        diagnostics(traj, WeightFunction(Zero()), 12.0)


# --- property test: weight positivity under random power laws ---------------


@settings(max_examples=40, deadline=None)
@given(amplitude=st.floats(-4, 4), exponent=st.floats(-2.5, 1.5), r=st.floats(0, 30))
def test_phi_positive_and_normalized(amplitude, exponent, r):
    w = WeightFunction(PowerLaw(amplitude, exponent, 1.0))
    assert w.phi(0.0) == 1.0
    val = w.phi(r)
    assert val >= 0.0
    if w.cumulative(r) < 700.0:  # beyond that exp(-Psi) underflows to 0 in doubles
        assert val > 0.0

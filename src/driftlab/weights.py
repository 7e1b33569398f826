"""Exponential drift weights, weighted-mass functionals, and the growth classifier.

The weight phi(r) = exp(-int_0^r psi) solves phi' + phi*psi = 0 and turns the
drift equation into divergence form: with the full-psi weight the weighted
mass int phi(|x|) u dx over the truncated ball is conserved up to boundary
flux; with the positive-part weight (psi replaced by max(psi, 0)) it is
non-increasing whenever u is radially non-increasing.

Whether a drifting solution settles on a positive constant or decays to zero
is decided by the averaged growth  L = lim (1/log r) int_0^r psi  against the
ambient dimension n:  L > n forces a positive plateau (the weight has finite
mass and fixes the level), L < n (computed with psi_+) forces uniform decay,
and L = n is resolved by integrability of phi(r) r^{n-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grid import RadialField, RadialGrid, quadrature_weights, unit_sphere_area
from .profiles import DriftProfile, Linear, LogCorrected, PowerLaw, Tabulated, Zero
from .solver import Trajectory

_CRITICAL_BAND = 1e-9
# trapezoid panels per unit radius where the weight has no closed-form integral
PANELS_PER_UNIT = 10_000.0


class _NoClosedForm(Exception):
    pass


class WeightFunction:
    """phi(r) = exp(-Psi(r)) with Psi(r) = int_0^r psi (or psi_+) drho.

    Closed forms are used for the analytic families (including their ramps);
    the remaining case (positive part of a sign-changing profile) falls back
    to a cached composite-trapezoid cumulative integral at PANELS_PER_UNIT
    resolution.
    """

    def __init__(self, profile: DriftProfile, positive_part: bool = False):
        self.profile = profile
        self.positive_part = bool(positive_part)
        self._pos_tab = None
        if self.positive_part and isinstance(profile, Tabulated) and not profile.nonnegative:
            self._pos_tab = profile.positive_part()
        self._cum_r = None
        self._cum_vals = None

    def cumulative(self, r):
        """Psi(r), vectorized; exact/closed-form wherever the family admits it."""
        if not self.positive_part or self.profile.nonnegative:
            return self.profile.psi_integral(r)
        if self.profile.nonpositive:
            out = np.zeros_like(np.asarray(r, dtype=float))
            return out if np.ndim(r) else 0.0
        if self._pos_tab is not None:
            return self._pos_tab.psi_integral(r)
        return self._numeric_cumulative(r)

    def phi(self, r):
        # np.exp rather than math.exp: a weight that grows past double range
        # should saturate to inf, not raise
        with np.errstate(over="ignore"):
            out = np.exp(-np.asarray(self.cumulative(r), dtype=float))
        return out if np.ndim(r) else float(out)

    def _numeric_cumulative(self, r):
        rr = np.asarray(r, dtype=float)
        r_need = float(np.max(rr)) if rr.size else 0.0
        if self._cum_r is None or r_need > self._cum_r[-1]:
            cap = 64.0
            while cap < r_need:
                cap *= 2.0
            npts = int(min(cap * PANELS_PER_UNIT, 4e6)) + 1
            grid = np.linspace(0.0, cap, npts)
            g = np.maximum(np.asarray(self.profile.psi(grid), dtype=float), 0.0)
            seg = 0.5 * (g[1:] + g[:-1]) * np.diff(grid)
            self._cum_r = grid
            self._cum_vals = np.concatenate(([0.0], np.cumsum(seg)))
        out = np.interp(rr, self._cum_r, self._cum_vals)
        return out if np.ndim(r) else float(out)


def mass_weights(w: WeightFunction, grid: RadialGrid, radius: float) -> np.ndarray:
    """phi * q for the quadrature weights q of grid.quadrature_weights.

    The weighted mass of a field is its dot product with this vector.  Nodes
    past the radius get weight 0, also where phi overflows to inf there; inside
    the radius an overflowing weight saturates to inf, as phi does.
    """
    q = quadrature_weights(grid, radius)
    with np.errstate(over="ignore"):
        return np.multiply(w.phi(grid.nodes), q, out=np.zeros_like(q), where=q > 0)


def weighted_mass(u: RadialField, w: WeightFunction, radius: float) -> float:
    """int_{|x|<=radius} phi(|x|) u(x) dx by trapezoid on the solver grid.

    The plain mass is the weighted mass under the unit weight WeightFunction(Zero()).
    """
    return float(u.values @ mass_weights(w, u.grid, radius))


# ---------------------------------------------------------------------------
# radial integrals of the weight


def _family(w: WeightFunction):
    """Far-field form of phi beyond the ramp knot, for closed-form integrals.

    Returns one of
        ("const", knot, K)               phi = K
        ("power", knot, K, A)            phi = K r^-A
        ("gamma", knot, K, c, g, log K)  phi = K exp(-c r^g), c > 0, g > 0
        ("log",   knot, K, m, a)         phi = K r^-m (log r)^-a
    or None when no closed form applies.
    """
    p = w.profile
    if w.positive_part and not p.nonnegative:
        if p.nonpositive:
            return ("const", 0.0, 1.0)
        return None
    if isinstance(p, Zero):
        return ("const", 0.0, 1.0)
    if isinstance(p, Linear):
        return ("gamma", 0.0, 1.0, 0.5, 2.0, 0.0)
    if isinstance(p, PowerLaw):
        knot = p.r0
        phi0 = math.exp(-p.psi_integral(knot))
        A, b = p.amplitude, p.exponent
        if A == 0.0:
            return ("const", knot, phi0)
        if b == -1.0:
            return ("power", knot, phi0 * knot**A, A)
        g = b + 1.0
        c = A / g
        if c > 0 and g > 0:
            # K = inf where e^{c r0^g} leaves the double range; log K stays finite
            try:
                K = phi0 * math.exp(c * knot**g)
            except OverflowError:
                K = math.inf
            return ("gamma", knot, K, c, g, c * knot**g - p.psi_integral(knot))
        return None
    if isinstance(p, LogCorrected):
        knot = p.r0
        phi0 = math.exp(-p.psi_integral(knot))
        K = phi0 * knot**p.n_dim * math.log(knot) ** p.alpha
        return ("log", knot, K, float(p.n_dim), p.alpha)
    return None


def upper_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma function Gamma(s, x) = int_x^inf t^{s-1} e^{-t} dt, s > 0, x >= 0.

    Below x = max(s, 1) it is Gamma(s) minus the series of the lower function,
        gamma(s, x) = x^s e^{-x} sum_k x^k / (s (s+1) ... (s+k));
    from there on the continued fraction
        Gamma(s, x) = x^s e^{-x} / (x+1-s - 1(1-s)/(x+3-s - 2(2-s)/(x+5-s - ...)))
    is evaluated by the modified Lentz method.  The split keeps the
    subtraction away from x > s, where Gamma(s, x) << Gamma(s).  Returns inf
    where Gamma(s) or x^s e^{-x} exceeds the double range.
    """
    try:
        if x == 0.0:
            return math.gamma(s)
        # x^s e^{-x} as two rounded factors; the logarithmic form, kept for where a
        # factor leaves the double range, loses about |s log x - x| ulps
        s_log_x = s * math.log(x)
        if max(abs(s_log_x), x) < 700.0:
            scale = x**s * math.exp(-x)
        else:
            scale = math.exp(s_log_x - x)
        series, t = _gamma_terms(s, x)
        return math.gamma(s) - scale * t if series else scale * t
    except OverflowError:
        return math.inf


def _log_upper_gamma(s: float, x: float) -> float:
    """log Gamma(s, x) = lgamma(s) + log Q(s, x) from upper_gamma's terms, finite past Gamma(s)."""
    if x == 0.0:
        return math.lgamma(s)
    log_scale = s * math.log(x) - x
    series, t = _gamma_terms(s, x)
    if series:  # Q = 1 - x^s e^{-x} t / Gamma(s)
        return math.lgamma(s) + math.log1p(-math.exp(log_scale - math.lgamma(s)) * t)
    return log_scale + math.log(t)


def _gamma_terms(s: float, x: float) -> tuple[bool, float]:
    """(True, series t) below x = max(s, 1), where Gamma(s, x) = Gamma(s) - x^s e^{-x} t,
    else (False, continued fraction t), where Gamma(s, x) = x^s e^{-x} t; x > 0."""
    eps, tiny = 2.0**-53, 1e-300
    if x < 1.0 or x < s:
        a, term, total = s, 1.0 / s, 1.0 / s
        while term > eps * total:
            a += 1.0
            term *= x / a
            total += term
        return True, total
    b = x + 1.0 - s
    c, d = 1.0 / tiny, 1.0 / b
    h, k, delta = d, 0, 0.0
    while abs(delta - 1.0) > eps:
        k += 1
        an = -k * (k - s)
        b += 2.0
        d = an * d + b
        c = b + an / c
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = c if abs(c) > tiny else tiny
        delta = c * d
        h *= delta
    return False, h


def _far_integral(fam, n_dim: int, a: float, b: float) -> float:
    """int_a^b phi r^{n-1} dr for the far-field family; b may be math.inf.

    Raises ValueError when the integral diverges and _NoClosedForm when the
    family has no elementary antiderivative for this dimension.
    """
    n = float(n_dim)
    kind, _, K = fam[0], fam[1], fam[2]
    if kind == "const":
        if math.isinf(b):
            raise ValueError("weight mass integral diverges")
        return K * (b**n - a**n) / n
    if kind == "power":
        A = fam[3]
        e = n - A
        if abs(e) < 1e-300:
            if math.isinf(b):
                raise ValueError("weight mass integral diverges")
            return K * math.log(b / a)
        if math.isinf(b):
            if e > 0:
                raise ValueError("weight mass integral diverges")
            return -K * a**e / e
        return K * (b**e - a**e) / e
    if kind == "gamma":
        c, g = fam[3], fam[4]
        s = n / g
        hi = 0.0 if math.isinf(b) else upper_gamma(s, c * b**g)
        lo = upper_gamma(s, c * a**g)
        out = K / g * c**(-s) * (lo - hi)
        if math.isfinite(out):
            return out
        # K, Gamma(s) or c^-s leaves the double range (s beyond ~171): each term in logarithms
        log_k = fam[5] - math.log(g) - s * math.log(c)
        try:
            hi = 0.0 if math.isinf(b) else math.exp(log_k + _log_upper_gamma(s, c * b**g))
            return math.exp(log_k + _log_upper_gamma(s, c * a**g)) - hi
        except OverflowError:
            return math.inf
    if kind == "log":
        m, alpha = fam[3], fam[4]
        if abs(n - m) > 1e-12:
            raise _NoClosedForm
        la = math.log(a)
        if alpha == 1.0:
            if math.isinf(b):
                raise ValueError("weight mass integral diverges")
            return K * (math.log(math.log(b)) - math.log(la))
        e = 1.0 - alpha
        if math.isinf(b):
            if e > 0:
                raise ValueError("weight mass integral diverges")
            return -K * la**e / e
        return K * (math.log(b) ** e - la**e) / e
    raise AssertionError(f"unknown family {kind}")


def _numeric_segment(w: WeightFunction, n_dim: int, a: float, b: float) -> float:
    if math.isinf(b):
        raise ValueError("cannot integrate the weight to infinity without a closed form")
    if b <= a:
        return 0.0
    npts = int(min(max(32, math.ceil((b - a) * PANELS_PER_UNIT)), 4_000_000)) + 1
    r = np.linspace(a, b, npts)
    with np.errstate(over="ignore"):
        f = np.asarray(w.phi(r)) * r ** (n_dim - 1)
        return float(np.trapezoid(f, r))


def phi_radial_integral(w: WeightFunction, n_dim: int, upper: float, lower: float = 0.0) -> float:
    """int_lower^upper phi(r) r^{n-1} dr (no unit-sphere factor).

    upper may be math.inf when the family admits a convergent closed form;
    otherwise a ValueError reports divergence or the missing closed form.
    """
    if lower < 0 or (not math.isinf(upper) and upper < lower):
        raise ValueError(f"bad integration bounds [{lower}, {upper}]")
    fam = _family(w)
    if fam is None:
        return _numeric_segment(w, n_dim, lower, upper)
    knot = fam[1]
    total = 0.0
    if lower < knot:
        total += _numeric_segment(w, n_dim, lower, min(upper, knot))
    if upper > knot:
        a = max(lower, knot)
        try:
            total += _far_integral(fam, n_dim, a, upper)
        except _NoClosedForm:
            total += _numeric_segment(w, n_dim, a, upper)
    return total


def phi_tail_bound(w: WeightFunction, n_dim: int, beyond: float) -> float | None:
    """Exact remainder of the weight mass past ``beyond``, or None if unknown."""
    try:
        return unit_sphere_area(n_dim) * phi_radial_integral(w, n_dim, math.inf, lower=beyond)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# classifier


class Verdict(Enum):
    LIFT_OFF = "lift_off"
    DECAY = "decay"
    CRITICAL_LIFT_OFF = "critical_lift_off"
    CRITICAL_DECAY = "critical_decay"
    UNDETERMINED = "undetermined"

    @property
    def lifts_off(self) -> bool:
        return self in (Verdict.LIFT_OFF, Verdict.CRITICAL_LIFT_OFF)

    @property
    def decays(self) -> bool:
        return self in (Verdict.DECAY, Verdict.CRITICAL_DECAY)


@dataclass(frozen=True)
class ClassificationResult:
    """Asymptotic verdict with its growth limit and integrability certificate.

    growth_limit is the averaged growth L (may be +-inf); it is None for
    tabulated profiles, which instead carry numeric (liminf, limsup) bounds
    over the sampled range.  phi_mass is int_{R^n} phi(|x|) dx, math.inf when
    divergent, None when undetermined.
    """

    verdict: Verdict
    growth_limit: float | None
    phi_mass: float | None
    note: str
    growth_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if self.verdict.lifts_off and not (
            self.phi_mass is not None and math.isfinite(self.phi_mass)
        ):
            raise ValueError("lift-off verdict requires a finite weight mass")


def _growth_limit(profile: DriftProfile, positive_part: bool) -> float:
    """lim (1/log r) int_0^r psi (psi_+ when positive_part), per family."""
    if isinstance(profile, Zero):
        return 0.0
    if isinstance(profile, Linear):
        return math.inf
    if isinstance(profile, PowerLaw):
        A, b = profile.amplitude, profile.exponent
        if positive_part and A <= 0:
            return 0.0
        if b > -1.0:
            return math.copysign(math.inf, A) if A != 0 else 0.0
        if b == -1.0:
            return A
        return 0.0
    if isinstance(profile, LogCorrected):
        return float(profile.n_dim)
    raise TypeError(f"no analytic growth limit for {type(profile).__name__}")


def _phi_mass_finite(w: WeightFunction, n_dim: int) -> tuple[float, str]:
    """Weight mass over R^n when it is known to converge."""
    area = unit_sphere_area(n_dim)
    try:
        return area * phi_radial_integral(w, n_dim, math.inf), ""
    except ValueError:
        total, r_hi = 0.0, 0.0
        for r_next in (2.0**k for k in range(4, 17)):
            total += phi_radial_integral(w, n_dim, r_next, lower=r_hi)
            r_hi = r_next
        return area * total, f"; mass integrated numerically up to r={r_hi:g}"


def classify(profile: DriftProfile, n_dim: int) -> ClassificationResult:
    """Lift-off / decay verdict for the drift profile in ambient dimension n_dim.

    Tabulated profiles get an explicit undetermined verdict with numeric
    growth bounds: finite samples cannot certify behavior at r -> infinity.
    """
    if n_dim < 1:
        raise ValueError(f"dimension must be >= 1, got {n_dim}")
    n = float(n_dim)

    if isinstance(profile, Tabulated):
        radii = np.array(profile.radii)
        mask = radii > max(1.5, 0.25 * radii[-1])
        bounds = None
        if np.any(mask):
            g = profile.psi_integral(radii[mask]) / np.log(radii[mask])
            bounds = (float(np.min(g)), float(np.max(g)))
        return ClassificationResult(
            Verdict.UNDETERMINED,
            growth_limit=None,
            phi_mass=None,
            note="tabulated profile: averaged growth undetermined at r->infinity; "
            f"sampled range ends at r={radii[-1]:g}",
            growth_bounds=bounds,
        )

    L = _growth_limit(profile, positive_part=False)
    L_plus = _growth_limit(profile, positive_part=True)
    w = WeightFunction(profile)

    if math.isfinite(L) and abs(L - n) <= _CRITICAL_BAND and abs(L_plus - n) <= _CRITICAL_BAND:
        # critical line: decided by integrability of phi(r) r^{n-1}, symbolically
        if isinstance(profile, LogCorrected):
            finite = profile.alpha > 1.0
            why = f"log-corrected alpha={profile.alpha:g} {'>' if finite else '<='} 1"
        elif isinstance(profile, PowerLaw):
            finite = profile.amplitude > n
            why = f"phi ~ r^-{profile.amplitude:g} against dimension {n_dim}"
        else:
            return ClassificationResult(
                Verdict.UNDETERMINED, L, None,
                note="critical growth with no symbolic integrability reduction",
            )
        if finite:
            mass, extra = _phi_mass_finite(w, n_dim)
            return ClassificationResult(
                Verdict.CRITICAL_LIFT_OFF, L, mass,
                note=f"critical growth L = n = {n:g}; weight mass finite ({why}){extra}",
            )
        return ClassificationResult(
            Verdict.CRITICAL_DECAY, L, math.inf,
            note=f"critical growth L = n = {n:g}; weight mass diverges ({why})",
        )

    if L > n:
        mass, extra = _phi_mass_finite(w, n_dim)
        return ClassificationResult(
            Verdict.LIFT_OFF, L, mass,
            note=f"averaged growth {L:g} exceeds dimension {n_dim}{extra}",
        )
    if L_plus < n:
        return ClassificationResult(
            Verdict.DECAY, L, math.inf,
            note=f"positive-part averaged growth {L_plus:g} below dimension {n_dim}",
        )
    return ClassificationResult(
        Verdict.UNDETERMINED, L, None,
        note=f"averaged growth straddles the dimension: liminf {L:g} <= {n:g} <= limsup {L_plus:g}",
    )


def predict_liftoff_level(u0: RadialField, w: WeightFunction, n_dim: int) -> float:
    """Plateau level h = (weighted mass of u0) / (weight mass), on the grid domain.

    Both integrals run over [0, r_max] with the same trapezoid rule, so a
    constant field predicts exactly its own value.  The neglected weight mass
    beyond r_max is available from phi_tail_bound.
    """
    grid = u0.grid
    if grid.n_dim != n_dim:
        raise ValueError(f"field lives in dimension {grid.n_dim}, not {n_dim}")
    result = classify(w.profile, n_dim)
    if not result.verdict.lifts_off:
        raise ValueError(
            f"lift-off level undefined: verdict is {result.verdict.value} "
            "(weight mass is not finite)"
        )
    ones = RadialField(grid, np.ones(grid.num_nodes))
    return weighted_mass(u0, w, grid.r_max) / weighted_mass(ones, w, grid.r_max)


# ---------------------------------------------------------------------------
# per-trajectory diagnostics


@dataclass(frozen=True)
class DiagnosticSeries:
    """Per-snapshot scalar diagnostics of a trajectory."""

    times: np.ndarray
    weighted_mass: np.ndarray
    sup: np.ndarray
    center: np.ndarray
    mass: np.ndarray
    radius: float

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("diagnostic times must be strictly increasing")
        for name in ("weighted_mass", "sup", "center", "mass"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite values in diagnostic series {name!r}")

    def __len__(self):
        return len(self.times)


def diagnostics(traj: Trajectory, w: WeightFunction, radius: float) -> DiagnosticSeries:
    """Weighted mass I_R, sup u, center value, and plain mass at every snapshot.

    Both masses are one matrix-vector product of the (frames x nodes) block.
    """
    values = traj.values
    return DiagnosticSeries(
        traj.times,
        values @ mass_weights(w, traj.grid, radius),
        values.max(axis=1),
        values[:, 0].copy(),
        values @ quadrature_weights(traj.grid, radius),
        radius,
    )

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
from .profiles import DriftProfile, Tail
from .solver import Trajectory

_CRITICAL_BAND = 1e-9
# trapezoid panels per unit radius where the weight has no closed-form integral
PANELS_PER_UNIT = 10_000.0


class WeightFunction:
    """phi(r) = exp(-Psi(r)) with Psi(r) = int_0^r psi (or psi_+) drho, in closed form."""

    def __init__(self, profile: DriftProfile, positive_part: bool = False):
        self.profile = profile
        self.positive_part = bool(positive_part)

    def cumulative(self, r):
        """Psi(r), vectorized."""
        if self.positive_part:
            return self.profile.psi_plus_integral(r)
        return self.profile.psi_integral(r)

    def phi(self, r):
        # np.exp rather than math.exp: a weight that grows past double range
        # should saturate to inf, not raise
        with np.errstate(over="ignore"):
            out = np.exp(-np.asarray(self.cumulative(r), dtype=float))
        return out if np.ndim(r) else float(out)

    def tail(self) -> Tail | None:
        """Closed form of phi beyond a knot, or None where there is none."""
        p = self.profile
        if self.positive_part and not p.nonnegative:
            return Tail("power", 0.0, 1.0) if p.nonpositive else None
        return p.tail()


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


def upper_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma function Gamma(s, x) = int_x^inf t^{s-1} e^{-t} dt, for
    s > 0 and x >= 0, or s <= 0 and x > 0.

    For s > 0 below x = max(s, 1) it is Gamma(s) minus the series of the lower function,
        gamma(s, x) = x^s e^{-x} sum_k x^k / (s (s+1) ... (s+k));
    from there on, and for every s <= 0, the continued fraction (DLMF 8.9.2)
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
    """(True, series t) for s > 0 below x = max(s, 1), where Gamma(s, x) = Gamma(s) - x^s e^{-x} t,
    else (False, continued fraction t), where Gamma(s, x) = x^s e^{-x} t; x > 0."""
    eps, tiny = 2.0**-53, 1e-300
    if s > 0.0 and (x < 1.0 or x < s):
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


def _monomial_integral(K: float, e: float, a: float, b: float) -> float:
    """K int_a^b x^{e-1} dx, b may be math.inf; ValueError where that diverges."""
    if abs(e) < 1e-300:
        if math.isinf(b):
            raise ValueError("weight mass integral diverges")
        return K * math.log(b / a)
    if math.isinf(b):
        if e > 0:
            raise ValueError("weight mass integral diverges")
        return -K * a**e / e
    return K * (b**e - a**e) / e


def _far_integral(tail: Tail, n_dim: int, a: float, b: float) -> float | None:
    """int_a^b phi r^{n-1} dr beyond the tail's knot; b may be math.inf.

    Raises ValueError when the integral diverges; None for a growing log tail
    (p < n) with finite b, the one case without a closed form.
    """
    n = float(n_dim)
    kind, K = tail.kind, tail.K
    if kind == "power":
        return _monomial_integral(K, n - tail.p, a, b)
    if kind == "gamma":
        c, g = tail.p, tail.q
        s = n / g
        hi = 0.0 if math.isinf(b) else upper_gamma(s, c * b**g)
        lo = upper_gamma(s, c * a**g)
        out = K / g * c**(-s) * (lo - hi) if -s * math.log(c) < 700.0 else math.inf
        if math.isfinite(out):
            return out
        # K, Gamma(s) or c^-s leaves the double range (s beyond ~171): each term in logarithms
        log_k = tail.log_K - math.log(g) - s * math.log(c)
        try:
            hi = 0.0 if math.isinf(b) else math.exp(log_k + _log_upper_gamma(s, c * b**g))
            return math.exp(log_k + _log_upper_gamma(s, c * a**g)) - hi
        except OverflowError:
            return math.inf
    if kind == "log":
        # t = c log r, c = p - n: K c^{alpha-1} int t^-alpha e^-t dt; at c = 0, K int t^-alpha dt
        alpha, c = tail.q, tail.p - n
        if c == 0.0:
            return _monomial_integral(K, 1.0 - alpha, math.log(a), math.log(b))
        if c < 0.0:
            if math.isinf(b):
                raise ValueError("weight mass integral diverges")
            return None
        hi = 0.0 if math.isinf(b) else upper_gamma(1.0 - alpha, c * math.log(b))
        return K * c ** (alpha - 1.0) * (upper_gamma(1.0 - alpha, c * math.log(a)) - hi)
    raise AssertionError(f"unknown tail {kind}")


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

    upper may be math.inf: every tail has a closed form there, and a
    ValueError reports divergence (or a weight with no tail at all).
    """
    if lower < 0 or (not math.isinf(upper) and upper < lower):
        raise ValueError(f"bad integration bounds [{lower}, {upper}]")
    tail = w.tail()
    knot = math.inf if tail is None else tail.knot
    total = 0.0
    if lower < knot:
        total += _numeric_segment(w, n_dim, lower, min(upper, knot))
    if upper > knot:
        a = max(lower, knot)
        far = _far_integral(tail, n_dim, a, upper)
        total += _numeric_segment(w, n_dim, a, upper) if far is None else far
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
    divergent or beyond the double range, None when undetermined.
    """

    verdict: Verdict
    growth_limit: float | None
    phi_mass: float | None
    note: str
    growth_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        # a convergent weight mass may still exceed the double range: inf, not NaN
        if self.verdict.lifts_off and not (self.phi_mass is not None and self.phi_mass > 0):
            raise ValueError("lift-off verdict requires a positive weight mass")


def classify(profile: DriftProfile, n_dim: int) -> ClassificationResult:
    """Lift-off / decay verdict for the drift profile in ambient dimension n_dim.

    Tabulated profiles get an explicit undetermined verdict with numeric
    growth bounds: finite samples cannot certify behavior at r -> infinity.
    """
    if n_dim < 1:
        raise ValueError(f"dimension must be >= 1, got {n_dim}")
    n = float(n_dim)

    L = profile.growth_limit
    if L is None:  # only a sampled profile leaves its growth open
        return ClassificationResult(
            Verdict.UNDETERMINED,
            growth_limit=None,
            phi_mass=None,
            note="tabulated profile: averaged growth undetermined at r->infinity; "
            f"sampled range ends at r={profile.radii[-1]:g}",
            growth_bounds=profile.growth_bounds,
        )

    L_plus = 0.0 if profile.nonpositive else L
    critical = (math.isfinite(L) and abs(L - n) <= _CRITICAL_BAND
                and abs(L_plus - n) <= _CRITICAL_BAND)
    if critical or L > n:
        tail = profile.tail()
        if critical and tail is None:
            return ClassificationResult(
                Verdict.UNDETERMINED, L, None,
                note="critical growth with no symbolic integrability reduction",
            )
        w = WeightFunction(profile)
        try:
            mass = unit_sphere_area(n_dim) * phi_radial_integral(w, n_dim, math.inf)
        except ValueError:  # the closed-form weight-mass integral diverges
            mass = None
        extra = "; weight mass exceeds the double range" if mass == math.inf else ""
        if not critical:
            return ClassificationResult(
                Verdict.LIFT_OFF, L, mass,
                note=f"averaged growth {L:g} exceeds dimension {n_dim}{extra}",
            )
        finite = mass is not None
        if tail.kind == "log":
            why = f"log-corrected alpha={tail.q:g} {'>' if finite else '<='} 1"
        else:
            why = f"phi ~ r^-{tail.p:g} against dimension {n_dim}"
        return ClassificationResult(
            Verdict.CRITICAL_LIFT_OFF if finite else Verdict.CRITICAL_DECAY, L,
            mass if finite else math.inf,
            note=f"critical growth L = n = {n:g}; weight mass "
            f"{'finite' if finite else 'diverges'} ({why}){extra}",
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

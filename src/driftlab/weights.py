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
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grid import RadialField, RadialGrid, quadrature_weights, unit_sphere_area
from .profiles import DriftProfile, Tail, in_double_range
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


def _monomial_integral(tail: Tail, e: float, a: float) -> float:
    """K int_a^inf x^{e-1} dx = K a^e / -e of the tail's K; ValueError where it diverges."""
    if e > -1e-300:
        raise ValueError("weight mass integral diverges")
    return in_double_range(lambda: -tail.K * a**e / e,
                           lambda: tail.log_K + (e * math.log(a) + math.log(1.0 / -e)))


def _far_integral(tail: Tail, n_dim: int, a: float) -> float:
    """int_a^inf phi r^{n-1} dr beyond the tail's knot; ValueError where it diverges.  A gamma
    or log tail integrates to scale Gamma(s, x), in logarithms from log_scale where a factor
    leaves the double range, and 0 where x does: phi reads 0 there."""
    n = float(n_dim)
    kind, K = tail.kind, tail.K
    if kind == "power":
        return _monomial_integral(tail, n - tail.p, a)
    if kind == "gamma":
        c, g = tail.p, tail.q
        s = n / g
        # where Gamma(s) or c^-s leaves the double range (s beyond ~171), or c underflows
        direct = c >= sys.float_info.min and -s * tail.log_p < 700.0
        scale = K / g * c**(-s) if direct else math.inf
        log_scale, x = tail.log_K - math.log(g) - s * tail.log_p, tail.exponent(a)
    elif kind == "log":
        # t = c log r, c = p - n: K c^{alpha-1} int t^-alpha e^-t dt; at c = 0, K int t^-alpha dt
        alpha, c = tail.q, tail.p - n
        if c == 0.0:
            return _monomial_integral(tail, 1.0 - alpha, math.log(a))
        if c < 0.0:
            raise ValueError("weight mass integral diverges")
        scale = in_double_range(lambda: K * c ** (alpha - 1.0))
        log_scale = tail.log_K + (alpha - 1.0) * math.log(c)
        s, x = 1.0 - alpha, c * math.log(a)
    else:
        raise AssertionError(f"unknown tail {kind}")
    if math.isinf(x):
        return 0.0
    return in_double_range(lambda: scale * upper_gamma(s, x),
                           lambda: log_scale + _log_upper_gamma(s, x))


def _numeric_segment(w: WeightFunction, n_dim: int, a: float, b: float) -> float:
    """int_a^b phi r^{n-1} dr, a < b finite, by trapezoid on panels of at most
    1/PANELS_PER_UNIT and, since phi'/phi = -psi, at most 1/(10 max|psi|), up to 4,000,000
    panels; 0 where phi falls to 0 within the first panel, which cannot resolve it."""
    panels = min(max(32, math.ceil((b - a) * PANELS_PER_UNIT)), 4_000_000)
    r = np.linspace(a, b, panels + 1)
    with np.errstate(over="ignore"):
        phi = np.asarray(w.phi(r))
        steep = min(10.0 * (b - a) * float(np.max(np.abs(w.profile.psi(r)))), 4_000_000)
        # skip the finer grid where phi reads 0 past a here and at its first node too
        if steep > panels and (phi[1:].any() or w.phi(a + (b - a) / math.ceil(steep)) > 0):
            r = np.linspace(a, b, math.ceil(steep) + 1)
            phi = np.asarray(w.phi(r))
        if not phi[1:].any():
            return 0.0
        return float(np.trapezoid(phi * r ** (n_dim - 1), r))


def phi_tail_bound(w: WeightFunction, n_dim: int, beyond: float) -> float | None:
    """The weight mass past ``beyond``, |S^{n-1}| int_beyond^inf phi r^{n-1} dr: trapezoid
    up to the tail's knot, closed form past it.  None where it diverges or the weight has
    no tail; the whole mass at beyond = 0."""
    if not beyond >= 0.0:
        raise ValueError(f"weight mass beyond a negative or NaN radius {beyond}")
    tail = w.tail()
    if tail is None:
        return None
    try:
        far = _far_integral(tail, n_dim, max(beyond, tail.knot))
    except ValueError:  # the closed-form far field diverges
        return None
    near = _numeric_segment(w, n_dim, beyond, tail.knot) if beyond < tail.knot else 0.0
    return unit_sphere_area(n_dim) * (near + far)


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

    def to_dict(self) -> dict:
        """The classification as the classify artifact and report.json write it."""
        return {"verdict": self.verdict.value, "growth_limit": self.growth_limit,
                "growth_bounds": self.growth_bounds, "phi_mass": self.phi_mass, "note": self.note}


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
        mass = phi_tail_bound(WeightFunction(profile), n_dim, 0.0)
        if mass == 0.0:  # phi sits nearer the origin than the quadrature or a double resolves
            return ClassificationResult(
                Verdict.UNDETERMINED, L, None,
                note=f"averaged growth {L:g} reaches dimension {n_dim}, but the weight mass "
                "reads 0 (phi falls to 0 within the first quadrature panel, or the mass "
                "underflows): no plateau level to predict",
            )
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

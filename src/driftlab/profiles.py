"""Radial drift-speed profiles.

Every profile describes the scalar speed psi(r) of an inward-pointing radial
velocity field b(x) = -(x/|x|) psi(|x|).  All variants satisfy psi(0) = 0 so
that b extends continuously to the origin.  The mollified families (power law
and log-corrected) follow their closed-form expression exactly for r >= r0 and
ramp to zero on [0, r0] with a monotone cubic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np


class ProfileRangeError(ValueError):
    """Raised when a tabulated profile is queried outside its sample range."""


def _as_array(r):
    rr = np.asarray(r, dtype=float)
    if np.any(rr < 0):
        raise ValueError("radius must be non-negative")
    return rr


def _scalar_or_array(out, r):
    return out if np.ndim(r) else float(out)


def in_double_range(direct, logarithm=None) -> float:
    """direct(), a closed form of doubles; where a factor leaves the double range (an
    OverflowError, or a value that is not finite), exp(logarithm()); inf where that
    overflows too or no logarithm is given."""
    try:
        out = direct()
    except OverflowError:
        out = math.inf
    if math.isfinite(out):
        return out
    try:
        return math.exp(logarithm()) if logarithm is not None else math.inf
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Tail:
    """phi = exp(-Psi) beyond the knot: "power" K r^-p (the constant K at p = 0),
    "gamma" K exp(-p r^q) with p, q > 0, or "log" K r^-p (log r)^-q.  log_K stays
    finite where K overflows, unless p r^q does at the knot; a gamma tail's log_p is
    log p, exact where p underflows or overflows."""

    kind: str
    knot: float
    K: float
    p: float = 0.0
    q: float = 0.0
    log_K: float = 0.0
    log_p: float = 0.0

    def exponent(self, r: float) -> float:
        """p r^q of a gamma tail, in logarithms where p is below the normal range or r^q
        beyond the double range; inf past it, where phi reads 0."""
        direct = self.p >= sys.float_info.min
        return in_double_range(lambda: self.p * r**self.q if direct else math.inf,
                               lambda: self.log_p + self.q * math.log(r))


class DriftProfile:
    """Base class; a variant states psi and Psi = int_0^r psi on arrays of radii (the hooks
    _psi and _psi_integral) and the far field that the classifier and the weight integrals
    read: the growth limit L and the Tail of phi."""

    # L = lim (1/log r) int_0^r psi, may be +-inf; None where samples cannot tell
    growth_limit: float | None = None
    # psi(r) >= 0, resp. psi(r) <= 0, guaranteed for all r
    nonnegative: bool = False
    nonpositive: bool = False

    def psi(self, r):
        """psi(r): a float for a scalar radius, an array for an array of radii."""
        return _scalar_or_array(self._psi(_as_array(r)), r)

    def psi_integral(self, r):
        """Cumulative integral int_0^r psi, in closed form."""
        return _scalar_or_array(self._psi_integral(_as_array(r)), r)

    def psi_plus_integral(self, r):
        """Cumulative integral int_0^r max(psi, 0), in closed form; a sign-changing
        family states it on arrays (the hook _psi_plus_integral)."""
        if self.nonnegative:
            return self.psi_integral(r)
        if self.nonpositive:
            return _scalar_or_array(np.zeros_like(_as_array(r)), r)
        return _scalar_or_array(self._psi_plus_integral(_as_array(r)), r)

    def tail(self) -> Tail | None:
        """Closed form of phi = exp(-Psi) beyond a knot, or None where there is none."""
        return None


@dataclass(frozen=True)
class _Mollified(DriftProfile):
    """A closed-form far field for r >= r0 and a monotone cubic ramp to 0 below r0.  A family
    states psi(r0) (_knot_value), the slope ratio r0 psi'(r0)/psi(r0) the ramp ends on
    (_slope_ratio(v), v = psi(r0) != 0), the far field _far(rf) and _far_integral(rf, Psi(r0))."""

    _ramp_v: float = field(init=False, repr=False, compare=False)
    _ramp_t: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = in_double_range(self._knot_value)
        if not math.isfinite(v * self.r0):  # Psi on the ramp is psi(r0) r0 times a quartic
            raise ValueError(f"psi(r0) r0 of {self!r} is not a finite double")
        # a monotone cubic ramp ends on a slope ratio in [0, 3]; a decreasing far field would
        # need a negative one, which no monotone ramp can match, so the ratio is limited
        t = min(max(self._slope_ratio(v), 0.0), 3.0) if v != 0.0 else 0.0
        object.__setattr__(self, "_ramp_v", v)
        object.__setattr__(self, "_ramp_t", t)

    def _ramp_integral(self, r):
        # of the ramp v s^2 ((3-t) + (t-2) s), s = r/r0: p(0)=p'(0)=0, p(r0)=v, p'(r0)=t*v/r0
        v, t, s = self._ramp_v, self._ramp_t, r / self.r0
        return v * self.r0 * (s**3 * (3.0 - t) / 3.0 + s**4 * (t - 2.0) / 4.0)

    def _psi(self, rr):
        out = np.empty_like(rr)
        far = rr >= self.r0
        out[far] = self._far(rr[far])
        s = rr[~far] / self.r0
        out[~far] = self._ramp_v * s * s * ((3.0 - self._ramp_t) + (self._ramp_t - 2.0) * s)
        return out

    def _psi_integral(self, rr):
        out = np.empty_like(rr)
        far = rr >= self.r0
        out[~far] = self._ramp_integral(rr[~far])
        out[far] = self._far_integral(rr[far], self._ramp_integral(self.r0))
        return out


@dataclass(frozen=True)
class PowerLaw(_Mollified):
    """psi(r) = amplitude * r**exponent for r >= r0, cubic ramp to 0 below r0."""

    amplitude: float
    exponent: float
    r0: float = 1.0

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValueError(f"mollification radius must be positive, got {self.r0}")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.exponent)):
            raise ValueError("amplitude and exponent must be finite")
        super().__post_init__()

    def _knot_value(self):
        return self.amplitude * self.r0**self.exponent

    def _slope_ratio(self, v):
        return self.exponent

    def _far(self, rf):
        return self.amplitude * rf ** self.exponent

    def _far_integral(self, rf, base):
        if self.exponent == -1.0:
            return base + self.amplitude * np.log(rf / self.r0)
        # A/g (r^g - r0^g) = psi(r0) r0 expm1(g log(r/r0))/g, g = beta + 1: r0^g can leave
        # the double range where psi(r0) does not; where psi(r0) underflows to 0 and
        # (r/r0)^g overflows (g > 0), A/g r^g (1 - (r0/r)^g) with r^g in logarithms
        g, A = self.exponent + 1.0, self.amplitude
        log_s = np.log(rf / self.r0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = self._ramp_v * (np.expm1(g * log_s) / g) * self.r0
            lost = ~np.isfinite(out) & (g > 0.0)
            out[lost] = math.copysign(1.0, A) * np.exp(
                np.log(abs(A)) - np.log(g) + g * np.log(rf[lost])) * -np.expm1(-g * log_s[lost])
        return base + out

    @property
    def growth_limit(self) -> float:
        A, b = self.amplitude, self.exponent
        if b > -1.0:
            return math.copysign(math.inf, A) if A != 0 else 0.0
        return A if b == -1.0 else 0.0

    def tail(self) -> Tail | None:
        knot, A = self.r0, self.amplitude
        log_phi0 = -self.psi_integral(knot)
        if A == 0.0 or self.exponent == -1.0:
            return Tail("power", knot, in_double_range(lambda: math.exp(log_phi0) * knot**A), A,
                        log_K=log_phi0 + A * math.log(knot))
        g = self.exponent + 1.0
        if A > 0 and g > 0:
            c = A / g
            # where A/g underflows or overflows, log c from A and g keeps the digits c r^g
            # and c^-s need
            normal = sys.float_info.min <= c <= sys.float_info.max
            log_c = math.log(c) if normal else math.log(A) - math.log(g)
            x0 = Tail("gamma", knot, 1.0, c, g, log_p=log_c).exponent(knot)  # c r0^g
            # K = inf where e^{c r0^g} leaves the double range; log K stays finite unless
            # c r0^g does too, and then Psi(r0) >= g c r0^g / 4 > 1e291: phi reads 0 from r0 on
            K = in_double_range(lambda: math.exp(log_phi0) * math.exp(x0))
            return Tail("gamma", knot, K, c, g, x0 + log_phi0, log_c)
        return None

    @property
    def nonnegative(self) -> bool:
        return self.amplitude >= 0

    @property
    def nonpositive(self) -> bool:
        return self.amplitude <= 0


@dataclass(frozen=True)
class LogCorrected(_Mollified):
    """psi(r) = (n_dim + alpha/log r) / r for r >= r0 > 1, cubic ramp below r0.

    The averaged growth (1/log r) int_0^r psi tends to n_dim exactly, so this
    family sits on the classifier's critical line for ambient dimension n_dim.
    """

    n_dim: int
    alpha: float
    r0: float = math.e

    def __post_init__(self):
        if self.r0 <= 1.0:
            raise ValueError(f"activation radius must exceed 1, got {self.r0}")
        if self.n_dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n_dim}")
        super().__post_init__()

    def _knot_value(self):
        return (self.n_dim + self.alpha / math.log(self.r0)) / self.r0

    def _slope_ratio(self, v):
        L = math.log(self.r0)
        slope = self.n_dim + self.alpha / L + self.alpha / L**2  # -r0^2 psi'(r0)
        try:
            return -slope / self.r0**2 * self.r0 / v
        except OverflowError:  # r0^2 past the double range: the same ratio without r0
            return -slope / (self.n_dim + self.alpha / L)

    def _far(self, rf):
        return (self.n_dim + self.alpha / np.log(rf)) / rf

    def _far_integral(self, rf, base):
        L0 = math.log(self.r0)
        return base + self.n_dim * np.log(rf / self.r0) + self.alpha * np.log(np.log(rf) / L0)

    def _psi_plus_integral(self, rr):
        # psi <= 0 up to r* = e^{ls} > r0, ls = -alpha/n, and psi > 0 beyond it, where
        # Psi(r) - Psi(r*) = n d + alpha log(1 + d/ls) with d = log r - ls
        ls = -self.alpha / self.n_dim
        d = np.maximum(np.log(np.maximum(rr, 1.0)) - ls, 0.0)
        return self.n_dim * d + self.alpha * np.log1p(d / ls)

    @property
    def growth_limit(self) -> float:
        return float(self.n_dim)

    def tail(self) -> Tail:
        knot, n, alpha = self.r0, self.n_dim, self.alpha
        log_phi0 = -self.psi_integral(knot)
        log_K = log_phi0 + n * math.log(knot) + alpha * math.log(math.log(knot))
        K = in_double_range(lambda: math.exp(log_phi0) * knot**n * math.log(knot) ** alpha)
        return Tail("log", knot, K, float(n), alpha, log_K)

    @property
    def nonnegative(self) -> bool:
        # for alpha < 0, n + alpha/log r is smallest at r0 on [r0, inf);
        # the ramp takes the sign of psi(r0)
        return self.n_dim + self.alpha / math.log(self.r0) >= 0


@dataclass(frozen=True)
class Linear(DriftProfile):
    """psi(r) = r.  Unbounded model drift with a fully closed-form solution."""

    growth_limit = math.inf
    nonnegative = True

    def _psi(self, rr):
        return rr.copy()

    def _psi_integral(self, rr):
        return 0.5 * rr * rr

    def tail(self) -> Tail:
        return Tail("gamma", 0.0, 1.0, 0.5, 2.0, log_p=math.log(0.5))


@dataclass(frozen=True)
class Zero(DriftProfile):
    """psi identically zero: pure heat flow."""

    growth_limit = 0.0
    nonnegative = nonpositive = True

    def _psi(self, rr):
        return np.zeros_like(rr)

    _psi_integral = _psi

    def tail(self) -> Tail:
        return Tail("power", 0.0, 1.0)


def tabulated_samples(radii, values) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(radii, values) of a sampled function as float tuples, under the rules every
    tabulated input shares: at least two r:value pairs, finite, strictly increasing radii."""
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    if r.ndim != 1 or r.shape != v.shape or len(r) < 2:
        raise ValueError("need at least two r:value pairs")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
        raise ValueError("samples must be finite")
    if np.any(np.diff(r) <= 0):
        raise ValueError("radii must be strictly increasing")
    return tuple(r.tolist()), tuple(v.tolist())


@dataclass(frozen=True)
class Tabulated(DriftProfile):
    """Sampled psi with linear interpolation between strictly increasing radii.

    Samples must start at (0, 0); queries outside the sampled range raise
    ProfileRangeError rather than extrapolating.
    """

    radii: tuple
    speeds: tuple

    def __post_init__(self):
        r, p = tabulated_samples(self.radii, self.speeds)
        if r[0] != 0.0 or p[0] != 0.0:
            raise ValueError("samples must start at r=0 with psi(0)=0")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "speeds", p)

    def __repr__(self):
        return f"Tabulated({len(self.radii)} samples on [0, {self.radii[-1]}])"

    def _check_range(self, rr):
        if np.any(rr > self.radii[-1] * (1 + 1e-12) + 1e-300):
            raise ProfileRangeError(
                f"query radius beyond sampled range [0, {self.radii[-1]}]"
            )

    def _psi(self, rr):
        self._check_range(rr)
        return np.interp(rr, self.radii, self.speeds)

    def _psi_integral(self, rr):
        self._check_range(rr)
        radii, speeds = np.array(self.radii), np.array(self.speeds)
        seg = 0.5 * (speeds[1:] + speeds[:-1]) * np.diff(radii)
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        k = np.clip(np.searchsorted(radii, rr, side="right") - 1, 0, len(radii) - 2)
        pr = np.interp(rr, radii, speeds)
        return cum[k] + 0.5 * (speeds[k] + pr) * (rr - radii[k])

    def _psi_plus_integral(self, rr):
        return self.positive_part()._psi_integral(rr)

    @property
    def growth_bounds(self) -> tuple[float, float] | None:
        """(min, max) of (1/log r) int_0^r psi over the sample radii beyond max(1.5, r_last/4)."""
        radii = np.array(self.radii)
        mask = radii > max(1.5, 0.25 * radii[-1])
        if not np.any(mask):
            return None
        g = self.psi_integral(radii[mask]) / np.log(radii[mask])
        return (float(np.min(g)), float(np.max(g)))

    @property
    def nonnegative(self) -> bool:
        return min(self.speeds) >= 0

    @property
    def nonpositive(self) -> bool:
        return max(self.speeds) <= 0

    def positive_part(self) -> "Tabulated":
        """Piecewise-linear max(psi, 0), with zero crossings made explicit."""
        r, p = self.radii, self.speeds
        out_r, out_p = [r[0]], [max(p[0], 0.0)]
        for k in range(len(r) - 1):
            if p[k] * p[k + 1] < 0:
                cross = r[k] + (0.0 - p[k]) * (r[k + 1] - r[k]) / (p[k + 1] - p[k])
                out_r.append(cross)
                out_p.append(0.0)
            out_r.append(r[k + 1])
            out_p.append(max(p[k + 1], 0.0))
        return Tabulated(out_r, out_p)


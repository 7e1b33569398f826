"""Radial drift-speed profiles.

Every profile describes the scalar speed psi(r) of an inward-pointing radial
velocity field b(x) = -(x/|x|) psi(|x|).  All variants satisfy psi(0) = 0 so
that b extends continuously to the origin.  The mollified families (power law
and log-corrected) follow their closed-form expression exactly for r >= r0 and
ramp to zero on [0, r0] with a monotone cubic.
"""

from __future__ import annotations

import math
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


def _ramp_value(v: float, slope_ratio: float, r0: float, r):
    # cubic with p(0)=p'(0)=0, p(r0)=v, p'(r0)=slope_ratio*v/r0
    s = r / r0
    return v * s * s * ((3.0 - slope_ratio) + (slope_ratio - 2.0) * s)


def _ramp_integral(v: float, slope_ratio: float, r0: float, r):
    s = r / r0
    return v * r0 * (s**3 * (3.0 - slope_ratio) / 3.0 + s**4 * (slope_ratio - 2.0) / 4.0)


def _clamp_slope_ratio(ratio: float) -> float:
    # Monotonicity of the cubic ramp requires the endpoint slope ratio in
    # [0, 3]; decreasing far fields would need a negative endpoint slope,
    # which no monotone ramp can match, so the slope is limited instead.
    return min(max(ratio, 0.0), 3.0)


@dataclass(frozen=True)
class Tail:
    """phi = exp(-Psi) beyond the knot: "power" K r^-p (the constant K at p = 0),
    "gamma" K exp(-p r^q) with p, q > 0, or "log" K r^-p (log r)^-q.  log_K stays
    finite where K overflows."""

    kind: str
    knot: float
    K: float
    p: float = 0.0
    q: float = 0.0
    log_K: float = 0.0


class DriftProfile:
    """Base class; a variant states psi, Psi = int_0^r psi and the far field that the
    classifier and the weight integrals read: the growth limit L and the Tail of phi."""

    # L = lim (1/log r) int_0^r psi, may be +-inf; None where samples cannot tell
    growth_limit: float | None = None

    def psi(self, r):
        raise NotImplementedError

    def psi_integral(self, r):
        """Cumulative integral int_0^r psi, in closed form."""
        raise NotImplementedError

    def psi_plus_integral(self, r):
        """Cumulative integral int_0^r max(psi, 0), in closed form."""
        if self.nonnegative:
            return self.psi_integral(r)
        if self.nonpositive:
            return _scalar_or_array(np.zeros_like(_as_array(r)), r)
        raise NotImplementedError

    def tail(self) -> Tail | None:
        """Closed form of phi = exp(-Psi) beyond a knot, or None where there is none."""
        return None

    @property
    def nonnegative(self) -> bool:
        """True when psi(r) >= 0 is guaranteed for all r."""
        return False

    @property
    def nonpositive(self) -> bool:
        """True when psi(r) <= 0 is guaranteed for all r."""
        return False


@dataclass(frozen=True)
class PowerLaw(DriftProfile):
    """psi(r) = amplitude * r**exponent for r >= r0, cubic ramp to 0 below r0."""

    amplitude: float
    exponent: float
    r0: float = 1.0
    _ramp_v: float = field(init=False, repr=False, compare=False)
    _ramp_t: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValueError(f"mollification radius must be positive, got {self.r0}")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.exponent)):
            raise ValueError("amplitude and exponent must be finite")
        v = self.amplitude * self.r0**self.exponent
        t = _clamp_slope_ratio(self.exponent) if v != 0.0 else 0.0
        object.__setattr__(self, "_ramp_v", v)
        object.__setattr__(self, "_ramp_t", t)

    def psi(self, r):
        rr = _as_array(r)
        out = np.empty_like(rr)
        far = rr >= self.r0
        out[far] = self.amplitude * rr[far] ** self.exponent
        out[~far] = _ramp_value(self._ramp_v, self._ramp_t, self.r0, rr[~far])
        return _scalar_or_array(out, r)

    def psi_integral(self, r):
        rr = _as_array(r)
        out = np.empty_like(rr)
        far = rr >= self.r0
        out[~far] = _ramp_integral(self._ramp_v, self._ramp_t, self.r0, rr[~far])
        base = _ramp_integral(self._ramp_v, self._ramp_t, self.r0, self.r0)
        if self.exponent == -1.0:
            out[far] = base + self.amplitude * np.log(rr[far] / self.r0)
        else:
            g = self.exponent + 1.0
            out[far] = base + self.amplitude / g * (rr[far] ** g - self.r0**g)
        return _scalar_or_array(out, r)

    @property
    def growth_limit(self) -> float:
        A, b = self.amplitude, self.exponent
        if b > -1.0:
            return math.copysign(math.inf, A) if A != 0 else 0.0
        return A if b == -1.0 else 0.0

    def tail(self) -> Tail | None:
        knot, A = self.r0, self.amplitude
        log_phi0 = -self.psi_integral(knot)
        phi0 = math.exp(log_phi0)
        if A == 0.0 or self.exponent == -1.0:
            return Tail("power", knot, phi0 * knot**A, A, log_K=log_phi0 + A * math.log(knot))
        g = self.exponent + 1.0
        if A > 0 and g > 0:
            c = max(A / g, math.ulp(0.0))  # A/g, or the least double where that underflows
            # K = inf where e^{c r0^g} leaves the double range; log K stays finite
            try:
                K = phi0 * math.exp(c * knot**g)
            except OverflowError:
                K = math.inf
            return Tail("gamma", knot, K, c, g, c * knot**g + log_phi0)
        return None

    @property
    def nonnegative(self) -> bool:
        return self.amplitude >= 0

    @property
    def nonpositive(self) -> bool:
        return self.amplitude <= 0


@dataclass(frozen=True)
class LogCorrected(DriftProfile):
    """psi(r) = (n_dim + alpha/log r) / r for r >= r0 > 1, cubic ramp below r0.

    The averaged growth (1/log r) int_0^r psi tends to n_dim exactly, so this
    family sits on the classifier's critical line for ambient dimension n_dim.
    """

    n_dim: int
    alpha: float
    r0: float = math.e
    _ramp_v: float = field(init=False, repr=False, compare=False)
    _ramp_t: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.r0 <= 1.0:
            raise ValueError(f"activation radius must exceed 1, got {self.r0}")
        if self.n_dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n_dim}")
        L = math.log(self.r0)
        v = (self.n_dim + self.alpha / L) / self.r0
        if v != 0.0:
            d = -(self.n_dim + self.alpha / L + self.alpha / L**2) / self.r0**2
            t = _clamp_slope_ratio(d * self.r0 / v)
        else:
            t = 0.0
        object.__setattr__(self, "_ramp_v", v)
        object.__setattr__(self, "_ramp_t", t)

    def psi(self, r):
        rr = _as_array(r)
        out = np.empty_like(rr)
        far = rr >= self.r0
        rf = rr[far]
        out[far] = (self.n_dim + self.alpha / np.log(rf)) / rf
        out[~far] = _ramp_value(self._ramp_v, self._ramp_t, self.r0, rr[~far])
        return _scalar_or_array(out, r)

    def psi_integral(self, r):
        rr = _as_array(r)
        out = np.empty_like(rr)
        far = rr >= self.r0
        out[~far] = _ramp_integral(self._ramp_v, self._ramp_t, self.r0, rr[~far])
        base = _ramp_integral(self._ramp_v, self._ramp_t, self.r0, self.r0)
        rf = rr[far]
        L0 = math.log(self.r0)
        out[far] = base + self.n_dim * np.log(rf / self.r0) + self.alpha * np.log(np.log(rf) / L0)
        return _scalar_or_array(out, r)

    def psi_plus_integral(self, r):
        if self.nonnegative:
            return self.psi_integral(r)
        # psi <= 0 up to r* = e^{ls} > r0, ls = -alpha/n, and psi > 0 beyond it, where
        # Psi(r) - Psi(r*) = n d + alpha log(1 + d/ls) with d = log r - ls
        ls = -self.alpha / self.n_dim
        d = np.maximum(np.log(np.maximum(_as_array(r), 1.0)) - ls, 0.0)
        return _scalar_or_array(self.n_dim * d + self.alpha * np.log1p(d / ls), r)

    @property
    def growth_limit(self) -> float:
        return float(self.n_dim)

    def tail(self) -> Tail:
        knot = self.r0
        log_phi0 = -self.psi_integral(knot)
        K = math.exp(log_phi0) * knot**self.n_dim * math.log(knot) ** self.alpha
        log_K = log_phi0 + self.n_dim * math.log(knot) + self.alpha * math.log(math.log(knot))
        return Tail("log", knot, K, float(self.n_dim), self.alpha, log_K)

    @property
    def nonnegative(self) -> bool:
        # for alpha < 0, n + alpha/log r is smallest at r0 on [r0, inf);
        # the ramp takes the sign of psi(r0)
        return self.n_dim + self.alpha / math.log(self.r0) >= 0


@dataclass(frozen=True)
class Linear(DriftProfile):
    """psi(r) = r.  Unbounded model drift with a fully closed-form solution."""

    def psi(self, r):
        rr = _as_array(r)
        return _scalar_or_array(rr.copy(), r)

    def psi_integral(self, r):
        rr = _as_array(r)
        return _scalar_or_array(0.5 * rr * rr, r)

    growth_limit = math.inf

    def tail(self) -> Tail:
        return Tail("gamma", 0.0, 1.0, 0.5, 2.0)

    @property
    def nonnegative(self) -> bool:
        return True


@dataclass(frozen=True)
class Zero(DriftProfile):
    """psi identically zero: pure heat flow."""

    def psi(self, r):
        rr = _as_array(r)
        return _scalar_or_array(np.zeros_like(rr), r)

    def psi_integral(self, r):
        rr = _as_array(r)
        return _scalar_or_array(np.zeros_like(rr), r)

    growth_limit = 0.0

    def tail(self) -> Tail:
        return Tail("power", 0.0, 1.0)

    @property
    def nonnegative(self) -> bool:
        return True

    @property
    def nonpositive(self) -> bool:
        return True


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

    def psi(self, r):
        rr = _as_array(r)
        self._check_range(rr)
        return _scalar_or_array(np.interp(rr, self.radii, self.speeds), r)

    def psi_integral(self, r):
        rr = _as_array(r)
        self._check_range(rr)
        radii, speeds = np.array(self.radii), np.array(self.speeds)
        seg = 0.5 * (speeds[1:] + speeds[:-1]) * np.diff(radii)
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        k = np.clip(np.searchsorted(radii, rr, side="right") - 1, 0, len(radii) - 2)
        pr = np.interp(rr, radii, speeds)
        out = cum[k] + 0.5 * (speeds[k] + pr) * (rr - radii[k])
        return _scalar_or_array(out, r)

    def psi_plus_integral(self, r):
        if self.nonnegative or self.nonpositive:
            return super().psi_plus_integral(r)
        return self.positive_part().psi_integral(r)

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


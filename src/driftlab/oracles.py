"""Closed-form reference solutions used to validate the numerical scheme.

A Gaussian stays Gaussian under heat flow, and the linear-drift equation
u_t = Lap(u) - <x, grad u> is the heat flow composed with an exponential
rescaling of space: u(x, t) = w(e^-t x, s(t)) with s(t) = (1 - e^-2t)/2
solves it with u(., 0) = w(., 0).  Since s(t) -> 1/2, the solution converges
exponentially fast (locally uniformly) to the positive constant
(sigma / (sigma + 1/2))^{n/2}: spatially decaying data lift off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import RadialField, RadialGrid, quadrature_weights
from .profiles import Linear
from .solver import Trajectory


@dataclass(frozen=True)
class GaussianData:
    """Initial datum u0(x) = exp(-|x|^2 / (4 sigma)): radial, decreasing, positive."""

    sigma: float
    n_dim: int

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.n_dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n_dim}")

    def field(self, grid: RadialGrid) -> RadialField:
        if grid.n_dim != self.n_dim:
            raise ValueError(f"grid dimension {grid.n_dim} does not match {self.n_dim}")
        r = grid.nodes
        return RadialField(grid, np.exp(-(r * r) / (4.0 * self.sigma)))


def heat_solution(g: GaussianData, r, s):
    """Heat flow of the Gaussian datum after time s: amplitude shrinks, scale grows.

    w(r, s) = (sigma/(sigma+s))^{n/2} exp(-r^2 / (4 (sigma+s))).
    """
    if np.any(np.asarray(s) < 0):
        raise ValueError("heat time must be non-negative")
    tau = g.sigma + np.asarray(s, dtype=float)
    out = (g.sigma / tau) ** (g.n_dim / 2.0) * np.exp(-np.asarray(r, dtype=float) ** 2 / (4.0 * tau))
    return out if (np.ndim(r) or np.ndim(s)) else float(out)


def ou_solution(g: GaussianData, r, t):
    """Exact solution of u_t = Lap(u) - <x, grad u> with u(., 0) = the Gaussian datum.

    Evaluates the heat flow at the rescaled point: radius e^-t r, heat time
    (1 - e^-2t)/2.  As t -> infinity the value tends, uniformly on compact
    sets, to the plateau (sigma/(sigma + 1/2))^{n/2}.
    """
    if np.any(np.asarray(t) < 0):
        raise ValueError("time must be non-negative")
    tt = np.asarray(t, dtype=float)
    out = heat_solution(g, np.exp(-tt) * np.asarray(r, dtype=float), 0.5 * (1.0 - np.exp(-2.0 * tt)))
    return out if (np.ndim(r) or np.ndim(t)) else float(out)


def liftoff_limit(g: GaussianData) -> float:
    """t -> infinity plateau of ou_solution: (sigma/(sigma + 1/2))^{n/2}."""
    return (g.sigma / (g.sigma + 0.5)) ** (g.n_dim / 2.0)


def mass_growth_check(traj: Trajectory) -> list[tuple[float, float, float]]:
    """Per-snapshot (t, mass, e^{n t} * initial mass) for a linear-drift run.

    The linear drift pumps plain (unweighted) mass exponentially: on the full
    space d/dt int u = n int u.  Domain truncation makes the comparison
    approximate once the solution reaches the boundary.
    """
    if not isinstance(traj.profile, Linear):
        raise ValueError("mass growth check applies to the linear drift profile only")
    grid = traj.grid
    mass = (traj.values @ quadrature_weights(grid, grid.r_max)).tolist()
    return [(t, m, math.exp(grid.n_dim * t) * mass[0]) for t, m in zip(traj.times.tolist(), mass)]

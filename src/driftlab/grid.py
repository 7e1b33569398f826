"""Uniform radial grids on [0, r_max] and scalar fields sampled on them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def gamma_half_integer(two_a: int) -> float:
    """Gamma(two_a / 2) for positive integer two_a, by exact recursion."""
    if two_a <= 0:
        raise ValueError(f"gamma argument must be positive, got {two_a}/2")
    if two_a % 2 == 0:
        return float(math.factorial(two_a // 2 - 1))
    k = (two_a - 1) // 2
    return math.factorial(2 * k) * math.sqrt(math.pi) / (4.0**k * math.factorial(k))


def unit_sphere_area(n_dim: int) -> float:
    """Surface area of the unit sphere in n dimensions: 2 pi^{n/2} / Gamma(n/2).

    For the integer dimensions used here Gamma(n/2) is evaluated by the exact
    factorial / double-factorial recursion; non-integer input falls back to
    math.gamma (a Lanczos-type implementation).
    """
    if n_dim < 1:
        raise ValueError(f"dimension must be >= 1, got {n_dim}")
    if float(n_dim).is_integer():
        g = gamma_half_integer(int(n_dim))
    else:
        g = math.gamma(n_dim / 2.0)
    return 2.0 * math.pi ** (n_dim / 2.0) / g


def radial_trapezoid(r: np.ndarray, f: np.ndarray, n_dim: int, upper: float | None = None) -> float:
    """Trapezoid rule for int_0^upper f(r) r^{n-1} dr on the node set r.

    ``upper`` may fall between nodes; the top segment is then integrated
    against the linearly interpolated integrand.  ``upper=None`` integrates
    over the whole node range.  No unit-sphere factor is applied.
    """
    g = f * r ** (n_dim - 1)
    if upper is None:
        return float(np.trapezoid(g, r))
    if upper < r[0] - 1e-12 or upper > r[-1] * (1 + 1e-12) + 1e-12:
        raise ValueError(f"integration bound {upper} outside node range [{r[0]}, {r[-1]}]")
    upper = min(upper, r[-1])
    k = int(np.searchsorted(r, upper, side="right"))
    total = float(np.trapezoid(g[:k], r[:k])) if k >= 2 else 0.0
    if k <= len(r) - 1 and upper > r[k - 1]:
        g_up = g[k - 1] + (g[k] - g[k - 1]) * (upper - r[k - 1]) / (r[k] - r[k - 1])
        total += 0.5 * (g[k - 1] + g_up) * (upper - r[k - 1])
    return total


@dataclass(frozen=True)
class RadialGrid:
    """Evenly spaced nodes r_i = i*h on [0, r_max], embedded in dimension n_dim."""

    r_max: float
    num_nodes: int
    n_dim: int

    def __post_init__(self):
        if self.r_max <= 0:
            raise ValueError(f"r_max must be positive, got {self.r_max}")
        if self.num_nodes < 3:
            raise ValueError(f"need at least 3 nodes, got {self.num_nodes}")
        if self.n_dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n_dim}")

    @property
    def spacing(self) -> float:
        return self.r_max / (self.num_nodes - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        r = np.linspace(0.0, self.r_max, self.num_nodes)
        r.flags.writeable = False
        return r


class RadialField:
    """One scalar value per grid node: u(r_i).  Immutable after construction."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: RadialGrid, values):
        vals = np.array(values, dtype=float)
        if vals.shape != (grid.num_nodes,):
            raise ValueError(f"expected {grid.num_nodes} values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("RadialField is immutable")

    def __len__(self) -> int:
        return self.grid.num_nodes

    @classmethod
    def from_function(cls, grid: RadialGrid, fn) -> "RadialField":
        return cls(grid, fn(grid.nodes))

    def is_radially_nonincreasing(self) -> bool:
        return bool(np.all(np.diff(self.values) <= 0.0))

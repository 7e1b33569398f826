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

    For the integer dimensions whose Gamma(n/2) and its recursion's factorials are
    doubles (odd n <= 171, even n <= 342) it is evaluated by the exact factorial /
    double-factorial recursion; other input takes math.gamma (a Lanczos-type
    implementation).  Past the double range (integer n beyond those, non-integer
    n > 343) the area is formed in logs, without forming a factorial.
    """
    if n_dim < 1:
        raise ValueError(f"dimension must be >= 1, got {n_dim}")
    integer = float(n_dim).is_integer()
    if not integer or n_dim <= (342 if n_dim % 2 == 0 else 171):
        try:
            g = gamma_half_integer(int(n_dim)) if integer else math.gamma(n_dim / 2.0)
            return 2.0 * math.pi ** (n_dim / 2.0) / g
        except OverflowError:
            pass
    return math.exp(math.log(2.0) + n_dim / 2.0 * math.log(math.pi) - math.lgamma(n_dim / 2.0))


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

    def __reduce__(self):  # without the cached nodes, which unpickle writeable
        return RadialGrid, (self.r_max, self.num_nodes, self.n_dim)

    @property
    def spacing(self) -> float:
        return self.r_max / (self.num_nodes - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        r = np.linspace(0.0, self.r_max, self.num_nodes)
        r.flags.writeable = False
        return r


def quadrature_weights(grid: RadialGrid, radius: float) -> np.ndarray:
    """Weights q with q @ f = |S^{n-1}| int_0^radius f(r) r^{n-1} dr, trapezoid on the nodes.

    ``radius`` may fall between nodes; the top segment is then integrated
    against the linearly interpolated integrand.  Every radial integral of a
    field in the package is a dot product with this vector.
    """
    r = grid.nodes
    if radius < r[0] - 1e-12 or radius > r[-1] * (1 + 1e-12) + 1e-12:
        raise ValueError(f"integration bound {radius} outside node range [{r[0]}, {r[-1]}]")
    radius = min(max(radius, r[0]), r[-1])
    k = int(np.searchsorted(r, radius, side="right"))
    half = 0.5 * np.diff(r[:k])
    w = np.zeros(grid.num_nodes)
    w[:k - 1] += half
    w[1:k] += half
    if k < grid.num_nodes and radius > r[k - 1]:
        # top segment [r[k-1], radius] against the integrand interpolated to radius
        s = radius - r[k - 1]
        lam = s / (r[k] - r[k - 1])
        w[k - 1] += 0.5 * s * (2.0 - lam)
        w[k] += 0.5 * s * lam
    return unit_sphere_area(grid.n_dim) * w * r ** (grid.n_dim - 1)


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

    def __reduce__(self):  # unpickled through __init__: validated and read-only again
        return RadialField, (self.grid, self.values)

    def __len__(self) -> int:
        return self.grid.num_nodes

    def is_radially_nonincreasing(self) -> bool:
        return bool(np.all(np.diff(self.values) <= 0.0))

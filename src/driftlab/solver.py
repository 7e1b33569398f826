"""Implicit theta-scheme for the radial advection-diffusion equation.

For rotationally symmetric u the equation u_t = Lap(u) - psi(r) u_r reduces to

    u_t = u_rr + ((n-1)/r) u_r - psi(r) u_r      on (0, r_max),

with the symmetry limit Lap(u)(0) = n * u_rr(0) at the origin.  Space is
discretized with second-order differences (optionally upwinded first-order
advection), time with the one-parameter theta scheme

    (I - theta*dt*L) u_new = (I + (1-theta)*dt*L) u_old,

solved exactly: the tridiagonal implicit matrix is factored once per solve
(LAPACK dgttrf, LU with partial pivoting) and each step is one pair of
triangular solves with that factorization (dgttrs).  With theta = 1 and
upwind advection the implicit matrix is an M-matrix with unit row sums, so the
update is a convex combination of old node values: new values stay inside
[min u_old, max u_old], non-negativity and radial monotonicity are preserved
exactly (up to roundoff).
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .grid import RadialField, RadialGrid
from .profiles import DriftProfile


def _load_flapack():
    """scipy's compiled LAPACK wrappers, without running scipy/linalg/__init__.py.

    scipy.linalg.lapack re-exports the routines of this same extension; the
    scipy.linalg package itself would also load its array-API layer, which
    dominates start-up time and memory.  find_spec imports only the root
    scipy package.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    package = importlib.util.find_spec("scipy.linalg")
    spec = None
    if package is not None:
        finder = FileFinder(package.submodule_search_locations[0],
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension {name} is not installed", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()
dgttrf, dgttrs = _flapack.dgttrf, _flapack.dgttrs

ADVECTION_MODES = ("centered", "upwind")
OUTER_BCS = ("dirichlet_frozen", "neumann")


class SolverError(RuntimeError):
    """The implicit linear system could not be solved."""


class DivergenceError(SolverError):
    """A time step produced non-finite values."""


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters.

    theta = 0.5 is Crank-Nicolson (second order), theta = 1 backward Euler
    (first order, unconditionally monotone with upwind advection).
    dirichlet_frozen holds the outer node at its initial value; neumann
    enforces u_r(r_max) = 0 by mirror ghost.
    """

    dt: float
    theta: float = 0.5
    outer_bc: str = "dirichlet_frozen"
    advection: str = "centered"
    snapshot_stride: int = 1

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if self.outer_bc not in OUTER_BCS:
            raise ValueError(f"outer_bc must be one of {OUTER_BCS}, got {self.outer_bc!r}")
        if self.advection not in ADVECTION_MODES:
            raise ValueError(f"advection must be one of {ADVECTION_MODES}, got {self.advection!r}")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")


class Trajectory:
    """Snapshots of one simulation: times (frames,) and values (frames x nodes), read-only."""

    __slots__ = ("grid", "times", "values", "profile", "config")

    def __init__(self, grid: RadialGrid, times, values, profile: DriftProfile,
                 config: SolverConfig):
        # read-only views: no copy of the block
        times = np.asarray(times, dtype=float).view()
        values = np.asarray(values, dtype=float).view()
        if times.ndim != 1 or times.size == 0:
            raise ValueError("trajectory needs at least one frame")
        if times[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")
        if values.shape != (times.size, grid.num_nodes):
            raise ValueError(f"expected values of shape {(times.size, grid.num_nodes)}, "
                             f"got {values.shape}")
        times.flags.writeable = False
        values.flags.writeable = False
        for name, value in zip(self.__slots__, (grid, times, values, profile, config)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Trajectory is immutable")

    def __len__(self):
        return len(self.times)

    @property
    def final(self) -> RadialField:
        return RadialField(self.grid, self.values[-1])


def operator_diagonals(grid: RadialGrid, profile: DriftProfile, advection: str = "centered",
                       outer_bc: str = "dirichlet_frozen"):
    """Tridiagonal rows (lower, diag, upper) of the spatial operator L.

    lower[i] multiplies u[i-1], upper[i] multiplies u[i+1]; lower[0] and
    upper[-1] are unused.  diag is assembled as -(lower+upper) so row sums
    vanish exactly and constants are stationary to machine precision.
    """
    n = grid.n_dim
    h = grid.spacing
    r = grid.nodes
    N = grid.num_nodes
    lower = np.zeros(N)
    upper = np.zeros(N)

    # origin: u_r(0) = 0, ghost u(-h) = u(h) gives Lap(u)(0) ~ 2n (u1-u0)/h^2
    upper[0] = 2.0 * n / h**2

    ri = r[1:-1]
    c = (n - 1) / ri - np.asarray(profile.psi(ri), dtype=float)
    base = 1.0 / h**2
    if advection == "centered":
        lower[1:-1] = base - c / (2.0 * h)
        upper[1:-1] = base + c / (2.0 * h)
    else:
        lower[1:-1] = base + np.maximum(-c, 0.0) / h
        upper[1:-1] = base + np.maximum(c, 0.0) / h

    if outer_bc == "neumann":
        # mirror ghost u(r_max+h) = u(r_max-h); u_r(r_max)=0 kills advection
        lower[-1] = 2.0 / h**2
    # dirichlet_frozen: outer row stays zero, so du/dt = 0 there

    diag = -(lower + upper)
    return lower, diag, upper


def apply_tridiagonal(lower, diag, upper, v):
    out = diag * v
    out[1:] += lower[1:] * v[:-1]
    out[:-1] += upper[:-1] * v[1:]
    return out


class _ThetaStepper:
    """Theta-scheme for one fixed dt, factored once; advance() performs one step."""

    def __init__(self, grid: RadialGrid, profile: DriftProfile, config: SolverConfig, dt: float):
        lo, d, up = operator_diagonals(grid, profile, config.advection, config.outer_bc)
        theta = config.theta
        *lu, info = dgttrf(-theta * dt * lo[1:], 1.0 - theta * dt * d, -theta * dt * up[:-1])
        if info > 0:
            raise SolverError(f"singular implicit system: zero pivot in row {info}")
        self._lu = lu
        self._explicit = None
        if theta < 1.0:
            w = (1.0 - theta) * dt
            self._explicit = (w * lo[1:], w * d, w * up[:-1])
            self._rhs = np.empty(grid.num_nodes)
            self._off = np.empty(grid.num_nodes - 1)

    def advance(self, v: np.ndarray) -> np.ndarray:
        if self._explicit is None:
            rhs = v
        else:
            # v + apply_tridiagonal(w*lo, w*d, w*up, v), same operation order, no allocation
            lo, d, up = self._explicit
            rhs, off = self._rhs, self._off
            np.multiply(d, v, out=rhs)
            rhs[1:] += np.multiply(lo, v[:-1], out=off)
            rhs[:-1] += np.multiply(up, v[1:], out=off)
            np.add(v, rhs, out=rhs)
        return dgttrs(*self._lu, rhs)[0]


def step(u: RadialField, profile: DriftProfile, config: SolverConfig) -> RadialField:
    """Advance a field by one time step config.dt: the last frame of solve to t = dt."""
    return solve(u, profile, config, config.dt).final


def step_plan(config: SolverConfig, t_end: float) -> tuple[int, float, int]:
    """(full steps of dt, shortened final step or 0, snapshot rows) of a solve to t_end >= 0;
    the rows are the frames at t = 0, every snapshot_stride steps before t_end, and t_end."""
    if t_end == 0:
        return 0, 0.0, 1
    dt = config.dt
    ratio = t_end / dt
    n_full = int(np.floor(ratio))
    if ratio - n_full > 1 - 1e-9:  # integer step count up to roundoff
        n_full += 1
    remainder = t_end - n_full * dt
    if remainder <= dt * 1e-9:
        remainder = 0.0
    # last step whose state can be a stride snapshot; the state after it is the t_end frame
    last = n_full if remainder > 0.0 else n_full - 1
    return n_full, remainder, 2 + max(last, 0) // config.snapshot_stride


def solve(u0: RadialField, profile: DriftProfile, config: SolverConfig, t_end: float) -> Trajectory:
    """Repeated stepping with snapshots every snapshot_stride steps.

    The final snapshot lands exactly at t_end; the last step is shortened when
    t_end is not a multiple of dt.  t_end = 0 yields the single frame (0, u0).
    The (frames x nodes) block is allocated once from the step count.
    """
    grid = u0.grid
    if t_end < 0:
        raise ValueError(f"t_end must be non-negative, got {t_end}")
    if t_end == 0:
        return Trajectory(grid, [0.0], u0.values[None, :], profile, config)

    dt, stride = config.dt, config.snapshot_stride
    n_full, remainder, rows = step_plan(config, t_end)
    times = np.empty(rows)
    values = np.empty((rows, grid.num_nodes))
    times[0], values[0] = 0.0, u0.values
    stepper = _ThetaStepper(grid, profile, config, dt)
    good_k, good_v = 0, u0.values
    v = u0.values
    for k in range(1, n_full + 1):
        v = stepper.advance(v)
        if k % stride == 0 or k == n_full:
            if not np.all(np.isfinite(v)):
                k = _first_bad_step(stepper, good_v, good_k, k)
                raise DivergenceError(f"non-finite values at step {k} (t = {k * dt:g})")
            good_k, good_v = k, v
            if k % stride == 0 and k // stride < rows - 1:  # the last row is t_end's
                times[k // stride], values[k // stride] = k * dt, v
    if remainder > 0.0:
        v = _ThetaStepper(grid, profile, config, remainder).advance(v)
        if not np.all(np.isfinite(v)):
            raise DivergenceError(f"non-finite values in final shortened step (t = {t_end:g})")
    times[-1], values[-1] = t_end, v
    return Trajectory(grid, times, values, profile, config)


def _first_bad_step(stepper: _ThetaStepper, v: np.ndarray, k: int, k_bad: int) -> int:
    """First non-finite step after the finite state v at step k; step k_bad is non-finite.

    Non-finite values never become finite again: the factors are finite, so
    every product, sum and division with a NaN or Inf (0*Inf = NaN) stays
    non-finite.  Replaying the same arithmetic from v therefore meets the step
    a check after every step would have named.
    """
    for k in range(k + 1, k_bad):
        v = stepper.advance(v)
        if not np.all(np.isfinite(v)):
            return k
    return k_bad

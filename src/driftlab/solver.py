"""Implicit theta-scheme for the radial advection-diffusion equation.

For rotationally symmetric u the equation u_t = Lap(u) - psi(r) u_r reduces to

    u_t = u_rr + ((n-1)/r) u_r - psi(r) u_r      on (0, r_max),

with the symmetry limit Lap(u)(0) = n * u_rr(0) at the origin.  Space is
discretized with second-order differences (optionally upwinded first-order
advection), time with the one-parameter theta scheme

    (I - theta*dt*L) u_new = (I + (1-theta)*dt*L) u_old,

solved exactly, with the implicit matrix factored once per step size.  L is
self-adjoint in its own weight, L u = (phi r^(n-1))^-1 (phi r^(n-1) u_r)_r, and
the discrete operator keeps this wherever every coupling lower[i+1], upper[i]
is positive: always with upwind advection, below cell Peclet number 2 with
centered.  There the scaling s[i+1]/s[i] = sqrt(lower[i+1]/upper[i]) makes
S^-1 L S symmetric, with off-diagonal sqrt(lower[i+1]*upper[i]).  Since
diag = -(lower+upper), the Gershgorin discs of I - theta*dt*L lie in
Re z >= 1, so its symmetric similar matrix has every eigenvalue >= 1: it is
positive definite for every theta and dt.  The steps then act on y = S^-1 u
through a symmetric LDL^T factorization (LAPACK dpttrf, one dpttrs per step),
a frozen outer node entering as a constant lift on the row before it.  Every
other operator (a zero or negative coupling, or scales spanning more than
MAX_LOG_SCALE_RANGE) is stepped on u itself through LU with partial pivoting
(dgttrf, one dgttrs per step).  Either way the solve is the only matrix work of a
step: theta lies in [1/2, 1], where the scheme is unconditionally stable, and with
A = I - theta*dt*L the explicit half is (I - (1-theta)*A)/theta, so for theta < 1

    u_new = A^-1 (u_old/theta + lift) - ((1-theta)/theta) u_old,

at theta = 1/2 (Crank-Nicolson) 2 A^-1 (u_old + lift/2) - u_old with an exact doubling.
On the general path, whose system keeps a frozen node, the node stays exactly frozen at
theta = 1/2 and 1, and within a few ulps at other theta.  With theta = 1 and upwind
advection the implicit matrix is an M-matrix with unit row sums, so the update is a
convex combination of old node values: new values stay inside [min u_old, max u_old],
non-negativity and radial monotonicity are preserved exactly (up to roundoff).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .grid import RadialField, RadialGrid
from .profiles import DriftProfile


def _bind_lapack():
    """dpttrf, dpttrs, dgttrf and dgttrs of the LAPACK that numpy.linalg is linked against,
    and the dtype of that LAPACK's integers.

    dlsym on numpy's linalg extension also searches the libraries it loaded, so binding
    maps no second library.  numpy >= 2.0's wheels export scipy-openblas64's names with
    64-bit integers; the first name template that resolves all four routines is taken.
    Every argument is an address (Fortran passes by reference), and dgttrs takes the
    hidden length of its character argument TRANS last, by value.
    """
    from numpy.linalg import _umath_linalg

    library = ctypes.CDLL(_umath_linalg.__file__)
    names, missing = ("dpttrf", "dpttrs", "dgttrf", "dgttrs"), []
    for template, integer in (("scipy_{}_64_", np.int64), ("{}_64_", np.int64),
                              ("{}_", np.int32)):
        symbols = [template.format(name) for name in names]
        absent = [symbol for symbol in symbols if not hasattr(library, symbol)]
        if absent:
            missing += absent
            continue
        routines = [getattr(library, symbol) for symbol in symbols]
        for routine, addresses, lengths in zip(routines, (4, 7, 7, 11), (0, 0, 0, 1)):
            routine.argtypes = [ctypes.c_void_p] * addresses + [ctypes.c_size_t] * lengths
            routine.restype = None
        return (*routines, np.dtype(integer))
    raise ImportError(f"numpy's LAPACK ({_umath_linalg.__file__}) lacks {', '.join(missing)}")


# the raw routines: module attributes so that a stepper binds whatever stands here when built
dpttrf, dpttrs, dgttrf, dgttrs, LAPACK_INT = _bind_lapack()

ADVECTION_MODES = ("centered", "upwind")
OUTER_BCS = ("dirichlet_frozen", "neumann")


class SolverError(RuntimeError):
    """The implicit linear system could not be solved."""


class DivergenceError(SolverError):
    """A time step produced non-finite values."""


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters.

    theta lies in [0.5, 1], where the scheme is unconditionally stable: theta = 0.5
    is Crank-Nicolson (second order), theta = 1 backward Euler (first order,
    unconditionally monotone with upwind advection).
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
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0.5, 1], got {self.theta}")
        if self.outer_bc not in OUTER_BCS:
            raise ValueError(f"outer_bc must be one of {OUTER_BCS}, got {self.outer_bc!r}")
        if self.advection not in ADVECTION_MODES:
            raise ValueError(f"advection must be one of {ADVECTION_MODES}, got {self.advection!r}")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")

    @property
    def certified(self) -> bool:
        """theta = 1 with upwind advection: the implicit matrix is an M-matrix, so the scheme
        keeps positivity, the maximum principle and radial monotonicity."""
        return self.theta == 1.0 and self.advection == "upwind"


class Trajectory:
    """Snapshots of one simulation: times (frames,) and values (frames x nodes), read-only;
    kernel names the factorization that stepped it ("ldlt" or "lu"; None without a step)."""

    __slots__ = ("grid", "times", "values", "profile", "config", "kernel")

    def __init__(self, grid: RadialGrid, times, values, profile: DriftProfile,
                 config: SolverConfig, kernel: str | None = None):
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
        for name, value in zip(self.__slots__, (grid, times, values, profile, config, kernel)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Trajectory is immutable")

    def __reduce__(self):  # unpickled through __init__: validated and read-only again
        return Trajectory, tuple(getattr(self, name) for name in self.__slots__)

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


# Bound on max(log s) - min(log s) for the symmetric path: the centred scales stay within
# [2**-256, 2**256], so y = u/s is a normal double for every 2**-766 <= |u| <= 2**767.
# Past it a stretch of y can sit in subnormals, which cost about ten times a normal step.
MAX_LOG_SCALE_RANGE = 512 * math.log(2.0)


def _log_scales(lo, up, m):
    """Centred log s with s[i+1]/s[i] = sqrt(lo[i+1]/up[i]) over the first m rows, or None
    where a coupling is not positive or the scales span more than MAX_LOG_SCALE_RANGE."""
    a, b = lo[1:m], up[:m - 1]
    if not (np.all(a > 0.0) and np.all(b > 0.0)):
        return None
    log_s = np.concatenate(([0.0], np.cumsum(0.5 * (np.log(a) - np.log(b)))))
    top, bottom = log_s.max(), log_s.min()
    if top - bottom > MAX_LOG_SCALE_RANGE:
        return None
    return log_s - 0.5 * (top + bottom)


class _ThetaStepper:
    """Theta-scheme for one fixed dt, factored once.

    load(u) sets the state the steps act on, advance() replaces it with the next one and
    field() reads u back; kernel names the factorization, "ldlt" (dpttrf on the symmetrized
    system) or "lu" (dgttrf on L itself).  The stepper owns the state's memory, one buffer
    at theta = 1 and two taking turns below, and calls the solve with the addresses it took
    when built: no step asks numpy for an address.
    """

    def __init__(self, grid: RadialGrid, profile: DriftProfile, config: SolverConfig, dt: float):
        lo, d, up = operator_diagonals(grid, profile, config.advection, config.outer_bc)
        theta = config.theta
        N = grid.num_nodes
        # a frozen outer node is an identity row: a constant lift on the row before it
        m = N - 1 if config.outer_bc == "dirichlet_frozen" else N
        log_s = _log_scales(lo, up, m)
        lu, self._lift = log_s is None, 0.0
        rows = N if lu else m
        self._ints = np.array([rows, 1, 0], dtype=LAPACK_INT)  # n (also ldb), nrhs, info
        n, nrhs, info = (self._ints.ctypes.data + k * LAPACK_INT.itemsize for k in range(3))
        if lu:
            self.kernel, self._scale = "lu", None
            self._factors = (-theta * dt * lo[1:], 1.0 - theta * dt * d, -theta * dt * up[:-1],
                             np.empty(N - 2), np.empty(N, dtype=LAPACK_INT))
            factor, self._solve = dgttrf, dgttrs
            failure = "singular implicit system: zero pivot in row"
        else:
            self.kernel, self._scale = "ldlt", np.exp(log_s)
            self._outer_coupling = dt * up[m - 1] / self._scale[-1]  # frozen node to row m-1
            off = np.sqrt(lo[1:m] * up[:m - 1])
            self._factors = (1.0 - theta * dt * d[:m], -theta * dt * off)
            factor, self._solve = dpttrf, dpttrs
            failure = "implicit system not positive definite at row"
        factors = [a.ctypes.data for a in self._factors]
        factor(n, *factors, info)
        if self._ints[2] > 0:
            raise SolverError(f"{failure} {self._ints[2]}")
        # dgttrs(trans, n, nrhs, dl, d, du, du2, ipiv, b, ldb, info, len(trans)) and
        # dpttrs(n, nrhs, d, e, b, ldb, info), each solving in place in the buffer b
        head, tail = (b"N",) * lu + (n, nrhs, *factors), (n, info) + (1,) * lu
        self._theta = theta
        # the explicit half folded into the solve (see the module docstring)
        self._fold = (1.0 - theta) / theta
        # below theta = 1 the solve writes a spare buffer and the old state becomes the spare
        self.state = np.empty(rows)
        self._spare = np.empty(rows) if theta < 1.0 else self.state
        self._call, self._spare_call = (head + (b.ctypes.data,) + tail
                                        for b in (self.state, self._spare))

    def load(self, u: np.ndarray):
        """Set the state from u: y = u/s without the frozen node on the symmetric path, u
        itself on the general one."""
        if self._scale is None:
            self.state[:] = u
            return
        m = len(self._scale)
        self._outer = u[m:].copy()
        self._lift = self._outer_coupling * u[-1] if m < len(u) else 0.0
        np.divide(u[:m], self._scale, out=self.state)

    def field(self) -> np.ndarray:
        """u of the state; valid until the next advance."""
        if self._scale is None:
            return self.state
        return np.concatenate((self._scale * self.state, self._outer))

    def advance(self):
        theta, x, rhs = self._theta, self.state, self._spare
        if theta < 1.0:
            np.multiply(x, 1.0 / theta, out=rhs)
        if self._lift:
            rhs[-1] += self._lift
        self._solve(*self._spare_call)
        if theta < 1.0:
            if self._fold != 1.0:
                x *= self._fold
            rhs -= x
        self.state, self._spare = rhs, x
        self._call, self._spare_call = self._spare_call, self._call


def step(u: RadialField, profile: DriftProfile, config: SolverConfig) -> RadialField:
    """Advance a field by one time step config.dt: the last frame of solve to t = dt."""
    return solve(u, profile, config, config.dt).final


def step_plan(config: SolverConfig, t_end: float) -> tuple[tuple[tuple[float, int], ...], int]:
    """((step size, steps) segments, snapshot rows) of a solve to t_end >= 0: steps of dt,
    then one shortened final step where t_end is no multiple of dt.  The rows are the frames
    at t = 0, every snapshot_stride steps before t_end, and t_end."""
    if t_end == 0:
        return (), 1
    dt = config.dt
    ratio = t_end / dt
    n_full = int(np.floor(ratio))
    if ratio - n_full > 1 - 1e-9:  # integer step count up to roundoff
        n_full += 1
    segments = ((dt, n_full),) if n_full else ()
    remainder = t_end - n_full * dt
    if remainder > dt * 1e-9:
        segments += ((remainder, 1),)
    steps = sum(count for _, count in segments)
    # the state after the last step is the t_end frame; the one before can be a stride snapshot
    return segments, 2 + max(steps - 1, 0) // config.snapshot_stride


def solve(u0: RadialField, profile: DriftProfile, config: SolverConfig, t_end: float) -> Trajectory:
    """Step the segments of step_plan, with snapshots every snapshot_stride steps.

    Each segment is factored once.  The final snapshot lands exactly at t_end; t_end = 0
    yields the single frame (0, u0), and a plan without a step (0 <= t_end <= dt * 1e-9)
    no kernel.  The (frames x nodes) block is allocated once from the step count.
    """
    grid = u0.grid
    if t_end < 0:
        raise ValueError(f"t_end must be non-negative, got {t_end}")
    dt, stride = config.dt, config.snapshot_stride
    segments, rows = step_plan(config, t_end)
    times = np.empty(rows)
    values = np.empty((rows, grid.num_nodes))
    times[0], values[0] = 0.0, u0.values
    v, k, kernel = u0.values, 0, None
    for size, count in segments:
        stepper = _ThetaStepper(grid, profile, config, size)
        stepper.load(v)
        good_k, good_x, end = k, stepper.state.copy(), k + count
        for k in range(k + 1, end + 1):
            stepper.advance()
            if k % stride == 0 or k == end:
                v = stepper.field()
                if not np.all(np.isfinite(v)):
                    k = _first_bad_step(stepper, good_x, good_k, k)
                    raise DivergenceError(f"non-finite values at step {k} "
                                          f"(t = {min(k * dt, t_end):g})")
                good_k, good_x = k, stepper.state.copy()
                if k % stride == 0 and k // stride < rows - 1:  # the last row is t_end's
                    times[k // stride], values[k // stride] = k * dt, v
        kernel = stepper.kernel
    times[-1], values[-1] = t_end, v
    return Trajectory(grid, times, values, profile, config, kernel)


def _first_bad_step(stepper: _ThetaStepper, x: np.ndarray, k: int, k_bad: int) -> int:
    """First non-finite step after the finite state x at step k; step k_bad is non-finite.

    Non-finite values never become finite again: the factors and scales are
    finite, so every product, sum and division with a NaN or Inf (0*Inf = NaN)
    stays non-finite.  Replaying the same arithmetic from x, copied into the
    stepper's state, therefore meets the step a check after every step would have named.
    """
    stepper.state[:] = x
    for k in range(k + 1, k_bad):
        stepper.advance()
        if not np.all(np.isfinite(stepper.field())):
            return k
    return k_bad

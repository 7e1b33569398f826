import ctypes
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from driftlab import solver
from driftlab.grid import RadialField, RadialGrid, quadrature_weights
from driftlab.oracles import GaussianData, heat_solution
from driftlab.profiles import Linear, LogCorrected, PowerLaw, Tabulated, Zero
from driftlab.solver import (
    DivergenceError,
    SolverConfig,
    SolverError,
    Trajectory,
    operator_diagonals,
    solve,
    step,
)

PROFILES = [PowerLaw(3.0, -1.0, 1.0), LogCorrected(n_dim=2, alpha=2.0), Linear(), Zero()]


def _grid(n_dim=2, r_max=10.0, nodes=201):
    return RadialGrid(r_max, nodes, n_dim)


def apply_tridiagonal(lower, diag, upper, v):
    """The product of the tridiagonal rows (lower, diag, upper) with v: the reference L u."""
    out = diag * v
    out[1:] += lower[1:] * v[:-1]
    out[:-1] += upper[:-1] * v[1:]
    return out


# --- the spatial operator L u = du/dt, centered differences -----------------


def test_rhs_constant_field_is_zero():
    g = _grid()
    c = RadialField(g, np.full(g.num_nodes, 4.2))
    for p in PROFILES:
        out = apply_tridiagonal(*operator_diagonals(g, p, "centered", "dirichlet_frozen"),
                                c.values)
        assert np.max(np.abs(out)) <= 1e-12


def test_rhs_quadratic_in_three_dimensions():
    # Lap(r^2) = 2n = 6; centered differences are exact on quadratics
    g = _grid(n_dim=3)
    u = RadialField(g, g.nodes**2)
    out = apply_tridiagonal(*operator_diagonals(g, Zero(), "centered", "dirichlet_frozen"),
                            u.values)
    np.testing.assert_allclose(out[1:-1], 6.0, rtol=1e-10)


def test_rhs_origin_symmetry_limit():
    # at r = 0 the operator is n * u_rr(0); for u = r^2, n = 2 this is 4
    g = _grid(n_dim=2)
    u = RadialField(g, g.nodes**2)
    out = apply_tridiagonal(*operator_diagonals(g, Zero(), "centered", "dirichlet_frozen"),
                            u.values)
    assert out[0] == pytest.approx(4.0, rel=1e-10)


def test_rhs_frozen_outer_row_is_zero():
    g = _grid()
    u = RadialField(g, np.exp(-g.nodes))
    out = apply_tridiagonal(*operator_diagonals(g, Linear(), "centered", "dirichlet_frozen"),
                            u.values)
    assert out[-1] == 0.0


# --- stepping -------------------------------------------------------------


@pytest.mark.parametrize("theta,advection", [(1.0, "upwind"), (0.5, "centered"),
                                             (0.75, "centered")])
@pytest.mark.parametrize("outer_bc", ["dirichlet_frozen", "neumann"])
def test_constants_are_stationary(theta, advection, outer_bc):
    g = _grid()
    c = RadialField(g, np.full(g.num_nodes, 2.5))
    cfg = SolverConfig(dt=1e-3, theta=theta, advection=advection, outer_bc=outer_bc)
    for p in PROFILES:
        out = step(c, p, cfg)
        assert np.max(np.abs(out.values - 2.5)) <= 2.5 * 1e-12


def test_step_matches_heat_oracle():
    g = GaussianData(1.0, 2)
    grid = RadialGrid(12.0, 601, 2)
    cfg = SolverConfig(dt=1e-3, theta=0.5, snapshot_stride=10**9)
    traj = solve(g.field(grid), Zero(), cfg, 0.5)
    r = grid.nodes
    mask = r <= 9.6
    exact = heat_solution(g, r[mask], 0.5)
    err = np.max(np.abs(traj.final.values[mask] - exact))
    assert err < 2e-5  # O(h^2 + dt^2) at h = 0.02


def test_implicit_upwind_matrix_signs():
    # I - dt*L must be an M-matrix with unit row sums for every profile
    dt = 0.05
    for p in PROFILES + [Tabulated([0.0, 2.0, 10.0], [0.0, -1.0, 3.0])]:
        for n in (1, 2, 3, 5):
            g = _grid(n_dim=n, nodes=101)
            lo, d, up = operator_diagonals(g, p, "upwind", "dirichlet_frozen")
            assert np.all(lo[1:] >= 0) and np.all(up[:-1] >= 0)
            diag = 1.0 - dt * d
            assert np.all(diag > 0)
            rows = diag - dt * lo - dt * up  # row sums of I - dt*L
            np.testing.assert_allclose(rows, 1.0, rtol=1e-13)


@settings(max_examples=25, deadline=None)
@given(data=st.lists(st.floats(0.0, 5.0), min_size=51, max_size=51),
       idx=st.integers(0, 3))
def test_maximum_principle_upwind(data, idx):
    g = RadialGrid(5.0, 51, 2)
    u = RadialField(g, np.array(data))
    cfg = SolverConfig(dt=0.02, theta=1.0, advection="upwind")
    out = u
    for _ in range(3):
        out = step(out, PROFILES[idx], cfg)
    lo, hi = np.min(u.values), np.max(u.values)
    tol = 1e-12 * max(1.0, hi)
    assert np.min(out.values) >= lo - tol
    assert np.max(out.values) <= hi + tol


def test_monotonicity_preserved_upwind():
    g = _grid()
    u0 = GaussianData(1.0, 2).field(g)
    cfg = SolverConfig(dt=5e-3, theta=1.0, advection="upwind", snapshot_stride=50)
    for p in PROFILES:
        traj = solve(u0, p, cfg, 1.0)
        for row in traj.values:
            assert np.all(np.diff(row) <= 1e-12)


def test_positivity_and_center_positive():
    g = _grid(nodes=101)
    bump = RadialField(g, np.where(g.nodes < 2.0, (2.0 - g.nodes) ** 2, 0.0))
    cfg = SolverConfig(dt=5e-3, theta=1.0, advection="upwind", snapshot_stride=10)
    traj = solve(bump, PowerLaw(3.0, -1.0, 1.0), cfg, 0.5)
    for t, row in zip(traj.times, traj.values):
        assert np.min(row) >= -1e-14
        if t > 0:
            assert row[0] > 0


def test_sup_decreasing_for_pure_diffusion():
    g = _grid(nodes=401)
    u0 = RadialField(g, np.maximum(1.0 - g.nodes, 0.0))
    cfg = SolverConfig(dt=2e-3, theta=1.0, advection="upwind", snapshot_stride=25)
    traj = solve(u0, Zero(), cfg, 0.5)
    sups = traj.values.max(axis=1)
    assert np.all(np.diff(sups) <= 1e-13)


def test_linearity_of_solve():
    g = _grid(nodes=151)
    u0 = GaussianData(1.0, 2).field(g)
    v0 = RadialField(g, np.exp(-((g.nodes - 2.0) ** 2)))
    mix = RadialField(g, 2.0 * u0.values - 0.5 * v0.values)
    cfg = SolverConfig(dt=5e-3, theta=0.5, snapshot_stride=20)
    p = PowerLaw(3.0, -1.0, 1.0)
    tm, ta, tb = (solve(f, p, cfg, 0.4) for f in (mix, u0, v0))
    for fm, fa, fb in zip(tm.values, ta.values, tb.values):
        lin = 2.0 * fa - 0.5 * fb
        assert np.max(np.abs(fm - lin)) <= 1e-12 * max(1.0, np.max(np.abs(lin)))


# --- trajectory bookkeeping ------------------------------------------------


def test_zero_horizon_returns_initial_frame():
    g = _grid(nodes=51)
    u0 = GaussianData(1.0, 2).field(g)
    traj = solve(u0, Zero(), SolverConfig(dt=0.1), 0.0)
    assert len(traj) == 1
    assert traj.times[0] == 0.0
    np.testing.assert_array_equal(traj.values[0], u0.values)


def test_final_snapshot_exactly_at_t_end():
    g = _grid(nodes=51)
    u0 = GaussianData(1.0, 2).field(g)
    cfg = SolverConfig(dt=1e-3, snapshot_stride=3)
    traj = solve(u0, Linear(), cfg, 0.0105)  # shortened final step
    assert traj.times[-1] == 0.0105
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[0] == 0.0


def test_snapshot_stride():
    g = _grid(nodes=51)
    u0 = GaussianData(1.0, 2).field(g)
    cfg = SolverConfig(dt=0.01, snapshot_stride=5)
    traj = solve(u0, Zero(), cfg, 0.2)
    np.testing.assert_allclose(traj.times, [0.0, 0.05, 0.10, 0.15, 0.20], atol=1e-12)


def _growing_operator(monkeypatch):
    """Patch L to (1 - 2^-15) I: a backward Euler step of dt = 1 multiplies u by 2^15 exactly."""
    def operator(grid, profile, advection, outer_bc):
        zeros = np.zeros(grid.num_nodes)
        return zeros, np.full(grid.num_nodes, 1.0 - 2.0**-15), zeros

    monkeypatch.setattr(solver, "operator_diagonals", operator)


def test_divergence_reported_with_step_index(monkeypatch):
    # an implicit factor that grows u must blow up, not return junk: max u = 2^(10 + 15k)
    # passes the largest double at step 68
    _growing_operator(monkeypatch)
    g = RadialGrid(1.0, 101, 2)
    u0 = RadialField(g, 2.0**10 * GaussianData(1.0, 2).field(g).values)
    # finiteness is checked per snapshot stride and the first bad step found
    # by replay: every stride must name the step a per-step check names
    for stride in (1, 7, 67, 68, 10**9):
        cfg = SolverConfig(dt=1.0, theta=1.0, snapshot_stride=stride)
        with pytest.raises(DivergenceError, match=r"at step 68 \(t = 68\)$"):
            solve(u0, Zero(), cfg, 200.0)
        # a shortened final step is checked and named as the steps before it: 2^978 is
        # 2^1023 after three steps of dt = 1, and a step of 0.75 multiplies it by about 4
        with pytest.raises(DivergenceError, match=r"at step 4 \(t = 3\.75\)$"):
            solve(RadialField(g, np.full(g.num_nodes, 2.0**978)), Zero(), cfg, 3.75)


def test_crank_nicolson_replay_names_the_step_a_per_step_check_names(monkeypatch):
    # theta < 1 steps alternate between the stepper's two buffers; a replay from the last
    # finite snapshot must still meet the step that stride 1 meets.  A Crank-Nicolson step
    # of the growing operator multiplies u by about 3, past the largest double at step 640
    _growing_operator(monkeypatch)
    g = RadialGrid(1.0, 101, 2)
    u0 = RadialField(g, 2.0**10 * GaussianData(1.0, 2).field(g).values)
    named = set()
    for stride in (1, 2, 7, 10**9):
        with pytest.raises(DivergenceError) as exc:
            solve(u0, Zero(), SolverConfig(dt=1.0, theta=0.5, snapshot_stride=stride), 1000.0)
        named.add(str(exc.value))
    assert named == {"non-finite values at step 640 (t = 640)"}


def test_step_is_one_step_of_solve(monkeypatch):
    g = _grid()
    u0 = GaussianData(1.0, 2).field(g)
    for cfg in (SolverConfig(dt=1e-2), SolverConfig(dt=1e-2, theta=1.0, advection="upwind")):
        one = solve(u0, PROFILES[0], cfg, cfg.dt).values[-1]
        assert np.array_equal(step(u0, PROFILES[0], cfg).values, one)
    # a diverging step is reported as solve reports it: 2^15 * 1e305 is no double
    _growing_operator(monkeypatch)
    with pytest.raises(DivergenceError, match=r"at step 1 \(t = 1\)$"):
        step(RadialField(g, np.full(g.num_nodes, 1e305)), Zero(), SolverConfig(dt=1.0, theta=1.0))


def _reference_solve(u0, profile, cfg, n_full, t_end):
    """The theta-scheme as a plain loop: banded I - theta*dt*L solved afresh every step.

    Returns the snapshot times and the (frames x nodes) values.
    """
    lo, d, up = operator_diagonals(u0.grid, profile, cfg.advection, cfg.outer_bc)

    def advance(v, dt):
        ab = np.zeros((3, len(v)))
        ab[0, 1:] = -cfg.theta * dt * up[:-1]
        ab[1, :] = 1.0 - cfg.theta * dt * d
        ab[2, :-1] = -cfg.theta * dt * lo[1:]
        w = (1.0 - cfg.theta) * dt
        rhs = v + apply_tridiagonal(w * lo, w * d, w * up, v) if cfg.theta < 1.0 else v
        return solve_banded((1, 1), ab, rhs)

    v, times, frames = u0.values, [0.0], [u0.values]
    for k in range(1, n_full + 1):
        v = advance(v, cfg.dt)
        if k % cfg.snapshot_stride == 0:
            times.append(k * cfg.dt)
            frames.append(v)
    if t_end - n_full * cfg.dt > 1e-12:  # a shortened final step
        v = advance(v, t_end - n_full * cfg.dt)
    elif n_full % cfg.snapshot_stride == 0:  # the last stride snapshot is the t_end frame
        times.pop()
        frames.pop()
    times.append(t_end)
    frames.append(v)
    return np.array(times), np.array(frames)


# (snapshot_stride, t_end, full steps of dt = 1e-2): stride 1; a stride dividing the
# 30 full steps and one leaving a remainder, each with and without a shortened final
# step; a stride beyond the step count
FRAME_LAYOUTS = [(1, 0.305, 30), (5, 0.305, 30), (5, 0.3, 30), (7, 0.305, 30), (7, 0.3, 30),
                 (50, 0.305, 30)]


# the symmetric path and the banded reference round differently: at most a few ulps of
# max|u| per step; measured over FRAME_LAYOUTS' 31 steps, 6.1e-15 at theta = 1/2,
# 4.0e-15 at 0.75 and 3.2e-15 at 1
SYMMETRIC_PATH_RTOL = 1e-14


@pytest.mark.parametrize("theta,advection", [(0.5, "centered"), (1.0, "upwind"),
                                             (0.75, "centered")])
@pytest.mark.parametrize("outer_bc", ["dirichlet_frozen", "neumann"])
def test_solve_matches_banded_reference_bitwise(theta, advection, outer_bc):
    # times bitwise; values to roundoff, since PowerLaw(3, -1) takes the symmetric path
    g = _grid(nodes=101)
    u0 = GaussianData(1.0, 2).field(g)
    for stride, t_end, n_full in FRAME_LAYOUTS:
        cfg = SolverConfig(dt=1e-2, theta=theta, advection=advection, outer_bc=outer_bc,
                           snapshot_stride=stride)
        traj = solve(u0, PowerLaw(3.0, -1.0, 1.0), cfg, t_end)
        times, values = _reference_solve(u0, PowerLaw(3.0, -1.0, 1.0), cfg, n_full, t_end)
        assert traj.kernel == "ldlt"
        assert np.array_equal(traj.times, times), (stride, t_end)
        err = np.max(np.abs(traj.values - values)) / np.max(np.abs(values))
        assert err <= SYMMETRIC_PATH_RTOL, (stride, t_end, err)


# operators the symmetric path refuses: a zero coupling (lower[1] = 0), a negative one
# (cell Peclet number 10), and scales spanning e^911 > e^MAX_LOG_SCALE_RANGE = e^355
GENERAL_PATH_CASES = [(Zero(), 3, 10.0, 101), (PowerLaw(50.0, 0.0), 2, 10.0, 51),
                      (Linear(), 2, 60.0, 6001)]


# a Crank-Nicolson step folds its explicit half into the solve, 2 A^-1 x - x, where the
# reference multiplies by I + dt/2 L: 1.72e-14 of max|u| measured on Linear() at 6001 nodes
FOLDED_STEP_RTOL = 5e-14


@pytest.mark.parametrize("profile,n_dim,r_max,nodes", GENERAL_PATH_CASES)
@pytest.mark.parametrize("outer_bc", ["dirichlet_frozen", "neumann"])
def test_general_path_matches_banded_reference_bitwise(profile, n_dim, r_max, nodes, outer_bc):
    # times bitwise; values bitwise at theta = 1, to roundoff at theta = 1/2
    g = RadialGrid(r_max, nodes, n_dim)
    u0 = GaussianData(1.0, n_dim).field(g)
    for theta in (0.5, 1.0):
        for stride, t_end, n_full in FRAME_LAYOUTS[:3]:
            cfg = SolverConfig(dt=1e-2, theta=theta, outer_bc=outer_bc, snapshot_stride=stride)
            traj = solve(u0, profile, cfg, t_end)
            times, values = _reference_solve(u0, profile, cfg, n_full, t_end)
            assert traj.kernel == "lu"
            assert np.array_equal(traj.times, times), (theta, stride, t_end)
            if theta == 1.0:
                assert np.array_equal(traj.values, values), (stride, t_end)
            else:
                err = np.max(np.abs(traj.values - values)) / np.max(np.abs(values))
                assert err <= FOLDED_STEP_RTOL, (stride, t_end, err)
                if outer_bc == "dirichlet_frozen":  # the frozen node stays exactly frozen
                    assert np.all(traj.values[:, -1] == u0.values[-1])


def _lapack_int(address):
    """The LAPACK integer stored at an address."""
    return int(np.frombuffer(ctypes.string_at(address, solver.LAPACK_INT.itemsize),
                             solver.LAPACK_INT)[0])


def _addresses(*arrays):
    return [a.ctypes.data for a in arrays]


def test_loaded_lapack_matches_scipy_linalg_bitwise():
    from scipy.linalg import lapack

    rng = np.random.default_rng(7)
    N = 64
    ints = np.array([N, 1, 0], dtype=solver.LAPACK_INT)  # n (also ldb), nrhs, info
    n, nrhs, info = (ints.ctypes.data + k * ints.itemsize for k in range(3))
    dl, du = rng.uniform(-1.0, 1.0, N - 1), rng.uniform(-1.0, 1.0, N - 1)
    d = rng.uniform(-0.1, 0.1, N)  # off-diagonals dominate: partial pivoting swaps rows
    b = rng.normal(size=N)
    ours = (dl.copy(), d.copy(), du.copy(), np.empty(N - 2), np.empty(N, dtype=solver.LAPACK_INT))
    solver.dgttrf(n, *_addresses(*ours), info)
    ref = lapack.dgttrf(dl, d, du)
    assert ints[2] == ref[-1] == 0
    assert np.any(ours[4] != np.arange(1, N + 1)), "no row was pivoted"
    for a, r in zip(ours, ref):
        assert np.array_equal(a, r)
    x = b.copy()
    solver.dgttrs(b"N", n, nrhs, *_addresses(*ours, x), n, info, 1)
    x_ref = lapack.dgttrs(*ref[:-1], b)
    assert ints[2] == x_ref[1] == 0
    assert np.array_equal(x, x_ref[0])

    # a zero column: a zero pivot in row 6
    singular = (np.zeros(N - 1), np.where(np.arange(N) == 5, 0.0, 1.0), np.zeros(N - 1),
                np.empty(N - 2), np.empty(N, dtype=solver.LAPACK_INT))
    solver.dgttrf(n, *_addresses(*singular), info)
    assert ints[2] == lapack.dgttrf(*singular[:3])[-1] == 6

    # a random symmetric positive definite tridiagonal: diagonal dominance
    e = rng.uniform(-1.0, 1.0, N - 1)
    d = 2.0 + np.abs(np.r_[e, 0.0]) + np.abs(np.r_[0.0, e]) + rng.uniform(0.0, 1.0, N)
    ours = (d.copy(), e.copy())
    solver.dpttrf(n, *_addresses(*ours), info)
    ref = lapack.dpttrf(d, e)
    assert ints[2] == ref[-1] == 0
    for a, r in zip(ours, ref):
        assert np.array_equal(a, r)
    x = b.copy()
    solver.dpttrs(n, nrhs, *_addresses(*ours, x), n, info)
    x_ref = lapack.dpttrs(*ref[:-1], b)
    assert ints[2] == x_ref[1] == 0
    assert np.array_equal(x, x_ref[0])

    # not positive definite: a negative pivot in row 9
    indefinite = (np.where(np.arange(N) == 8, -1.0, 2.0), np.zeros(N - 1))
    solver.dpttrf(n, *_addresses(*indefinite), info)
    assert ints[2] == lapack.dpttrf(*indefinite)[-1] == 9


def test_lapack_without_the_routines_raises_import_error(monkeypatch):
    class NoSymbols:
        pass

    monkeypatch.setattr(solver.ctypes, "CDLL", lambda path: NoSymbols())
    with pytest.raises(ImportError, match="scipy_dpttrf_64_.*dgttrs_$"):
        solver._bind_lapack()


def test_solve_factors_once_per_step_size(monkeypatch):
    calls = []

    def counting(name, factorize):
        def factor(n, *args):
            calls.append((name, _lapack_int(n)))  # the rows of the factored system
            return factorize(n, *args)
        return factor

    for name in ("dgttrf", "dpttrf"):
        monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
    cfg = SolverConfig(dt=1e-2, snapshot_stride=5)
    # psi = 0 centered: symmetric in n = 2, where the frozen outer node leaves the
    # system; lower[1] = 0 in n = 3
    for n_dim, call in ((2, ("dpttrf", 50)), (3, ("dgttrf", 51))):
        u0 = GaussianData(1.0, n_dim).field(_grid(n_dim=n_dim, nodes=51))
        calls.clear()
        solve(u0, Zero(), cfg, 0.2)
        assert calls == [call]
        calls.clear()
        solve(u0, Zero(), cfg, 0.205)  # shortened final step: its own factorization
        assert calls == [call, call]
        calls.clear()
        solve(u0, Zero(), cfg, 0.005)  # only a shortened step: dt itself is never factored
        assert calls == [call]
        calls.clear()
        no_step = solve(u0, Zero(), cfg, 1e-12)  # a plan with no step: two frames, no kernel
        assert calls == [] and no_step.kernel is None
        assert no_step.times.tolist() == [0.0, 1e-12]
        assert np.array_equal(no_step.values, np.stack([u0.values, u0.values]))


def test_crank_nicolson_makes_one_solve_per_step(monkeypatch):
    calls = []

    def counting(name, kernel_solve):
        def solve_once(*args, **kwargs):
            calls.append(name)
            return kernel_solve(*args, **kwargs)
        return solve_once

    for name in ("dgttrs", "dpttrs"):
        monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
    cfg = SolverConfig(dt=1e-2, theta=0.5, snapshot_stride=5)
    # psi = 0 centered: the symmetric kernel in n = 2, the general one in n = 3
    for n_dim, name, kernel in ((2, "dpttrs", "ldlt"), (3, "dgttrs", "lu")):
        u0 = GaussianData(1.0, n_dim).field(_grid(n_dim=n_dim, nodes=51))
        calls.clear()
        assert solve(u0, Zero(), cfg, 0.2).kernel == kernel
        assert calls == [name] * 20
        calls.clear()
        solve(u0, Zero(), cfg, 0.205)  # 20 full steps and a shortened final one
        assert calls == [name] * 21


def test_zero_pivot_raises_solver_error(monkeypatch):
    # I - theta*dt*L with a zero row: theta*dt*diag = 1 exactly at node 5
    def singular_operator(grid, profile, advection, outer_bc):
        d = np.zeros(grid.num_nodes)
        d[5] = 2.0
        return np.zeros(grid.num_nodes), d, np.zeros(grid.num_nodes)

    monkeypatch.setattr(solver, "operator_diagonals", singular_operator)
    g = _grid(nodes=51)
    u0 = GaussianData(1.0, 2).field(g)
    cfg = SolverConfig(dt=0.5, theta=1.0)
    with pytest.raises(SolverError, match="zero pivot in row 6"):
        solve(u0, Zero(), cfg, 1.0)
    with pytest.raises(SolverError, match="zero pivot"):
        step(u0, Zero(), cfg)


def test_consistency_order_against_heat_oracle():
    # pure diffusion against the closed-form Gaussian: simultaneous halving of
    # h and dt with Crank-Nicolson must shrink the max error at order ~2
    g = GaussianData(1.0, 2)
    errors = []
    for nodes, dt in [(151, 4e-3), (301, 2e-3), (601, 1e-3)]:
        grid = RadialGrid(12.0, nodes, 2)
        cfg = SolverConfig(dt=dt, theta=0.5, snapshot_stride=10**9)
        traj = solve(g.field(grid), Zero(), cfg, 0.5)
        mask = grid.nodes <= 9.6
        exact = heat_solution(g, grid.nodes[mask], 0.5)
        errors.append(float(np.max(np.abs(traj.final.values[mask] - exact))))
    assert errors[0] > errors[1] > errors[2]
    order = 0.5 * np.log2(errors[0] / errors[2])
    assert order >= 1.9


def test_neumann_boundary_conserves_mass_at_second_order():
    # reflecting outer wall: the plain mass is conserved by the continuum
    # equation; the discrete drift must shrink like h^2
    g = GaussianData(1.0, 2)
    drifts = []
    for nodes, dt in [(201, 4e-3), (401, 2e-3)]:
        grid = RadialGrid(10.0, nodes, 2)
        cfg = SolverConfig(dt=dt, theta=0.5, outer_bc="neumann", snapshot_stride=100)
        traj = solve(g.field(grid), Zero(), cfg, 4.0)
        masses = traj.values @ quadrature_weights(grid, grid.r_max)
        drifts.append(float(np.max(np.abs(masses - masses[0])) / masses[0]))
    assert drifts[0] < 5e-4
    assert drifts[0] / drifts[1] > 3.0


def test_trajectory_validation():
    g = _grid(nodes=51)
    f = GaussianData(1.0, 2).field(g)
    cfg = SolverConfig(dt=0.1)
    with pytest.raises(ValueError):
        Trajectory(g, [0.1], f.values[None, :], Zero(), cfg)  # must start at 0
    with pytest.raises(ValueError):
        Trajectory(g, [0.0, 0.0], np.stack([f.values] * 2), Zero(), cfg)  # strictly increasing
    with pytest.raises(ValueError):
        Trajectory(g, [], np.empty((0, g.num_nodes)), Zero(), cfg)
    with pytest.raises(ValueError):
        Trajectory(g, [0.0, 0.1], f.values[None, :], Zero(), cfg)  # one row per time
    with pytest.raises(ValueError):
        Trajectory(g, [0.0], f.values[None, :-1], Zero(), cfg)  # one column per node


def test_trajectory_is_read_only():
    g = _grid(nodes=51)
    traj = solve(GaussianData(1.0, 2).field(g), Zero(), SolverConfig(dt=0.1), 0.3)
    assert traj.values.shape == (len(traj), g.num_nodes)
    with pytest.raises(ValueError):
        traj.values[1, 0] = 2.0
    with pytest.raises(ValueError):
        traj.times[0] = 1.0
    with pytest.raises(AttributeError):
        traj.values = np.zeros_like(traj.values)


def test_trajectory_and_field_unpickle_validated_and_read_only():
    g = _grid(nodes=51)
    traj = solve(GaussianData(1.0, 2).field(g), Zero(), SolverConfig(dt=0.1), 0.3)
    back = pickle.loads(pickle.dumps(traj))
    assert np.array_equal(back.times, traj.times) and np.array_equal(back.values, traj.values)
    assert not back.times.flags.writeable and not back.values.flags.writeable
    assert back.kernel == traj.kernel and back.grid == g and back.config == traj.config
    assert not back.grid.nodes.flags.writeable  # the grid's cached nodes are rebuilt, not copied
    final = pickle.loads(pickle.dumps(traj.final))
    assert np.array_equal(final.values, traj.values[-1]) and not final.values.flags.writeable
    with pytest.raises(AttributeError):
        back.values = np.zeros_like(traj.values)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, theta=1.5)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, advection="weno")
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, outer_bc="absorbing")
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, snapshot_stride=0)

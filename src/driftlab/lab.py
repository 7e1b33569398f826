"""Experiment execution: single runs, parameter sweeps, verification suites.

simulate() is the one place a Scenario becomes a Trajectory.  run()
classifies the drift, simulates, evaluates diagnostics and invariant checks,
cross-checks the predicted asymptotics against the observed ones, and writes
frames.csv / diagnostics.csv / report.json.  For a lift-off with finite
averaged growth L > n it also extrapolates the center's relaxation law to
t = infinity, the limit in which the plateau identity h = I(0)/int phi holds.
verify() runs the named verification suites on reference runs declared once
in this module, making each run once per call, in parallel, however many read it.
Its runs and sweep()'s rows are made by _fork_map: verify's runs in this process
and in child processes forked directly beside it, sweep()'s rows each in a child
of its own.  A child sends its result back through its own pipe: no process
pool, no thread and no multiprocessing import.
A suite is the runs it reads plus a checks function of those runs, in order; a
SuiteReport holds each check's pass/fail and measured numbers, and run()'s
report.json resolution block of each run read.  Each discrete guarantee is
measured once, by field_measures or series_measures, for run()'s flags and
the suites alike.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .grid import RadialField, RadialGrid
from .oracles import GaussianData, liftoff_limit, mass_growth_check, ou_solution
from .profiles import Linear, LogCorrected, PowerLaw, Tabulated, Zero
from .scenario import Scenario, ScenarioError, apply_parameter
from .solver import SolverConfig, Trajectory, solve, step
from .weights import (
    ClassificationResult,
    DiagnosticSeries,
    Verdict,
    WeightFunction,
    classify,
    diagnostics,
    mass_weights,
    phi_tail_bound,
    predict_liftoff_level,
)

# observed-vs-predicted thresholds for the verdict cross-check
LIFTOFF_LEVEL_RTOL = 0.02       # plateau within 2% of the predicted level
DECAY_SUP_FRACTION = 0.1        # sup must drop below 10% of its initial value
CONSERVATION_DRIFT_RTOL = 1e-3  # full-weight I_R drift budget
MONOTONE_MASS_RTOL = 1e-6       # per-frame slack of the positive-part I_R
POSITIVITY_ATOL = 1e-12         # most negative value, relative to max |u0|
MAX_PRINCIPLE_ATOL = 1e-12      # excursion outside the datum's range
MONOTONE_ATOL = 1e-10           # radial increment; 1e-6 off the certified scheme
RELAXATION_MIN_FRAMES = 3       # frames in t >= t_end/2 needed to fit the relaxation law
RELAXATION_RATE_ATOL = 0.05     # free-fit relaxation rate against (L - n)/2
RELAXATION_RATE_GRID = np.arange(1, 4001) * 1e-3  # rates p scanned by the free fit


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# output files


def write_frames_csv(path, traj: Trajectory) -> None:
    # one line "t,r,u" per node, formatted with one %-operation per frame; "\0" stands for t
    template = "".join(f"\0,{_fmt(ri)},%.17g\n" for ri in traj.grid.nodes.tolist())
    with open(path, "w") as fh:
        fh.write("t,r,u\n")
        for t, row in zip(traj.times.tolist(), traj.values):
            fh.write(template.replace("\0", _fmt(t)) % tuple(row.tolist()))


def write_diagnostics_csv(path, series: DiagnosticSeries) -> None:
    with open(path, "w") as fh:
        fh.write("t,I_R,sup_u,center_u,mass\n")
        for k in range(len(series)):
            fh.write(
                f"{_fmt(series.times[k])},{_fmt(series.weighted_mass[k])},"
                f"{_fmt(series.sup[k])},{_fmt(series.center[k])},{_fmt(series.mass[k])}\n"
            )


def _jsonable(x):
    """x with numpy scalars as Python ones and non-finite floats as "inf", "-inf", "nan"."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return list(map(_jsonable, x))
    x = x.item() if isinstance(x, np.generic) else x
    return str(x) if isinstance(x, float) and not math.isfinite(x) else x


def write_json(path: Path, payload: dict) -> None:
    """Write one JSON artifact, creating its directory; float() reads back a non-finite value."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# single run


@dataclass
class RunReport:
    """Everything run() measured, plus the classification it started from."""

    name: str
    classification: ClassificationResult
    series: DiagnosticSeries
    weight_kind: str
    h_pred: float | None
    h_tail_bound: float | None
    h_obs: float | None
    discrepancy: float | None
    relaxation_exponent: float | None
    h_limit: float | None
    final_sup: float
    final_center: float
    verdict_behavior_match: bool | None
    converged: bool
    invariants: dict
    resolution: dict
    elapsed_seconds: float

    def to_dict(self) -> dict:
        """report.json: the fields in order, classification flattened, series left out."""
        c = self.classification.to_dict()
        c["classifier_note"] = c.pop("note")
        return {"name": self.name} | c | {f.name: getattr(self, f.name) for f in fields(self)
                                          if f.name not in ("name", "classification", "series")}


def field_measures(values: np.ndarray) -> dict:
    """Violation of each discrete guarantee by a (frames x nodes) block whose row 0 is u0.

    positivity: -min u / max|u0|, inf once a frame after t = 0 has no positive value (a zero
    center alone is none: a datum positive far out reaches it below the double range);
    max_principle: excursion outside [min u0, max u0]; radial_monotonicity: largest radial
    increment; both / max(1, max|u0|).  No temporary of the block's size.
    """
    v0 = values[0]
    amp = float(np.max(np.abs(v0)))
    lo, hi = float(v0.min()), float(v0.max())
    vmin, vmax = float(values.min()), float(values.max())
    scale = max(1.0, amp)
    return {
        "positivity": (math.inf if np.any(values[1:].max(axis=1) <= 0)
                       else -vmin / (amp or 1.0)),
        "max_principle": max(lo - vmin, vmax - hi) / scale,
        "radial_monotonicity": max(float(np.diff(row).max()) for row in values) / scale,
    }


def series_measures(series: DiagnosticSeries) -> dict:
    """Conservation and decay measures of a diagnostic series; a rise over one frame is -inf.

    weighted_mass_drift: max |I_R - I_R(0)| / |I_R(0)|; weighted_mass_rise: largest framewise
    increase of I_R relative to |I_R|; sup_rise: of sup u; sup_fraction: min sup u / |sup u0|.
    """
    iw, sup = series.weighted_mass, series.sup
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return {
            "weighted_mass_drift": float(np.max(np.abs(iw - iw[0])) / abs(iw[0])),
            "weighted_mass_rise": float(np.max((iw[1:] - iw[:-1]) / np.abs(iw[:-1]),
                                               initial=-math.inf)),
            "sup_rise": float(np.max(np.diff(sup), initial=-math.inf)),
            "sup_fraction": float(np.min(sup) / abs(sup[0])),
        }


def _invariant_flags(traj: Trajectory, u0: RadialField, series: DiagnosticSeries,
                     lifts_off: bool | None) -> dict:
    """Pass/fail flags for the invariants this run can certify; None = not applicable."""
    certified = traj.config.certified
    v0 = u0.values
    m = field_measures(traj.values)
    s = series_measures(series)
    weighted = lifts_off is not None and abs(series.weighted_mass[0]) >= 1e-300
    return {
        "positivity": (m["positivity"] <= POSITIVITY_ATOL
                       if np.all(v0 >= 0) and np.any(v0 > 0) else None),
        "radial_monotonicity": (m["radial_monotonicity"] <= (MONOTONE_ATOL if certified else 1e-6)
                                if u0.is_radially_nonincreasing() else None),
        "max_principle": m["max_principle"] <= MAX_PRINCIPLE_ATOL if certified else None,
        "weighted_mass_conserved": (s["weighted_mass_drift"] <= CONSERVATION_DRIFT_RTOL
                                    if weighted and lifts_off else None),
        "weighted_mass_monotone": (s["weighted_mass_rise"] <= MONOTONE_MASS_RTOL
                                   if weighted and not lifts_off
                                   and u0.is_radially_nonincreasing() else None),
    }


def _convergence_flag(traj: Trajectory, series: DiagnosticSeries, sup0: float) -> bool:
    """Has the center value settled: flat in space (vs. R/2) and in time (last 10%)."""
    final = traj.final.values
    r = traj.grid.nodes
    k_half = int(np.argmin(np.abs(r - series.radius / 2)))
    flat_space = abs(final[0] - final[k_half]) < 1e-4 * max(sup0, 1e-300)
    t_end = series.times[-1]
    t_cut = t_end - 0.1 * t_end
    k0 = int(np.searchsorted(series.times, t_cut))
    k0 = min(max(k0, 0), len(series) - 2)
    dt_tail = series.times[-1] - series.times[k0]
    if dt_tail <= 0:
        return False
    slope = abs(series.center[-1] - series.center[k0]) / dt_tail
    return bool(flat_space and slope < 1e-5 * max(sup0, 1.0))


def plateau_gap(level: float, h_pred: float) -> float | None:
    """|level - h_pred| / |h_pred|, the relative gap to the predicted plateau."""
    return abs(level - h_pred) / abs(h_pred) if h_pred else None


def relaxation_exponent(result: ClassificationResult, n_dim: int) -> float | None:
    """Rate p of the center's algebraic relaxation u(0, t) - h ~ C t^-p.

    A lift-off with finite averaged growth L > n has phi ~ r^-L at infinity.
    By time t the solution has equilibrated to a flat level u(0, t) inside
    r ~ sqrt(t) and is still near its (decaying) datum outside, so the
    conserved weighted mass gives u(0, t) * int_{|x| < sqrt t} phi ~= I(0) and
    u(0, t) - h ~ int_{|x| > sqrt t} phi ~ t^-(L-n)/2: p = (L - n)/2.  The
    verify suite `relaxation` checks this rate against a free fit of long runs.
    None for any other verdict: L = inf (linear or constant drift) relaxes
    exponentially, the critical lift-off L = n has no algebraic rate, and decay
    has no plateau.
    """
    L = result.growth_limit
    if result.verdict is not Verdict.LIFT_OFF or not math.isfinite(L):
        return None
    return (L - n_dim) / 2


def relaxation_fit(times, center, rates=RELAXATION_RATE_GRID) -> tuple[float, float] | None:
    """(p, h) of the least-squares fit center = h + C t^-p over the frames with t >= t_end/2.

    For each rate p in rates, h and C are a straight-line regression on x = t^-p in
    closed form (a first np.linalg.lstsq call initializes numpy's LAPACK, +1.2 MB peak
    RSS); the rate with the least residual wins, so the default grid resolves p to 1e-3
    and clips it to (0, 4].  None when fewer than RELAXATION_MIN_FRAMES frames exist, or
    where no rate's x = t^-p is a double with spread.
    """
    t = np.asarray(times, dtype=float)
    keep = t >= t[-1] / 2
    if np.count_nonzero(keep) < RELAXATION_MIN_FRAMES:
        return None
    t, y = t[keep], np.asarray(center, dtype=float)[keep]
    rates = np.asarray(rates, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = t[None, :] ** -rates[:, None]
        x_mean = x.mean(axis=1, keepdims=True)
        xc = x - x_mean
        yc = y - y.mean()
        slope = xc @ yc / np.vecdot(xc, xc)
        resid = yc - slope[:, None] * xc
        sse = np.einsum("ij,ij->i", resid, resid)
    k = np.argmin(np.where(np.isfinite(sse), sse, np.inf))
    if not np.isfinite(sse[k]):
        return None
    return float(rates[k]), float(y.mean() - slope[k] * x_mean[k, 0])


def simulate(scenario: Scenario) -> Trajectory:
    """The scenario's trajectory: the one place a Scenario becomes a solve."""
    return solve(scenario.initial_field(), scenario.profile, scenario.solver, scenario.t_end)


def resolution(scenario: Scenario, kernel: str | None) -> dict:
    """report.json's resolution block: the scenario's grid, scheme and horizon, and the
    kernel ("ldlt" or "lu") that stepped it."""
    grid, solver = scenario.grid, scenario.solver
    return {"n_dim": scenario.n_dim, "r_max": grid.r_max, "num_nodes": grid.num_nodes,
            "dt": solver.dt, "theta": solver.theta, "advection": solver.advection,
            "outer_bc": solver.outer_bc, "kernel": kernel, "t_end": scenario.t_end,
            "diag_radius": scenario.diag_radius}


def run(scenario: Scenario, out_dir=None) -> RunReport:
    """Classify, simulate, diagnose, check invariants, and emit artifacts."""
    t_start = time.perf_counter()
    result = classify(scenario.profile, scenario.n_dim)

    lifts = result.verdict.lifts_off
    use_full_weight = lifts or result.verdict is Verdict.UNDETERMINED
    w = WeightFunction(scenario.profile, positive_part=not use_full_weight)
    if not np.all(np.isfinite(mass_weights(w, scenario.grid, scenario.diag_radius))):
        raise ScenarioError(
            f"profile: the weight phi = exp(-int psi) of {scenario.profile!r} overflows "
            f"within diag_radius {scenario.diag_radius:g}, so I_R is not finite"
        )
    grid = scenario.grid
    if lifts and not np.any(mass_weights(w, grid, grid.r_max) > 0):
        raise ScenarioError(
            f"domain.num_nodes: {grid.num_nodes} nodes on [0, {grid.r_max:g}] cannot see the "
            f"weight phi of {scenario.profile!r}: it reads 0 at every node the quadrature "
            "weighs, so the lift-off level I(0) / int phi is undefined"
        )

    traj = simulate(scenario)
    u0 = RadialField(traj.grid, traj.values[0])
    series = diagnostics(traj, w, scenario.diag_radius)

    h_pred = h_tail = h_obs = discrepancy = h_limit = None
    match: bool | None = None
    p = relaxation_exponent(result, scenario.n_dim)
    final_center = float(traj.final.values[0])
    final_sup = float(np.max(traj.final.values))
    if lifts:
        h_pred = predict_liftoff_level(u0, w, scenario.n_dim)
        h_tail = phi_tail_bound(w, scenario.n_dim, scenario.grid.r_max)
        h_obs = final_center
        discrepancy = plateau_gap(h_obs, h_pred)
        fit = None if p is None else relaxation_fit(series.times, series.center, (p,))
        h_limit = None if fit is None else fit[1]
        match = discrepancy is not None and discrepancy <= LIFTOFF_LEVEL_RTOL
    elif result.verdict.decays:
        match = series_measures(series)["sup_fraction"] <= DECAY_SUP_FRACTION

    flags = _invariant_flags(traj, u0, series, lifts if match is not None else None)
    converged = _convergence_flag(traj, series, float(series.sup[0]))

    report = RunReport(
        name=scenario.name,
        classification=result,
        series=series,
        weight_kind="full" if use_full_weight else "positive_part",
        h_pred=h_pred,
        h_tail_bound=h_tail,
        h_obs=h_obs,
        discrepancy=discrepancy,
        relaxation_exponent=p,
        h_limit=h_limit,
        final_sup=final_sup,
        final_center=final_center,
        verdict_behavior_match=match,
        converged=converged,
        invariants=flags,
        resolution=resolution(scenario, traj.kernel),
        elapsed_seconds=time.perf_counter() - t_start,
    )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_frames_csv(out / "frames.csv", traj)
        write_diagnostics_csv(out / "diagnostics.csv", series)
        write_json(out / "report.json", report.to_dict())
    return report


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepRow:
    value: float
    label: str  # the value as the table and the row directory parameter=label show it
    report: RunReport | None = None
    error: str | None = None


@dataclass
class SweepResult:
    parameter: str
    rows: list
    table: str


def _sweep_one(base: Scenario, parameter: str, out_dir, value, label: str) -> SweepRow:
    try:
        scen = apply_parameter(base, parameter, value)
        scen_out = None if out_dir is None else Path(out_dir) / f"{parameter}={label}"
        return SweepRow(value, label, report=run(scen, out_dir=scen_out))
    except Exception as exc:  # recorded per row; the sweep continues
        return SweepRow(value, label, error=f"{type(exc).__name__}: {exc}")


def _sweep_table(parameter: str, rows) -> str:
    header = f"{parameter:>12}  {'verdict':<20} {'L':>10} {'h_pred':>12} {'h_obs':>12} {'final_sup':>12}  note"
    lines = [header, "-" * len(header)]
    for row in rows:
        if row.error is not None:
            lines.append(f"{row.label:>12}  {'ERROR':<20} {row.error}")
            continue
        rep = row.report
        L = rep.classification.growth_limit
        lines.append(
            f"{row.label:>12}  {rep.classification.verdict.value:<20}"
            f" {'-' if L is None else format(L, '>10.4g'):>10}"
            f" {'-' if rep.h_pred is None else format(rep.h_pred, '.6g'):>12}"
            f" {'-' if rep.h_obs is None else format(rep.h_obs, '.6g'):>12}"
            f" {rep.final_sup:>12.6g}"
            f"  match={rep.verdict_behavior_match}"
        )
    return "\n".join(lines)


def _fork_map(fn, calls, workers: int, broken=None) -> list:
    """[fn(*args) for args in calls], in order, making at most workers calls at once, each in
    this process or in a child forked for it alone.  POSIX only: no pool, no thread and no
    multiprocessing import.  A call's exception reaches the caller, a child's traceback as its
    cause.  A child that ends with a nonzero exit code (also one whose reply fails to pickle)
    takes down only its own call: broken(*args, exc) stands in for its result where given,
    else exc is raised.  No child and no pipe outlives the call, also when a call raises or a
    fork fails: running children are killed and every child is reaped.

    Schedule: with one worker, or one call, every call is made here.  Otherwise children are
    forked for calls in order, the next as one ends, and each pickles its result to its own
    reply pipe.  With broken this process only waits.  Without it, it makes calls from the
    back and collects the children that ended between them, while at most workers - 1
    children run beside it, each forked while two or more calls are left."""
    workers = min(workers, len(calls))
    if workers <= 1:
        return [fn(*args) for args in calls]
    import pickle
    import select
    import signal

    out, todo, poller = [None] * len(calls), list(range(len(calls))), select.poll()
    here = int(broken is None)  # 1 if this process makes calls too: a slot and a last call
    children = {}  # reply pipe -> (pid, index of its call)

    def spawn(i):  # fork the child of call i
        reply_r, reply_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(reply_r)
            os.close(reply_w)
            raise
        if pid == 0:  # the child: make the call, reply, exit
            code = 1
            try:
                os.close(reply_r)
                try:
                    reply = True, fn(*calls[i])
                except Exception as exc:
                    import traceback
                    reply = False, (exc, traceback.format_exc())
                with open(reply_w, "wb") as replies:
                    pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
                code = 0
            finally:
                os._exit(code)
        os.close(reply_w)
        children[reply_r] = pid, i
        poller.register(reply_r, select.POLLIN)

    def collect(timeout):  # a child writes only once its call is made: read, reap, unpickle
        for fd, _ in poller.poll(timeout):
            pid, i = children.pop(fd)
            poller.unregister(fd)
            with open(fd, "rb") as replies:
                reply = replies.read()
            if code := os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
                exc = RuntimeError(f"worker process {pid} ended with exit code {code} "
                                   f"before replying")
                if broken is None:
                    raise exc
                out[i] = broken(*calls[i], exc)
            else:
                ok, out[i] = pickle.loads(reply)
                if not ok:
                    raise out[i][0] from RuntimeError(out[i][1])

    try:
        while todo or children:
            while len(children) < workers - here and len(todo) > here:
                spawn(todo.pop(0))
            if here and todo:
                i = todo.pop()
                out[i] = fn(*calls[i])
                collect(0)
            else:
                collect(None)
        return out
    finally:
        for fd, (pid, _) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.close(fd)
            os.waitpid(pid, 0)


def sweep(base: Scenario, parameter: str, values, threads: int = 1,
          out_dir=None) -> SweepResult:
    """Independent runs of the base scenario with one parameter swept.

    Rows run in child processes forked by _fork_map, one child per row, at most
    min(threads, len(values)) at a time, forked in order; with one they run
    here, one after the other.  Each child runs the whole run() of its row,
    artifacts included, and sends the row back pickled.  Row order follows the
    given values; a row failure is recorded in place and does not abort the
    remaining runs, and a child that dies marks only its own row with
    BrokenProcessPool, while the other rows go on.
    Each row is labelled by its value to 6 significant digits; two values
    with one label raise ScenarioError before any row runs.
    """
    values = list(values)
    labels = [f"{value:g}" for value in values]
    if len(set(labels)) < len(labels):
        raise ScenarioError(f"sweep values must differ in 6 significant digits, "
                            f"got the row labels {', '.join(labels)}")
    one = functools.partial(_sweep_one, base, parameter, out_dir)
    rows = _fork_map(one, list(zip(values, labels)), threads,
                     lambda v, label, exc: SweepRow(v, label, error=f"BrokenProcessPool: {exc}"))
    table = _sweep_table(parameter, rows)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "sweep_summary.txt").write_text(table + "\n")
    return SweepResult(parameter=parameter, rows=rows, table=table)


# ---------------------------------------------------------------------------
# verification suites


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    comparator: str = "<="
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"[{status}] {self.name}: measured {self.measured:.6g} "
            f"{self.comparator} {self.threshold:.6g}"
        )
        return out + (f"  ({self.detail})" if self.detail else "")


@dataclass
class SuiteReport:
    suite: str
    checks: list
    resolution: dict  # run name -> its resolution block, for each run the suite reads
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"suite": self.suite, "passed": self.passed} | asdict(self)


def _check(name, measured, threshold, detail="", comparator="<=") -> CheckResult:
    passed = measured <= threshold if comparator == "<=" else measured >= threshold
    return CheckResult(name, bool(passed), float(measured), float(threshold), comparator, detail)


def _frame_at(traj: Trajectory, t_target: float) -> np.ndarray:
    hits = np.flatnonzero(np.abs(traj.times - t_target) <= 1e-9 * max(1.0, abs(t_target)))
    if not hits.size:
        raise KeyError(f"no snapshot at t = {t_target}")
    return traj.values[hits[0]]


def _gaussian(name: str, profile, r_max: float, num_nodes: int, solver: SolverConfig,
              t_end: float, diag_radius: float, n_dim: int = 2) -> Scenario:
    """A reference run from the unit Gaussian datum exp(-r^2/4), by default in dimension 2."""
    return Scenario(name, profile, GaussianData(sigma=1.0, n_dim=n_dim),
                    RadialGrid(r_max, num_nodes, n_dim), solver, t_end, diag_radius)


# The suites' reference runs, each declared once, in _SUITES.
# configs/linear_oracle.ini: psi = r, exact solution ou_solution, plateau 2/3
LINEAR_ORACLE = _gaussian("linear-oracle", Linear(), 20.0, 2001,
                          SolverConfig(dt=1e-3, theta=0.5, snapshot_stride=500), 6.0, 16.0)
# its first half, compared with ou_solution at t = 0.5, 1, 2, 3
ORACLE_WINDOW = replace(LINEAR_ORACLE, name="oracle-window", t_end=3.0)
# psi = r on a wider domain, whose plain mass grows like e^{2t} until it reaches r_max
MASS_GROWTH = _gaussian("mass-growth", Linear(), 30.0, 3001,
                        SolverConfig(dt=1e-3, theta=0.5, snapshot_stride=100), 1.5, 16.0)
# psi = r to t = 1 at three (nodes, dt) levels, each halving h and dt
CONVERGENCE_LADDER = tuple(
    _gaussian(f"convergence-{num_nodes}", Linear(), 12.0, num_nodes,
              SolverConfig(dt=dt, theta=0.5, snapshot_stride=10**9), 1.0, 9.6)
    for num_nodes, dt in ((301, 4e-3), (601, 2e-3), (1201, 1e-3))
)
# psi = 3/r beyond r0 = 1: lifts off, the full-weight I_R is conserved
BOUNDED_DRIFT = _gaussian("bounded-drift", PowerLaw(3.0, -1.0, 1.0), 40.0, 4001,
                          SolverConfig(dt=1e-3, theta=0.5, snapshot_stride=250), 10.0, 32.0)
# configs/subcritical.ini: psi = 1/r beyond r0 = 1 decays uniformly
SUBCRITICAL = _gaussian("subcritical", PowerLaw(1.0, -1.0, 1.0), 80.0, 4001,
                        SolverConfig(dt=2e-3, theta=1.0, advection="upwind",
                                     snapshot_stride=1000), 200.0, 64.0)
# psi = A/r beyond r0 = 1 with L = A > n, to t = 80: long coarse runs on which the
# relaxation rate is fitted freely, one per (A, n)
RELAXATION_RUNS = tuple(
    _gaussian(f"relaxation-A{A:g}-n{n}", PowerLaw(A, -1.0, 1.0), 40.0, 401,
              SolverConfig(dt=1e-2, theta=0.5, snapshot_stride=100), 80.0, 32.0, n_dim=n)
    for A, n in ((3.0, 2), (4.0, 2), (4.0, 3))
)
# the invariants matrix: five drifts to t = 1, each under the certified scheme (theta = 1
# upwind) and under Crank-Nicolson centered
INVARIANT_RUNS = tuple(
    _gaussian(f"invariants-{type(profile).__name__.lower()}-n{n}-theta{solver.theta:g}",
              profile, 10.0, 201, solver, 1.0, 8.0, n_dim=n)
    for profile, n in ((PowerLaw(3.0, -1.0, 1.0), 2), (LogCorrected(n_dim=2, alpha=2.0), 2),
                       (Linear(), 2), (Zero(), 3),
                       (Tabulated([0.0, 2.0, 10.0], [0.0, 2.0, 2.0]), 2))
    for solver in (SolverConfig(dt=5e-3, theta=1.0, advection="upwind", snapshot_stride=20),
                   SolverConfig(dt=5e-3, theta=0.5, advection="centered", snapshot_stride=20))
)


def _oracle_error(traj: Trajectory, t: float) -> float:
    """max |numeric - ou_solution| at time t over r <= 0.8 r_max from the unit Gaussian."""
    r = traj.grid.nodes
    mask = r <= 0.8 * traj.grid.r_max
    exact = ou_solution(GaussianData(sigma=1.0, n_dim=traj.grid.n_dim), r[mask], t)
    return float(np.max(np.abs(_frame_at(traj, t)[mask] - exact)))


def _suite_oracle(window: Trajectory, growth: Trajectory):
    worst = max(_oracle_error(window, t) for t in (0.5, 1.0, 2.0, 3.0))
    worst2 = max(abs(mass - pred) / pred for _, mass, pred in mass_growth_check(growth))
    return [
        _check("oracle_equivalence", worst, 1e-3,
               "max |numeric - exact| over r <= 16, t in {0.5,1,2,3}, sup u0 = 1"),
        _check("mass_growth", worst2, 0.02,
               "relative error of mass(t) against e^{2t} * mass(0), t in [0, 1.5]"),
    ]


def _suite_liftoff(linear: RunReport, rep: RunReport):
    target = liftoff_limit(GaussianData(sigma=1.0, n_dim=linear.resolution["n_dim"]))
    detail = f"u(0, 10) = {rep.h_obs:.6g} vs h_pred = {rep.h_pred:.6g} from quadrature"
    if rep.h_limit is not None:
        detail += (f"; extrapolated u(0, inf) = {rep.h_limit:.6g} under "
                   f"t^-{rep.relaxation_exponent:g}, "
                   f"{plateau_gap(rep.h_limit, rep.h_pred):.2%} from h_pred")
    return [
        _check("liftoff_level", abs(linear.final_center - target) / target, 0.02,
               f"|u(0, 6) - {target:.6g}| relative to the exact plateau"),
        _check("liftoff_prediction", rep.discrepancy, 0.02, detail),
    ]


def _suite_relaxation(rep: RunReport, *relaxing: RunReport):
    plateau = _check(
        "plateau_limit", plateau_gap(rep.h_limit, rep.h_pred), LIFTOFF_LEVEL_RTOL,
        f"extrapolated u(0, inf) = {rep.h_limit:.6g} under t^-{rep.relaxation_exponent:g} "
        f"from t in [5, 10] vs h_pred = {rep.h_pred:.6g}; u(0, 10) = {rep.h_obs:.6g}")

    worst, fits = 0.0, []
    for long_run in relaxing:
        fitted, _ = relaxation_fit(long_run.series.times, long_run.series.center)
        worst = max(worst, abs(fitted - long_run.relaxation_exponent))
        fits.append(f"{fitted:.3f} vs {long_run.relaxation_exponent:g} "
                    f"(L={long_run.classification.growth_limit:g}, "
                    f"n={long_run.resolution['n_dim']})")
    return [plateau, _check("relaxation_exponent", worst, RELAXATION_RATE_ATOL,
                            "free fit of u(0, t) = h + C t^-p over t in [40, 80] against "
                            "(L - n)/2: " + ", ".join(fits))]


def _suite_conservation(rep: RunReport):
    drift = series_measures(rep.series)["weighted_mass_drift"]
    return [_check("weighted_mass_conservation", drift, CONSERVATION_DRIFT_RTOL,
                   "max relative drift of I_R, R=32, full weight")]


def _suite_decay(rep: RunReport):
    m = series_measures(rep.series)
    return [
        _check("decay_sup_monotone", m["sup_rise"], 1e-8, "largest framewise increase of sup u"),
        _check("decay_sup_small", m["sup_fraction"], DECAY_SUP_FRACTION,
               "min over frames of sup u / sup u0, t <= 200"),
        _check("decay_weighted_mass_monotone", m["weighted_mass_rise"], MONOTONE_MASS_RTOL,
               "largest framewise relative increase of the psi_+ weighted I_R"),
    ]


def _suite_critical():
    cases = [
        (LogCorrected(n_dim=2, alpha=2.0), 2, Verdict.CRITICAL_LIFT_OFF),
        (LogCorrected(n_dim=2, alpha=1.0), 2, Verdict.CRITICAL_DECAY),
        (LogCorrected(n_dim=2, alpha=0.5), 2, Verdict.CRITICAL_DECAY),
    ]
    hits = sum(classify(p, n).verdict is want for p, n, want in cases)
    table = [
        (PowerLaw(3.0, -1.0, 1.0), 2, Verdict.LIFT_OFF),
        (PowerLaw(1.0, 0.0, 1.0), 2, Verdict.LIFT_OFF),
        (PowerLaw(1.0, -1.0, 1.0), 2, Verdict.DECAY),
        (PowerLaw(5.0, -2.0, 1.0), 3, Verdict.DECAY),
    ]
    hits2 = sum(classify(p, n).verdict is want for p, n, want in table)
    return [
        _check("critical_family", hits, len(cases),
               "log-corrected verdicts at alpha = 2, 1, 0.5 (n=2)", ">="),
        _check("classifier_table", hits2, len(table),
               "power-law verdicts: (A=3,b=-1,n=2), (A=1,b=0,n=2) lift off; "
               "(A=1,b=-1,n=2), (A=5,b=-2,n=3) decay", ">="),
    ]


def _suite_invariants(*runs: Trajectory):
    worst = {"constant": 0.0, "max_principle": 0.0, "radial_monotonicity": 0.0,
             "positivity": 0.0, "linearity": 0.0}
    for ta in runs:
        grid, profile, cfg, u0 = ta.grid, ta.profile, ta.config, ta.values[0]
        # companions on the run's grid, drift and scheme: the constant 0.7, v0, 2 u0 + 3 v0
        const = RadialField(grid, np.full(grid.num_nodes, 0.7))
        dev = float(np.max(np.abs(step(const, profile, cfg).values - 0.7))) / 0.7
        worst["constant"] = max(worst["constant"], dev)

        if cfg.certified:
            for name, value in field_measures(ta.values).items():
                worst[name] = max(worst[name], value)

        v0 = np.exp(-((grid.nodes - 2.0) ** 2))
        tm = solve(RadialField(grid, 2.0 * u0 + 3.0 * v0), profile, cfg, ta.times[-1])
        tb = solve(RadialField(grid, v0), profile, cfg, ta.times[-1])
        for fm, fa, fb in zip(tm.values, ta.values, tb.values):
            lin = 2.0 * fa + 3.0 * fb
            scale = float(np.max(np.abs(lin))) or 1.0
            worst["linearity"] = max(worst["linearity"], float(np.max(np.abs(fm - lin))) / scale)

    return [
        _check("constant_preservation", worst["constant"], 1e-12, "relative, both schemes"),
        _check("max_principle", worst["max_principle"], MAX_PRINCIPLE_ATOL,
               "range excess, theta=1 upwind, 5-profile matrix"),
        _check("radial_monotonicity", worst["radial_monotonicity"], MONOTONE_ATOL,
               "largest positive radial increment"),
        _check("positivity", worst["positivity"], POSITIVITY_ATOL, "most negative node value"),
        _check("linearity", worst["linearity"], 1e-12, "relative framewise, both schemes"),
    ]


def _suite_convergence(coarse: Trajectory, middle: Trajectory, fine: Trajectory):
    errors = [_oracle_error(traj, traj.times[-1]) for traj in (coarse, middle, fine)]
    p1 = math.log2(errors[0] / errors[1])
    p2 = math.log2(errors[1] / errors[2])
    order = 0.5 * math.log2(errors[0] / errors[2])
    detail = (f"errors {errors[0]:.3e} -> {errors[1]:.3e} -> {errors[2]:.3e}, "
              f"pairwise orders {p1:.3f}, {p2:.3f}")
    return [_check("convergence_order", order, 1.9, detail, ">=")]


# suite -> (its checks, a function of the runs it reads in order; those (how, scenario) pairs)
_SUITES = {
    "oracle": (_suite_oracle, (("simulate", ORACLE_WINDOW), ("simulate", MASS_GROWTH))),
    "conservation": (_suite_conservation, (("run", BOUNDED_DRIFT),)),
    "liftoff": (_suite_liftoff, (("run", LINEAR_ORACLE), ("run", BOUNDED_DRIFT))),
    "decay": (_suite_decay, (("run", SUBCRITICAL),)),
    "critical": (_suite_critical, ()),
    "invariants": (_suite_invariants, tuple(("simulate", s) for s in INVARIANT_RUNS)),
    "convergence": (_suite_convergence, tuple(("simulate", s) for s in CONVERGENCE_LADDER)),
    "relaxation": (_suite_relaxation,
                   (("run", BOUNDED_DRIFT), *(("run", s) for s in RELAXATION_RUNS))),
}


def suite_names() -> tuple:
    return tuple(sorted(_SUITES))


def _make(how: str, scenario: Scenario):
    """(how(scenario), its seconds), how looked up by name at call time, so that a patch of
    lab.run or lab.simulate (a test's counter or fault, perfbench's tracer) takes effect."""
    t0 = time.perf_counter()
    return globals()[how](scenario), time.perf_counter() - t0


def verify(*suites: str) -> list[SuiteReport]:
    """Run the named verification suites at their reference resolution, in the order given.

    Returns one SuiteReport per distinct name.  The runs the suites declare are made first,
    once each, largest nodes x steps first, by _fork_map over the usable cores: children,
    at most one fewer than the usable cores at a time, take the largest runs, and this
    process makes the smallest beside them.  A run's exception
    reaches the caller.  Each suite's checks then take its runs, in declaration
    order.  Its elapsed_seconds are its checks' plus the in-worker seconds of each run it
    is the first to read.
    """
    for suite in suites:
        if suite not in _SUITES:
            raise ValueError(f"unknown suite {suite!r}; valid suites: {', '.join(suite_names())}")
    suites = tuple(dict.fromkeys(suites))
    pairs = sorted(dict.fromkeys(pair for suite in suites for pair in _SUITES[suite][1]),
                   key=lambda pair: -pair[1].grid.num_nodes * pair[1].t_end / pair[1].solver.dt)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    made = dict(zip(pairs, _fork_map(_make, pairs, cores or 1)))
    unbooked, reports = {pair: seconds for pair, (_, seconds) in made.items()}, []
    for suite in suites:
        t0, (checks, reads) = time.perf_counter(), _SUITES[suite]
        outs = [made[pair][0] for pair in reads]
        read = {scen.name: out.resolution if how == "run" else resolution(scen, out.kernel)
                for (how, scen), out in zip(reads, outs)}
        booked = sum(unbooked.pop(pair, 0.0) for pair in reads)
        reports.append(SuiteReport(suite, checks(*outs), read, time.perf_counter() - t0 + booked))
    return reports

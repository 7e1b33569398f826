"""Experiment execution: single runs, parameter sweeps, verification suites.

simulate() is the one place a Scenario becomes a Trajectory.  run()
classifies the drift, simulates, evaluates diagnostics and invariant checks,
cross-checks the predicted asymptotics against the observed ones, and writes
frames.csv / diagnostics.csv / report.json.  For a lift-off with finite
averaged growth L > n it also extrapolates the center's relaxation law to
t = infinity, the limit in which the plateau identity h = I(0)/int phi holds.
verify() executes the named verification suite on reference scenarios
declared once in this module and returns one pass/fail result per check with
the measured numbers.  Each discrete guarantee is measured once, by
field_measures or series_measures, for run()'s flags and the suites alike.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
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
    rs = [_fmt(ri) for ri in traj.grid.nodes.tolist()]
    with open(path, "w") as fh:
        fh.write("t,r,u\n")
        for t, row in zip(traj.times.tolist(), traj.values):
            ts = _fmt(t)
            fh.writelines(f"{ts},{ri},{ui:.17g}\n" for ri, ui in zip(rs, row.tolist()))


def write_diagnostics_csv(path, series: DiagnosticSeries) -> None:
    with open(path, "w") as fh:
        fh.write("t,I_R,sup_u,center_u,mass\n")
        for k in range(len(series)):
            fh.write(
                f"{_fmt(series.times[k])},{_fmt(series.weighted_mass[k])},"
                f"{_fmt(series.sup[k])},{_fmt(series.center[k])},{_fmt(series.mass[k])}\n"
            )


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    raise TypeError(f"not JSON-serializable: {type(x).__name__}")


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
        c = self.classification
        out = {"name": self.name, "verdict": c.verdict.value, "growth_limit": c.growth_limit,
               "growth_bounds": c.growth_bounds, "phi_mass": c.phi_mass, "classifier_note": c.note}
        return out | {f.name: getattr(self, f.name) for f in fields(self)
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
    cfg = traj.config
    v0 = u0.values
    certified = cfg.theta == 1.0 and cfg.advection == "upwind"
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
                                   if weighted and not lifts_off else None),
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


def _relaxation_window(times, center):
    """The frames with t >= t_end/2, or None when fewer than RELAXATION_MIN_FRAMES."""
    t = np.asarray(times, dtype=float)
    keep = t >= t[-1] / 2
    if np.count_nonzero(keep) < RELAXATION_MIN_FRAMES:
        return None
    return t[keep], np.asarray(center, dtype=float)[keep]


def relaxation_limit(times, center, exponent: float) -> float | None:
    """Intercept h of the least-squares fit center = h + C t^-exponent.

    The fit uses the frames with t >= t_end/2; None when fewer than
    RELAXATION_MIN_FRAMES of them exist.
    """
    window = _relaxation_window(times, center)
    if window is None:
        return None
    t, y = window
    # straight-line regression on x = t^-exponent in closed form: a first
    # np.linalg.lstsq call initializes numpy's LAPACK (+1.2 MB peak RSS)
    x = t ** -exponent
    xc = x - x.mean()
    slope = np.dot(xc, y - y.mean()) / np.dot(xc, xc)
    return float(y.mean() - slope * x.mean())


def fitted_relaxation_exponent(times, center) -> float | None:
    """Rate p of the least-squares fit center = h + C t^-p with h, C and p free.

    The fit uses the frames with t >= t_end/2 and scans p over
    RELAXATION_RATE_GRID, so p is resolved to 1e-3 and clipped to (0, 4];
    None when fewer than RELAXATION_MIN_FRAMES frames exist.
    """
    window = _relaxation_window(times, center)
    if window is None:
        return None
    t, y = window
    x = t[None, :] ** -RELAXATION_RATE_GRID[:, None]
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean()
    resid = yc - (xc @ yc / np.einsum("ij,ij->i", xc, xc))[:, None] * xc
    return float(RELAXATION_RATE_GRID[np.argmin(np.einsum("ij,ij->i", resid, resid))])


def simulate(scenario: Scenario) -> Trajectory:
    """The scenario's trajectory: the one place a Scenario becomes a solve."""
    return solve(scenario.initial_field(), scenario.profile, scenario.solver, scenario.t_end)


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
        if p is not None:
            h_limit = relaxation_limit(series.times, series.center, p)
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
        resolution={
            "n_dim": scenario.n_dim,
            "r_max": scenario.grid.r_max,
            "num_nodes": scenario.grid.num_nodes,
            "dt": scenario.solver.dt,
            "theta": scenario.solver.theta,
            "advection": scenario.solver.advection,
            "outer_bc": scenario.solver.outer_bc,
            "t_end": scenario.t_end,
            "diag_radius": scenario.diag_radius,
        },
        elapsed_seconds=time.perf_counter() - t_start,
    )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_frames_csv(out / "frames.csv", traj)
        write_diagnostics_csv(out / "diagnostics.csv", series)
        with open(out / "report.json", "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, default=_jsonable)
            fh.write("\n")
    return report


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepRow:
    value: float
    report: RunReport | None = None
    error: str | None = None


@dataclass
class SweepResult:
    parameter: str
    rows: list
    table: str


def _sweep_one(base: Scenario, parameter: str, value, out_dir) -> SweepRow:
    try:
        scen = apply_parameter(base, parameter, value)
        scen_out = None if out_dir is None else Path(out_dir) / f"{parameter}={value:g}"
        return SweepRow(value=value, report=run(scen, out_dir=scen_out))
    except Exception as exc:  # recorded per row; the sweep continues
        return SweepRow(value=value, error=f"{type(exc).__name__}: {exc}")


def _sweep_table(parameter: str, rows) -> str:
    header = f"{parameter:>12}  {'verdict':<20} {'L':>10} {'h_pred':>12} {'h_obs':>12} {'final_sup':>12}  note"
    lines = [header, "-" * len(header)]
    for row in rows:
        if row.error is not None:
            lines.append(f"{row.value:>12g}  {'ERROR':<20} {row.error}")
            continue
        rep = row.report
        L = rep.classification.growth_limit
        lines.append(
            f"{row.value:>12g}  {rep.classification.verdict.value:<20}"
            f" {'-' if L is None else format(L, '>10.4g'):>10}"
            f" {'-' if rep.h_pred is None else format(rep.h_pred, '.6g'):>12}"
            f" {'-' if rep.h_obs is None else format(rep.h_obs, '.6g'):>12}"
            f" {rep.final_sup:>12.6g}"
            f"  match={rep.verdict_behavior_match}"
        )
    return "\n".join(lines)


def sweep(base: Scenario, parameter: str, values, threads: int = 1,
          out_dir=None) -> SweepResult:
    """Independent runs of the base scenario with one parameter swept.

    Rows run in min(threads, len(values)) worker processes forked from this
    one (POSIX only); with one worker they run here, one after the other.
    Each worker runs the whole run() of its row, artifacts included, and
    sends the row back pickled.  Row order follows the given values; a row
    failure is recorded in place and does not abort the remaining runs, and
    a worker that dies marks each row it takes down with BrokenProcessPool.
    """
    values = list(values)
    one = functools.partial(_sweep_one, base, parameter, out_dir=out_dir)
    workers = min(threads, len(values))
    if workers <= 1:
        rows = list(map(one, values))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # fork, not spawn: a worker starts with numpy, scipy's LAPACK and
        # driftlab already imported, where spawn would import them again in
        # each.  A fork pool starts all its workers at the first submit,
        # before its own manager thread exists.
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(one, v) for v in values]
            rows = []
            for value, fut in zip(values, futures):
                try:
                    rows.append(fut.result())
                except BrokenProcessPool as exc:
                    rows.append(SweepRow(value=value, error=f"BrokenProcessPool: {exc}"))
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
    resolution: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "resolution": self.resolution,
            "elapsed_seconds": self.elapsed_seconds,
        }


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


# The suites' reference runs; each suite derives its variants with dataclasses.replace.
# configs/linear_oracle.ini: psi = r, exact solution ou_solution, plateau 2/3
LINEAR_ORACLE = _gaussian("linear-oracle", Linear(), 20.0, 2001,
                          SolverConfig(dt=1e-3, theta=0.5, snapshot_stride=500), 6.0, 16.0)
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


def _suite_oracle():
    checks = []
    scen = replace(LINEAR_ORACLE, t_end=3.0)
    traj = simulate(scen)
    r = scen.grid.nodes
    mask = r <= 0.8 * scen.grid.r_max
    worst = 0.0
    for t_target in (0.5, 1.0, 2.0, 3.0):
        exact = ou_solution(scen.initial, r[mask], t_target)
        worst = max(worst, float(np.max(np.abs(_frame_at(traj, t_target)[mask] - exact))))
    checks.append(_check("oracle_equivalence", worst, 1e-3,
                         "max |numeric - exact| over r <= 16, t in {0.5,1,2,3}, sup u0 = 1"))

    wide = replace(LINEAR_ORACLE, grid=replace(LINEAR_ORACLE.grid, r_max=30.0, num_nodes=3001),
                   solver=replace(LINEAR_ORACLE.solver, snapshot_stride=100), t_end=1.5)
    rows = mass_growth_check(simulate(wide))
    worst2 = max(abs(mass - pred) / pred for _, mass, pred in rows)
    checks.append(_check("mass_growth", worst2, 0.02,
                         "relative error of mass(t) against e^{2t} * mass(0), t in [0, 1.5]"))
    return checks, {"oracle": "r_max=20, 2001 nodes, dt=1e-3, theta=0.5 centered",
                    "mass_growth": "r_max=30, 3001 nodes, dt=1e-3, t_end=1.5"}


def _suite_liftoff():
    checks = []
    center = run(LINEAR_ORACLE).final_center
    target = liftoff_limit(LINEAR_ORACLE.initial)  # 2/3 for sigma=1, n=2
    checks.append(_check("liftoff_level", abs(center - target) / target, 0.02,
                         f"|u(0, 6) - {target:.6g}| relative to the exact plateau"))

    rep = run(BOUNDED_DRIFT)
    detail = f"u(0, 10) = {rep.h_obs:.6g} vs h_pred = {rep.h_pred:.6g} from quadrature"
    if rep.h_limit is not None:
        detail += (f"; extrapolated u(0, inf) = {rep.h_limit:.6g} under "
                   f"t^-{rep.relaxation_exponent:g}, "
                   f"{plateau_gap(rep.h_limit, rep.h_pred):.2%} from h_pred")
    checks.append(_check("liftoff_prediction", rep.discrepancy, 0.02, detail))
    return checks, {"linear": "r_max=20, 2001 nodes, dt=1e-3, t_end=6",
                    "bounded_drift": "A=3, beta=-1, r_max=40, 4001 nodes, dt=1e-3, t_end=10"}


def _suite_relaxation():
    checks = []
    rep = run(BOUNDED_DRIFT)
    checks.append(_check(
        "plateau_limit", plateau_gap(rep.h_limit, rep.h_pred), LIFTOFF_LEVEL_RTOL,
        f"extrapolated u(0, inf) = {rep.h_limit:.6g} under t^-{rep.relaxation_exponent:g} "
        f"from t in [5, 10] vs h_pred = {rep.h_pred:.6g}; u(0, 10) = {rep.h_obs:.6g}"))

    worst, fits = 0.0, []
    for scen in RELAXATION_RUNS:
        rep = run(scen)
        fitted = fitted_relaxation_exponent(rep.series.times, rep.series.center)
        worst = max(worst, abs(fitted - rep.relaxation_exponent))
        fits.append(f"{fitted:.3f} vs {rep.relaxation_exponent:g} (L={scen.profile.amplitude:g}, "
                    f"n={scen.n_dim})")
    checks.append(_check("relaxation_exponent", worst, RELAXATION_RATE_ATOL,
                         "free fit of u(0, t) = h + C t^-p over t in [40, 80] against "
                         "(L - n)/2: " + ", ".join(fits)))
    return checks, {"bounded_drift": "A=3, beta=-1, r_max=40, 4001 nodes, dt=1e-3, t_end=10",
                    "rate": "A/r with (A, n) in (3, 2), (4, 2), (4, 3); r_max=40, 401 nodes, "
                            "dt=1e-2, t_end=80"}


def _suite_conservation():
    drift = series_measures(run(BOUNDED_DRIFT).series)["weighted_mass_drift"]
    checks = [_check("weighted_mass_conservation", drift, CONSERVATION_DRIFT_RTOL,
                     "max relative drift of I_R, R=32, full weight")]
    return checks, {"run": "A=3, beta=-1, r0=1, n=2, r_max=40, 4001 nodes, dt=1e-3, t_end=10"}


def _suite_decay():
    m = series_measures(run(SUBCRITICAL).series)
    checks = [
        _check("decay_sup_monotone", m["sup_rise"], 1e-8, "largest framewise increase of sup u"),
        _check("decay_sup_small", m["sup_fraction"], DECAY_SUP_FRACTION,
               "min over frames of sup u / sup u0, t <= 200"),
        _check("decay_weighted_mass_monotone", m["weighted_mass_rise"], MONOTONE_MASS_RTOL,
               "largest framewise relative increase of the psi_+ weighted I_R"),
    ]
    return checks, {"run": "A=1, beta=-1, r0=1, n=2, r_max=80, 4001 nodes, dt=2e-3, "
                           "theta=1 upwind, t_end=200"}


def _suite_critical():
    checks = []
    cases = [
        (LogCorrected(n_dim=2, alpha=2.0), 2, Verdict.CRITICAL_LIFT_OFF),
        (LogCorrected(n_dim=2, alpha=1.0), 2, Verdict.CRITICAL_DECAY),
        (LogCorrected(n_dim=2, alpha=0.5), 2, Verdict.CRITICAL_DECAY),
    ]
    hits = sum(classify(p, n).verdict is want for p, n, want in cases)
    checks.append(_check("critical_family", hits, len(cases),
                         "log-corrected verdicts at alpha = 2, 1, 0.5 (n=2)", ">="))

    table = [
        (PowerLaw(3.0, -1.0, 1.0), 2, Verdict.LIFT_OFF),
        (PowerLaw(1.0, 0.0, 1.0), 2, Verdict.LIFT_OFF),
        (PowerLaw(1.0, -1.0, 1.0), 2, Verdict.DECAY),
        (PowerLaw(5.0, -2.0, 1.0), 3, Verdict.DECAY),
    ]
    hits2 = sum(classify(p, n).verdict is want for p, n, want in table)
    checks.append(_check("classifier_table", hits2, len(table),
                         "power-law verdicts: (A=3,b=-1,n=2), (A=1,b=0,n=2) lift off; "
                         "(A=1,b=-1,n=2), (A=5,b=-2,n=3) decay", ">="))
    return checks, {"method": "symbolic growth limits and integrability"}


def _suite_invariants():
    worst = {"constant": 0.0, "max_principle": 0.0, "radial_monotonicity": 0.0,
             "positivity": 0.0, "linearity": 0.0}
    t_end = 1.0
    for profile, n in ((PowerLaw(3.0, -1.0, 1.0), 2), (LogCorrected(n_dim=2, alpha=2.0), 2),
                       (Linear(), 2), (Zero(), 3),
                       (Tabulated([0.0, 2.0, 10.0], [0.0, 2.0, 2.0]), 2)):
        grid = RadialGrid(r_max=10.0, num_nodes=201, n_dim=n)
        r = grid.nodes
        u0 = GaussianData(1.0, n).field(grid)
        v0 = RadialField(grid, np.exp(-((r - 2.0) ** 2)))
        cert = SolverConfig(dt=5e-3, theta=1.0, advection="upwind",
                            outer_bc="dirichlet_frozen", snapshot_stride=20)
        acc = SolverConfig(dt=5e-3, theta=0.5, advection="centered",
                           outer_bc="dirichlet_frozen", snapshot_stride=20)

        for cfg in (cert, acc):
            const = RadialField(grid, np.full(grid.num_nodes, 0.7))
            dev = float(np.max(np.abs(step(const, profile, cfg).values - 0.7))) / 0.7
            worst["constant"] = max(worst["constant"], dev)

        traj = solve(u0, profile, cert, t_end)
        for name, value in field_measures(traj.values).items():
            worst[name] = max(worst[name], value)

        mix0 = RadialField(grid, 2.0 * u0.values + 3.0 * v0.values)
        for cfg, ta in ((cert, traj), (acc, solve(u0, profile, acc, t_end))):
            tm = solve(mix0, profile, cfg, t_end)
            tb = solve(v0, profile, cfg, t_end)
            for fm, fa, fb in zip(tm.values, ta.values, tb.values):
                lin = 2.0 * fa + 3.0 * fb
                scale = float(np.max(np.abs(lin))) or 1.0
                worst["linearity"] = max(worst["linearity"],
                                         float(np.max(np.abs(fm - lin))) / scale)

    checks = [
        _check("constant_preservation", worst["constant"], 1e-12, "relative, both schemes"),
        _check("max_principle", worst["max_principle"], MAX_PRINCIPLE_ATOL,
               "range excess, theta=1 upwind, 5-profile matrix"),
        _check("radial_monotonicity", worst["radial_monotonicity"], MONOTONE_ATOL,
               "largest positive radial increment"),
        _check("positivity", worst["positivity"], POSITIVITY_ATOL, "most negative node value"),
        _check("linearity", worst["linearity"], 1e-12, "relative framewise, both schemes"),
    ]
    return checks, {"matrix": "5 profile families, r_max=10, 201 nodes, dt=5e-3, t_end=1"}


def _suite_convergence():
    levels = [(301, 4e-3), (601, 2e-3), (1201, 1e-3)]
    errors = []
    for num_nodes, dt in levels:
        scen = replace(LINEAR_ORACLE,
                       grid=replace(LINEAR_ORACLE.grid, r_max=12.0, num_nodes=num_nodes),
                       solver=replace(LINEAR_ORACLE.solver, dt=dt, snapshot_stride=10**9),
                       t_end=1.0, diag_radius=9.6)
        traj = simulate(scen)
        r = scen.grid.nodes
        mask = r <= 0.8 * scen.grid.r_max
        exact = ou_solution(scen.initial, r[mask], 1.0)
        errors.append(float(np.max(np.abs(traj.final.values[mask] - exact))))
    p1 = math.log2(errors[0] / errors[1])
    p2 = math.log2(errors[1] / errors[2])
    order = 0.5 * math.log2(errors[0] / errors[2])
    detail = (f"errors {errors[0]:.3e} -> {errors[1]:.3e} -> {errors[2]:.3e}, "
              f"pairwise orders {p1:.3f}, {p2:.3f}")
    checks = [_check("convergence_order", order, 1.9, detail, ">=")]
    return checks, {"levels": "(301, 4e-3), (601, 2e-3), (1201, 1e-3) on r_max=12, t_end=1"}


_SUITES = {
    "oracle": _suite_oracle,
    "conservation": _suite_conservation,
    "liftoff": _suite_liftoff,
    "decay": _suite_decay,
    "critical": _suite_critical,
    "invariants": _suite_invariants,
    "convergence": _suite_convergence,
    "relaxation": _suite_relaxation,
}


def suite_names() -> tuple:
    return tuple(sorted(_SUITES))


def verify(suite: str) -> SuiteReport:
    """Run one named verification suite at its reference resolution."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; valid suites: {', '.join(suite_names())}")
    t0 = time.perf_counter()
    checks, resolution = _SUITES[suite]()
    return SuiteReport(suite=suite, checks=checks, resolution=resolution,
                       elapsed_seconds=time.perf_counter() - t0)

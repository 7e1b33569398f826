import concurrent.futures
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import driftlab
from driftlab import cli, lab
from driftlab.grid import RadialField, RadialGrid
from driftlab.profiles import Linear, LogCorrected, PowerLaw, Zero
from driftlab.oracles import GaussianData
from driftlab.scenario import ScenarioError, parse_scenario
from driftlab.solver import SolverConfig, Trajectory
from driftlab.weights import DiagnosticSeries, Verdict, classify

FAST_SUPERCRITICAL = """
[profile]
kind = powerlaw
A = 3
beta = -1
r0 = 1

[domain]
n = 2
r_max = 20
num_nodes = 801

[initial]
kind = gaussian
sigma = 1

[solver]
dt = 4e-3
snapshot_stride = 125

[run]
t_end = 2.0
diag_radius = 16
name = fast-super
"""

FAST_SUBCRITICAL = """
[profile]
kind = powerlaw
A = 1
beta = -1
r0 = 1

[domain]
n = 2
r_max = 40
num_nodes = 801

[initial]
kind = gaussian
sigma = 1

[solver]
dt = 5e-3
theta = 1.0
advection = upwind
snapshot_stride = 200

[run]
t_end = 5.0
name = fast-sub
"""


def test_run_report_coherence(tmp_path):
    s = parse_scenario(FAST_SUPERCRITICAL)
    report = lab.run(s, out_dir=tmp_path)
    assert report.classification.verdict is Verdict.LIFT_OFF
    # discrepancy present iff the verdict lifts off
    assert report.h_pred is not None and report.discrepancy is not None
    assert report.h_obs == report.final_center
    assert report.weight_kind == "full"
    assert report.invariants["positivity"] is True
    assert report.invariants["radial_monotonicity"] is True
    assert report.invariants["weighted_mass_conserved"] is True
    assert report.elapsed_seconds > 0

    # L = 3 > n = 2: the center's relaxation is fitted over the frames t in {1, 1.5, 2}
    assert report.relaxation_exponent == 0.5
    assert report.h_limit is not None

    data = json.loads((tmp_path / "report.json").read_text())
    assert data["verdict"] == "lift_off"
    assert data["h_pred"] == pytest.approx(report.h_pred)
    assert data["relaxation_exponent"] == 0.5
    assert data["h_limit"] == report.h_limit
    assert (tmp_path / "frames.csv").exists()
    assert (tmp_path / "diagnostics.csv").exists()


def test_run_decay_uses_positive_part_weight():
    s = parse_scenario(FAST_SUBCRITICAL)
    report = lab.run(s)
    assert report.classification.verdict is Verdict.DECAY
    assert report.h_pred is None and report.discrepancy is None
    assert report.relaxation_exponent is None and report.h_limit is None
    assert report.weight_kind == "positive_part"
    assert report.invariants["weighted_mass_monotone"] is True
    assert report.invariants["max_principle"] is True


def test_run_outputs_are_deterministic(tmp_path):
    s = parse_scenario(FAST_SUPERCRITICAL)
    lab.run(s, out_dir=tmp_path / "a")
    lab.run(s, out_dir=tmp_path / "b")
    for name in ("frames.csv", "diagnostics.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_csv_floats_have_full_precision(tmp_path):
    s = parse_scenario(FAST_SUPERCRITICAL)
    report = lab.run(s, out_dir=tmp_path)
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "t,I_R,sup_u,center_u,mass"
    last = lines[-1].split(",")
    assert float(last[2]) == report.final_sup  # round-trips exactly


def test_sweep_amplitude_verdict_transition():
    s = parse_scenario(FAST_SUPERCRITICAL)
    result = lab.sweep(s, "A", [1.0, 2.0, 3.0])
    verdicts = [row.report.classification.verdict for row in result.rows]
    assert verdicts == [Verdict.DECAY, Verdict.CRITICAL_DECAY, Verdict.LIFT_OFF]
    assert "lift_off" in result.table


def test_sweep_records_row_failures_and_continues():
    s = parse_scenario(FAST_SUPERCRITICAL)
    result = lab.sweep(s, "alpha", [0.5, 2.0])  # alpha is not a power-law knob
    assert all(row.error is not None for row in result.rows)
    assert all(row.report is None for row in result.rows)
    result2 = lab.sweep(s, "num_nodes", [101, -5, 201])
    assert result2.rows[0].report is not None
    assert result2.rows[1].error is not None
    assert result2.rows[2].report is not None


def test_sweep_parallel_matches_serial(tmp_path):
    s = parse_scenario(FAST_SUPERCRITICAL)
    serial = lab.sweep(s, "sigma", [0.5, 1.0], threads=1, out_dir=tmp_path / "serial")
    parallel = lab.sweep(s, "sigma", [0.5, 1.0], threads=2, out_dir=tmp_path / "parallel")
    for a, b in zip(serial.rows, parallel.rows, strict=True):
        assert a.error is None and b.error is None
        da, db = a.report.to_dict(), b.report.to_dict()
        del da["elapsed_seconds"], db["elapsed_seconds"]
        assert da == db
        row = f"sigma={a.value:g}"
        for name in ("frames.csv", "diagnostics.csv"):
            assert ((tmp_path / "serial" / row / name).read_bytes()
                    == (tmp_path / "parallel" / row / name).read_bytes()), (row, name)
    assert serial.table == parallel.table


def test_sweep_records_a_dead_worker_and_returns(monkeypatch):
    s = parse_scenario(FAST_SUPERCRITICAL.replace("t_end = 2.0", "t_end = 0.02"))
    real_run = lab.run

    def dying_run(scenario, out_dir=None):
        if scenario.initial.sigma == 0.7:
            time.sleep(1.0)  # the other rows finish before this worker dies
            os._exit(3)
        return real_run(scenario, out_dir=out_dir)

    monkeypatch.setattr(lab, "run", dying_run)  # the forked workers inherit the patch
    result = lab.sweep(s, "sigma", [0.5, 0.7, 1.0], threads=2)
    assert [row.value for row in result.rows] == [0.5, 0.7, 1.0]
    dead = result.rows[1]
    assert dead.report is None and dead.error.startswith("BrokenProcessPool: ")
    assert all(row.error is None and row.report is not None for row in result.rows[::2])
    assert "ERROR" in result.table


def test_sweep_convergence_of_errors():
    # halving h and dt on the exactly-solvable drift: errors shrink at order ~2
    base = parse_scenario("""
[profile]
kind = linear

[domain]
n = 2
r_max = 12
num_nodes = 301

[initial]
kind = gaussian
sigma = 1

[solver]
dt = 4e-3
snapshot_stride = 1000000

[run]
t_end = 1.0
diag_radius = 9.6
""")
    from driftlab.oracles import GaussianData, ou_solution
    from driftlab.scenario import apply_parameter
    from driftlab.solver import solve

    errors = []
    for nodes, dt in [(301, 4e-3), (601, 2e-3), (1201, 1e-3)]:
        s = apply_parameter(apply_parameter(base, "num_nodes", nodes), "dt", dt)
        traj = solve(s.initial_field(), s.profile, s.solver, s.t_end)
        r = s.grid.nodes
        mask = r <= 9.6
        exact = ou_solution(GaussianData(1.0, 2), r[mask], 1.0)
        errors.append(float(np.max(np.abs(traj.final.values[mask] - exact))))
    assert errors[0] > errors[1] > errors[2]
    assert 0.5 * math.log2(errors[0] / errors[2]) > 1.9


def test_run_tabulated_profile_reports_undetermined():
    text = """
[profile]
kind = tabulated
samples = 0:0, 1:1, 20:1.5

[domain]
n = 2
r_max = 20
num_nodes = 401

[initial]
kind = gaussian
sigma = 1

[solver]
dt = 5e-3
snapshot_stride = 50

[run]
t_end = 0.5
"""
    report = lab.run(parse_scenario(text))
    assert report.classification.verdict is Verdict.UNDETERMINED
    assert report.classification.growth_bounds is not None
    assert report.h_pred is None
    assert report.verdict_behavior_match is None
    assert report.weight_kind == "full"


OVERFLOWING_WEIGHT = """
[profile]
kind = tabulated
samples = 0:0, 1:-10, 100:-10

[domain]
n = 2
r_max = 100
num_nodes = 401

[initial]
kind = gaussian
sigma = 1
"""


def test_run_rejects_an_overflowing_weight_before_simulating(monkeypatch):
    # psi = -10 beyond r = 1: phi = exp(-Psi) overflows past r ~ 72, inside the
    # default radius 0.8 * r_max = 80, so I_R cannot be finite
    def no_simulate(scenario):
        raise AssertionError("simulated a scenario whose weighted mass overflows")

    monkeypatch.setattr(lab, "simulate", no_simulate)
    scenario = parse_scenario(OVERFLOWING_WEIGHT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError, match=r"profile: .*Tabulated.* overflows"):
            lab.run(scenario)


def test_gaussian_datum_in_another_dimension_is_rejected_before_simulating(monkeypatch):
    def no_simulate(scenario):
        raise AssertionError("simulated a scenario whose datum and grid disagree on n")

    monkeypatch.setattr(lab, "simulate", no_simulate)
    with pytest.raises(ScenarioError, match=r"^initial: .* dimension 3, the grid in 2$"):
        lab.run(replace(lab.LINEAR_ORACLE, initial=GaussianData(sigma=1.0, n_dim=3)))


def test_cli_simulate_rejects_an_overflowing_weight(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lab, "simulate", None)  # any simulation attempt raises TypeError
    rc = cli.main(["simulate", _write_config(tmp_path, OVERFLOWING_WEIGHT)])
    assert rc == 2
    assert "error: profile:" in capsys.readouterr().err


def test_benchmark_tracer_names_exist(monkeypatch):
    # perfbench's tracer wraps these names by attribute; a missing one breaks --trace 1
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up there
    spec.loader.exec_module(tracing)
    assert [n for n in tracing.LAB_NAMES if not hasattr(lab, n)] == []
    assert [n for n in tracing.CLI_NAMES if not hasattr(cli, n)] == []


def test_sweep_alpha_threshold_in_critical_family():
    text = """
[profile]
kind = logcorrected
alpha = 1.0

[domain]
n = 2
r_max = 20
num_nodes = 401

[initial]
kind = gaussian
sigma = 1

[run]
t_end = 0.05
"""
    base = parse_scenario(text)
    result = lab.sweep(base, "alpha", [0.5, 2.0])
    verdicts = [row.report.classification.verdict for row in result.rows]
    assert verdicts[0].decays and not verdicts[0].lifts_off
    assert verdicts[1].lifts_off
    assert verdicts == [Verdict.CRITICAL_DECAY, Verdict.CRITICAL_LIFT_OFF]
    # critical lift-off, L = n: no algebraic relaxation law to extrapolate
    for row in result.rows:
        assert row.report.relaxation_exponent is None and row.report.h_limit is None


# --- relaxation of the center to the plateau ------------------------------------


@pytest.mark.parametrize("exponent", [0.5, 1.5])
def test_relaxation_limit_recovers_synthetic_level(exponent):
    times = np.arange(41) * 0.25  # the frame times of lab.BOUNDED_DRIFT, t in [0, 10]
    center = np.empty_like(times)
    center[0] = 1.0  # t = 0 lies outside the fitted window t >= 5
    center[1:] = 0.662177 + 0.164 * times[1:] ** -exponent
    assert abs(lab.relaxation_limit(times, center, exponent) - 0.662177) <= 1e-12


def test_relaxation_limit_needs_three_frames():
    assert lab.relaxation_limit([0.0, 1.0, 2.0], [1.0, 0.8, 0.7], 0.5) is None
    assert lab.relaxation_limit([0.0, 1.0, 1.5, 2.0], [1.0, 0.8, 0.75, 0.7], 0.5) is not None
    assert lab.fitted_relaxation_exponent([0.0, 1.0, 2.0], [1.0, 0.8, 0.7]) is None


@pytest.mark.parametrize("exponent", [0.5, 0.75, 1.0, 1.5])
def test_fitted_relaxation_exponent_recovers_synthetic_rate(exponent):
    times = np.arange(81) * 1.0  # the frame times of lab.RELAXATION_RUNS, t in [0, 80]
    center = np.empty_like(times)
    center[0] = 1.0  # t = 0 lies outside the fitted window t >= 40
    center[1:] = 0.662177 + 0.167 * times[1:] ** -exponent
    assert lab.fitted_relaxation_exponent(times, center) == pytest.approx(exponent, abs=1e-12)


def test_relaxation_rate_gate_rejects_a_wrong_rate():
    # the relaxation suite's relaxation_exponent check asserts
    # |fitted - (L - n)/2| <= RELAXATION_RATE_ATOL; a center relaxing like t^-0.4
    # must fail it against p = 1/2, one relaxing like t^-0.47 must pass it
    times = np.arange(40, 81) * 1.0
    for rate, passes in ((0.4, False), (0.47, True)):
        fitted = lab.fitted_relaxation_exponent(times, 0.66 + 0.167 * times ** -rate)
        assert (abs(fitted - 0.5) <= lab.RELAXATION_RATE_ATOL) is passes


def test_plateau_identity_gate_rejects_a_level_off_by_three_percent():
    # the relaxation suite's plateau_limit check, which the liftoff-prediction
    # acceptance row reads, asserts plateau_gap(h_limit, h_pred) <= LIFTOFF_LEVEL_RTOL;
    # a series settling 3% above h_pred must fail it, one settling 0.5% above must pass it
    h_pred = 0.669691
    times = np.arange(1, 41) * 0.25
    for level, passes in ((1.03 * h_pred, False), (1.005 * h_pred, True)):
        h_limit = lab.relaxation_limit(times, level + 0.164 * times ** -0.5, 0.5)
        assert (lab.plateau_gap(h_limit, h_pred) <= lab.LIFTOFF_LEVEL_RTOL) is passes


@pytest.mark.parametrize("profile,n_dim,exponent", [
    (PowerLaw(3.0, -1.0, 1.0), 2, 0.5),           # bounded drift, L = 3 > n = 2
    (PowerLaw(6.0, -1.0, 1.0), 3, 1.5),           # L = 6 > n = 3
    (Linear(), 2, None),                          # L = inf: exponential relaxation
    (PowerLaw(1.0, 0.0, 1.0), 2, None),           # constant drift, L = inf
    (LogCorrected(n_dim=2, alpha=2.0), 2, None),  # critical lift-off, L = n
    (PowerLaw(2.0 + 5e-10, -1.0, 1.0), 2, None),  # critical lift-off, L within 1e-9 of n
    (PowerLaw(1.0, -1.0, 1.0), 2, None),          # decay
    (Zero(), 3, None),                            # decay
])
def test_relaxation_exponent_only_for_finite_supercritical_growth(profile, n_dim, exponent):
    assert lab.relaxation_exponent(classify(profile, n_dim), n_dim) == exponent


def _two_frame_run(v0, v1, weighted_mass, certified=True, lifts_off=True):
    """Measures and invariant flags of a hand-built two-frame run on 5 nodes."""
    grid = RadialGrid(4.0, 5, 2)
    cfg = SolverConfig(dt=1.0, theta=1.0, advection="upwind") if certified else SolverConfig(1.0)
    values = np.array([v0, v1], dtype=float)
    traj = Trajectory(grid, [0.0, 1.0], values, Zero(), cfg)
    iw = np.array(weighted_mass, dtype=float)
    series = DiagnosticSeries(traj.times, iw, values.max(axis=1), values[:, 0].copy(), iw, 4.0)
    measures = lab.field_measures(values) | lab.series_measures(series)
    return measures, lab._invariant_flags(traj, RadialField(grid, v0), series, lifts_off)


RAMP = [1.0, 0.75, 0.5, 0.25, 0.0]


def _one_violation(measure):
    """(flag, bound, x, run with the violation x) for one measure.

    x at the bound gives the measure exactly the bound, the next double above x a
    larger measure.
    """
    return {
        # off the certified scheme, so that the max principle does not also apply
        "positivity": ("positivity", lab.POSITIVITY_ATOL, 1e-12,
                       lambda x: _two_frame_run(RAMP, [0.5, 0.25, 0.0, 0.0, -x], [1.0, 1.0],
                                                certified=False)),
        "max_principle": ("max_principle", lab.MAX_PRINCIPLE_ATOL, 1e-12,
                          lambda x: _two_frame_run([0.0] * 5, [x, 0.0, 0.0, 0.0, 0.0], [1.0, 1.0])),
        "radial_monotonicity": ("radial_monotonicity", lab.MONOTONE_ATOL, 1e-10,
                                lambda x: _two_frame_run(RAMP, [0.5, 0.0, x, 0.0, 0.0],
                                                         [1.0, 1.0])),
        "weighted_mass_drift": ("weighted_mass_conserved", lab.CONSERVATION_DRIFT_RTOL, 1001.0,
                                lambda x: _two_frame_run(RAMP, RAMP, [1000.0, x])),
        "weighted_mass_rise": ("weighted_mass_monotone", lab.MONOTONE_MASS_RTOL, 1e6 + 1.0,
                               lambda x: _two_frame_run(RAMP, RAMP, [1e6, x], lifts_off=False)),
    }[measure]


@pytest.mark.parametrize("measure", ["positivity", "max_principle", "radial_monotonicity",
                                     "weighted_mass_drift", "weighted_mass_rise"])
def test_each_invariant_flag_flips_exactly_at_its_bound(measure):
    flag, bound, x, build = _one_violation(measure)
    measures, flags = build(x)
    assert measures[measure] == bound
    assert flags[flag] is True
    assert all(f in (True, None) for f in flags.values())
    measures, flags = build(np.nextafter(x, np.inf))
    assert measures[measure] > bound
    assert [k for k, f in flags.items() if f is False] == [flag]


def test_measures_of_a_hand_built_run():
    measures, flags = _two_frame_run(RAMP, [0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 1.0])
    assert measures["positivity"] == math.inf and flags["positivity"] is False  # center hit 0
    # max |u0| = 2 scales positivity by 1/2 and the other field measures by 1/max(1, 2)
    measures, _ = _two_frame_run([2.0, 1.0, 0.5, 0.0, 0.0], [1.0, -0.5, 1.0, 2.5, 0.0], [1.0, 1.0])
    assert measures["positivity"] == 0.25
    assert measures["max_principle"] == 0.25
    assert measures["radial_monotonicity"] == 0.75
    sup, iw = np.array([2.0, 1.0, 1.5, 0.2]), np.array([4.0, 3.0, 3.75, 4.5])
    series = DiagnosticSeries(np.arange(4.0), iw, sup, sup, iw, 4.0)
    assert lab.series_measures(series) == {"weighted_mass_drift": 0.25, "weighted_mass_rise": 0.25,
                                           "sup_rise": 0.5, "sup_fraction": 0.1}
    single = DiagnosticSeries(np.zeros(1), iw[:1], sup[:1], sup[:1], iw[:1], 4.0)
    assert lab.series_measures(single) == {"weighted_mass_drift": 0.0,
                                           "weighted_mass_rise": -math.inf,
                                           "sup_rise": -math.inf, "sup_fraction": 1.0}


def test_replaced_reference_scenario_is_validated():
    # LINEAR_ORACLE integrates I_R to 16, which r_max 12 no longer contains
    with pytest.raises(ScenarioError, match=r"^run\.diag_radius: must lie in \(0, r_max=12\.0\]"):
        replace(lab.LINEAR_ORACLE, grid=replace(lab.LINEAR_ORACLE.grid, r_max=12.0))
    with pytest.raises(ScenarioError, match=r"^run\.t_end"):
        replace(lab.LINEAR_ORACLE, t_end=-1.0)


def test_verify_unknown_suite_lists_valid_names():
    with pytest.raises(ValueError, match="critical"):
        lab.verify("spectral")


def test_verify_critical_suite_report_shape():
    report = lab.verify("critical")
    assert report.passed
    assert {c.name for c in report.checks} == {"critical_family", "classifier_table"}
    payload = report.to_dict()
    assert payload["suite"] == "critical"
    assert all("measured" in c for c in payload["checks"])


# --- command line ------------------------------------------------------------


def _write_config(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_simulate_writes_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path, FAST_SUPERCRITICAL)
    rc = cli.main(["simulate", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    out_dir = tmp_path / "out" / "fast-super"
    assert (out_dir / "report.json").exists()
    assert "verdict=lift_off" in capsys.readouterr().out


def test_cli_classify(tmp_path, capsys):
    cfg = _write_config(tmp_path, FAST_SUBCRITICAL)
    rc = cli.main(["classify", cfg])
    assert rc == 0
    out = capsys.readouterr().out
    assert "decay" in out and "growth limit: 1.0" in out


def test_cli_sweep(tmp_path, capsys):
    cfg = _write_config(tmp_path, FAST_SUPERCRITICAL.replace("t_end = 2.0", "t_end = 0.2"))
    rc = cli.main(["sweep", cfg, "--param", "A", "--values", "1,3", "--threads", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "decay" in out and "lift_off" in out


def test_cli_verify(tmp_path, capsys):
    rc = cli.main(["verify", "critical", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "verify_critical.json").exists()
    assert "critical_family" in capsys.readouterr().out


def test_cli_classify_tabulated_profile(tmp_path, capsys):
    cfg = _write_config(tmp_path, """
[profile]
kind = tabulated
samples = 0:0, 1:1, 20:1.2

[domain]
n = 2

[initial]
kind = gaussian
sigma = 1
""")
    rc = cli.main(["classify", cfg])
    assert rc == 0
    out = capsys.readouterr().out
    assert "undetermined" in out and "growth limit: n/a" in out


def test_cli_classify_weight_mass_past_the_gamma_function_range(tmp_path, capsys):
    # beta = -0.999 also puts e^{c r0^g} = e^1000 past the double range
    for beta in ("-0.99", "-0.999"):
        cfg = _write_config(tmp_path, f"""
[profile]
kind = powerlaw
A = 1
beta = {beta}

[domain]
n = 2

[initial]
kind = gaussian
sigma = 1
""")
        assert cli.main(["classify", cfg]) == 0
        assert "verdict: lift_off" in capsys.readouterr().out


def test_cli_bad_config_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, "[profile]\nkind = vortex\n")
    rc = cli.main(["simulate", cfg])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_sweep_accepts_negative_values(tmp_path, capsys):
    cfg = _write_config(tmp_path, FAST_SUPERCRITICAL.replace("t_end = 2.0", "t_end = 0.02"))
    for argv in (["--values", "-0.5,-0.8"], ["--values=-0.5,-0.8"]):
        rc = cli.main(["sweep", cfg, "--param", "beta", *argv])
        assert rc == 0, argv
        rows = [ln.split()[0] for ln in capsys.readouterr().out.splitlines()[2:]]
        assert rows == ["-0.5", "-0.8"], argv


def test_cli_sweep_rejects_zero_threads_while_parsing(monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep started")

    monkeypatch.setattr(lab, "sweep", no_sweep)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "unused.ini", "--param", "A", "--values", "1", "--threads", "0"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_cli_sweep_starts_at_most_one_worker_per_value(tmp_path, monkeypatch, capsys):
    real_pool = concurrent.futures.ProcessPoolExecutor
    pool_sizes = []

    def recording_pool(max_workers=None, **kwargs):
        pool_sizes.append(max_workers)
        return real_pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    cfg = _write_config(tmp_path, FAST_SUPERCRITICAL.replace("t_end = 2.0", "t_end = 0.02"))
    assert cli.main(["sweep", cfg, "--param", "A", "--values", "1,3", "--threads", "64"]) == 0
    assert pool_sizes == [2]
    assert cli.main(["sweep", cfg, "--param", "A", "--values", "3", "--threads", "64"]) == 0
    assert pool_sizes == [2]  # one value runs in this process, without a pool
    assert "lift_off" in capsys.readouterr().out


def test_cli_runs_without_scipy_linalg_or_special(tmp_path):
    cfg = _write_config(tmp_path, FAST_SUPERCRITICAL.replace("t_end = 2.0", "t_end = 0.02"))
    oracle = Path(__file__).resolve().parents[1] / "configs" / "linear_oracle.ini"
    script = (
        "import sys\n"
        "from driftlab import cli\n"
        f"assert cli.main(['classify', {str(oracle)!r}, '--quiet']) == 0\n"
        f"assert cli.main(['simulate', {cfg!r}, '--quiet']) == 0\n"
        "print(sorted({'scipy.linalg', 'scipy.special'} & set(sys.modules)))\n"
        # scipy.linalg imported afterwards shares the already loaded LAPACK extension
        "from scipy.linalg.lapack import dgttrs\n"
        "from driftlab import solver\n"
        "assert solver.dgttrs is dgttrs\n"
    )
    src = str(Path(driftlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_unknown_suite_exit_code(capsys):
    rc = cli.main(["verify", "spectral"])
    assert rc == 2
    assert "valid suites" in capsys.readouterr().err

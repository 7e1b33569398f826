import importlib.util
import inspect
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
from driftlab.solver import SolverConfig, SolverError, Trajectory
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


def test_invariants_suite_grades_only_the_certified_scheme():
    # theta = 1 with centered advection is no M-matrix scheme: on 21 nodes the Gaussian
    # datum loses its radial monotonicity, which the M-matrix bounds must not grade
    backward_centered = SolverConfig(dt=5e-2, theta=1.0, advection="centered")
    assert SolverConfig(dt=5e-2, theta=1.0, advection="upwind").certified
    assert not backward_centered.certified
    assert not SolverConfig(dt=5e-2, theta=0.5, advection="upwind").certified
    scen = lab._gaussian("backward-centered", Linear(), 10.0, 21, backward_centered, 1.0, 8.0)
    assert lab.field_measures(lab.simulate(scen).values)["radial_monotonicity"] > 0.01
    checks = {c.name: c for c in lab._suite_invariants(lab.simulate(scen))}
    for name in ("max_principle", "radial_monotonicity", "positivity"):
        assert checks[name].passed and checks[name].measured == 0.0, name
    assert lab.run(scen).invariants["max_principle"] is None


def test_run_outputs_are_deterministic(tmp_path):
    s = parse_scenario(FAST_SUPERCRITICAL)
    lab.run(s, out_dir=tmp_path / "a")
    lab.run(s, out_dir=tmp_path / "b")
    for name in ("frames.csv", "diagnostics.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_report_names_the_kernel_that_stepped_the_run(tmp_path):
    # A = 3 in n = 2 is symmetrizable; psi = 0 in n = 3, centered, has lower[1] = 0
    general = FAST_SUPERCRITICAL.replace("A = 3", "A = 0").replace("n = 2", "n = 3")
    for text, kernel in ((FAST_SUPERCRITICAL, "ldlt"), (general, "lu")):
        report = lab.run(parse_scenario(text), out_dir=tmp_path / kernel)
        assert report.resolution["kernel"] == kernel
        data = json.loads((tmp_path / kernel / "report.json").read_text())
        assert data["resolution"]["kernel"] == kernel


def _strict_json(path):
    def no_constant(token):
        raise ValueError(f"{path.name} is not strict JSON: {token}")

    return json.loads(path.read_text(), parse_constant=no_constant)


def test_json_artifacts_write_non_finite_values_as_strings(tmp_path):
    # a decay has infinite weight mass, a linear drift infinite averaged growth
    linear = FAST_SUPERCRITICAL.replace("kind = powerlaw\nA = 3\nbeta = -1\nr0 = 1",
                                        "kind = linear").replace("t_end = 2.0", "t_end = 0.1")
    for text, key in ((FAST_SUBCRITICAL, "phi_mass"), (linear, "growth_limit")):
        cfg = _write_config(tmp_path, text)
        assert cli.main(["simulate", cfg, "--quiet", "--out", str(tmp_path / "out")]) == 0
        assert cli.main(["classify", cfg, "--quiet", "--out", str(tmp_path / "out")]) == 0
        name = parse_scenario(text).name
        for path in (tmp_path / "out" / name / "report.json",
                     tmp_path / "out" / f"{name}_classification.json"):
            data = _strict_json(path)
            assert data[key] == "inf" and float(data[key]) == math.inf


def test_csv_floats_have_full_precision(tmp_path):
    s = parse_scenario(FAST_SUPERCRITICAL)
    report = lab.run(s, out_dir=tmp_path)
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "t,I_R,sup_u,center_u,mass"
    last = lines[-1].split(",")
    assert float(last[2]) == report.final_sup  # round-trips exactly


def test_frames_csv_matches_a_per_value_writer(tmp_path):
    g = RadialGrid(3.0, 7, 2)
    values = np.array([[1.0, -0.25, 0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300],
                       [1 / 3, -7e-310, 0.0, 2.5e-320, -1.0, 0.1, -1e-300]])
    traj = Trajectory(g, [0.0, 0.1 + 0.2], values, Zero(), SolverConfig(dt=0.3))
    lab.write_frames_csv(tmp_path / "frames.csv", traj)
    expected = "t,r,u\n" + "".join(f"{t:.17g},{r:.17g},{u:.17g}\n"
                                   for t, row in zip(traj.times, values)
                                   for r, u in zip(g.nodes, row))
    assert (tmp_path / "frames.csv").read_bytes() == expected.encode()


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


def test_sweep_values_with_one_label_are_rejected_before_any_row_runs(tmp_path, monkeypatch):
    s = parse_scenario(FAST_SUPERCRITICAL.replace("t_end = 2.0", "t_end = 0.02"))

    def no_run(*args, **kwargs):
        raise AssertionError("a row ran")

    monkeypatch.setattr(lab, "run", no_run)
    # both values read sigma=1 to 6 significant digits: one would overwrite the other's row
    with pytest.raises(ScenarioError, match="differ in 6 significant digits"):
        lab.sweep(s, "sigma", [1.0000001, 1.0000002], out_dir=tmp_path / "rows")
    assert not (tmp_path / "rows").exists()
    cfg = _write_config(tmp_path, FAST_SUPERCRITICAL)
    assert cli.main(["sweep", cfg, "--param", "sigma", "--values", "1.0000001,1.0000002"]) == 2


def _no_child_left():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_records_a_dead_worker_and_returns(monkeypatch):
    # the worker that dies takes down its own row only: the other worker and a new one
    # make the rest
    oracle = Path(__file__).resolve().parents[1] / "configs" / "linear_oracle.ini"
    s = parse_scenario(oracle.read_text().replace("t_end = 6", "t_end = 0.2"))
    real_run = lab.run

    def dying_run(scenario, out_dir=None):
        if scenario.initial.sigma == 0.7:
            os._exit(3)
        return real_run(scenario, out_dir=out_dir)

    monkeypatch.setattr(lab, "run", dying_run)  # the forked workers inherit the patch
    result = lab.sweep(s, "sigma", [0.5, 0.7, 1.0, 1.5, 2.0], threads=2)
    _no_child_left()
    assert [row.value for row in result.rows] == [0.5, 0.7, 1.0, 1.5, 2.0]
    dead = result.rows[1]
    assert all(row.error is None and row.report is not None
               for row in result.rows if row is not dead)
    assert result.table.count("ERROR") == 1
    assert dead.report is None and dead.error.startswith("BrokenProcessPool: ")
    assert "exit code 3" in dead.error


def test_sweep_forks_one_child_per_row_so_rows_after_dead_ones_are_made(monkeypatch):
    # the first two rows kill their children: the third row is made in a child of its own
    s = parse_scenario(FAST_SUPERCRITICAL.replace("t_end = 2.0", "t_end = 0.02"))
    real_run, forks = lab.run, _recording_forks(monkeypatch)

    def dying_run(scenario, out_dir=None):
        if scenario.initial.sigma < 0.8:
            os._exit(3)
        return real_run(scenario, out_dir=out_dir)

    monkeypatch.setattr(lab, "run", dying_run)
    result = lab.sweep(s, "sigma", [0.5, 0.7, 1.0], threads=2)
    _no_child_left()
    assert [row.error is None for row in result.rows] == [False, False, True]
    assert len(forks) == 3


def _pid_and_interval(i):
    start = time.monotonic()
    time.sleep(0.05)
    return i, os.getpid(), start, time.monotonic()


def _most_at_one_instant(made):
    # the most intervals that hold one instant is reached at some interval's start
    return max(sum(s <= t <= e for _, _, s, e in made) for _, _, t, _ in made)


def test_fork_map_makes_each_call_in_its_own_child_at_most_workers_at_a_time():
    # with broken, as sweep calls it: this process only waits, one child per call
    made = lab._fork_map(_pid_and_interval, [(i,) for i in range(6)], 2, lambda i, exc: None)
    _no_child_left()
    pids = [pid for _, pid, _, _ in made]
    assert len(set(pids)) == 6 and os.getpid() not in pids
    assert _most_at_one_instant(made) <= 2


def test_fork_map_without_broken_is_one_of_its_workers():
    # as verify calls it: a child makes the first call, this process the last, in order
    made = lab._fork_map(_pid_and_interval, [(i,) for i in range(6)], 2)
    _no_child_left()
    assert [i for i, _, _, _ in made] == list(range(6))
    assert made[-1][1] == os.getpid() != made[0][1]
    assert _most_at_one_instant(made) <= 2


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/fd")
def test_fork_map_closes_every_pipe_and_reaps_every_child():
    def fails_on_one(i):
        if i == 1:
            raise ValueError("call 1")
        return i

    def dies_on_one(i):
        if i == 1:
            os._exit(3)
        return i

    def fails_here_while_a_child_sleeps(i):
        if i == 3:
            raise ValueError("call 3")
        time.sleep(30)

    fds = os.listdir("/proc/self/fd")
    assert lab._fork_map(lambda i: i, [(i,) for i in range(4)], 2) == [0, 1, 2, 3]
    _no_child_left()
    assert os.listdir("/proc/self/fd") == fds
    made = lab._fork_map(dies_on_one, [(i,) for i in range(4)], 2, lambda i, exc: str(exc))
    _no_child_left()
    assert os.listdir("/proc/self/fd") == fds
    assert made[::2] == [0, 2] and made[3] == 3 and "exit code 3" in made[1]
    with pytest.raises(ValueError, match="call 1"):
        lab._fork_map(fails_on_one, [(i,) for i in range(4)], 2)
    _no_child_left()
    assert os.listdir("/proc/self/fd") == fds
    start = time.monotonic()
    with pytest.raises(ValueError, match="call 3") as err:  # made here, the child of 0 asleep
        lab._fork_map(fails_here_while_a_child_sleeps, [(i,) for i in range(4)], 2)
    assert err.value.__cause__ is None and time.monotonic() - start < 30
    _no_child_left()
    assert os.listdir("/proc/self/fd") == fds


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/fd")
@pytest.mark.parametrize("workers,broken", [(2, lambda i, exc: str(exc)), (3, None)])
def test_a_fork_that_fails_closes_its_pipe_and_reaches_the_caller(monkeypatch, workers, broken):
    fork, forks = os.fork, []

    def second_fork_fails():
        forks.append(len(forks))
        if len(forks) == 2:
            raise BlockingIOError("no second fork")
        return fork()

    fds = os.listdir("/proc/self/fd")
    monkeypatch.setattr(os, "fork", second_fork_fails)
    with pytest.raises(BlockingIOError, match="no second fork"):
        lab._fork_map(lambda i: i, [(i,) for i in range(4)], workers, broken)
    _no_child_left()
    assert os.listdir("/proc/self/fd") == fds and len(forks) == 2


def test_a_reply_that_fails_to_pickle_takes_down_only_its_call():
    def unpicklable_second(i):  # fn itself is never pickled: the children are forked
        return (lambda: i) if i == 1 else i

    made = lab._fork_map(unpicklable_second, [(i,) for i in range(4)], 2,
                         lambda i, exc: str(exc))
    _no_child_left()
    assert made[::2] == [0, 2] and made[3] == 3 and "exit code 1" in made[1]


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


def test_cli_simulate_refuses_theta_below_one_half(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lab, "simulate", None)  # any simulation attempt raises TypeError
    cfg = _write_config(tmp_path,
                        FAST_SUPERCRITICAL.replace("dt = 4e-3", "dt = 4e-3\ntheta = 0.25"))
    rc = cli.main(["simulate", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "error: solver: theta must lie in [0.5, 1], got 0.25\n"
    assert not (tmp_path / "out").exists()


def test_cli_simulate_runs_a_lift_off_whose_weight_mass_underflows(tmp_path, capsys):
    # psi = r^300 beyond r0 = 10 stays a double up to r_max = 10.5: an undetermined verdict,
    # in n = 1 too, where the first quadrature panel alone would count a weight mass of 1e-4;
    # upwind, since centered advection is refused at this cell Peclet number (6e303)
    for n, nodes in ((2, 106), (1, 201)):
        cfg = _write_config(tmp_path, FAST_SUPERCRITICAL.replace(
            "A = 3\nbeta = -1\nr0 = 1", "A = 1\nbeta = 300\nr0 = 10").replace(
            "n = 2\nr_max = 20\nnum_nodes = 801",
            f"n = {n}\nr_max = 10.5\nnum_nodes = {nodes}").replace(
            "t_end = 2.0\ndiag_radius = 16", "t_end = 0.2\ndiag_radius = 10").replace(
            "dt = 4e-3", "dt = 4e-3\nadvection = upwind"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", cfg, "--quiet", "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "fast-super" / "report.json").read_text())
        assert report["verdict"] == "undetermined" and report["phi_mass"] is None
        assert "weight mass reads 0" in report["classifier_note"]


def _load_perfbench(monkeypatch, name: str):
    """perfbench/<name>.py, loaded read-only by file path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_names_exist(monkeypatch):
    # perfbench's tracer wraps these names by attribute; a missing one breaks --trace 1
    tracing = _load_perfbench(monkeypatch, "tracing")
    assert [n for n in tracing.LAB_NAMES if not hasattr(lab, n)] == []
    assert [n for n in tracing.CLI_NAMES if not hasattr(cli, n)] == []


def test_benchmark_trace_of_a_simulate_counts_its_solve(tmp_path, monkeypatch):
    # the tracer reads lab.solve's positional arguments (u0, profile, config, t_end)
    tracing = _load_perfbench(monkeypatch, "tracing")
    cfg = _write_config(tmp_path, FAST_SUPERCRITICAL)
    with tracing.Tracer(lab, cli) as tracer:
        assert cli.main(["simulate", cfg, "--quiet", "--out", str(tmp_path / "out")]) == 0
    m = tracing.layer_metrics(tracer.spans)
    assert m["solver.solve_calls"] == 1
    assert m["solver.node_steps"] == 801 * 500  # num_nodes x (t_end / dt)
    assert m["lab.artifacts_s"] > 0


def test_benchmark_reference_outputs_match_the_verified_session(verified, tmp_path, monkeypatch):
    # the values perfbench/reference.json records for verify_reference and
    # simulate_subcritical, read back by the workloads' own readers from the files the
    # CLI would write for the session's verify: a drifted value fails here, not only
    # as the benchmark's outputs_incorrect
    workloads = _load_perfbench(monkeypatch, "workloads")
    reference = workloads.load_reference()
    reports, _, ran = verified
    suites = workloads.VerifyReference.suites
    for suite in suites:
        lab.write_json(tmp_path / f"verify_{suite}.json", reports[suite].to_dict())
    codes = [0 if reports[suite].passed else 1 for suite in suites]
    got = workloads.VerifyReference.summary(tmp_path, codes)
    for suite in suites:
        assert workloads.mismatches(reference["verify_reference"][suite], got[suite]) == [], suite
    lab.write_json(tmp_path / "subcritical" / "report.json", ran[lab.SUBCRITICAL].to_dict())
    got = workloads.SimulateSubcritical.summary(tmp_path, [0])["subcritical"]
    assert workloads.mismatches(reference["simulate_subcritical"]["subcritical"], got) == []


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
    assert abs(lab.relaxation_fit(times, center, (exponent,))[1] - 0.662177) <= 1e-12


def test_relaxation_limit_needs_three_frames():
    assert lab.relaxation_fit([0.0, 1.0, 2.0], [1.0, 0.8, 0.7], (0.5,)) is None
    assert lab.relaxation_fit([0.0, 1.0, 1.5, 2.0], [1.0, 0.8, 0.75, 0.7], (0.5,)) is not None
    assert lab.relaxation_fit([0.0, 1.0, 2.0], [1.0, 0.8, 0.7]) is None


def test_relaxation_fit_skips_a_rate_whose_t_to_the_minus_p_is_no_double():
    # t^-132.5 overflows on [3e-5, 6e-5] and t^-400 underflows to 0 on [1e5, 2e5], where
    # x = t^-p then has no spread: no fit at that rate, not a NaN level
    times = np.linspace(3e-5, 6e-5, 16)
    center = 0.5 + 1e-3 * times**-0.5
    assert lab.relaxation_fit(times, center, (132.5,)) is None
    assert lab.relaxation_fit(np.linspace(1e5, 2e5, 5), np.ones(5), (400.0,)) is None
    rate, level = lab.relaxation_fit(times, center, (132.5, 0.5))
    assert rate == 0.5 and level == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("exponent", [0.5, 0.75, 1.0, 1.5])
def test_fitted_relaxation_exponent_recovers_synthetic_rate(exponent):
    times = np.arange(81) * 1.0  # the frame times of lab.RELAXATION_RUNS, t in [0, 80]
    center = np.empty_like(times)
    center[0] = 1.0  # t = 0 lies outside the fitted window t >= 40
    center[1:] = 0.662177 + 0.167 * times[1:] ** -exponent
    assert lab.relaxation_fit(times, center)[0] == pytest.approx(exponent, abs=1e-12)


def test_relaxation_rate_gate_rejects_a_wrong_rate():
    # the relaxation suite's relaxation_exponent check asserts
    # |fitted - (L - n)/2| <= RELAXATION_RATE_ATOL; a center relaxing like t^-0.4
    # must fail it against p = 1/2, one relaxing like t^-0.47 must pass it
    times = np.arange(40, 81) * 1.0
    for rate, passes in ((0.4, False), (0.47, True)):
        fitted, _ = lab.relaxation_fit(times, 0.66 + 0.167 * times ** -rate)
        assert (abs(fitted - 0.5) <= lab.RELAXATION_RATE_ATOL) is passes


def test_plateau_identity_gate_rejects_a_level_off_by_three_percent():
    # the relaxation suite's plateau_limit check, which the liftoff-prediction
    # acceptance row reads, asserts plateau_gap(h_limit, h_pred) <= LIFTOFF_LEVEL_RTOL;
    # a series settling 3% above h_pred must fail it, one settling 0.5% above must pass it
    h_pred = 0.669691
    times = np.arange(1, 41) * 0.25
    for level, passes in ((1.03 * h_pred, False), (1.005 * h_pred, True)):
        _, h_limit = lab.relaxation_fit(times, level + 0.164 * times ** -0.5, (0.5,))
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
    (report,) = lab.verify("critical")
    assert report.passed
    assert {c.name for c in report.checks} == {"critical_family", "classifier_table"}
    payload = report.to_dict()
    assert list(payload) == ["suite", "passed", "checks", "resolution", "elapsed_seconds"]
    assert payload["suite"] == "critical"
    assert all("measured" in c for c in payload["checks"])
    assert payload["resolution"] == {}  # the classifier table reads no run


DECLARED_RUNS = (lab.LINEAR_ORACLE, lab.ORACLE_WINDOW, lab.MASS_GROWTH, *lab.CONVERGENCE_LADDER,
                 lab.BOUNDED_DRIFT, lab.SUBCRITICAL, *lab.RELAXATION_RUNS, *lab.INVARIANT_RUNS)


def test_declared_reference_runs_have_distinct_names():
    assert len({s.name for s in DECLARED_RUNS}) == len(DECLARED_RUNS)


def test_verify_resolution_is_the_report_block_of_each_declared_run():
    declared = {s.name: s for s in DECLARED_RUNS}
    reports = lab.verify("invariants", "convergence", "oracle", "invariants")
    assert [r.suite for r in reports] == ["invariants", "convergence", "oracle"]
    for report in reports:
        assert report.resolution
        for name, block in report.resolution.items():
            assert block == lab.resolution(declared[name], block["kernel"])
    invariants = reports[0].resolution
    assert list(invariants) == [s.name for s in lab.INVARIANT_RUNS]
    # Zero() in n = 3 with centered advection has lower[1] = 0: no LDL^T, pivoted LU
    lu = [s.name for s in lab.INVARIANT_RUNS
          if isinstance(s.profile, Zero) and s.n_dim == 3 and s.solver.theta == 0.5]
    assert {name: block["kernel"] for name, block in invariants.items()} == {
        s.name: "lu" if s.name in lu else "ldlt" for s in lab.INVARIANT_RUNS}
    assert reports[2].resolution == {
        s.name: lab.resolution(s, "ldlt") for s in (lab.ORACLE_WINDOW, lab.MASS_GROWTH)}


@pytest.mark.parametrize("suite,solves", [("oracle", 2), ("convergence", 3), ("invariants", 30),
                                          ("critical", 0)])
def test_verify_solve_count_per_suite(monkeypatch, suite, solves):
    # a suite's solves are its dispatched runs, one solve each, plus its inline solves: the
    # runs are counted where verify dispatches them, since a worker's counts never come back
    inline, dispatched, solve, fork_map = [], [], lab.solve, lab._fork_map

    def counting(*args):
        inline.append(args)
        return solve(*args)

    def dispatching(fn, calls, workers, broken=None):
        dispatched.extend(calls)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lab, "solve", solve)  # a run made here is not counted again inline
            return fork_map(fn, calls, workers, broken)

    monkeypatch.setattr(lab, "solve", counting)
    monkeypatch.setattr(lab, "_fork_map", dispatching)
    lab.verify(suite)
    assert len(dispatched) + len(inline) == solves
    assert len(set(dispatched)) == len(dispatched)


def _usable_cores(monkeypatch, cores):
    """verify sees this many usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def test_verify_in_one_worker_matches_the_parallel_session(verified, monkeypatch):
    # the session's verify forked its runs over the usable cores; one worker makes them here
    _usable_cores(monkeypatch, 1)
    suites = ("oracle", "liftoff", "invariants", "relaxation")
    for report in lab.verify(*suites):
        parallel = verified[0][report.suite]
        assert report.checks == parallel.checks, report.suite
        assert report.resolution == parallel.resolution, report.suite


def _recording_forks(monkeypatch):
    """The pids of the child processes forked from here on, as the parent sees them."""
    fork, pids = os.fork, []

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def test_verify_forks_its_largest_run_and_makes_the_runs_beside_it_here(monkeypatch):
    forks = _recording_forks(monkeypatch)
    lab.verify("conservation")  # one run: made in this process
    lab.verify("critical")  # no run
    assert forks == []
    _usable_cores(monkeypatch, 2)
    real_run, ran = lab.run, []

    def recording_run(scenario, out_dir=None):  # a child's records never come back
        ran.append((scenario.name, os.getpid()))
        return real_run(scenario, out_dir=out_dir)

    monkeypatch.setattr(lab, "run", recording_run)
    lab.verify("liftoff")  # two runs: the larger in one child, the other here
    assert len(forks) == 1 and ran == [(lab.LINEAR_ORACLE.name, os.getpid())]
    del forks[:]
    lab.verify("convergence")  # three runs, one child slot: once it is taken, one run is left
    assert len(forks) == 1
    _no_child_left()


def test_an_exception_in_a_verify_worker_reaches_the_caller(monkeypatch):
    _usable_cores(monkeypatch, 2)
    parent, simulate = os.getpid(), lab.simulate

    def failing(scenario):  # the forked workers inherit the patch
        if os.getpid() == parent:
            return simulate(scenario)
        raise SolverError(f"no solve of {scenario.name} in a worker")

    monkeypatch.setattr(lab, "simulate", failing)
    match = r"^no solve of (oracle-window|mass-growth) in a "
    with pytest.raises(SolverError, match=match) as err:
        lab.verify("oracle")
    assert "in failing\n" in str(err.value.__cause__)  # the worker's traceback
    _no_child_left()


@pytest.mark.parametrize("suite", lab.suite_names())
def test_each_suite_checks_take_exactly_the_runs_it_declares(suite):
    # a suite's checks get its declared runs as positional arguments, in order: a signature
    # that cannot take them all, or that takes more, would fail only inside a verify call
    checks, reads = lab._SUITES[suite]
    signature = inspect.signature(checks)
    signature.bind(*reads)
    if all(p.kind is not p.VAR_POSITIONAL for p in signature.parameters.values()):
        with pytest.raises(TypeError):
            signature.bind(*reads, None)


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
    rc = cli.main(["verify", "critical", "convergence", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "verify_critical.json").exists()
    assert (tmp_path / "verify_convergence.json").exists()
    out = capsys.readouterr().out
    assert "critical_family" in out and "convergence_order" in out
    assert out.index("suite critical: PASS") < out.index("suite convergence: PASS")

    rc = cli.main(["verify", "critical", "convergence", "--quiet"])
    assert rc == 0
    assert capsys.readouterr().out == "suite critical: PASS\nsuite convergence: PASS\n"


def _fake_verify(failing):
    """A stand-in for lab.verify that records its suites and fails the named ones."""
    calls = []

    def verify(*suites):
        calls.append(suites)
        return [lab.SuiteReport(s, [lab.CheckResult("c", s not in failing, 1.0, 0.0)], {}, 0.0)
                for s in suites]
    return verify, calls


def test_cli_verify_all_is_one_call_of_every_suite(monkeypatch, capsys):
    verify, calls = _fake_verify(failing=())
    monkeypatch.setattr(lab, "verify", verify)
    assert cli.main(["verify", "all", "--quiet"]) == 0
    assert calls == [lab.suite_names()]
    assert capsys.readouterr().out.splitlines() == [f"suite {s}: PASS" for s in lab.suite_names()]


def test_cli_verify_fails_if_any_suite_fails(monkeypatch, tmp_path, capsys):
    verify, calls = _fake_verify(failing=("oracle",))
    monkeypatch.setattr(lab, "verify", verify)
    assert cli.main(["verify", "critical", "oracle", "--quiet", "--out", str(tmp_path)]) == 1
    assert calls == [("critical", "oracle")]
    assert capsys.readouterr().out == "suite critical: PASS\nsuite oracle: FAIL\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["verify_critical.json",
                                                          "verify_oracle.json"]


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


def test_cli_rejects_a_run_name_outside_out(tmp_path, capsys):
    cfg = _write_config(tmp_path, FAST_SUPERCRITICAL.replace("name = fast-super",
                                                             "name = ../escaped"))
    for command in ("simulate", "classify"):
        assert cli.main([command, cfg, "--out", str(tmp_path / "out")]) == 2
        assert "run.name: must be a file name, got '../escaped'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.ini"]


def test_cli_sweep_integer_parameter_asks_for_an_integer(tmp_path, capsys):
    cfg = _write_config(tmp_path, FAST_SUPERCRITICAL)
    assert cli.main(["sweep", cfg, "--param", "num_nodes", "--values", "2.5"]) == 2
    assert "--values: expected an integer, got '2.5'" in capsys.readouterr().err


def test_cli_sweep_values_are_read_as_the_document_reads_the_key(tmp_path, capsys):
    # r_max = inf would otherwise reach RadialGrid and fail inside the row
    cfg = _write_config(tmp_path, FAST_SUPERCRITICAL)
    for token in ("inf", "nan", "-inf"):
        assert cli.main(["sweep", cfg, "--param", "r_max", "--values", f"50,{token}"]) == 2
        assert f"--values: expected a finite number, got '{token}'" in capsys.readouterr().err


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
    forks = _recording_forks(monkeypatch)
    cfg = _write_config(tmp_path, FAST_SUPERCRITICAL.replace("t_end = 2.0", "t_end = 0.02"))
    assert cli.main(["sweep", cfg, "--param", "A", "--values", "1,3", "--threads", "64"]) == 0
    assert len(forks) == 2
    assert cli.main(["sweep", cfg, "--param", "A", "--values", "3", "--threads", "64"]) == 0
    assert len(forks) == 2  # one value runs in this process, without a fork
    _no_child_left()
    assert "lift_off" in capsys.readouterr().out


def test_cli_runs_without_scipy_linalg_or_special(tmp_path):
    # the solver steps on numpy's own LAPACK: no command, forked workers included, imports
    # any scipy module or maps a file of scipy's (its linalg extensions, its OpenBLAS)
    cfg = _write_config(tmp_path, FAST_SUPERCRITICAL.replace("t_end = 2.0", "t_end = 0.02"))
    oracle = Path(__file__).resolve().parents[1] / "configs" / "linear_oracle.ini"
    script = (
        "import os, sys\n"
        "sys.modules['scipy'] = None\n"  # every scipy import now raises ImportError
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from driftlab import cli\n"
        f"assert cli.main(['classify', {str(oracle)!r}, '--quiet']) == 0\n"
        f"assert cli.main(['simulate', {cfg!r}, '--quiet']) == 0\n"
        f"assert cli.main(['sweep', {cfg!r}, '--param', 'A', '--values', '1,3', '--threads', '2'])"
        " == 0\n"
        "assert cli.main(['verify', 'oracle', '--quiet']) == 0\n"
        "del sys.modules['scipy']\n"
        "print(sorted(name for name in sys.modules if name.partition('.')[0] in\n"
        "             {'scipy', 'sympy', 'mpmath', 'multiprocessing'}\n"
        "             or name.startswith('concurrent.futures')))\n"
        "if sys.platform == 'linux':\n"
        "    with open('/proc/self/maps') as maps:\n"
        "        print([line for line in maps if 'scipy.libs' in line or 'scipy/linalg' in line])\n"
    )
    src = str(Path(driftlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    lines = out.stdout.splitlines()
    assert "ERROR" not in out.stdout and out.stdout.count("match=") == 2  # both sweep rows
    assert lines[-2:] == ["[]", "[]"] if sys.platform == "linux" else lines[-1] == "[]"


def test_forked_verify_and_sweep_import_no_multiprocessing(tmp_path):
    # the forked workers are made with os.fork and pipes alone: multiprocessing and
    # concurrent.futures would cost every verify and sweep their resident memory
    cfg = _write_config(tmp_path, FAST_SUPERCRITICAL.replace("t_end = 2.0", "t_end = 0.02"))
    script = (
        "import os, sys\n"
        "fork, forks = os.fork, []\n"
        "def counting_fork():\n"
        "    pid = fork()\n"
        "    forks.extend([pid] if pid else [])\n"
        "    return pid\n"
        "os.fork = counting_fork\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from driftlab import cli\n"
        "assert cli.main(['verify', 'liftoff', '--quiet']) in (0, 1)\n"
        f"assert cli.main(['sweep', {cfg!r}, '--param', 'A', '--values', '1,3', '--threads', '2',\n"
        "                 '--quiet']) == 0\n"
        "print(len(forks), sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    src = str(Path(driftlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[-1] == "3 []"  # liftoff's larger run, then each sweep row


def test_run_grades_weighted_mass_monotonicity_only_for_a_nonincreasing_datum():
    # mass flows into the ball from outside a datum that rises with r: the positive-part
    # I_R of a decay then need not fall, as radial_monotonicity is not graded either
    scen = parse_scenario("""
[profile]
kind = zero

[domain]
n = 2
r_max = 10
num_nodes = 201

[initial]
kind = tabulated
samples = 0:0, 10:1

[solver]
dt = 1e-2
theta = 1.0
advection = upwind

[run]
t_end = 1
""")
    report = lab.run(scen)
    assert report.classification.verdict is Verdict.DECAY
    assert report.weight_kind == "positive_part"
    assert report.series.weighted_mass[-1] > report.series.weighted_mass[0]
    assert report.invariants["weighted_mass_monotone"] is None
    assert report.invariants["radial_monotonicity"] is None


def test_cli_unknown_suite_exit_code(capsys):
    rc = cli.main(["verify", "spectral"])
    assert rc == 2
    assert "valid suites" in capsys.readouterr().err


def test_cli_unknown_suite_among_known_runs_nothing(tmp_path, capsys):
    # "all" expands in place: an unknown name beside it still stops every suite
    for suites in (["critical", "spectral"], ["all", "spectral"]):
        rc = cli.main(["verify", *suites, "--out", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "valid suites" in captured.err and captured.out == ""
        assert not any(tmp_path.iterdir())

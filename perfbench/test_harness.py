"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

from __future__ import annotations

import copy
import json
import threading
from pathlib import Path

import pytest

import run
import tracing
import workloads
from worker import _import_driftlab

cli = _import_driftlab()
from driftlab import lab  # noqa: E402


def test_tracer_restores_the_original_functions():
    targets = [(lab, n) for n in tracing.LAB_NAMES] + [(cli, n) for n in tracing.CLI_NAMES]
    originals = [getattr(m, n) for m, n in targets]
    with pytest.raises(RuntimeError):
        with tracing.Tracer(lab, cli):
            assert all(getattr(m, n) is not f for (m, n), f in zip(targets, originals))
            raise RuntimeError("leave the block by an exception")
    assert all(getattr(m, n) is f for (m, n), f in zip(targets, originals))


def test_spans_nest_within_threads_and_under_the_sweep(tmp_path):
    cfg = workloads.shortened_config(workloads.config_path("linear_oracle.ini"), 0.05,
                                     tmp_path / "short.ini")
    tracer = tracing.Tracer(lab, cli)
    with tracer, tracer.span("cli.main"):
        code = cli.main(["sweep", cfg, "--param", "sigma", "--values", "0.5,0.7,0.9,1.1",
                         "--threads", "2", "--quiet", "--out", str(tmp_path / "out")])
    assert code == 0
    spans = {s.id: s for s in tracer.spans}
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (main,) = by_name["cli.main"]
    (sweep,) = by_name["lab.sweep"]
    assert main.parent is None and sweep.parent == main.id
    assert len(by_name["lab.run"]) == 4
    for s in by_name["lab.run"]:
        assert s.parent == sweep.id
    for name in ("lab.solve", "lab.classify", "lab.diagnostics", "lab.write_frames_csv"):
        for s in by_name[name]:
            parent = spans[s.parent]
            assert parent.name == "lab.run" and parent.thread == s.thread
            assert parent.start <= s.start <= s.end <= parent.end
    assert threading.get_ident() == main.thread

    own = tracing.self_times(tracer.spans)
    assert all(0.0 <= own[s.id] <= s.end - s.start for s in tracer.spans)
    metrics = tracing.layer_metrics(tracer.spans)
    assert set(metrics) | {"lab.artifact_mb", "trace.overhead_s", "lab.sweep_serial_s",
                           "lab.sweep_threaded_s", "lab.sweep_speedup"} == set(tracing.LAYER_METRICS)
    assert metrics["solver.solve_calls"] == 4
    assert metrics["solver.node_steps"] == 4 * 2001 * 50
    assert metrics["solver.unique_node_step_ratio"] == 1.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [tracing.Span(0, "p", None, 1, 0.0, 10.0),
             tracing.Span(1, "a", 0, 2, 1.0, 5.0),
             tracing.Span(2, "b", 0, 3, 4.0, 6.0),
             tracing.Span(3, "c", 0, 2, 8.0, 9.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def _write_verify_outputs(out: Path, expected: dict, suites) -> list:
    """verify_<suite>.json files as the CLI writes them, holding the given values."""
    codes = []
    for suite in suites:
        row = expected[suite]
        names = sorted({k.rsplit(".", 1)[0] for k in row if k != "exit_code"})
        checks = [{"name": n, "passed": row[f"{n}.passed"], "measured": row[f"{n}.measured"]}
                  for n in names]
        (out / f"verify_{suite}.json").write_text(json.dumps({"suite": suite, "checks": checks}))
        codes.append(row["exit_code"])
    return codes


def test_output_check_catches_a_perturbed_reference_value(tmp_path):
    reference = workloads.load_reference()
    wl = workloads.VerifyReference(0)
    codes = _write_verify_outputs(tmp_path, reference[wl.name], wl.suites)
    assert wl.check(tmp_path, codes, reference) == [[]] * len(wl.suites)

    perturbed = copy.deepcopy(reference)
    row = perturbed[wl.name]["liftoff"]
    row["liftoff_prediction.measured"] *= 1 + 1e-4
    errors = wl.check(tmp_path, codes, perturbed)
    assert [bool(e) for e in errors] == [s == "liftoff" for s in wl.suites]
    assert "liftoff_prediction.measured" in errors[wl.suites.index("liftoff")][0]

    flipped = copy.deepcopy(reference)
    flipped[wl.name]["liftoff"]["liftoff_prediction.passed"] = True
    assert wl.check(tmp_path, codes, flipped)[wl.suites.index("liftoff")]


def test_recorded_values_tolerate_round_off_only():
    assert workloads.same(1e-15, 1.2e-15)
    assert workloads.same(0.06621121145981344, 0.06621121145981344 * (1 + 1e-9))
    assert not workloads.same(0.06621121145981344, 0.06621121145981344 * (1 + 1e-5))
    assert not workloads.same(True, 1)
    assert not workloads.same(None, False)


def test_sweep_check_flags_a_plateau_outside_two_percent(tmp_path):
    wl = workloads.SweepLinearSigma(7)
    for sigma, label in zip(wl.sigmas, wl.labels):
        exact = sigma / (sigma + 0.5)
        (tmp_path / label).mkdir()
        h_obs = exact * (1.03 if label == wl.labels[3] else 1.001)
        (tmp_path / label / "report.json").write_text(
            json.dumps({"verdict": "lift_off", "h_obs": h_obs}))
    errors = wl.check(tmp_path, [0], {})
    assert [bool(e) for e in errors] == [i == 3 for i in range(8)]


def test_seed_draws_distinct_sigmas_and_repeats():
    a, b = workloads.SweepLinearSigma(3), workloads.SweepLinearSigma(3)
    assert a.sigmas == b.sigmas and len(set(a.labels)) == 8
    assert all(0.5 <= s <= 2.0 for s in a.sigmas)
    assert a.sigmas != workloads.SweepLinearSigma(4).sigmas


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracing.LAYER_METRICS

"""End-to-end and per-layer benchmark of driftlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it measures set-up time in
fresh processes, then runs the workload in one child process for about S
seconds and prints the end-to-end metrics; with --trace 1 the child
alternates untraced and traced operations and the per-layer metrics are
printed instead.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
The full record (machine, every sample, spans) goes to
perfbench/out/<workload>-seed<N>-trace<T>.json.  Workloads, metrics and the
predictions of which layer moves which metric are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5        # fresh processes per run; setup_s is their median
CHILD_DEADLINE_S = 170  # the whole run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "node_steps_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def _worker(*args: str) -> list:
    return [sys.executable, str(HERE / "worker.py"), *args]


def measure_setup(workload: str) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(_worker("setup", workload), check=True, capture_output=True,
                             text=True, timeout=60, cwd=ROOT)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def run_child(args, result_file: Path, deadline: float):
    """Run the workload child; returns (exit code, peak RSS in MB) from its own rusage.

    The child is killed and reaped if it overruns the deadline or this process
    is interrupted or terminated."""
    proc = subprocess.Popen(
        _worker("run", args.workload, str(args.seed), str(args.seconds), str(args.trace),
                str(result_file)),
        cwd=ROOT, stdout=sys.stderr)
    try:
        while time.monotonic() < deadline:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB
            time.sleep(0.05)
        return None, 0.0
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _fmt(value) -> str:
    return format(value, ".6g") if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    t_begin = time.monotonic()
    signal.signal(signal.SIGTERM, _terminate)
    wl = WORKLOADS[args.workload]
    missing = [p for p in (ROOT / "src" / "driftlab" / "__init__.py", *map(Path, wl.configs))
               if not p.is_file()]
    if missing:
        print(f"error: not a driftlab checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    setup = [] if args.trace else measure_setup(args.workload)
    code, peak_rss_mb = run_child(args, record_file, t_begin + CHILD_DEADLINE_S)
    if code != 0:
        print(f"error: workload process ended with {code}", file=sys.stderr)
        return 1
    with open(record_file) as fh:
        record = json.load(fh)

    outcomes = record["outcomes"]
    failed = [(label, errs) for label, errs in outcomes if errs]
    mach = record["machine"]
    print("machine: " + " ".join(f"{k}={v}" for k, v in mach.items()))
    print(f"workload: {args.workload} seed={args.seed} ({wl.seed_note}); "
          f"declared node-steps per operation (computed, Σ N x steps) = {wl.node_steps}")
    for label, errs in failed[:10]:
        print(f"FAILED {label}: " + "; ".join(errs[:3]))
    print(f"fail_ratio: {len(failed)}/{len(outcomes)} = {len(failed) / len(outcomes):.6g}")

    if args.trace:
        untraced, traced = record["untraced"], record["traced"]
        print(f"traced run: {len(traced)} traced and {len(untraced)} untraced operations; "
              f"median {statistics.median(traced):.6g} s traced vs "
              f"{statistics.median(untraced):.6g} s untraced")
        print(f"solver.node_steps traced = {record['layers']['solver.node_steps']} against "
              f"{wl.node_steps} declared; solver.node_steps and solver.frame_bytes "
              f"(frames x N x 8) are computed from solve() arguments, not measured")
        metrics = {k: {"value": record["layers"][k], "unit": unit}
                   for k, (unit, _) in LAYER_METRICS.items()}
        threaded = record["layers"]["lab.sweep_threaded_s"]
        if threaded:
            serial = record["layers"]["lab.sweep_serial_s"]
            verdict = "slower" if threaded > serial else "faster"
            print(f"finding: the sweep takes {threaded:.6g} s with --threads 2 against "
                  f"{serial:.6g} s with --threads 1; the threads make it {verdict}")
    else:
        walls = record["walls"]
        wall = statistics.median(walls)
        q = statistics.quantiles(walls, n=4) if len(walls) > 1 else [wall] * 3
        n = len(walls)
        tail = (f"p{100 * (n - 10) // n}={sorted(walls)[n - 11]:.6g}" if n >= 20 else
                "no tail percentile: fewer than 20 samples leave none with ten beyond it")
        print(f"wall_s samples: n={n} median={wall:.6g} q1={q[0]:.6g} q3={q[2]:.6g} "
              f"max={max(walls):.6g} ({tail})")
        print(f"setup_s samples: n={len(setup)} " + " ".join(f"{s:.4g}" for s in setup))
        values = {"wall_s": wall, "node_steps_per_s": wl.node_steps / wall,
                  "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"{name} = {_fmt(m['value'])} {m['unit']}")

    record.update(metrics=metrics, setup=setup, peak_rss_mb=peak_rss_mb)
    with open(record_file, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": not failed, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

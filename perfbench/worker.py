"""Child process of perfbench/run.py: imports driftlab from the checkout's src/ and measures it.

    python3 perfbench/worker.py setup WORKLOAD
        prints the seconds taken to import driftlab (numpy and scipy included)
        and parse the workload's configs, in this fresh process.
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE RESULT_JSON
        warms up, then times whole operations (the CLI calls of one workload
        pass) through driftlab.cli.main for about SECONDS seconds, checks
        every output, and writes the measurements to RESULT_JSON.  With TRACE=1
        it alternates untraced and traced operations and adds per-layer metrics.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, load_reference  # noqa: E402


def _import_driftlab():
    import driftlab
    import driftlab.cli

    if Path(driftlab.__file__).resolve().parent != SRC / "driftlab":
        raise ImportError(f"driftlab imported from {driftlab.__file__}, not from {SRC}")
    return driftlab.cli


def setup(name: str) -> None:
    t0 = time.perf_counter()
    _import_driftlab()
    from driftlab.scenario import parse_scenario

    for cfg in WORKLOADS[name].configs:
        parse_scenario(Path(cfg).read_text(), name=Path(cfg).stem)
    print(repr(time.perf_counter() - t0))


def machine() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


class Runner:
    """Runs one workload's operations in this process and collects their outcomes."""

    def __init__(self, cli, workload, scratch: Path):
        self.cli = cli
        self.wl = workload
        self.scratch = scratch
        self.reference = load_reference()
        self.outcomes: list = []  # [label, [error, ...]] per checked operation

    def op(self, commands, tracer=None, check=True):
        """Time one operation; returns (seconds, bytes the CLI wrote)."""
        with tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
            argvs = commands(tmp)
            codes = []
            try:
                t0 = time.perf_counter()
                for argv in argvs:
                    if tracer is None:
                        codes.append(self.cli.main(argv))
                    else:
                        with tracer.span("cli.main"):
                            codes.append(self.cli.main(argv))
                wall = time.perf_counter() - t0
                errors = self.wl.check(Path(tmp), codes, self.reference) if check else []
            except Exception:  # an operation that raises is a failed operation
                traceback.print_exc()
                wall = time.perf_counter() - t0
                errors = [["raised: see stderr"]] * len(self.wl.labels) if check else []
            written = sum(f.stat().st_size for f in Path(tmp).rglob("*") if f.is_file())
        self.outcomes += [[label, errs] for label, errs in zip(self.wl.labels, errors)]
        return wall, written


def _done(start: float, seconds: float, op_seconds: float) -> bool:
    """Stop when another operation would end more than half its length past the budget,
    so the measured time is the whole number of operations nearest to --seconds."""
    return time.perf_counter() - start + op_seconds / 2 > seconds


def run(name: str, seed: int, seconds: float, trace: bool, result_file: str) -> None:
    cli = _import_driftlab()
    wl = WORKLOADS[name](seed)
    scratch = HERE / "out"
    scratch.mkdir(exist_ok=True)
    runner = Runner(cli, wl, scratch)
    runner.op(wl.warm_up, check=False)

    result = {"machine": machine()}
    start = time.perf_counter()
    if not trace:
        walls = []
        while True:
            walls.append(runner.op(wl.commands)[0])
            if _done(start, seconds, statistics.median(walls)):
                break
        result["walls"] = walls
    else:
        from driftlab import lab
        from tracing import Tracer, layer_metrics, median_metrics

        untraced, traced, layers, spans = [], [], [], []
        serial = None
        serial_commands = getattr(wl, "serial_commands", None)
        while True:
            untraced.append(runner.op(wl.commands)[0])
            if serial_commands is not None and serial is None:
                serial = runner.op(serial_commands)[0]
            tracer = Tracer(lab, cli)
            with tracer:
                wall, written = runner.op(wl.commands, tracer)
            traced.append(wall)
            layers.append(dict(layer_metrics(tracer.spans), **{"lab.artifact_mb": written / 1e6}))
            spans.append([vars(s) for s in tracer.spans])
            if _done(start, seconds, untraced[-1] + traced[-1]):
                break
        base = statistics.median(untraced)
        layer = median_metrics(layers)
        layer["trace.overhead_s"] = statistics.median(traced) - base
        layer["lab.sweep_serial_s"] = serial or 0.0
        layer["lab.sweep_threaded_s"] = base if serial else 0.0
        layer["lab.sweep_speedup"] = serial / base if serial else 0.0
        result.update(untraced=untraced, traced=traced, layers=layer, spans=spans)
    result["outcomes"] = runner.outcomes
    with open(result_file, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        _, _, wname, wseed, wseconds, wtrace, wresult = sys.argv
        run(wname, int(wseed), float(wseconds), wtrace == "1", wresult)

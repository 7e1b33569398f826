"""In-memory span tracing around driftlab's layer boundaries.

``lab`` and ``cli`` bind the functions they call with ``from ... import``, so
a span is recorded by replacing the name in the importing module for the
duration of a ``with Tracer(lab, cli):`` block; the originals are put back on
exit.  Each span records its name, start, end and parent.  Parents are
tracked per thread: a thread with no open span (a sweep worker) takes the
innermost open span of the thread that entered the tracer as its parent, so
sweep rows nest under the sweep that started them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import statistics
import threading
import time
from dataclasses import dataclass, field

# Names wrapped in driftlab.lab and driftlab.cli; their spans are named lab.<name>, cli.<name>.
LAB_NAMES = (
    "solve", "step", "classify", "diagnostics", "predict_liftoff_level", "phi_tail_bound",
    "write_frames_csv", "write_diagnostics_csv", "ou_solution", "mass_growth_check",
    "run", "verify", "sweep",
)
CLI_NAMES = ("parse_scenario",)

# grid sizes the three workloads solve at; solver.ns_per_node_step is reported for each
NODE_COUNTS = (201, 301, 601, 1201, 2001, 3001, 4001)
SUITES = ("oracle", "liftoff", "conservation", "convergence", "invariants", "critical")

# Every per-layer metric a traced run reports, with its unit and which direction is better.
# A metric of a layer a workload does not reach reads 0.
LAYER_METRICS = {
    "solver.solve_s": ("s", "lower"),
    "solver.solve_calls": ("count", "lower"),
    "solver.step_s": ("s", "lower"),
    "solver.step_calls": ("count", "lower"),
    "solver.node_steps": ("count", "lower"),
    "solver.unique_node_step_ratio": ("ratio", "higher"),
    "solver.frame_bytes": ("B", "lower"),
    **{f"solver.ns_per_node_step.N{n}": ("ns", "lower") for n in NODE_COUNTS},
    "lab.artifacts_s": ("s", "lower"),
    "lab.artifact_mb": ("MB", "lower"),
    **{f"lab.verify_s.{suite}": ("s", "lower") for suite in SUITES},
    "lab.run_self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "lab.sweep_serial_s": ("s", "lower"),
    "lab.sweep_threaded_s": ("s", "lower"),
    "lab.sweep_speedup": ("ratio", "higher"),
    "weights.classify_s": ("s", "lower"),
    "weights.diagnostics_s": ("s", "lower"),
    "weights.predict_s": ("s", "lower"),
    "oracles.s": ("s", "lower"),
    "scenario.parse_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _step_count(t_end: float, dt: float) -> int:
    """Steps solver.solve takes to reach t_end, counting a shortened last step."""
    if t_end <= 0:
        return 0
    ratio = t_end / dt
    n_full = math.floor(ratio)
    if ratio - n_full > 1 - 1e-9:
        n_full += 1
    return n_full + (1 if t_end - n_full * dt > dt * 1e-9 else 0)


def _solve_attrs(args, result) -> dict:
    u0, profile, config, t_end = args
    grid = u0.grid
    digest = hashlib.sha1(u0.values.tobytes())
    digest.update(profile.psi(grid.nodes[1:-1]).tobytes())
    key = (digest.hexdigest(), grid.n_dim, grid.r_max, grid.num_nodes,
           config.dt, config.theta, config.advection, config.outer_bc,
           config.snapshot_stride, float(t_end))
    return {"nodes": grid.num_nodes, "steps": _step_count(float(t_end), config.dt),
            "frames": len(result), "key": repr(key)}


def _verify_attrs(args, result) -> dict:
    return {"suite": args[0]}


_ATTRS = {"solve": _solve_attrs, "verify": _verify_attrs}


class Tracer:
    """Context manager that records spans around the named driftlab functions."""

    def __init__(self, lab, cli):
        self.spans: list[Span] = []
        self._targets = [(lab, n, f"lab.{n}") for n in LAB_NAMES]
        self._targets += [(cli, n, f"cli.{n}") for n in CLI_NAMES]
        self._saved: list = []
        self._stacks: dict[int, list[Span]] = {}
        self._lock = threading.Lock()
        self._owner: int | None = None

    def __enter__(self):
        self._owner = threading.get_ident()
        for module, attr, name in self._targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, _ATTRS.get(attr)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _open(self, name: str) -> Span:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            origin = stack or self._stacks.get(self._owner) or []
            span = Span(len(self.spans), name, origin[-1].id if origin else None, tid,
                        time.perf_counter())
            self.spans.append(span)
            stack.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block, as in ``with tracer.span("cli.main"):``."""
        span = self._open(name)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            with self._lock:
                self._stacks[span.thread].pop()

    def _wrap(self, fn, name, attrs_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if attrs_fn is not None:
                span.attrs.update(attrs_fn(args, result))
            return result

        return traced


# ---------------------------------------------------------------------------
# per-layer metrics from one traced operation


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children.get(s.id, ())) for s in spans}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metric values (without units) for the spans of one operation."""
    busy: dict[str, float] = {}
    for s in spans:
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
    own = self_times(spans)

    def total(*names):
        return sum(busy.get(n, 0.0) for n in names)

    solves = [s for s in spans if s.name == "lab.solve" and s.attrs]  # attrs: returned
    node_steps = sum(s.attrs["nodes"] * s.attrs["steps"] for s in solves)
    unique = {s.attrs["key"]: s.attrs["nodes"] * s.attrs["steps"] for s in solves}
    m = {
        "solver.solve_s": total("lab.solve"),
        "solver.solve_calls": len(solves),
        "solver.step_s": total("lab.step"),
        "solver.step_calls": sum(1 for s in spans if s.name == "lab.step"),
        "solver.node_steps": node_steps,
        "solver.unique_node_step_ratio": sum(unique.values()) / node_steps if node_steps else 0.0,
        "solver.frame_bytes": max((s.attrs["frames"] * s.attrs["nodes"] * 8 for s in solves),
                                  default=0),
    }
    for n in NODE_COUNTS:
        at_n = [s for s in solves if s.attrs["nodes"] == n]
        work = sum(s.attrs["nodes"] * s.attrs["steps"] for s in at_n)
        secs = sum(s.end - s.start for s in at_n)
        m[f"solver.ns_per_node_step.N{n}"] = 1e9 * secs / work if work else 0.0
    m["lab.artifacts_s"] = total("lab.write_frames_csv", "lab.write_diagnostics_csv")
    for suite in SUITES:
        m[f"lab.verify_s.{suite}"] = sum(s.end - s.start for s in spans
                                         if s.name == "lab.verify" and s.attrs.get("suite") == suite)
    m["lab.run_self_s"] = sum(own[s.id] for s in spans if s.name == "lab.run")
    m["cli.self_s"] = sum(own[s.id] for s in spans if s.name == "cli.main")
    m["weights.classify_s"] = total("lab.classify")
    m["weights.diagnostics_s"] = total("lab.diagnostics")
    m["weights.predict_s"] = total("lab.predict_liftoff_level", "lab.phi_tail_bound")
    m["oracles.s"] = total("lab.ou_solution", "lab.mass_growth_check")
    m["scenario.parse_s"] = total("cli.parse_scenario")
    m["trace.spans"] = len(spans)
    return m


def median_metrics(samples: list[dict]) -> dict[str, float]:
    """Per-key median over several operations' metric dicts."""
    return {k: statistics.median(d[k] for d in samples) for k in samples[0]}

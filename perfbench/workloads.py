"""The benchmark's workloads: the CLI calls of one operation, their warm-up and output checks.

Each workload turns a seed into fixed ``driftlab`` command lines, runs them as
one timed operation, and reads back the files the CLI wrote under ``--out``
to check them.  An operation counted in ``attempted``/``failed`` is one run,
one verify suite or one sweep row.  This module uses only the standard
library, so importing it adds nothing to the measured set-up time.
"""

from __future__ import annotations

import configparser
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).with_name("reference.json")

# Recorded values must match to this relative tolerance; ATOL is 1% of the
# smallest threshold a verify check uses, so round-off-sized measurements
# (linearity ~1e-16) may move in their last digits.
RTOL = 1e-6
ATOL = 1e-14
# The lab's own plateau tolerance (driftlab.lab.LIFTOFF_LEVEL_RTOL), restated
# so that the check does not take its threshold from the code it checks.
LIFTOFF_LEVEL_RTOL = 0.02


def config_path(name: str) -> str:
    return str(ROOT / "configs" / name)


def same(expected, got) -> bool:
    if isinstance(expected, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return abs(got - expected) <= RTOL * max(abs(got), abs(expected)) + ATOL
    return type(expected) is type(got) and expected == got


def mismatches(expected: dict, got: dict) -> list[str]:
    """One message per key whose value differs from the recorded one."""
    return [f"{k}: expected {expected.get(k)!r}, got {got.get(k)!r}"
            for k in sorted(expected.keys() | got.keys())
            if k not in expected or k not in got or not same(expected[k], got[k])]


def shortened_config(src: str, t_end: float, dest: Path) -> str:
    """Copy of a config with a shorter run.t_end, for warming up the same code paths."""
    cp = configparser.ConfigParser()
    cp.read(src)
    cp["run"]["t_end"] = repr(t_end)
    with open(dest, "w") as fh:
        cp.write(fh)
    return str(dest)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


class SimulateSubcritical:
    """``driftlab simulate configs/subcritical.ini``: 100k backward-Euler upwind steps at N=4001."""

    name = "simulate_subcritical"
    configs = (config_path("subcritical.ini"),)
    node_steps = 4001 * 100_000
    seed_note = "fixed inputs: the seed does not apply"

    def __init__(self, seed: int):
        self.labels = ["subcritical"]

    def commands(self, out: str) -> list:
        return [["simulate", self.configs[0], "--quiet", "--out", out]]

    def warm_up(self, out: str) -> list:
        cfg = shortened_config(self.configs[0], 2.0, Path(out) / "warmup.ini")
        return [["simulate", cfg, "--quiet", "--out", out]]

    @staticmethod
    def summary(out: Path, codes: list) -> dict:
        with open(out / "subcritical" / "report.json") as fh:
            rep = json.load(fh)
        got = {"exit_code": codes[0], "verdict": rep["verdict"],
               "verdict_behavior_match": rep["verdict_behavior_match"],
               "final_center": rep["final_center"], "final_sup": rep["final_sup"]}
        got.update({f"invariants.{k}": v for k, v in rep["invariants"].items()})
        return {"subcritical": got}

    def check(self, out: Path, codes: list, reference: dict) -> list:
        got = self.summary(out, codes)
        return [mismatches(reference[self.name][k], got[k]) for k in self.labels]


class VerifyReference:
    """``driftlab verify <suite>`` for six suites; ``decay`` repeats simulate_subcritical's run."""

    name = "verify_reference"
    suites = ("oracle", "liftoff", "conservation", "convergence", "invariants", "critical")
    configs = ()
    # Σ N × steps over the 43 solve() calls of the six suites, as counted by the
    # traced run at the commit that added the benchmark.
    node_steps = 105_514_250
    seed_note = "fixed inputs: the seed does not apply"

    def __init__(self, seed: int):
        self.labels = list(self.suites)

    def commands(self, out: str) -> list:
        return [["verify", s, "--quiet", "--out", out] for s in self.suites]

    def warm_up(self, out: str) -> list:
        return [["verify", s, "--quiet", "--out", out] for s in ("convergence", "critical")]

    @classmethod
    def summary(cls, out: Path, codes: list) -> dict:
        got = {}
        for suite, code in zip(cls.suites, codes):
            with open(out / f"verify_{suite}.json") as fh:
                rep = json.load(fh)
            row = {"exit_code": code}
            for c in rep["checks"]:
                row[f"{c['name']}.passed"] = c["passed"]
                row[f"{c['name']}.measured"] = c["measured"]
            got[suite] = row
        return got

    def check(self, out: Path, codes: list, reference: dict) -> list:
        got = self.summary(out, codes)
        return [mismatches(reference[self.name][s], got[s]) for s in self.labels]


class SweepLinearSigma:
    """``driftlab sweep configs/linear_oracle.ini --param sigma``: 8 rows, N=2001 Crank-Nicolson."""

    name = "sweep_linear_sigma"
    configs = (config_path("linear_oracle.ini"),)
    node_steps = 8 * 2001 * 6000
    seed_note = "the seed draws the 8 sigma values from [0.5, 2.0]"
    threads = 2

    def __init__(self, seed: int):
        self.sigmas = sorted(v / 1000 for v in random.Random(seed).sample(range(500, 2001), 8))
        self.labels = [f"sigma={s:g}" for s in self.sigmas]

    def _sweep(self, config: str, values, threads: int, out: str) -> list:
        return [["sweep", config, "--param", "sigma", "--values", ",".join(map(repr, values)),
                 "--threads", str(threads), "--quiet", "--out", out]]

    def commands(self, out: str) -> list:
        return self._sweep(self.configs[0], self.sigmas, self.threads, out)

    def serial_commands(self, out: str) -> list:
        """The same sweep on one thread: the single-threaded baseline."""
        return self._sweep(self.configs[0], self.sigmas, 1, out)

    def warm_up(self, out: str) -> list:
        cfg = shortened_config(self.configs[0], 0.5, Path(out) / "warmup.ini")
        return self._sweep(cfg, self.sigmas[:2], self.threads, out)

    def check(self, out: Path, codes: list, reference: dict) -> list:
        n_dim = 2  # configs/linear_oracle.ini
        errors = []
        for sigma, label in zip(self.sigmas, self.labels):
            with open(out / label / "report.json") as fh:
                rep = json.load(fh)
            exact = (sigma / (sigma + 0.5)) ** (n_dim / 2)
            row = [] if codes == [0] else [f"exit code {codes}"]
            if rep["verdict"] not in ("lift_off", "critical_lift_off"):
                row.append(f"verdict {rep['verdict']}, expected lift-off")
            elif abs(rep["h_obs"] - exact) > LIFTOFF_LEVEL_RTOL * exact:
                row.append(f"h_obs {rep['h_obs']!r} not within 2% of {exact!r}")
            errors.append(row)
        return errors


WORKLOADS = {w.name: w for w in (SimulateSubcritical, VerifyReference, SweepLinearSigma)}

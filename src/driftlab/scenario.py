"""INI-style scenario documents: parsing, validation, defaults.

Schema (key = value, one section per bracket):

    [profile]  kind = powerlaw|logcorrected|linear|zero|tabulated
               A, beta, r0          (powerlaw; r0 optional)
               alpha, r0            (logcorrected; r0 optional)
               samples = r:psi, ... (tabulated)
    [domain]   n, r_max, num_nodes
    [initial]  kind = gaussian|tabulated
               sigma                (gaussian)
               samples = r:u, ...   or  file = path.csv   (tabulated)
    [solver]   dt, theta, advection = centered|upwind (centered needs n <= 3),
               outer_bc = neumann|dirichlet_frozen, snapshot_stride
    [run]      t_end, diag_radius, name

Omitted solver/domain/run keys fall back to the defaults below.  Validation
failures raise ScenarioError naming the offending section.key.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import RadialField, RadialGrid
from .oracles import GaussianData
from .profiles import (DriftProfile, Linear, LogCorrected, PowerLaw, Tabulated, Zero,
                       tabulated_samples)
from .solver import ADVECTION_MODES, OUTER_BCS, SolverConfig, operator_diagonals, step_plan

DEFAULT_R_MAX = 20.0
DEFAULT_NUM_NODES = 2001
DEFAULT_DT = 1e-3
DEFAULT_THETA = 0.5
DEFAULT_ADVECTION = "centered"
DEFAULT_OUTER_BC = "dirichlet_frozen"
DEFAULT_SNAPSHOT_STRIDE = 100
DEFAULT_T_END = 1.0
FRAME_STORE_BUDGET = 2**30  # bytes of the (frames x nodes) block a solve may allocate

_SECTIONS = {
    "profile": {"kind", "a", "beta", "alpha", "r0", "samples"},
    "domain": {"n", "r_max", "num_nodes"},
    "initial": {"kind", "sigma", "samples", "file"},
    "solver": {"dt", "theta", "advection", "outer_bc", "snapshot_stride"},
    "run": {"t_end", "diag_radius", "name"},
}


class ScenarioError(ValueError):
    """A scenario document failed validation; the message names section.key."""


@dataclass(frozen=True)
class TabulatedInitial:
    """Initial field given by (r, u) samples, linearly interpolated onto the grid."""

    radii: tuple
    values: tuple

    def __post_init__(self):
        r, u = tabulated_samples(self.radii, self.values)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "values", u)

    def field(self, grid: RadialGrid) -> RadialField:
        return RadialField(grid, np.interp(grid.nodes, self.radii, self.values))


@dataclass(frozen=True)
class Scenario:
    """A fully validated experiment description.

    The cross-field rules are checked here, so a parsed, swept or
    dataclasses.replace'd scenario passes the same checks.  The ambient
    dimension is the grid's; a Gaussian datum must live in it.
    """

    name: str
    profile: DriftProfile
    initial: GaussianData | TabulatedInitial
    grid: RadialGrid
    solver: SolverConfig
    t_end: float
    diag_radius: float

    @property
    def n_dim(self) -> int:
        return self.grid.n_dim

    def __post_init__(self):
        # Centered row 1 has lower = (1 - (n-1)/2)/h^2 + psi/(2h), negative for n >= 4:
        # the implicit matrix is then no M-matrix and positivity is not guaranteed.
        if self.solver.advection == "centered" and self.n_dim >= 4:
            raise ScenarioError(f"solver.advection: centered advection needs n <= 3, "
                                f"got n = {self.n_dim}; use upwind")
        if self.t_end < 0:
            raise ScenarioError(f"run.t_end: must be non-negative, got {self.t_end}")
        try:
            rows = step_plan(self.solver, self.t_end)[2]
        except OverflowError:  # t_end / dt beyond the double range
            rows = math.inf
        nodes = self.grid.num_nodes
        if rows * nodes * 8 > FRAME_STORE_BUDGET:
            raise ScenarioError(f"solver.snapshot_stride: {rows} frames x {nodes} nodes x 8 B = "
                                f"{rows * nodes * 8} B exceed the frame store budget "
                                f"{FRAME_STORE_BUDGET} B")
        r_max = self.grid.r_max
        if not 0 < self.diag_radius <= r_max * (1 + 1e-12):
            raise ScenarioError(
                f"run.diag_radius: must lie in (0, r_max={r_max}], got {self.diag_radius}"
            )
        # psi and u0 are sampled on the whole grid
        if isinstance(self.profile, Tabulated) and self.profile.radii[-1] < r_max * (1 - 1e-12):
            raise ScenarioError(f"profile.samples: must cover the grid radius {r_max}, "
                                f"got up to {self.profile.radii[-1]}")
        if isinstance(self.initial, GaussianData) and self.initial.n_dim != self.n_dim:
            raise ScenarioError(f"initial: the gaussian datum lives in dimension "
                                f"{self.initial.n_dim}, the grid in {self.n_dim}")
        if isinstance(self.initial, TabulatedInitial):
            r = self.initial.radii
            if r[0] > 0.0 or r[-1] < r_max * (1 - 1e-12):
                raise ScenarioError(f"initial.samples: must cover [0, {r_max}], "
                                    f"got [{r[0]}, {r[-1]}]")
        # A theta < 1/2 step is stable when dt (1 - 2 theta) |lambda| <= 2 for every
        # eigenvalue lambda of the operator; Gershgorin bounds |lambda| by a row sum.
        theta, dt = self.solver.theta, self.solver.dt
        if theta < 0.5:
            lo, d, up = operator_diagonals(self.grid, self.profile, self.solver.advection,
                                           self.solver.outer_bc)
            bound = (1.0 - 2.0 * theta) * float(np.max(np.abs(d) + np.abs(lo) + np.abs(up)))
            if dt * bound > 2.0:
                dt_max = float(f"{2.0 / bound:.4e}")
                if dt_max * bound > 2.0:  # rounded up: state a dt that passes
                    dt_max = float(f"{2.0 / bound * (1 - 1e-4):.4e}")
                raise ScenarioError(f"solver.dt: theta = {theta:g} is unstable at dt = {dt:g}; "
                                    f"the largest stable dt is {dt_max:.4e}")

    def initial_field(self) -> RadialField:
        return self.initial.field(self.grid)


def _section(cp: configparser.ConfigParser, name: str) -> dict:
    if not cp.has_section(name):
        return {}
    return {k.lower(): v for k, v in cp.items(name)}


def _reject_unknown(values: dict, section: str):
    for key in values:
        if key not in _SECTIONS[section]:
            raise ScenarioError(
                f"{section}.{key}: unknown key (allowed: {', '.join(sorted(_SECTIONS[section]))})"
            )


def _require(values: dict, section: str, key: str) -> str:
    if key not in values:
        raise ScenarioError(f"{section}.{key}: missing required key")
    return values[key]


def _num(section: str, key: str, raw: str) -> float:
    try:
        out = float(raw)
    except ValueError:
        raise ScenarioError(f"{section}.{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(out):
        raise ScenarioError(f"{section}.{key}: expected a finite number, got {raw!r}")
    return out


def _int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"{section}.{key}: expected an integer, got {raw!r}") from None


def _choice(section: str, key: str, raw: str, allowed: tuple) -> str:
    val = raw.strip().lower()
    if val not in allowed:
        raise ScenarioError(f"{section}.{key}: must be one of {allowed}, got {raw!r}")
    return val


def _samples(section: str, raw: str) -> tuple[list, list]:
    """Split r:value pairs into radii and values; tabulated_samples checks them."""
    rs, vs = [], []
    for token in filter(None, map(str.strip, raw.replace("\n", ",").split(","))):
        try:
            r, v = map(float, token.split(":", 1))
        except ValueError:
            raise ScenarioError(f"{section}.samples: expected r:value pairs of numbers, "
                                f"got {token!r}") from None
        rs.append(r)
        vs.append(v)
    return rs, vs


def _build_profile(values: dict, n_dim: int) -> DriftProfile:
    kind = _choice("profile", "kind", _require(values, "profile", "kind"),
                   ("powerlaw", "logcorrected", "linear", "zero", "tabulated"))
    used = {"kind"}
    try:
        if kind == "powerlaw":
            used |= {"a", "beta", "r0"}
            prof = PowerLaw(
                amplitude=_num("profile", "A", _require(values, "profile", "a")),
                exponent=_num("profile", "beta", _require(values, "profile", "beta")),
                r0=_num("profile", "r0", values.get("r0", "1.0")),
            )
        elif kind == "logcorrected":
            used |= {"alpha", "r0"}
            prof = LogCorrected(
                n_dim=n_dim,
                alpha=_num("profile", "alpha", _require(values, "profile", "alpha")),
                r0=_num("profile", "r0", values.get("r0", repr(math.e))),
            )
        elif kind == "linear":
            prof = Linear()
        elif kind == "zero":
            prof = Zero()
        else:
            used |= {"samples"}
            prof = Tabulated(*_samples("profile", _require(values, "profile", "samples")))
    except ScenarioError:
        raise
    except ValueError as exc:  # a tabulated profile fails only on its samples
        raise ScenarioError(f"profile{'.samples' if kind == 'tabulated' else ''}: {exc}") from exc
    stray = set(values) - used
    if stray:
        raise ScenarioError(f"profile.{sorted(stray)[0]}: not a parameter of kind {kind!r}")
    return prof


def _build_initial(values: dict, n_dim: int) -> GaussianData | TabulatedInitial:
    kind = _choice("initial", "kind", _require(values, "initial", "kind"),
                   ("gaussian", "tabulated"))
    stray = set(values) - ({"kind", "sigma"} if kind == "gaussian" else {"kind", "samples", "file"})
    if stray:
        raise ScenarioError(f"initial.{sorted(stray)[0]}: not a {kind} parameter")
    if kind == "gaussian":
        sigma = _num("initial", "sigma", _require(values, "initial", "sigma"))
        try:
            return GaussianData(sigma=sigma, n_dim=n_dim)
        except ValueError as exc:
            raise ScenarioError(f"initial.sigma: {exc}") from exc
    if "samples" in values:
        rs, vs = _samples("initial", values["samples"])
    elif "file" in values:
        try:
            data = np.loadtxt(values["file"], delimiter=",", ndmin=2)
        except OSError as exc:
            raise ScenarioError(f"initial.file: cannot read {values['file']!r}: {exc}") from exc
        except ValueError as exc:
            raise ScenarioError(f"initial.file: {values['file']!r} is not numeric CSV: {exc}") from exc
        if data.shape[1] != 2:
            raise ScenarioError("initial.file: expected two CSV columns r,u")
        rs, vs = data[:, 0], data[:, 1]
    else:
        raise ScenarioError("initial.samples: missing required key (or initial.file)")
    try:
        return TabulatedInitial(rs, vs)
    except ValueError as exc:
        raise ScenarioError(f"initial.samples: {exc}") from exc


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse and validate a scenario document, applying defaults for omissions."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                   inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed config document: {exc}") from exc

    for section in cp.sections():
        if section not in _SECTIONS:
            raise ScenarioError(
                f"unknown section [{section}] (allowed: {', '.join(sorted(_SECTIONS))})"
            )

    profile_v = _section(cp, "profile")
    domain_v = _section(cp, "domain")
    initial_v = _section(cp, "initial")
    solver_v = _section(cp, "solver")
    run_v = _section(cp, "run")
    for sec, vals in (("profile", profile_v), ("domain", domain_v), ("initial", initial_v),
                      ("solver", solver_v), ("run", run_v)):
        _reject_unknown(vals, sec)

    if not profile_v:
        raise ScenarioError("profile.kind: missing required key")
    n_dim = _int("domain", "n", _require(domain_v, "domain", "n"))
    r_max = _num("domain", "r_max", domain_v.get("r_max", repr(DEFAULT_R_MAX)))
    num_nodes = _int("domain", "num_nodes", domain_v.get("num_nodes", str(DEFAULT_NUM_NODES)))
    try:
        grid = RadialGrid(r_max=r_max, num_nodes=num_nodes, n_dim=n_dim)
    except ValueError as exc:
        raise ScenarioError(f"domain: {exc}") from exc

    profile = _build_profile(profile_v, n_dim)
    if not initial_v:
        raise ScenarioError("initial.kind: missing required key")
    initial = _build_initial(initial_v, n_dim)

    try:
        solver = SolverConfig(
            dt=_num("solver", "dt", solver_v.get("dt", repr(DEFAULT_DT))),
            theta=_num("solver", "theta", solver_v.get("theta", repr(DEFAULT_THETA))),
            advection=_choice("solver", "advection", solver_v.get("advection", DEFAULT_ADVECTION),
                              ADVECTION_MODES),
            outer_bc=_choice("solver", "outer_bc", solver_v.get("outer_bc", DEFAULT_OUTER_BC),
                             OUTER_BCS),
            snapshot_stride=_int("solver", "snapshot_stride",
                                 solver_v.get("snapshot_stride", str(DEFAULT_SNAPSHOT_STRIDE))),
        )
    except ValueError as exc:
        raise ScenarioError(f"solver: {exc}") from exc

    return Scenario(
        name=run_v.get("name", name).strip() or name,
        profile=profile,
        initial=initial,
        grid=grid,
        solver=solver,
        t_end=_num("run", "t_end", run_v.get("t_end", repr(DEFAULT_T_END))),
        diag_radius=_num("run", "diag_radius", run_v.get("diag_radius", repr(0.8 * r_max))),
    )


SWEEPABLE = ("A", "beta", "alpha", "sigma", "n_dim", "r_max", "num_nodes", "dt")


def apply_parameter(scenario: Scenario, parameter: str, value) -> Scenario:
    """Return a copy of the scenario with one sweep parameter replaced."""
    if parameter not in SWEEPABLE:
        raise ScenarioError(f"parameter must be one of {SWEEPABLE}, got {parameter!r}")
    if parameter in ("A", "beta"):
        if not isinstance(scenario.profile, PowerLaw):
            raise ScenarioError(f"parameter {parameter!r} requires a powerlaw profile")
        field_name = "amplitude" if parameter == "A" else "exponent"
        return replace(scenario, profile=replace(scenario.profile, **{field_name: float(value)}))
    if parameter == "alpha":
        if not isinstance(scenario.profile, LogCorrected):
            raise ScenarioError("parameter 'alpha' requires a logcorrected profile")
        return replace(scenario, profile=replace(scenario.profile, alpha=float(value)))
    if parameter == "sigma":
        if not isinstance(scenario.initial, GaussianData):
            raise ScenarioError("parameter 'sigma' requires a gaussian initial field")
        return replace(scenario, initial=replace(scenario.initial, sigma=float(value)))
    if parameter == "n_dim":
        n = int(value)
        grid = replace(scenario.grid, n_dim=n)
        profile, initial = scenario.profile, scenario.initial
        if isinstance(profile, LogCorrected):
            profile = replace(profile, n_dim=n)
        if isinstance(initial, GaussianData):
            initial = replace(initial, n_dim=n)
        return replace(scenario, grid=grid, profile=profile, initial=initial)
    if parameter == "r_max":
        return replace(scenario, grid=replace(scenario.grid, r_max=float(value)))
    if parameter == "num_nodes":
        return replace(scenario, grid=replace(scenario.grid, num_nodes=int(value)))
    return replace(scenario, solver=replace(scenario.solver, dt=float(value)))

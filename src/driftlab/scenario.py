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

DOCUMENT states each key once: its reader, the constructor keyword it fills
and its default, or REQUIRED; an omitted key without a default keeps the
constructor's own.  A refused value, a missing or unknown key and a broken
cross-field rule raise ScenarioError prefixed "section.key: ".  A component's
own range error names only its section ("solver: theta must lie in [0.5, 1],
got 0.25"; "domain: need at least 3 nodes, got 2"), or section.key where one
key gives all the component reads (profile.samples, initial.sigma,
initial.samples).
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .grid import RadialField, RadialGrid, unit_sphere_area
from .oracles import GaussianData
from .profiles import (DriftProfile, Linear, LogCorrected, PowerLaw, Tabulated, Zero,
                       tabulated_samples)
from .solver import ADVECTION_MODES, OUTER_BCS, SolverConfig, step_plan

FRAME_STORE_BUDGET = 2**30  # bytes of the (frames x nodes) block a solve may allocate


class ScenarioError(ValueError):
    """A scenario document failed validation; the message names section.key or, for a
    component's own range error, the section."""


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
        try:  # the quadrature weights carry |S^(n-1)| r^(n-1) out to r_max
            power = float(self.grid.r_max) ** (self.n_dim - 1)
        except OverflowError:
            raise ScenarioError(f"domain.n: r_max^(n-1) = {self.grid.r_max:g}^{self.n_dim - 1} "
                                f"exceeds the double range") from None
        # a subnormal area carries fewer digits into every weight (16% off at n = 455)
        area = unit_sphere_area(self.n_dim)
        weight = area * power
        tiny = np.finfo(float).tiny  # the least normal double
        if not (tiny <= area and tiny <= weight < math.inf):
            raise ScenarioError(f"domain.n: |S^(n-1)| = {area:g} and the outer weight "
                                f"|S^(n-1)| r_max^(n-1) = {weight:g} at n = {self.n_dim} "
                                f"must be normal doubles")
        # Centered row 1 has lower = (1 - (n-1)/2)/h^2 + psi/(2h), negative for n >= 4:
        # the implicit matrix is then no M-matrix and positivity is not guaranteed.
        if self.solver.advection == "centered" and self.n_dim >= 4:
            raise ScenarioError(f"solver.advection: centered advection needs n <= 3, "
                                f"got n = {self.n_dim}; use upwind")
        if self.name in ("", ".", "..") or "/" in self.name or os.sep in self.name:
            raise ScenarioError(f"run.name: must be a file name, got {self.name!r}")
        if self.t_end < 0:
            raise ScenarioError(f"run.t_end: must be non-negative, got {self.t_end}")
        try:
            rows = step_plan(self.solver, self.t_end)[1]
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
        # psi is sampled on the grid: the ramp stays within psi(r0), which the profile checks,
        # and only a power law's far field leaves the double range, at r_max where it is largest
        with np.errstate(over="ignore", invalid="ignore"):
            if not math.isfinite(self.profile.psi(r_max)):
                raise ScenarioError(f"profile: psi(r_max) of {self.profile!r} at r_max = "
                                    f"{r_max:g} is not a finite double")
            r = self.grid.spacing * np.arange(1, self.grid.num_nodes - 1)  # interior nodes
            c = (self.n_dim - 1) / r - self.profile.psi(r)
            peclet = self.grid.spacing * float(np.max(np.abs(c))) / 2
        # centered couplings 1/h^2 -+ c/(2h): 1/h^2 is lost to rounding from h|c|/2 = 2^53 on
        if self.solver.advection == "centered" and peclet >= 2.0**53:
            raise ScenarioError(f"solver.advection: centered advection at cell Peclet number "
                                f"{peclet:g} >= 2^53 keeps none of the diffusion; use upwind")
        if isinstance(self.initial, GaussianData) and self.initial.n_dim != self.n_dim:
            raise ScenarioError(f"initial: the gaussian datum lives in dimension "
                                f"{self.initial.n_dim}, the grid in {self.n_dim}")
        if isinstance(self.initial, TabulatedInitial):
            r = self.initial.radii
            if r[0] > 0.0 or r[-1] < r_max * (1 - 1e-12):
                raise ScenarioError(f"initial.samples: must cover [0, {r_max}], "
                                    f"got [{r[0]}, {r[-1]}]")
            # the symmetric path steps y = u/s with s >= 2^-256 (solver.MAX_LOG_SCALE_RANGE)
            # and lifts the row before a frozen outer node by dt upper u/s: within 2^1022
            h = self.grid.spacing
            lift = 0.0 if self.solver.outer_bc == "neumann" else (
                self.solver.dt * (1.0 / h**2 + abs(c[-1]) / h))
            bound, big = 2.0**766 / max(1.0, lift), float(np.max(np.abs(self.initial.values)))
            if big > bound:
                raise ScenarioError(f"initial.samples: largest magnitude {big:g} exceeds {bound:g}"
                                    f" = 2^766 / max(1, dt * upper = {lift:g} at the outer node),"
                                    f" past which the steps overflow")

    def initial_field(self) -> RadialField:
        return self.initial.field(self.grid)


def _number(raw) -> float:
    try:
        out = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    except OverflowError:  # an int past the double range
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return out


def _integer(raw) -> int:
    """An int from its text, or from a number that is one: 2.5 is refused, not truncated."""
    try:
        out = int(raw)
    except (ValueError, OverflowError):
        out = None
    if out is None or not isinstance(raw, str) and out != raw:
        raise ValueError(f"expected an integer, got {raw!r}")
    return out


def _one_of(allowed):
    def read(raw: str) -> str:
        if raw.strip().lower() not in allowed:
            raise ValueError(f"must be one of {tuple(allowed)}, got {raw!r}")
        return raw.strip().lower()
    return read


def _samples(raw: str) -> tuple[list, list]:
    """Split r:value pairs into radii and values; tabulated_samples checks them."""
    rs, vs = [], []
    for token in filter(None, map(str.strip, raw.replace("\n", ",").split(","))):
        try:
            r, v = map(float, token.split(":", 1))
        except ValueError:
            raise ValueError(f"expected r:value pairs of numbers, got {token!r}") from None
        rs.append(r)
        vs.append(v)
    return rs, vs


def _csv_file(path: str) -> tuple:
    """The r,u columns of a numeric CSV file."""
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path!r} is not numeric CSV: {exc}") from exc
    if data.shape[1] != 2:
        raise ValueError("expected two CSV columns r,u")
    return data[:, 0], data[:, 1]


REQUIRED = object()  # the default of a key that the document must give

# The document.  A section maps to (constructor, keys), or, when it has a kind key, each
# kind to one.  A key maps to (constructor keyword, reader, default); a None default
# leaves the constructor's own.  A kind whose constructor is in CARRY_DIMENSION is also
# given the grid's n_dim.
DOCUMENT = {
    "profile": {
        "powerlaw": (PowerLaw, {"A": ("amplitude", _number, REQUIRED),
                                "beta": ("exponent", _number, REQUIRED),
                                "r0": ("r0", _number, None)}),
        "logcorrected": (LogCorrected, {"alpha": ("alpha", _number, REQUIRED),
                                        "r0": ("r0", _number, None)}),
        "linear": (Linear, {}),
        "zero": (Zero, {}),
        "tabulated": (lambda samples: Tabulated(*samples),
                      {"samples": ("samples", _samples, REQUIRED)}),
    },
    "domain": (RadialGrid, {"n": ("n_dim", _integer, REQUIRED),
                            "r_max": ("r_max", _number, 20.0),
                            "num_nodes": ("num_nodes", _integer, 2001)}),
    "initial": {
        "gaussian": (GaussianData, {"sigma": ("sigma", _number, REQUIRED)}),
        # both keys give the samples; samples wins when a document gives both
        "tabulated": (lambda samples: TabulatedInitial(*samples),
                      {"samples": ("samples", _samples, REQUIRED),
                       "file": ("samples", _csv_file, None)}),
    },
    "solver": (SolverConfig, {"dt": ("dt", _number, 1e-3),
                              "theta": ("theta", _number, None),
                              "advection": ("advection", _one_of(ADVECTION_MODES), None),
                              "outer_bc": ("outer_bc", _one_of(OUTER_BCS), None),
                              "snapshot_stride": ("snapshot_stride", _integer, 100)}),
    # a blank name falls back to the document's; diag_radius defaults to 0.8 r_max
    "run": (Scenario, {"name": ("name", str.strip, None),
                       "t_end": ("t_end", _number, 1.0),
                       "diag_radius": ("diag_radius", _number, None)}),
}
CARRY_DIMENSION = (LogCorrected, GaussianData)


def _tables(section: str) -> list:
    """The (constructor, keys) pairs of a section: one per kind, or its own."""
    entry = DOCUMENT[section]
    return list(entry.values()) if isinstance(entry, dict) else [entry]


def _read(label: str, read, *args, **kwargs):
    """read(*args, **kwargs); a ValueError it raises becomes a ScenarioError prefixed with
    label, the one place a message gets its section.key (or section) prefix."""
    try:
        return read(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{label}: {exc}") from exc


def _fields(section: str, keys: dict, values: dict) -> dict:
    """Constructor keywords from a section's values: each given key read, each omitted
    one defaulted; a keyword that two keys give takes the first one in the table."""
    out = {}
    for key, (field, read, default) in keys.items():
        peers = [k for k, spec in keys.items() if spec[0] == field]  # keys giving this keyword
        if key.lower() in values:
            out.setdefault(field, _read(f"{section}.{key}", read, values[key.lower()]))
        elif default is REQUIRED and not any(k.lower() in values for k in peers):
            raise ScenarioError(f"{section}.{key}: missing required key"
                                + "".join(f" (or {section}.{k})" for k in peers if k != key))
        elif default not in (REQUIRED, None):
            out[field] = default
    return out


def _build(section: str, values: dict, n_dim: int | None = None):
    """The section's component.  Its own range errors name the section, or section.key
    when one document value gives all it reads."""
    if isinstance(DOCUMENT[section], dict):
        kind = _fields(section, {"kind": ("kind", _one_of(DOCUMENT[section]), REQUIRED)},
                       values)["kind"]
        make, keys = DOCUMENT[section][kind]
        stray = sorted(values.keys() - {"kind", *map(str.lower, keys)})
        if stray:
            raise ScenarioError(f"{section}.{stray[0]}: not a parameter of kind {kind!r}")
    else:
        make, keys = DOCUMENT[section]
    fields = _fields(section, keys, values)
    if make in CARRY_DIMENSION:
        fields["n_dim"] = n_dim
    one_value = len({spec[0] for spec in keys.values()}) == 1
    return _read(f"{section}.{next(iter(keys))}" if one_value else section, make, **fields)


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse and validate a scenario document, applying defaults for omissions."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                   inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed config document: {exc}") from exc
    doc = {}
    for section in cp.sections():
        if section not in DOCUMENT:
            raise ScenarioError(
                f"unknown section [{section}] (allowed: {', '.join(sorted(DOCUMENT))})"
            )
        allowed = {k.lower() for _, keys in _tables(section) for k in keys}
        if isinstance(DOCUMENT[section], dict):
            allowed.add("kind")
        doc[section] = {k.lower(): v for k, v in cp.items(section)}
        for key in doc[section]:
            if key not in allowed:
                raise ScenarioError(
                    f"{section}.{key}: unknown key (allowed: {', '.join(sorted(allowed))})")

    grid = _build("domain", doc.get("domain", {}))
    profile = _build("profile", doc.get("profile", {}), grid.n_dim)
    initial = _build("initial", doc.get("initial", {}), grid.n_dim)
    solver = _build("solver", doc.get("solver", {}))
    run = {"diag_radius": 0.8 * grid.r_max} | _fields("run", DOCUMENT["run"][1],
                                                      doc.get("run", {}))
    run["name"] = run.get("name") or name
    return Scenario(profile=profile, initial=initial, grid=grid, solver=solver, **run)


# sweep parameter -> (Scenario field, component field, component type it needs); a value is
# read by the reader of the document key that gives that component field
SWEEP_PARAMETERS = {
    "A": ("profile", "amplitude", PowerLaw),
    "beta": ("profile", "exponent", PowerLaw),
    "alpha": ("profile", "alpha", LogCorrected),
    "sigma": ("initial", "sigma", GaussianData),
    "n_dim": ("grid", "n_dim", RadialGrid),
    "r_max": ("grid", "r_max", RadialGrid),
    "num_nodes": ("grid", "num_nodes", RadialGrid),
    "dt": ("solver", "dt", SolverConfig),
}


def read_sweep_value(parameter: str, raw, label: str):
    """A sweep value, read from text or a number as the document reads its key."""
    _, field_name, kind = SWEEP_PARAMETERS[parameter]
    read = next(spec[1] for section in DOCUMENT for make, keys in _tables(section)
                if make is kind for spec in keys.values() if spec[0] == field_name)
    return _read(label, read, raw)


def apply_parameter(scenario: Scenario, parameter: str, value) -> Scenario:
    """Return a copy of the scenario with one sweep parameter replaced."""
    if parameter not in SWEEP_PARAMETERS:
        raise ScenarioError(f"parameter must be one of {tuple(SWEEP_PARAMETERS)}, "
                            f"got {parameter!r}")
    part, field_name, kind = SWEEP_PARAMETERS[parameter]
    component = getattr(scenario, part)
    if not isinstance(component, kind):
        raise ScenarioError(f"parameter {parameter!r} requires a {kind.__name__} {part}, "
                            f"got {type(component).__name__}")
    value = read_sweep_value(parameter, value, f"parameter {parameter!r}")
    changes = {part: replace(component, **{field_name: value})}
    if parameter == "n_dim":  # a log-corrected drift and a Gaussian datum carry it too
        for other in ("profile", "initial"):
            if isinstance(getattr(scenario, other), CARRY_DIMENSION):
                changes[other] = replace(getattr(scenario, other), n_dim=value)
    return replace(scenario, **changes)

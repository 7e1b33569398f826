"""driftlab: a numerical laboratory for radially symmetric advection-diffusion.

Simulates u_t = Lap(u) - <(x/|x|) psi(|x|), grad u> in radial reduction,
classifies drift profiles into lift-off vs. decay by their averaged growth,
tracks the exponentially weighted mass functional that certifies either
behavior, and validates everything against closed-form solutions.
"""

from .grid import RadialField, RadialGrid, unit_sphere_area
from .lab import RunReport, SuiteReport, SweepResult, run, simulate, suite_names, sweep, verify
from .oracles import GaussianData, heat_solution, liftoff_limit, mass_growth_check, ou_solution
from .profiles import (
    DriftProfile,
    Linear,
    LogCorrected,
    PowerLaw,
    ProfileRangeError,
    Tabulated,
    Zero,
)
from .scenario import Scenario, ScenarioError, TabulatedInitial, parse_scenario
from .solver import (
    DivergenceError,
    SolverConfig,
    SolverError,
    Trajectory,
    solve,
    step,
)
from .weights import (
    ClassificationResult,
    DiagnosticSeries,
    Verdict,
    WeightFunction,
    classify,
    diagnostics,
    phi_radial_integral,
    phi_tail_bound,
    predict_liftoff_level,
    weighted_mass,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationResult",
    "DiagnosticSeries",
    "DivergenceError",
    "DriftProfile",
    "GaussianData",
    "Linear",
    "LogCorrected",
    "PowerLaw",
    "ProfileRangeError",
    "RadialField",
    "RadialGrid",
    "RunReport",
    "Scenario",
    "ScenarioError",
    "SolverConfig",
    "SolverError",
    "SuiteReport",
    "SweepResult",
    "Tabulated",
    "TabulatedInitial",
    "Trajectory",
    "Verdict",
    "WeightFunction",
    "Zero",
    "classify",
    "diagnostics",
    "heat_solution",
    "liftoff_limit",
    "mass_growth_check",
    "ou_solution",
    "parse_scenario",
    "phi_radial_integral",
    "phi_tail_bound",
    "predict_liftoff_level",
    "run",
    "simulate",
    "solve",
    "step",
    "suite_names",
    "sweep",
    "unit_sphere_area",
    "verify",
    "weighted_mass",
]

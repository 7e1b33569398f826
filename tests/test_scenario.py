import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftlab import cli, lab
from driftlab.oracles import GaussianData
from driftlab.profiles import Linear, LogCorrected, PowerLaw, Tabulated, Zero
from driftlab.scenario import (DOCUMENT, ScenarioError, TabulatedInitial, apply_parameter,
                                parse_scenario)
from driftlab.solver import SolverConfig

MINIMAL = """
[profile]
kind = zero

[domain]
n = 2

[initial]
kind = gaussian
sigma = 1
"""

SUPERCRITICAL = """
[profile]
kind = powerlaw
A = 3
beta = -1
r0 = 1

[domain]
n = 2
r_max = 40
num_nodes = 4001

[initial]
kind = gaussian
sigma = 1

[solver]
dt = 1e-3
theta = 0.5
advection = centered
outer_bc = dirichlet_frozen
snapshot_stride = 250

[run]
t_end = 20
diag_radius = 32
name = supercritical-reference
"""


def test_minimal_document_gets_defaults():
    s = parse_scenario(MINIMAL)
    assert isinstance(s.profile, Zero)
    assert s.n_dim == 2
    assert isinstance(s.initial, GaussianData) and s.initial.sigma == 1.0
    assert s.solver.theta == 0.5
    assert s.solver.advection == "centered"
    assert s.solver.outer_bc == "dirichlet_frozen"
    assert s.grid.r_max == 20.0 and s.grid.num_nodes == 2001
    assert s.t_end == 1.0
    assert s.diag_radius == pytest.approx(16.0)


def test_full_document_round_trip():
    s = parse_scenario(SUPERCRITICAL)
    assert s.name == "supercritical-reference"
    assert s.profile == PowerLaw(3.0, -1.0, 1.0)
    assert s.grid.r_max == 40.0 and s.grid.num_nodes == 4001 and s.n_dim == 2
    assert s.solver.dt == 1e-3 and s.solver.theta == 0.5
    assert s.solver.snapshot_stride == 250
    assert s.t_end == 20.0 and s.diag_radius == 32.0


def test_non_numeric_amplitude_is_a_type_error():
    text = MINIMAL.replace("kind = zero", "kind = powerlaw\nA = three\nbeta = -1")
    with pytest.raises(ScenarioError, match=r"profile\.A"):
        parse_scenario(text)


def test_missing_required_keys_are_named():
    with pytest.raises(ScenarioError, match=r"profile\.kind"):
        parse_scenario("[domain]\nn = 2\n\n[initial]\nkind = gaussian\nsigma = 1\n")
    with pytest.raises(ScenarioError, match=r"domain\.n"):
        parse_scenario("[profile]\nkind = zero\n\n[initial]\nkind = gaussian\nsigma = 1\n")
    with pytest.raises(ScenarioError, match=r"initial\.sigma"):
        parse_scenario("[profile]\nkind = zero\n\n[domain]\nn = 2\n\n[initial]\nkind = gaussian\n")
    with pytest.raises(ScenarioError, match=r"profile\.beta"):
        parse_scenario(MINIMAL.replace("kind = zero", "kind = powerlaw\nA = 1"))


# (section, kind, key) -> a value its reader or its component refuses
BAD_VALUES = {
    ("profile", None, "kind"): "vortex",
    ("profile", "powerlaw", "A"): "three",
    ("profile", "powerlaw", "beta"): "inf",
    ("profile", "powerlaw", "r0"): "near",
    ("profile", "logcorrected", "alpha"): "x",
    ("profile", "logcorrected", "r0"): "nan",
    ("profile", "tabulated", "samples"): "0:0, 20:x",
    ("domain", None, "n"): "2.5",
    ("domain", None, "r_max"): "far",
    ("domain", None, "num_nodes"): "1e3",
    ("initial", None, "kind"): "box",
    ("initial", "gaussian", "sigma"): "wide",
    ("initial", "tabulated", "samples"): "0:1, 20",
    ("initial", "tabulated", "file"): "{tmp}/missing.csv",
    ("solver", None, "dt"): "abc",
    ("solver", None, "theta"): "half",
    ("solver", None, "advection"): "weno",
    ("solver", None, "outer_bc"): "periodic",
    ("solver", None, "snapshot_stride"): "2.5",
    ("run", None, "name"): "../escaped",
    ("run", None, "t_end"): "soon",
    ("run", None, "diag_radius"): "x",
}
# the other keys a kind needs, so that only the bad one fails
KIND_KEYS = {
    ("profile", "powerlaw"): {"kind": "powerlaw", "A": "1", "beta": "-1"},
    ("profile", "logcorrected"): {"kind": "logcorrected", "alpha": "1"},
    ("profile", "tabulated"): {"kind": "tabulated", "samples": "0:0, 20:1"},
    ("initial", "gaussian"): {"kind": "gaussian", "sigma": "1"},
    ("initial", "tabulated"): {"kind": "tabulated"},
}


def _document_keys():
    for section, entry in DOCUMENT.items():
        if isinstance(entry, dict):
            yield section, None, "kind"
        for kind, (_, keys) in entry.items() if isinstance(entry, dict) else [(None, entry)]:
            yield from ((section, kind, key) for key in keys)


@pytest.mark.parametrize("section, kind, key", list(_document_keys()))
def test_each_bad_value_names_its_section_key_once(section, kind, key, tmp_path):
    doc = {"profile": {"kind": "zero"}, "domain": {"n": "2"},
           "initial": {"kind": "gaussian", "sigma": "1"}}
    doc[section] = KIND_KEYS.get((section, kind), doc.get(section, {})) | {
        key: BAD_VALUES[section, kind, key].format(tmp=tmp_path)}
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                   for name, body in doc.items())
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    message = str(exc.value)
    assert message.startswith(f"{section}.{key}: "), message
    assert len(re.findall(r"\b(?:profile|domain|initial|solver|run)\.", message)) == 1, message


def test_unknown_profile_kind():
    with pytest.raises(ScenarioError, match=r"profile\.kind"):
        parse_scenario(MINIMAL.replace("kind = zero", "kind = vortex"))


def test_unknown_section_and_key_rejected():
    with pytest.raises(ScenarioError, match="unknown section"):
        parse_scenario(MINIMAL + "\n[extras]\nfoo = 1\n")
    with pytest.raises(ScenarioError, match=r"solver\.cfl"):
        parse_scenario(MINIMAL + "\n[solver]\ncfl = 0.5\n")
    with pytest.raises(ScenarioError, match=r"profile\.alpha"):
        parse_scenario(MINIMAL.replace("kind = zero", "kind = powerlaw\nA = 1\nbeta = 0\nalpha = 2"))


def test_solver_validation_propagates():
    with pytest.raises(ScenarioError, match="solver"):
        parse_scenario(MINIMAL + "\n[solver]\ntheta = 1.5\n")
    with pytest.raises(ScenarioError, match=r"solver\.advection"):
        parse_scenario(MINIMAL + "\n[solver]\nadvection = weno\n")


def test_centered_advection_rejected_from_dimension_four():
    # centered row 1 loses the M-matrix sign pattern for n >= 4
    with pytest.raises(ScenarioError, match=r"solver\.advection"):
        parse_scenario(MINIMAL.replace("n = 2", "n = 4"))
    with pytest.raises(ScenarioError, match=r"solver\.advection"):
        parse_scenario(MINIMAL.replace("n = 2", "n = 4") + "\n[solver]\nadvection = centered\n")
    upwind = parse_scenario(MINIMAL.replace("n = 2", "n = 4") + "\n[solver]\nadvection = upwind\n")
    assert upwind.n_dim == 4 and upwind.solver.advection == "upwind"
    assert parse_scenario(MINIMAL.replace("n = 2", "n = 3")).solver.advection == "centered"


def test_dimension_sweep_rejects_centered_advection_from_four():
    s = parse_scenario(MINIMAL)
    assert apply_parameter(s, "n_dim", 3).n_dim == 3
    with pytest.raises(ScenarioError, match=r"solver\.advection"):
        apply_parameter(s, "n_dim", 4)


def test_diag_radius_must_fit_domain():
    with pytest.raises(ScenarioError, match=r"run\.diag_radius"):
        parse_scenario(MINIMAL + "\n[run]\ndiag_radius = 25\n")


def test_tabulated_profile_and_initial():
    text = """
[profile]
kind = tabulated
samples = 0:0, 5:1.5, 20:2

[domain]
n = 2
r_max = 20
num_nodes = 201

[initial]
kind = tabulated
samples = 0:1, 10:0.5, 20:0

[run]
t_end = 0.1
"""
    s = parse_scenario(text)
    assert isinstance(s.profile, Tabulated)
    u0 = s.initial_field()
    assert u0.values[0] == pytest.approx(1.0)
    assert u0.values[-1] == pytest.approx(0.0)
    # midpoint of the first segment
    k = np.argmin(np.abs(s.grid.nodes - 5.0))
    assert u0.values[k] == pytest.approx(0.75)


TABULATED = """
[profile]
kind = tabulated
samples = {profile}

[domain]
n = 2
r_max = 20
num_nodes = 201

[initial]
kind = tabulated
samples = {initial}
"""
PROFILE_SAMPLES, INITIAL_SAMPLES = "0:0, 5:1.5, 20:2", "0:1, 10:0.5, 20:0"


@pytest.mark.parametrize("samples, message", [
    ("0:0", "need at least two r:value pairs"),
    ("0:0, 1:inf, 20:1", "samples must be finite"),
    ("0:0, 5:1, 5:2, 20:1", "radii must be strictly increasing"),
])
def test_each_sample_rule_has_one_message(samples, message):
    pairs = [token.split(":") for token in samples.split(",")]
    radii, values = [float(r) for r, _ in pairs], [float(v) for _, v in pairs]
    for build in (Tabulated, TabulatedInitial):
        with pytest.raises(ValueError) as exc:
            build(radii, values)
        assert str(exc.value) == message
    for section, text in (
            ("profile", TABULATED.format(profile=samples, initial=INITIAL_SAMPLES)),
            ("initial", TABULATED.format(profile=PROFILE_SAMPLES, initial=samples))):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert str(exc.value) == f"{section}.samples: {message}"


def test_equal_tabulated_documents_give_equal_hashable_scenarios():
    text = TABULATED.format(profile=PROFILE_SAMPLES, initial=INITIAL_SAMPLES)
    a, b = parse_scenario(text), parse_scenario(text)
    assert a == b and hash(a) == hash(b)
    assert a.profile.radii == (0.0, 5.0, 20.0) and a.initial.values == (1.0, 0.5, 0.0)
    other = parse_scenario(text.replace("5:1.5", "5:1.25"))
    assert other != a
    assert len({a, b, other}) == 2
    for config in sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.ini")):
        assert hash(parse_scenario(config.read_text())) == hash(parse_scenario(config.read_text()))


def test_the_dimension_is_the_grids():
    s = parse_scenario(MINIMAL.replace("n = 2", "n = 3"))
    assert s.n_dim == s.grid.n_dim == s.initial.n_dim == 3
    with pytest.raises(TypeError):
        replace(s, n_dim=2)
    with pytest.raises(ScenarioError,
                       match=r"^initial: the gaussian datum lives in dimension 2, the grid in 3$"):
        replace(s, initial=GaussianData(sigma=1.0, n_dim=2))


def test_tabulated_profile_must_cover_grid():
    text = """
[profile]
kind = tabulated
samples = 0:0, 5:1

[domain]
n = 2
r_max = 20

[initial]
kind = gaussian
sigma = 1
"""
    with pytest.raises(ScenarioError, match=r"profile\.samples"):
        parse_scenario(text)


def test_tabulated_initial_must_cover_grid_when_parsed():
    text = MINIMAL.replace("n = 2", "n = 2\nr_max = 20").replace(
        "kind = gaussian\nsigma = 1", "kind = tabulated\nsamples = 0:1, 10:0")
    with pytest.raises(ScenarioError,
                       match=r"^initial\.samples: must cover \[0, 20\.0\], got \[0\.0, 10\.0\]$"):
        parse_scenario(text)


def test_non_numeric_initial_file_names_the_key(tmp_path):
    csv = tmp_path / "u0.csv"
    csv.write_text("r,u\n0,1\n20,0\n")
    text = MINIMAL.replace("n = 2", "n = 2\nr_max = 20").replace(
        "kind = gaussian\nsigma = 1", f"kind = tabulated\nfile = {csv}")
    with pytest.raises(ScenarioError, match=r"^initial\.file: .*u0\.csv.* is not numeric CSV"):
        parse_scenario(text)
    csv.write_text("0,1\n20,0\n")
    assert parse_scenario(text).initial == TabulatedInitial((0.0, 20.0), (1.0, 0.0))


def test_a_datum_past_the_range_the_steps_carry_is_refused(tmp_path, capsys):
    # n = 2, h = 0.1, dt = 1e-2: the outer coupling dt * upper = 1.0101 lowers 2^766 a little
    bound = 2.0**766 / 1.0101010101010102
    with pytest.raises(ScenarioError, match=r"^initial\.samples: largest magnitude 1e\+308 "
                       r"exceeds 3\.84248e\+230 = 2\^766 / max\(1, dt \* upper = 1\.0101 at "
                       r"the outer node\), past which the steps overflow$"):
        parse_scenario(HUGE_DATUM)
    cfg = tmp_path / "huge.ini"
    cfg.write_text(HUGE_DATUM)
    assert cli.main(["simulate", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: initial.samples: largest magnitude ")
    # a datum read from a file is bounded alike; a neumann boundary has no frozen node to lift
    csv = tmp_path / "u0.csv"
    csv.write_text(f"0,0\n10,{-2.0 * bound!r}\n")
    with pytest.raises(ScenarioError, match=r"^initial\.samples: largest magnitude 7\.68"):
        parse_scenario(HUGE_DATUM.replace("samples = 0:1e308, 10:0", f"file = {csv}"))
    for magnitude, outer_bc, refused in ((bound, "dirichlet_frozen", False),
                                         (1.0001 * bound, "dirichlet_frozen", True),
                                         (2.0**766, "neumann", False),
                                         (1.0001 * 2.0**766, "neumann", True)):
        doc = HUGE_DATUM.replace("1e308", repr(magnitude)).replace(
            "theta = 0.5", f"theta = 0.5\nouter_bc = {outer_bc}")
        if refused:
            with pytest.raises(ScenarioError, match=r"^initial\.samples: "):
                parse_scenario(doc)
        else:
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                assert np.all(np.isfinite(lab.simulate(parse_scenario(doc)).values))


def test_the_datum_bound_keeps_the_frozen_node_lift_finite_at_the_widest_scales():
    # n = 300 on 1001 nodes: the symmetric path's scales span 2^507 and end at s = 2^-253.6
    # beside the frozen node, whose lift dt * upper * u / s passed the largest double for a
    # datum of 2^766 at every dt; at the bound it stays finite, however large dt / h^2
    doc = HUGE_DATUM.replace("n = 2\n", "n = 300\n").replace("num_nodes = 101", "num_nodes = 1001")
    doc = doc.replace("theta = 0.5", "theta = 1\nadvection = upwind")
    for dt in (1e-2, 1e3):
        text = doc.replace("dt = 1e-2", f"dt = {dt!r}").replace("t_end = 0.1", f"t_end = {3 * dt!r}")
        message = str(pytest.raises(ScenarioError, parse_scenario, text).value)
        bound = float(message.split("exceeds ")[1].split(" = ")[0]) * (1 - 1e-5)  # 6 digits
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            traj = lab.simulate(parse_scenario(text.replace("1e308", repr(bound))))
        assert traj.kernel == "ldlt" and np.all(np.isfinite(traj.values))


def test_malformed_document():
    with pytest.raises(ScenarioError, match="malformed"):
        parse_scenario("profile\nkind = zero")


def test_logcorrected_inherits_domain_dimension():
    text = MINIMAL.replace("kind = zero", "kind = logcorrected\nalpha = 2")
    s = parse_scenario(text)
    assert isinstance(s.profile, LogCorrected)
    assert s.profile.n_dim == 2
    assert s.profile.r0 == pytest.approx(math.e)


# --- sweep parameter application --------------------------------------------


def test_apply_parameter_powerlaw_amplitude():
    s = parse_scenario(SUPERCRITICAL)
    s2 = apply_parameter(s, "A", 1.0)
    assert s2.profile.amplitude == 1.0
    assert s.profile.amplitude == 3.0  # original untouched


def test_apply_parameter_dimension_rebuilds_components():
    text = MINIMAL.replace("kind = zero", "kind = logcorrected\nalpha = 2")
    s = parse_scenario(text)
    s3 = apply_parameter(s, "n_dim", 3)
    assert s3.n_dim == 3 and s3.grid.n_dim == 3
    assert s3.profile.n_dim == 3 and s3.initial.n_dim == 3


def test_apply_parameter_type_mismatches():
    s = parse_scenario(MINIMAL)
    with pytest.raises(ScenarioError):
        apply_parameter(s, "A", 2.0)  # zero profile has no amplitude
    with pytest.raises(ScenarioError):
        apply_parameter(s, "alpha", 2.0)
    with pytest.raises(ScenarioError):
        apply_parameter(s, "cfl", 0.5)


TABULATED_DATUM = MINIMAL.replace("kind = gaussian\nsigma = 1",
                                  "kind = tabulated\nsamples = 0:1, 20:0")
LOGCORRECTED = MINIMAL.replace("kind = zero", "kind = logcorrected\nalpha = 2")


# parameter -> (document, value, Scenario field, component field it sets, value type)
SWEEP_CASES = {
    "A": (SUPERCRITICAL, 2, "profile", "amplitude", float),
    "beta": (SUPERCRITICAL, -2, "profile", "exponent", float),
    "alpha": (LOGCORRECTED, 3, "profile", "alpha", float),
    "sigma": (MINIMAL, 2, "initial", "sigma", float),
    "n_dim": (TABULATED_DATUM, 3.0, "grid", "n_dim", int),
    "r_max": (MINIMAL, 25, "grid", "r_max", float),
    "num_nodes": (MINIMAL, 401.0, "grid", "num_nodes", int),
    "dt": (MINIMAL, 2e-3, "solver", "dt", float),
}


@pytest.mark.parametrize("parameter", SWEEP_CASES)
def test_each_sweep_parameter_sets_exactly_its_field(parameter):
    text, value, part, field_name, value_type = SWEEP_CASES[parameter]
    s = parse_scenario(text)
    swept = apply_parameter(s, parameter, value)
    assert swept == replace(s, **{part: replace(getattr(s, part), **{field_name: value})})
    assert type(getattr(getattr(swept, part), field_name)) is value_type


# parameter -> (document whose component has the wrong type, what the message asks for, got)
WRONG_COMPONENT_CASES = {
    "A": (MINIMAL, "PowerLaw profile", "Zero"),
    "beta": (LOGCORRECTED, "PowerLaw profile", "LogCorrected"),
    "alpha": (SUPERCRITICAL, "LogCorrected profile", "PowerLaw"),
    "sigma": (TABULATED_DATUM, "GaussianData initial", "TabulatedInitial"),
}


@pytest.mark.parametrize("parameter", WRONG_COMPONENT_CASES)
def test_sweep_parameter_on_the_wrong_component_names_the_parameter(parameter):
    text, needed, got = WRONG_COMPONENT_CASES[parameter]
    with pytest.raises(ScenarioError) as exc:
        apply_parameter(parse_scenario(text), parameter, 1.0)
    assert str(exc.value) == f"parameter {parameter!r} requires a {needed}, got {got}"


@pytest.mark.parametrize("parameter, value, message", [
    ("num_nodes", 400.7, "expected an integer, got 400.7"),
    ("n_dim", 2.9, "expected an integer, got 2.9"),
    ("n_dim", math.inf, "expected an integer, got inf"),
    ("r_max", math.inf, "expected a finite number, got inf"),
    ("dt", math.nan, "expected a finite number, got nan"),
])
def test_sweep_values_are_read_as_the_document_reads_the_key(parameter, value, message):
    # a value the parameter's cast would change, or a non-finite one, is no sweep value
    with pytest.raises(ScenarioError) as exc:
        apply_parameter(parse_scenario(MINIMAL), parameter, value)
    assert str(exc.value) == f"parameter {parameter!r}: {message}"


def test_run_name_must_be_a_file_name():
    # the name is a directory under --out: it must not leave it
    for name in ("../escaped", "runs/a", ".", ".."):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(MINIMAL + f"\n[run]\nname = {name}\n")
        assert str(exc.value) == f"run.name: must be a file name, got {name!r}"
    with pytest.raises(ScenarioError, match=r"^run\.name: must be a file name, got ''$"):
        replace(parse_scenario(MINIMAL), name="")


def test_apply_parameter_r_max_guards_diag_radius():
    s = parse_scenario(SUPERCRITICAL)
    with pytest.raises(ScenarioError, match="diag_radius"):
        apply_parameter(s, "r_max", 30.0)  # diag radius 32 would stick out
    s2 = apply_parameter(s, "r_max", 64.0)
    assert s2.grid.r_max == 64.0


def test_swept_scenarios_pass_the_parser_checks():
    # the swept r_max and the parsed document fail with the same message
    swept = "run.diag_radius: must lie in (0, r_max=30.0], got 32.0"
    with pytest.raises(ScenarioError) as exc:
        apply_parameter(parse_scenario(SUPERCRITICAL), "r_max", 30.0)
    assert str(exc.value) == swept
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(SUPERCRITICAL.replace("r_max = 40", "r_max = 30"))
    assert str(exc.value) == swept
    tabulated = parse_scenario(MINIMAL.replace("kind = zero",
                                               "kind = tabulated\nsamples = 0:0, 20:1"))
    with pytest.raises(ScenarioError, match=r"^profile\.samples: must cover the grid radius 30\.0"):
        apply_parameter(tabulated, "r_max", 30.0)


def test_linear_profile_kind():
    s = parse_scenario(MINIMAL.replace("kind = zero", "kind = linear"))
    assert isinstance(s.profile, Linear)


EXPLICIT_LINEAR = """
[profile]
kind = linear

[domain]
n = 2
r_max = 5
num_nodes = 201

[initial]
kind = gaussian
sigma = 1

[solver]
theta = 0
dt = 1e-3
"""


def test_unstable_theta_scheme_is_rejected_before_any_step():
    # below 1/2 the theta-scheme is only conditionally stable: refused at every dt
    for theta, shown in (("0", "0.0"), ("0.25", "0.25")):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(EXPLICIT_LINEAR.replace("theta = 0\n", f"theta = {theta}\n"))
        assert str(exc.value) == f"solver: theta must lie in [0.5, 1], got {shown}"
    with pytest.raises(ValueError, match=r"^theta must lie in \[0\.5, 1\], got 0\.4$"):
        SolverConfig(dt=1e-3, theta=0.4)


def test_the_grid_radius_power_must_be_a_double():
    # the quadrature weights carry r^(n-1): 20^235 is a double, 20^237 is not
    big = MINIMAL.replace("n = 2", "n = {n}") + "\n[solver]\nadvection = upwind\n"
    for n in (172, 236):
        assert parse_scenario(big.format(n=n)).n_dim == n
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(big.format(n=238))
    assert str(exc.value) == "domain.n: r_max^(n-1) = 20^237 exceeds the double range"
    with pytest.raises(ScenarioError, match=r"^domain\.n: "):
        apply_parameter(parse_scenario(big.format(n=236)), "n_dim", 300)


# |S^(n-1)| underflows from n = 439: to 0.0 at n = 1000 and 10^6, though 2^999 and 1^999999
# are doubles
UNDERFLOWING_WEIGHTS = [MINIMAL.replace("n = 2", f"n = {n}\nr_max = {r_max}\nnum_nodes = 51") + (
    "\n[solver]\ntheta = 1\nadvection = upwind\n\n[run]\nt_end = 0.05\n")
    for n, r_max in ((1000, 2), (10**6, 1))]


def test_the_outer_weight_must_be_a_normal_double():
    for doc, n in zip(UNDERFLOWING_WEIGHTS, (1000, 10**6)):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert str(exc.value) == (f"domain.n: |S^(n-1)| = 0 and the outer weight |S^(n-1)| "
                                  f"r_max^(n-1) = 0 at n = {n} must be normal doubles")
    doc = UNDERFLOWING_WEIGHTS[1].replace("n = 1000000", "n = {n}")
    assert parse_scenario(doc.format(n=438)).n_dim == 438  # |S^437| = 3.2e-308 is normal
    for n, r_max, weight in ((439, 1, "3.79883e-309"), (455, 4, "1.06911e-50"), (300, 0.1, "0")):
        with pytest.raises(ScenarioError, match=rf"r_max\^\(n-1\) = {weight} at n = {n} must"):
            parse_scenario(doc.format(n=n).replace("r_max = 1\n", f"r_max = {r_max}\n"))


def _sample_list(draw, r_max, values, first):
    """'0.0:v0, r1:v1, ..., r_max:vk' on strictly increasing radii; v0 from first."""
    inner = sorted(set(draw(st.lists(st.floats(0.05, 0.95), max_size=4))))
    radii = [0.0] + [round(x * r_max, 6) for x in inner] + [r_max]
    radii = [r for k, r in enumerate(radii) if k == 0 or r > radii[k - 1]]
    return ", ".join(f"{r!r}:{draw(first if k == 0 else values)!r}" for k, r in enumerate(radii))


@st.composite
def documents(draw):
    """Small scenario documents over every profile kind, n 1-8, both schemes and boundaries."""
    n = draw(st.integers(1, 8))
    r_max = draw(st.sampled_from([2.0, 5.0, 10.0, 20.0, 40.0]))
    kind = draw(st.sampled_from(["powerlaw", "logcorrected", "linear", "zero", "tabulated"]))
    profile = f"kind = {kind}\n"
    if kind == "powerlaw":
        profile += (f"A = {draw(st.floats(-4, 4))!r}\nbeta = {draw(st.floats(-2.5, 1.5))!r}\n"
                    f"r0 = {draw(st.floats(0.25, 3))!r}\n")
    elif kind == "logcorrected":
        profile += f"alpha = {draw(st.floats(-8, 8))!r}\nr0 = {draw(st.floats(1.05, 4))!r}\n"
    elif kind == "tabulated":
        profile += f"samples = {_sample_list(draw, r_max, st.floats(-3, 3), st.just(0.0))}\n"
    if draw(st.booleans()):
        initial = f"kind = gaussian\nsigma = {draw(st.floats(0.1, 5))!r}\n"
    else:
        values = st.floats(-1, 2)
        initial = f"kind = tabulated\nsamples = {_sample_list(draw, r_max, values, values)}\n"
    theta, advection = draw(st.sampled_from([(1.0, "upwind"), (0.5, "centered"),
                                             (0.75, "centered")]))
    dt = draw(st.sampled_from([1e-3, 1e-2, 0.05]))
    steps = draw(st.integers(1, 400))
    return (f"[profile]\n{profile}\n"
            f"[domain]\nn = {n}\nr_max = {r_max!r}\nnum_nodes = {draw(st.integers(11, 201))}\n\n"
            f"[initial]\n{initial}\n"
            f"[solver]\ndt = {dt!r}\ntheta = {theta!r}\nadvection = {advection}\n"
            f"outer_bc = {draw(st.sampled_from(['dirichlet_frozen', 'neumann']))}\n"
            f"snapshot_stride = {draw(st.integers(1, 50))}\n\n"
            f"[run]\nt_end = {steps * dt!r}\n")


OVERFLOWING_MASS = MINIMAL.replace(
    "kind = zero", "kind = powerlaw\nA = 0.5\nbeta = -0.999").replace(
    "n = 2", "n = 2\nr_max = 10\nnum_nodes = 201") + "\n[run]\nt_end = 0.2\n"
# c = A/(beta+1) with c^-s past the double range, and c itself below it
TINY_AMPLITUDES = [OVERFLOWING_MASS.replace("A = 0.5\nbeta = -0.999", f"A = {a}\nbeta = {b}")
                   for a, b in (("1e-300", "0"), ("5e-324", "1.2"))]
# certified run whose datum is positive only at the outer node: the center underflows to 0
FAR_DATUM = MINIMAL.replace("n = 2", "n = 1\nr_max = 40\nnum_nodes = 201").replace(
    "kind = gaussian\nsigma = 1", "kind = tabulated\nsamples = 0:0, 39.8:0, 40:1") + (
    "\n[solver]\ntheta = 1\nadvection = upwind\nsnapshot_stride = 1\n\n[run]\nt_end = 0.004\n")

# a constant datum under backward Euler at dt/h^2 = 387 for 375 steps: a constant must
# stay within MAX_PRINCIPLE_ATOL of itself (1.8e-12 through LU; 5.2e-13 through LDL^T)
CONSTANT_DATUM = """
[profile]
kind = linear

[domain]
n = 2
r_max = 2.0
num_nodes = 177

[initial]
kind = tabulated
samples = 0.0:0.1674910373611735, 2.0:0.1674910373611735

[solver]
dt = 0.05
theta = 1.0
advection = upwind
outer_bc = neumann
snapshot_stride = 1

[run]
t_end = 18.75
"""

# dimensions past the factorial range of Gamma(n/2) (n = 173) and past the double range of
# r_max^(n-1) at r_max = 20 (n = 238, 300)
LARGE_DIMENSIONS = [MINIMAL.replace("n = 2", f"n = {n}\nr_max = {r_max}\nnum_nodes = 51") + (
    "\n[solver]\ntheta = 1\nadvection = upwind\n\n[run]\nt_end = 0.05\n")
    for n, r_max in ((173, 5), (238, 20), (300, 20))]


# psi(r0) = A r0^beta past the double range is refused; with A = 400, beta = -1, r0 = 10,
# K = phi(r0) r0^A of the power tail overflows while the weight mass is finite; with
# beta = 308, psi(r0) r0 = 10^309 is no double; with beta = 300, psi(r0) is, psi(20) is not;
# with A = 1e303, beta = -0.999999, the gamma tail's c = A/(beta+1) = 1e309 is no double
HUGE_POWERS = [MINIMAL.replace("kind = zero", f"kind = powerlaw\nA = {a}\nbeta = {b}\nr0 = {r0}")
               .replace("n = 2", "n = 2\nr_max = 20\nnum_nodes = 201") + "\n[run]\nt_end = 0.2\n"
               for a, b, r0 in (("1", "400", "10"), ("1", "-400", "0.01"), ("400", "-1", "10"),
                                ("1", "308", "10"), ("1", "300", "10"),
                                ("1e303", "-0.999999", "1"))]


# documents a log-uniform draw of accepted magnitudes broke: the gamma tail's exponent c r^g
# of psi = r^100 leaves the double range at r_max = 1190 (FAR_TAIL); 11 nodes see the weight
# of psi = r only at r = 0, where the quadrature weight is 0 in n = 2 (UNSEEN_WEIGHT);
# psi(r0) underflows to 0 while (r/r0)^g overflows (UNDERFLOWING_KNOT); the relaxation law
# t^-132.5 of L = 268 in n = 3 leaves the double range at t ~ 5e-5 (STEEP_RELAXATION).
# FAR_TAIL is upwind: centered advection is refused at its cell Peclet number 1.6e307
FAR_TAIL = """
[profile]
kind = powerlaw
A = 1
beta = 100
r0 = 1

[domain]
n = 2
r_max = 1190
num_nodes = 1191

[initial]
kind = gaussian
sigma = 1

[solver]
advection = upwind

[run]
t_end = 0.01
name = far-tail
"""
UNSEEN_WEIGHT = """
[profile]
kind = linear

[domain]
n = 2
r_max = 1000
num_nodes = 11

[initial]
kind = gaussian
sigma = 1
"""
UNDERFLOWING_KNOT = """
[profile]
kind = powerlaw
A = 3.334094882154609e-54
beta = 361.454043856422
r0 = 0.009415425396125283

[domain]
n = 4
r_max = 0.9456140341010968
num_nodes = 39

[initial]
kind = gaussian
sigma = 0.0393

[solver]
dt = 2.8548890480870217e-06
theta = 1
advection = upwind

[run]
t_end = 6.280755905791447e-05
"""
STEEP_RELAXATION = """
[profile]
kind = powerlaw
A = 268
beta = -1
r0 = 8.5

[domain]
n = 3
r_max = 28
num_nodes = 195

[initial]
kind = gaussian
sigma = 0.004

[solver]
dt = 2e-6
theta = 1
advection = upwind
snapshot_stride = 1

[run]
t_end = 6e-5
"""

# Crank-Nicolson centered at cell Peclet number 1.06e245: 1/h^2 is lost to rounding in
# diag = -(lower + upper), which left the implicit system with a zero pivot
HUGE_PECLET = """
[profile]
kind = powerlaw
A = 5.037052563190668e+245
beta = -1
r0 = 0.5878985946625344

[domain]
n = 1
r_max = 26.871830172780395
num_nodes = 105

[initial]
kind = gaussian
sigma = 1

[solver]
dt = 1e-3
theta = 0.5
advection = centered
outer_bc = neumann

[run]
t_end = 0.01
"""

# a datum of 1e308 under Crank-Nicolson: y = u/s and u/theta overflowed at the first step
HUGE_DATUM = """
[profile]
kind = zero

[domain]
n = 2
r_max = 10
num_nodes = 101

[initial]
kind = tabulated
samples = 0:1e308, 10:0

[solver]
dt = 1e-2
theta = 0.5

[run]
t_end = 0.1
"""


@settings(max_examples=900, deadline=None, derandomize=True)
@given(documents())
@example(HUGE_DATUM)
@example(HUGE_PECLET)
@example(FAR_TAIL)
@example(UNSEEN_WEIGHT)
@example(UNDERFLOWING_KNOT)
@example(STEEP_RELAXATION)
@example(HUGE_POWERS[0])
@example(HUGE_POWERS[1])
@example(HUGE_POWERS[2])
@example(HUGE_POWERS[3])
@example(HUGE_POWERS[4])
@example(HUGE_POWERS[5])
@example(EXPLICIT_LINEAR)
@example(OVERFLOWING_MASS)
@example(TINY_AMPLITUDES[0])
@example(TINY_AMPLITUDES[1])
@example(FAR_DATUM)
@example(CONSTANT_DATUM)
@example(LARGE_DIMENSIONS[0])
@example(LARGE_DIMENSIONS[1])
@example(LARGE_DIMENSIONS[2])
@example(UNDERFLOWING_WEIGHTS[0])
@example(UNDERFLOWING_WEIGHTS[1])
def test_accepted_documents_run_and_keep_the_certified_guarantees(doc):
    # what parse_scenario accepts, run completes without a warning; the certified
    # scheme (backward Euler, upwind) never reports a broken discrete guarantee
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            scenario = parse_scenario(doc)
            report = lab.run(scenario)
        except ScenarioError:
            return
    if scenario.solver.theta == 1.0 and scenario.solver.advection == "upwind":
        for name in ("positivity", "max_principle", "radial_monotonicity"):
            assert report.invariants[name] is not False, name


def test_a_drift_past_the_double_range_is_refused_naming_the_profile():
    for doc, message in (
            (HUGE_POWERS[3], "profile: psi(r0) r0 of PowerLaw(amplitude=1.0, exponent=308.0, "
                             "r0=10.0) is not a finite double"),
            (HUGE_POWERS[4], "profile: psi(r_max) of PowerLaw(amplitude=1.0, exponent=300.0, "
                             "r0=10.0) at r_max = 20 is not a finite double")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError) as exc:
                parse_scenario(doc)
        assert str(exc.value) == message


def test_centered_advection_past_the_double_range_of_the_diffusion_is_refused(tmp_path, capsys):
    with pytest.raises(ScenarioError, match=r"^solver\.advection: centered advection at cell "
                       r"Peclet number 1\.06221e\+245 >= 2\^53 .*; use upwind$"):
        parse_scenario(HUGE_PECLET)
    cfg = tmp_path / "peclet.ini"
    cfg.write_text(HUGE_PECLET)
    assert cli.main(["simulate", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: solver.advection: ")
    assert parse_scenario(HUGE_PECLET.replace("centered", "upwind")).solver.advection == "upwind"
    # the cell Peclet number scales with A: twice 2^53 is refused, half of it accepted
    for factor, refused in ((2.0, True), (0.5, False)):
        amplitude = 5.037052563190668e+245 * factor * 2.0**53 / 1.06221e245
        doc = HUGE_PECLET.replace("A = 5.037052563190668e+245", f"A = {amplitude!r}")
        if refused:
            with pytest.raises(ScenarioError, match=r"^solver\.advection: "):
                parse_scenario(doc)
        else:
            assert parse_scenario(doc).profile.amplitude == amplitude


def test_overflowing_weight_mass_is_a_lift_off_with_an_infinite_mass():
    report = lab.run(parse_scenario(OVERFLOWING_MASS))
    c = report.classification
    assert c.verdict is lab.Verdict.LIFT_OFF and c.phi_mass == math.inf
    assert c.note == "averaged growth inf exceeds dimension 2; weight mass exceeds the double range"
    assert 0 < report.h_pred < 1 and report.h_tail_bound == math.inf


def test_cli_simulate_reads_a_weight_tail_past_the_double_range_as_zero(tmp_path):
    # c r^g = r^101 / 101 is no double at r_max = 1190: phi reads 0 there, not an OverflowError
    cfg = tmp_path / "far.ini"
    cfg.write_text(FAR_TAIL)
    assert cli.main(["simulate", str(cfg), "--quiet", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "far-tail" / "report.json").read_text())
    assert report["verdict"] == "lift_off" and report["h_tail_bound"] == 0.0


def test_a_lift_off_whose_grid_cannot_see_its_weight_is_refused_before_the_solve(
        tmp_path, capsys, monkeypatch):
    # phi(100) = e^-5000 = 0 at every node but r = 0, whose weight r^(n-1) is 0 in n = 2:
    # the predicted level would divide by a zero grid mass
    monkeypatch.setattr(lab, "simulate", None)  # any simulation attempt raises TypeError
    cfg = tmp_path / "unseen.ini"
    cfg.write_text(UNSEEN_WEIGHT)
    assert cli.main(["simulate", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: domain.num_nodes: 11 nodes on [0, 1000] cannot see the weight phi of Linear(): "
        "it reads 0 at every node the quadrature weighs, so the lift-off level I(0) / int phi "
        "is undefined\n")


def test_a_knot_value_underflowing_to_zero_leaves_the_weight_finite():
    # psi(r0) = 0 in doubles times (r/r0)^g = inf was a NaN Psi, read as an overflowing weight
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = lab.run(parse_scenario(UNDERFLOWING_KNOT))
    assert report.classification.verdict is lab.Verdict.LIFT_OFF
    assert math.isfinite(report.h_pred) and math.isfinite(report.h_tail_bound)


def test_a_relaxation_law_past_the_double_range_leaves_no_limit():
    # p = (268 - 3)/2 = 132.5: t^-p is no double for t in [3e-5, 6e-5], so no fit, not NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = lab.run(parse_scenario(STEEP_RELAXATION))
    assert report.relaxation_exponent == 132.5 and report.h_limit is None
    assert report.to_dict()["h_limit"] is None


def test_frame_store_is_bounded_before_allocating():
    # 100001 frames x 4001 nodes x 8 B: rejected from the estimate alone
    text = (Path(__file__).resolve().parent.parent / "configs" / "subcritical.ini").read_text()
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(re.sub(r"snapshot_stride\s*=\s*\d+", "snapshot_stride = 1", text))
    assert str(exc.value) == ("solver.snapshot_stride: 100001 frames x 4001 nodes x 8 B = "
                              "3200832008 B exceed the frame store budget 1073741824 B")
    assert parse_scenario(text).solver.snapshot_stride == 1000

import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftlab import lab
from driftlab.oracles import GaussianData
from driftlab.profiles import Linear, LogCorrected, PowerLaw, Tabulated, Zero
from driftlab.scenario import ScenarioError, TabulatedInitial, apply_parameter, parse_scenario

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
    # the origin row's Gershgorin sum 4n/h^2 = 12800 bounds |lambda|: dt <= 2/12800
    with pytest.raises(ScenarioError, match=r"^solver\.dt: theta = 0 is unstable at dt = 0\.001; "
                                            r"the largest stable dt is 1\.5625e-04$"):
        parse_scenario(EXPLICIT_LINEAR)
    stable = parse_scenario(EXPLICIT_LINEAR.replace("dt = 1e-3", "dt = 1.5e-4"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = lab.run(stable)
    assert report.invariants["positivity"]


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
    theta, advection = draw(st.sampled_from([(1.0, "upwind"), (0.5, "centered")]))
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


@settings(max_examples=900, deadline=None, derandomize=True)
@given(documents())
@example(EXPLICIT_LINEAR)
@example(OVERFLOWING_MASS)
@example(TINY_AMPLITUDES[0])
@example(TINY_AMPLITUDES[1])
@example(FAR_DATUM)
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


def test_overflowing_weight_mass_is_a_lift_off_with_an_infinite_mass():
    report = lab.run(parse_scenario(OVERFLOWING_MASS))
    c = report.classification
    assert c.verdict is lab.Verdict.LIFT_OFF and c.phi_mass == math.inf
    assert c.note == "averaged growth inf exceeds dimension 2; weight mass exceeds the double range"
    assert 0 < report.h_pred < 1 and report.h_tail_bound == math.inf


def test_frame_store_is_bounded_before_allocating():
    # 100001 frames x 4001 nodes x 8 B: rejected from the estimate alone
    text = (Path(__file__).resolve().parent.parent / "configs" / "subcritical.ini").read_text()
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(re.sub(r"snapshot_stride\s*=\s*\d+", "snapshot_stride = 1", text))
    assert str(exc.value) == ("solver.snapshot_stride: 100001 frames x 4001 nodes x 8 B = "
                              "3200832008 B exceed the frame store budget 1073741824 B")
    assert parse_scenario(text).solver.snapshot_stride == 1000

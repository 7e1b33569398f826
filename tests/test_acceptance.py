"""Acceptance gate: every verification criterion at its reference resolution.

Each test pulls one check out of the corresponding verification suite and
asserts it at the pinned tolerance, printing the measured numbers.  All suites
come from one verify call, which makes each reference run once however many
suites read it; the session fixture `verified` (tests/conftest.py) counts the
simulations to show it.

`liftoff-prediction` gates the plateau identity in the form the paper states
it: a positive solution tends to h = I(0)/int phi as t -> infinity.  On the
bounded supercritical drift (A=3, beta=-1, n=2) the center relaxes like
t^{-1/2}, so at t_end = 10 it is still ~6.6% above h_pred.  The row reads the
`relaxation` suite's `plateau_limit` check: the limit extrapolated from the
frames in [5, 10] of the same run under the rate p = (L - n)/2,
`RunReport.h_limit`, lies within 2% of h_pred (it is ~0.6% off).  The rate
itself is gated by `relaxation-exponent`: a free fit of h + C t^-p over
t in [40, 80] recovers (L - n)/2 for L - n in {1, 2} and n in {2, 3}.  The
verify check `liftoff_prediction` (suite `liftoff`) stays the finite-time
readout at t = 10 and stays red; no row asserts it.  (u(0, t) - h) * sqrt(t)
is constant only for the exact limit h = I(0)/int_{R^2} phi, not for h_pred,
which integrates phi over [0, r_max] only; u(0, 10) is unchanged when the
domain doubles, the finite-time discrepancy is not (0.0662 at r_max 40,
0.0723 at 80).
"""

import pytest

from driftlab import lab


CRITERIA = [
    # (test id, suite, check name)
    ("oracle-equivalence", "oracle", "oracle_equivalence"),
    ("liftoff-level", "liftoff", "liftoff_level"),
    ("conservation", "conservation", "weighted_mass_conservation"),
    ("liftoff-prediction", "relaxation", "plateau_limit"),
    ("relaxation-exponent", "relaxation", "relaxation_exponent"),
    ("decay-sup-monotone", "decay", "decay_sup_monotone"),
    ("decay-sup-small", "decay", "decay_sup_small"),
    ("decay-weighted-mass-monotone", "decay", "decay_weighted_mass_monotone"),
    ("critical-family", "critical", "critical_family"),
    ("classifier-table", "critical", "classifier_table"),
    ("mass-growth", "oracle", "mass_growth"),
    ("invariants-constant", "invariants", "constant_preservation"),
    ("invariants-max-principle", "invariants", "max_principle"),
    ("invariants-monotonicity", "invariants", "radial_monotonicity"),
    ("invariants-positivity", "invariants", "positivity"),
    ("invariants-linearity", "invariants", "linearity"),
    ("convergence-order", "convergence", "convergence_order"),
]


@pytest.mark.parametrize("label,suite,check", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance(verified, label, suite, check):
    result = next(c for c in verified[0][suite].checks if c.name == check)
    print(result.line())
    assert result.passed, result.line()


def test_every_reference_run_is_simulated_once(verified):
    reports, simulated, _ = verified
    assert list(reports) == list(lab.suite_names())
    assert simulated and len(set(simulated)) == len(simulated)

"""Session fixtures shared by the test modules."""

import pytest

from driftlab import lab


@pytest.fixture(scope="session")
def verified():
    """({suite: SuiteReport} of one verify of every suite, each Scenario it simulated,
    {Scenario: RunReport} of each run it made), made once per test session."""
    simulated, ran = [], {}
    simulate, run = lab.simulate, lab.run

    def counting(scenario):
        simulated.append(scenario)
        return simulate(scenario)

    def recording(scenario, out_dir=None):
        ran[scenario] = report = run(scenario, out_dir)
        return report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lab, "simulate", counting)
        mp.setattr(lab, "run", recording)
        reports = {r.suite: r for r in lab.verify(*lab.suite_names())}
    return reports, simulated, ran

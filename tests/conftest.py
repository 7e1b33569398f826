"""Session fixtures shared by the test modules."""

import pytest

from driftlab import lab


@pytest.fixture(scope="session")
def verified():
    """({suite: SuiteReport} of one verify of every suite, each Scenario it simulated,
    {Scenario: RunReport} of each run it made), made once per test session.

    verify takes its default path, its runs made over the usable cores, some in this process
    and some in forked children, so the runs are counted where it dispatches them, in this
    process, and not again inside the dispatch: a child's records never come back.  A
    simulation outside that dispatch is counted too."""
    simulated, ran = [], {}
    simulate, fork_map = lab.simulate, lab._fork_map

    def counting(scenario):
        simulated.append(scenario)
        return simulate(scenario)

    def dispatching(fn, calls, workers, broken=None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lab, "simulate", simulate)  # a dispatched run is counted once, here
            made = fork_map(fn, calls, workers, broken)
        for (how, scenario), (out, _) in zip(calls, made):
            simulated.append(scenario)
            if how == "run":
                ran[scenario] = out
        return made

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lab, "simulate", counting)
        mp.setattr(lab, "_fork_map", dispatching)
        reports = {r.suite: r for r in lab.verify(*lab.suite_names())}
    return reports, simulated, ran

"""Session fixtures shared by the test modules, and the helper that counts dispatched calls."""

import pytest

from driftlab import lab


def count_dispatches(mp, counted: str, record):
    """Have mp wrap lab._fork_map to show record(call, result) each call it dispatches, in
    this process, since a child's records never come back.  Within the dispatch lab.<counted>
    is as it is now, so a counter patched over it later does not count those calls again."""
    fork_map, uncounted = lab._fork_map, getattr(lab, counted)

    def dispatching(fn, calls, workers, broken=None):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(lab, counted, uncounted)
            made = fork_map(fn, calls, workers, broken)
        for call, result in zip(calls, made):
            record(call, result)
        return made

    mp.setattr(lab, "_fork_map", dispatching)


@pytest.fixture(scope="session")
def verified():
    """({suite: SuiteReport} of one verify of every suite, each Scenario it simulated,
    {Scenario: RunReport} of each run it made), made once per test session.

    verify takes its default path over the usable cores; its runs are counted where it
    dispatches them, and a simulation outside that dispatch is counted too."""
    simulated, ran, simulate = [], {}, lab.simulate

    def counting(scenario):
        simulated.append(scenario)
        return simulate(scenario)

    def record(call, made):
        how, scenario = call
        simulated.append(scenario)
        if how == "run":
            ran[scenario] = made[0]

    with pytest.MonkeyPatch.context() as mp:
        count_dispatches(mp, "simulate", record)
        mp.setattr(lab, "simulate", counting)
        reports = {r.suite: r for r in lab.verify(*lab.suite_names())}
    return reports, simulated, ran

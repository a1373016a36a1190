"""REP104 fixture: ``map_report`` ships work to the resilient pool too.

The rule once knew only ``.map``/``.submit`` and not the pool every
campaign runs on, so both submissions here went unflagged.
"""

from repro.campaign.executor import ResilientProcessExecutor
from repro.parallel.executor import get_executor


def run_direct(scenarios):
    # BAD: a lambda cannot be pickled into the worker processes.
    return ResilientProcessExecutor(2).map_report(
        lambda scenario: scenario, scenarios
    )


def run_selected(scenarios, jobs):
    def run_one(scenario):
        return scenario

    executor = get_executor(jobs)
    # BAD: nested function — the workers cannot import it by name.
    return executor.map_report(run_one, scenarios)

"""REP104 fixture (clean): a module-level callable is picklable."""

from repro.campaign.executor import ResilientProcessExecutor


def run_one(scenario):
    return scenario


def run_all(scenarios):
    executor = ResilientProcessExecutor(2)
    return executor.map(run_one, scenarios)


def run_journaled(scenarios):
    journaled = []

    def keep(index, result):
        journaled.append(result)

    # ``on_result`` runs in the calling process; only the submitted
    # callable crosses into the workers.
    return ResilientProcessExecutor(2).map_report(
        run_one, scenarios, on_result=keep
    )

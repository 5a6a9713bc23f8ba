"""Shared grids for the observatory determinism and acceptance suites."""

import pytest

from repro.experiments.harness import SMOKE_SCALE, ExperimentConfig
from repro.runner import Runner, RunSpec, expand_grid

# Each observatory's Runner flags.
OBSERVATORIES = {
    "sampling": {"sample_interval": 0.5},
    "trace": {"trace": True},
    "telquality": {"telquality": True},
    "whatif": {"whatif": True},
}


@pytest.fixture(scope="session")
def smoke_grid():
    """Four smoke cells: aware/nearest x VS/S, seed 3 (specs are frozen)."""
    base = RunSpec.from_config(ExperimentConfig(scale=SMOKE_SCALE, seed=3))
    return expand_grid(
        base, {"policy": ["aware", "nearest"], "size_class": ["VS", "S"]}
    )


@pytest.fixture(scope="session")
def observed_grid(smoke_grid):
    """``observed_grid(name, jobs=1)``: the smoke grid run with one
    observatory's flags, executed once per session and shared."""
    memo = {}

    def run(name, jobs=1):
        if (name, jobs) not in memo:
            runner = Runner(jobs=jobs, **OBSERVATORIES[name])
            memo[name, jobs] = runner.run(smoke_grid)
        return memo[name, jobs]

    return run

"""The benchmark's workloads: each one is a list of run specs made from a seed.

The program under test only ever sees the generated ``RunSpec`` cells; the
benchmark seed never reaches it directly.  Every cell of one workload gets a
seed derived from ``(benchmark seed, size class)``, so the policies of one
size class see the same task arrivals and background congestion -- the
paired comparison behind ``aware_gain_pct``.

Cell sizes are chosen for a 2-CPU host: one pass over a workload's cells
takes about 7-20 seconds, so a 30-second run repeats it up to three times,
and the independent size-class seeds of a pass average out how much
simulated traffic one seed happens to draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.edge.background import DEFAULT_SCENARIO, TrafficScenario
from repro.edge.task import SizeClass
from repro.experiments.harness import ExperimentConfig, ExperimentScale
from repro.runner import RunSpec
from repro.simnet.random import derive_seed

__all__ = ["WORKLOADS", "Workload", "make_specs"]

# One background transfer at 5-10% of link capacity that lasts the whole
# cell: the CBR path is nearly idle, so INT stamping and telemetry ingest
# stand out.
LIGHT_SCENARIO = TrafficScenario(
    name="light",
    slots=1,
    duration_choices=(60.0,),
    gap_choices=(0.0,),
    stagger=0.0,
    rate_fraction_range=(0.05, 0.10),
)


@dataclass(frozen=True)
class Workload:
    """A grid of cells plus what the harness does with them."""

    name: str
    workload: str                  # "serverless" or "distributed"
    metric: str                    # ranking metric: "delay" or "bandwidth"
    probing_interval: float
    scenario: TrafficScenario
    size_classes: Tuple[str, ...]
    policies: Tuple[str, ...]
    size_scale: float
    total_tasks: int
    mean_interarrival: float
    time_scale: float
    # Every observatory on, cold run into a fresh cache, then a warm re-read.
    observed: bool = False


_FIG5 = dict(
    workload="serverless",
    metric="delay",
    probing_interval=0.1,
    scenario=DEFAULT_SCENARIO,
    size_classes=("VS", "S", "M", "L"),
    policies=("aware", "nearest", "random"),
    size_scale=0.03,
    total_tasks=12,
    mean_interarrival=0.05,
    time_scale=0.1,
)

WORKLOADS: Dict[str, Workload] = {
    "fig5_packet": Workload(name="fig5_packet", **_FIG5),
    "probe_dense": Workload(
        name="probe_dense",
        workload="distributed",
        metric="bandwidth",
        probing_interval=0.02,
        scenario=LIGHT_SCENARIO,
        size_classes=("VS", "S", "M"),
        policies=("aware", "nearest"),
        size_scale=0.03,
        total_tasks=18,
        mean_interarrival=0.1,
        time_scale=1.0,
    ),
    # The aware cells only: four short passes fit in a run, and their median
    # per cell absorbs the run-to-run noise that this allocation-heavy
    # workload shows on a shared host.
    "observed": Workload(
        name="observed", observed=True, **{**_FIG5, "policies": ("aware",)}
    ),
}


def make_specs(workload: Workload, seed: int) -> List[RunSpec]:
    """The workload's cells for benchmark seed ``seed``, in run order."""
    scale = ExperimentScale(
        size_scale=workload.size_scale,
        total_tasks=workload.total_tasks,
        mean_interarrival=workload.mean_interarrival,
        time_scale=workload.time_scale,
    )
    specs: List[RunSpec] = []
    for label in workload.size_classes:
        cell_seed = derive_seed(seed, f"perfbench:{label}")
        for policy in workload.policies:
            config = ExperimentConfig(
                policy=policy,
                metric=workload.metric,
                workload=workload.workload,
                size_class=SizeClass[label],
                seed=cell_seed,
                scenario=workload.scenario,
                scale=scale,
                probing_interval=workload.probing_interval,
            )
            specs.append(RunSpec.from_config(config))
    return specs

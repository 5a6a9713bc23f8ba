"""Time one cold set-up: import the program and build a cell up to its first event.

Run as ``python3 perfbench/setup_probe.py SRC_DIR SPEC_JSON`` in a fresh
interpreter (``run.py`` does this several times and takes the median).  The
clock starts before ``repro`` is imported and stops when the cell's
simulator is asked to run -- topology, servers, scheduler, probes, workload
plan and background traffic are all built by then.  Prints the seconds.
"""

import json
import sys
import time


class _FirstEvent(Exception):
    """Raised in place of the simulation loop, which is not part of set-up."""


def main() -> None:
    started = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from repro.experiments.harness import run_experiment
    from repro.runner.spec import spec_from_dict
    from repro.simnet.engine import Simulator

    def stop_before_first_event(self, *args, **kwargs):
        raise _FirstEvent

    Simulator.run = stop_before_first_event
    spec = spec_from_dict(json.loads(sys.argv[2]))
    try:
        run_experiment(spec.to_config())
    except _FirstEvent:
        pass
    else:
        sys.exit("set-up probe: the cell never reached its simulation loop")
    print(f"{time.perf_counter() - started:.9f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The repository benchmark: run one workload, check its outputs, print metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5_packet --seed 1 --seconds 30 --trace 0

Every workload runs in this one process, serially and in-process
(``Runner(jobs=1)``, no run timeout).  A *pass* runs all of the workload's
cells once; the run repeats passes while the next one is expected to end
within ``--seconds`` (at least one pass, two with ``--trace 1``).

``--trace 0`` measures set-up and the end-to-end metrics on plain passes.
``--trace 1`` first makes a counted pass (packet-class hop counters only),
then traced passes (hop counters, span wrappers and the program's engine
profiler) and prints the per-layer metrics.  Both modes check that every
cell resolves every task, that every pass yields byte-identical payloads,
and, when traced, that the hop counts and payloads match the counted pass.
The last line of standard output is one JSON object; the exit code is 1 if
any check failed and 2 if the program's source is missing.

See ``perfbench/README.md`` for the workloads, the metrics and what each
layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from reference import host_speed, normalize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Spans and the observed workload's result cache live here, inside the
# checkout; the run removes its cache when it ends.
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
SAMPLE_INTERVAL_S = 0.5


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class CheckFailed(Exception):
    """An output check failed; the run reports ``correct: false``."""


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

_SUMMARY_KEYS = ("sim_time", "events_executed", "probe_reports", "queries_served",
                 "tasks_completed", "mean_completion_time")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Pass:
    """One run of every cell, reduced as each cell finishes: wall times,
    payload digests, failed tasks, a few simulated numbers per cell, and the
    engine profiles of a traced pass.  Payloads are not kept, so memory
    holds one cell's results at a time."""

    def __init__(self) -> None:
        self.cell_walls: List[float] = []
        self.cell_norms: List[float] = []
        self.speeds: List[float] = []
        self.digests: List[str] = []
        self.summaries: List[Optional[Dict[str, float]]] = []
        self.profiles: List[Dict[str, Any]] = []
        self.failed = 0
        self.warm_hits = 0
        self.hops: Optional[Dict[str, int]] = None
        self.recorder: Any = None
        self.breakdown: Dict[str, Dict[str, float]] = {}
        self.queue_high_water = 0
        self.probes_sent = 0
        self._envelope_digest: Optional[str] = None

    @property
    def wall(self) -> float:
        return sum(self.cell_walls)

    def add_cell(self, spec: Any, result: Any) -> None:
        """Reduce one cold result; remember its envelope digest for the warm
        check."""
        from repro.runner.spec import canonical_json

        self._envelope_digest = None
        if not result.ok:
            self.failed += spec.total_tasks
            self.digests.append("failed")
            self.summaries.append(None)
            return
        payload = result.payload
        resolved = payload["tasks_completed"] + payload["tasks_failed"]
        self.failed += payload["tasks_failed"] + max(spec.total_tasks - resolved, 0)
        self.digests.append(_sha256(result.payload_json()))
        summary = {key: payload[key] for key in _SUMMARY_KEYS}
        summary["obs_bytes"] = sum(
            len(canonical_json(payload[key]))
            for key in ("obs_records", "trace_records") if key in payload
        )
        self.summaries.append(summary)
        if self.recorder is not None:
            self.profiles.append(result.profile())
        # canonical_json(envelope) is what RunResult.to_json returns, without
        # the span wrapper: the check does not count as serialization.
        self._envelope_digest = _sha256(canonical_json(result.to_envelope()))

    def check_warm(self, spec: Any, warm: Any) -> None:
        """The warm read must return the cold run's exact bytes."""
        if self._envelope_digest is None:
            return
        if (hashlib.sha256(warm.raw).hexdigest() != self._envelope_digest
                or _sha256(warm.payload_json()) != self.digests[-1]):
            raise CheckFailed(f"warm cache bytes differ for {spec.label()}")

    def analyse_trace(self) -> None:
        """Per-layer breakdown of a traced pass, cross-checked against the
        hop counters."""
        from tracing import layer_breakdown

        if len(self.profiles) != len(self.digests) or not all(self.profiles):
            raise CheckFailed("a traced cell carried no engine profile")
        self.breakdown = layer_breakdown(self.profiles, self.recorder.spans)
        self.queue_high_water = max(p["queue_high_water"] for p in self.profiles)
        self.probes_sent = self.recorder.probes_sent
        hop_total = sum(self.hops.values())
        handler_events = sum(
            self.breakdown.get(name, {}).get("n", 0)
            for name in ("simnet.switch_ingress", "simnet.port_tx")
        )
        if hop_total != handler_events:
            raise CheckFailed(
                f"hop counters saw {hop_total} events, the profiler {handler_events}"
            )


def run_pass(workload: Any, specs: List[Any], *, counted: bool = False,
             traced: bool = False) -> Pass:
    """Run every cell once, timing each.  The observed workload runs each
    cell cold into a fresh result cache and reads it back warm, both inside
    the cell's timed region, and checks the warm bytes against the cold."""
    from repro.runner import ResultCache, Runner
    from tracing import HopCounter, SpanRecorder

    flags: Dict[str, Any] = {}
    cache = None
    if workload.observed:
        flags = dict(trace=True, sample_interval=SAMPLE_INTERVAL_S,
                     telquality=True, whatif=True)
        cache_dir = WORK / f"cache-{os.getpid()}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache = ResultCache(str(cache_dir))
    p = Pass()
    if counted or traced:
        counter = HopCounter()
        p.hops = counter.counts
        p.recorder = SpanRecorder(counter)
        p.recorder.install(layers=traced)
    try:
        if p.recorder is not None:
            p.recorder.origin = time.perf_counter()
        speed = host_speed()
        p.speeds.append(speed)
        for spec in specs:
            # The cold run and the warm read are timed; reducing and
            # checking the result between them is not.
            started = time.perf_counter()
            [result] = Runner(jobs=1, cache=cache, profile=traced,
                              on_failure="keep", **flags).run([spec])
            wall = time.perf_counter() - started
            p.add_cell(spec, result)
            del result
            if cache is not None:
                reader = Runner(jobs=1, cache=cache, profile=traced,
                                on_failure="keep", **flags)
                started = time.perf_counter()
                [warm] = reader.run([spec])
                wall += time.perf_counter() - started
                p.warm_hits += reader.stats.cache_hits
                p.check_warm(spec, warm)
                del warm
            speed_after = host_speed()
            p.speeds.append(speed_after)
            p.cell_walls.append(wall)
            p.cell_norms.append(normalize(wall, speed, speed_after))
            speed = speed_after
    finally:
        if p.recorder is not None:
            p.recorder.uninstall()
    if cache is not None and p.warm_hits != len(specs):
        raise CheckFailed(f"warm re-read hit {p.warm_hits} of {len(specs)} cached cells")
    if traced:
        p.analyse_trace()
    elif p.recorder is not None:
        p.recorder = None
    return p


def run_passes(workload: Any, specs: List[Any], seconds: float,
               trace: bool) -> List[Pass]:
    """Repeat passes while the next one is expected to end in time.  A
    traced run's first pass is the counted one, and at least one traced
    pass follows it."""
    started = time.perf_counter()
    passes = [run_pass(workload, specs, counted=trace)]
    if trace:
        passes.append(run_pass(workload, specs, traced=True))
    while time.perf_counter() - started + passes[-1].wall <= seconds:
        passes.append(run_pass(workload, specs, traced=trace))
        if trace:
            # Only the first traced pass's spans are written out.
            passes[-1].recorder = None
    return passes


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_passes(passes: List[Pass]) -> None:
    """Every pass must reproduce the first pass's payloads byte for byte,
    and every traced pass its hop counts."""
    reference = passes[0]
    for p in passes[1:]:
        if p.digests != reference.digests:
            raise CheckFailed("a pass produced payloads that differ from the first pass")
        if p.hops is not None and p.hops != reference.hops:
            raise CheckFailed(
                f"traced hop counts {p.hops} differ from counted {reference.hops}"
            )


def median_cell_wall(passes: List[Pass], normalized: bool) -> float:
    """Sum over cells of each cell's median wall time across passes: a noise
    burst on the host that hits a minority of passes drops out."""
    return sum(
        statistics.median(walls)
        for walls in zip(*(p.cell_norms if normalized else p.cell_walls
                           for p in passes))
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def measure_setup(first_spec: Any) -> float:
    """Median of several cold set-ups, each in a fresh interpreter.  The
    caller rescales it by the run's median host speed: the kernel readings
    right around a 0.4-second import-heavy set-up jitter too much to rescale
    each one."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
             first_spec.canonical_json()],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise CheckFailed(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def outcome_metrics(specs: List[Any], p: Pass) -> Dict[str, float]:
    """Deterministic simulated outcomes of one pass (identical on every pass)."""
    totals = dict.fromkeys(_SUMMARY_KEYS + ("obs_bytes",), 0.0)
    by_policy: Dict[str, Dict[str, float]] = {}
    for spec, summary in zip(specs, p.summaries):
        if summary is None:
            continue
        for key in totals:
            totals[key] += summary[key]
        by_policy.setdefault(spec.policy, {})[spec.size_class] = (
            summary["mean_completion_time"]
        )
    aware = by_policy.get("aware", {})
    nearest = by_policy.get("nearest", {})
    paired = sorted(set(aware) & set(nearest))
    nearest_total = sum(nearest[c] for c in paired)
    gain = (
        100.0 * (nearest_total - sum(aware[c] for c in paired)) / nearest_total
        if nearest_total > 0 else 0.0
    )
    return {
        "sim_s": totals["sim_time"],
        "simnet.events": totals["events_executed"],
        "telemetry.reports": totals["probe_reports"],
        "edge.tasks": totals["tasks_completed"],
        "edge.queries": totals["queries_served"],
        "edge.completion_mean_s.aware": statistics.fmean(aware.values()) if aware else 0.0,
        "edge.completion_mean_s.nearest": (
            statistics.fmean(nearest.values()) if nearest else 0.0
        ),
        "aware_gain_pct": gain,
        "obs.payload_bytes": totals["obs_bytes"],
    }


def traced_metrics(specs: List[Any], passes: List[Pass],
                   outcomes: Dict[str, float], fail_frac: float) -> Dict[str, float]:
    """Per-layer numbers: counts are exact, times are medians over the traced
    passes, and the baseline for the tracing overhead is the counted pass."""
    counted, traced = passes[0], passes[1:]

    def med(fn) -> float:
        return statistics.median(fn(p) for p in traced)

    def n(name: str) -> float:
        return traced[0].breakdown.get(name, {}).get("n", 0)

    def self_s(name: str) -> float:
        return med(lambda p: p.breakdown.get(name, {}).get("self", 0.0))

    def incl(name: str) -> float:
        return med(lambda p: p.breakdown.get(name, {}).get("incl", 0.0))

    m: Dict[str, float] = {
        "peak_rss_mb": peak_rss_mb(),
        "wall_s": counted.wall,
        "trace_overhead_frac": med(lambda p: p.wall) / counted.wall - 1.0,
        "simnet.events": outcomes["simnet.events"],
        "simnet.events_per_s": outcomes["simnet.events"] / counted.wall,
        "simnet.us_per_event": 1e6 * sum(counted.cell_norms) / outcomes["simnet.events"],
        "simnet.queue_high_water": traced[0].queue_high_water,
    }
    for handler in ("switch_ingress", "port_tx", "host_ingress", "cbr_emit"):
        m[f"simnet.{handler}.n"] = n(f"simnet.{handler}")
        m[f"simnet.{handler}.self_s"] = self_s(f"simnet.{handler}")
    for cls, value in counted.hops.items():
        m[f"simnet.hop_events.{cls}"] = value
    m["p4.pipeline.self_s"] = self_s("p4.pipeline")
    m["p4.int_stamp.n"] = n("p4.int_stamp")
    m["p4.int_stamp.self_s"] = self_s("p4.int_stamp")
    m["p4.routing.self_s"] = self_s("p4.routing")
    m["p4.egress.n"] = n("p4.egress")
    m["p4.egress.self_s"] = self_s("p4.egress")
    m["telemetry.reports"] = outcomes["telemetry.reports"]
    for name in ("ingest", "probe_tick"):
        m[f"telemetry.{name}.n"] = n(f"telemetry.{name}")
        m[f"telemetry.{name}.self_s"] = self_s(f"telemetry.{name}")
    probes_sent = traced[0].probes_sent
    m["telemetry.delivery_ratio"] = (
        outcomes["telemetry.reports"] / probes_sent if probes_sent else 0.0
    )
    for name in ("store_update", "rank", "path"):
        m[f"core.{name}.n"] = n(f"core.{name}")
        m[f"core.{name}.self_s"] = self_s(f"core.{name}")
    for key in ("edge.tasks", "edge.queries", "edge.completion_mean_s.aware",
                "edge.completion_mean_s.nearest", "aware_gain_pct"):
        m[key] = outcomes[key]
    m["fail_frac"] = fail_frac
    m["experiments.build_s"] = incl("experiments.build")
    m["experiments.run_s"] = incl("experiments.run")
    m["obs.sample_tick.n"] = n("obs.sample_tick")
    m["obs.sample_tick.self_s"] = self_s("obs.sample_tick")
    m["obs.snapshot.self_s"] = self_s("obs.snapshot")
    m["obs.payload_bytes"] = outcomes["obs.payload_bytes"]
    m["runner.serialize.self_s"] = self_s("runner.serialize")
    for name in ("cache_put", "cache_get"):
        m[f"runner.{name}.n"] = n(f"runner.{name}")
        m[f"runner.{name}.self_s"] = self_s(f"runner.{name}")
    m["runner.cache_hit_ratio"] = counted.warm_hits / len(specs)
    for layer in ("simnet", "p4", "telemetry", "core", "edge", "experiments",
                  "obs", "runner"):
        m[f"{layer}.self_share"] = med(
            lambda p, layer=layer: sum(
                v["self"] for k, v in p.breakdown.items()
                if k.split(".", 1)[0] == layer
            ) / p.wall
        )
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def load_units() -> Dict[str, str]:
    """Metric units, from ``BENCHMARK.json`` when it is present."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {
        m["name"]: m["unit"]
        for m in spec.get("end_to_end", []) + spec.get("per_layer", [])
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, make_specs

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    specs = make_specs(workload, args.seed)
    trace = bool(args.trace)
    WORK.mkdir(exist_ok=True)
    correct, failed, attempted = True, 0, 1
    metrics: Dict[str, float] = {}
    human: Dict[str, float] = {}
    try:
        setup_raw = None if trace else measure_setup(specs[0])
        passes = run_passes(workload, specs, args.seconds, trace)
        check_passes(passes)
        attempted = len(passes) * sum(spec.total_tasks for spec in specs)
        failed = sum(p.failed for p in passes)
        if failed:
            raise CheckFailed(f"{failed} of {attempted} tasks failed or never resolved")
        outcomes = outcome_metrics(specs, passes[0])
        fail_frac = failed / attempted
        if trace:
            metrics = traced_metrics(specs, passes, outcomes, fail_frac)
            recorder = passes[1].recorder
            recorder.write_jsonl(str(WORK / f"spans-{args.workload}.jsonl"))
        else:
            wall_norm = median_cell_wall(passes, normalized=True)
            wall_raw = median_cell_wall(passes, normalized=False)
            run_speed = statistics.median(s for p in passes for s in p.speeds)
            metrics = {
                "host_s_per_sim_s": wall_norm / outcomes["sim_s"],
                "setup_s": normalize(setup_raw, run_speed, run_speed),
            }
            human = {
                "peak_rss_mb": peak_rss_mb(),
                "wall_s": wall_raw,
                "wall_s.reference_host": wall_norm,
                "host_s_per_sim_s.measured": wall_raw / outcomes["sim_s"],
                "setup_s.measured": setup_raw,
                "sim_s": outcomes["sim_s"],
                "aware_gain_pct": outcomes["aware_gain_pct"],
                "fail_frac": fail_frac,
                "passes": len(passes),
            }
    except CheckFailed as exc:
        print(f"perfbench: CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(WORK / f"cache-{os.getpid()}", ignore_errors=True)

    units = load_units()
    for name, value in {**metrics, **human}.items():
        print(f"{args.workload:<12} {name:<34} {value:>16.6g} {units.get(name, '')}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed if correct else max(failed, 1),
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

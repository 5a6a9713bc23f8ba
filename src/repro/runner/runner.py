"""The Runner: grid expansion, supervised execution, and result envelopes.

The paper's evaluation is a grid of independent simulation runs — policy ×
size class × seed × probing interval × fault scenario.  The Runner executes
any list of specs (see :mod:`repro.runner.spec`) either serially in-process
or under the supervision layer (:mod:`repro.runner.supervisor`), with:

* **per-run process isolation** — supervised workers use the ``spawn``
  start method (no inherited parent state) and one fresh process per
  attempt;
* **resilience** — per-run wall-clock timeouts, crash/timeout retry with
  exponential backoff, structured ``failure`` envelopes on results instead
  of lost sweeps, and graceful Ctrl-C that persists completed work;
* **determinism** — a run's payload depends only on its spec; serial and
  parallel executions of the same grid produce byte-identical payloads
  (asserted by ``repro bench-runner`` and the CI bench-smoke job);
* **content-addressed caching** — completed envelopes land in
  ``.runcache/<hash>.json`` (checksum-verified on read, see
  :mod:`repro.runner.cache`) the moment each run finishes, so a crash
  never loses completed cells;
* **checkpointed resume** — an optional :class:`~repro.runner.journal.
  RunJournal` records per-spec completion state, letting ``--resume``
  re-run only missing/failed cells;
* **progress/ETA** — wall-clock progress lines via a callback plus metrics
  and events on an optional :class:`repro.obs.Observability` hub.

Every experiment driver (comparison, fault scenarios, probing sweep,
sensitivity, calibration, ECDF) is a thin grid definition over this module.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import ExperimentError
from repro.runner.cache import ResultCache
from repro.runner.journal import RunJournal
from repro.runner.spec import (
    CalibrationSpec,
    RunSpec,
    canonical_json,
    spec_from_dict,
)
from repro.runner.supervisor import (
    RunInterrupted,
    RunsFailedError,
    Supervisor,
    backoff_delay,
    default_run_timeout,
    failure_from_exception,
)
from repro.simnet.random import derive_seed

__all__ = [
    "RunResult",
    "Runner",
    "RunnerStats",
    "expand_grid",
    "execute_spec",
]


# ---------------------------------------------------------------------------
# Result envelope
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """One completed (or failed) run: payload plus provenance, content-
    addressed.

    ``payload`` is the deterministic part (metrics, per-task records, obs
    exports) — byte-identical across serial/parallel/cached executions of
    the same spec.  ``provenance`` records how this particular execution
    happened (code version, wall time, executor) and is excluded from
    determinism comparisons.  ``raw`` holds the exact cached bytes when the
    result came off disk.  ``failure``, when set, is the structured failure
    envelope of a run that exhausted its retries (kind, exception type,
    traceback, attempt count, worker exit signal); failed results have an
    empty payload and are never cached."""

    spec: Any
    spec_hash: str
    payload: Dict[str, Any]
    provenance: Dict[str, Any] = field(default_factory=dict)
    from_cache: bool = False
    raw: Optional[bytes] = None
    failure: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def payload_json(self) -> str:
        """Canonical JSON of the deterministic payload."""
        return canonical_json(self.payload)

    def to_envelope(self) -> Dict[str, Any]:
        envelope = {
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec_hash,
            "payload": self.payload,
            "provenance": self.provenance,
        }
        # Only failed results carry the key at all, so successful envelope
        # bytes are unchanged from the pre-supervision format.
        if self.failure is not None:
            envelope["failure"] = self.failure
        return envelope

    def to_json(self) -> str:
        return canonical_json(self.to_envelope())

    @classmethod
    def from_envelope(
        cls,
        envelope: Dict[str, Any],
        *,
        from_cache: bool = False,
        raw: Optional[bytes] = None,
    ) -> "RunResult":
        return cls(
            spec=spec_from_dict(envelope["spec"]),
            spec_hash=envelope["spec_hash"],
            payload=envelope["payload"],
            provenance=dict(envelope.get("provenance", {})),
            from_cache=from_cache,
            raw=raw,
            failure=envelope.get("failure"),
        )

    # -- typed views -------------------------------------------------------

    def _require_ok(self) -> None:
        if self.failure is not None:
            raise ExperimentError(
                f"run {self.spec.label()} failed "
                f"({self.failure.get('kind', '?')}: "
                f"{self.failure.get('message', '?')}); no payload to read"
            )

    def experiment_result(self) -> Any:
        """Rebuild the full :class:`ExperimentResult` for this cell."""
        from repro.experiments.export import result_from_dict

        self._require_ok()
        if not isinstance(self.spec, RunSpec):
            raise ExperimentError(
                f"spec kind {type(self.spec).__name__} is not an experiment"
            )
        return result_from_dict(self.payload, self.spec.to_config())

    def calibration_point(self) -> Any:
        from repro.experiments.calibration import CalibrationPoint

        self._require_ok()
        if not isinstance(self.spec, CalibrationSpec):
            raise ExperimentError(
                f"spec kind {type(self.spec).__name__} is not a calibration run"
            )
        return CalibrationPoint(**self.payload["calibration"])

    def obs_records(self) -> List[Dict[str, Any]]:
        """Observability records captured by this run ([] for plain runs)."""
        return list(self.payload.get("obs_records", ()))

    def trace_records(self) -> List[Dict[str, Any]]:
        """Causal span records captured by this run ([] unless traced)."""
        return list(self.payload.get("trace_records", ()))

    def profile(self) -> Optional[Dict[str, Any]]:
        """Engine profile summary, or None.  Lives in provenance: handler
        wall-times are nondeterministic and must not affect payload bytes."""
        return self.provenance.get("profile")


# ---------------------------------------------------------------------------
# Spec execution (runs in the worker process)
# ---------------------------------------------------------------------------

def execute_spec(spec: Any) -> Dict[str, Any]:
    """Execute one spec and return its deterministic payload.

    A profiled spec's engine profile rides back under the ``"_profile"``
    payload key temporarily; :func:`_execute_envelope_json` moves it into
    provenance because handler wall-times are nondeterministic.
    """
    profiler = None
    memory_capture = None
    if getattr(spec, "profile", False):
        from repro.obs.perf import MemoryCapture
        from repro.simnet.engine import EngineProfiler

        profiler = EngineProfiler()
        # gc counters always ride with a profile; allocation-site tracing
        # (tracemalloc) only when the spec opted in — it costs real time.
        memory_capture = MemoryCapture(
            tracemalloc_top=10 if getattr(spec, "mem_profile", False) else 0
        )
    if isinstance(spec, RunSpec):
        from repro.experiments.export import result_to_dict
        from repro.experiments.harness import run_experiment

        obs = None
        labels = spec.obs_run()
        # Whether the payload carries the hub's obs export.
        exported = (
            labels is not None or spec.sample_interval is not None
            or spec.telquality or spec.whatif
        )
        if exported or spec.trace:
            from repro.obs import Observability

            if labels is None:
                # Instrumented run without explicit obs labels: synthesize
                # the grid identity so multi-cell exports stay separable.
                labels = {
                    "policy": spec.policy,
                    "size_class": spec.size_class,
                    "seed": spec.seed,
                }
            obs = Observability(
                run=labels, trace=spec.trace, sample_interval=spec.sample_interval,
                telquality=spec.telquality, whatif=spec.whatif,
            )
        if memory_capture is not None:
            memory_capture.start()
        result = run_experiment(spec.to_config(), obs=obs, profiler=profiler)
        if memory_capture is not None:
            profiler.memory = memory_capture.stop()
        payload = result_to_dict(result, include_tasks=True)
        if exported:
            payload["obs_records"] = obs.snapshot_records()
        if obs is not None and spec.trace:
            payload["trace_records"] = obs.trace_records()
        if profiler is not None:
            payload["_profile"] = profiler.summary()
        return payload
    if isinstance(spec, CalibrationSpec):
        from dataclasses import asdict

        from repro.experiments.calibration import run_calibration

        if memory_capture is not None:
            memory_capture.start()
        point = run_calibration(
            spec.utilization,
            duration=spec.duration,
            rate_bps=spec.rate_bps,
            link_delay=spec.link_delay,
            probing_interval=spec.probing_interval,
            seed=spec.seed,
            profiler=profiler,
        )
        if memory_capture is not None:
            profiler.memory = memory_capture.stop()
        payload = {"calibration": asdict(point)}
        if profiler is not None:
            payload["_profile"] = profiler.summary()
        return payload
    raise ExperimentError(f"cannot execute spec of type {type(spec).__name__}")


def _execute_envelope_json(spec_json: str) -> str:
    """Worker entry point: spec JSON in, canonical envelope JSON out.

    Serial and supervised execution share this function so their envelopes
    are produced by the same code path; only ``provenance.wall_time_s`` (and
    the executor tag the parent stamps) can differ between them."""
    import repro

    spec = spec_from_dict(json.loads(spec_json))
    started = time.monotonic()
    payload = execute_spec(spec)
    wall = time.monotonic() - started
    provenance = {
        "code_version": repro.__version__,
        "wall_time_s": round(wall, 6),
    }
    # The engine profile is execution metadata (real wall-times), not part
    # of the deterministic payload.
    profile = payload.pop("_profile", None)
    if profile is not None:
        provenance["profile"] = profile
    envelope = {
        "spec": spec.to_dict(),
        "spec_hash": spec.content_hash(),
        "payload": payload,
        "provenance": provenance,
    }
    return canonical_json(envelope)


# ---------------------------------------------------------------------------
# Grid expansion
# ---------------------------------------------------------------------------

def expand_grid(
    base: Any,
    axes: Optional[Mapping[str, Sequence[Any]]] = None,
    *,
    repeats: Optional[int] = None,
    master_seed: Optional[int] = None,
) -> List[Any]:
    """Cross-product a base spec with per-field value lists.

    ``axes`` maps spec field names to the values to sweep (e.g.
    ``{"size_class": ["VS", "S"], "policy": ["aware", "nearest"]}``); axis
    order fixes expansion order, so grids are deterministic.  ``repeats``
    replaces each cell with ``repeats`` copies whose seeds derive from
    ``derive_seed(master_seed, "repeat:<i>")`` — a function of the master
    seed and repeat index only, so every policy (and any future axis) sees
    the same per-repeat seeds no matter how the grid is ordered."""
    axes = dict(axes or {})
    names = list(axes)
    cells: List[Any] = []
    for combo in itertools.product(*(axes[name] for name in names)):
        cells.append(base.with_(**dict(zip(names, combo))))
    if repeats is None:
        return cells
    if repeats < 1:
        raise ExperimentError(f"repeats must be >= 1, got {repeats}")
    root = master_seed if master_seed is not None else base.seed
    out: List[Any] = []
    for cell in cells:
        for i in range(repeats):
            out.append(cell.with_(seed=derive_seed(root, f"repeat:{i}")))
    return out


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

@dataclass
class RunnerStats:
    """Wall-clock accounting for one :meth:`Runner.run` call."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    failed: int = 0
    retried: int = 0
    wall_time_s: float = 0.0


class Runner:
    """Execute spec lists serially or under supervision, with caching.

    ``jobs=1`` without a ``run_timeout`` runs in-process (no child
    processes, no pickling) with exception-level retry and graceful
    Ctrl-C.  ``jobs>1``, or ``jobs=1`` with a positive ``run_timeout``,
    runs under the :class:`~repro.runner.supervisor.Supervisor`: one
    ``spawn``-started process per attempt, per-run wall-clock deadlines,
    and crash recovery — no run ever observes another's interpreter state
    and a hung or killed worker costs only its own cell.

    Resilience knobs:

    * ``run_timeout`` — seconds per run; ``None`` scales a generous default
      from each spec (supervised runs only), ``0`` disables deadlines;
    * ``retries`` — extra attempts after a crash/timeout/exception, with
      exponential backoff (``backoff_base`` doubling per attempt);
    * ``journal`` — a :class:`~repro.runner.journal.RunJournal` recording
      per-spec completion for ``--resume``;
    * ``on_failure`` — ``"raise"`` (default) raises :class:`RunsFailedError`
      after the whole grid has been attempted; ``"keep"`` returns failed
      results (with their ``failure`` envelopes) in place.

    ``cache`` (a :class:`ResultCache`) makes completed cells free on
    re-run; results are persisted the moment each run finishes, so crashes
    lose nothing completed.  ``progress`` receives one human line per
    completed run including an ETA; ``obs`` (a
    :class:`repro.obs.Observability`) additionally records runner metrics
    and per-run events."""

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[Callable[[str], None]] = None,
        obs: Optional[Any] = None,
        trace: bool = False,
        profile: bool = False,
        mem_profile: bool = False,
        sample_interval: Optional[float] = None,
        telquality: bool = False,
        whatif: bool = False,
        run_timeout: Optional[float] = None,
        retries: int = 0,
        backoff_base: float = 0.5,
        journal: Optional[RunJournal] = None,
        on_failure: str = "raise",
    ) -> None:
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ExperimentError(f"retries must be >= 0, got {retries}")
        if run_timeout is not None and run_timeout < 0:
            raise ExperimentError(
                f"run_timeout must be >= 0 (0 disables), got {run_timeout}"
            )
        if on_failure not in ("raise", "keep"):
            raise ExperimentError(
                f"on_failure must be 'raise' or 'keep', got {on_failure!r}"
            )
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.obs = obs
        self.run_timeout = run_timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.journal = journal
        self.on_failure = on_failure
        # Instrumentation: stamp every incoming spec with these flags before
        # hashing (so traced/profiled/sampled cells never alias plain cache
        # entries) and accumulate the per-run outputs across run() calls.
        # mem_profile implies profile.
        self.trace = trace
        self.mem_profile = mem_profile
        self.profile = profile or mem_profile
        self.sample_interval = sample_interval
        self.telquality = telquality
        self.whatif = whatif
        self.trace_records: List[Dict[str, Any]] = []
        self.profiles: List[Dict[str, Any]] = []
        if obs is not None:
            started = time.monotonic()
            clock = lambda: time.monotonic() - started  # noqa: E731
            obs.metrics.bind_clock(clock)
            obs.events.bind_clock(clock)
        if cache is not None and cache.on_corrupt is None:
            cache.on_corrupt = self._on_cache_corrupt
        self.stats = RunnerStats()

    # -- public API --------------------------------------------------------

    def run(self, specs: Sequence[Any]) -> List[RunResult]:
        """Execute every spec; results come back in spec order.

        Duplicate specs (same content hash) execute once and share their
        result object.  Each completed run is cached and journaled the
        moment it finishes.  On Ctrl-C, completed work stays persisted and
        :class:`RunInterrupted` propagates with a resume summary; if any
        run fails after its retries and ``on_failure == "raise"``,
        :class:`RunsFailedError` is raised *after* the whole grid was
        attempted."""
        started = time.monotonic()
        if (
            self.trace or self.profile or self.sample_interval is not None
            or self.telquality or self.whatif
        ):
            specs = [
                spec.instrumented(
                    trace=self.trace,
                    profile=self.profile,
                    mem_profile=self.mem_profile,
                    sample_interval=self.sample_interval,
                    telquality=self.telquality,
                    whatif=self.whatif,
                )
                for spec in specs
            ]
        hashes = [spec.content_hash() for spec in specs]
        # Bind self.stats immediately: _on_retry bumps self.stats.retried
        # mid-run, so it must be the same object we account into here.
        stats = self.stats = RunnerStats(total=len(specs))
        results: Dict[str, RunResult] = {}

        # Unique work, in first-appearance order.
        unique: Dict[str, Any] = {}
        for spec, spec_hash in zip(specs, hashes):
            unique.setdefault(spec_hash, spec)

        # Journal the full grid up front: the journal alone must be able to
        # reconstruct every cell of an interrupted sweep, cache hits
        # included.
        if self.journal is not None:
            for spec_hash, spec in unique.items():
                self.journal.scheduled(spec_hash, spec)

        pending: List[str] = []
        done = 0
        for spec_hash, spec in unique.items():
            cached = self.cache.get(spec_hash) if self.cache is not None else None
            if cached is not None:
                results[spec_hash] = RunResult.from_envelope(
                    json.loads(cached), from_cache=True, raw=cached
                )
                stats.cache_hits += 1
                done += 1
                if self.journal is not None:
                    self.journal.done(spec_hash, cached=True)
                self._report(spec, spec_hash, done, len(unique), started, cached=True)
            else:
                pending.append(spec_hash)

        supervised = self.jobs > 1 or (
            self.run_timeout is not None and self.run_timeout > 0
        )
        progress = {"done": done}

        def complete(
            spec_hash: str,
            envelope_json: Optional[str],
            failure: Optional[Dict[str, Any]],
            attempts: int,
            executor_tag: str,
        ) -> None:
            """Persist and record one terminal outcome (success or failure)."""
            spec = unique[spec_hash]
            if envelope_json is not None:
                envelope = json.loads(envelope_json)
                envelope["provenance"]["executor"] = executor_tag
                if attempts > 1:
                    envelope["provenance"]["attempts"] = attempts
                result = RunResult.from_envelope(envelope)
                stats.executed += 1
                if self.cache is not None:
                    self.cache.put(spec_hash, result.to_json().encode("utf-8"))
                if self.journal is not None:
                    self.journal.done(spec_hash, cached=False)
            else:
                result = RunResult(
                    spec=spec,
                    spec_hash=spec_hash,
                    payload={},
                    provenance={"executor": executor_tag, "attempts": attempts},
                    failure=failure,
                )
                stats.failed += 1
                if self.journal is not None:
                    self.journal.failed(spec_hash, failure or {})
                if self.obs is not None:
                    self.obs.metrics.counter("runner_failures_total").inc()
                    self.obs.events.runner_run_failed(
                        label=spec.label(),
                        spec_hash=spec_hash[:12],
                        failure_kind=(failure or {}).get("kind"),
                        error_type=(failure or {}).get("error_type"),
                        message=(failure or {}).get("message"),
                        attempts=attempts,
                        exit_signal=(failure or {}).get("signal"),
                    )
            results[spec_hash] = result
            progress["done"] += 1
            self._report(
                spec, spec_hash, progress["done"], len(unique), started,
                failed=result.failure is not None,
            )

        try:
            if pending and supervised:
                self._run_supervised(
                    [(h, unique[h]) for h in pending], complete
                )
            elif pending:
                self._run_serial([(h, unique[h]) for h in pending], complete)
        except KeyboardInterrupt:
            if self.journal is not None:
                self.journal.interrupted(
                    completed=stats.cache_hits + stats.executed,
                    failed=stats.failed,
                    total=len(unique),
                )
            self.stats = stats
            raise RunInterrupted(
                completed=stats.cache_hits + stats.executed,
                failed=stats.failed,
                total=len(unique),
                journal_path=self.journal.path if self.journal is not None else None,
            ) from None

        stats.wall_time_s = time.monotonic() - started
        self.stats = stats
        if self.obs is not None:
            self.obs.metrics.gauge("runner_wall_time_seconds").set(stats.wall_time_s)

        failures = [
            results[spec_hash]
            for spec_hash in dict.fromkeys(hashes)
            if results[spec_hash].failure is not None
        ]
        ordered = [results[spec_hash] for spec_hash in hashes]
        if failures and self.on_failure == "raise":
            first = failures[0]
            raise RunsFailedError(
                f"{len(failures)} of {len(unique)} run(s) failed after "
                f"retries; first: {first.spec.label()} "
                f"({(first.failure or {}).get('kind', '?')}: "
                f"{(first.failure or {}).get('message', '?')})",
                results=ordered,
                failures=failures,
            )

        # Accumulate instrumentation outputs once per unique run, in
        # first-appearance order (cached results included — their spans are
        # in the payload, so trace exports survive cache hits).
        if self.trace or self.profile:
            for spec_hash in dict.fromkeys(hashes):
                result = results[spec_hash]
                self.trace_records.extend(result.payload.get("trace_records", ()))
                profile = result.provenance.get("profile")
                if profile is not None:
                    self.profiles.append(profile)
        return ordered

    def profile_summary(self) -> Optional[Dict[str, Any]]:
        """Merge every accumulated per-run engine profile into one summary:
        counts/wall-times summed per event type and per phase path, queue
        high-water maxed, overhead counts/totals summed (fraction recomputed
        against the merged wall), memory counters summed with tracemalloc
        sites re-ranked across runs."""
        if not self.profiles:
            return None
        by_type: Dict[str, Dict[str, Any]] = {}
        phases: Dict[str, Dict[str, Any]] = {}
        events_total = 0
        high_water = 0
        wall_s = 0.0
        overhead_total = 0.0
        overhead_pairs = 0
        overhead_reads = 0
        memory: Optional[Dict[str, Any]] = None
        sites: Dict[str, Dict[str, Any]] = {}
        for profile in self.profiles:
            events_total += profile.get("events_total", 0)
            high_water = max(high_water, profile.get("queue_high_water", 0))
            wall_s += profile.get("wall_s", 0.0)
            for name, stats in profile.get("by_type", {}).items():
                merged = by_type.setdefault(name, {"count": 0, "wall_s": 0.0})
                merged["count"] += stats["count"]
                merged["wall_s"] += stats["wall_s"]
            for path, stats in (profile.get("phases") or {}).items():
                merged = phases.setdefault(path, {"count": 0, "wall_s": 0.0})
                merged["count"] += stats["count"]
                merged["wall_s"] += stats["wall_s"]
            overhead = profile.get("overhead") or {}
            overhead_total += overhead.get("total_s", 0.0)
            overhead_pairs += overhead.get("phase_pairs", 0)
            overhead_reads += overhead.get("clock_reads", 0)
            run_memory = profile.get("memory")
            if run_memory:
                if memory is None:
                    memory = {
                        "gc_collections": 0, "gc_collected": 0,
                        "gc_uncollectable": 0, "allocated_blocks_delta": 0,
                        "tracemalloc": None,
                    }
                for key in ("gc_collections", "gc_collected",
                            "gc_uncollectable", "allocated_blocks_delta"):
                    memory[key] += run_memory.get(key, 0)
                for site in ((run_memory.get("tracemalloc") or {}).get("top")
                             or ()):
                    merged = sites.setdefault(
                        site["site"], {"site": site["site"],
                                       "size_kb": 0.0, "count": 0}
                    )
                    merged["size_kb"] = round(
                        merged["size_kb"] + site["size_kb"], 1
                    )
                    merged["count"] += site["count"]
        if memory is not None and sites:
            top = sorted(
                sites.values(), key=lambda s: (-s["size_kb"], s["site"])
            )[:10]
            memory["tracemalloc"] = {"top": top, "sites": len(sites)}
        summary: Dict[str, Any] = {
            "runs": len(self.profiles),
            "events_total": events_total,
            "queue_high_water": high_water,
            "wall_s": wall_s,
            "by_type": dict(sorted(by_type.items())),
            "phases": dict(sorted(phases.items())),
            "overhead": {
                "phase_pairs": overhead_pairs,
                "clock_reads": overhead_reads,
                "total_s": overhead_total,
                "fraction_of_wall": (
                    overhead_total / wall_s if wall_s else 0.0
                ),
            },
            "memory": memory,
        }
        from repro.simnet.engine import phase_coverage

        summary["phase_coverage"] = phase_coverage(summary)
        return summary

    def run_grid(
        self,
        base: Any,
        axes: Optional[Mapping[str, Sequence[Any]]] = None,
        **expand_kwargs: Any,
    ) -> List[RunResult]:
        """`expand_grid` + `run` in one call."""
        return self.run(expand_grid(base, axes, **expand_kwargs))

    # -- internals ---------------------------------------------------------

    def _timeout_for(self, spec: Any) -> Optional[float]:
        """Effective wall-clock timeout for one spec: explicit value, or a
        generous default scaled from the spec's expected sim duration;
        ``run_timeout=0`` disables deadlines entirely."""
        if self.run_timeout is not None:
            return self.run_timeout if self.run_timeout > 0 else None
        return default_run_timeout(spec)

    def _on_retry(
        self, spec_hash: str, attempt: int, failure: Dict[str, Any],
        backoff_s: float,
    ) -> None:
        self.stats.retried += 1
        if self.obs is not None:
            self.obs.metrics.counter("runner_retries_total").inc()
            self.obs.events.runner_run_retry(
                spec_hash=spec_hash[:12],
                attempt=attempt,
                failure_kind=failure.get("kind"),
                error_type=failure.get("error_type"),
                backoff_s=round(backoff_s, 3),
            )
        if self.progress is not None:
            self.progress(
                f"retry  {spec_hash[:12]} attempt {attempt} failed "
                f"({failure.get('kind')}: {failure.get('error_type')}); "
                f"backing off {backoff_s:.1f}s"
            )

    def _on_cache_corrupt(self, spec_hash: str, reason: str) -> None:
        if self.obs is not None:
            self.obs.events.cache_corrupt(
                spec_hash=spec_hash[:12], reason=reason
            )
        if self.progress is not None:
            self.progress(
                f"warning: evicted corrupt cache entry {spec_hash[:12]} "
                f"({reason}); recomputing"
            )

    def _run_supervised(
        self,
        work: List[Any],
        complete: Callable[..., None],
    ) -> None:
        """Fan pending specs out over supervised worker processes."""
        supervisor = Supervisor(
            jobs=self.jobs,
            retries=self.retries,
            backoff_base=self.backoff_base,
            on_retry=self._on_retry,
        )

        def on_done(outcome: Any) -> None:
            complete(
                outcome.spec_hash,
                outcome.envelope_json,
                outcome.failure,
                outcome.attempts,
                "supervised",
            )

        supervisor.run(
            [
                (
                    spec_hash,
                    canonical_json(spec.to_dict()),
                    self._timeout_for(spec),
                )
                for spec_hash, spec in work
            ],
            on_done,
        )

    def _run_serial(
        self,
        work: List[Any],
        complete: Callable[..., None],
    ) -> None:
        """In-process execution (no timeouts — nothing can kill a hung run
        from inside its own thread) with exception-level retry."""
        for spec_hash, spec in work:
            attempt = 1
            while True:
                try:
                    envelope_json = _execute_envelope_json(
                        canonical_json(spec.to_dict())
                    )
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    failure = failure_from_exception(exc, attempts=attempt)
                    if attempt <= self.retries:
                        backoff = backoff_delay(attempt, base=self.backoff_base)
                        self._on_retry(spec_hash, attempt, failure, backoff)
                        time.sleep(backoff)
                        attempt += 1
                        continue
                    complete(spec_hash, None, failure, attempt, "serial")
                    break
                complete(spec_hash, envelope_json, None, attempt, "serial")
                break

    def _report(
        self,
        spec: Any,
        spec_hash: str,
        done: int,
        total: int,
        started: float,
        *,
        cached: bool = False,
        failed: bool = False,
    ) -> None:
        elapsed = time.monotonic() - started
        eta = (elapsed / done) * (total - done) if done else 0.0
        if self.obs is not None:
            self.obs.metrics.counter("runner_runs_total").inc()
            if cached:
                self.obs.metrics.counter("runner_cache_hits_total").inc()
            self.obs.metrics.gauge("runner_eta_seconds").set(eta)
            if not failed:
                self.obs.events.emit(
                    "runner_run_completed",
                    label=spec.label(),
                    spec_hash=spec_hash[:12],
                    cached=cached,
                    done=done,
                    total=total,
                )
        if self.progress is not None:
            tag = "cache" if cached else ("FAIL" if failed else "run")
            self.progress(
                f"[{done}/{total}] {tag:<5} {spec.label()} "
                f"({elapsed:.1f}s elapsed, eta {eta:.0f}s)"
            )

"""Telemetry-quality observatory: is the INT plane good enough to trust?

The paper's premise is that Algorithm 1 ranks servers from INT registers
that are *fresh enough and complete enough*; ``repro.obs.audit`` measures
only the downstream symptom (estimate-vs-truth error).  This module turns
the raw signals the repo already produces into a first-class quality model
of the telemetry plane itself:

* **coverage ledger** — joins the control-plane ground truth
  (:func:`repro.telemetry.coverage.all_fabric_ports`) with live probe
  stampings: which directed ports are observed, by which probe pairs, at
  what effective interval — and which are blind spots, compared against the
  coverage the configured probe layout *predicts*;
* **freshness model** — per-(switch, register) refresh age at every
  collector ingest and, at every scheduler decision, the telemetry age of
  each consulted hop, both recorded into
  :class:`~repro.obs.quantiles.QuantileDigest`\\ s;
* **decision-error attribution** — the audit's estimate-vs-truth delay
  error binned by telemetry age (in probing-interval multiples) and split
  by probe-loss and fault windows, yielding the error-vs-staleness table
  that future predictors (ROADMAP item 5a) are accepted against.

Everything here is read-only over state other subsystems already maintain:
no new simulator events are scheduled, existing records are never touched,
and the single ``kind: "telquality"`` record appends at the very end of the
export, so a run with collection enabled produces a byte-identical prefix.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.export import _fmt, _run_key, _run_title
from repro.obs.quantiles import QuantileDigest
from repro.telemetry.coverage import DirectedPort, all_fabric_ports, coverage_of

__all__ = ["TelemetryQuality", "render_telemetry_report", "AGE_BIN_EDGES"]

# Error-vs-staleness bin edges, in probing-interval multiples.  Telemetry
# younger than half an interval is as fresh as the plane can deliver; past
# ~20 intervals the staleness horizon has long zeroed the registers out.
AGE_BIN_EDGES = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)

# A seq-gap loss event fires when the *next* probe of the stream arrives,
# so the losses happened within the preceding strides; the loss window
# extends this many probing intervals back from the detection time.
LOSS_WINDOW_INTERVALS = 2.0


def _error_stats(errors: Sequence[float]) -> Dict[str, Any]:
    """Count / mean error / mean absolute error of one sample bucket."""
    n = len(errors)
    if n == 0:
        return {"count": 0, "mean_error": None, "mean_abs_error": None}
    return {
        "count": n,
        "mean_error": sum(errors) / n,
        "mean_abs_error": sum(abs(e) for e in errors) / n,
    }


def _parse_label(label: Any) -> Optional[Tuple[str, int]]:
    """Invert ``ranking._node_label``: ``"sw:3"`` back to ``("sw", 3)``."""
    if isinstance(label, tuple) and len(label) == 2:
        return label
    if isinstance(label, str):
        kind, sep, index = label.partition(":")
        if kind and sep and index.isdigit():
            return (kind, int(index))
    return None


def _merge_windows(
    windows: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Merge overlapping/adjacent [start, end] intervals (sorted output)."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _hop_ages(now: float, store: Any, path: Optional[Sequence[Any]]) -> List[float]:
    """Telemetry age at ``now`` of each hop along one candidate's explained
    path, for hops the store has a report for.  The explanation flattens
    node ids to "kind:index" labels (see ranking._node_label); they are
    parsed back for the store lookups."""
    nodes = [_parse_label(label) for label in path or []]
    ages: List[float] = []
    for u, v in zip(nodes, nodes[1:]):
        if u is None or v is None:
            continue
        state = store.link_state(u, v)
        if state is None:
            continue
        # updated_at defaults to -1.0 until the first report.
        updated = max(state.latency_updated_at, state.qdepth_updated_at)
        if updated >= 0.0:
            ages.append(now - updated)
    return ages


# -- attribution shared with the counterfactual observatory ------------------
#
# Samples are ``(decision time, value, stalest hop age or None)`` triples;
# ``stats`` summarizes one bucket of values (``_error_stats`` here, the
# regret stats in repro.obs.whatif), so each record keeps its own keys.


def _age_bins(
    samples: Sequence[Tuple[float, float, Optional[float]]],
    interval: float,
    stats: Callable[[List[float]], Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Values binned by age in probing-interval multiples over
    :data:`AGE_BIN_EDGES` plus an open tail, then an ``unknown`` bin."""
    bins = []
    edges = list(AGE_BIN_EDGES) + [math.inf]
    for lo_m, hi_m in zip(edges, edges[1:]):
        lo, hi = lo_m * interval, hi_m * interval
        values = [v for _t, v, age in samples if age is not None and lo <= age < hi]
        tail = not math.isfinite(hi_m)
        bins.append({
            "label": f">= {lo_m:g}x" if tail else f"[{lo_m:g}x, {hi_m:g}x)",
            "lo_multiple": lo_m,
            "hi_multiple": None if tail else hi_m,
            **stats(values),
        })
    unknown = [v for _t, v, age in samples if age is None]
    bins.append(
        {"label": "unknown", "lo_multiple": None, "hi_multiple": None, **stats(unknown)}
    )
    return bins


def _events_of(events: Any, kind: str) -> List[Tuple[float, Dict[str, Any]]]:
    """``(time, fields)`` pairs for one event kind, from either a live
    :class:`~repro.obs.events.EventLog` or a list of exported record dicts
    (where event fields are flattened into the record)."""
    if events is None:
        return []
    if hasattr(events, "of_kind"):
        return [(e.time, e.fields) for e in events.of_kind(kind)]
    return [
        (float(r.get("time", 0.0)), r)
        for r in events
        if r.get("kind") == "event" and r.get("event") == kind
    ]


def _loss_windows(events: Any, interval: float) -> List[Tuple[float, float]]:
    windows = [
        (max(0.0, t - LOSS_WINDOW_INTERVALS * interval), t)
        for t, _fields in _events_of(events, "probe_lost")
    ]
    return _merge_windows(windows)


def _fault_windows(events: Any) -> List[Tuple[float, float]]:
    """[injected, recovered] per (fault, target); unrecovered faults stay
    open to the end of the run."""
    injected: Dict[Tuple[Any, Any], List[float]] = {}
    recovered: Dict[Tuple[Any, Any], List[float]] = {}
    for t, fields in _events_of(events, "fault_injected"):
        injected.setdefault((fields.get("fault"), fields.get("target")), []).append(t)
    for t, fields in _events_of(events, "fault_recovered"):
        recovered.setdefault((fields.get("fault"), fields.get("target")), []).append(t)
    windows: List[Tuple[float, float]] = []
    for key, starts in injected.items():
        ends = sorted(recovered.get(key, []))
        for start in sorted(starts):
            end = next((t for t in ends if t >= start), math.inf)
            windows.append((start, end))
    return _merge_windows(windows)


def _window_split(
    samples: Sequence[Tuple[float, float, Optional[float]]],
    windows: List[Tuple[float, float]],
    stats: Callable[[List[float]], Dict[str, Any]],
) -> Dict[str, Any]:
    """Values of samples taken inside vs outside the given time windows."""
    inside: List[float] = []
    outside: List[float] = []
    for t, value, _age in samples:
        if any(lo <= t <= hi for lo, hi in windows):
            inside.append(value)
        else:
            outside.append(value)
    return {"windows": len(windows), "in": stats(inside), "out": stats(outside)}


class TelemetryQuality:
    """One run's telemetry-quality state: coverage, freshness, attribution.

    The :class:`~repro.obs.Observability` hub owns an instance when
    collection was requested and fans its own hooks out to it:
    ``attach_network`` supplies the ground truth, ``configure_probing`` the
    probe layout (:meth:`configure`), ``probe_received`` each decoded probe
    (:meth:`report_ingested`), and ``decision`` every audited delay ranking
    made from a telemetry store (:meth:`decision`).  All hooks only read
    state the caller already computed.
    """

    def __init__(self) -> None:
        self._network: Optional[Any] = None
        self.layout: Optional[str] = None
        self.probing_interval: Optional[float] = None
        self.pairs: List[Tuple[str, str]] = []
        self._all_ports: Set[DirectedPort] = set()
        self._expected_covered: Set[DirectedPort] = set()
        # Live stampings: directed port -> observation ledger entry.
        self._observed: Dict[DirectedPort, Dict[str, Any]] = {}
        self._names: Dict[Tuple[str, int], Optional[str]] = {}
        # Per-(switch, register) refresh tracking: the age recorded at each
        # ingest is the gap since that register's previous refresh.
        self._last_refresh: Dict[Tuple[str, str], float] = {}
        self._refresh_counts: Dict[Tuple[str, str], int] = {}
        self._refresh_ages: Dict[Tuple[str, str], QuantileDigest] = {}
        # Telemetry age of every consulted hop, at decision time.
        self.decision_age = QuantileDigest()
        # Attribution samples: (decision time, est - truth, max hop age).
        self._samples: List[Tuple[float, float, Optional[float]]] = []
        self.decisions_seen = 0
        self.samples_skipped = 0
        self._age_cursor = 0       # sampler cursor into _samples

    # -- wiring --------------------------------------------------------------

    def attach_network(self, network: Any) -> None:
        """Record the control-plane ground truth: every directed fabric port."""
        self._network = network
        self._all_ports = all_fabric_ports(network)

    def configure(
        self,
        *,
        layout: str,
        pairs: Sequence[Tuple[str, str]],
        probing_interval: float,
    ) -> None:
        """Record the probe layout and its *predicted* coverage, so observed
        blind spots can be checked against what the layout promises."""
        self.layout = layout
        self.pairs = sorted(tuple(p) for p in pairs)
        self.probing_interval = probing_interval
        if self._network is not None:
            self._expected_covered = (
                coverage_of(self._network, self.pairs) & self._all_ports
            )

    def _node_name(self, node: Tuple[str, int]) -> Optional[str]:
        """Resolve a telemetry node id to its topology name (memoized)."""
        if node in self._names:
            return self._names[node]
        name: Optional[str] = None
        if self._network is not None:
            kind, ident = node
            try:
                if kind == "sw":
                    name = self._network.switch_by_id(ident).name
                else:
                    name = self._network.name_of(ident)
            except Exception:
                name = None
        self._names[node] = name
        return name

    # -- ingest-side hooks ---------------------------------------------------

    def report_ingested(self, report: Any) -> None:
        """Stamp one decoded probe into the coverage ledger and refresh the
        per-(switch, register) freshness digests."""
        if self._network is None:
            return
        now = report.collected_at
        src = self._node_name(("host", report.probe_src))
        dst = self._node_name(("host", report.probe_dst))
        for sw, downstream, _port, _qdepth in report.port_observations():
            u = self._node_name(sw)
            v = self._node_name(downstream)
            if u is None or v is None:
                continue
            entry = self._observed.get((u, v))
            if entry is None:
                entry = {"count": 0, "first": now, "last": now, "pairs": set()}
                self._observed[(u, v)] = entry
            entry["count"] += 1
            entry["last"] = now
            if src is not None and dst is not None:
                entry["pairs"].add((src, dst))
            # The qdepth register lives at the switch the record was
            # appended by (collect-and-reset at its egress).
            self._touch(u, "qdepth", now)
        for _u, v_node, latency in report.link_latencies():
            # Link latency is measured at the downstream switch's ingress;
            # the final (switch -> host) reading has no switch register.
            if latency is None or v_node[0] != "sw":
                continue
            v = self._node_name(v_node)
            if v is not None:
                self._touch(v, "latency", now)

    def _touch(self, node: str, register: str, now: float) -> None:
        key = (node, register)
        last = self._last_refresh.get(key)
        self._last_refresh[key] = now
        self._refresh_counts[key] = self._refresh_counts.get(key, 0) + 1
        if last is not None:
            digest = self._refresh_ages.get(key)
            if digest is None:
                digest = QuantileDigest()
                self._refresh_ages[key] = digest
            digest.add(now - last)

    # -- decision-side hook --------------------------------------------------

    def decision(self, now: float, store: Any, candidates: Sequence[Dict[str, Any]]) -> None:
        """Record the telemetry age behind one audited delay decision.

        Called only for decisions the audit actually stored (the caller
        checks ``audit.record``'s return), and mirrors
        :func:`repro.obs.audit.delay_error_stats`' skip rules exactly, so
        the age-bin counts sum to the audit's sample total.
        """
        self.decisions_seen += 1
        for cand in candidates:
            est = cand.get("estimated_delay")
            truth = cand.get("truth_delay")
            if (
                not isinstance(est, (int, float))
                or truth is None
                or not math.isfinite(est)
            ):
                self.samples_skipped += 1
                continue
            ages = _hop_ages(now, store, cand.get("path"))
            for age in ages:
                self.decision_age.add(age)
            self._samples.append((now, est - truth, max(ages) if ages else None))

    # -- sampler inputs (health rules) ---------------------------------------

    def coverage_fraction(self) -> Optional[float]:
        """Observed fraction of all fabric ports, or None before the layout
        is configured (nothing meaningful to alert on yet)."""
        if self.layout is None or not self._all_ports:
            return None
        observed = sum(1 for port in self._observed if port in self._all_ports)
        return observed / len(self._all_ports)

    def take_max_decision_age(self) -> Optional[float]:
        """Max consulted-hop age over decisions since the previous tick, or
        None when no decision with known ages landed in the window."""
        samples = self._samples[self._age_cursor:]
        self._age_cursor = len(self._samples)
        ages = [age for _t, _err, age in samples if age is not None]
        return max(ages) if ages else None

    # -- export --------------------------------------------------------------

    def snapshot_records(self, events: Optional[Any] = None) -> List[Dict[str, Any]]:
        """The run's single ``kind: "telquality"`` record.  ``events`` is
        the run's :class:`~repro.obs.events.EventLog`, joined here for the
        probe-loss and fault windows."""
        return [
            {
                "kind": "telquality",
                "layout": self.layout,
                "probing_interval": self.probing_interval,
                "pairs": [list(p) for p in self.pairs],
                "coverage": self._coverage_section(),
                "freshness": self._freshness_section(),
                "attribution": self._attribution_section(events),
            }
        ]

    def _coverage_section(self) -> Dict[str, Any]:
        observed_known = {p for p in self._observed if p in self._all_ports}
        blind = sorted(self._all_ports - observed_known)
        configured = self.layout is not None
        expected_blind = (
            sorted(self._all_ports - self._expected_covered) if configured else None
        )
        ports = []
        for u, v in sorted(self._observed):
            entry = self._observed[(u, v)]
            count = entry["count"]
            effective = (
                (entry["last"] - entry["first"]) / (count - 1) if count > 1 else None
            )
            ports.append(
                {
                    "u": u,
                    "v": v,
                    "observations": count,
                    "first": entry["first"],
                    "last": entry["last"],
                    "effective_interval": effective,
                    "pairs": [list(p) for p in sorted(entry["pairs"])],
                }
            )
        return {
            "total_ports": len(self._all_ports),
            "observed_ports": len(observed_known),
            "expected_ports": len(self._expected_covered) if configured else None,
            "blind": [list(p) for p in blind],
            "expected_blind": (
                [list(p) for p in expected_blind] if configured else None
            ),
            "matches_prediction": (blind == expected_blind) if configured else None,
            "ports": ports,
        }

    def _freshness_section(self) -> Dict[str, Any]:
        registers = []
        for key in sorted(self._refresh_counts):
            node, register = key
            digest = self._refresh_ages.get(key)
            registers.append(
                {
                    "node": node,
                    "register": register,
                    "refreshes": self._refresh_counts[key],
                    "age": digest.to_dict() if digest is not None else None,
                }
            )
        return {
            "registers": registers,
            "decision_age": (
                self.decision_age.to_dict() if self.decision_age.count else None
            ),
        }

    def _attribution_section(self, events: Optional[Any]) -> Dict[str, Any]:
        interval = self.probing_interval if self.probing_interval else 1.0
        samples = self._samples
        return {
            "interval": self.probing_interval,
            "decisions": self.decisions_seen,
            "samples": len(samples),
            "skipped": self.samples_skipped,
            "bins": _age_bins(samples, interval, _error_stats),
            "loss_windows": _window_split(
                samples, _loss_windows(events, interval), _error_stats
            ),
            "fault_windows": _window_split(
                samples, _fault_windows(events), _error_stats
            ),
        }

    def summary(self) -> Dict[str, Any]:
        """Compact digest for ``Observability.summary()``."""
        return {
            "layout": self.layout,
            "ports_observed": sum(
                1 for port in self._observed if port in self._all_ports
            ),
            "ports_total": len(self._all_ports),
            "registers": len(self._refresh_counts),
            "decisions": self.decisions_seen,
            "samples": len(self._samples),
        }


# -- offline report ----------------------------------------------------------


def _digest_line(data: Optional[Dict[str, Any]]) -> str:
    if not data:
        return "no samples"
    digest = QuantileDigest.from_dict(data)
    p50, p95 = digest.quantiles((0.5, 0.95))
    return (
        f"n={digest.count} p50={_fmt(p50)} p95={_fmt(p95)} "
        f"max={_fmt(digest.max)}"
    )


def render_telemetry_report(records: List[Dict[str, Any]]) -> str:
    """Plain-text telemetry-quality report over an ``--obs-out`` export.

    Groups ``kind: "telquality"`` records by run label, cross-checks the
    error-vs-age bins against the decision-audit records riding in the same
    file, and degrades to a placeholder on pre-telquality exports.
    """
    from repro.obs.audit import delay_error_stats

    telquality = [r for r in records if r.get("kind") == "telquality"]
    if not telquality:
        return (
            "no telemetry-quality records in this export\n"
            "(generate one with --telquality on compare/reproduce, e.g.\n"
            "  repro compare --figure fig5 --scale smoke --telquality "
            "--obs-out obs.jsonl)"
        )

    # Audit totals per run, for the bins-sum cross-check.
    audit_samples: Dict[Tuple, int] = {}
    for record in records:
        if record.get("kind") != "decision-audit" or record.get("metric") != "delay":
            continue
        key = _run_key(record)
        stats = delay_error_stats(record.get("candidates", []))
        audit_samples[key] = audit_samples.get(key, 0) + stats["samples"]

    lines: List[str] = []
    for record in telquality:
        key = _run_key(record)
        lines.append(f"run: {_run_title(key)}")
        lines.append(
            f"  layout: {record.get('layout')}  "
            f"probing interval: {_fmt(record.get('probing_interval'))}s  "
            f"probe pairs: {len(record.get('pairs') or [])}"
        )

        coverage = record.get("coverage") or {}
        total = coverage.get("total_ports") or 0
        observed = coverage.get("observed_ports") or 0
        pct = 100.0 * observed / total if total else 0.0
        lines.append(
            f"  coverage: {observed}/{total} directed ports observed "
            f"({pct:.0f}%)"
        )
        blind = coverage.get("blind") or []
        if blind:
            labels = ", ".join(f"{u}->{v}" for u, v in blind)
            lines.append(f"    blind spots ({len(blind)}): {labels}")
        else:
            lines.append("    blind spots: none")
        if coverage.get("matches_prediction") is not None:
            verdict = (
                "matches" if coverage["matches_prediction"] else "DIVERGES FROM"
            )
            expected = coverage.get("expected_blind") or []
            lines.append(
                f"    {verdict} the layout's predicted blind set "
                f"({len(expected)} ports)"
            )
        ports = coverage.get("ports") or []
        if ports:
            lines.append("    port               obs    eff-interval  probe-pairs")
            for port in ports:
                label = f"{port['u']}->{port['v']}"
                lines.append(
                    f"    {label:<18} {port['observations']:>4}    "
                    f"{_fmt(port.get('effective_interval')):>12}  "
                    f"{len(port.get('pairs') or [])}"
                )

        freshness = record.get("freshness") or {}
        lines.append(
            "  freshness: decision-time consulted-hop age "
            + _digest_line(freshness.get("decision_age"))
        )
        registers = freshness.get("registers") or []
        if registers:
            lines.append("    node     register  refreshes  refresh-age")
            for reg in registers:
                lines.append(
                    f"    {reg['node']:<8} {reg['register']:<8} "
                    f"{reg['refreshes']:>9}  {_digest_line(reg.get('age'))}"
                )

        attribution = record.get("attribution") or {}
        lines.append(
            f"  error vs telemetry age ({attribution.get('samples', 0)} samples "
            f"over {attribution.get('decisions', 0)} decisions, "
            f"{attribution.get('skipped', 0)} skipped):"
        )
        lines.append("    age bin          count  mean-error  mean-|error|")
        bin_total = 0
        for item in attribution.get("bins") or []:
            bin_total += item.get("count", 0)
            lines.append(
                f"    {item['label']:<15} {item['count']:>6}  "
                f"{_fmt(item.get('mean_error')):>10}  "
                f"{_fmt(item.get('mean_abs_error')):>12}"
            )
        expected_total = audit_samples.get(key)
        if expected_total is not None:
            check = "OK" if bin_total == expected_total else "MISMATCH"
            lines.append(
                f"    bin counts sum to {bin_total} vs {expected_total} "
                f"decision-audit samples: {check}"
            )
        for name, title in (
            ("loss_windows", "probe-loss windows"),
            ("fault_windows", "fault windows"),
        ):
            split = attribution.get(name) or {}
            inside = split.get("in") or {}
            outside = split.get("out") or {}
            lines.append(
                f"  {title}: {split.get('windows', 0)}  "
                f"in: {inside.get('count', 0)} samples "
                f"mae={_fmt(inside.get('mean_abs_error'))}  "
                f"out: {outside.get('count', 0)} samples "
                f"mae={_fmt(outside.get('mean_abs_error'))}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()

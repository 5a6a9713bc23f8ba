"""Counterfactual decision observatory: what did each decision *cost*?

The decision audit records, for every Algorithm-1 ranking query, each
candidate's estimated delay and — with the ground-truth reader attached —
its true path delay at decision time.  :mod:`repro.obs.audit` only ever
aggregates estimate-vs-truth *error*; this module re-walks the recorded
decisions and prices them:

* **per-decision regret** — ``truth_delay(chosen) - truth_delay(best)``,
  the latency the scheduler left on the table against the hindsight-optimal
  candidate of the same query;
* **counterfactual policies** — a pluggable :class:`CounterfactualPolicy`
  re-ranks every recorded candidate set; built-ins cover estimate-greedy
  (Algorithm 1 itself), seeded random, round-robin, bandwidth-first (the
  Section III-D bottleneck proxy), and the hindsight oracle (exactly zero
  regret by construction).  Each policy is scored by cumulative regret,
  win/tie/loss counts against the actual scheduler, and the number of
  decisions where it would have picked differently;
* **regret attribution** — actual regret binned by the stalest consulted
  telemetry hop age (reusing the telquality edge convention) and split by
  probe-loss and fault windows, so "how much delay did stale telemetry
  cost us" is a printed number.

The replay engine (:func:`replay_decisions`) is pure over exported
``kind: "decision-audit"`` dicts, so the same code produces the live run's
``kind: "whatif"`` record *and* the offline ``repro whatif-report``
cross-check — bit-exact across repeated invocations.  Collection is
read-only and opt-in (``--whatif``): no simulator events are scheduled,
existing records are untouched, and the single record appends at the very
end of the export, so a run with collection enabled produces a
byte-identical prefix.
"""

from __future__ import annotations

import math
import random as _random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.export import _fmt, _run_key, _run_title
from repro.obs.quantiles import QuantileDigest
from repro.obs.telquality import (
    _age_bins,
    _fault_windows,
    _hop_ages,
    _loss_windows,
    _window_split,
)
from repro.simnet.random import derive_seed

__all__ = [
    "CounterfactualPolicy",
    "EstimateGreedyPolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "BandwidthFirstPolicy",
    "OraclePolicy",
    "default_policies",
    "replay_decisions",
    "WhatIf",
    "render_whatif_report",
]

# Root for the random policy's per-decision seed derivation.  A constant,
# not the run seed: offline replay sees only the export, so the seeds must
# be reconstructible from the decision stream alone.
RANDOM_POLICY_ROOT = 0


def _truth_of(candidate: Dict[str, Any]) -> Optional[float]:
    """A candidate's usable ground-truth delay, or None."""
    truth = candidate.get("truth_delay")
    if isinstance(truth, (int, float)) and math.isfinite(truth):
        return float(truth)
    return None


class CounterfactualPolicy:
    """One alternative ranking policy replayed over recorded candidates.

    ``choose`` receives the decision's *eligible* candidate dicts (every
    entry has a finite ``truth_delay``; estimates/hops ride along when the
    run recorded them) and a context dict with ``index`` (0-based replayed
    decision index), ``requester_addr``, and ``time``.  It returns the
    ``server_addr`` of its pick.  Policies other than the oracle must rank
    from the same information the scheduler had — never from truth.
    """

    name = "?"

    def choose(
        self, candidates: Sequence[Dict[str, Any]], ctx: Dict[str, Any]
    ) -> Optional[int]:
        raise NotImplementedError


class EstimateGreedyPolicy(CounterfactualPolicy):
    """Algorithm 1 replayed: smallest recorded estimated delay wins.

    Baseline exports carry no ``estimated_delay``; the recorded rank value
    (hop count, random draw) stands in, so the replay reproduces whatever
    greedy-on-its-own-metric meant for that run.  Ties break by address.
    """

    name = "estimate-greedy"

    def choose(self, candidates, ctx):
        def score(cand: Dict[str, Any]) -> float:
            est = cand.get("estimated_delay")
            if not isinstance(est, (int, float)):
                est = cand.get("value")
            if isinstance(est, (int, float)) and math.isfinite(est):
                return float(est)
            return math.inf

        best = min(candidates, key=lambda c: (score(c), c.get("server_addr")))
        return best.get("server_addr")


class RandomPolicy(CounterfactualPolicy):
    """Uniform pick with a per-decision derived seed.

    The seed is ``derive_seed(RANDOM_POLICY_ROOT, "whatif:<index>")`` — a
    function of the replayed decision index only, so the same export
    replays to the same picks on any host, in any order of invocation.
    """

    name = "random"

    def choose(self, candidates, ctx):
        seed = derive_seed(RANDOM_POLICY_ROOT, f"whatif:{ctx['index']}")
        ordered = sorted(candidates, key=lambda c: c.get("server_addr"))
        pick = _random.Random(seed).randrange(len(ordered))
        return ordered[pick].get("server_addr")


class RoundRobinPolicy(CounterfactualPolicy):
    """Cycle through each requester's candidates in address order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor: Dict[Any, int] = {}

    def choose(self, candidates, ctx):
        requester = ctx.get("requester_addr")
        ordered = sorted(candidates, key=lambda c: c.get("server_addr"))
        index = self._cursor.get(requester, 0)
        self._cursor[requester] = index + 1
        return ordered[index % len(ordered)].get("server_addr")


class BandwidthFirstPolicy(CounterfactualPolicy):
    """Least-congested path first: smallest bottleneck qdepth wins.

    The Section III-D bandwidth estimate is monotone in the path's maximum
    queue depth, so the recorded per-hop ``qdepth`` terms reproduce its
    ordering without re-running the estimator.  Candidates without hop
    detail (baseline exports) fall back to the recorded rank value.
    """

    name = "bandwidth-first"

    def choose(self, candidates, ctx):
        def bottleneck(cand: Dict[str, Any]) -> Tuple[float, float]:
            hops = cand.get("hops")
            if hops:
                depths = [
                    float(h.get("qdepth"))
                    for h in hops
                    if isinstance(h.get("qdepth"), (int, float))
                ]
                if depths:
                    return (0.0, max(depths))
            value = cand.get("value")
            if isinstance(value, (int, float)) and math.isfinite(value):
                return (1.0, float(value))
            return (2.0, 0.0)

        best = min(
            candidates, key=lambda c: (bottleneck(c), c.get("server_addr"))
        )
        return best.get("server_addr")


class OraclePolicy(CounterfactualPolicy):
    """Hindsight-optimal: smallest true delay — zero regret by construction."""

    name = "oracle"

    def choose(self, candidates, ctx):
        best = min(candidates, key=lambda c: (_truth_of(c), c.get("server_addr")))
        return best.get("server_addr")


def default_policies() -> List[CounterfactualPolicy]:
    """Fresh built-in policy instances (round-robin is stateful)."""
    return [
        EstimateGreedyPolicy(),
        RandomPolicy(),
        RoundRobinPolicy(),
        BandwidthFirstPolicy(),
        OraclePolicy(),
    ]


# -- the replay engine -------------------------------------------------------


def _regret_stats(regrets: Sequence[float]) -> Dict[str, Any]:
    n = len(regrets)
    total = sum(regrets)
    return {
        "count": n,
        "regret_total": total,
        "regret_mean": total / n if n else None,
    }


def replay_decisions(
    decisions: Sequence[Dict[str, Any]],
    *,
    policies: Optional[Sequence[CounterfactualPolicy]] = None,
    probing_interval: Optional[float] = None,
    ages: Optional[Sequence[Optional[float]]] = None,
    events: Any = None,
) -> Dict[str, Any]:
    """Re-walk exported decision-audit dicts and price every decision.

    Only ``metric == "delay"`` decisions replay (bandwidth/raw queries have
    no single chosen candidate to price).  A decision is *replayed* when its
    chosen candidate and at least one alternative carry finite ground
    truth; anything else counts as skipped.  ``ages`` optionally supplies
    the stalest-consulted-hop age per delay decision (live collection,
    aligned with the decision order); decisions without one land in the
    ``unknown`` staleness bin.  ``events`` (a live EventLog or exported
    event dicts) supplies the probe-loss and fault windows.

    Pure and deterministic: the same inputs produce the same dict, bit for
    bit, so the live ``kind: "whatif"`` record and the offline
    ``whatif-report`` cross-check are the same computation.
    """
    if policies is None:
        policies = default_policies()
    interval = probing_interval if probing_interval else 1.0

    totals = {
        p.name: {"regret_total": 0.0, "wins": 0, "ties": 0, "losses": 0, "differs": 0}
        for p in policies
    }
    if len(totals) != len(policies):
        raise ValueError(f"duplicate policy names: {sorted(p.name for p in policies)}")

    samples: List[Tuple[float, float, Optional[float]]] = []  # (time, regret, age)
    regret_digest = QuantileDigest()
    seen = 0
    skipped = 0
    replayed = 0
    for decision in (d for d in decisions if d.get("metric") == "delay"):
        age = ages[seen] if ages is not None and seen < len(ages) else None
        seen += 1
        chosen = decision.get("chosen_addr")
        eligible = [
            c for c in (decision.get("candidates") or ()) if _truth_of(c) is not None
        ]
        truth = {c.get("server_addr"): _truth_of(c) for c in eligible}
        if chosen is None or chosen not in truth:
            skipped += 1
            continue
        best = min(truth.values())
        actual_regret = truth[chosen] - best
        ctx = {
            "index": replayed,
            "requester_addr": decision.get("requester_addr"),
            "time": decision.get("time"),
        }
        for policy in policies:
            pick = policy.choose(eligible, ctx)
            if pick not in truth:  # a policy bug, not a data gap: pin to actual
                pick = chosen
            score = totals[policy.name]
            score["regret_total"] += truth[pick] - best
            if truth[pick] < truth[chosen]:
                score["wins"] += 1
            elif truth[pick] == truth[chosen]:
                score["ties"] += 1
            else:
                score["losses"] += 1
            if pick != chosen:
                score["differs"] += 1
        replayed += 1
        regret_digest.add(actual_regret)
        samples.append((float(decision.get("time") or 0.0), actual_regret, age))

    actual_total = sum(r for _t, r, _age in samples)
    return {
        "interval": probing_interval,
        "decisions": seen,
        "replayed": replayed,
        "skipped": skipped,
        "actual": {
            "regret_total": actual_total,
            "regret_mean": actual_total / replayed if replayed else None,
            "regret_digest": regret_digest.to_dict() if regret_digest.count else None,
        },
        "policies": [
            {
                "policy": p.name,
                "regret_total": totals[p.name]["regret_total"],
                "regret_mean": (
                    totals[p.name]["regret_total"] / replayed if replayed else None
                ),
                "wins": totals[p.name]["wins"],
                "ties": totals[p.name]["ties"],
                "losses": totals[p.name]["losses"],
                "differs": totals[p.name]["differs"],
            }
            for p in policies
        ],
        "staleness": {"bins": _age_bins(samples, interval, _regret_stats)},
        "loss_windows": _window_split(
            samples, _loss_windows(events, interval), _regret_stats
        ),
        "fault_windows": _window_split(
            samples, _fault_windows(events), _regret_stats
        ),
    }


# -- live collection ---------------------------------------------------------


class WhatIf:
    """One run's counterfactual-replay state.

    The :class:`~repro.obs.Observability` hub owns an instance when
    ``--whatif`` was requested and fans its own hooks out to it:
    ``configure_probing`` supplies the probing interval (:meth:`configure`)
    and ``decision`` every audited delay ranking of every scheduler,
    network-aware *and* baselines (:meth:`decision`).  The hook only reads
    state the caller already computed: per-candidate truth from the audit
    dicts, hop ages from the telemetry store.  The exported record itself
    is produced by :func:`replay_decisions` over the audit's own
    snapshots, so the export and any offline replay of it agree by
    construction.
    """

    def __init__(self) -> None:
        self.probing_interval: Optional[float] = None
        self.decisions_seen = 0
        # One entry per audited delay decision: the stalest consulted-hop
        # telemetry age over *all* candidates (None when unknown), aligned
        # with the audit's delay-decision order for the snapshot replay.
        self._ages: List[Optional[float]] = []
        # Per-decision actual regret, for the regret_ceiling health series.
        self._regrets: List[float] = []
        self._regret_cursor = 0

    def configure(self, *, probing_interval: float) -> None:
        self.probing_interval = probing_interval

    # -- decision-side hook --------------------------------------------------

    def decision(
        self,
        now: float,
        store: Any,
        candidates: Sequence[Dict[str, Any]],
        chosen_addr: Optional[int],
    ) -> None:
        """Record one audited delay decision's staleness and regret.

        Called only for decisions the (bounded) audit actually stored, so
        the collected ages align one-to-one with the audit's delay
        decisions.  ``store`` is the scheduler's telemetry store, or None
        for baselines (which consult no telemetry — their age is unknown).
        """
        self.decisions_seen += 1
        ages = (
            [a for c in candidates for a in _hop_ages(now, store, c.get("path"))]
            if store is not None
            else []
        )
        self._ages.append(max(ages) if ages else None)
        truths = [t for t in (_truth_of(c) for c in candidates) if t is not None]
        chosen_truth = next(
            (
                _truth_of(c) for c in candidates
                if c.get("server_addr") == chosen_addr
            ),
            None,
        )
        if chosen_truth is not None and truths:
            self._regrets.append(chosen_truth - min(truths))

    # -- sampler input (regret_ceiling health rule) --------------------------

    def take_max_regret(self) -> Optional[float]:
        """Max per-decision regret since the previous tick, or None when no
        priced decision landed in the window."""
        window = self._regrets[self._regret_cursor:]
        self._regret_cursor = len(self._regrets)
        return max(window) if window else None

    # -- export --------------------------------------------------------------

    def snapshot_records(self, audit: Any, events: Any = None) -> List[Dict[str, Any]]:
        """The run's single ``kind: "whatif"`` record: the offline replay
        engine applied to the audit's own decision snapshots, joined with
        the live-collected hop ages and the run's event log."""
        decisions = [d.snapshot() for d in audit.decisions if d.metric == "delay"]
        body = replay_decisions(
            decisions,
            policies=default_policies(),
            probing_interval=self.probing_interval,
            ages=self._ages,
            events=events,
        )
        return [{"kind": "whatif", **body}]

    def summary(self) -> Dict[str, Any]:
        """Compact digest for ``Observability.summary()``."""
        return {
            "interval": self.probing_interval,
            "decisions": self.decisions_seen,
            "priced": len(self._regrets),
        }


# -- offline report ----------------------------------------------------------


def _policy_table(body: Dict[str, Any]) -> List[str]:
    lines = [
        "    policy            regret-total  regret-mean   wins   ties  losses  differs"
    ]
    actual = body.get("actual") or {}
    lines.append(
        f"    {'(actual)':<16} {_fmt(actual.get('regret_total')):>13} "
        f"{_fmt(actual.get('regret_mean')):>12}      -      -       -        -"
    )
    for row in body.get("policies") or []:
        lines.append(
            f"    {row.get('policy', '?'):<16} {_fmt(row.get('regret_total')):>13} "
            f"{_fmt(row.get('regret_mean')):>12} {_fmt(row.get('wins')):>6} "
            f"{_fmt(row.get('ties')):>6} {_fmt(row.get('losses')):>7} "
            f"{_fmt(row.get('differs')):>8}"
        )
    return lines


def _attribution_lines(body: Dict[str, Any]) -> List[str]:
    lines = ["  regret vs stalest consulted telemetry age:"]
    lines.append("    age bin          decisions  regret-total  regret-mean")
    bin_count = 0
    bin_regret = 0.0
    for item in (body.get("staleness") or {}).get("bins") or []:
        bin_count += item.get("count", 0)
        bin_regret += item.get("regret_total", 0.0)
        lines.append(
            f"    {item['label']:<15} {item.get('count', 0):>10}  "
            f"{_fmt(item.get('regret_total')):>12}  "
            f"{_fmt(item.get('regret_mean')):>11}"
        )
    actual_total = (body.get("actual") or {}).get("regret_total", 0.0)
    check = (
        "OK"
        if bin_count == body.get("replayed", 0) and bin_regret == actual_total
        else "MISMATCH"
    )
    lines.append(
        f"    bins: {bin_count} decisions, regret {_fmt(bin_regret)} "
        f"vs actual total {_fmt(actual_total)}: {check}"
    )
    for name, title in (
        ("loss_windows", "probe-loss windows"),
        ("fault_windows", "fault windows"),
    ):
        split = body.get(name) or {}
        inside = split.get("in") or {}
        outside = split.get("out") or {}
        lines.append(
            f"  {title}: {split.get('windows', 0)}  "
            f"in: {inside.get('count', 0)} decisions "
            f"regret={_fmt(inside.get('regret_total'))}  "
            f"out: {outside.get('count', 0)} decisions "
            f"regret={_fmt(outside.get('regret_total'))}"
        )
    return lines


def render_whatif_report(records: List[Dict[str, Any]]) -> str:
    """Plain-text counterfactual report over an ``--obs-out`` export.

    Groups ``kind: "whatif"`` records by run label and cross-checks each
    against an independent offline replay of the decision-audit records
    riding in the same file (regret totals, replayed/skipped counts, and
    the decision-audit delay-decision count), plus the telquality
    attribution totals when that observatory also ran.  Exports without a
    whatif record but with ground-truth-attached audits still replay
    offline (staleness is collected live, so it reads as unknown).
    """
    whatif = [r for r in records if r.get("kind") == "whatif"]
    audits: Dict[Tuple, List[Dict[str, Any]]] = {}
    events: Dict[Tuple, List[Dict[str, Any]]] = {}
    telquality: Dict[Tuple, Dict[str, Any]] = {}
    for record in records:
        kind = record.get("kind")
        if kind == "decision-audit":
            audits.setdefault(_run_key(record), []).append(record)
        elif kind == "event":
            events.setdefault(_run_key(record), []).append(record)
        elif kind == "telquality":
            telquality[_run_key(record)] = record

    lines: List[str] = []
    if not whatif:
        replayable = {
            key for key, decisions in audits.items()
            if any(
                _truth_of(c) is not None
                for d in decisions
                if d.get("metric") == "delay"
                for c in d.get("candidates", ())
            )
        }
        if not replayable:
            return (
                "no what-if records (and no ground-truth decision audits) in "
                "this export\n"
                "(generate one with --whatif on compare/reproduce, e.g.\n"
                "  repro compare --figure fig5 --scale smoke --whatif "
                "--obs-out obs.jsonl)"
            )
        lines.append(
            "no whatif record in this export; replaying decision audits "
            "offline (staleness unknown — ages are collected live)"
        )
        lines.append("")
        for key in sorted(replayable):
            body = replay_decisions(audits[key], events=events.get(key))
            lines.append(f"run: {_run_title(key)}")
            lines.append(
                f"  decisions: {body['decisions']} "
                f"({body['replayed']} replayed, {body['skipped']} skipped)"
            )
            lines.extend(_policy_table(body))
            lines.append("")
        return "\n".join(lines).rstrip()

    for record in whatif:
        key = _run_key(record)
        lines.append(f"run: {_run_title(key)}")
        lines.append(
            f"  probing interval: {_fmt(record.get('interval'))}s  "
            f"decisions: {record.get('decisions', 0)} "
            f"({record.get('replayed', 0)} replayed, "
            f"{record.get('skipped', 0)} skipped)"
        )
        lines.extend(_policy_table(record))

        oracle = next(
            (
                row for row in record.get("policies") or []
                if row.get("policy") == "oracle"
            ),
            None,
        )
        if oracle is not None:
            verdict = "OK" if oracle.get("regret_total") == 0.0 else "VIOLATION"
            lines.append(
                f"  oracle hindsight check: regret "
                f"{_fmt(oracle.get('regret_total'))} (must be 0): {verdict}"
            )

        # Independent offline replay of the same export's audit records —
        # same engine, no live state — must agree with the record exactly.
        run_audits = audits.get(key, [])
        n_audit = sum(1 for d in run_audits if d.get("metric") == "delay")
        offline = replay_decisions(
            run_audits,
            probing_interval=record.get("interval"),
            events=events.get(key),
        )
        totals_match = {
            row["policy"]: row["regret_total"] for row in offline["policies"]
        } == {
            row.get("policy"): row.get("regret_total")
            for row in record.get("policies") or []
        }
        counts_match = (
            offline["replayed"] == record.get("replayed")
            and offline["skipped"] == record.get("skipped")
            and record.get("decisions") == n_audit
        )
        check = "OK" if totals_match and counts_match else "MISMATCH"
        lines.append(
            f"  replay cross-check: {offline['replayed']} replayed + "
            f"{offline['skipped']} skipped = {offline['decisions']} vs "
            f"{n_audit} decision-audit delay decisions: {check}"
        )

        lines.extend(_attribution_lines(record))

        tq = telquality.get(key)
        if tq is None:
            lines.append("  telquality reconciliation: no telquality record in export")
        else:
            tq_decisions = (tq.get("attribution") or {}).get("decisions", 0)
            wi_decisions = record.get("decisions", 0)
            # Telquality's decision hook lives in the network-aware
            # scheduler only; baseline runs consult no telemetry store, so
            # every replayed age is unknown and telquality attributes zero
            # decisions.  That gap is structural, not a record error.
            bins = (record.get("staleness") or {}).get("bins") or []
            consulted = sum(
                b.get("count", 0) for b in bins if b.get("label") != "unknown"
            )
            if tq_decisions == 0 and wi_decisions and consulted == 0:
                lines.append(
                    "  telquality reconciliation: skipped (scheduler "
                    "consulted no telemetry; telquality attributed 0 "
                    "decisions)"
                )
            else:
                check = "OK" if wi_decisions == tq_decisions else "MISMATCH"
                lines.append(
                    f"  telquality reconciliation: {wi_decisions} "
                    f"whatif decisions vs {tq_decisions} telquality "
                    f"attribution decisions: {check}"
                )
        lines.append("")
    return "\n".join(lines).rstrip()

"""End-to-end: an experiment run with the observability hub attached."""

import pytest

from repro.edge.task import SizeClass
from repro.experiments.harness import (
    POLICY_AWARE,
    POLICY_NEAREST,
    POLICY_RANDOM,
    SMOKE_SCALE,
    ExperimentConfig,
    ExperimentScale,
    run_experiment,
)
from repro.obs import Observability

pytestmark = pytest.mark.slow

TINY = ExperimentScale(size_scale=0.05, total_tasks=6, mean_interarrival=0.4, time_scale=0.08)


def _run(policy=POLICY_AWARE, **obs_kw):
    obs = Observability(run={"policy": policy}, **obs_kw)
    config = ExperimentConfig(
        policy=policy, size_class=SizeClass.VS, scale=TINY, seed=11
    )
    res = run_experiment(config, obs=obs)
    return res, obs


class TestAttachedRun:
    def test_all_record_kinds_present(self):
        res, obs = _run(probe_sample=1)
        records = obs.snapshot_records()
        kinds = {r["kind"] for r in records}
        assert kinds == {"metric", "event", "decision-audit"}
        assert all(r["run"] == {"policy": POLICY_AWARE} for r in records)
        assert res.obs is obs

    def test_probe_traffic_counted(self):
        _, obs = _run(probe_sample=1)
        counts = obs.events.counts_by_kind()
        assert counts.get("probe_sent", 0) > 0
        assert counts.get("probe_received", 0) > 0
        sent = sum(
            inst.value
            for inst in obs.metrics.instruments()
            if inst.name == "probes_sent_total"
        )
        assert sent >= counts["probe_sent"] > 0

    def test_aware_decisions_carry_explanations_and_truth(self):
        _, obs = _run()
        decisions = obs.audit.snapshot()
        assert decisions, "aware policy should audit at least one decision"
        cand = decisions[0]["candidates"][0]
        assert "estimated_delay" in cand
        assert "truth_delay" in cand
        assert cand["hops"], "per-hop decomposition expected"
        hop = cand["hops"][0]
        assert {"u", "v", "link_delay", "qdepth", "queue_term"} <= set(hop)
        assert decisions[0]["chosen_addr"] is not None

    def test_baseline_decisions_have_truth_but_no_estimate(self):
        _, obs = _run(policy=POLICY_NEAREST)
        decisions = obs.audit.snapshot()
        assert decisions
        cand = decisions[0]["candidates"][0]
        assert "truth_delay" in cand
        assert "estimated_delay" not in cand

    def test_task_lifecycle_mirrored(self):
        res, obs = _run()
        transitions = obs.events.of_kind("task_transition")
        states = {e.fields["state"] for e in transitions}
        assert "submitted" in states
        assert "result_received" in states
        completed = [e for e in transitions if e.fields["state"] == "result_received"]
        assert len(completed) == res.tasks_completed
        # Mirrored events carry sim times, not the post-run clock value.
        assert all(0.0 <= e.time <= res.sim_time for e in transitions)

    def test_summary_is_sane(self):
        _, obs = _run()
        s = obs.summary()
        assert s["run"] == {"policy": POLICY_AWARE}
        assert s["instruments"] > 0
        assert s["events"] > 0
        assert s["decisions"] > 0
        assert s["delay_error"]["samples"] > 0


@pytest.mark.parametrize("policy", [POLICY_AWARE, POLICY_NEAREST, POLICY_RANDOM])
def test_decision_hook_gates_observatories_on_the_bounded_audit(policy):
    """The hub hands a decision to the observatories only when the bounded
    audit stored it and its metric is delay; telemetry quality also needs
    the scheduler's store, which baselines do not have."""
    obs = Observability(
        run={"policy": policy}, max_decisions=4, telquality=True, whatif=True
    )
    config = ExperimentConfig(
        policy=policy, size_class=SizeClass.VS, scale=SMOKE_SCALE, seed=3
    )
    run_experiment(config, obs=obs)
    assert obs.audit.dropped_decisions > 0, "the audit must overflow its cap"
    stored = sum(1 for d in obs.audit.decisions if d.metric == "delay")
    assert stored > 0
    records = obs.snapshot_records()
    (tq,) = [r for r in records if r["kind"] == "telquality"]
    (wi,) = [r for r in records if r["kind"] == "whatif"]
    # The record replays the audit; the summary counts the live hook calls.
    assert wi["decisions"] == obs.summary()["whatif"]["decisions"] == stored
    expected_tq = stored if policy == POLICY_AWARE else 0
    assert tq["attribution"]["decisions"] == expected_tq

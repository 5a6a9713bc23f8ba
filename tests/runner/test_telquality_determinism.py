"""Telquality acceptance: one record per run, full mesh coverage, bins
that sum to the audit, and no new simulator event (the engine profile's
per-handler counts stay exactly equal).

The invariants every observatory shares (serial == ``jobs=4`` == cached,
stamping, unperturbed outcomes) live in ``test_observatory_determinism.py``.
"""

import pytest

from repro.experiments.harness import SMOKE_SCALE, ExperimentConfig
from repro.runner import Runner, RunSpec

pytestmark = pytest.mark.slow


class TestTelqualityDeterminism:
    def test_payload_carries_one_telquality_record_per_run(self, observed_grid):
        for result in observed_grid("telquality"):
            records = result.obs_records()
            telquality = [r for r in records if r["kind"] == "telquality"]
            assert len(telquality) == 1
            # The record appends at the very end of the export.
            assert records[-1]["kind"] == "telquality"
            assert telquality[0]["layout"] == "mesh"

    def test_profile_handler_counts_unchanged(self):
        """Per-event-type handler counts are identical with and without
        collection — the BENCH_runner.json profile gate cannot move.

        Both sides carry obs labels, so the plain baseline runs with an
        Observability hub attached too and the delta isolates the
        telemetry-quality observatory's own hooks."""
        spec = RunSpec.from_config(
            ExperimentConfig(scale=SMOKE_SCALE, seed=3),
            obs_run={"policy": "aware"},
        )
        plain = Runner(jobs=1, profile=True).run([spec])[0]
        observed = Runner(jobs=1, profile=True, telquality=True).run([spec])[0]
        plain_types = {
            name: stats["count"]
            for name, stats in plain.profile()["by_type"].items()
        }
        observed_types = {
            name: stats["count"]
            for name, stats in observed.profile()["by_type"].items()
        }
        assert plain_types == observed_types

    def test_mesh_full_coverage_and_bins_sum_to_audit(self, observed_grid):
        """Acceptance: 100% directed-port coverage under mesh on the default
        12-switch topology, and the error-vs-age bin counts sum to the
        decision-audit's accepted delay samples."""
        from repro.obs.audit import delay_error_stats

        aware = observed_grid("telquality")[0]
        assert aware.spec.policy == "aware"
        records = aware.obs_records()
        (tq,) = [r for r in records if r["kind"] == "telquality"]
        coverage = tq["coverage"]
        assert coverage["observed_ports"] == coverage["total_ports"] == 32
        assert coverage["blind"] == []
        assert coverage["matches_prediction"] is True
        audit_total = sum(
            delay_error_stats(r.get("candidates", []))["samples"]
            for r in records
            if r["kind"] == "decision-audit" and r.get("metric") == "delay"
        )
        bin_total = sum(b["count"] for b in tq["attribution"]["bins"])
        assert bin_total == audit_total == tq["attribution"]["samples"]

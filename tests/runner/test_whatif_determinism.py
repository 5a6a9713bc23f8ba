"""What-if acceptance: replay is offline-reproducible.

Re-replaying the exported decision audits offline must reproduce the
exported ``whatif`` record's policy totals bit-exactly, with the oracle at
exactly zero regret, and dropping the record must leave the plain export.
The invariants every observatory shares (serial == ``jobs=4`` == cached,
stamping, unperturbed outcomes) live in ``test_observatory_determinism.py``.
"""

import pytest

from repro.runner import Runner, RunSpec

pytestmark = pytest.mark.slow


class TestWhatifDeterminism:
    def test_payload_carries_one_whatif_record_per_run(self, observed_grid):
        for result in observed_grid("whatif"):
            records = result.obs_records()
            whatif = [r for r in records if r["kind"] == "whatif"]
            assert len(whatif) == 1
            # The record appends at the very end of the export.
            assert records[-1]["kind"] == "whatif"
            assert whatif[0]["decisions"] == whatif[0]["replayed"] + whatif[0]["skipped"]

    def test_filtered_export_matches_plain_obs_records(self, observed_grid):
        """Dropping the whatif record yields the exact record stream a
        plain labeled run exports (the CI smoke proves the same with
        grep/cmp over the JSONL bytes)."""
        plain = Runner(jobs=1).run(
            [
                RunSpec.from_config(
                    s.spec.to_config(),
                    obs_run={
                        "policy": s.spec.policy,
                        "size_class": s.spec.size_class,
                        "seed": s.spec.seed,
                    },
                )
                for s in observed_grid("whatif")
            ]
        )
        for s, p in zip(observed_grid("whatif"), plain):
            filtered = [r for r in s.obs_records() if r["kind"] != "whatif"]
            assert filtered == p.obs_records(), s.spec.label()

    def test_offline_replay_matches_exported_record(self, observed_grid):
        """Acceptance: re-walking the exported decision audits with the
        same engine reproduces the exported policy totals bit-exactly, the
        oracle sits at exactly zero regret, and the staleness bins sum to
        the replayed decision count and the actual regret total."""
        from repro.runner.spec import canonical_json
        from repro.obs.whatif import replay_decisions

        for result in observed_grid("whatif"):
            records = result.obs_records()
            (wi,) = [r for r in records if r["kind"] == "whatif"]
            decisions = [
                r for r in records
                if r["kind"] == "decision-audit" and r.get("metric") == "delay"
            ]
            events = [r for r in records if r["kind"] == "event"]
            offline = replay_decisions(
                decisions, probing_interval=wi["interval"], events=events
            )
            assert offline["replayed"] == wi["replayed"]
            assert offline["skipped"] == wi["skipped"]
            assert canonical_json(offline["policies"]) == canonical_json(
                wi["policies"]
            ), result.spec.label()
            oracle = next(
                p for p in wi["policies"] if p["policy"] == "oracle"
            )
            assert oracle["regret_total"] == 0.0
            bins = wi["staleness"]["bins"]
            assert sum(b["count"] for b in bins) == wi["replayed"]
            assert sum(b["regret_total"] for b in bins) == pytest.approx(
                wi["actual"]["regret_total"]
            )
            # Replaying twice is bit-exact.
            again = replay_decisions(
                decisions, probing_interval=wi["interval"], events=events
            )
            assert canonical_json(offline) == canonical_json(again)

    def test_staleness_bins_reconcile_with_telquality(self, smoke_grid):
        """Both observatories on one run gate the same decisions: the
        whatif record's delay-decision count equals the telquality
        attribution's."""
        result = Runner(jobs=1, telquality=True, whatif=True).run(smoke_grid[:1])[0]
        records = result.obs_records()
        (wi,) = [r for r in records if r["kind"] == "whatif"]
        (tq,) = [r for r in records if r["kind"] == "telquality"]
        assert wi["decisions"] == tq["attribution"]["decisions"]
        # And the whatif record still appends after telquality.
        kinds = [r["kind"] for r in records]
        assert kinds.index("whatif") > kinds.index("telquality")

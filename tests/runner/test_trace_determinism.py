"""Trace acceptance: the span tree and the critical-path invariant.

Span trees must be well-formed (acyclic, parents present), and every
completed task's segment durations must sum to its measured end-to-end
delay.  The invariants every observatory shares (serial == ``jobs=4`` ==
cached, stamping, unperturbed outcomes) live in
``test_observatory_determinism.py``.
"""

import json

import pytest

from repro.obs.tracing import SEGMENT_NAMES
from repro.runner import Runner

pytestmark = pytest.mark.slow


class TestTraceDeterminism:
    def test_plain_run_has_no_trace_records(self, smoke_grid):
        result = Runner(jobs=1).run(smoke_grid[:1])[0]
        assert result.trace_records() == []
        assert "trace_records" not in json.loads(result.payload_json())

    def test_runner_collects_trace_records(self, smoke_grid):
        runner = Runner(jobs=1, trace=True)
        runner.run(smoke_grid[:2])
        assert len(runner.trace_records) > 0
        assert all(r["kind"] == "span" for r in runner.trace_records)
        assert all("run" in r for r in runner.trace_records)


class TestSpanTreeInvariants:
    @pytest.fixture(scope="class")
    def spans(self, observed_grid):
        return [r for res in observed_grid("trace") for r in res.trace_records()]

    def test_parent_links_complete_and_acyclic(self, spans):
        by_trace = {}
        for span in spans:
            by_trace.setdefault((tuple(sorted(span["run"].items())),
                                 span["trace_id"]), []).append(span)
        assert by_trace
        for trace_spans in by_trace.values():
            ids = {s["span_id"] for s in trace_spans}
            parents = {s["span_id"]: s["parent_id"] for s in trace_spans}
            roots = [s for s in trace_spans if s["parent_id"] is None]
            assert len(roots) == 1
            for span in trace_spans:
                # Every non-root parent exists within the same trace.
                if span["parent_id"] is not None:
                    assert span["parent_id"] in ids
                # Walking up terminates at the root (no cycles).
                seen, cur = set(), span["span_id"]
                while cur is not None:
                    assert cur not in seen
                    seen.add(cur)
                    cur = parents[cur]

    def test_child_spans_within_parent_interval(self, spans):
        # Span ids restart per run, so the lookup key must include the run
        # label alongside the trace id.
        def key(s, span_id):
            return (tuple(sorted(s["run"].items())), s["trace_id"], span_id)

        by_id = {key(s, s["span_id"]): s for s in spans}
        for span in spans:
            if span["parent_id"] is None:
                continue
            parent = by_id[key(span, span["parent_id"])]
            assert span["start"] >= parent["start"] - 1e-9
            assert span["end"] <= parent["end"] + 1e-9

    def test_every_completed_task_decomposes_exactly(self, spans):
        """The headline acceptance criterion: for every completed task the
        five segment durations sum to the measured end-to-end delay."""
        roots = [
            s for s in spans
            if s["name"] == "task" and not s["attributes"]["failed"]
        ]
        decomposed = [
            s for s in roots if s["attributes"]["segments"] is not None
        ]
        assert decomposed, "no completed task produced a decomposition"
        for root in decomposed:
            segments = root["attributes"]["segments"]
            assert set(segments) == set(SEGMENT_NAMES)
            assert all(v >= 0.0 for v in segments.values())
            assert sum(segments.values()) == pytest.approx(
                root["attributes"]["end_to_end"], abs=1e-9
            )

    def test_probe_traces_present_and_sampled(self, spans):
        probes = [s for s in spans if s["name"] == "probe"]
        assert probes
        # Sampled by seq: every traced probe's seq satisfies the stride.
        assert all(
            (s["attributes"]["seq"] - 1) % 25 == 0 for s in probes
        )
        hops = [s for s in spans if s["name"] == "hop"]
        assert hops
        assert all(s["parent_id"] is not None for s in hops)

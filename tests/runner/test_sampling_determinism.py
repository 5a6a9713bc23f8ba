"""Sampling acceptance: sampled grids export time series, and the
dashboard renders them identically whatever executed the grid.

The invariants every observatory shares (serial == ``jobs=4`` == cached,
stamping, unperturbed outcomes) live in ``test_observatory_determinism.py``.
"""

import json

import pytest

from repro.obs.dashboard import render_dashboard
from repro.runner import Runner

pytestmark = pytest.mark.slow


class TestSamplingDeterminism:
    def test_plain_run_has_no_obs_records(self, smoke_grid):
        result = Runner(jobs=1).run(smoke_grid[:1])[0]
        assert "obs_records" not in json.loads(result.payload_json())

    def test_sampled_payload_contains_timeseries_records(self, observed_grid):
        records = observed_grid("sampling")[0].obs_records()
        kinds = {r["kind"] for r in records}
        assert "timeseries" in kinds
        names = {r["name"] for r in records if r["kind"] == "timeseries"}
        assert {"link_utilization", "queue_depth", "server_running"} <= names

    def test_dashboard_renders_identically_across_executors(self, observed_grid):
        serial = observed_grid("sampling")
        parallel = observed_grid("sampling", jobs=4)
        serial_records = [r for res in serial for r in res.obs_records()]
        parallel_records = [r for res in parallel for r in res.obs_records()]
        assert render_dashboard(serial_records) == render_dashboard(parallel_records)

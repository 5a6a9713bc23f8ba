"""Fast path vs oracle path: byte-identical exports on the fig5 smoke grid.

``REPRO_SLOWPATH=1`` disables the compiled per-(switch, packet-class)
forwarding closures, leaving the staged ``PipelineContext`` pipeline as the
oracle.  The tentpole acceptance bar: the full Fig. 5 smoke grid must
export byte-identical payloads either way.  The env var is read at network
build time, so flipping it between serial in-process runs is enough.
"""

import pytest

from repro.p4.per_packet_int import PerPacketIntProgram
from repro.runner import Runner
from repro.runner.bench import bench_grid_specs

pytestmark = pytest.mark.slow


def _one_switch_network():
    from repro.simnet.engine import Simulator
    from repro.simnet.random import RandomStreams
    from repro.simnet.topology import Network
    from repro.units import mbps, ms

    net = Network(Simulator(), RandomStreams(0))
    net.add_host("h1")
    net.add_host("h2")
    net.add_switch("s01")
    net.attach_host("h1", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
    net.attach_host("h2", "s01", fabric_rate_bps=mbps(20), delay=ms(10))
    net.finalize()
    return net


@pytest.fixture(scope="module")
def fast_results():
    return Runner(jobs=1).run(bench_grid_specs("smoke"))


class TestSlowpathEquivalence:
    def test_fig5_smoke_grid_byte_identical(self, fast_results, monkeypatch):
        monkeypatch.setenv("REPRO_SLOWPATH", "1")
        slow = Runner(jobs=1).run(bench_grid_specs("smoke"))
        assert len(slow) == len(fast_results) == 12
        for f, s in zip(fast_results, slow):
            assert f.payload_json() == s.payload_json(), f.spec.label()

    def test_fast_path_engages_by_default(self, monkeypatch):
        """Guard against silently testing slow-vs-slow: a default-built
        switch carries compiled closures."""
        monkeypatch.delenv("REPRO_SLOWPATH", raising=False)
        switch = _one_switch_network().switch("s01")
        assert switch._fast_ingress is not None
        assert switch._fast_egress is not None

    def test_slowpath_disables_closures(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOWPATH", "1")
        switch = _one_switch_network().switch("s01")
        assert switch._fast_ingress is None
        assert switch._fast_egress is None


class TestCompileRefusals:
    def test_per_packet_int_stays_on_oracle_path(self):
        """PerPacketIntProgram overrides ingress/egress; compile() must
        refuse it so the staged path remains authoritative."""
        assert PerPacketIntProgram().compile() is None

    def test_unknown_subclass_override_refused(self):
        from repro.p4.int_program import IntTelemetryProgram

        class Exotic(IntTelemetryProgram):
            def egress(self, ctx):  # pragma: no cover - never invoked
                super().egress(ctx)

        assert Exotic().compile() is None

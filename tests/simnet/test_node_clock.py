"""Node clocks (NTP model) and service-time jitter."""

import numpy as np
import pytest

from repro.simnet.node import Clock, Node
from repro.simnet.random import RandomStreams


class TestClock:
    def test_perfect_clock_reads_sim_time(self, sim):
        clock = Clock(sim)
        sim.schedule(1.5, lambda: None)
        sim.run()
        assert clock.read() == 1.5

    def test_offset_applied(self, sim):
        clock = Clock(sim, offset=0.002)
        assert clock.read() == pytest.approx(0.002)

    def test_jitter_varies_readings(self, sim):
        rng = RandomStreams(1).get("c")
        clock = Clock(sim, jitter_std=1e-4, rng=rng)
        readings = {clock.read() for _ in range(10)}
        assert len(readings) > 1

    def test_jitter_centered_on_true_time(self, sim):
        rng = RandomStreams(1).get("c")
        clock = Clock(sim, offset=0.0, jitter_std=1e-4, rng=rng)
        samples = [clock.read() for _ in range(2000)]
        assert np.mean(samples) == pytest.approx(0.0, abs=2e-5)
        assert np.std(samples) == pytest.approx(1e-4, rel=0.2)

    def test_jitter_requires_rng(self, sim):
        with pytest.raises(ValueError):
            Clock(sim, jitter_std=1e-4)

    def test_negative_jitter_rejected(self, sim):
        with pytest.raises(ValueError):
            Clock(sim, jitter_std=-1.0)


class TestServiceJitter:
    def test_default_deterministic(self, sim):
        node = Node(sim, "n", 1)
        assert node.service_time_factor() == 1.0

    def test_jitter_bounded_and_mean_preserving(self, sim):
        node = Node(sim, "n", 1)
        node.set_service_jitter(0.15, RandomStreams(2).get("s"))
        factors = [node.service_time_factor() for _ in range(5000)]
        assert all(0.85 <= f <= 1.15 for f in factors)
        assert np.mean(factors) == pytest.approx(1.0, abs=0.01)

    def test_block_draws_match_scalar_draws(self, sim):
        """Service factors and clock noise are prefetched in blocks; across
        several refills they equal per-call scalar draws from the same
        stream, and leave the stream in the same state at a block edge."""
        node = Node(sim, "n", 1)
        node.set_service_jitter(0.15, RandomStreams(4).get("s"))
        clock = Clock(sim, jitter_std=1e-4, rng=RandomStreams(4).get("c"))
        scalar_s = RandomStreams(4).get("s")
        scalar_c = RandomStreams(4).get("c")
        assert [node.service_time_factor() for _ in range(1024)] == [
            1.0 + 0.15 * (2.0 * scalar_s.random() - 1.0) for _ in range(1024)
        ]
        assert [clock.read() for _ in range(512)] == [
            scalar_c.normal(0.0, 1e-4) for _ in range(512)
        ]
        assert node._service_rng.random() == scalar_s.random()
        assert clock._rng.normal() == scalar_c.normal()

    def test_invalid_jitter_rejected(self, sim):
        node = Node(sim, "n", 1)
        rng = RandomStreams(0).get("s")
        with pytest.raises(ValueError):
            node.set_service_jitter(-0.1, rng)
        with pytest.raises(ValueError):
            node.set_service_jitter(1.0, rng)

    def test_network_applies_jitter_to_switches_only(self, sim, streams):
        from repro.simnet.topology import Network

        net = Network(sim, streams, switch_service_jitter=0.15)
        host = net.add_host("h")
        switch = net.add_switch("s01")
        assert host.service_jitter == 0.0
        assert switch.service_jitter == 0.15

    def test_network_jitter_disabled(self, sim, streams):
        from repro.simnet.topology import Network

        net = Network(sim, streams, switch_service_jitter=0.0)
        switch = net.add_switch("s01")
        assert switch.service_jitter == 0.0

    def test_clocks_deterministic_per_seed(self, sim):
        from repro.simnet.topology import Network

        def offsets(seed):
            net = Network(sim, RandomStreams(seed))
            return [net.add_switch(f"s{i:02d}").clock.offset for i in range(1, 4)]

        # Same seed, fresh networks: identical clock errors.
        assert offsets(5) == offsets(5)

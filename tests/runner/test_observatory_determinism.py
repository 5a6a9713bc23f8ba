"""Observatory determinism: every observatory is read-only and byte-stable.

The invariants each observatory flag must keep, checked once per flag
(``sample_interval``, ``trace``, ``telquality``, ``whatif``) against one
shared plain grid: ``jobs=4`` payloads equal serial, a cache round trip
reproduces the payload, the instrumented spec hash differs from the plain
one and stamping is idempotent, and the payload minus the observatory's
exports equals the plain payload.  Each observatory's own acceptance
tests live in ``test_<observatory>_determinism.py``.
"""

import json

import pytest

from repro.runner import ResultCache, Runner

from tests.runner.conftest import OBSERVATORIES

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def plain_grid(smoke_grid):
    return Runner(jobs=1).run(smoke_grid)


@pytest.mark.parametrize("name", sorted(OBSERVATORIES))
class TestObservatory:
    def test_jobs4_identical(self, name, observed_grid):
        serial = observed_grid(name)
        parallel = observed_grid(name, jobs=4)
        assert len(parallel) == len(serial) == 4
        for s, p in zip(serial, parallel):
            assert s.payload_json() == p.payload_json(), s.spec.label()

    def test_cache_round_trip(self, name, tmp_path, smoke_grid, observed_grid):
        cache = ResultCache(str(tmp_path))
        flags = OBSERVATORIES[name]
        first = Runner(jobs=1, cache=cache, **flags).run(smoke_grid[:1])[0]
        hit = Runner(jobs=1, cache=cache, **flags).run(smoke_grid[:1])[0]
        assert hit.from_cache
        assert hit.payload_json() == first.payload_json()
        assert hit.payload_json() == observed_grid(name)[0].payload_json()

    def test_stamping(self, name, smoke_grid):
        spec = smoke_grid[0]
        observed = spec.instrumented(**OBSERVATORIES[name])
        assert observed.content_hash() != spec.content_hash()
        # Stamping is idempotent: an already-stamped spec comes back as is
        # (a sampled spec keeps its own interval).
        assert observed.instrumented(**OBSERVATORIES[name]) is observed

    def test_outcomes_unperturbed(self, name, plain_grid, observed_grid):
        """The payload minus the observatory's exports equals the plain
        payload: the hooks read state and never mutate it.  Sampling's
        periodic timer events are themselves counted by the simulator, so
        only its events_executed may grow."""
        for s, p in zip(observed_grid(name), plain_grid):
            observed = json.loads(s.payload_json())
            plain = json.loads(p.payload_json())
            for payload in (observed, plain):
                payload.pop("obs_records", None)
                payload.pop("trace_records", None)
            if name == "sampling":
                assert observed.pop("events_executed") >= plain.pop(
                    "events_executed"
                )
            assert observed == plain, s.spec.label()

"""Stable-store and storage-timeline tests."""

import pytest

from repro.events import figure1_pattern
from repro.recovery import global_recovery_floor
from repro.sim import Simulation, SimulationConfig
from repro.storage import StableStore, StorageError, simulate_storage
from repro.types import CheckpointId as C
from repro.workloads import RandomUniformWorkload


class TestStableStore:
    def test_write_and_usage(self):
        s = StableStore(0)
        s.write_checkpoint(C(0, 0), 100, now=0.0)
        s.log.add(5)
        # The store's counters price checkpoints; log entries are priced
        # by the timeline, per entry.
        assert s.usage_bytes() == 100
        assert s.bytes_written == 100
        assert 5 in s.log and len(s.log) == 1

    def test_peak_tracks_high_water(self):
        s = StableStore(0)
        s.write_checkpoint(C(0, 0), 100, now=0.0)
        s.write_checkpoint(C(0, 1), 100, now=1.0)
        s.discard_checkpoint(0)
        assert s.usage_bytes() == 100
        assert s.peak_bytes == 200

    def test_double_write_rejected(self):
        s = StableStore(0)
        s.write_checkpoint(C(0, 0), 1, now=0.0)
        with pytest.raises(StorageError):
            s.write_checkpoint(C(0, 0), 1, now=1.0)

    def test_foreign_checkpoint_rejected(self):
        with pytest.raises(StorageError):
            StableStore(0).write_checkpoint(C(1, 0), 1, now=0.0)

    def test_discard_unknown_rejected(self):
        with pytest.raises(StorageError):
            StableStore(0).discard_checkpoint(7)


def simulated_history(protocol="bhmr", seed=1):
    sim = Simulation(
        RandomUniformWorkload(send_rate=2.0),
        SimulationConfig(n=3, duration=50.0, seed=seed, basic_rate=0.4),
    )
    return sim.run(protocol).history


class TestTimeline:
    def test_no_gc_grows_monotonically(self):
        report = simulate_storage(figure1_pattern(), gc_interval=None)
        values = [b for _, b in report.samples]
        assert values == sorted(values)
        assert report.bytes_reclaimed == 0 and report.gc_runs == 0
        assert report.final_bytes == report.peak_bytes == report.bytes_written

    def test_gc_reclaims_storage(self):
        h = simulated_history()
        no_gc = simulate_storage(h, gc_interval=None)
        with_gc = simulate_storage(h, gc_interval=10.0)
        assert with_gc.gc_runs >= 4
        assert with_gc.bytes_reclaimed > 0
        assert with_gc.final_bytes < no_gc.final_bytes
        assert with_gc.peak_bytes <= no_gc.peak_bytes
        # Writes are policy-independent.
        assert with_gc.bytes_written == no_gc.bytes_written

    def test_gc_never_discards_at_or_above_floor(self):
        h = simulated_history()
        report = simulate_storage(h, gc_interval=10.0)
        floor = global_recovery_floor(h)
        for pid, store in report.stores.items():
            kept = store.checkpoint_indices()
            # Everything from the final floor upward is still there.
            for index in range(floor.cut[pid], h.last_index(pid) + 1):
                assert index in kept

    def test_message_logging_toggle(self):
        h = figure1_pattern()
        with_logs = simulate_storage(h, log_messages=True)
        without = simulate_storage(h, log_messages=False)
        assert with_logs.bytes_written > without.bytes_written
        assert without.bytes_written == h.num_checkpoints() * 4096

    def test_sample_times_non_decreasing(self):
        report = simulate_storage(simulated_history(), gc_interval=15.0)
        times = [t for t, _ in report.samples]
        assert times == sorted(times)

    def test_custom_sizes(self):
        h = figure1_pattern()
        report = simulate_storage(
            h, checkpoint_bytes=10, message_bytes=1, log_messages=True
        )
        assert report.bytes_written == h.num_checkpoints() * 10 + h.num_messages()


@pytest.mark.parametrize("protocol", ["independent", "bcs", "bhmr", "fdas"])
def test_gc_keeps_every_message_crossing_the_floor(protocol):
    """Log GC drops an entry only when it is at or below the floor on
    both sides.  A floor only rises, so a message crossing the final
    floor crossed every earlier GC floor too: checking the end state
    covers every GC run.  (The sender-side-only rule dropped 11 / 4 /
    4 / 5 such entries on this run.)"""
    sim = Simulation(
        RandomUniformWorkload(send_rate=2.0),
        SimulationConfig(n=4, duration=60.0, seed=3, basic_rate=0.3),
    )
    h = sim.run(protocol).history
    report = simulate_storage(h, gc_interval=10.0)
    assert report.bytes_reclaimed > 0
    floor = global_recovery_floor(h).cut
    crossing = [
        m
        for m in h.messages.values()
        if h.send_interval(m) <= floor[m.src]
        and (not m.delivered or h.deliver_interval(m) > floor[m.dst])
    ]
    assert crossing
    lost = [m.msg_id for m in crossing if m.msg_id not in report.stores[m.src].log]
    assert lost == []

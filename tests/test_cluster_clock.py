"""Virtual clocks (the transport's float64 clock vector) and the discrete-event queue."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, EventQueue, Transport


def transport() -> Transport:
    return Transport(ClusterSpec(num_nodes=2, workers_per_node=2))


class TestVirtualClock:
    """``Transport.clocks``: one float64 entry per rank."""

    def test_starts_at_zero(self):
        tr = transport()
        assert tr.clocks.dtype == np.float64
        assert tr.clocks.tolist() == [0.0] * 4
        assert type(tr.now(3)) is float and type(tr.max_time()) is float

    def test_advance(self):
        tr = transport()
        tr.compute(1, 1.5)
        tr.compute(1, 0.5)
        assert tr.clocks.tolist() == [0.0, 2.0, 0.0, 0.0]

    def test_advance_negative_raises(self):
        tr = transport()
        with pytest.raises(ValueError):
            tr.compute(0, -1.0)
        assert tr.clocks.tolist() == [0.0] * 4

    def test_advance_to_is_monotone(self):
        tr = transport()
        tr.compute(0, 5.0)
        assert tr.barrier([0, 1]) == 5.0
        assert tr.clocks.tolist() == [5.0, 5.0, 0.0, 0.0]
        # Rank 1 receives at ~1 ms and rank 0 sends from 5.0 s: neither the
        # barrier nor the round moves a clock backwards.
        tr.exchange_sized([(2, 1, 1.0, None), (0, 3, 1.0, None)])
        assert tr.now(0) > 5.0 and tr.now(1) == 5.0 and tr.now(3) > 5.0
        assert 0.0 < tr.now(2) < 5.0

    def test_reset(self):
        tr = transport()
        tr.compute(2, 5.0)
        tr.exchange_sized([(2, 0, 64.0, None)])
        tr.reset()
        assert tr.clocks.tolist() == [0.0] * 4
        assert tr.stats.per_rank_sent_bytes.tolist() == [0.0] * 4
        assert tr.stats.rounds == 0


class TestEventQueue:
    def test_runs_in_time_order(self):
        q = EventQueue()
        seen = []
        q.schedule(2.0, lambda: seen.append("b"))
        q.schedule(1.0, lambda: seen.append("a"))
        q.schedule(3.0, lambda: seen.append("c"))
        q.run()
        assert seen == ["a", "b", "c"]
        assert q.now == 3.0

    def test_ties_break_by_insertion(self):
        q = EventQueue()
        seen = []
        q.schedule(1.0, lambda: seen.append(1))
        q.schedule(1.0, lambda: seen.append(2))
        q.run()
        assert seen == [1, 2]

    def test_schedule_in_past_raises(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.run()
        with pytest.raises(ValueError):
            q.schedule(0.5, lambda: None)

    def test_schedule_after(self):
        q = EventQueue()
        times = []
        q.schedule(1.0, lambda: q.schedule_after(2.0, lambda: times.append(q.now)))
        q.run()
        assert times == [3.0]

    def test_events_can_spawn_events(self):
        q = EventQueue()
        count = [0]

        def recur():
            count[0] += 1
            if count[0] < 5:
                q.schedule_after(1.0, recur)

        q.schedule(0.0, recur)
        q.run()
        assert count[0] == 5
        assert q.processed == 5

    def test_event_budget_guards_loops(self):
        q = EventQueue()

        def forever():
            q.schedule_after(0.0, forever)

        q.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            q.run(max_events=100)

    def test_step_returns_none_when_empty(self):
        assert EventQueue().step() is None

    def test_step_returns_label(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None, label="x")
        assert q.step() == (1.0, "x")

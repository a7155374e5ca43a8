"""Virtual clocks: the transport's float64 clock vector."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, Transport


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

"""Transport: delivery, time accounting, NIC contention, traffic stats."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, Link, Message, Transport, payload_nbytes
from repro.cluster.netmodel import TCP_10G, TCP_100G


def flat_cluster(**kw) -> ClusterSpec:
    defaults = dict(
        num_nodes=2,
        workers_per_node=2,
        inter_node=Link(latency_s=1e-3, bandwidth_Bps=1e9, ramp_bytes=0, name="tcp-test"),
        intra_node=Link(latency_s=1e-6, bandwidth_Bps=100e9, ramp_bytes=0, name="nv-test"),
    )
    defaults.update(kw)
    return ClusterSpec(**defaults)


class TestPayloadSize:
    def test_ndarray(self):
        assert payload_nbytes(np.zeros(10)) == 80.0

    def test_wire_bytes_attr(self):
        class Stub:
            wire_bytes = 123.0

        assert payload_nbytes(Stub()) == 123.0

    def test_tuple_recurses(self):
        # 8 B container header + 8 B scalar index + 32 B array
        assert payload_nbytes((1, np.zeros(4))) == 8.0 + 8.0 + 32.0

    def test_scalar_default(self):
        assert payload_nbytes("ctl") == 8.0

    def test_empty_container_not_free(self):
        # An empty envelope still costs its container header — it used to
        # price at 0 bytes while a bare scalar cost 8.
        assert payload_nbytes(()) == 8.0
        assert payload_nbytes([]) == 8.0

    def test_nested_containers(self):
        # Each nesting level charges its own header.
        assert payload_nbytes((1, (2, 3))) == 8.0 + 8.0 + (8.0 + 8.0 + 8.0)
        assert payload_nbytes([[], ()]) == 8.0 + 8.0 + 8.0
        assert payload_nbytes([np.zeros(2), [np.zeros(1)]]) == 8.0 + 16.0 + (8.0 + 8.0)

    def test_wire_bytes_wins_inside_container(self):
        class Stub:
            wire_bytes = 100.0

        assert payload_nbytes((0, Stub())) == 8.0 + 8.0 + 100.0


class TestMessage:
    def test_auto_size(self):
        m = Message(0, 1, np.zeros(8))
        assert m.nbytes == 64.0

    def test_self_message_rejected(self):
        with pytest.raises(ValueError):
            Message(2, 2, np.zeros(1))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(0, 1, None, nbytes=-1)


class TestDelivery:
    def test_payload_reaches_receiver(self):
        tr = Transport(flat_cluster())
        inbox = tr.exchange([Message(0, 3, np.arange(4.0))])
        np.testing.assert_array_equal(inbox[3][0].payload, np.arange(4.0))

    def test_receiver_clock_includes_latency_and_wire(self):
        tr = Transport(flat_cluster())
        nbytes = 1e6  # 1 MB over 1 GB/s = 1 ms wire
        tr.exchange([Message(0, 2, None, nbytes=nbytes)])
        assert tr.now(2) == pytest.approx(1e-3 + 1e-3)

    def test_sender_clock_advances_by_wire_only(self):
        tr = Transport(flat_cluster())
        tr.exchange([Message(0, 2, None, nbytes=1e6)])
        assert tr.now(0) == pytest.approx(1e-3)

    def test_uninvolved_ranks_untouched(self):
        tr = Transport(flat_cluster())
        tr.exchange([Message(0, 2, None, nbytes=1e6)])
        assert tr.now(1) == 0.0
        assert tr.now(3) == 0.0

    def test_intra_node_uses_fast_link(self):
        tr = Transport(flat_cluster())
        tr.exchange([Message(0, 1, None, nbytes=1e6)])
        assert tr.now(1) < 1e-4  # NVLink, not the 1 ms TCP latency


class TestNICContention:
    def test_inter_node_shares_per_node_nic(self):
        # Two workers on node 0 each send 1 MB to node 1: the node NIC
        # serializes them, so the second arrival is ~1 wire-time later.
        tr = Transport(flat_cluster())
        tr.exchange(
            [Message(0, 2, None, nbytes=1e6), Message(1, 3, None, nbytes=1e6)]
        )
        late = max(tr.now(2), tr.now(3))
        assert late == pytest.approx(2e-3 + 1e-3, rel=0.01)

    def test_intra_node_links_are_independent(self):
        spec = flat_cluster(workers_per_node=4, num_nodes=1)
        tr = Transport(spec)
        tr.exchange(
            [Message(0, 1, None, nbytes=1e6), Message(2, 3, None, nbytes=1e6)]
        )
        # Different sender/receiver pairs on NVLink do not serialize.
        assert abs(tr.now(1) - tr.now(3)) < 1e-9

    def test_ingress_serializes_at_receiver_node(self):
        spec = ClusterSpec(
            num_nodes=3,
            workers_per_node=1,
            inter_node=Link(latency_s=0, bandwidth_Bps=1e9, ramp_bytes=0, name="t"),
        )
        tr = Transport(spec)
        tr.exchange(
            [Message(0, 2, None, nbytes=1e6), Message(1, 2, None, nbytes=1e6)]
        )
        # Two 1 ms messages into one NIC: total ~2 ms.
        assert tr.now(2) == pytest.approx(2e-3, rel=0.01)


class TestTimeUtilities:
    def test_compute_charges_one_rank(self):
        tr = Transport(flat_cluster())
        tr.compute(1, 0.5)
        assert tr.now(1) == 0.5
        assert tr.now(0) == 0.0

    def test_compute_respects_straggler(self):
        spec = flat_cluster(straggler_slowdown={1: 2.0})
        tr = Transport(spec)
        tr.compute(1, 0.5)
        assert tr.now(1) == 1.0

    def test_barrier_aligns_clocks(self):
        tr = Transport(flat_cluster())
        tr.compute(0, 1.0)
        tr.barrier()
        assert all(tr.now(r) == 1.0 for r in range(4))

    def test_barrier_subset(self):
        tr = Transport(flat_cluster())
        tr.compute(0, 1.0)
        tr.barrier([0, 1])
        assert tr.now(1) == 1.0
        assert tr.now(2) == 0.0

    def test_reset(self):
        tr = Transport(flat_cluster())
        tr.exchange([Message(0, 2, None, nbytes=100)])
        tr.reset()
        assert tr.max_time() == 0.0
        assert tr.stats.messages == 0


class TestStats:
    def test_empty_exchange_is_noop(self):
        tr = Transport(flat_cluster())
        assert tr.exchange([]) == {}
        assert tr.stats.rounds == 0
        assert tr.stats.messages == 0
        assert tr.max_time() == 0.0

    def test_byte_accounting(self):
        tr = Transport(flat_cluster())
        tr.exchange([Message(0, 2, None, nbytes=100), Message(0, 1, None, nbytes=50)])
        assert tr.stats.total_bytes == 150
        assert tr.stats.inter_node_bytes == 100
        assert tr.stats.intra_node_bytes == 50
        assert tr.stats.messages == 2
        assert tr.stats.rounds == 1
        assert tr.stats.per_rank_sent_bytes[0] == 150


def bitwise_state(tr: Transport) -> tuple:
    """Clocks, traffic stats and round counters, floats by their bits."""
    stats = tr.stats
    return (
        [now.hex() for now in tr.clocks.tolist()],
        stats.messages,
        stats.rounds,
        tr._round_counter,
        float(stats.total_bytes).hex(),
        float(stats.inter_node_bytes).hex(),
        float(stats.intra_node_bytes).hex(),
        [sent.hex() for sent in stats.per_rank_sent_bytes.tolist()],
    )


@st.composite
def clusters_and_rounds(draw):
    spec = ClusterSpec(
        num_nodes=draw(st.integers(1, 3)),
        workers_per_node=draw(st.integers(1, 4)),
        inter_node=draw(st.sampled_from([TCP_10G, TCP_100G])),
    )
    world = spec.world_size
    sizes = st.one_of(st.just(0.0), st.integers(0, 10**8).map(float), st.floats(0.0, 1e9))
    rounds = []
    for _ in range(draw(st.integers(1, 4))):
        sends = []
        if world > 1:
            for _ in range(draw(st.integers(0, 10))):
                src = draw(st.integers(0, world - 1))
                dst = draw(st.integers(0, world - 2))
                sends.append((src, dst + (dst >= src), draw(sizes)))
            # Repeat a prefix so some (src, dst) pairs and NIC chains queue twice.
            sends += sends[: draw(st.integers(0, len(sends)))]
        compute = [draw(st.floats(0.0, 1e-2)) for _ in range(world)]
        rounds.append((compute, sends))
    return spec, rounds


class TestOneTimingCore:
    @given(clusters_and_rounds())
    def test_message_rounds_and_sized_rounds_leave_identical_state(self, case):
        """``exchange`` and ``exchange_sized`` time and charge a round with
        one routine: the same ``(src, dst, nbytes)`` rounds, interleaved with
        the same compute, leave bit-identical clocks, stats and counters."""
        spec, rounds = case
        by_message, by_size = Transport(spec), Transport(spec)
        for compute, sends in rounds:
            for rank, seconds in enumerate(compute):
                by_message.compute(rank, seconds)
                by_size.compute(rank, seconds)
            before = bitwise_state(by_size)
            by_message.exchange([Message(src, dst, None, nbytes=n) for src, dst, n in sends])
            by_size.exchange_sized([(src, dst, n, None) for src, dst, n in sends])
            assert bitwise_state(by_message) == bitwise_state(by_size)
            if not sends:  # an empty round counts nothing on either transport
                assert bitwise_state(by_size) == before

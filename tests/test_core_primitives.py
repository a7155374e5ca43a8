"""BAGUA primitives: C_FP_S, C_LP_S, D_FP_S, D_LP_S and peer selectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import ErrorFeedback, IdentityCompressor, OneBitCompressor, QSGDCompressor
from repro.core import RandomPeers, RingPeers, c_fp_s, c_lp_s, d_fp_s, d_lp_s
from repro.core.primitives import PeerSelector
from repro.tensor import DTYPE

from .conftest import exact_rows, make_group


@pytest.fixture
def arrays(rng, group):
    """Multiples of 3 of :func:`exact_rows`' dyadic values: every sum, half
    and third of them is exact in ``DTYPE``, so the semantic checks hold
    whatever order a kernel folds in, while a narrowing cast still shows."""
    return [3 * row for row in exact_rows(rng, group.size, 37)]


class TestCFPS:
    def test_sum_semantics(self, group, arrays):
        expected = np.sum(arrays, axis=0)
        for out in c_fp_s(arrays, group):
            np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_hierarchical_same_result(self, group, arrays):
        flat = c_fp_s(arrays, group)
        hier = c_fp_s(arrays, make_group(2, 4), hierarchical=True)
        # Re-run on a fresh group because transports accumulate state.
        np.testing.assert_allclose(hier[0], flat[0], atol=1e-10)


class TestCLPS:
    def test_identity_codec_exact(self, group, arrays):
        expected = np.sum(arrays, axis=0)
        for out in c_lp_s(arrays, group, compressor=IdentityCompressor()):
            np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_qsgd_close(self, group, arrays):
        expected = np.sum(arrays, axis=0)
        outs = c_lp_s(arrays, group, compressor=QSGDCompressor(bits=8))
        err = np.linalg.norm(outs[0] - expected) / np.linalg.norm(expected)
        assert err < 0.15

    def test_error_feedback_requires_both_sides(self, group, arrays):
        efs = [ErrorFeedback(OneBitCompressor()) for _ in range(group.size)]
        with pytest.raises(ValueError):
            c_lp_s(arrays, group, compressor=OneBitCompressor(), worker_errors=efs)

    def test_error_feedback_wrong_count(self, group, arrays):
        efs = [ErrorFeedback(OneBitCompressor())]
        with pytest.raises(ValueError):
            c_lp_s(
                arrays, group, compressor=OneBitCompressor(),
                worker_errors=efs, server_errors=efs,
            )

    def test_error_feedback_improves_repeated_aggregation(self, rng):
        """Averaged over steps, EF-compensated 1-bit tracks the true sums."""
        codec = OneBitCompressor()
        n = 4
        group_ef = make_group(2, 2)
        worker_efs = [ErrorFeedback(codec) for _ in range(n)]
        server_efs = [ErrorFeedback(codec) for _ in range(n)]

        true_running = np.zeros(32)
        ef_running = np.zeros(32)
        plain_running = np.zeros(32)
        group_plain = make_group(2, 2)
        for _ in range(40):
            step_arrays = [rng.standard_normal(32) for _ in range(n)]
            true_running += np.sum(step_arrays, axis=0)
            ef_running += c_lp_s(
                step_arrays, group_ef, compressor=codec,
                worker_errors=worker_efs, server_errors=server_efs,
            )[0]
            plain_running += c_lp_s(step_arrays, group_plain, compressor=codec)[0]

        ef_err = np.linalg.norm(ef_running - true_running)
        plain_err = np.linalg.norm(plain_running - true_running)
        assert ef_err < plain_err

    def test_compressed_bytes_on_wire(self, rng):
        arrays = [rng.standard_normal(1024) for _ in range(4)]
        g_fp = make_group(2, 2)
        c_fp_s(arrays, g_fp)
        g_lp = make_group(2, 2)
        c_lp_s(arrays, g_lp, compressor=OneBitCompressor())
        assert g_lp.transport.stats.total_bytes < g_fp.transport.stats.total_bytes / 10


class TestCentralizedRowsAreIndependent:
    """``c_fp_s`` / ``c_lp_s`` promise rows that share no memory: the
    per-bucket algorithms step on each returned row in place."""

    @pytest.mark.parametrize("average", [False, True], ids=["sum", "average"])
    @pytest.mark.parametrize("shape", [(2, 4), (1, 4), (4, 1)], ids=["2x4", "1x4", "4x1"])
    @pytest.mark.parametrize("hierarchical", [False, True], ids=["flat", "hierarchical"])
    @pytest.mark.parametrize("backend", ["local", "batched"], ids=["loop", "batched"])
    @pytest.mark.parametrize("primitive", ["c_fp_s", "c_lp_s", "c_lp_s+ef"])
    def test_rows_never_share_memory(
        self, rng, primitive, backend, hierarchical, shape, average
    ):
        group = make_group(*shape, backend=backend)
        arrays = [rng.standard_normal(37) for _ in range(group.size)]
        if primitive == "c_fp_s":
            outs = c_fp_s(arrays, group, hierarchical=hierarchical, average=average)
        else:
            stores = [
                [ErrorFeedback(OneBitCompressor()) for _ in range(group.size)]
                if primitive == "c_lp_s+ef" else None
                for _ in range(2)
            ]
            outs = c_lp_s(
                arrays, group, compressor=OneBitCompressor(),
                worker_errors=stores[0], server_errors=stores[1],
                hierarchical=hierarchical, average=average,
            )
        assert len(outs) == group.size
        for i, a in enumerate(outs):
            for b in outs[i + 1:]:
                assert not np.shares_memory(a, b)
        # What the guarantee is for: an in-place update of one row reaches no other.
        expected = [out.copy() for out in outs]
        outs[0] /= 3.0
        for out, kept in zip(outs[1:], expected[1:]):
            assert np.array_equal(out, kept)


def _run_centralized(primitive, arrays, shape, backend, hierarchical, out, average=False):
    """One call on a fresh group; everything it may change, as comparable bits."""
    group = make_group(*shape, backend=backend)
    codec = QSGDCompressor(bits=8, rng=np.random.default_rng(3))
    stores = []
    if primitive == "c_fp_s":
        outs = c_fp_s(arrays, group, hierarchical=hierarchical, out=out, average=average)
    else:
        if primitive == "c_lp_s+ef":
            stores = [
                ErrorFeedback(QSGDCompressor(bits=8, rng=np.random.default_rng(5 + i)))
                for i in range(2 * group.size)
            ]
        outs = c_lp_s(
            arrays, group, compressor=codec,
            worker_errors=stores[: group.size] or None,
            server_errors=stores[group.size :] or None,
            hierarchical=hierarchical, out=out, average=average,
        )
    transport = group.transport
    state = (
        transport.clocks.tolist(),
        transport.stats.messages, transport.stats.rounds, transport.stats.total_bytes,
        codec.rng.bit_generator.state,
        [ef.compressor.rng.bit_generator.state for ef in stores],
        [{key: value.tobytes() for key, value in ef._residuals.items()} for ef in stores],
    )
    return outs, state


class TestCentralizedOut:
    """``out=`` changes where the results land, and nothing else; ``average``
    changes them into ``sum / n`` — the bits of dividing each summed row."""

    @pytest.mark.parametrize("average", [False, True], ids=["sum", "average"])
    @pytest.mark.parametrize("shape", [(2, 4), (1, 4), (1, 1)], ids=["2x4", "1x4", "1x1"])
    @pytest.mark.parametrize("hierarchical", [False, True], ids=["flat", "hierarchical"])
    @pytest.mark.parametrize("backend", ["local", "batched"], ids=["loop", "batched"])
    @pytest.mark.parametrize("primitive", ["c_fp_s", "c_lp_s", "c_lp_s+ef"])
    def test_out_equals_fresh_rows_bitwise(
        self, rng, primitive, backend, hierarchical, shape, average
    ):
        world = shape[0] * shape[1]
        base = [rng.standard_normal(37).astype(DTYPE) for _ in range(world)]
        base[0][:5] = -0.0

        def run(arrays, out, average=average):
            return _run_centralized(primitive, arrays, shape, backend, hierarchical, out, average)

        expected, expected_state = run([a.copy() for a in base], None)
        sums, sum_state = run([a.copy() for a in base], None, average=False)
        divisor = world if average else 1
        assert [e.tobytes() for e in expected] == [(s / divisor).tobytes() for s in sums]
        assert expected_state == sum_state

        # Fresh rows: they receive the results, the inputs stay untouched.
        inputs = [a.copy() for a in base]
        rows = [np.full(37, np.nan, DTYPE) for _ in range(world)]
        outs, state = run(inputs, rows)
        assert all(a is b for a, b in zip(outs, rows))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(inputs, base))
        assert [o.tobytes() for o in outs] == [e.tobytes() for e in expected]
        assert state == expected_state

        # The inputs themselves: every read of an input precedes the first store.
        inputs = [a.copy() for a in base]
        outs, state = run(inputs, inputs)
        assert all(a is b for a, b in zip(outs, inputs))
        assert [o.tobytes() for o in outs] == [e.tobytes() for e in expected]
        assert state == expected_state

    @pytest.mark.parametrize("backend", ["local", "batched"], ids=["loop", "batched"])
    @pytest.mark.parametrize("primitive", ["c_fp_s", "c_lp_s"])
    def test_bad_out_rows_are_rejected(self, rng, arrays, primitive, backend):
        group = make_group(backend=backend)
        call = (
            (lambda out: c_fp_s(arrays, group, out=out))
            if primitive == "c_fp_s"
            else (lambda out: c_lp_s(arrays, group, compressor=IdentityCompressor(), out=out))
        )
        block = np.zeros((group.size, 40), DTYPE)
        with pytest.raises(ValueError, match="share memory"):
            call([block[0, :37]] + [row[:37] for row in block[:-1]])  # rows 0 and 1 are one
        with pytest.raises(ValueError, match="share memory"):
            flat = block.reshape(-1)
            call([flat[30 * i : 30 * i + 37] for i in range(group.size)])  # partial overlap
        with pytest.raises(ValueError, match="out rows"):
            call([row[:37] for row in block[:-1]])  # one row short
        with pytest.raises(ValueError, match=str(DTYPE)):
            call([row[:37] for row in block.astype(np.float64)])
        assert group.transport.stats.messages == 0  # rejected before anything ran


class TestPeerSelectors:
    def test_ring_neighbors(self):
        peers = RingPeers().neighbors(5, step=0)
        assert peers[0] == [4, 1]
        assert peers[3] == [2, 4]

    def test_ring_two_members(self):
        assert RingPeers().neighbors(2, step=0) == [[1], [0]]

    def test_ring_single(self):
        assert RingPeers().neighbors(1, step=0) == [[]]

    def test_random_pairing_is_symmetric(self):
        for step in range(10):
            peers = RandomPeers(seed=3).neighbors(8, step)
            for i, neigh in enumerate(peers):
                for j in neigh:
                    assert i in peers[j]

    def test_random_pairing_changes_with_step(self):
        a = RandomPeers(seed=0).neighbors(8, step=1)
        b = RandomPeers(seed=0).neighbors(8, step=2)
        assert a != b

    def test_random_pairing_deterministic_per_step(self):
        a = RandomPeers(seed=0).neighbors(8, step=5)
        b = RandomPeers(seed=0).neighbors(8, step=5)
        assert a == b

    def test_random_repeated_calls_return_the_fresh_draw(self):
        peers = RandomPeers(seed=4)
        first = peers.neighbors(8, step=3)
        assert peers.neighbors(8, step=3) == first
        assert peers.neighbors(8, step=3) == RandomPeers(seed=4).neighbors(8, step=3)
        # a different step, world size or seed is a different matching
        assert peers.neighbors(8, step=4) == RandomPeers(seed=4).neighbors(8, step=4)
        assert peers.neighbors(6, step=3) == RandomPeers(seed=4).neighbors(6, step=3)
        peers.seed = 9
        assert peers.neighbors(8, step=3) == RandomPeers(seed=9).neighbors(8, step=3)

    def test_random_returned_lists_are_the_callers(self):
        peers = RandomPeers(seed=0)
        first = peers.neighbors(8, step=2)
        expected = [list(neigh) for neigh in first]
        first[0].append(99)
        first[1] = []
        first.append([7])
        assert peers.neighbors(8, step=2) == expected

    def test_random_odd_world_leaves_one_idle(self):
        peers = RandomPeers(seed=0).neighbors(7, step=0)
        idle = [i for i, neigh in enumerate(peers) if not neigh]
        assert len(idle) == 1


class TestDFPS:
    def test_ring_average(self, group, arrays):
        outs = d_fp_s(arrays, group, peers=RingPeers(), step=0)
        n = group.size
        for i in range(n):
            expected = (arrays[(i - 1) % n] + arrays[i] + arrays[(i + 1) % n]) / 3
            np.testing.assert_allclose(outs[i], expected, atol=1e-10)

    def test_preserves_global_mean(self, group, arrays):
        outs = d_fp_s(arrays, group, peers=RingPeers(), step=0)
        np.testing.assert_allclose(
            np.mean(outs, axis=0), np.mean(arrays, axis=0), atol=1e-10
        )

    def test_random_pairs_average(self, group, arrays):
        peers = RandomPeers(seed=1)
        outs = d_fp_s(arrays, group, peers=peers, step=3)
        neighbor_sets = peers.neighbors(group.size, 3)
        for i, neigh in enumerate(neighbor_sets):
            if neigh:
                expected = (arrays[i] + arrays[neigh[0]]) / 2
                np.testing.assert_allclose(outs[i], expected, atol=1e-10)
            else:
                np.testing.assert_allclose(outs[i], arrays[i])

    def test_only_neighbors_synchronize_clocks(self, rng):
        group = make_group(4, 1)
        arrays = [rng.standard_normal(10) for _ in range(4)]
        group.transport.compute(0, 100.0)  # rank 0 is far in the future
        d_fp_s(arrays, group, peers=RandomPeers(seed=0), step=0)
        # At least one rank not paired with 0 keeps a small clock.
        times = [group.transport.now(r) for r in range(4)]
        assert min(times) < 50.0

    def test_repeated_gossip_converges_to_consensus(self, rng):
        group = make_group(2, 4)
        arrays = [rng.standard_normal(8) for _ in range(8)]
        target = np.mean(arrays, axis=0)
        current = arrays
        for step in range(60):
            current = d_fp_s(current, group, peers=RandomPeers(seed=7), step=step)
        for out in current:
            np.testing.assert_allclose(out, target, atol=1e-3)


class TestGossipDtype:
    """d_fp_s/d_lp_s accumulate in ``DTYPE`` but must hand back the input dtype."""

    def test_d_fp_s_preserves_float32(self, rng, group):
        arrays = [rng.standard_normal(16).astype(np.float32) for _ in range(group.size)]
        outs = d_fp_s(arrays, group, peers=RingPeers())
        assert all(out.dtype == np.float32 for out in outs)

    def test_d_lp_s_preserves_float32(self, rng):
        group = make_group(2, 4)
        arrays = [rng.standard_normal(16).astype(np.float32) for _ in range(group.size)]
        outs = d_lp_s(arrays, group, compressor=IdentityCompressor(), peers=RingPeers())
        assert all(out.dtype == np.float32 for out in outs)

    def test_d_fp_s_float64_unchanged(self, rng, group):
        arrays = [rng.standard_normal(16) for _ in range(group.size)]
        outs = d_fp_s(arrays, group, peers=RingPeers())
        assert all(out.dtype == np.float64 for out in outs)

    @pytest.mark.parametrize("backend", ["local", "batched"], ids=["loop", "batched"])
    @pytest.mark.parametrize("primitive", ["d_fp_s", "d_lp_s"])
    def test_hierarchical_preserves_float32(self, rng, primitive, backend):
        group = make_group(2, 4, backend=backend)
        arrays = [rng.standard_normal(16).astype(np.float32) for _ in range(group.size)]
        if primitive == "d_fp_s":
            outs = d_fp_s(arrays, group, peers=RingPeers(), hierarchical=True)
        else:
            outs = d_lp_s(
                arrays, group, compressor=IdentityCompressor(), peers=RingPeers(),
                hierarchical=True,
            )
        assert all(out.dtype == np.float32 for out in outs)
        node_means = [np.mean(arrays[:4], axis=0), np.mean(arrays[4:], axis=0)]
        np.testing.assert_allclose(outs[0], np.mean(node_means, axis=0), rtol=1e-5, atol=1e-6)


class FixedPeers(PeerSelector):
    """Whatever neighbor sets the test dictates, valid or not."""

    def __init__(self, sets):
        self.sets = sets

    def neighbors(self, n, step):
        return self.sets


def _gossip(primitive, arrays, group, peers, out=None, hierarchical=False):
    """One gossip call; its rows and everything else it may change, as bits."""
    codec = QSGDCompressor(bits=8, rng=np.random.default_rng(3))
    if primitive == "d_fp_s":
        outs = d_fp_s(arrays, group, peers=peers, hierarchical=hierarchical, out=out)
    else:
        outs = d_lp_s(
            arrays, group, compressor=codec, peers=peers, hierarchical=hierarchical, out=out
        )
    transport = group.transport
    state = (
        transport.clocks.tolist(),
        transport.stats.messages, transport.stats.rounds, transport.stats.total_bytes,
        codec.rng.bit_generator.state,
    )
    return outs, state


@st.composite
def _gossip_cases(draw):
    """Arbitrary valid neighbor sets — asymmetric edges, chains of overlapping
    pairs, three and more sources — over mixed float32 / float64 rows."""
    n = draw(st.integers(1, 7))
    sets = [
        draw(st.lists(st.sampled_from([j for j in range(n) if j != i]), unique=True, max_size=4))
        if n > 1 else []
        for i in range(n)
    ]
    dtypes = [draw(st.sampled_from([np.float64, np.float64, np.float32])) for _ in range(n)]
    return sets, dtypes, draw(st.integers(1, 40)), draw(st.integers(0, 2**31))


class TestGossipOut:
    """``out=`` changes where the averages land, and nothing else."""

    @pytest.mark.parametrize("backend", ["local", "batched"], ids=["loop", "batched"])
    @pytest.mark.parametrize("primitive", ["d_fp_s", "d_lp_s"])
    @settings(max_examples=60, deadline=None)
    @given(case=_gossip_cases())
    def test_in_place_equals_fresh_rows_on_any_neighbor_sets(self, primitive, backend, case):
        # The executable form of "every read of a row precedes the first store
        # into it": storing into the inputs changes no bit of any result.
        sets, dtypes, length, seed = case
        rng = np.random.default_rng(seed)
        base = [rng.standard_normal(length).astype(dtype) for dtype in dtypes]
        peers = FixedPeers(sets)

        inputs = [a.copy() for a in base]
        expected, expected_state = _gossip(
            primitive, inputs, make_group(1, len(sets), backend=backend), peers
        )
        assert all(a.tobytes() == b.tobytes() for a, b in zip(inputs, base))  # only read
        assert [e.dtype for e in expected] == [a.dtype for a in base]

        inputs = [a.copy() for a in base]
        outs, state = _gossip(
            primitive, inputs, make_group(1, len(sets), backend=backend), peers, out=inputs
        )
        assert all(a is b for a, b in zip(outs, inputs))
        assert [o.tobytes() for o in outs] == [e.tobytes() for e in expected]
        assert state == expected_state

    @pytest.mark.parametrize("hierarchical", [False, True], ids=["flat", "hierarchical"])
    @pytest.mark.parametrize("backend", ["local", "batched"], ids=["loop", "batched"])
    @pytest.mark.parametrize("primitive", ["d_fp_s", "d_lp_s"])
    def test_returned_rows_never_share_memory(self, rng, primitive, backend, hierarchical):
        group = make_group(2, 4, backend=backend)
        arrays = [rng.standard_normal(37) for _ in range(group.size)]
        outs, _state = _gossip(primitive, arrays, group, RandomPeers(seed=2), None, hierarchical)
        for i, a in enumerate(outs):
            assert not any(np.shares_memory(a, b) for b in [*outs[i + 1 :], *arrays])

    @pytest.mark.parametrize("hierarchical", [False, True], ids=["flat", "hierarchical"])
    @pytest.mark.parametrize("backend", ["local", "batched"], ids=["loop", "batched"])
    @pytest.mark.parametrize("primitive", ["d_fp_s", "d_lp_s"])
    def test_bad_out_rows_are_rejected(self, arrays, primitive, backend, hierarchical):
        group = make_group(backend=backend)
        kept = [a.copy() for a in arrays]

        def call(out):
            _gossip(primitive, arrays, group, RingPeers(), out, hierarchical)

        block = np.zeros((group.size, 40), DTYPE)
        with pytest.raises(ValueError, match="share memory"):
            call([block[0, :37]] + [row[:37] for row in block[:-1]])  # rows 0 and 1 are one
        with pytest.raises(ValueError, match="another member"):
            call(arrays[1:] + arrays[:1])  # each row is some other member's input
        with pytest.raises(ValueError, match="out rows"):
            call([row[:37] for row in block[:-1]])  # one row short
        with pytest.raises(ValueError, match="shape"):
            call([row[:36] for row in block])
        with pytest.raises(ValueError, match=str(DTYPE)):
            call([row[:37] for row in block.astype(np.float64)])  # not the inputs' dtype
        assert group.transport.stats.messages == 0  # rejected before any round
        assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, kept))


class TestNeighborSetValidation:
    """A bad peer choice is refused whole: nothing sent, nothing stored."""

    @pytest.mark.parametrize(
        "sets, message",
        [
            ([[1], [0], [3]], "one neighbor set per member"),
            ([[1], [0], [3], [4]], "member 3.*leaves the group"),
            ([[1], [0], [-1], [2]], "member 2.*leaves the group"),
            ([[1], [0, 1], [3], [2]], "member 1 lists itself"),
            ([[1], [0], [3, 3], [2]], "member 2.*twice"),
        ],
        ids=["count", "out-of-range", "negative", "self", "duplicate"],
    )
    @pytest.mark.parametrize("hierarchical", [False, True], ids=["flat", "hierarchical"])
    @pytest.mark.parametrize("backend", ["local", "batched"], ids=["loop", "batched"])
    @pytest.mark.parametrize("primitive", ["d_fp_s", "d_lp_s"])
    def test_rejected_before_any_round_or_store(
        self, rng, primitive, backend, hierarchical, sets, message
    ):
        # Four gossipers either way: the members of 1x4, the leaders of 4x2.
        group = make_group(4, 2, backend=backend) if hierarchical else make_group(1, 4, backend=backend)
        arrays = [rng.standard_normal(12) for _ in range(group.size)]
        kept = [a.copy() for a in arrays]
        with pytest.raises(ValueError, match=message):
            _gossip(primitive, arrays, group, FixedPeers(sets), arrays, hierarchical)
        assert group.transport.stats.messages == 0
        assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, kept))


class TestDLPS:
    def test_identity_codec_matches_d_fp_s(self, group, arrays):
        lp = d_lp_s(arrays, group, compressor=IdentityCompressor(), peers=RingPeers())
        fp = d_fp_s(arrays, make_group(2, 4), peers=RingPeers())
        for a, b in zip(lp, fp):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_qsgd_close_to_full_precision(self, group, arrays):
        lp = d_lp_s(
            arrays, group, compressor=QSGDCompressor(bits=8), peers=RingPeers()
        )
        fp = d_fp_s(arrays, make_group(2, 4), peers=RingPeers())
        for a, b in zip(lp, fp):
            assert np.linalg.norm(a - b) / np.linalg.norm(b) < 0.05

    def test_compressed_traffic(self, rng):
        arrays = [rng.standard_normal(1024) for _ in range(8)]
        g_fp = make_group(2, 4)
        d_fp_s(arrays, g_fp, peers=RingPeers())
        g_lp = make_group(2, 4)
        d_lp_s(arrays, g_lp, compressor=QSGDCompressor(bits=8), peers=RingPeers())
        assert g_lp.transport.stats.total_bytes < g_fp.transport.stats.total_bytes / 2

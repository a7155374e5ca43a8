"""Bit-identity contract of the world-batched fast path (PR 5).

The batched kernels in :mod:`repro.comm.batched` must be observationally
indistinguishable from the per-rank loop reference: same result bits, same
virtual clocks, same traffic statistics, same round counters, same
compressor RNG streams and error-feedback residuals, and — through the
analysis stack — identical lowered schedules and happens-before reports.
These tests drive both implementations side by side over every collective
x compressor combination.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, Transport
from repro.cluster.netmodel import TCP_25G
from repro.comm import CommGroup, HierarchicalComm, chunk_bounds, ring_allreduce, scatter_reduce
from repro.comm.fastpath import fast_path_enabled, set_fast_path, use_fast_path
from repro.compression import (
    ErrorFeedback,
    OneBitCompressor,
    QSGDCompressor,
    SignSGDCompressor,
    TernGradCompressor,
    TopKCompressor,
)
from repro.core.primitives import (
    RandomPeers,
    RingPeers,
    c_fp_s,
    c_lp_s,
    d_fp_s,
    d_lp_s,
)

# Codec factories: fresh instances per run so RNG streams start identical.
CODEC_FACTORIES = {
    "qsgd8": lambda: QSGDCompressor(bits=8, rng=np.random.default_rng(3)),
    "qsgd4": lambda: QSGDCompressor(bits=4, rng=np.random.default_rng(11)),
    "onebit": OneBitCompressor,
    "terngrad": lambda: TernGradCompressor(rng=np.random.default_rng(5)),
    "topk": lambda: TopKCompressor(ratio=0.25),
    "signsgd": SignSGDCompressor,
}


def _group(world: int, backend: str = "batched") -> CommGroup:
    """Multi-node when divisible into nodes of 4 (mixes NVLink + TCP fabrics)."""
    if world > 4 and world % 4 == 0:
        spec = ClusterSpec(
            num_nodes=world // 4, workers_per_node=4, inter_node=TCP_25G
        )
    else:
        spec = ClusterSpec(num_nodes=1, workers_per_node=world, inter_node=TCP_25G)
    return CommGroup(Transport(spec, backend=backend), list(range(world)))


def _transport_state(group: CommGroup) -> tuple:
    transport = group.transport
    stats = transport.stats
    return (
        [clock.now for clock in transport.clocks],
        stats.messages,
        stats.rounds,
        stats.total_bytes,
        stats.inter_node_bytes,
        stats.intra_node_bytes,
        dict(stats.per_rank_sent_bytes),
        transport._round_counter,
    )


def _assert_identical(loop_out, fast_out, loop_group, fast_group):
    assert len(loop_out) == len(fast_out)
    for a, b in zip(loop_out, fast_out):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b), "fast path result bits differ from loop"
        # array_equal treats -0.0 == 0.0; the contract is bit-for-bit.
        assert np.array_equal(np.signbit(a), np.signbit(b))
    assert _transport_state(loop_group) == _transport_state(fast_group)


def _assert_bits_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _codec_state(codec):
    rng = getattr(codec, "rng", None)
    return None if rng is None else rng.bit_generator.state


def _assert_stores_identical(loop_stores, fast_stores) -> None:
    """Error-feedback stores: same keys, residual bits and codec RNG state."""
    assert len(loop_stores) == len(fast_stores)
    for ef_loop, ef_fast in zip(loop_stores, fast_stores):
        assert _codec_state(ef_loop.compressor) == _codec_state(ef_fast.compressor)
        assert set(ef_loop._residuals) == set(ef_fast._residuals)
        for key, value in ef_loop._residuals.items():
            _assert_bits_equal(value, ef_fast._residuals[key])


def _compare(world: int, length: int, seed: int, run) -> None:
    rng = np.random.default_rng(seed)
    base = [rng.standard_normal(length) for _ in range(world)]
    loop_group, fast_group = _group(world), _group(world)
    loop_out = run(loop_group, [a.copy() for a in base], False)
    fast_out = run(fast_group, [a.copy() for a in base], True)
    _assert_identical(loop_out, fast_out, loop_group, fast_group)


class TestCollectiveIdentity:
    """scatter_reduce / ring_allreduce: fast == loop for arbitrary inputs."""

    @settings(max_examples=40, deadline=None)
    @given(
        world=st.integers(2, 9),
        length=st.integers(1, 200),
        seed=st.integers(0, 2**31),
    )
    def test_scatter_reduce(self, world, length, seed):
        _compare(
            world, length, seed,
            lambda g, arrs, fp: scatter_reduce(arrs, g, fast_path=fp),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        world=st.integers(2, 9),
        length=st.integers(1, 200),
        seed=st.integers(0, 2**31),
    )
    def test_ring_allreduce(self, world, length, seed):
        _compare(
            world, length, seed,
            lambda g, arrs, fp: ring_allreduce(arrs, g, fast_path=fp),
        )

    def test_multi_node_worlds(self):
        # Worlds of 8 and 16 span two fabrics (NVLink intra, TCP inter);
        # one rank sends on both in a single round, the regime where chain
        # bookkeeping is least trivial.
        for world in (8, 16):
            _compare(
                world, 257, world,
                lambda g, arrs, fp: scatter_reduce(arrs, g, fast_path=fp),
            )

    def test_c_fp_s_routes_through_default(self):
        # c_fp_s has no fast_path parameter: it follows the global switch.
        rng = np.random.default_rng(0)
        base = [rng.standard_normal(100) for _ in range(4)]
        loop_group, fast_group = _group(4), _group(4)
        with use_fast_path(False):
            loop_out = c_fp_s([a.copy() for a in base], loop_group)
        with use_fast_path(True):
            fast_out = c_fp_s([a.copy() for a in base], fast_group)
        _assert_identical(loop_out, fast_out, loop_group, fast_group)


class TestCompressorMatrix:
    """Every collective x compressor combination, both directions."""

    @pytest.mark.parametrize("codec_name", sorted(CODEC_FACTORIES))
    @settings(max_examples=15, deadline=None)
    @given(
        world=st.integers(2, 8),
        length=st.integers(2, 120),
        seed=st.integers(0, 2**31),
    )
    def test_c_lp_s(self, codec_name, world, length, seed):
        make = CODEC_FACTORIES[codec_name]
        _compare(
            world, length, seed,
            lambda g, arrs, fp: c_lp_s(arrs, g, make(), fast_path=fp),
        )

    @pytest.mark.parametrize("codec_name", sorted(CODEC_FACTORIES))
    @settings(max_examples=15, deadline=None)
    @given(
        world=st.integers(2, 8),
        length=st.integers(2, 120),
        seed=st.integers(0, 2**31),
    )
    def test_d_lp_s_ring(self, codec_name, world, length, seed):
        make = CODEC_FACTORIES[codec_name]
        _compare(
            world, length, seed,
            lambda g, arrs, fp: d_lp_s(arrs, g, make(), RingPeers(), fast_path=fp),
        )

    @settings(max_examples=25, deadline=None)
    @given(
        world=st.integers(2, 8),
        length=st.integers(1, 120),
        step=st.integers(0, 5),
        seed=st.integers(0, 2**31),
    )
    def test_d_fp_s_random_peers(self, world, length, step, seed):
        _compare(
            world, length, seed,
            lambda g, arrs, fp: d_fp_s(
                arrs, g, RandomPeers(seed=7), step=step, fast_path=fp
            ),
        )

    @pytest.mark.parametrize("codec_name", sorted(CODEC_FACTORIES))
    def test_c_lp_s_error_feedback_two_steps(self, codec_name):
        # Error feedback carries residual state across steps; both paths
        # must leave the stores bit-identical after a multi-step run.
        world, length = 4, 97
        make = CODEC_FACTORIES[codec_name]
        rng = np.random.default_rng(13)
        steps = [
            [rng.standard_normal(length) for _ in range(world)] for _ in range(2)
        ]
        outs, efs = {}, {}
        for fast in (False, True):
            group = _group(world)
            codec = make()
            workers = [ErrorFeedback(make()) for _ in range(world)]
            servers = [ErrorFeedback(make()) for _ in range(world)]
            outs[fast] = [
                c_lp_s(
                    [a.copy() for a in arrays], group, codec,
                    worker_errors=workers, server_errors=servers,
                    fast_path=fast,
                )
                for arrays in steps
            ]
            efs[fast] = (workers, servers)
        for step_loop, step_fast in zip(outs[False], outs[True]):
            for a, b in zip(step_loop, step_fast):
                assert np.array_equal(a, b)
        _assert_stores_identical(
            efs[False][0] + efs[False][1], efs[True][0] + efs[True][1]
        )


class _RoundRecorder:
    """Minimal transport tracer: keeps every exchanged round's messages."""

    def __init__(self):
        self.rounds = []

    def on_exchange(self, messages):
        self.rounds.append([(m.src, m.dst, m.nbytes, m.match_id) for m in messages])

    def on_collective(self, *args, **meta):
        pass


def _hier_group(nodes: int, per_node: int) -> CommGroup:
    spec = ClusterSpec(num_nodes=nodes, workers_per_node=per_node, inter_node=TCP_25G)
    return CommGroup(Transport(spec, backend="batched"), list(range(nodes * per_node)))


def _hier_inputs(world: int, length: int, seed: int, steps: int = 2) -> list:
    """Per-step member arrays salted with signed zeros, some in whole columns
    (a column that is ``-0.0`` on every worker of a node is where a seeded
    and an unseeded fold part ways)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(steps):
        arrays = [rng.standard_normal(length) for _ in range(world)]
        column = rng.random(length) < 0.2
        for a in arrays:
            a[column] = -0.0
            a[rng.random(length) < 0.1] = rng.choice([0.0, -0.0])
        out.append(arrays)
    return out


class TestHierarchicalIdentity:
    """Optimization H: every tier of the batched path against the loop path."""

    @pytest.mark.parametrize("codec_name", ["qsgd8", "onebit", "topk"])
    @settings(max_examples=25, deadline=None)
    @given(
        nodes=st.integers(1, 3),
        per_node=st.integers(1, 4),
        length=st.integers(1, 300),
        error_feedback=st.booleans(),
        traced=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_hierarchical_c_lp_s(
        self, codec_name, nodes, per_node, length, error_feedback, traced, seed
    ):
        make = CODEC_FACTORIES[codec_name]
        world = nodes * per_node
        steps = _hier_inputs(world, length, seed)
        runs = {}
        for fast in (False, True):
            group = _hier_group(nodes, per_node)
            recorder = _RoundRecorder()
            if traced:
                group.transport.tracer = recorder
            codec = make()
            stores = [ErrorFeedback(make()) for _ in range(2 * world)] if error_feedback else []
            outs = [
                c_lp_s(
                    [a.copy() for a in arrays], group, codec,
                    worker_errors=stores[:world] or None,
                    server_errors=stores[world:] or None,
                    hierarchical=True, fast_path=fast,
                )
                for arrays in steps
            ]
            runs[fast] = (outs, group, codec, stores, recorder)
        loop_outs, loop_group, loop_codec, loop_stores, loop_recorder = runs[False]
        fast_outs, fast_group, fast_codec, fast_stores, fast_recorder = runs[True]
        for loop_step, fast_step in zip(loop_outs, fast_outs):
            assert len(loop_step) == len(fast_step) == world
            for a, b in zip(loop_step, fast_step):
                _assert_bits_equal(a, b)
        assert _transport_state(loop_group) == _transport_state(fast_group)
        assert _codec_state(loop_codec) == _codec_state(fast_codec)
        _assert_stores_identical(loop_stores, fast_stores)
        assert loop_recorder.rounds == fast_recorder.rounds
        assert bool(loop_recorder.rounds) == (traced and world > 1)

    @pytest.mark.parametrize("length", [1, 64])
    def test_float32_rows_fold_in_float32(self, length):
        """The leader folds its node's rows in *their* precision and widens
        the sum — the batched path may fold straight into its float64 stack
        only rows that are float64 already."""
        rng = np.random.default_rng(length)
        arrays = [rng.standard_normal(length).astype(np.float32) for _ in range(6)]
        runs = {}
        for fast in (False, True):
            group = _hier_group(2, 3)
            codec = CODEC_FACTORIES["qsgd8"]()
            outs = c_lp_s(
                [a.copy() for a in arrays], group, codec, hierarchical=True, fast_path=fast
            )
            runs[fast] = (outs, group, codec)
        for a, b in zip(runs[False][0], runs[True][0]):
            _assert_bits_equal(a, b)
        assert _transport_state(runs[False][1]) == _transport_state(runs[True][1])
        assert _codec_state(runs[False][2]) == _codec_state(runs[True][2])

    @settings(max_examples=40, deadline=None)
    @given(
        nodes=st.integers(1, 3),
        per_node=st.integers(1, 4),
        length=st.integers(1, 300),
        traced=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_full_precision_allreduce_batched(self, nodes, per_node, length, traced, seed):
        (arrays,) = _hier_inputs(nodes * per_node, length, seed, steps=1)
        runs = {}
        for fast in (False, True):
            group = _hier_group(nodes, per_node)
            recorder = _RoundRecorder()
            if traced:
                group.transport.tracer = recorder
            comm = HierarchicalComm(group)
            inputs = [a.copy() for a in arrays]
            if fast:
                outs = comm.allreduce_batched(inputs, codec=None)
            else:
                with use_fast_path(False):
                    outs = comm.allreduce(inputs)
            for a, original in zip(inputs, arrays):
                _assert_bits_equal(a, original)  # inputs are never written
            runs[fast] = (outs, group, recorder)
        for a, b in zip(runs[False][0], runs[True][0]):
            _assert_bits_equal(a, b)
        assert _transport_state(runs[False][1]) == _transport_state(runs[True][1])
        assert runs[False][2].rounds == runs[True][2].rounds


class TestScheduleAndAnalysisUnchanged:
    """The fast path must not perturb lowered schedules or HB reports."""

    def test_analyze_hb_identical_across_paths(self):
        from repro.analysis import analyze_algorithm

        reports = {}
        for fast in (False, True):
            with use_fast_path(fast):
                reports[fast] = analyze_algorithm(
                    "allreduce", steps=2, hb=True
                ).to_dict()
        assert reports[False] == reports[True]
        assert reports[True]["ok"]

    def test_traced_rounds_identical(self):
        # With a tracer installed the fast path routes stub messages
        # through exchange(), so recorded rounds must match the loop's
        # message for message.
        rng = np.random.default_rng(2)
        base = [rng.standard_normal(50) for _ in range(4)]
        traces = {}
        for fast in (False, True):
            group = _group(4)
            recorder = _RoundRecorder()
            group.transport.tracer = recorder
            scatter_reduce([a.copy() for a in base], group, fast_path=fast)
            traces[fast] = recorder.rounds
        assert traces[False] == traces[True]


class TestFastPathSwitch:
    def test_default_enabled(self):
        assert fast_path_enabled()

    def test_set_and_context_manager_restore(self):
        assert fast_path_enabled()
        set_fast_path(False)
        try:
            assert not fast_path_enabled()
            with use_fast_path(True):
                assert fast_path_enabled()
            assert not fast_path_enabled()
        finally:
            set_fast_path(True)

    def test_engine_config_controls_path(self):
        from repro.core.optimizer_framework import BaguaConfig

        # Default defers to the transport backend's kernel preference.
        assert BaguaConfig().fast_path is None
        assert BaguaConfig(fast_path=True).fast_path is True
        assert BaguaConfig(fast_path=False).fast_path is False

    def test_backend_preference_resolves_default(self, monkeypatch):
        from repro.comm.fastpath import resolve_fast_path

        monkeypatch.delenv("REPRO_FAST_PATH", raising=False)
        set_fast_path(None)  # clear any explicit global left by other tests
        loop_group = _group(2, backend="local")
        fast_group = _group(2, backend="batched")
        assert resolve_fast_path(None, loop_group.transport) is False
        assert resolve_fast_path(None, fast_group.transport) is True
        # An explicit global (context manager) overrides the preference...
        with use_fast_path(True):
            assert resolve_fast_path(None, loop_group.transport) is True
        # ...and an explicit per-call argument overrides everything.
        assert resolve_fast_path(True, loop_group.transport) is True
        assert resolve_fast_path(False, fast_group.transport) is False


class TestChunkBoundsCache:
    def test_memoized_and_shared(self):
        chunk_bounds.cache_clear()
        first = chunk_bounds(1000, 7)
        assert chunk_bounds(1000, 7) is first  # lru_cache hit
        assert chunk_bounds.cache_info().hits >= 1

    def test_matches_array_split(self):
        for length, parts in [(0, 3), (10, 3), (7, 7), (5, 8), (1000, 13)]:
            splits = np.array_split(np.arange(length), parts)
            expected = []
            offset = 0
            for s in splits:
                expected.append((offset, offset + len(s)))
                offset += len(s)
            assert list(chunk_bounds(length, parts)) == expected


class TestBucketFlatPool:
    def test_external_buffer_is_zero_copy(self):
        from repro.core import TensorBucket
        from repro.tensor import Tensor

        params = [
            Tensor(np.arange(6, dtype=np.float64).reshape(2, 3)),
            Tensor(np.ones(4, dtype=np.float64)),
        ]
        pool = np.empty(10, dtype=np.float64)
        bucket = TensorBucket(params, flatten=True, buffer=pool)
        assert bucket.buffer is pool
        for p in params:
            assert np.shares_memory(p.data, pool)
        # Mutations through the pool are visible in the parameters.
        pool[:] = 42.0
        assert float(params[0].data[0, 0]) == 42.0

    def test_engine_allocates_one_pool_per_worker(self):
        from repro.perf.harness import _bench_epoch  # noqa: F401 — import only

        from repro.algorithms import QSGD
        from repro.cluster import ClusterSpec
        from repro.core.optimizer_framework import BaguaConfig
        from repro.data.loader import make_sharded_loaders
        from repro.training import DistributedTrainer, get_task

        task = get_task("VGG16")
        spec = ClusterSpec(num_nodes=1, workers_per_node=2, inter_node=TCP_25G)
        trainer = DistributedTrainer(
            spec, task.model_factory, task.make_optimizer, QSGD(bits=8),
            config=BaguaConfig(fast_path=True), seed=0,
        )
        dataset = task.dataset_factory(0)
        loaders = make_sharded_loaders(dataset, 2, 16, seed=0)
        trainer.train(loaders, task.loss_fn, epochs=1, label="pool")
        for worker in trainer.engine.workers:
            pool = worker.state["flat_pool"]
            assert pool is not None
            assert pool.dtype == np.float64
            for bucket in worker.buckets:
                assert np.shares_memory(bucket.buffer, pool)


class TestEpochLossParity:
    def test_losses_and_traffic_bitwise_equal(self):
        from repro.algorithms import QSGD
        from repro.cluster import ClusterSpec
        from repro.core.optimizer_framework import BaguaConfig
        from repro.data.loader import make_sharded_loaders
        from repro.training import DistributedTrainer, get_task

        task = get_task("VGG16")
        dataset = task.dataset_factory(0)
        records = {}
        for fast in (False, True):
            spec = ClusterSpec(num_nodes=1, workers_per_node=2, inter_node=TCP_25G)
            trainer = DistributedTrainer(
                spec, task.model_factory, task.make_optimizer, QSGD(bits=8),
                config=BaguaConfig(fast_path=fast), seed=0,
            )
            loaders = make_sharded_loaders(dataset, 2, 16, seed=0)
            record = trainer.train(loaders, task.loss_fn, epochs=1, label="parity")
            records[fast] = (
                record.epoch_losses,
                record.epoch_sim_times,
                record.epoch_comm_bytes,
                trainer.transport.stats.messages,
                trainer.transport.stats.total_bytes,
            )
        assert records[False] == records[True]

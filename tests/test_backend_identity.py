"""Backend bit-identity: LocalBackend vs SharedMemoryBackend.

The backend contract (``repro/cluster/backends/base.py``) requires every
backend to be observationally identical — same result bits, same virtual
clocks, same :class:`TrafficStats`, same round counters, same recorded
traces — differing only in wall clock and address spaces.  These tests
drive every collective × compressor combination through the in-process
oracle and the multiprocess shm backend side by side, on the loop path
(``fast_path=False``) so message payloads genuinely cross the rings.

One shm backend per world size is reused across tests/examples (workers
are expensive to spawn); backends re-attach cleanly to fresh transports.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, Transport
from repro.cluster.backends import SharedMemoryBackend
from repro.cluster.netmodel import TCP_25G
from repro.comm import CommGroup, ring_allreduce, scatter_reduce
from repro.compression import (
    ErrorFeedback,
    OneBitCompressor,
    QSGDCompressor,
    SignSGDCompressor,
    TernGradCompressor,
    TopKCompressor,
)
from repro.core.primitives import RingPeers, c_fp_s, c_lp_s, d_fp_s, d_lp_s

CODEC_FACTORIES = {
    "qsgd8": lambda: QSGDCompressor(bits=8, rng=np.random.default_rng(3)),
    "qsgd4": lambda: QSGDCompressor(bits=4, rng=np.random.default_rng(11)),
    "onebit": OneBitCompressor,
    "terngrad": lambda: TernGradCompressor(rng=np.random.default_rng(5)),
    "topk": lambda: TopKCompressor(ratio=0.25),
    "signsgd": SignSGDCompressor,
}

_SHM_CACHE: dict[int, SharedMemoryBackend] = {}


def _shm_backend(world: int) -> SharedMemoryBackend:
    backend = _SHM_CACHE.get(world)
    if backend is None or backend._closed:
        backend = SharedMemoryBackend(world)
        _SHM_CACHE[world] = backend
    return backend


@pytest.fixture(scope="module", autouse=True)
def _shutdown_cached_backends():
    yield
    for backend in _SHM_CACHE.values():
        backend.close()
    _SHM_CACHE.clear()


class _Recorder:
    """Minimal tracer capturing what TraceRecorder observes per round."""

    def __init__(self):
        self.rounds = []

    def on_exchange(self, messages):
        self.rounds.append([(m.src, m.dst, m.nbytes, m.match_id) for m in messages])

    def on_collective(self, group, kind, elements, **meta):
        self.rounds.append(("collective", kind, elements, tuple(sorted(meta))))

    def on_local(self, rank, kind, **meta):
        self.rounds.append(("local", rank, kind, tuple(sorted(meta.items()))))


def _spec(world: int) -> ClusterSpec:
    if world > 4 and world % 4 == 0:
        return ClusterSpec(num_nodes=world // 4, workers_per_node=4, inter_node=TCP_25G)
    return ClusterSpec(num_nodes=1, workers_per_node=world, inter_node=TCP_25G)


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


def _compare(world: int, run):
    """Run ``run(group)`` on both backends; assert total observational identity."""
    from repro.comm.fastpath import use_fast_path

    spec = _spec(world)
    outputs, states, traces = {}, {}, {}
    for name, backend in (("local", "local"), ("shm", _shm_backend(world))):
        group = CommGroup(Transport(spec, backend=backend), list(range(world)))
        recorder = _Recorder()
        group.transport.tracer = recorder
        # Force the loop path on both backends so payloads really route
        # through route_round (the fast path sends size stubs only).
        with use_fast_path(False):
            outputs[name] = run(group)
        states[name] = _transport_state(group)
        traces[name] = recorder.rounds
    local_out, shm_out = outputs["local"], outputs["shm"]
    assert len(local_out) == len(shm_out)
    for a, b in zip(local_out, shm_out):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes(), "shm result bits differ from local"
    assert states["local"] == states["shm"]
    assert traces["local"] == traces["shm"]
    return local_out


worlds = st.integers(min_value=2, max_value=4)
sizes = st.integers(min_value=1, max_value=96)


class TestCollectiveIdentity:
    @settings(max_examples=8, deadline=None)
    @given(world=worlds, size=sizes, seed=st.integers(0, 2**16))
    def test_scatter_reduce(self, world, size, seed):
        rng = np.random.default_rng(seed)
        base = [rng.standard_normal(size) for _ in range(world)]
        _compare(world, lambda g: scatter_reduce([a.copy() for a in base], g, fast_path=False))

    @settings(max_examples=6, deadline=None)
    @given(world=worlds, size=sizes, seed=st.integers(0, 2**16))
    def test_ring_allreduce(self, world, size, seed):
        rng = np.random.default_rng(seed)
        base = [rng.standard_normal(size) for _ in range(world)]
        _compare(world, lambda g: ring_allreduce([a.copy() for a in base], g, fast_path=False))

    @settings(max_examples=6, deadline=None)
    @given(world=worlds, size=sizes, seed=st.integers(0, 2**16))
    def test_c_fp_s(self, world, size, seed):
        rng = np.random.default_rng(seed)
        base = [rng.standard_normal(size) for _ in range(world)]
        _compare(world, lambda g: c_fp_s([a.copy() for a in base], g))

    @settings(max_examples=6, deadline=None)
    @given(world=worlds, size=sizes, seed=st.integers(0, 2**16))
    def test_gossip_d_fp_s(self, world, size, seed):
        rng = np.random.default_rng(seed)
        base = [rng.standard_normal(size) for _ in range(world)]
        _compare(
            world,
            lambda g: d_fp_s([a.copy() for a in base], g, RingPeers(), fast_path=False),
        )

    def test_multi_node_world_eight(self):
        # Mixes NVLink and TCP fabrics (2 nodes x 4 workers).
        rng = np.random.default_rng(8)
        base = [rng.standard_normal(64) for _ in range(8)]
        _compare(8, lambda g: scatter_reduce([a.copy() for a in base], g, fast_path=False))


class TestCompressedIdentity:
    @pytest.mark.parametrize("codec_name", sorted(CODEC_FACTORIES))
    def test_c_lp_s(self, codec_name):
        rng = np.random.default_rng(17)
        base = [rng.standard_normal(64) for _ in range(4)]

        def run(group):
            codec = CODEC_FACTORIES[codec_name]()
            return c_lp_s([a.copy() for a in base], group, codec, fast_path=False)

        _compare(4, run)

    @pytest.mark.parametrize("codec_name", sorted(CODEC_FACTORIES))
    def test_d_lp_s(self, codec_name):
        rng = np.random.default_rng(23)
        base = [rng.standard_normal(48) for _ in range(4)]

        def run(group):
            codec = CODEC_FACTORIES[codec_name]()
            return d_lp_s(
                [a.copy() for a in base], group, codec, RingPeers(), fast_path=False
            )

        _compare(4, run)

    @pytest.mark.parametrize("codec_name", ["qsgd8", "onebit", "topk"])
    def test_c_lp_s_with_error_feedback(self, codec_name):
        rng = np.random.default_rng(29)
        base = [rng.standard_normal(64) for _ in range(4)]
        residuals = {}

        def run(group):
            codec = CODEC_FACTORIES[codec_name]()
            worker_err = [ErrorFeedback(codec) for _ in range(4)]
            server_err = [ErrorFeedback(codec) for _ in range(4)]
            out = None
            for _ in range(3):  # iterate so residuals accumulate
                out = c_lp_s(
                    [a.copy() for a in base], group, codec,
                    worker_errors=worker_err, server_errors=server_err,
                    fast_path=False,
                )
            residuals[group.transport.backend.name] = (worker_err, server_err)
            return out

        _compare(4, run)
        for local_ef, shm_ef in zip(residuals["local"], residuals["shm"]):
            for a, b in zip(local_ef, shm_ef):
                assert a._residuals.keys() == b._residuals.keys()
                for key in a._residuals:
                    assert a._residuals[key].tobytes() == b._residuals[key].tobytes()


class TestTracedRounds:
    def test_real_trace_recorder_identical(self):
        from repro.analysis.recorder import TraceRecorder

        spec = _spec(4)
        rng = np.random.default_rng(31)
        base = [rng.standard_normal(40) for _ in range(4)]
        events = {}
        for name, backend in (("local", "local"), ("shm", _shm_backend(4))):
            transport = Transport(spec, backend=backend)
            group = CommGroup(transport, list(range(4)))
            recorder = TraceRecorder(4).install(transport)
            scatter_reduce([a.copy() for a in base], group, fast_path=False)
            events[name] = [
                (op.rank, op.seq, op.kind, op.round, op.elements, op.nbytes,
                 op.peers, op.group, op.match)
                for op in recorder.trace.all_ops()
            ]
            recorder.uninstall()
        assert len(events["local"]) > 0
        assert events["local"] == events["shm"]


class TestPoolRefIdentity:
    """Pool-ref collectives (PR 10): shm descriptors vs the local oracle.

    Member arrays live inside each backend's bucket pool, so on shm the
    dense batched collectives resolve them to 25-byte ``PoolRef``
    descriptors and reduce in place on the cross-process pool, while local
    keeps the stub path.  Results, final pool contents, virtual clocks,
    traffic stats and traces must all stay bit-identical — the pool-ref
    path is a wall-clock optimization only.
    """

    # Three legs: the plain local oracle (pool refs off — stub schedule,
    # inputs untouched), local with pool refs forced (the base class's
    # generic *serial* in-place executor) and shm with pool refs (the
    # worker-parallel in-place executor).  All three must agree on result
    # bits, clocks, stats and traces; the two in-place legs must also
    # agree on the final pool contents.
    _LEGS = (("oracle", "local", False), ("local", "local", True), ("shm", None, True))

    def _compare_poolref(self, world, base, run, expect_reduces):
        from repro.comm import use_pool_ref

        spec = _spec(world)
        outputs, pools, states, traces = {}, {}, {}, {}
        for name, backend, pool_refs in self._LEGS:
            transport = Transport(
                spec, backend=_shm_backend(world) if backend is None else backend
            )
            group = CommGroup(transport, list(range(world)))
            recorder = _Recorder()
            transport.tracer = recorder
            arrays = [
                transport.backend.allocate_pool(rank, base[rank].size)
                for rank in range(world)
            ]
            for array, data in zip(arrays, base):
                array[:] = data
            if name == "shm":
                before = transport.backend.shm_stats["reduces"]
            with use_pool_ref(pool_refs):
                outputs[name] = [np.asarray(a).copy() for a in run(group, arrays)]
            pools[name] = [a.copy() for a in arrays]
            states[name] = _transport_state(group)
            traces[name] = recorder.rounds
            if name == "shm":
                engaged = transport.backend.shm_stats["reduces"] > before
                assert engaged == expect_reduces, (
                    "pool-ref in-place reduction "
                    + ("did not engage" if expect_reduces else "engaged unexpectedly")
                )
        for name in ("local", "shm"):
            for a, b in zip(outputs["oracle"], outputs[name]):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes(), f"{name} pool-ref result bits differ"
            assert states["oracle"] == states[name]
            assert traces["oracle"] == traces[name]
        for a, b in zip(pools["local"], pools["shm"]):
            assert a.tobytes() == b.tobytes(), "in-place pool contents diverged"
        return outputs["oracle"]

    @settings(max_examples=8, deadline=None)
    @given(world=worlds, size=sizes, seed=st.integers(0, 2**16))
    def test_scatter_reduce_in_place(self, world, size, seed):
        rng = np.random.default_rng(seed)
        base = [rng.standard_normal(size) for _ in range(world)]
        self._compare_poolref(
            world, base, lambda g, arrays: scatter_reduce(arrays, g, fast_path=True),
            expect_reduces=True,
        )

    @settings(max_examples=8, deadline=None)
    @given(world=worlds, size=sizes, seed=st.integers(0, 2**16))
    def test_ring_allreduce_in_place(self, world, size, seed):
        rng = np.random.default_rng(seed)
        base = [rng.standard_normal(size) for _ in range(world)]
        self._compare_poolref(
            world, base, lambda g, arrays: ring_allreduce(arrays, g, fast_path=True),
            expect_reduces=True,
        )

    @settings(max_examples=4, deadline=None)
    @given(world=worlds, size=sizes, seed=st.integers(0, 2**16))
    def test_routed_rounds_ship_descriptors(self, world, size, seed):
        # Dense pool-resident payloads routed through a round cross the
        # wire as 25-byte descriptors, resolve back to the *same* pool
        # storage on delivery, and stay bit-identical to local delivery.
        from repro.cluster.transport import Message

        spec = _spec(world)
        rng = np.random.default_rng(seed)
        base = [rng.standard_normal(size) for _ in range(world)]
        delivered = {}
        for name, backend in (("local", "local"), ("shm", _shm_backend(world))):
            transport = Transport(spec, backend=backend)
            pools = [transport.backend.allocate_pool(rank, size) for rank in range(world)]
            for pool, data in zip(pools, base):
                pool[:] = data
            if name == "shm":
                before = transport.backend.shm_stats["pool_ref_payloads"]
            messages = [
                Message(src, (src + 1) % world, pools[src], match_id=f"pr.s{src}")
                for src in range(world)
            ]
            inbox = transport.exchange(messages)
            got = {
                dst: inbox[dst][0].payload for dst in range(world) if inbox.get(dst)
            }
            delivered[name] = {dst: payload.tobytes() for dst, payload in got.items()}
            if name == "shm":
                assert transport.backend.shm_stats["pool_ref_payloads"] > before, (
                    "dense pool-resident round payloads did not ship as descriptors"
                )
                for dst, payload in got.items():
                    assert payload is pools[(dst - 1) % world], (
                        "delivered payload is not the source pool view (copied?)"
                    )
        assert delivered["local"] == delivered["shm"]

    @pytest.mark.parametrize("codec_name", sorted(CODEC_FACTORIES))
    def test_compressed_keeps_codec_path(self, codec_name):
        # Compressed collectives over pool-resident buckets: the pool-ref
        # path must not engage (payloads are codec objects, not dense f64).
        rng = np.random.default_rng(41)
        base = [rng.standard_normal(64) for _ in range(4)]

        def run(group, arrays):
            codec = CODEC_FACTORIES[codec_name]()
            return c_lp_s(arrays, group, codec, fast_path=False)

        self._compare_poolref(4, base, run, expect_reduces=False)

    def test_error_feedback_residuals_across_steps(self):
        rng = np.random.default_rng(43)
        base = [rng.standard_normal(64) for _ in range(4)]
        residuals = {}

        def run(group, arrays):
            codec = CODEC_FACTORIES["qsgd8"]()
            worker_err = [ErrorFeedback(codec) for _ in range(4)]
            server_err = [ErrorFeedback(codec) for _ in range(4)]
            out = None
            for _ in range(3):  # residuals accumulate across steps
                out = c_lp_s(
                    arrays, group, codec,
                    worker_errors=worker_err, server_errors=server_err,
                    fast_path=False,
                )
            residuals[group.transport.backend.name] = (worker_err, server_err)
            return out

        self._compare_poolref(4, base, run, expect_reduces=False)
        for local_ef, shm_ef in zip(residuals["local"], residuals["shm"]):
            for a, b in zip(local_ef, shm_ef):
                assert a._residuals.keys() == b._residuals.keys()
                for key in a._residuals:
                    assert a._residuals[key].tobytes() == b._residuals[key].tobytes()

    def test_non_pool_payloads_fall_back(self):
        # Plain arrays that own their storage never resolve to PoolRefs:
        # the collective takes the stub/codec path even on shm with the
        # switch on, and stays bit-identical.
        rng = np.random.default_rng(47)
        base = [rng.standard_normal(72) for _ in range(4)]
        spec = _spec(4)
        outputs, states = {}, {}
        for name, backend in (("local", "local"), ("shm", _shm_backend(4))):
            transport = Transport(spec, backend=backend)
            group = CommGroup(transport, list(range(4)))
            arrays = [a.copy() for a in base]
            if name == "shm":
                before = dict(transport.backend.shm_stats)
            outputs[name] = [a.copy() for a in scatter_reduce(arrays, group, fast_path=True)]
            states[name] = _transport_state(group)
            if name == "shm":
                after = transport.backend.shm_stats
                assert after["reduces"] == before["reduces"]
                assert after["pool_ref_payloads"] == before["pool_ref_payloads"]
        for a, b in zip(outputs["local"], outputs["shm"]):
            assert a.tobytes() == b.tobytes()
        assert states["local"] == states["shm"]

    def test_trace_recorder_and_hb_reports_identical(self):
        from repro.analysis import AnalysisSubject, check_hb
        from repro.analysis.recorder import TraceRecorder

        spec = _spec(4)
        rng = np.random.default_rng(53)
        base = [rng.standard_normal(96) for _ in range(4)]
        events, reports = {}, {}
        for name, backend in (("local", "local"), ("shm", _shm_backend(4))):
            transport = Transport(spec, backend=backend)
            group = CommGroup(transport, list(range(4)))
            arrays = [
                transport.backend.allocate_pool(rank, base[rank].size)
                for rank in range(4)
            ]
            for array, data in zip(arrays, base):
                array[:] = data
            recorder = TraceRecorder(4).install(transport)
            scatter_reduce(arrays, group, fast_path=True)
            ring_allreduce(arrays, group, fast_path=True)
            events[name] = [
                (op.rank, op.seq, op.kind, op.round, op.elements, op.nbytes,
                 op.peers, op.group, op.match)
                for op in recorder.trace.all_ops()
            ]
            subject = AnalysisSubject(world_size=4, trace=recorder.trace)
            reports[name] = [finding.explain() for finding in check_hb(subject)]
            recorder.uninstall()
        assert len(events["local"]) > 0
        assert events["local"] == events["shm"]
        assert reports["local"] == reports["shm"] == []


class TestEngineEndToEnd:
    def test_trainer_identical_across_backends(self):
        from repro.algorithms import QSGD
        from repro.core.optimizer_framework import BaguaConfig
        from repro.data.loader import make_sharded_loaders
        from repro.training import DistributedTrainer, get_task

        task = get_task("VGG16")
        dataset = task.dataset_factory(0)
        records = {}
        for backend in ("local", "shm"):
            spec = ClusterSpec(num_nodes=1, workers_per_node=2, inter_node=TCP_25G)
            trainer = DistributedTrainer(
                spec, task.model_factory, task.make_optimizer, QSGD(bits=8),
                # fast_path=False keeps the loop path so bucket payloads
                # genuinely travel through the backend every round.
                config=BaguaConfig(backend=backend, fast_path=False),
                seed=0,
            )
            assert trainer.transport.backend.name == backend
            loaders = make_sharded_loaders(dataset, 2, 16, seed=0)
            record = trainer.train(loaders, task.loss_fn, epochs=1, label="parity")
            weights = np.concatenate(
                [w.flatten() for w in trainer.engine.workers[0].model.state_dict().values()]
            )
            records[backend] = (
                record.epoch_losses,
                record.epoch_sim_times,
                record.epoch_comm_bytes,
                trainer.transport.stats.messages,
                trainer.transport.stats.total_bytes,
                weights.tobytes(),
            )
            if backend == "shm":
                # Engine pools came from the backend: shm-mapped storage.
                for worker in trainer.engine.workers:
                    pool = worker.state["flat_pool"]
                    assert pool is not None and not pool.flags.owndata
            trainer.transport.close()
        assert records["local"] == records["shm"]

    def test_allreduce_gradients_reduce_in_place_on_shm(self):
        """Gradients are born in the backend's pool, so on shm the buckets
        ``allreduce`` hands to ``c_fp_s`` resolve to pool refs and take the
        worker-parallel in-place reduce — with the oracle's bits."""
        from repro.algorithms import AllreduceSGD
        from repro.core.optimizer_framework import BaguaConfig
        from repro.data.loader import make_sharded_loaders
        from repro.training import DistributedTrainer, get_task

        task = get_task("VGG16")
        dataset = task.dataset_factory(0)
        weights = {}
        for backend in ("local", "shm"):
            spec = ClusterSpec(num_nodes=1, workers_per_node=2, inter_node=TCP_25G)
            trainer = DistributedTrainer(
                spec, task.model_factory, task.make_optimizer, AllreduceSGD(),
                config=BaguaConfig(backend=backend), seed=0,
            )
            loaders = make_sharded_loaders(dataset, 2, 16, seed=0)
            batches = zip(*[loader.epoch() for loader in loaders])
            for _step in range(4):
                trainer.engine.step(list(next(batches)), task.loss_fn)
            weights[backend] = [
                b"".join(bucket.flat_data().tobytes() for bucket in worker.buckets)
                for worker in trainer.engine.workers
            ]
            if backend == "shm":
                assert trainer.transport.backend.shm_stats["reduces"] > 0
            trainer.transport.close()
        assert weights["local"] == weights["shm"]
        assert weights["shm"][0] == weights["shm"][1]

"""Backend bit-identity: the rows of the identity harness with shm legs.

The backend contract (``repro/cluster/backends/base.py``) requires every
backend to be observationally identical — same result bits, same virtual
clocks, same :class:`TrafficStats`, same round counters, same recorded
traces — differing only in wall clock and address spaces.  Each case runs
through :func:`tests.identity_harness.compare` on the in-process legs, on
shm under the loop kernels (``loopshm``: payloads genuinely cross the rings)
and on shm proper (size stubs, worker-parallel pool reduces), all against
the ``local`` oracle.  The wide-world in-process rows live in
``tests/test_fastpath_identity.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import make_algorithm
from repro.cluster import Transport
from repro.cluster.backends import BACKEND_REGISTRY
from repro.comm import CommGroup, ring_allreduce, scatter_reduce
from repro.compression import ErrorFeedback
from repro.core.primitives import RandomPeers, RingPeers, c_fp_s, c_lp_s, d_fp_s, d_lp_s

from .identity_harness import (
    CODEC_FACTORIES,
    OUT_MODES,
    POOL,
    PRIMITIVES,
    SHM,
    LoopShm,
    Recorder,
    backend_for,
    close_shm_backends,
    centralized_run,
    cluster,
    compare,
    gossip_run,
    inputs,
    snapshot,
    train_epoch,
    transport_state,
)
from .test_shared_replicas import SHARING


@pytest.fixture(scope="module", autouse=True)
def _shutdown_cached_backends():
    yield
    close_shm_backends()


worlds = st.integers(min_value=2, max_value=4)
sizes = st.integers(min_value=1, max_value=96)
seeds = st.integers(0, 2**16)


def _compare(world, size, seed, run, legs=SHM, **kwargs):
    return compare(cluster(world), inputs(world, size, seed), run, legs, **kwargs)


def _ef_steps(codec_name):
    """Three C_LP_S steps over the same inputs so residuals accumulate."""

    def run(group, arrays):
        codec = CODEC_FACTORIES[codec_name]()
        workers = [ErrorFeedback(codec) for _ in range(group.size)]
        servers = [ErrorFeedback(codec) for _ in range(group.size)]
        outs = [
            c_lp_s(arrays, group, codec, worker_errors=workers, server_errors=servers)
            for _ in range(3)
        ]
        return outs, workers, servers

    return run


def _recorded_ops(recorder):
    return [
        (op.rank, op.seq, op.kind, op.round, op.elements, op.nbytes, op.peers, op.group, op.match)
        for op in recorder.trace.all_ops()
    ]


class TestCollectiveIdentity:
    @settings(max_examples=8, deadline=None)
    @given(world=worlds, size=sizes, seed=seeds)
    def test_scatter_reduce(self, world, size, seed):
        _compare(world, size, seed, lambda g, arrays: scatter_reduce(arrays, g))

    @settings(max_examples=6, deadline=None)
    @given(world=worlds, size=sizes, seed=seeds)
    def test_ring_allreduce(self, world, size, seed):
        _compare(world, size, seed, lambda g, arrays: ring_allreduce(arrays, g))

    @settings(max_examples=6, deadline=None)
    @given(world=worlds, size=sizes, seed=seeds)
    def test_c_fp_s(self, world, size, seed):
        _compare(world, size, seed, lambda g, arrays: c_fp_s(arrays, g))

    @settings(max_examples=6, deadline=None)
    @given(world=worlds, size=sizes, seed=seeds)
    def test_gossip_d_fp_s(self, world, size, seed):
        _compare(world, size, seed, lambda g, arrays: d_fp_s(arrays, g, RingPeers()))

    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    def test_under_h_no_payload_crosses_the_rings(self, name):
        # 2 nodes x 2: every tier of every primitive under H on the shm legs.
        runs = compare(
            cluster(4, 2), inputs(4, 48, 59),
            lambda g, arrays: PRIMITIVES[name](arrays, g, True), SHM,
        )
        assert runs["batched"].payloads == runs["shm"].payloads == 0
        assert runs["local"].payloads == runs["loopshm"].payloads > 0

    def test_multi_node_world_eight(self):
        # Mixes NVLink and TCP fabrics (2 nodes x 4 workers).  Loop kernels
        # only on shm: one set of eight worker processes is enough.
        _compare(
            8, 64, 8, lambda g, arrays: scatter_reduce(arrays, g),
            legs=("local", "batched", "loopshm"),
        )


class TestCompressedIdentity:
    @pytest.mark.parametrize("codec_name", sorted(CODEC_FACTORIES))
    def test_c_lp_s(self, codec_name):
        make = CODEC_FACTORIES[codec_name]
        _compare(4, 64, 17, lambda g, arrays: c_lp_s(arrays, g, make()))

    @pytest.mark.parametrize("codec_name", sorted(CODEC_FACTORIES))
    def test_d_lp_s(self, codec_name):
        make = CODEC_FACTORIES[codec_name]
        _compare(4, 48, 23, lambda g, arrays: d_lp_s(arrays, g, make(), RingPeers()))

    @pytest.mark.parametrize("codec_name", ["qsgd8", "onebit", "topk"])
    def test_c_lp_s_with_error_feedback(self, codec_name):
        _compare(4, 64, 29, _ef_steps(codec_name))


class TestGossipOutIdentity:
    """``d_fp_s`` / ``d_lp_s`` storing into ``out=``, on the shm legs too."""

    @pytest.mark.parametrize("name", ["d_fp_s", "d_lp_s"])
    @pytest.mark.parametrize("mode", OUT_MODES)
    @settings(max_examples=5, deadline=None)
    @given(world=worlds, size=sizes, seed=seeds, ring=st.booleans(), step=st.integers(0, 3))
    def test_flat(self, name, mode, world, size, seed, ring, step):
        peers = RingPeers() if ring else RandomPeers(seed=5)
        _compare(world, size, seed, gossip_run(name, peers, mode, step=step))

    @pytest.mark.parametrize("name", ["d_fp_s", "d_lp_s"])
    @pytest.mark.parametrize("mode", OUT_MODES)
    def test_under_h(self, name, mode):
        # 2 nodes x 2: the leaders are a mutual pair, in place on their node means.
        run = gossip_run(name, RandomPeers(seed=5), mode, hierarchical=True)
        compare(cluster(4, 2), inputs(4, 48, 61), run, SHM)


class TestAveragingIdentity:
    """``average=True`` on ``c_fp_s`` / ``c_lp_s`` is bitwise the sum divided
    by the group's size member by member — flat and under H, error feedback
    on and off, landing in fresh rows or in the inputs, over owned and
    pool-resident rows — on every leg, with clocks, stats, traces, codec RNG
    streams and residuals those of the summing call."""

    @pytest.mark.parametrize("pooled", [False, True], ids=["owned", "pooled"])
    @pytest.mark.parametrize("out_mode", ["none", "arrays"])
    @pytest.mark.parametrize("shape", [(2, 4), (1, 4), (4, 1)], ids=["2x4", "1x4", "4x1"])
    @pytest.mark.parametrize("hierarchical", [False, True], ids=["flat", "H"])
    @pytest.mark.parametrize("name", ["c_fp_s", "c_lp_s", "c_lp_s+ef"])
    def test_average_is_the_sum_divided(self, name, hierarchical, shape, out_mode, pooled):
        nodes, per_node = shape
        world = nodes * per_node
        base = inputs(world, 37, world + per_node, signed_zeros=True)
        runs = {
            average: compare(
                cluster(world, per_node), base,
                centralized_run(name, out_mode, hierarchical, average), SHM, pooled=pooled,
            )
            for average in (False, True)
        }  # fmt: skip
        divided, averaged = runs[False]["local"], runs[True]["local"]
        assert averaged.bits == divided.bits
        assert (averaged.state, averaged.rounds, averaged.events) == (
            divided.state, divided.rounds, divided.events,
        )  # fmt: skip
        if pooled and name == "c_fp_s" and not hierarchical:
            # The in-place reduce divides each pool row where it lies: with
            # ``out=None`` too, the returned rows are the inputs.
            for leg in ("batched", "shm"):
                rows = runs[True][leg].bits[0]
                assert runs[True][leg].pools == [row for _dtype, _shape, row in rows], leg


class TestTracedRounds:
    def test_real_trace_recorder_identical(self):
        from repro.analysis.recorder import TraceRecorder

        base = inputs(4, 40, 31)
        events = {}
        for leg in SHM:
            transport = Transport(cluster(4), backend=backend_for(leg, 4))
            recorder = TraceRecorder(4).install(transport)
            scatter_reduce([a.copy() for a in base], CommGroup(transport, list(range(4))))
            events[leg] = _recorded_ops(recorder)
            recorder.uninstall()
        assert len(events["local"]) > 0
        assert all(events[leg] == events["local"] for leg in SHM)


class TestPoolRefIdentity:
    """Pool-ref collectives (PR 10): in-place reduction vs the loop oracle.

    Member arrays live inside each leg backend's bucket pool, so on
    ``batched`` (the base class's serial executor) and ``shm`` (the
    worker-parallel one) the dense batched collectives resolve them to
    ``PoolRef`` descriptors and reduce in place, while ``local`` keeps its
    inputs.  Results, virtual clocks, traffic stats and traces must all stay
    bit-identical — where the sum lands is the only difference — and the
    two in-place legs must also agree on the final pool contents.
    """

    def _compare_in_place(self, world, size, seed, run):
        runs = _compare(world, size, seed, run, legs=POOL, pooled=True)
        assert runs["shm"].shm_delta["reduces"] > 0, "pool-ref in-place reduction did not engage"
        assert runs["batched"].pools == runs["shm"].pools, "in-place pool contents diverged"
        assert runs["batched"].pools != runs["local"].pools  # ... and they were in place

    @settings(max_examples=8, deadline=None)
    @given(world=worlds, size=sizes, seed=seeds)
    def test_scatter_reduce_in_place(self, world, size, seed):
        self._compare_in_place(world, size, seed, lambda g, arrays: scatter_reduce(arrays, g))

    @settings(max_examples=8, deadline=None)
    @given(world=worlds, size=sizes, seed=seeds)
    def test_ring_allreduce_in_place(self, world, size, seed):
        self._compare_in_place(world, size, seed, lambda g, arrays: ring_allreduce(arrays, g))

    @settings(max_examples=4, deadline=None)
    @given(world=worlds, size=sizes, seed=seeds)
    def test_routed_rounds_ship_descriptors(self, world, size, seed):
        # Dense pool-resident payloads routed through a round cross the
        # wire as 25-byte descriptors, resolve back to the *same* pool
        # storage on delivery, and stay bit-identical to local delivery.
        from repro.cluster.transport import Message

        def run(group, pools):
            messages = [
                Message(src, (src + 1) % world, pools[src], match_id=f"pr.s{src}")
                for src in range(world)
            ]
            inbox = group.transport.exchange(messages)
            got = [inbox[dst][0].payload for dst in range(world)]
            if group.transport.backend.name == "shm":
                assert all(got[dst] is pools[(dst - 1) % world] for dst in range(world)), (
                    "delivered payload is not the source pool view (copied?)"
                )
            return got

        runs = _compare(world, size, seed, run, legs=("local", "shm"), pooled=True, traced=False)
        assert runs["shm"].shm_delta["pool_ref_payloads"] > 0, (
            "dense pool-resident round payloads did not ship as descriptors"
        )

    @pytest.mark.parametrize("topology", ["ring", "random"])
    def test_gossip_step_lands_in_the_pool(self, topology):
        # A world of 3: every ring member has two sources; random pairing
        # averages one pair where it lies and idles the third member.  With
        # ``out=arrays`` every leg, the oracle included, ends with the averages
        # in the pool rows the weights were read from.
        peers = RingPeers() if topology == "ring" else RandomPeers(seed=5)
        before = inputs(3, 80, 67)
        runs = _compare(3, 80, 67, gossip_run("d_fp_s", peers, "arrays"), legs=POOL, pooled=True)
        for leg in POOL:
            rows = runs[leg].bits[0]
            assert runs[leg].pools == [row_bytes for _dtype, _shape, row_bytes in rows], leg
            moved = sum(pool != a.tobytes() for pool, a in zip(runs[leg].pools, before))
            assert moved == (3 if topology == "ring" else 2), leg

    @pytest.mark.parametrize("codec_name", sorted(CODEC_FACTORIES))
    def test_compressed_keeps_codec_path(self, codec_name):
        # Compressed collectives over pool-resident buckets: the pool-ref
        # path must not engage (payloads are codec objects, not dense f64).
        make = CODEC_FACTORIES[codec_name]
        runs = _compare(
            4, 64, 41, lambda g, arrays: c_lp_s(arrays, g, make()),
            legs=POOL + ("loopshm",), pooled=True,
        )
        assert runs["shm"].shm_delta["reduces"] == runs["loopshm"].shm_delta["reduces"] == 0

    def test_error_feedback_residuals_across_steps(self):
        runs = _compare(4, 64, 43, _ef_steps("qsgd8"), legs=POOL + ("loopshm",), pooled=True)
        assert runs["shm"].shm_delta["reduces"] == runs["loopshm"].shm_delta["reduces"] == 0

    def test_non_pool_payloads_fall_back(self):
        # Plain arrays that own their storage never resolve to PoolRefs:
        # the kernels only read them, on every leg, and stay bit-identical.
        runs = _compare(
            4, 72, 47, lambda g, arrays: scatter_reduce(arrays, g), legs=POOL, traced=False
        )
        assert runs["shm"].shm_delta["reduces"] == 0
        assert runs["shm"].shm_delta["pool_ref_payloads"] == 0

    def test_trace_recorder_and_hb_reports_identical(self):
        from repro.analysis import AnalysisSubject, check_hb
        from repro.analysis.recorder import TraceRecorder

        base = inputs(4, 96, 53)
        events, reports = {}, {}
        for leg in POOL:
            transport = Transport(cluster(4), backend=backend_for(leg, 4))
            group = CommGroup(transport, list(range(4)))
            arrays = [transport.backend.allocate_pool(rank, 96) for rank in range(4)]
            for array, data in zip(arrays, base):
                array[:] = data
            recorder = TraceRecorder(4).install(transport)
            scatter_reduce(arrays, group)
            ring_allreduce(arrays, group)
            events[leg] = _recorded_ops(recorder)
            subject = AnalysisSubject(world_size=4, trace=recorder.trace)
            reports[leg] = [finding.explain() for finding in check_hb(subject)]
            recorder.uninstall()
        assert len(events["local"]) > 0
        assert all(events[leg] == events["local"] for leg in POOL)
        assert all(reports[leg] == [] for leg in POOL)


class TestEngineEndToEnd:
    def test_trainer_identical_across_backends(self, monkeypatch):
        observed = {}
        for leg in ("local", "shm", "loopshm"):
            if leg == "loopshm":
                # Loop kernels over shm: bucket payloads genuinely travel
                # through the backend every round.
                monkeypatch.setitem(BACKEND_REGISTRY, "shm", lambda spec: LoopShm(spec.world_size))
            observed[leg], trainer = train_epoch("shm" if leg == "loopshm" else leg)
            if leg != "local":
                # Engine pools came from the backend: shm-mapped storage.
                for worker in trainer.engine.workers:
                    pool = worker.state["flat_pool"]
                    assert pool is not None and not pool.flags.owndata
            trainer.transport.close()
        assert observed["shm"] == observed["local"]
        assert observed["loopshm"] == observed["local"]

    def test_unfused_epoch_is_pool_resident_and_identical(self):
        """F=off plans one tensor per bucket, and those buckets are views of
        the engine's pool as well: the epoch keeps the oracle's bits on every
        pool leg, and every bucket's weight and gradient rows resolve to pool
        refs.  Decentralized SGD keeps per-replica weights and gossips them
        in place (``allreduce`` / ``qsgd`` replicas share replica 0's weights:
        ``tests/test_shared_replicas.py``)."""
        observed = {}
        for backend in POOL:
            observed[backend], trainer = train_epoch(
                backend, make_algorithm("decentralized"), flatten=False
            )
            engine = trainer.engine
            assert all(len(bucket) == 1 for w in engine.workers for bucket in w.buckets)
            if backend == "batched":
                ranks = [w.rank for w in engine.workers]
                resolve = trainer.transport.backend.resolve_pool_refs
                for k in range(engine.num_buckets):
                    assert resolve(engine.weights_of_bucket(k), ranks) is not None
                    assert resolve(engine.grads_of_bucket(k), ranks) is not None
            trainer.transport.close()
        assert observed["local"] == observed["batched"] == observed["shm"]

    def test_allreduce_gradients_reduce_in_place_on_shm(self):
        """Gradients are born in the backend's pool, so on shm the buckets
        ``allreduce`` hands to ``c_fp_s`` resolve to pool refs and take the
        worker-parallel in-place reduce — with the oracle's bits."""
        from repro.algorithms import AllreduceSGD

        observed = {}
        for backend in ("local", "shm"):
            observed[backend], trainer = train_epoch(backend, AllreduceSGD())
            if backend == "shm":
                assert trainer.transport.backend.shm_stats["reduces"] > 0
            trainer.transport.close()
        assert observed["local"] == observed["shm"]
        weights = observed["shm"][-1]
        assert weights[0] == weights[1]


def _shared_epoch(leg, name, hierarchical, flatten, per_replica=False):
    """One 2 x 2 epoch of ``name`` on ``leg``: :func:`train_epoch`'s
    observables plus clocks, traffic stats, traced rounds and events, the
    codec's RNG state and every replica's model and optimizer state (what
    its checkpoint holds); and whether the replicas shared one weight copy
    and one optimizer.  ``per_replica`` withdraws the algorithm's
    ``replicas_identical`` declaration: the reference execution."""
    recorder = Recorder()
    algorithm = SHARING[name]()
    if per_replica:
        algorithm.replicas_identical = False
    observed, trainer = train_epoch(
        leg, algorithm, world=4, per_node=2, hierarchical=hierarchical, flatten=flatten,
        tracer=recorder,
    )
    workers = trainer.engine.workers
    replicas = [
        (snapshot(w.model.state_dict()), snapshot(w.optimizer.state_dict())) for w in workers
    ]
    state = (
        observed, transport_state(trainer.transport), recorder.rounds, recorder.events,
        snapshot(algorithm.compressor), replicas,
    )
    shared = [
        w.optimizer is workers[0].optimizer
        and all(np.shares_memory(b.buffer, a.buffer) for b, a in zip(w.buckets, workers[0].buckets))
        for w in workers[1:]
    ]
    trainer.transport.close()
    return state, shared


class TestSharedReplicaIdentity:
    """Every algorithm and baseline that declares ``replicas_identical`` keeps
    one weight copy and one optimizer for all replicas and steps each bucket
    once: on every pool leg, bitwise the per-replica execution on the
    ``local`` oracle (the declaration withdrawn on the instance) — weights,
    losses, virtual clocks, traffic stats, traced rounds and events, codec
    RNG state and every replica's model and optimizer state — flat and under
    H, F on and off.  The baselines share the barrier update and run two
    corners, flat + F and H + noF: the whole grid costs ~15 s more."""

    @pytest.mark.parametrize(
        "name, hierarchical, flatten",
        [
            pytest.param(
                name, hierarchical, flatten,
                id=f"{name}-{'H' if hierarchical else 'flat'}-{'F' if flatten else 'noF'}",
            )
            for name in sorted(SHARING)
            for hierarchical in (True, False)
            for flatten in (True, False)
            if name in ("allreduce", "qsgd") or hierarchical != flatten
        ],
    )
    def test_shared_is_per_replica(self, name, hierarchical, flatten):
        runs = {leg: _shared_epoch(leg, name, hierarchical, flatten) for leg in POOL}
        reference, shared = _shared_epoch("local", name, hierarchical, flatten, per_replica=True)
        assert shared == [False] * 3
        for leg, (state, shared) in runs.items():
            assert shared == [True] * 3, leg
            assert state == reference, leg

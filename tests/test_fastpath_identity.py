"""Bit-identity of the world-batched kernels: in-process rows of the harness.

The batched kernels in :mod:`repro.comm.batched` (``backend="batched"``)
must be observationally indistinguishable from the per-rank loop reference
(``backend="local"``): same result bits, virtual clocks, traffic statistics,
round counters, compressor RNG streams and error-feedback residuals, and —
through the analysis stack — identical lowered schedules and happens-before
reports.  Every collective x compressor combination runs on both legs
through :func:`tests.identity_harness.compare`; the rows with shm legs live
in ``tests/test_backend_identity.py``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import DecentralizedSGD, LocalSGD, OneBitAdam
from repro.baselines import Horovod, PyTorchDDP, VanillaDPSG
from repro.comm import (
    HierarchicalComm,
    chunk_bounds,
    ring_all_gather_chunks,
    ring_allreduce,
    ring_reduce_scatter,
    scatter_reduce,
)
from repro.compression import ErrorFeedback
from repro.core.primitives import RandomPeers, RingPeers, c_fp_s, c_lp_s, d_fp_s, d_lp_s
from repro.tensor import DTYPE

from .identity_harness import (
    CODEC_FACTORIES,
    IN_PROCESS,
    OUT_MODES,
    PRIMITIVES,
    cluster,
    compare,
    gossip_run,
    inputs,
    snapshot,
    train_epoch,
)

seeds = st.integers(0, 2**31)


def _compare(world, length, seed, run, traced=False):
    return compare(cluster(world), inputs(world, length, seed), run, IN_PROCESS, traced=traced)


class TestCollectiveIdentity:
    """scatter_reduce / ring_allreduce / c_fp_s: batched == loop for arbitrary
    inputs, a world of one included (every kernel has its one-member branch)."""

    @settings(max_examples=40, deadline=None)
    @given(world=st.integers(1, 9), length=st.integers(1, 200), seed=seeds)
    def test_scatter_reduce(self, world, length, seed):
        _compare(world, length, seed, lambda g, arrays: scatter_reduce(arrays, g))

    @settings(max_examples=40, deadline=None)
    @given(world=st.integers(1, 9), length=st.integers(1, 200), seed=seeds)
    def test_ring_allreduce(self, world, length, seed):
        def run(g, arrays):
            reduced = ring_reduce_scatter(arrays, g)
            owners = [(i + 1) % world for i in range(world)]
            gathered = ring_all_gather_chunks(reduced, owners, g, length)
            return ring_allreduce(arrays, g), reduced, gathered

        _compare(world, length, seed, run)

    def test_multi_node_worlds(self):
        # Worlds of 8 and 16 span two fabrics (NVLink intra, TCP inter);
        # one rank sends on both in a single round, the regime where chain
        # bookkeeping is least trivial.
        for world in (8, 16):
            _compare(world, 257, world, lambda g, arrays: scatter_reduce(arrays, g))

    def test_c_fp_s_routes_through_default(self):
        _compare(4, 100, 0, lambda g, arrays: c_fp_s(arrays, g))


class TestCompressorMatrix:
    """Every collective x compressor combination."""

    @pytest.mark.parametrize("codec_name", sorted(CODEC_FACTORIES))
    @settings(max_examples=15, deadline=None)
    @given(world=st.integers(1, 8), length=st.integers(2, 120), seed=seeds)
    def test_c_lp_s(self, codec_name, world, length, seed):
        make = CODEC_FACTORIES[codec_name]
        _compare(world, length, seed, lambda g, arrays: c_lp_s(arrays, g, make()))

    @pytest.mark.parametrize("codec_name", sorted(CODEC_FACTORIES))
    @settings(max_examples=15, deadline=None)
    @given(world=st.integers(2, 8), length=st.integers(2, 120), seed=seeds)
    def test_d_lp_s_ring(self, codec_name, world, length, seed):
        make = CODEC_FACTORIES[codec_name]
        _compare(world, length, seed, lambda g, arrays: d_lp_s(arrays, g, make(), RingPeers()))

    @settings(max_examples=25, deadline=None)
    @given(
        world=st.integers(2, 8), length=st.integers(1, 120), step=st.integers(0, 5), seed=seeds
    )
    def test_d_fp_s_random_peers(self, world, length, step, seed):
        _compare(
            world, length, seed,
            lambda g, arrays: d_fp_s(arrays, g, RandomPeers(seed=7), step=step),
        )

    @pytest.mark.parametrize("codec_name", sorted(CODEC_FACTORIES))
    def test_c_lp_s_error_feedback_two_steps(self, codec_name):
        # Error feedback carries residual state across steps; both legs
        # must leave the stores bit-identical after a multi-step run.
        world = 4
        make = CODEC_FACTORIES[codec_name]

        def run(group, steps):
            codec = make()
            workers = [ErrorFeedback(make()) for _ in range(world)]
            servers = [ErrorFeedback(make()) for _ in range(world)]
            outs = [
                c_lp_s(arrays, group, codec, worker_errors=workers, server_errors=servers)
                for arrays in steps
            ]
            return outs, workers, servers

        compare(cluster(world), inputs(world, 97, 13, steps=2), run, IN_PROCESS, traced=False)


class TestGossipOutIdentity:
    """``d_fp_s`` / ``d_lp_s`` with ``out=``: wherever the averages land, both
    legs give the oracle's bits, and every landing gives the same ones."""

    @pytest.mark.parametrize("name", ["d_fp_s", "d_lp_s"])
    @pytest.mark.parametrize("topology", ["ring", "random"])
    @settings(max_examples=12, deadline=None)
    @given(
        world=st.integers(1, 9),
        split=st.integers(1, 4),
        hierarchical=st.booleans(),
        length=st.integers(1, 120),
        step=st.integers(0, 5),
        traced=st.booleans(),
        seed=seeds,
    )
    def test_every_landing_is_the_oracle(
        self, name, topology, world, split, hierarchical, length, step, traced, seed
    ):
        # Odd worlds idle a member under random pairing; under H the leaders
        # gossip (nodes of the largest divisor of ``world`` up to ``split``).
        per_node = max(d for d in range(1, split + 1) if world % d == 0) if hierarchical else world
        peers = RingPeers() if topology == "ring" else RandomPeers(seed=7)
        base = inputs(world, length, seed, signed_zeros=True)
        landed = {}
        for mode in OUT_MODES:
            runs = compare(
                cluster(world, per_node), base,
                gossip_run(name, peers, mode, hierarchical, step), IN_PROCESS, traced=traced,
            )
            rows, _codec, after = landed[mode] = runs["local"].bits
            # These inputs own their storage: only ``out=arrays`` writes them.
            assert after == (rows if mode == "arrays" else snapshot(base))
        assert landed["none"] == landed["fresh"]
        assert landed["none"][:2] == landed["arrays"][:2]


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
        seed=seeds,
    )
    def test_hierarchical_c_lp_s(
        self, codec_name, nodes, per_node, length, error_feedback, traced, seed
    ):
        make = CODEC_FACTORIES[codec_name]
        world = nodes * per_node

        def run(group, steps):
            codec = make()
            stores = [ErrorFeedback(make()) for _ in range(2 * world)] if error_feedback else []
            outs = [
                c_lp_s(
                    arrays, group, codec,
                    worker_errors=stores[:world] or None,
                    server_errors=stores[world:] or None,
                    hierarchical=True,
                )
                for arrays in steps
            ]
            assert all(len(step) == world for step in outs)
            return outs, codec, stores

        runs = compare(
            cluster(world, per_node), inputs(world, length, seed, steps=2, signed_zeros=True),
            run, IN_PROCESS, traced=traced,
        )
        assert bool(runs["local"].rounds) == (traced and world > 1)

    @pytest.mark.parametrize("length", [1, 64])
    def test_float32_rows_fold_in_float32(self, length):
        """The leader folds its node's rows in *their* precision — the
        batched path folds straight into its ``DTYPE`` stack only rows that
        are ``DTYPE`` already."""
        rng = np.random.default_rng(length)
        base = [rng.standard_normal(length).astype(np.float32) for _ in range(6)]

        def run(group, arrays):
            codec = CODEC_FACTORIES["qsgd8"]()
            return c_lp_s(arrays, group, codec, hierarchical=True), codec

        compare(cluster(6, 3), base, run, IN_PROCESS, traced=False)

    @settings(max_examples=40, deadline=None)
    @given(
        nodes=st.integers(1, 3),
        per_node=st.integers(1, 4),
        length=st.integers(1, 300),
        traced=st.booleans(),
        seed=seeds,
    )
    def test_full_precision_allreduce_batched(self, nodes, per_node, length, traced, seed):
        world = nodes * per_node
        base = inputs(world, length, seed, signed_zeros=True)

        def run(group, arrays):
            comm = HierarchicalComm(group)
            if group.transport.backend.prefers_fast_path:
                outs = comm.allreduce_batched(arrays, codec=None)
            else:
                outs = comm.allreduce(arrays)
            # These inputs own their storage, so no leg writes them (rows in
            # a backend pool would come back reduced on the batched leg).
            return outs, arrays

        runs = compare(cluster(world, per_node), base, run, IN_PROCESS, traced=traced)
        assert runs["local"].bits[1] == snapshot(base)


class TestScheduleAndAnalysisUnchanged:
    """The batched kernels must not perturb lowered schedules or HB reports."""

    def test_analyze_hb_identical_across_paths(self, monkeypatch):
        from repro.analysis import analyze_algorithm

        reports = {}
        for backend in IN_PROCESS:
            monkeypatch.setenv("REPRO_BACKEND", backend)
            reports[backend] = analyze_algorithm("allreduce", steps=2).to_dict()
        assert reports["local"] == reports["batched"]
        assert reports["batched"]["ok"]

    def test_traced_rounds_identical(self):
        # With a tracer installed the batched kernels route stub messages
        # through exchange(), so recorded rounds must match the loop's
        # message for message.
        runs = _compare(4, 50, 2, lambda g, arrays: scatter_reduce(arrays, g), traced=True)
        assert runs["local"].rounds


class TestFastPathSwitch:
    """The backend is the switch; nothing else selects a path."""

    def test_backend_preference_resolves_default(self):
        # Observable on the wire: loop rounds carry payloads, kernel rounds
        # carry size stubs — for every primitive, flat and under H.
        for nodes, name, hierarchical in itertools.product((2, 1), PRIMITIVES, (False, True)):
            world = nodes * 4
            runs = compare(
                cluster(world, 4), inputs(world, 24, 0),
                lambda g, arrays: PRIMITIVES[name](arrays, g, hierarchical), IN_PROCESS,
            )
            case = f"{name}(hierarchical={hierarchical}) on {nodes}x4"
            assert runs["local"].payloads == sum(map(len, runs["local"].rounds)) > 0, case
            assert runs["batched"].payloads == 0, case


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
            Tensor(np.arange(6, dtype=DTYPE).reshape(2, 3)),
            Tensor(np.ones(4, dtype=DTYPE)),
        ]
        pool = np.empty(10, dtype=DTYPE)
        bucket = TensorBucket(params, buffer=pool)
        assert bucket.buffer is pool
        for p in params:
            assert np.shares_memory(p.data, pool)
        # Mutations through the pool are visible in the parameters.
        pool[:] = 42.0
        assert float(params[0].data[0, 0]) == 42.0

    def test_engine_allocates_one_pool_per_worker(self):
        # Decentralized SGD keeps per-replica weights (``allreduce`` / ``qsgd``
        # replicas share replica 0's: tests/test_shared_replicas.py).
        _observed, trainer = train_epoch("batched", DecentralizedSGD())
        for worker in trainer.engine.workers:
            pool = worker.state["flat_pool"]
            assert pool is not None
            assert pool.dtype == DTYPE
            for bucket in worker.buckets:
                assert np.shares_memory(bucket.buffer, pool)
                assert np.shares_memory(bucket.grad_buffer, pool)


class TestEpochLossParity:
    def test_losses_and_traffic_bitwise_equal(self):
        # QSGD (the default), then every algorithm that hands pool-resident
        # buckets to a dense collective without ``out=``: ``batched`` reduces
        # those rows in place, ``local`` leaves them alone, and the epoch must
        # not be able to tell.
        for algorithm in (None, OneBitAdam, LocalSGD, Horovod, PyTorchDDP, VanillaDPSG):
            observed = {
                backend: train_epoch(backend, algorithm and algorithm())[0]
                for backend in IN_PROCESS
            }
            assert observed["local"] == observed["batched"], algorithm

    @pytest.mark.parametrize("topology", ["ring", "random"])
    @pytest.mark.parametrize("hierarchical", [False, True], ids=["flat", "H"])
    def test_decentralized_gossips_in_place_to_the_same_bits(self, topology, hierarchical):
        # Flat: a world of 3 (a ring member has two sources; random pairing
        # idles one).  Under H: 2 nodes x 2, the leaders a mutual pair.
        world, per_node = (4, 2) if hierarchical else (3, 3)
        observed = {}
        for backend in (*IN_PROCESS, "shm"):
            observed[backend], trainer = train_epoch(
                backend, DecentralizedSGD(topology=topology), world, per_node, hierarchical
            )
            trainer.transport.close()
        assert observed["local"] == observed["batched"] == observed["shm"]

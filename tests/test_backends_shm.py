"""SharedMemoryBackend unit tests: lifecycle, rings, pools, failures.

Bit-identity against the in-process oracle lives in
``test_backend_identity.py``; this file covers the multiprocess machinery
itself.  Per-rank task functions are module-level on purpose — the shm
backend pickles them by reference into the worker processes.
"""

import os
import signal

import numpy as np
import pytest

from repro.cluster import ClusterSpec, Message, Transport
from repro.cluster.backends import (
    BACKEND_REGISTRY,
    BackendError,
    BatchedBackend,
    LocalBackend,
    SharedMemoryBackend,
    available_backends,
    resolve_backend,
)
from repro.cluster.backends.shm import _ACK_RING, _U64, _control_bytes, _record_span
from repro.tensor import DTYPE


def _spec(world: int) -> ClusterSpec:
    return ClusterSpec(num_nodes=1, workers_per_node=world)


def scale_task(pool, factor):
    pool *= factor
    return float(pool.sum())


def echo_task(pool, value):
    return value


def boom_task(pool):
    raise ValueError("boom from the worker")


def bulk_task(pool, n):
    return np.zeros(n)


def suicide_task(pool):
    os.kill(os.getpid(), signal.SIGKILL)


def _segment_names(backend) -> set[str]:
    """Names of every ring and pool segment the backend holds right now."""
    names = {shm.name for h in backend._workers.values() for shm in (h.in_shm, h.out_shm)}
    return names | {shm.name for shm, _pool in backend._pools.values()}


def _leaked(names) -> list[str]:
    return [name for name in names if os.path.exists(f"/dev/shm/{name.lstrip('/')}")]


class TestRegistry:
    def test_names(self):
        assert available_backends() == ["batched", "local", "shm"]
        assert set(BACKEND_REGISTRY) == {"local", "batched", "shm"}

    def test_resolve_by_name(self):
        spec = _spec(2)
        assert isinstance(resolve_backend("local", spec), LocalBackend)
        assert isinstance(resolve_backend("batched", spec), BatchedBackend)
        shm = resolve_backend("shm", spec)
        assert isinstance(shm, SharedMemoryBackend)
        assert shm.world_size == 2
        shm.close()

    def test_resolved_shm_backend_runs_rank_tasks(self):
        """The ``"shm"`` entry imports its module when called and builds a live backend."""
        backend = resolve_backend("shm", _spec(2))
        with Transport(_spec(2), backend=backend):
            backend.allocate_pool(1, 4)[:] = 1.0
            assert backend.run_rank_tasks(scale_task, {1: (3.0,)}) == {1: 12.0}
        assert backend._closed

    def test_resolve_default_is_batched(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None, _spec(2)).name == "batched"

    def test_resolve_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "local")
        assert resolve_backend(None, _spec(2)).name == "local"

    def test_resolve_instance_passthrough(self):
        backend = LocalBackend()
        assert resolve_backend(backend, _spec(2)) is backend

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown transport backend"):
            resolve_backend("carrier-pigeon", _spec(2))

    def test_transport_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "local")
        assert Transport(_spec(2)).backend.name == "local"

    def test_kernel_preferences(self):
        assert LocalBackend.prefers_fast_path is False
        assert BatchedBackend.prefers_fast_path is True
        assert SharedMemoryBackend.prefers_fast_path is True


class TestLocalBackend:
    def test_route_round_groups_in_order(self):
        backend = LocalBackend()
        messages = [
            Message(0, 1, "a"),
            Message(2, 1, "b"),
            Message(0, 2, "c"),
        ]
        inbox = backend.route_round(messages)
        assert [m.payload for m in inbox[1]] == ["a", "b"]
        assert [m.payload for m in inbox[2]] == ["c"]
        assert inbox[1][0] is messages[0]  # in-process hand-off, no copy

    def test_serial_tasks_use_pools(self):
        backend = LocalBackend()
        pool = backend.allocate_pool(0, 4)
        pool[:] = 2.0
        results = backend.run_rank_tasks(scale_task, {0: (3.0,)})
        assert results == {0: 24.0}
        assert pool[0] == 6.0


class TestShmLifecycle:
    def test_lazy_start_and_idempotent_close(self):
        backend = SharedMemoryBackend(2)
        assert not backend._started
        backend.ensure_started()
        assert backend._started
        assert all(h.process.is_alive() for h in backend._workers.values())
        pids = [h.process.pid for h in backend._workers.values()]
        backend.close()
        backend.close()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_context_manager(self):
        with SharedMemoryBackend(2) as backend:
            backend.ensure_started()
            handles = list(backend._workers.values())
        assert all(not h.process.is_alive() for h in handles)

    def test_use_after_close_raises(self):
        backend = SharedMemoryBackend(2)
        backend.ensure_started()
        backend.close()
        with pytest.raises(BackendError, match="closed"):
            backend.ensure_started()

    def test_world_size_validated(self):
        backend = SharedMemoryBackend(2)
        with pytest.raises(ValueError, match="serves 2 ranks"):
            Transport(_spec(3), backend=backend)
        backend.close()

    def test_transport_close_closes_backend(self):
        transport = Transport(_spec(2), backend="shm")
        transport.backend.ensure_started()
        with Transport(_spec(2), backend="local"):
            pass
        transport.close()
        assert transport.backend._closed

    def test_dead_worker_detected_and_cleaned_up(self):
        backend = SharedMemoryBackend(2, timeout_s=30.0)
        transport = Transport(_spec(2), backend=backend)
        transport.exchange([Message(0, 1, np.zeros(3))])
        victim = backend._workers[1].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        # Detected either at doorbell send (broken pipe) or while awaiting
        # the ack (liveness poll), depending on kernel buffering.
        with pytest.raises(BackendError, match="died|pipe is gone"):
            transport.exchange([Message(0, 1, np.zeros(3))])
        assert backend._closed  # orphan cleanup ran

    def test_worker_killed_mid_program_is_detected_by_the_liveness_beat(self):
        # The timeout is far beyond the test's run time, so only the
        # liveness beat of the flag-only ack wait can explain "died".
        backend = SharedMemoryBackend(2, timeout_s=600.0)
        backend.allocate_pool(1, 4)
        backend.ensure_started()
        names = _segment_names(backend)
        with pytest.raises(BackendError, match="worker 1 died"):
            backend.run_rank_tasks(suicide_task, {1: ()})
        assert backend._closed
        assert _leaked(names) == []


class TestShmPayloads:
    @pytest.fixture(scope="class")
    def transport(self):
        with Transport(_spec(2), backend="shm") as transport:
            yield transport

    def _roundtrip(self, transport, payload):
        return transport.exchange([Message(0, 1, payload)])[1][0].payload

    def test_f64_raw_bitwise(self, transport):
        sent = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300])
        got = self._roundtrip(transport, sent)
        assert got.dtype == np.float64
        assert sent.tobytes() == got.tobytes()  # bit-for-bit, incl. -0.0/NaN
        # Batched mode delivers the sender's object (the oracle's hand-off
        # semantics) — the staged ring record alone feeds the echo check, so
        # no decode-copy is made for the inbox.
        assert got is sent

    def test_non_contiguous_and_other_dtypes(self, transport):
        strided = np.arange(10.0)[::2]
        assert np.array_equal(self._roundtrip(transport, strided), strided)
        f32 = np.arange(4, dtype=np.float32)
        got = self._roundtrip(transport, f32)
        assert got.dtype == np.float32 and np.array_equal(got, f32)

    def test_structured_payloads(self, transport):
        payload = {"k": np.float32(2.5), "v": [1, (2, np.arange(3.0))], "e": ()}
        got = self._roundtrip(transport, payload)
        assert got["k"] == np.float32(2.5)
        assert np.array_equal(got["v"][1][1], np.arange(3.0))
        assert got["e"] == ()

    def test_ring_wraparound_many_rounds(self, transport):
        for i in range(300):
            got = self._roundtrip(transport, np.full(1024, float(i)))
            assert got[0] == float(i)

    def test_oversize_payload_grows_the_ring(self):
        backend = SharedMemoryBackend(2, ring_bytes=1 << 14)
        with Transport(_spec(2), backend=backend) as tr:
            backend.ensure_started()
            names = _segment_names(backend)
            big = np.random.default_rng(0).standard_normal(1 << 12)  # 32 KiB > ring
            for _ in range(2):
                got = tr.exchange([Message(0, 1, big)])[1][0].payload
                assert got.tobytes() == big.tobytes()
                backend.flush()  # the worker's echo is byte-compared here
            assert backend.shm_stats["grows"] == 1  # the second exchange fits
            assert backend._workers[1].in_shm.size == backend._workers[1].out_shm.size == 1 << 16
            assert backend._workers[0].in_shm.size == 1 << 14
            names |= _segment_names(backend)
        assert len(names) == 6
        assert _leaked(names) == []

    def test_batch_at_its_ring_budget_acks_through_the_ring(self):
        # One-record rounds cost the most program and reply bytes per
        # staged byte; a sanitized batch filled until the next round no
        # longer fits must still ack through the out ring.
        backend = SharedMemoryBackend(2, ring_bytes=1 << 13, sanitize=True)
        with Transport(_spec(2), backend=backend) as tr:
            backend.ensure_started()
            handle = backend._workers[1]
            payload = np.ones(1, dtype=DTYPE)
            span = _record_span(payload.nbytes)
            while backend.shm_stats["batches"] == 0:
                pending = backend._batches.get(1)
                full = pending is not None and (
                    span + _control_bytes(pending.records + 1) > handle.writer.free()
                )
                tr.exchange([Message(0, 1, payload)])
            assert full and len(pending.program) < 128  # flushed by the ring budget
            flag = _U64.unpack_from(handle.out_shm.buf, 0)[0]
            assert (flag >> 8, flag & 0xFF) == (pending.seq + 1, _ACK_RING)
            backend.close()
            assert backend.conformance_findings() == []

    def test_round_order_preserved_per_destination(self, transport):
        inbox = transport.exchange(
            [Message(0, 1, ("first", 1)), Message(0, 1, ("second", 2))]
        )
        assert [m.payload[0] for m in inbox[1]] == ["first", "second"]


class TestBatchedRounds:
    def test_default_batches_rounds_behind_flag_doorbells(self):
        with Transport(_spec(2), backend="shm") as transport:
            backend = transport.backend
            for i in range(3):
                got = transport.exchange([Message(0, 1, np.full(16, float(i)))])
                assert got[1][0].payload[0] == float(i)
            backend.flush()
            stats = backend.shm_stats
            assert stats["batches"] >= 1
            assert stats["flag_doorbells"] >= 1

    def test_flush_without_staged_work_is_a_noop(self):
        with Transport(_spec(2), backend="shm") as transport:
            backend = transport.backend
            transport.exchange([Message(0, 1, np.arange(4.0))])
            backend.flush()
            batches = backend.shm_stats["batches"]
            backend.flush()
            backend.flush()
            assert backend.shm_stats["batches"] == batches

    def test_tasks_flush_pending_rounds_first(self):
        with Transport(_spec(2), backend="shm") as transport:
            backend = transport.backend
            pool = backend.allocate_pool(1, 4)
            pool[:] = 1.0
            transport.exchange([Message(0, 1, np.arange(4.0))])
            # The staged round must drain before the task executes.
            assert backend.run_rank_tasks(scale_task, {1: (3.0,)}) == {1: 12.0}
            assert backend.shm_stats["batches"] >= 1


class TestShmPoolsAndTasks:
    def test_pool_shared_with_worker(self):
        with Transport(_spec(2), backend="shm") as transport:
            backend = transport.backend
            pool = backend.allocate_pool(0, 8)
            pool[:] = np.arange(8.0)
            results = backend.run_rank_tasks(scale_task, {0: (2.0,)})
            assert results == {0: float(np.arange(8.0).sum() * 2.0)}
            # The worker's in-place write is visible through the parent view.
            assert np.array_equal(pool, np.arange(8.0) * 2.0)

    def test_pool_reallocation_replaces_mapping(self):
        with Transport(_spec(2), backend="shm") as transport:
            backend = transport.backend
            backend.allocate_pool(0, 4)[:] = 1.0
            new = backend.allocate_pool(0, 6)
            new[:] = 5.0
            assert backend.run_rank_tasks(scale_task, {0: (1.0,)}) == {0: 30.0}

    def test_tasks_run_on_requested_ranks_only(self):
        with Transport(_spec(2), backend="shm") as transport:
            results = transport.backend.run_rank_tasks(echo_task, {1: ("only-me",)})
            assert results == {1: "only-me"}

    def test_oversize_task_result_is_a_located_error(self):
        backend = SharedMemoryBackend(2, ring_bytes=1 << 14)
        with Transport(_spec(2), backend=backend):
            with pytest.raises(
                BackendError,
                match=r"worker 0: task result of \d+ bytes in batch seq \d+ "
                r"does not fit the 16384-byte out ring",
            ):
                backend.run_rank_tasks(bulk_task, {0: (1 << 12,)})
            assert backend.run_rank_tasks(echo_task, {0: (7,)}) == {0: 7}

    def test_task_error_propagates_with_traceback(self):
        with Transport(_spec(2), backend="shm") as transport:
            with pytest.raises(BackendError, match="boom from the worker"):
                transport.backend.run_rank_tasks(boom_task, {0: ()})
            # A failed task does not kill the worker; the backend stays usable.
            assert transport.backend.run_rank_tasks(echo_task, {0: (7,)}) == {0: 7}

    def test_describe_reports_shm_facts(self):
        with Transport(_spec(2), backend="shm") as transport:
            transport.backend.ensure_started()
            info = transport.backend.describe()
            assert info["name"] == "shm"
            assert info["world_size"] == 2
            assert info["started"] is True
            assert info["start_method"] in ("fork", "spawn")


class TestPoolRefReduce:
    """PoolRef resolution and the in-place worker-parallel reduction (PR 10)."""

    def test_pool_ref_resolution(self):
        with Transport(_spec(2), backend="shm") as transport:
            backend = transport.backend
            pool = backend.allocate_pool(0, 16)
            ref = backend.pool_ref(pool)
            assert (ref.rank, ref.offset, ref.length) == (0, 0, 16)
            sub = backend.pool_ref(pool[2:6])  # interior dense view
            assert (sub.rank, sub.offset, sub.length) == (0, 2, 4)
            assert backend.pool_ref(np.arange(4.0)) is None  # owns its storage
            assert backend.pool_ref(pool[::2]) is None  # strided
            assert backend.pool_ref(pool.astype(np.float32)) is None  # dtype
            assert backend.pool_ref(pool[0:0]) is None  # empty

    def test_resolve_pool_refs_requires_ownership_and_uniform_length(self):
        with Transport(_spec(2), backend="shm") as transport:
            backend = transport.backend
            pools = [backend.allocate_pool(rank, 8) for rank in range(2)]
            refs = backend.resolve_pool_refs(pools, [0, 1])
            assert refs is not None and [r.rank for r in refs] == [0, 1]
            # Member 0's array in rank 1's pool breaks the ownership
            # assumption the chunk schedule relies on.
            assert backend.resolve_pool_refs([pools[1], pools[0]], [0, 1]) is None
            # Non-uniform lengths cannot share one chunk layout.
            assert backend.resolve_pool_refs([pools[0][:4], pools[1]], [0, 1]) is None
            # Any non-pool member keeps the whole collective on the codec path.
            assert backend.resolve_pool_refs([pools[0], np.arange(8.0)], [0, 1]) is None

    @pytest.mark.parametrize("backend_name", ["batched", "shm"])
    def test_a_view_into_another_ranks_pool_does_not_resolve(self, backend_name):
        """Only member ``i``'s own pool is looked in: a dense view that does
        resolve on its own, through ``pool_ref``, still fails the collective
        when it lies in another rank's pool."""
        with Transport(_spec(3), backend=backend_name) as transport:
            backend = transport.backend
            pools = [backend.allocate_pool(rank, 8) for rank in range(3)]
            views = [pool[2:6] for pool in pools]
            assert [r.offset for r in backend.resolve_pool_refs(views, [0, 1, 2])] == [2, 2, 2]
            stray = pools[2][4:8]  # rank 2's, offered as rank 1's
            ref = backend.pool_ref(stray)
            assert (ref.rank, ref.offset, ref.length) == (2, 4, 4) and backend.pool_ref(stray, 2) == ref
            assert backend.pool_ref(stray, 1) is None
            assert backend.resolve_pool_refs([views[0], stray, views[2]], [0, 1, 2]) is None

    @pytest.mark.parametrize("add_zero", [True, False], ids=["add-zero", "plain"])
    def test_worker_parallel_reduce_matches_serial_fold(self, add_zero):
        world = 3
        backend = SharedMemoryBackend(world)
        with Transport(_spec(world), backend=backend):
            rng = np.random.default_rng(61)
            pools = [backend.allocate_pool(rank, 12) for rank in range(world)]
            base = [rng.standard_normal(12).astype(DTYPE) for _ in range(world)]
            for pool, data in zip(pools, base):
                pool[:] = data
            refs = backend.resolve_pool_refs(pools, list(range(world)))
            # Per-chunk fold orders: chunk j folds members rotated by j.
            bounds = [(0, 4), (4, 8), (8, 12)]
            chunks = [
                (lo, hi, tuple((j + t) % world for t in range(world)))
                for j, (lo, hi) in enumerate(bounds)
            ]
            backend.pool_ref_reduce(refs, chunks, add_zero=add_zero)
            for j, (lo, hi, order) in enumerate(chunks):
                acc = base[order[0]][lo:hi].copy()
                for member in order[1:]:
                    acc += base[member][lo:hi]
                if add_zero:
                    acc += 0.0
                for pool in pools:  # broadcast: every member's slice updated
                    assert pool[lo:hi].tobytes() == acc.tobytes()

    def test_chunk_count_mismatch_raises(self):
        with Transport(_spec(2), backend="shm") as transport:
            backend = transport.backend
            pools = [backend.allocate_pool(rank, 8) for rank in range(2)]
            refs = backend.resolve_pool_refs(pools, [0, 1])
            with pytest.raises(ValueError, match="chunk"):
                backend.pool_ref_reduce(refs, [(0, 8, (0, 1))], add_zero=False)

    def test_round_stats_count_rounds_only(self):
        # payload_bytes is a *round* traffic counter: tasks and pool-ref
        # reduces must not move it.
        backend = SharedMemoryBackend(2)
        with Transport(_spec(2), backend=backend) as transport:
            pools = [backend.allocate_pool(rank, 8) for rank in range(2)]
            transport.exchange([Message(0, 1, np.arange(8.0))])
            backend.flush()
            payload_bytes = backend.shm_stats["payload_bytes"]
            assert payload_bytes > 0
            backend.run_rank_tasks(echo_task, {0: (1,), 1: (2,)})
            refs = backend.resolve_pool_refs(pools, [0, 1])
            backend.pool_ref_reduce(refs, [(0, 4, (0, 1)), (4, 8, (0, 1))], add_zero=True)
            backend.flush()
            assert backend.shm_stats["payload_bytes"] == payload_bytes
            assert backend.shm_stats["reduces"] == 2

    def test_descriptor_shrinks_round_payload_bytes(self):
        # A pool-resident payload of half a megabyte crosses the ring as a
        # ~25-byte descriptor; a same-sized non-pool payload ships in full.
        with Transport(_spec(2), backend="shm") as transport:
            backend = transport.backend
            pool = backend.allocate_pool(0, 1 << 16)
            pool[:] = 1.0
            before = backend.shm_stats["payload_bytes"]
            transport.exchange([Message(0, 1, pool)])
            backend.flush()
            descriptor_bytes = backend.shm_stats["payload_bytes"] - before
            assert 0 < descriptor_bytes < 100
            assert backend.shm_stats["pool_ref_payloads"] == 1
            before = backend.shm_stats["payload_bytes"]
            transport.exchange([Message(0, 1, pool.copy())])  # not pool storage
            backend.flush()
            assert backend.shm_stats["payload_bytes"] - before >= pool.nbytes

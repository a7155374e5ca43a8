"""Benchmark suite: loop reference vs world-batched fast path.

Every benchmark times the *same* computation twice — once through the
per-rank loop kernels (``fast_path=False``) and once through the batched
``(world, n)`` kernels (``fast_path=True``).  The two are bitwise
identical in results, traffic accounting and simulated clocks (enforced
by ``tests/test_fastpath_identity.py``), so the ratio is a pure
wall-clock speedup.

Timing protocol: best-of-``repeats`` wall time (``time.perf_counter``)
around each call; fixed seeds; one transport per (benchmark, world) so
both paths pay the same virtual-clock bookkeeping.  A calibration
workload (python-loop + BLAS mix) is timed alongside so the regression
gate can normalize committed baseline times across machines.
"""

from __future__ import annotations

import gc
import math
import os
import time
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from ..cluster import ClusterSpec, TCP_25G, Transport
from ..comm import CommGroup, chunk_bounds, ring_allreduce, scatter_reduce
from ..compression import (
    OneBitCompressor,
    QSGDCompressor,
    SignSGDCompressor,
    TernGradCompressor,
    TopKCompressor,
)
from ..core.primitives import RingPeers, c_lp_s, d_fp_s

#: Calibrated fast-path time may grow at most this fraction over baseline.
REGRESSION_THRESHOLD = 0.20

#: Hard minimum loop/fast speedups — ``(name, world) -> floor``; the best
#: record across sizes must clear the floor (acceptance criteria of PR 5).
MIN_SPEEDUP_FLOORS: dict[tuple[str, int], float] = {
    ("scatter_reduce", 16): 5.0,
    ("qsgd8", 16): 5.0,
}

#: Floors that only apply on machines with enough cores:
#: ``(name, world) -> (floor, min_cpu_count)``.  The compute-bound epoch
#: benchmark times serial local execution against the shm backend's
#: one-process-per-rank execution, so its ≥1.8x scaling requirement (PR 7
#: acceptance criterion) is only meaningful with ≥4 real cores.
CONDITIONAL_SPEEDUP_FLOORS: dict[tuple[str, int], tuple[float, int]] = {
    ("epoch_compute_bound", 4): (1.8, 4),
    # Worker-parallel in-place pool reduction vs the parent executing the
    # same chunk schedule serially (PR 10 acceptance criterion): the four
    # workers fold concurrently, so the floor needs ≥4 real cores.
    ("shm_pool_reduce", 4): (2.0, 4),
}

#: Records the suite reports but :func:`check_against_baseline` never gates,
#: whatever a baseline document holds for them.
REPORT_ONLY = frozenset({"symbolic_lowering"})

CALIBRATION_REPEATS = 5

WORLDS_FULL = (4, 16, 64)
WORLDS_QUICK = (4, 16)
SIZES_FULL = (4096, 16384, 65536)
SIZES_QUICK = (4096, 16384)


@dataclass
class BenchRecord:
    """One (kernel, world, size) measurement of both paths."""

    name: str
    world: int
    size: int
    loop_s: float
    fast_s: float

    @property
    def speedup(self) -> float:
        return self.loop_s / self.fast_s if self.fast_s > 0 else math.inf

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "world": self.world,
            "size": self.size,
            "loop_s": self.loop_s,
            "fast_s": self.fast_s,
            "speedup": self.speedup,
        }


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Steady-state best-of-``repeats`` wall time.

    One untimed warmup call first: it populates the one-time caches on both
    paths (pair/NIC-chain lookups, memoized send lists, allocator arenas) so
    short quick-mode runs measure the same steady state as full runs.

    The collector is drained before and disabled across the measured
    region: a cycle collection landing inside one repeat but not another
    is pure timing noise, and best-of cannot fully mask it on the short
    microbenches.
    """
    fn()
    best = math.inf
    gc.collect()
    gc.disable()
    try:
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def _make_group(world: int) -> CommGroup:
    """A fresh simulated cluster: nodes of 4 workers (single node when ≤4)."""
    if world > 4 and world % 4 == 0:
        nodes, per_node = world // 4, 4
    else:
        nodes, per_node = 1, world
    spec = ClusterSpec(num_nodes=nodes, workers_per_node=per_node, inter_node=TCP_25G)
    return CommGroup(Transport(spec), list(range(world)))


def calibrate(repeats: int = CALIBRATION_REPEATS) -> float:
    """Time a fixed python-loop + BLAS workload for machine normalization."""
    rng = np.random.default_rng(1234)
    a = rng.standard_normal((192, 192))

    def work() -> float:
        acc = 0.0
        for row in a:
            acc += float(row @ row)
        return acc + float((a @ a).sum())

    return _best_of(work, repeats)


# ----------------------------------------------------------------------
# Collective benchmarks
# ----------------------------------------------------------------------
def _bench_scatter_reduce(
    worlds: Iterable[int], sizes: Iterable[int], repeats: int
) -> list[BenchRecord]:
    records = []
    for world in worlds:
        group = _make_group(world)
        rng = np.random.default_rng(world)
        for size in sizes:
            arrays = [rng.standard_normal(size) for _ in range(world)]
            loop_s = _best_of(lambda: scatter_reduce(arrays, group, fast_path=False), repeats)
            fast_s = _best_of(lambda: scatter_reduce(arrays, group, fast_path=True), repeats)
            records.append(BenchRecord("scatter_reduce", world, size, loop_s, fast_s))
        group.transport.close()
    return records


def _bench_ring_allreduce(
    worlds: Iterable[int], size: int, repeats: int
) -> list[BenchRecord]:
    records = []
    for world in worlds:
        group = _make_group(world)
        rng = np.random.default_rng(world)
        arrays = [rng.standard_normal(size) for _ in range(world)]
        loop_s = _best_of(lambda: ring_allreduce(arrays, group, fast_path=False), repeats)
        fast_s = _best_of(lambda: ring_allreduce(arrays, group, fast_path=True), repeats)
        records.append(BenchRecord("ring_allreduce", world, size, loop_s, fast_s))
        group.transport.close()
    return records


def _bench_gossip(worlds: Iterable[int], size: int, repeats: int) -> list[BenchRecord]:
    peers = RingPeers()
    records = []
    for world in worlds:
        group = _make_group(world)
        rng = np.random.default_rng(world)
        arrays = [rng.standard_normal(size) for _ in range(world)]
        loop_s = _best_of(lambda: d_fp_s(arrays, group, peers, fast_path=False), repeats)
        fast_s = _best_of(lambda: d_fp_s(arrays, group, peers, fast_path=True), repeats)
        records.append(BenchRecord("gossip_d_fp_s", world, size, loop_s, fast_s))
        group.transport.close()
    return records


def _bench_c_lp_s(worlds: Iterable[int], size: int, repeats: int) -> list[BenchRecord]:
    records = []
    for world in worlds:
        group = _make_group(world)
        rng = np.random.default_rng(world)
        arrays = [rng.standard_normal(size) for _ in range(world)]
        codec = QSGDCompressor(bits=8, rng=np.random.default_rng(7))
        loop_s = _best_of(
            lambda: c_lp_s(arrays, group, codec, fast_path=False), repeats
        )
        fast_s = _best_of(
            lambda: c_lp_s(arrays, group, codec, fast_path=True), repeats
        )
        records.append(BenchRecord("c_lp_s_qsgd8", world, size, loop_s, fast_s))
        group.transport.close()
    return records


# ----------------------------------------------------------------------
# Compressor benchmarks
# ----------------------------------------------------------------------
def _compressor_zoo() -> list[tuple[str, Callable[[], object]]]:
    return [
        ("qsgd8", lambda: QSGDCompressor(bits=8, rng=np.random.default_rng(7))),
        ("onebit", OneBitCompressor),
        ("terngrad", lambda: TernGradCompressor(rng=np.random.default_rng(7))),
        ("topk1pct", lambda: TopKCompressor(ratio=0.01)),
        ("signsgd", SignSGDCompressor),
    ]


def _bench_compressors(
    worlds: Iterable[int], cols: int, repeats: int
) -> list[BenchRecord]:
    """Batched ``batch_roundtrip`` vs the per-rank scalar roundtrip loop.

    The loop reference is exactly what the loop-path collectives execute:
    ``decompress(compress(segment))`` per member per chunk.
    """
    records = []
    for world in worlds:
        rng = np.random.default_rng(world)
        matrix = rng.standard_normal((world, cols))
        bounds = chunk_bounds(cols, world)
        for name, make in _compressor_zoo():
            codec = make()

            def loop_run() -> np.ndarray:
                out = np.empty_like(matrix)
                for i in range(matrix.shape[0]):
                    for lo, hi in bounds:
                        out[i, lo:hi] = codec.decompress(codec.compress(matrix[i, lo:hi]))
                return out

            loop_s = _best_of(loop_run, repeats)
            fast_s = _best_of(lambda: codec.batch_roundtrip(matrix, bounds), repeats)
            records.append(BenchRecord(name, world, cols, loop_s, fast_s))
    return records


# ----------------------------------------------------------------------
# Functional-mode epoch benchmark
# ----------------------------------------------------------------------
def _bench_epoch(worlds: Iterable[int]) -> list[BenchRecord]:
    """One functional training epoch (VGG proxy + QSGD-8bit), both paths."""
    from ..algorithms import QSGD
    from ..core.optimizer_framework import BaguaConfig
    from ..data.loader import make_sharded_loaders
    from ..training import DistributedTrainer, get_task

    task = get_task("VGG16")
    dataset = task.dataset_factory(0)
    records = []
    for world in worlds:
        if world > 4 and world % 4 == 0:
            nodes, per_node = world // 4, 4
        else:
            nodes, per_node = 1, world
        spec = ClusterSpec(num_nodes=nodes, workers_per_node=per_node, inter_node=TCP_25G)
        times = {}
        for fast in (False, True):
            trainer = DistributedTrainer(
                spec,
                task.model_factory,
                task.make_optimizer,
                QSGD(bits=8),
                config=BaguaConfig(fast_path=fast),
                seed=0,
            )
            # Large worlds shard the 512-example set below the task's default
            # batch size, so cap batches at the shard size.
            batch = min(task.batch_size, len(dataset) // world)
            loaders = make_sharded_loaders(dataset, world, batch, seed=0)
            # Best of two epochs; replica construction stays outside the timer.
            times[fast] = _best_of(
                lambda: trainer.train(loaders, task.loss_fn, epochs=1, label="perf"), 2
            )
            trainer.transport.close()
        records.append(
            BenchRecord("epoch_vgg16_qsgd8", world, 0, times[False], times[True])
        )
    return records


# ----------------------------------------------------------------------
# Backend scaling benchmark
# ----------------------------------------------------------------------
def _bench_backend_epoch(world: int, repeats: int) -> list[BenchRecord]:
    """Compute-bound epoch: serial in-process vs shm one-process-per-rank.

    ``loop_s`` is the ``local`` backend (all ranks' tasks run serially in
    the parent), ``fast_s`` the ``shm`` backend (one OS process per rank),
    so the speedup column is real multi-core scaling — the one thing the
    single-process fast path cannot show by construction.  Results are
    asserted bitwise identical across the two backends before timing
    counts.
    """
    from .workloads import EPOCH_ITERS, EPOCH_POOL_ELEMENTS, compute_epoch_task

    spec = ClusterSpec(num_nodes=1, workers_per_node=world)
    args = {rank: (rank, EPOCH_ITERS) for rank in range(world)}
    times: dict[str, float] = {}
    results: dict[str, dict[int, float]] = {}
    for name in ("local", "shm"):
        transport = Transport(spec, backend=name)
        try:
            backend = transport.backend
            for rank in range(world):
                backend.allocate_pool(rank, EPOCH_POOL_ELEMENTS)
            results[name] = backend.run_rank_tasks(compute_epoch_task, args)
            times[name] = _best_of(
                lambda: backend.run_rank_tasks(compute_epoch_task, args), repeats
            )
        finally:
            transport.close()
    for rank in range(world):
        a, b = results["local"][rank], results["shm"][rank]
        if a != b:
            raise AssertionError(
                f"backend results diverge at rank {rank}: local={a!r} shm={b!r}"
            )
    return [
        BenchRecord(
            "epoch_compute_bound", world, EPOCH_POOL_ELEMENTS,
            times["local"], times["shm"],
        )
    ]


# ----------------------------------------------------------------------
# Pool-reduce and wire-codec benchmarks
# ----------------------------------------------------------------------
def _bench_shm_pool_reduce(
    world: int, sizes: Iterable[int], repeats: int
) -> list[BenchRecord]:
    """In-place pool reduction: parent-serial vs worker-parallel (PR 10).

    Both legs execute the *same* scatter-reduce chunk schedule in place on
    the same cross-process mapped pools — ``loop_s`` through the base
    class's generic executor (the parent folds every chunk serially on its
    own mappings), ``fast_s`` through the shm backend's override (each
    chunk ships to its owner's worker as a 25-byte descriptor and all
    workers fold concurrently).  Results are asserted bitwise identical
    before timing counts, so the speedup column is pure multi-core scaling
    of the reduction itself.
    """
    from ..cluster.backends.base import TransportBackend
    from ..cluster.backends.shm import SharedMemoryBackend

    records = []
    backend = SharedMemoryBackend(world_size=world, ring_bytes=1 << 16)
    try:
        for size in sizes:
            pools = [backend.allocate_pool(rank, size) for rank in range(world)]
            rng = np.random.default_rng(size)
            seed = [rng.standard_normal(size) for _ in range(world)]
            refs = backend.resolve_pool_refs(pools, list(range(world)))
            if refs is None:
                raise AssertionError("pool arrays did not resolve to PoolRefs")
            order = tuple(range(world))
            chunks = [(lo, hi, order) for lo, hi in chunk_bounds(size, world)]

            def reset() -> None:
                for pool, data in zip(pools, seed):
                    pool[:] = data

            # Bitwise identity of the two executors on this schedule.
            reset()
            TransportBackend.pool_ref_reduce(backend, refs, chunks, add_zero=True)
            expected = [pool.copy() for pool in pools]
            reset()
            backend.pool_ref_reduce(refs, chunks, add_zero=True)
            for rank, (pool, want) in enumerate(zip(pools, expected)):
                if not np.array_equal(pool, want):
                    raise AssertionError(
                        f"worker-parallel pool reduce diverged at rank {rank}"
                    )

            loop_s = _best_of(
                lambda: TransportBackend.pool_ref_reduce(
                    backend, refs, chunks, add_zero=True
                ),
                repeats,
            )
            fast_s = _best_of(
                lambda: backend.pool_ref_reduce(refs, chunks, add_zero=True), repeats
            )
            records.append(BenchRecord("shm_pool_reduce", world, size, loop_s, fast_s))
    finally:
        backend.close()
    return records


def _bench_wire_codec(repeats: int) -> list[BenchRecord]:
    """Wire-codec round-trip vs pickle on compressed round payloads.

    Asserts each compressed payload actually takes the pickle-free codec
    path in the shm record encoder (the PR 9 acceptance criterion) before
    timing ``loop_s`` (pickle round-trip) against ``fast_s`` (wire codec
    round-trip).  No speed floor applies: the codec's value is a
    self-describing, blittable wire format, not beating C pickle.
    """
    import pickle

    from ..cluster.backends import shm, wire

    rng = np.random.default_rng(5)
    grad = rng.standard_normal(16384)
    cases = [
        ("wire_qsgd8", QSGDCompressor(bits=8, rng=np.random.default_rng(7)).compress(grad)),
        ("wire_onebit", OneBitCompressor().compress(grad)),
        ("wire_topk1pct", TopKCompressor(ratio=0.01).compress(grad)),
    ]
    records = []
    for name, payload in cases:
        kind, _data = shm._encode(payload)
        if kind != shm._CODEC:
            raise AssertionError(
                f"{name}: compressed payload fell back to kind {kind} instead of "
                "the pickle-free wire codec"
            )
        loop_s = _best_of(
            lambda: pickle.loads(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)),
            repeats,
        )
        fast_s = _best_of(lambda: wire.decode(wire.encode(payload)), repeats)
        records.append(BenchRecord(name, 1, grad.size, loop_s, fast_s))
    return records


# ----------------------------------------------------------------------
# Plan checking: execution vs symbolic lowering
# ----------------------------------------------------------------------
def _bench_symbolic_lowering(repeats: int) -> list[BenchRecord]:
    """Per-plan cost of obtaining the comm-op IR, over every registered
    algorithm and baseline at world 4 (``size`` = plans lowered).

    ``loop_s``: check by execution — build a probe engine and record the
    driver's 5-step dry run.  ``fast_s``: lower one of the sixteen
    ``sweep_variants`` rewrites from the plan description alone.  The
    executed leg is bound by autograd speed, which moves for reasons that
    have nothing to do with the lowering, so the record is
    :data:`REPORT_ONLY`.
    """
    from ..algorithms.registry import ALGORITHM_REGISTRY
    from ..analysis.driver import probe_algorithm, record_dry_run
    from ..analysis.symbolic import PlanPoint, sweep_variants
    from ..baselines import BASELINE_REGISTRY

    names = sorted(ALGORITHM_REGISTRY) + sorted(BASELINE_REGISTRY)
    spec = ClusterSpec(num_nodes=2, workers_per_node=2)
    points = [PlanPoint(algorithm=name, world_size=4, workers_per_node=2) for name in names]

    def executed() -> None:
        for name in names:
            record_dry_run(probe_algorithm(name), spec)

    def symbolic() -> int:
        return sum(len(sweep_variants(point)) for point in points)

    plans = symbolic()
    return [
        BenchRecord(
            "symbolic_lowering", 4, plans,
            _best_of(executed, repeats) / len(names), _best_of(symbolic, repeats) / plans,
        )
    ]


# ----------------------------------------------------------------------
# Suite driver
# ----------------------------------------------------------------------
def run_suite(quick: bool = False, repeats: int | None = None) -> dict:
    """Run every benchmark and return the BENCH result document."""
    if repeats is None:
        repeats = 2 if quick else 3
    worlds = WORLDS_QUICK if quick else WORLDS_FULL
    sizes = SIZES_QUICK if quick else SIZES_FULL

    records: list[BenchRecord] = []
    records += _bench_scatter_reduce(worlds, sizes, repeats)
    records += _bench_ring_allreduce(worlds, 65536, repeats)
    records += _bench_gossip(worlds, 65536, repeats)
    records += _bench_c_lp_s(worlds, 16384, repeats)
    records += _bench_compressors(worlds, 1024, repeats)
    records += _bench_epoch(WORLDS_QUICK[:1] if quick else worlds)
    records += _bench_backend_epoch(4, repeats)
    records += _bench_shm_pool_reduce(4, (1 << 19,) if quick else (1 << 19, 1 << 21), repeats)
    records += _bench_wire_codec(repeats)
    records += _bench_symbolic_lowering(repeats)

    from ..cluster.backends import BACKEND_ENV_VAR, DEFAULT_BACKEND

    return {
        "schema": 1,
        "suite": "bagua-repro-perf",
        "quick": quick,
        "repeats": repeats,
        "backend": os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND,
        "cpu_count": os.cpu_count(),
        "calibration_s": calibrate(),
        "records": [r.to_dict() for r in records],
    }


def render(result: dict) -> str:
    lines = [
        f"{'benchmark':<22} {'world':>5} {'size':>7} {'loop_s':>10} {'fast_s':>10} {'speedup':>8}"
    ]
    for r in result["records"]:
        lines.append(
            f"{r['name']:<22} {r['world']:>5} {r['size']:>7} "
            f"{r['loop_s']:>10.5f} {r['fast_s']:>10.5f} {r['speedup']:>7.1f}x"
        )
    lines.append(f"calibration: {result['calibration_s']:.5f}s")
    if "backend" in result:
        lines.append(
            f"backend: {result['backend']} (cpu_count={result.get('cpu_count')}; "
            "epoch_compute_bound columns are local-serial vs shm-parallel)"
        )
    return "\n".join(lines)


def check_against_baseline(
    current: dict,
    baseline: dict | None,
    threshold: float = REGRESSION_THRESHOLD,
    floors: dict[tuple[str, int], float] | None = None,
) -> list[str]:
    """Return failure messages (empty = pass).

    Two gates:

    Regression is judged on loop/fast *speedups*, not absolute times:
    loop and fast run seconds apart in the same process, so machine-speed
    drift (30 % between runs on shared CI machines, untracked by any
    separate calibration workload) cancels out, while a genuine fast-path
    regression lowers speedup directly.  Three gates:

    * **Suite regression** — the geometric mean of speedups over *all*
      points present in both documents must not fall more than
      ``threshold`` below the baseline's.  Averaging ~30 points makes
      this immune to single-point jitter (1.5x run-to-run) while any
      broad fast-path slowdown moves it in full.
    * **Kernel regression** — per record name, the geomean speedup must
      not fall more than ``2 * threshold`` below the baseline's.  Looser
      because per-kernel aggregates carry only a few points, but it still
      catches a regression confined to one kernel that the suite-wide
      mean would dilute.
    * **Floors** — the best loop/fast speedup per ``(name, world)`` in
      :data:`MIN_SPEEDUP_FLOORS` must clear its minimum, regardless of the
      baseline.
    """
    from ..cluster.backends import DEFAULT_BACKEND

    failures: list[str] = []

    if baseline is not None:
        # A baseline only gates runs on the backend it was recorded with:
        # loop/fast ratios shift with the transport substrate (e.g. the shm
        # backend adds IPC to loop rounds), so cross-backend comparison
        # would flag phantom regressions.  Floors still apply below.
        current_backend = current.get("backend", DEFAULT_BACKEND)
        baseline_backend = baseline.get("backend", DEFAULT_BACKEND)
        if current_backend != baseline_backend:
            baseline = None

    if baseline is not None:
        cur_index = {
            (r["name"], r["world"], r["size"]): r for r in current["records"]
        }
        speedups: dict[str, list[tuple[float, float]]] = {}
        for base in baseline["records"]:
            key = (base["name"], base["world"], base["size"])
            cur = cur_index.get(key)
            # Quick runs cover a subset of the full baseline.
            if cur is None or base["name"] in REPORT_ONLY:
                continue
            speedups.setdefault(base["name"], []).append(
                (cur["speedup"], base["speedup"])
            )

        def _geomean(values: list[float]) -> float:
            return math.exp(sum(math.log(v) for v in values) / len(values))

        all_pairs = [p for pairs in speedups.values() for p in pairs]
        if not all_pairs:
            failures.append("baseline shares no benchmarks with this run")
        else:
            cur_gm = _geomean([c for c, _ in all_pairs])
            base_gm = _geomean([b for _, b in all_pairs])
            if cur_gm < base_gm * (1.0 - threshold):
                failures.append(
                    f"regression: suite geomean speedup {cur_gm:.2f}x over "
                    f"{len(all_pairs)} point(s) fell more than "
                    f"{threshold:.0%} below baseline {base_gm:.2f}x"
                )
            for name, pairs in sorted(speedups.items()):
                kern_cur = _geomean([c for c, _ in pairs])
                kern_base = _geomean([b for _, b in pairs])
                if kern_cur < kern_base * (1.0 - 2.0 * threshold):
                    failures.append(
                        f"regression: {name} geomean speedup {kern_cur:.2f}x "
                        f"over {len(pairs)} point(s) fell more than "
                        f"{2 * threshold:.0%} below baseline {kern_base:.2f}x"
                    )

    effective_floors = dict(floors) if floors is not None else dict(MIN_SPEEDUP_FLOORS)
    if floors is None:
        # Core-gated floors: the backend-scaling requirement only binds on
        # machines that can physically show it (result records cpu_count).
        cpu_count = current.get("cpu_count") or 0
        for key, (floor, min_cpus) in CONDITIONAL_SPEEDUP_FLOORS.items():
            if cpu_count >= min_cpus:
                effective_floors[key] = floor
    for (name, world), floor in effective_floors.items():
        matching = [
            r for r in current["records"] if r["name"] == name and r["world"] == world
        ]
        if not matching:
            failures.append(f"floor: no records for {name} at world={world}")
            continue
        best = max(r["speedup"] for r in matching)
        if best < floor:
            failures.append(
                f"floor: {name} world={world} best speedup {best:.1f}x < "
                f"required {floor:.1f}x"
            )
    return failures

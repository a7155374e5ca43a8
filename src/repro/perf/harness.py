"""Report-only microbenches: ``python -m repro perf``.

Three measurements the end-to-end ledger (``benchmarks/e2e``, ``make ab``)
has no equivalent for, each timing a reference leg (``ref_s``) against the
implementation that replaced it (``new_s``).  Nothing here is a gate: the
only assertions are the bitwise pre-checks that make a pair comparable at
all.  Timing is best-of-``REPEATS`` ``time.perf_counter`` after one warm-up
call, with the cycle collector off across the measured region.
"""

from __future__ import annotations

import gc
import pickle
import time
from collections.abc import Callable

import numpy as np

from ..cluster import ClusterSpec
from ..comm import chunk_bounds

REPEATS = 3


def _best_of(fn: Callable[[], object]) -> float:
    fn()
    gc.collect()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return min(times)


def _record(name: str, world: int, size: int, ref_s: float, new_s: float) -> dict:
    return {"name": name, "world": world, "size": size, "ref_s": ref_s, "new_s": new_s}


def _bench_shm_pool_reduce(world: int = 4, size: int = 1 << 19) -> list[dict]:
    """In-place reduction of one scatter-reduce chunk schedule on shm-mapped
    pools: the base class's serial executor (the parent folds every chunk)
    against the shm override (each owner's worker folds its chunk)."""
    from ..cluster.backends import SharedMemoryBackend
    from ..cluster.backends.base import TransportBackend

    backend = SharedMemoryBackend(world_size=world, ring_bytes=1 << 16)
    try:
        pools = [backend.allocate_pool(rank, size) for rank in range(world)]
        rng = np.random.default_rng(size)
        seed = [rng.standard_normal(size) for _ in range(world)]
        refs = backend.resolve_pool_refs(pools, list(range(world)))
        if refs is None:
            raise AssertionError("pool arrays did not resolve to PoolRefs")
        order = tuple(range(world))
        chunks = [(lo, hi, order) for lo, hi in chunk_bounds(size, world)]

        def serial() -> None:
            TransportBackend.pool_ref_reduce(backend, refs, chunks, add_zero=True)

        def parallel() -> None:
            backend.pool_ref_reduce(refs, chunks, add_zero=True)

        folded = []
        for reduce in (serial, parallel):
            for pool, data in zip(pools, seed):
                pool[:] = data
            reduce()
            folded.append([pool.tobytes() for pool in pools])
        if folded[0] != folded[1]:
            raise AssertionError("worker-parallel pool reduce diverged from serial")
        return [_record("shm_pool_reduce", world, size, _best_of(serial), _best_of(parallel))]
    finally:
        backend.close()


def _bench_wire_codec(size: int = 16384) -> list[dict]:
    """Round-trip of one compressed round payload: pickle against the shm
    wire codec, after checking the record encoder takes the codec path."""
    from ..cluster.backends import shm, wire
    from ..compression import OneBitCompressor, QSGDCompressor, TopKCompressor

    grad = np.random.default_rng(5).standard_normal(size)
    codecs = [
        ("wire_qsgd8", QSGDCompressor(bits=8, rng=np.random.default_rng(7))),
        ("wire_onebit", OneBitCompressor()),
        ("wire_topk1pct", TopKCompressor(ratio=0.01)),
    ]
    records = []
    for name, codec in codecs:
        payload = codec.compress(grad)
        kind, _data = shm._encode(payload)
        if kind != shm._CODEC:
            raise AssertionError(f"{name}: payload fell back to kind {kind}, not the wire codec")
        ref_s = _best_of(lambda: pickle.loads(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)))
        new_s = _best_of(lambda: wire.decode(wire.encode(payload)))
        records.append(_record(name, 1, size, ref_s, new_s))
    return records


def _bench_symbolic_lowering() -> list[dict]:
    """Per-plan cost of obtaining the comm-op IR over every registered
    algorithm and baseline at world 4 (``size`` = plans lowered): the
    driver's recorded dry run against lowering the plan description alone."""
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
    ref_s, new_s = _best_of(executed) / len(names), _best_of(symbolic) / plans
    return [_record("symbolic_lowering", 4, plans, ref_s, new_s)]


def run_suite() -> dict:
    """Run the three microbenches and return the report document."""
    records = _bench_shm_pool_reduce() + _bench_wire_codec() + _bench_symbolic_lowering()
    return {"schema": 2, "suite": "bagua-repro-perf", "repeats": REPEATS, "records": records}


def render(result: dict) -> str:
    lines = [f"{'benchmark':<18} {'world':>5} {'size':>7} {'ref_us':>10} {'new_us':>10} {'ratio':>7}"]
    for r in result["records"]:
        lines.append(
            f"{r['name']:<18} {r['world']:>5} {r['size']:>7} "
            f"{r['ref_s'] * 1e6:>10.1f} {r['new_s'] * 1e6:>10.1f} {r['ref_s'] / r['new_s']:>6.1f}x"
        )
    return "\n".join(lines)

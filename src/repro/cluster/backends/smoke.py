"""2-core scaling smoke check: ``python -m repro.cluster.backends.smoke``.

Runs the compute-bound per-rank workload at world 2 on the ``local``
(serial) and ``shm`` (one process per rank) backends and requires the shm
backend to show real overlap — wall time below ~85% of serial — plus
bitwise-identical results.  Exits 0 and prints SKIP on machines with fewer
than 2 cores, where the scaling assertion is physically unsatisfiable;
exits 1 on a miss.  CI's ``backends`` job runs this on a 2-core runner.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from ..topology import ClusterSpec
from ..transport import Transport

WORLD = 2
#: Pool length / iteration count: one rank's task is a few hundred ms of
#: pure numpy compute, so process dispatch overhead (~1 ms) is noise.
EPOCH_POOL_ELEMENTS = 120_000
EPOCH_ITERS = 120
#: shm wall time must be below this fraction of serial local wall time.
#: Perfect 2-core scaling is 0.5; 0.85 leaves headroom for dispatch
#: overhead and noisy shared runners while still proving actual overlap.
MAX_RATIO = 0.85
REPEATS = 3


def compute_epoch_task(pool: np.ndarray, rank: int, iters: int) -> float:
    """A compute-bound 'epoch': iterated elementwise math on the rank's pool.

    Module-level because ``run_rank_tasks`` pickles it by reference for the
    shm workers.  Deterministic in ``(rank, iters, len(pool))`` so results
    compare bitwise across backends; writes through the pool so the shm
    backend's cross-process mapping is exercised, and returns a checksum.
    """
    x = np.random.default_rng(1000 + rank).standard_normal(pool.shape[0])
    for _ in range(iters):
        x = np.tanh(x) + 0.25 * np.sin(x * 1.7) - 0.001 * x * x
    pool[:] = x
    return float(x.sum())


def _best_run(backend, args) -> tuple[float, dict]:
    result = backend.run_rank_tasks(compute_epoch_task, args)  # warmup
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = backend.run_rank_tasks(compute_epoch_task, args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main() -> int:
    cpus = os.cpu_count() or 1
    if cpus < 2:
        print(f"SKIP: {cpus} core(s); the scaling check needs >= 2")
        return 0
    spec = ClusterSpec(num_nodes=1, workers_per_node=WORLD)
    args = {rank: (rank, EPOCH_ITERS) for rank in range(WORLD)}
    times: dict[str, float] = {}
    results: dict[str, dict] = {}
    for name in ("local", "shm"):
        with Transport(spec, backend=name) as transport:
            for rank in range(WORLD):
                transport.backend.allocate_pool(rank, EPOCH_POOL_ELEMENTS)
            times[name], results[name] = _best_run(transport.backend, args)
    if results["local"] != results["shm"]:
        print(f"FAIL: backend results diverge: {results}")
        return 1
    ratio = times["shm"] / times["local"]
    verdict = "ok" if ratio <= MAX_RATIO else "FAIL"
    print(
        f"{verdict}: world={WORLD} local={times['local']:.3f}s "
        f"shm={times['shm']:.3f}s ratio={ratio:.2f} (required <= {MAX_RATIO})"
    )
    return 0 if ratio <= MAX_RATIO else 1


if __name__ == "__main__":
    sys.exit(main())

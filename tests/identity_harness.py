"""The one identity harness: every leg against the loop oracle.

The transport backend is the only selector between the per-rank loop
reference and the world-batched kernels, so a *leg* is a backend:

* ``local`` — loop kernels in process: the oracle, always ``legs[0]``;
* ``batched`` — world-batched kernels in process; pool-resident rows are
  reduced in place by the base class's serial ``pool_ref_reduce`` (the
  oracle of the shm override);
* ``loopshm`` — loop kernels over the shm workers, so payload bytes
  genuinely cross the rings;
* ``shm`` — batched kernels and worker-parallel pool reduces over shm.

:func:`compare` runs one case on each leg and asserts that every leg is
observationally the oracle: result bits, codec RNG streams and
error-feedback residuals (whatever the case returns, through
:func:`snapshot`), virtual clocks, traffic stats, round counter and — when
traced — the recorded rounds.  ``tests/test_fastpath_identity.py`` holds the
in-process rows (wide Hypothesis worlds), ``tests/test_backend_identity.py``
the rows with shm legs (worlds 2-4 and one world 8).
"""

import itertools
from dataclasses import dataclass

import numpy as np

from repro.algorithms import QSGD
from repro.cluster import ClusterSpec, Transport
from repro.cluster.backends import SharedMemoryBackend
from repro.cluster.netmodel import TCP_25G
from repro.comm import CommGroup
from repro.compression import (
    ErrorFeedback,
    OneBitCompressor,
    QSGDCompressor,
    SignSGDCompressor,
    TernGradCompressor,
    TopKCompressor,
)
from repro.compression.base import Compressor
from repro.core.optimizer_framework import BaguaConfig
from repro.core.primitives import RingPeers, c_fp_s, c_lp_s, d_fp_s, d_lp_s
from repro.data.loader import make_sharded_loaders
from repro.tensor import DTYPE
from repro.training import DistributedTrainer, get_task

# Codec factories: fresh instances per leg so RNG streams start identical.
CODEC_FACTORIES = {
    "qsgd8": lambda: QSGDCompressor(bits=8, rng=np.random.default_rng(3)),
    "qsgd4": lambda: QSGDCompressor(bits=4, rng=np.random.default_rng(11)),
    "onebit": OneBitCompressor,
    "terngrad": lambda: TernGradCompressor(rng=np.random.default_rng(5)),
    "topk": lambda: TopKCompressor(ratio=0.25),
    "signsgd": SignSGDCompressor,
}

# The four primitives as ``call(arrays, group, hierarchical)``.
PRIMITIVES = {
    "c_fp_s": lambda arrays, g, h: c_fp_s(arrays, g, hierarchical=h),
    "c_lp_s": lambda arrays, g, h: c_lp_s(
        arrays, g, CODEC_FACTORIES["qsgd8"](), hierarchical=h
    ),
    "d_fp_s": lambda arrays, g, h: d_fp_s(arrays, g, RingPeers(), hierarchical=h),
    "d_lp_s": lambda arrays, g, h: d_lp_s(
        arrays, g, CODEC_FACTORIES["qsgd8"](), RingPeers(), hierarchical=h
    ),
}

#: where a gossip call's results land: fresh rows the kernel allocates, the
#: inputs themselves, or fresh rows the caller hands in
OUT_MODES = ("none", "arrays", "fresh")


def gossip_run(name: str, peers, out_mode: str, hierarchical: bool = False, step: int = 0):
    """A :func:`compare` case: one ``d_fp_s`` / ``d_lp_s`` (qsgd8) round whose
    results land per ``out_mode``.  Returns the result rows, the codec (its
    RNG stream) and the inputs as the call left them."""

    def run(group, arrays):
        out = {
            "none": None,
            "arrays": arrays,
            "fresh": [np.full_like(a, np.nan) for a in arrays],
        }[out_mode]
        kwargs = dict(peers=peers, step=step, hierarchical=hierarchical, out=out)
        codec = CODEC_FACTORIES["qsgd8"]() if name == "d_lp_s" else None
        if codec is None:
            rows = d_fp_s(arrays, group, **kwargs)
        else:
            rows = d_lp_s(arrays, group, codec, **kwargs)
        assert out is None or all(row is dst for row, dst in zip(rows, out))
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(rows, 2))
        return rows, codec, arrays

    return run


def centralized_run(name: str, out_mode: str, hierarchical: bool, average: bool):
    """A :func:`compare` case: one ``c_fp_s`` / ``c_lp_s`` (qsgd8; ``+ef``
    with two-sided error feedback) call whose results land in fresh rows
    (``out_mode="none"``) or in the inputs (``"arrays"``).  With ``average``
    the primitive averages; without, the caller divides each returned row by
    the group's size in place, as the algorithms did before ``average``.
    Returns the rows, the codec (its RNG stream) and the residual stores."""

    def run(group, arrays):
        n = group.size
        codec = CODEC_FACTORIES["qsgd8"]()
        stores = [ErrorFeedback(CODEC_FACTORIES["qsgd8"]()) for _ in range(2 * n)]
        stores = stores if name == "c_lp_s+ef" else []
        kwargs = dict(
            hierarchical=hierarchical, out=arrays if out_mode == "arrays" else None, average=average
        )
        if name == "c_fp_s":
            rows = c_fp_s(arrays, group, **kwargs)
        else:
            rows = c_lp_s(
                arrays, group, codec, worker_errors=stores[:n] or None,
                server_errors=stores[n:] or None, **kwargs,
            )
        if not average:
            for row in rows:
                row /= n
        return rows, codec, stores

    return run


IN_PROCESS = ("local", "batched")
SHM = ("local", "batched", "loopshm", "shm")
POOL = ("local", "batched", "shm")


class LoopShm(SharedMemoryBackend):
    """Shm delivery under the loop kernels (as ``LocalBackend`` is to ``BatchedBackend``)."""

    prefers_fast_path = False


# One shm backend per (class, world): workers are expensive to spawn and
# backends re-attach cleanly to fresh transports.
_SHM_CACHE: dict[tuple[type, int], SharedMemoryBackend] = {}


def backend_for(leg: str, world: int):
    if leg in IN_PROCESS:
        return leg
    key = (LoopShm if leg == "loopshm" else SharedMemoryBackend, world)
    backend = _SHM_CACHE.get(key)
    if backend is None or backend._closed:
        backend = _SHM_CACHE[key] = key[0](world)
    return backend


def close_shm_backends() -> None:
    for backend in _SHM_CACHE.values():
        backend.close()
    _SHM_CACHE.clear()


def cluster(world: int, per_node: int | None = None) -> ClusterSpec:
    """Nodes of ``per_node``; by default nodes of 4 when ``world`` divides
    into several (mixes NVLink and TCP fabrics), else a single node."""
    if per_node is None:
        per_node = 4 if world > 4 and world % 4 == 0 else world
    return ClusterSpec(num_nodes=world // per_node, workers_per_node=per_node, inter_node=TCP_25G)


def inputs(world: int, length: int, seed: int, steps: int | None = None, signed_zeros=False):
    """One ``DTYPE`` array per member (``steps`` lists of them when given).  With
    ``signed_zeros`` the arrays are salted with ``0.0`` / ``-0.0``, some in
    whole columns (a column that is ``-0.0`` on every worker of a node is
    where a seeded and an unseeded fold part ways)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(steps or 1):
        arrays = [rng.standard_normal(length).astype(DTYPE) for _ in range(world)]
        if signed_zeros:
            column = rng.random(length) < 0.2
            for a in arrays:
                a[column] = -0.0
                a[rng.random(length) < 0.1] = rng.choice([0.0, -0.0])
        out.append(arrays)
    return out if steps else out[0]


class Recorder:
    """Minimal tracer capturing what ``TraceRecorder`` observes."""

    def __init__(self):
        self.rounds = []  # exchanged rounds, message for message
        self.events = []  # collective / local notifications
        self.payloads = 0  # messages that carried a payload, not a size stub

    def on_exchange(self, messages):
        self.rounds.append([(m.src, m.dst, m.nbytes, m.match_id) for m in messages])
        self.payloads += sum(m.payload is not None for m in messages)

    def on_collective(self, group, kind, elements, **meta):
        self.events.append(("collective", kind, elements, tuple(sorted(meta))))

    def on_local(self, rank, kind, **meta):
        self.events.append(("local", rank, kind, tuple(sorted(meta.items()))))


def transport_state(transport: Transport) -> tuple:
    stats = transport.stats
    return (
        transport.clocks.tolist(),
        stats.messages,
        stats.rounds,
        stats.total_bytes,
        stats.inter_node_bytes,
        stats.intra_node_bytes,
        stats.per_rank_sent_bytes.tolist(),
        transport._round_counter,
    )


def snapshot(obj):
    """A case's return value as plain comparable data: arrays by dtype, shape
    and bytes (``-0.0`` differs from ``0.0``), codecs by RNG state,
    error-feedback stores by codec state and residual bits."""
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, ErrorFeedback):
        residuals = {key: snapshot(value) for key, value in obj._residuals.items()}
        return (snapshot(obj.compressor), residuals)
    if isinstance(obj, Compressor):
        rng = getattr(obj, "rng", None)
        return None if rng is None else rng.bit_generator.state
    if isinstance(obj, (list, tuple)):
        return [snapshot(item) for item in obj]
    if isinstance(obj, dict):
        return {key: snapshot(value) for key, value in obj.items()}
    return obj


def _fresh(base):
    return [_fresh(item) for item in base] if isinstance(base, list) else base.copy()


@dataclass
class LegRun:
    bits: object  # snapshot of what the case returned
    state: tuple  # clocks, traffic stats, round counter
    rounds: list  # traced rounds ([] when untraced)
    events: list
    payloads: int  # traced messages carrying a payload (the loop kernels' all do)
    pools: list  # final bytes of each member's pool row (pooled cases)
    shm_delta: dict  # growth of the backend's shm_stats ({} in process)


def compare(spec, base, run, legs, *, traced=True, pooled=False) -> dict[str, LegRun]:
    """Run ``run(group, arrays)`` once per leg on a fresh transport over
    ``spec`` and assert every leg is observationally ``legs[0]``.

    ``arrays`` is a fresh copy of ``base`` (a list of per-member arrays, or a
    list of such lists for multi-step cases); with ``pooled`` each member's
    array is a row of the leg backend's own bucket pool instead, which the
    batched dense kernels reduce in place.  ``traced`` installs a
    :class:`Recorder` — with one, batched kernels route their size stubs
    through ``exchange``; without, through ``exchange_sized``.
    """
    world = spec.world_size
    runs: dict[str, LegRun] = {}
    for leg in legs:
        transport = Transport(spec, backend=backend_for(leg, world))
        group = CommGroup(transport, list(range(world)))
        recorder = Recorder()
        if traced:
            transport.tracer = recorder
        if pooled:
            arrays = [transport.backend.allocate_pool(rank, a.size) for rank, a in enumerate(base)]
            for array, data in zip(arrays, base):
                array[:] = data
        else:
            arrays = _fresh(base)
        before = dict(getattr(transport.backend, "shm_stats", {}))
        bits = snapshot(run(group, arrays))
        after = getattr(transport.backend, "shm_stats", {})
        runs[leg] = LegRun(
            bits, transport_state(transport), recorder.rounds, recorder.events, recorder.payloads,
            [a.tobytes() for a in arrays] if pooled else [],
            {key: after[key] - before[key] for key in before},
        )
    oracle = runs[legs[0]]
    for leg in legs[1:]:
        got = runs[leg]
        assert got.bits == oracle.bits, f"{leg}: result / codec / residual bits differ"
        assert got.state == oracle.state, f"{leg}: clocks / stats / round counter differ"
        assert got.rounds == oracle.rounds, f"{leg}: traced rounds differ"
        assert got.events == oracle.events, f"{leg}: traced notifications differ"
    return runs


def train_epoch(
    backend: str, algorithm=None, world: int = 2, per_node=None, hierarchical=False, flatten=True,
    tracer=None,
):
    """One VGG16-proxy epoch on ``backend`` (at world 2 unless told; with
    ``flatten=False``, one tensor per bucket; ``tracer`` installed on the
    transport); returns the run's observables (losses, simulated times,
    traffic, final weights) and the trainer, whose transport the caller
    closes."""
    task = get_task("VGG16")
    trainer = DistributedTrainer(
        cluster(world, per_node), task.model_factory, task.make_optimizer,
        algorithm or QSGD(bits=8),
        config=BaguaConfig(backend=backend, hierarchical=hierarchical, flatten=flatten), seed=0,
    )
    trainer.transport.tracer = tracer
    loaders = make_sharded_loaders(task.dataset_factory(0), world, 16, seed=0)
    record = trainer.train(loaders, task.loss_fn, epochs=1, label="parity")
    stats = trainer.transport.stats
    weights = [
        b"".join(bucket.flat_data().tobytes() for bucket in worker.buckets)
        for worker in trainer.engine.workers
    ]
    observed = (
        record.epoch_losses, record.epoch_sim_times, record.epoch_comm_bytes,
        stats.messages, stats.total_bytes, weights,
    )
    return observed, trainer

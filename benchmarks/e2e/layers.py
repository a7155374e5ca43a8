"""Which public callables of ``repro`` the traced run wraps, and how their
spans and counters turn into the per-layer metrics.

Layers are this repo's packages.  Every ``*_ms`` metric is the self time of
one span group per op, so the layer times of an op add up to its span:
whatever no inner layer accounts for stays with the caller (engine glue ends
up in ``core.engine_self_ms``, not hidden).  The ``op`` span's own self time
is the benchmark's loop, not a layer of the program, and is left out.
"""

from __future__ import annotations

import inspect
from typing import Any

from tracing import Tracer, count_under, group_totals

#: metric -> span group whose self time (ms per op) it reports
SELF_MS = {
    "data.next_batch_ms": "data.next_batch",
    "tensor.forward_ms": "tensor.forward",
    "tensor.backward_ms": "tensor.backward",
    "tensor.zero_grad_ms": "tensor.zero_grad",
    "tensor.optim_ms": "tensor.optim",
    "core.bucket_flatten_ms": "core.bucket_flatten",
    "core.engine_self_ms": "core.engine",
    "core.schedule_self_ms": "core.schedule",
    "algorithms.comm_bucket_self_ms": "algorithms.comm_bucket",
    "comm.collective_self_ms": "comm.collective",
    "compression.codec_ms": "compression.codec",
    "transport.exchange_self_ms": "transport.exchange",
    "backends.route_ms": "backends.route",
    "backends.reduce_ms": "backends.reduce",
    "backends.flush_ms": "backends.flush",
    "simulation.iteration_self_ms": "simulation.iteration",
    "simulation.cost_self_ms": "simulation.cost",
}
#: metric -> span group whose calls per op it reports
CALLS = {
    "tensor.optim_calls": "tensor.optim",
    "core.bucket_flatten_calls": "core.bucket_flatten",
    "comm.collective_calls": "comm.collective",
    "compression.codec_calls": "compression.codec",
    "simulation.cost_calls": "simulation.cost",
}
#: tracer counters reported per op under their own name -> unit
COUNTERS = {
    "core.primitive_calls": "count",
    "core.bucket_flatten_bytes": "B",
    "compression.elements": "count",
    "transport.rounds": "count",
    "transport.messages": "count",
    "transport.modeled_bytes": "B",
}
#: keys of ``backend.describe()`` reported per op as ``backends.<key>``
#: (0 where the backend has no such key)
BACKEND_KEYS = (
    "rounds",
    "payload_bytes",
    "batches",
    "flag_doorbells",
    "reduces",
    "pool_ref_payloads",
    "inline_fallbacks",
    "pipe_batch_fallbacks",
)

#: every per-layer metric the traced run prints, with its unit
PER_LAYER_UNITS: dict[str, str] = {
    **{name: "ms" for name in SELF_MS},
    **{name: "count" for name in CALLS},
    **COUNTERS,
    "transport.virtual_ms": "ms",
    **{f"backends.{key}": "B" if key.endswith("bytes") else "count" for key in BACKEND_KEYS},
    "core.profile_iter_ms": "ms",
    "compression.wire_ratio": "ratio",
    "backends.pool_alloc_ms": "ms",
    "backends.ring_hit_ratio": "ratio",
    "backends.workers_cpu_ms": "ms",
    "backends.workers_peak_rss_mb": "MiB",
    "backends.leaked_segments": "count",
    "simulation.dryrun_rounds": "count",
    "trace.overhead_share": "ratio",
}


# ----------------------------------------------------------------------
# Counter hooks
# ----------------------------------------------------------------------
def _count_primitive(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("core.primitive_calls")


def _count_flat_result(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("core.bucket_flatten_bytes", result.nbytes)


def _count_flat_arg(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("core.bucket_flatten_bytes", args[1].nbytes)


def _count_codec(tracer: Tracer, elements: int, wire_bytes: float) -> None:
    # A codec call made by another codec call (the per-cell reference
    # ``batch_roundtrip``) carries the same elements again.
    if not tracer.inside("compression.codec"):
        tracer.count("compression.elements", elements)
        tracer.count("compression.wire_bytes", wire_bytes)


def _count_compress(tracer: Tracer, args: tuple, result: Any) -> None:
    _count_codec(tracer, args[1].size, result.wire_bytes)


def _count_batch_roundtrip(tracer: Tracer, args: tuple, result: Any) -> None:
    codec, matrix, bounds = args[:3]
    rows = matrix.shape[0]
    wire = rows * sum(codec.wire_bytes(hi - lo) for lo, hi in bounds)
    _count_codec(tracer, matrix.size, wire)


def _traced_exchange(tracer: Tracer, fn: Any, name: str) -> Any:
    """Trace ``Transport.exchange*`` and count what it added to the public
    stats of the transport it ran on (which for the simulator's dry runs is a
    scratch transport nothing else can reach).  The virtual clocks are not
    read here: ``max_time()`` over a 128-rank world, twice per round, cost
    more than the rounds it measured."""
    inner = tracer.traced(fn, name)

    def exchange(self: Any, messages: Any) -> Any:
        stats = self.stats
        rounds, sent, nbytes = stats.rounds, stats.messages, stats.total_bytes
        result = inner(self, messages)
        tracer.count("transport.rounds", stats.rounds - rounds)
        tracer.count("transport.messages", stats.messages - sent)
        tracer.count("transport.modeled_bytes", stats.total_bytes - nbytes)
        return result

    return exchange


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _wrap_class(tracer: Tracer, cls: type, group: str) -> None:
    """Trace the methods a class defines itself (``__init__`` included)."""
    for attr, value in list(vars(cls).items()):
        if inspect.isfunction(value) and (attr == "__init__" or not attr.startswith("_")):
            tracer.wrap_attr(cls, attr, f"{group}:{cls.__name__}.{attr}")


def install(tracer: Tracer, trainer: Any = None) -> None:
    """Wrap the layer boundaries; ``trainer`` adds the live job's classes."""
    import repro.comm
    from repro.cluster.transport import Transport
    from repro.core import primitives
    from repro.core.bucket import TensorBucket
    from repro.core.engine import BaguaEngine
    from repro.core.schedule import ScheduledExecutor
    from repro.simulation import pipeline, runner
    from repro.simulation.cost import CommCostModel
    from repro.tensor.module import Module
    from repro.tensor.tensor import Tensor

    tracer.wrap_attr(Tensor, "backward", "tensor.backward:Tensor.backward")
    tracer.wrap_attr(Module, "zero_grad", "tensor.zero_grad:Module.zero_grad")
    for attr, count in (
        ("flat_grad", _count_flat_result),
        ("flat_data", _count_flat_result),
        ("set_flat_grad", _count_flat_arg),
        ("set_flat_data", _count_flat_arg),
    ):
        tracer.wrap_attr(TensorBucket, attr, f"core.bucket_flatten:TensorBucket.{attr}", count)
    tracer.wrap_attr(BaguaEngine, "step", "core.engine:BaguaEngine.step")
    tracer.wrap_attr(ScheduledExecutor, "run_step", "core.schedule:ScheduledExecutor.run_step")
    # The primitives' own glue is core glue like the engine's.
    for name in ("c_fp_s", "c_lp_s", "d_fp_s", "d_lp_s"):
        tracer.wrap_function(getattr(primitives, name), f"core.engine:{name}", _count_primitive)

    for name in repro.comm.__all__:
        member = getattr(repro.comm, name)
        if inspect.isclass(member):
            _wrap_class(tracer, member, "comm.collective")
        else:
            tracer.wrap_function(member, f"comm.collective:{name}")

    for attr in ("exchange", "exchange_sized"):
        name = f"transport.exchange:Transport.{attr}"
        tracer.patch(Transport, attr, _traced_exchange(tracer, getattr(Transport, attr), name))

    tracer.wrap_function(runner.simulate_epoch, "simulation.iteration:simulate_epoch")
    tracer.wrap_function(pipeline.simulate_iteration, "simulation.iteration:simulate_iteration")
    for attr in (
        "centralized",
        "decentralized",
        "ring_allreduce",
        "ps_push_pull",
        "compress_time",
        "update_time",
    ):
        tracer.wrap_attr(CommCostModel, attr, f"simulation.cost:CommCostModel.{attr}")

    if trainer is None:
        return
    algorithm = type(trainer.algorithm)
    tracer.wrap_attr(
        algorithm, "comm_bucket", f"algorithms.comm_bucket:{algorithm.__name__}.comm_bucket"
    )
    optimizer = type(trainer.engine.workers[0].optimizer)
    tracer.wrap_attr(optimizer, "step_on_slots", f"tensor.optim:{optimizer.__name__}.step_on_slots")
    compressor = getattr(trainer.algorithm, "compressor", None)
    if compressor is not None:
        codec = type(compressor)
        tracer.wrap_attr(codec, "compress", f"compression.codec:{codec.__name__}.compress", _count_compress)
        tracer.wrap_attr(codec, "decompress", f"compression.codec:{codec.__name__}.decompress")
        tracer.wrap_attr(
            codec,
            "batch_roundtrip",
            f"compression.codec:{codec.__name__}.batch_roundtrip",
            _count_batch_roundtrip,
        )
    backend = type(trainer.transport.backend)
    for attr, group in (
        ("route_round", "backends.route"),
        ("pool_ref_reduce", "backends.reduce"),
        ("flush", "backends.flush"),
        ("allocate_pool", "backends.pool_alloc"),
    ):
        tracer.wrap_attr(backend, attr, f"{group}:{backend.__name__}.{attr}")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def layer_metrics(tracer: Tracer, ops: int, backend_delta: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics the spans and counters of one traced run give
    (the workload adds the few it measures itself).

    ``ops`` is the number of traced timed ops and ``backend_delta`` what
    ``backend.describe()`` gained over them.
    """
    spans = tracer.spans
    timed = group_totals(spans)
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for name, group in SELF_MS.items():
        metrics[name] = timed.get(group, (0.0, 0))[0] * 1e3 / ops
    for name, group in CALLS.items():
        metrics[name] = timed.get(group, (0.0, 0))[1] / ops
    for name in COUNTERS:
        metrics[name] = tracer.counters.get(name, 0.0) / ops
    for key in BACKEND_KEYS:
        metrics[f"backends.{key}"] = backend_delta.get(key, 0.0) / ops

    dense = tracer.counters.get("compression.elements", 0.0) * 8.0
    if dense:
        metrics["compression.wire_ratio"] = tracer.counters["compression.wire_bytes"] / dense
    rounds = backend_delta.get("rounds", 0.0)
    fallbacks = backend_delta.get("inline_fallbacks", 0.0)
    metrics["backends.ring_hit_ratio"] = 1.0 - fallbacks / rounds if rounds else 1.0
    metrics["simulation.dryrun_rounds"] = (
        count_under(spans, "transport.exchange", "simulation.cost") / ops
    )

    everything = group_totals(spans, timed_only=False)
    pool_alloc_s = everything.get("backends.pool_alloc", (0.0, 0))[0]
    metrics["backends.pool_alloc_ms"] = pool_alloc_s * 1e3
    return metrics

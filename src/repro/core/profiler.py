"""Profiling phase of the execution optimizer (paper §3.1, "Profiling Phase").

During the first backward pass BAGUA executes without optimization and logs
every communication-function invocation: which parameter became ready, in
what order, and how expensive the producing layer was.  The resulting
:class:`ExecutionProfile` drives bucketing and overlap scheduling for all
later iterations, and the same structure is produced from static
:class:`~repro.models.spec.ModelSpec` inventories for timing-mode simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ..tensor.module import Module
from ..tensor.tensor import DTYPE, Tensor


@dataclass
class TensorRecord:
    """One parameter's entry in the gradient-ready log."""

    name: str
    elements: int
    ready_index: int
    # Per-iteration compute cost attributed to the producing layer; zero in
    # functional mode (real compute is measured by actually running), filled
    # in from model specs for timing mode.
    fwd_flops: float = 0.0
    bwd_flops: float = 0.0

    @property
    def nbytes(self) -> float:
        """Wire size at full precision."""
        return self.elements * float(DTYPE.itemsize)


@dataclass
class ExecutionProfile:
    """Ordered gradient-ready log for one model replica."""

    records: list[TensorRecord] = field(default_factory=list)

    @property
    def total_elements(self) -> int:
        return sum(r.elements for r in self.records)

    @property
    def total_bytes_fp32(self) -> float:
        return self.total_elements * 4.0

    def ordered_names(self) -> list[str]:
        return [r.name for r in sorted(self.records, key=lambda r: r.ready_index)]


class GradientReadyProfiler:
    """Records the order in which parameter gradients become final.

    Attach to a model before the first backward pass; afterwards ``profile``
    holds one record per parameter in ready order.  The hooks used are the
    same post-grad hooks the engine later uses to trigger communication —
    profiling is a dry run of the real mechanism.
    """

    def __init__(self, model: Module) -> None:
        self.model = model
        self.profile = ExecutionProfile()
        self._installed = False
        self._named = list(model.named_parameters())

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("profiler hooks already installed")
        for name, param in self._named:
            param.register_post_grad_hook(self._make_hook(name))
        self._installed = True

    def _make_hook(self, name: str):
        def hook(param: Tensor) -> None:
            self.profile.records.append(
                TensorRecord(
                    name=name,
                    elements=param.data.size,
                    ready_index=len(self.profile.records),
                )
            )

        return hook

    def uninstall(self) -> None:
        for _name, param in self._named:
            param.clear_post_grad_hooks()
        self._installed = False

    def ready_ordered_params(self) -> list[Tensor]:
        """Parameters sorted by gradient-ready order (requires a completed run)."""
        if not self.profile.records:
            raise RuntimeError("profiling pass has not run yet")
        by_name = dict(self._named)
        missing = [r.name for r in self.profile.records if r.name not in by_name]
        if missing:
            raise KeyError(f"profiled parameters no longer on model: {missing}")
        seen = {r.name for r in self.profile.records}
        leftovers = [p for n, p in self._named if n not in seen]
        ordered = [by_name[r.name] for r in self.profile.records]
        # Parameters that never received a gradient (frozen/unused) go last so
        # bucketing still covers every parameter.
        return ordered + leftovers


def profile_from_spec(layers: Sequence) -> ExecutionProfile:
    """Build a profile from a static layer inventory (timing mode).

    ``layers`` iterate in *forward* order with ``name``, ``params``,
    ``fwd_flops`` and ``bwd_flops`` attributes; gradients become ready in
    reverse order during backward.
    """
    records = []
    for ready_index, layer in enumerate(reversed(list(layers))):
        records.append(
            TensorRecord(
                name=layer.name,
                elements=int(layer.params),
                ready_index=ready_index,
                fwd_flops=float(layer.fwd_flops),
                bwd_flops=float(layer.bwd_flops),
            )
        )
    return ExecutionProfile(records=records)

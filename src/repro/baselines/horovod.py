"""Horovod baseline (Sergeev & Del Balso, 2018; paper ref [24]).

System strategy: a background coordinator fuses ready tensors into a ~64 MB
fusion buffer each cycle and ring-allreduces the buffer.  The paper also
compares against "Horovod 16bits" — fp16 gradient compression through NCCL —
which this class reproduces by casting gradients to half precision before
the allreduce (summation happens on the decompressed values, as NCCL's fp16
path effectively does, so convergence is indistinguishable in practice).
"""

from __future__ import annotations

from ..compression.fp16 import FP16Compressor
from ..core.engine import BaguaEngine
from .vanilla import RingAllreduceBaseline


class Horovod(RingAllreduceBaseline):
    def __init__(self, fp16: bool = False) -> None:
        self.fp16 = fp16
        self.name = "horovod-16bit" if fp16 else "horovod"
        self._codec = FP16Compressor() if fp16 else None

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        grads = engine.grads_of_bucket(k)
        if self._codec is not None:
            grads = [self._codec.decompress(self._codec.compress(g)) for g in grads]
        self.allreduce_mean(engine, k, grads)

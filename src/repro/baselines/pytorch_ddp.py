"""PyTorch-DDP baseline (Li et al., VLDB 2020; paper ref [30]).

System strategy: gradients are grouped into ~25 MB buckets in reverse
registration order, each bucket is ring-allreduced as soon as its gradients
are ready (overlapping with the rest of backward), and the optimizer steps
once after all allreduces complete.  Functionally this is exact gradient
averaging — identical convergence to BAGUA's Allreduce algorithm, which is
Figure 5's observation; the differences are purely in the timing profile
(:func:`repro.simulation.systems.pytorch_ddp_system`).
"""

from __future__ import annotations

from .vanilla import RingAllreduceBaseline


class PyTorchDDP(RingAllreduceBaseline):
    name = "pytorch-ddp"

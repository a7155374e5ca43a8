"""Figure 5: convergence of BAGUA vs other systems (functional mode).

Runs the full five-task suite on the 8-worker simulated cluster.  The shape
to observe matches the paper: all systems trace essentially the same loss
curve, so epoch-time speedups translate to time-to-loss speedups.

Beyond tier-1: all five tasks for 4 epochs (tier-1's `test_fig5_single_task`
runs VGG16 for 2) and finite final losses for every system on every task.
"""

import numpy as np

from repro.experiments import fig5_convergence_systems


def test_fig5_convergence_of_systems(benchmark, run_once):
    result = run_once(lambda: fig5_convergence_systems.run(epochs=4))
    print()
    print(result.render())
    for task, records in result.curves.items():
        finals = {label: rec.epoch_losses[-1] for label, rec in records.items()}
        benchmark.extra_info[task] = {k: round(v, 4) for k, v in finals.items()}
        # The exact-averaging baselines must agree with each other closely.
        exact = [
            v for k, v in finals.items() if k in ("PyTorch-DDP", "Horovod", "BytePS")
        ]
        assert max(exact) - min(exact) < 1e-6, task
        assert all(np.isfinite(v) for v in finals.values()), task

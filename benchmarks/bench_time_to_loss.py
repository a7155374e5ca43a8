"""End-to-end time-to-loss (paper §4.2's closing claim).

Combines both modes: functional convergence gives epochs-to-target, the
timing simulator gives seconds-per-epoch; BAGUA's per-task algorithm must
win the product on a slow network.

Beyond tier-1: VGG16 and BERT-BASE at the default epoch count with a >1.2x
time-to-loss speedup (tier-1's `TestTimeToLoss` runs VGG16 for 3 epochs and
asserts >1.0x).
"""

from repro.experiments import time_to_loss


def test_time_to_target_loss(benchmark, run_once):
    report = run_once(lambda: time_to_loss.run(task_names=("VGG16", "BERT-BASE")))
    print()
    print(report.render())
    for name, result in report.results.items():
        benchmark.extra_info[name] = {
            "speedup": round(result.speedup, 2) if result.speedup else None,
        }
        assert result.speedup is not None, name
        assert result.speedup > 1.2, name

"""Design-choice ablation: error compensation on/off for aggressive codecs.

C_LP_S's delta/epsilon state is what makes 1-bit compression usable: this
bench measures the aggregation error of repeated compressed allreduce with
and without error feedback (DESIGN.md §5).

Beyond tier-1: 30 accumulated steps with a <0.5x error-feedback bound and
the qsgd8 <0.1 bound (tier-1's
`test_error_feedback_improves_repeated_aggregation` only orders EF against
plain 1-bit).
"""

import numpy as np

from repro.cluster import ClusterSpec, Transport
from repro.comm import CommGroup
from repro.compression import ErrorFeedback, OneBitCompressor, QSGDCompressor
from repro.core import c_lp_s


def make_group(num_nodes: int = 2, workers_per_node: int = 2) -> CommGroup:
    spec = ClusterSpec(num_nodes=num_nodes, workers_per_node=workers_per_node)
    return CommGroup(Transport(spec), list(range(spec.world_size)))


def _relative_error(outs, expected):
    return float(np.linalg.norm(outs - expected) / np.linalg.norm(expected))


def run_aggregation(codec_factory, with_ef: bool, steps: int = 30, n: int = 4):
    rng = np.random.default_rng(0)
    group = make_group(2, 2)
    codec = codec_factory()
    worker_efs = [ErrorFeedback(codec) for _ in range(n)] if with_ef else None
    server_efs = [ErrorFeedback(codec) for _ in range(n)] if with_ef else None
    true_total = np.zeros(256)
    got_total = np.zeros(256)
    for _ in range(steps):
        arrays = [rng.standard_normal(256) for _ in range(n)]
        true_total += np.sum(arrays, axis=0)
        outs = c_lp_s(
            arrays, group, compressor=codec,
            worker_errors=worker_efs, server_errors=server_efs,
        )
        got_total += outs[0]
    return _relative_error(got_total, true_total)


def test_error_feedback_rescues_one_bit(benchmark):
    def measure():
        return {
            "1bit plain": run_aggregation(OneBitCompressor, with_ef=False),
            "1bit + error feedback": run_aggregation(OneBitCompressor, with_ef=True),
            "qsgd8 plain": run_aggregation(lambda: QSGDCompressor(bits=8), with_ef=False),
        }

    errors = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    for label, err in errors.items():
        print(f"  {label:24s} relative aggregation error {err:.4f}")
    # Error feedback cuts the accumulated 1-bit error dramatically; unbiased
    # QSGD needs no compensation (the paper's configuration choices).
    assert errors["1bit + error feedback"] < 0.5 * errors["1bit plain"]
    assert errors["qsgd8 plain"] < 0.1

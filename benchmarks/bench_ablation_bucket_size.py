"""Design-choice ablation: bucket-size sweep for the execution optimizer.

Too-small buckets pay per-message latency and ramp overhead; too-large
buckets destroy overlap (the last bucket finishes long after backward ends).
The 10 MB default sits in the flat basin (DESIGN.md §5).

Beyond tier-1: the only place this sweep is rendered (no `repro run` entry)
and the basin / both-extremes-worse assertions, which no tier-1 test makes.
"""

from repro.cluster import paper_cluster
from repro.core import BaguaConfig
from repro.experiments.report import render_series
from repro.models import bert_large_spec
from repro.simulation import CommCostModel, bagua_system, simulate_iteration

BUCKET_MB = (0.25, 1, 4, 10, 40, 160, 1300)


def test_bucket_size_sweep(benchmark):
    cluster = paper_cluster("25gbps")
    cost = CommCostModel(cluster)
    model = bert_large_spec()

    def sweep():
        times = []
        for mb in BUCKET_MB:
            config = BaguaConfig(
                overlap=True, flatten=True, hierarchical=True,
                bucket_bytes=mb * 1024 * 1024,
            )
            system = bagua_system(cost, "allreduce", config)
            times.append(simulate_iteration(model, cluster, system).iteration_time * 1e3)
        return times

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        render_series(
            "bucket MB", list(BUCKET_MB), {"iteration ms": times},
            title="BERT-LARGE iteration time vs bucket size (25 Gbps)",
            float_fmt="{:.1f}",
        )
    )
    best = min(times)
    default_idx = BUCKET_MB.index(10)
    # The default sits in the basin (comm-bound BERT-LARGE prefers slightly
    # larger buckets; both extremes are clearly worse).
    assert times[default_idx] < 1.15 * best
    assert times[0] > 1.1 * best  # tiny buckets: latency/ramp dominated
    assert times[-1] > 1.05 * best  # one giant bucket: no overlap left

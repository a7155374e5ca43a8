"""Design-choice ablation: ScatterReduce vs ring vs hierarchical (DESIGN.md §5).

Why BAGUA's centralized primitives use the hierarchical ScatterReduce:
compared per tensor size at paper scale (128 workers, 25 Gbps).

Beyond tier-1: the only place these two sweeps are rendered (no `repro run`
entry) and the flat-vs-hierarchical and peer-topology cost orderings at
paper scale, which no tier-1 test asserts.
"""

from repro.cluster import paper_cluster
from repro.experiments.report import render_series
from repro.simulation import CommCostModel

SIZES_MB = (1, 10, 50, 150)


def test_centralized_substrate_choice(benchmark):
    cluster = paper_cluster("25gbps")
    cost = CommCostModel(cluster)

    def sweep():
        series = {"ring": [], "flat ScatterReduce": [], "hierarchical SR": []}
        for mb in SIZES_MB:
            elements = mb * 1024 * 1024 // 4
            series["ring"].append(cost.ring_allreduce(elements) * 1e3)
            series["flat ScatterReduce"].append(cost.centralized(elements) * 1e3)
            series["hierarchical SR"].append(
                cost.centralized(elements, hierarchical=True) * 1e3
            )
        return series

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        render_series(
            "MB", list(SIZES_MB), series,
            title="Allreduce substrate cost (ms), 128 workers @ 25 Gbps",
            float_fmt="{:.2f}",
        )
    )
    # Flat ScatterReduce (all 128 workers through shared NICs) is the trap the
    # H optimization avoids; hierarchical SR is competitive with the ring.
    for i, _mb in enumerate(SIZES_MB):
        assert series["flat ScatterReduce"][i] > 2 * series["hierarchical SR"][i]
        assert series["hierarchical SR"][i] < 1.6 * series["ring"][i]


def test_decentralized_peer_choice(benchmark):
    cluster = paper_cluster("25gbps")
    cost = CommCostModel(cluster)
    elements = 50 * 1024 * 1024 // 4

    def sweep():
        return {
            "flat ring peers": cost.decentralized(elements, topology="ring") * 1e3,
            "flat random peers": cost.decentralized(elements, topology="random") * 1e3,
            "hier ring peers": cost.decentralized(
                elements, topology="ring", hierarchical=True
            )
            * 1e3,
            "hier random peers": cost.decentralized(
                elements, topology="random", hierarchical=True
            )
            * 1e3,
            "hier centralized (ref)": cost.centralized(elements, hierarchical=True) * 1e3,
        }

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for label, ms in times.items():
        print(f"  {label:28s} {ms:8.2f} ms")
    # Flat RANDOM pairing drowns in per-node NIC contention (8 workers each
    # shipping the whole model across nodes) — the reason the paper *always*
    # hierarchizes decentralized primitives.  A flat RING is accidentally
    # cheap because node-major neighbors are mostly intra-node, but it gives
    # the slowest gossip mixing.  Hierarchical random pairing (one peer per
    # node leader) beats a full centralized aggregation per round; the ring
    # variant costs about twice that (two neighbors instead of one).
    assert times["flat random peers"] > 2 * times["hier random peers"]
    assert times["hier random peers"] < times["hier centralized (ref)"]
    assert times["hier ring peers"] < 4 * times["hier random peers"]

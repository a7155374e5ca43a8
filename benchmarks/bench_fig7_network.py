"""Figure 7: BERT-LARGE epoch time vs bandwidth and vs latency.

Beyond tier-1: the winners on the paper's full default bandwidth / latency
grids (tier-1's `TestFig7` asserts the same winners on a 3 x 3 grid).
"""

from repro.experiments import fig7_network_conditions


def test_fig7_network_conditions(benchmark, run_once):
    result = run_once(fig7_network_conditions.run)
    print()
    print(result.render())
    benchmark.extra_info["best_at_1gbps"] = result.best_at_bandwidth(0)
    benchmark.extra_info["best_at_5ms"] = result.best_at_latency(-1)
    # Compression dominates when bandwidth-starved; decentralization when
    # latency-bound — the tradeoff the paper's Figure 7 demonstrates.
    assert result.best_at_bandwidth(0) == "BAGUA-1bit-Adam"
    assert "Decen" in result.best_at_latency(-1)

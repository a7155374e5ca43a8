"""Shape checks on the timing-mode experiments (Tables 1-5, Fig 7, straggler,
weak scaling).

These assert the paper's *qualitative* findings reproduce: who wins, how
gaps move with network conditions, which ablations matter — never absolute
numbers.
"""

import pytest

from repro.experiments import (
    fig7_network_conditions,
    heterogeneity_study,
    scalability,
    table1_support,
    table2_models,
    table3_speedup,
    table4_epoch_time,
    table5_ablation,
)
from repro.experiments.paper_reference import BEST_ALGORITHM, TABLE2_MODELS


class TestTable1:
    def test_renders(self):
        text = table1_support.run().render()
        assert "BAGUA" in text and "decentralized" in text

    def test_bagua_supports_seven_combinations(self):
        assert sum(1 for row in table1_support.run().rows if row["BAGUA"]) == 7


class TestTable2:
    def test_within_tolerance(self):
        for row in table2_models.run().rows:
            assert row["params_m"] == pytest.approx(row["paper_params_m"], rel=0.03)
            assert row["gflops"] == pytest.approx(row["paper_gflops"], rel=0.10)

    def test_covers_all_models(self):
        rows = table2_models.run().rows
        assert {r["model"] for r in rows} == set(TABLE2_MODELS)


@pytest.fixture(scope="module")
def table3():
    return table3_speedup.run()


class TestTable3:
    def test_bagua_never_loses_badly(self, table3):
        for network in table3.speedups.values():
            for model, speedup in network.items():
                assert speedup > 0.9, (model, speedup)

    def test_speedups_grow_as_bandwidth_drops(self, table3):
        for model in BEST_ALGORITHM:
            assert (
                table3.speedups["10gbps"][model]
                >= table3.speedups["100gbps"][model] - 0.05
            )

    def test_vgg_and_bert_large_gain_most_at_10g(self, table3):
        slow = table3.speedups["10gbps"]
        assert slow["VGG16"] > 1.3
        assert slow["BERT-LARGE"] > 1.3

    def test_renders(self, table3):
        assert "Table 3" in table3.render()


@pytest.fixture(scope="module")
def table4():
    return table4_epoch_time.run()


class TestTable4:
    def test_bagua_competitive_with_ddp(self, table4):
        for model, times in table4.epoch_times.items():
            assert times["BAGUA"] <= 1.10 * times["PyTorch-DDP"], model

    def test_byteps_worst_on_vgg(self, table4):
        vgg = table4.epoch_times["VGG16"]
        assert vgg["BytePS"] == max(vgg.values())
        assert vgg["BytePS"] > 1.25 * vgg["BAGUA"]

    def test_all_systems_same_magnitude(self, table4):
        for times in table4.epoch_times.values():
            assert max(times.values()) < 3 * min(times.values())

    def test_renders(self, table4):
        assert "Table 4" in table4.render()


@pytest.fixture(scope="module")
def table5():
    return table5_ablation.run()


class TestTable5:
    def test_full_config_is_best(self, table5):
        for model, times in table5.epoch_times.items():
            best = times["O=1,F=1,H=1"]
            assert min(times.values()) == best, model
            for label, t in times.items():
                assert t >= best * 0.999, (model, label)

    def test_each_ablation_hurts_somewhere(self, table5):
        for label in ("O=0,F=1,H=1", "O=1,F=0,H=1", "O=1,F=1,H=0"):
            hurt = any(
                times[label] > 1.03 * times["O=1,F=1,H=1"]
                for times in table5.epoch_times.values()
            )
            assert hurt, label

    def test_hierarchy_matters_most_for_vgg(self, table5):
        vgg = table5.epoch_times["VGG16"]
        assert vgg["O=1,F=1,H=0"] > vgg["O=0,F=1,H=1"]
        assert vgg["O=1,F=1,H=0"] > vgg["O=1,F=0,H=1"]

    def test_fusion_matters_for_bert(self, table5):
        bert = table5.epoch_times["BERT-LARGE"]
        assert bert["O=1,F=0,H=1"] > 1.1 * bert["O=1,F=1,H=1"]


@pytest.fixture(scope="module")
def fig7():
    return fig7_network_conditions.run(
        bandwidths_gbps=(1.0, 10.0, 100.0), latencies_ms=(0.05, 1.0, 5.0)
    )


class TestFig7:
    def test_compression_wins_at_low_bandwidth(self, fig7):
        assert fig7.best_at_bandwidth(0) == "BAGUA-1bit-Adam"

    def test_decentralized_wins_at_high_latency(self, fig7):
        assert "Decen" in fig7.best_at_latency(-1)

    def test_ring_systems_degrade_most_with_latency(self, fig7):
        ddp = fig7.latency_sweep["PyTorch-DDP"]
        decen = fig7.latency_sweep["BAGUA-Decen-8bits"]
        assert ddp[-1] / ddp[0] > 2 * (decen[-1] / decen[0])

    def test_gap_to_bagua_widens_when_slow(self, fig7):
        ddp = fig7.bandwidth_sweep["PyTorch-DDP"]
        best_bagua = [
            min(series[i] for name, series in fig7.bandwidth_sweep.items() if "BAGUA" in name)
            for i in range(3)
        ]
        # Index 0 is 1 Gbps, index 2 is 100 Gbps.
        assert ddp[0] / best_bagua[0] > ddp[2] / best_bagua[2]

    def test_renders(self, fig7):
        text = fig7.render()
        assert "Figure 7a" in text and "Figure 7b" in text


class TestHeterogeneity:
    def test_async_immune_sync_degrades(self):
        study = heterogeneity_study.run()
        # Async absorbs the straggler; sync pays for it on every task.
        for result in study.results.values():
            assert result.async_degradation < 1.1
            assert result.sync_degradation > result.async_degradation
        # Compute-bound task: the straggler bites sync almost linearly.
        lstm = study.results["LSTM+AlexNet"]
        assert lstm.sync_degradation > 1.5
        assert lstm.async_degradation < 1.1
        # Comm-bound task: the straggler partially hides behind communication,
        # but sync still degrades while async stays flat.
        vgg = study.results["VGG16"]
        assert vgg.sync_degradation > 1.1
        assert vgg.async_degradation < 1.1
        assert "Heterogeneity" in study.render()


class TestScalability:
    def test_weak_scaling_efficiency(self):
        result = scalability.run()
        # Compression keeps VGG16 near-linear out to 16 nodes; full precision
        # saturates on inter-node bandwidth.
        assert result.efficiency("BAGUA-qsgd")[-1] > 0.85
        assert result.efficiency("PyTorch-DDP")[-1] < 0.6
        assert result.efficiency("BAGUA-allreduce")[-1] >= result.efficiency("PyTorch-DDP")[-1]
        assert "BAGUA-qsgd" in result.render()

"""Auto-tuner: family classification, safety filtering, recommendations."""

import pytest

from repro.cluster import paper_cluster
from repro.core import classify_family, recommend
from repro.models import (
    all_specs,
    bert_base_spec,
    bert_large_spec,
    lstm_alexnet_spec,
    transformer_spec,
    vgg16_spec,
)
from repro.models.spec import LayerSpec, ModelSpec


def mixed_spec(name, layer_names):
    """A synthetic model whose layer inventory mixes vocabularies."""
    layers = tuple(
        LayerSpec(name=layer, params=100, fwd_flops=1000.0) for layer in layer_names
    )
    return ModelSpec(name=name, layers=layers, batch_size=8, samples_per_epoch=64)


class TestFamilyClassification:
    def test_conv_family(self):
        assert classify_family(vgg16_spec()) == "conv"

    def test_transformer_family(self):
        assert classify_family(bert_large_spec()) == "transformer"
        assert classify_family(bert_base_spec()) == "transformer"
        assert classify_family(transformer_spec()) == "transformer"

    def test_recurrent_family(self):
        assert classify_family(lstm_alexnet_spec()) == "recurrent"

    # Mixed inventories follow the documented precedence: lstm beats
    # attn/encoder beats conv (first match wins, not layer counts).
    def test_conv_plus_attention_classifies_as_transformer(self):
        spec = mixed_spec("hybrid-vit", ["conv1", "conv2", "attn1", "ffn1"])
        assert classify_family(spec) == "transformer"

    def test_conv_plus_encoder_classifies_as_transformer(self):
        spec = mixed_spec("conv-encoder", ["conv1", "encoder1"])
        assert classify_family(spec) == "transformer"

    def test_lstm_plus_conv_classifies_as_recurrent(self):
        # Figure 6's LSTM+AlexNet speech model is exactly this mix.
        spec = mixed_spec("speech", ["conv1", "conv2", "lstm1", "fc1"])
        assert classify_family(spec) == "recurrent"

    def test_lstm_beats_attention(self):
        spec = mixed_spec("rnn-attn", ["attn1", "lstm1"])
        assert classify_family(spec) == "recurrent"

    def test_plain_mlp_is_generic(self):
        spec = mixed_spec("mlp", ["fc1", "fc2", "fc3"])
        assert classify_family(spec) == "generic"


class TestRecommendations:
    @pytest.fixture(scope="class")
    def slow_network_report(self):
        return recommend(vgg16_spec(), paper_cluster("10gbps"))

    def test_all_candidates_ranked(self, slow_network_report):
        assert len(slow_network_report.recommendations) == 6
        names = [r.algorithm for r in slow_network_report.recommendations]
        assert "allreduce" in names and "1bit-adam" in names

    def test_safe_candidates_first(self, slow_network_report):
        flags = [r.safe for r in slow_network_report.recommendations]
        # Once an unsafe entry appears, everything after is unsafe too.
        first_unsafe = flags.index(False) if False in flags else len(flags)
        assert all(not f for f in flags[first_unsafe:])

    def test_onebit_adam_unsafe_for_conv(self, slow_network_report):
        onebit = next(
            r for r in slow_network_report.recommendations if r.algorithm == "1bit-adam"
        )
        assert not onebit.safe
        assert "diverges" in onebit.note

    def test_best_is_safe_and_fast(self, slow_network_report):
        best = slow_network_report.best
        assert best.safe
        safe_times = [
            r.epoch_time for r in slow_network_report.recommendations if r.safe
        ]
        assert best.epoch_time == min(safe_times)

    def test_vgg_on_slow_network_prefers_compression(self, slow_network_report):
        # QSGD (safe compression) should beat allreduce at 10 Gbps.
        best = slow_network_report.best
        allreduce = next(
            r for r in slow_network_report.recommendations if r.algorithm == "allreduce"
        )
        assert best.epoch_time <= allreduce.epoch_time
        assert best.algorithm != "1bit-adam"  # filtered as unsafe

    def test_onebit_adam_allowed_for_transformers(self):
        report = recommend(bert_large_spec(), paper_cluster("10gbps"))
        onebit = next(r for r in report.recommendations if r.algorithm == "1bit-adam")
        assert onebit.safe
        # And on a slow network it should actually win.
        assert report.best.algorithm == "1bit-adam"

    def test_async_flagged_for_transformers(self):
        report = recommend(bert_large_spec(), paper_cluster("25gbps"))
        async_rec = next(r for r in report.recommendations if r.algorithm == "async")
        assert not async_rec.safe
        assert "staleness" in async_rec.note

    def test_include_unsafe_false_filters(self):
        report = recommend(
            vgg16_spec(), paper_cluster("25gbps"), include_unsafe=False
        )
        assert all(r.safe for r in report.recommendations)

    def test_render(self, slow_network_report):
        text = slow_network_report.render()
        assert "recommended" in text
        assert "VGG16" in text

    def test_speedup_relative_to_allreduce(self, slow_network_report):
        allreduce = next(
            r for r in slow_network_report.recommendations if r.algorithm == "allreduce"
        )
        assert allreduce.speedup_vs_allreduce == pytest.approx(1.0)

    def test_recovers_paper_choices_on_slow_network(self, slow_network_report):
        # Pure prediction recovers the bandwidth-driven winners the paper's
        # authors picked by hand for Figure 5, where the choice matters most
        # (BERT-LARGE: test_onebit_adam_allowed_for_transformers).
        assert slow_network_report.best.algorithm == "qsgd"
        assert recommend(bert_base_spec(), paper_cluster("10gbps")).best.algorithm == "1bit-adam"

    def test_async_is_a_safe_candidate_for_the_recurrent_task(self):
        # The paper's straggler-motivated async choice for LSTM+AlexNet is not
        # bandwidth-driven; the tuner must at least rank it among the safe ones.
        report = recommend(lstm_alexnet_spec(), paper_cluster("10gbps"))
        assert next(r for r in report.recommendations if r.algorithm == "async").safe

    @pytest.mark.parametrize("name", list(all_specs()))
    def test_every_model_gets_a_safe_recommendation(self, name):
        report = recommend(all_specs()[name], paper_cluster("25gbps"))
        assert report.best.safe


class TestPlanRejection:
    """The symbolic pruner refutes invalid candidate plans before timing."""

    def test_biased_codec_without_ef_is_rejected(self):
        report = recommend(
            vgg16_spec(), paper_cluster("10gbps"),
            overrides={"qsgd": {"compressor": "signsgd"}},
        )
        qsgd = next(r for r in report.recommendations if r.algorithm == "qsgd")
        assert qsgd.rejected
        assert qsgd.rejection.startswith("plan-compressor-compat")
        assert "error feedback" in qsgd.rejection
        assert qsgd.epoch_time == float("inf")
        assert not qsgd.safe
        assert report.best.algorithm != "qsgd"
        assert "[REJECTED: plan-compressor-compat" in report.render()

    def test_non_divisible_hierarchy_split_is_rejected(self):
        # paper_cluster worlds are 16 nodes x 8 GPUs; 3 does not divide 128.
        report = recommend(
            vgg16_spec(), paper_cluster("10gbps"),
            overrides={"allreduce": {"hierarchical": True, "workers_per_node": 3}},
        )
        allreduce = next(
            r for r in report.recommendations if r.algorithm == "allreduce"
        )
        assert allreduce.rejected
        assert allreduce.rejection.startswith("plan-hierarchy-split")
        assert report.best.algorithm != "allreduce"

    def test_rejected_candidates_sort_last(self):
        report = recommend(
            vgg16_spec(), paper_cluster("10gbps"),
            overrides={"qsgd": {"compressor": "signsgd"}},
        )
        flags = [r.rejected for r in report.recommendations]
        first_rejected = flags.index(True)
        assert all(flags[first_rejected:])

    def test_include_unsafe_false_drops_rejected(self):
        report = recommend(
            vgg16_spec(), paper_cluster("10gbps"),
            overrides={"qsgd": {"compressor": "signsgd"}},
            include_unsafe=False,
        )
        assert all(not r.rejected and r.safe for r in report.recommendations)
        assert "qsgd" not in [r.algorithm for r in report.recommendations]

    def test_verify_false_skips_the_pruner(self):
        report = recommend(vgg16_spec(), paper_cluster("10gbps"), verify=False)
        assert not any(r.rejected for r in report.recommendations)

    def test_valid_candidates_are_never_rejected(self):
        report = recommend(vgg16_spec(), paper_cluster("10gbps"))
        assert not any(r.rejected for r in report.recommendations)

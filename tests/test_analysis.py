"""Static analyzer: per-rule counterexamples and the CLI."""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.baselines import BASELINE_REGISTRY
from repro.analysis import (
    AnalysisSubject,
    BucketExtent,
    CommTrace,
    ParamView,
    analyze_algorithm,
    layout_from_buckets,
    run_checkers,
)
from repro.core import TensorBucket
from repro.tensor import DTYPE, Tensor


def fired_rules(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# Positive sweep: every registered algorithm is clean on a 2x2 cluster.
# (test_analysis_hb.py sweeps the registry and the baselines on the
# default cluster.)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
def test_registered_algorithm_passes_all_checkers(name):
    report = analyze_algorithm(name, num_nodes=2, gpus_per_node=2)
    assert report.ok, report.render()
    assert report.findings == []
    assert report.num_ops > 0
    # both the dry-run trace and (when planned) the lowered plan were checked
    assert any("dry-run" in s for s in report.sources)


# ----------------------------------------------------------------------
# Negative: each counterexample trips exactly one rule.  The ordering and
# matching faults below are the happens-before engine's (hb-*).
# ----------------------------------------------------------------------
class TestRankSymmetry:
    """Group members that diverge in their collective sequence wedge."""

    def test_size_mismatch_flags_first_divergent_op(self):
        trace = CommTrace(world_size=2)
        group = (0, 1)
        trace.add(0, "allreduce", bucket="b0", elements=64, group=group)
        trace.add(0, "allreduce", bucket="b1", elements=32, group=group)
        trace.add(1, "allreduce", bucket="b0", elements=64, group=group)
        trace.add(1, "allreduce", bucket="b1", elements=48, group=group)  # diverges
        findings = run_checkers(AnalysisSubject(world_size=2, trace=trace))
        assert fired_rules(findings) == {"hb-deadlock"}
        assert {f.seq for f in findings} == {1}
        assert all("never issues a matching" in f.message for f in findings)

    @pytest.mark.parametrize(
        "codec",
        [
            {"compressor": "qsgd-4bit"},  # same size, different codec
            {"compressor": "qsgd-8bit", "error_feedback": True},  # EF on one side
        ],
        ids=["codec", "error-feedback"],
    )
    def test_codec_or_error_feedback_mismatch_at_equal_size(self, codec):
        trace = CommTrace(world_size=2)
        group = (0, 1)
        trace.add(0, "compressed_allreduce", bucket="b0", elements=64, group=group,
                  compressor="qsgd-8bit")
        trace.add(1, "compressed_allreduce", bucket="b0", elements=64, group=group,
                  **codec)
        findings = run_checkers(AnalysisSubject(world_size=2, trace=trace))
        assert fired_rules(findings) == {"hb-deadlock"}
        assert {f.rank for f in findings} == {0, 1}

    def test_symmetric_trace_is_clean(self):
        trace = CommTrace(world_size=2)
        for rank in (0, 1):
            trace.add(rank, "allreduce", bucket="b0", elements=64, group=(0, 1))
        assert run_checkers(AnalysisSubject(world_size=2, trace=trace)) == []


class TestPeerMatching:
    def test_ring_topology_violation(self):
        trace = CommTrace(world_size=4)
        group = (0, 1, 2, 3)
        # The ring 0-1-3-2: every pairing is mutual, but not the declared ring.
        peer_sets = {0: (1, 2), 1: (0, 3), 2: (3, 0), 3: (1, 2)}
        for rank, peers in peer_sets.items():
            trace.add(rank, "gossip", bucket="b0", elements=64, group=group, peers=peers)
        subject = AnalysisSubject(world_size=4, trace=trace, expected_topology="ring")
        findings = run_checkers(subject)
        assert fired_rules(findings) == {"peer-matching"}
        assert all("ring" in f.message for f in findings)
        assert {f.rank for f in findings} == {0, 1, 2, 3}

    def test_gossip_peer_outside_group(self):
        trace = CommTrace(world_size=3)
        group = (0, 1)
        trace.add(0, "gossip", bucket="b0", elements=64, group=group, peers=(1, 2))
        trace.add(1, "gossip", bucket="b0", elements=64, group=group, peers=(0,))
        findings = run_checkers(AnalysisSubject(world_size=3, trace=trace))
        assert fired_rules(findings) == {"hb-deadlock"}
        assert len(findings) == 1
        assert "outside group [0, 1]" in findings[0].message
        assert findings[0].rank == 0

    def test_unmatched_send(self):
        trace = CommTrace(world_size=2)
        trace.add(0, "send", peers=(1,), nbytes=256.0, round=0)
        findings = run_checkers(AnalysisSubject(world_size=2, trace=trace))
        assert fired_rules(findings) == {"hb-deadlock"}
        assert len(findings) == 1
        assert "no matching recv" in findings[0].message
        assert (findings[0].rank, findings[0].seq) == (0, 0)

    def test_matched_p2p_is_clean(self):
        trace = CommTrace(world_size=2)
        trace.add(0, "send", peers=(1,), nbytes=256.0, round=0)
        trace.add(1, "recv", peers=(0,), nbytes=256.0, round=0)
        assert run_checkers(AnalysisSubject(world_size=2, trace=trace)) == []


class TestOverlapRace:
    """An issue..await window that names no comm op is the bucket's
    in-flight communication: it reads and writes the bucket's gradient."""

    def test_opt_step_before_await(self):
        trace = CommTrace(world_size=1)
        trace.add(0, "issue", bucket="b0")
        trace.add(0, "opt_step", bucket="b0")  # races the in-flight reduction
        trace.add(0, "await", bucket="b0")
        findings = run_checkers(AnalysisSubject(world_size=1, trace=trace))
        assert fired_rules(findings) == {"hb-race"}
        assert len(findings) == 1
        assert findings[0].bucket == "b0"

    def test_never_awaited_issue(self):
        trace = CommTrace(world_size=1)
        trace.add(0, "issue", bucket="b0")
        trace.add(0, "opt_step", bucket="b1")
        findings = run_checkers(AnalysisSubject(world_size=1, trace=trace))
        assert fired_rules(findings) == {"hb-race"}
        assert len(findings) == 1
        assert "never awaited" in findings[0].message
        assert (findings[0].rank, findings[0].seq, findings[0].bucket) == (0, 0, "b0")

    def test_bucketless_write_races_any_outstanding_comm(self):
        trace = CommTrace(world_size=1)
        trace.add(0, "issue", bucket="b0", error_feedback=True)
        trace.add(0, "ef_write")  # empty bucket = every residual
        trace.add(0, "await", bucket="b0")
        findings = run_checkers(AnalysisSubject(world_size=1, trace=trace))
        assert fired_rules(findings) == {"hb-lost-update"}

    def test_bucketless_write_without_residual_is_clean(self):
        trace = CommTrace(world_size=1)
        trace.add(0, "issue", bucket="b0")  # no residual in flight to race
        trace.add(0, "ef_write")
        trace.add(0, "await", bucket="b0")
        assert run_checkers(AnalysisSubject(world_size=1, trace=trace)) == []

    def test_issue_await_write_is_clean(self):
        trace = CommTrace(world_size=1)
        trace.add(0, "issue", bucket="b0")
        trace.add(0, "await", bucket="b0")
        trace.add(0, "opt_step", bucket="b0")
        assert run_checkers(AnalysisSubject(world_size=1, trace=trace)) == []


class TestBufferAliasing:
    def test_overlapping_bucket_extents(self):
        layout = (
            BucketExtent("b0", 0, 100),
            BucketExtent("b1", 50, 150),  # intrudes into b0
        )
        findings = run_checkers(AnalysisSubject(world_size=1, layout=layout))
        assert fired_rules(findings) == {"buffer-aliasing"}

    def test_param_view_escapes_bucket(self):
        layout = (
            BucketExtent("b0", 0, 100, views=(ParamView("w", 0, 60), ParamView("b", 60, 110))),
        )
        findings = run_checkers(AnalysisSubject(world_size=1, layout=layout))
        assert fired_rules(findings) == {"buffer-aliasing"}
        assert "escapes" in findings[0].message

    def test_disjoint_layout_is_clean(self):
        layout = (
            BucketExtent("b0", 0, 100, views=(ParamView("w", 0, 100),)),
            BucketExtent("b1", 100, 150, views=(ParamView("v", 100, 150),)),
        )
        assert run_checkers(AnalysisSubject(world_size=1, layout=layout)) == []


class TestLiveGradientLayout:
    """``layout_from_buckets``: a flattened bucket's gradient buffer is an
    extent of its own, disjoint from every other extent."""

    @staticmethod
    def _buckets(grad_offset):
        pool = np.zeros(40, DTYPE)
        params = [Tensor(np.ones(shape, DTYPE), requires_grad=True) for shape in [(2, 3), (4,), (5,)]]
        b0 = TensorBucket(params[:2], name="b0", buffer=pool[:10], grad_buffer=pool[20:30])
        b1 = TensorBucket(
            params[2:], name="b1", buffer=pool[10:15],
            grad_buffer=pool[grad_offset : grad_offset + 5],
        )
        return [b0, b1]

    def test_gradient_halves_are_extents_with_one_view_per_slot(self):
        layout = layout_from_buckets(self._buckets(grad_offset=30))
        assert [e.name for e in layout] == ["b0", "b0.grad", "b1", "b1.grad"]
        assert [len(e.views) for e in layout] == [2, 2, 1, 1]
        assert layout[1].start - layout[0].start == 20 * DTYPE.itemsize  # real byte addresses
        assert run_checkers(AnalysisSubject(world_size=1, layout=layout)) == []

    def test_grad_buffer_overlapping_the_neighbours(self):
        # b1's gradients start on b0's last gradient element.
        layout = layout_from_buckets(self._buckets(grad_offset=29))
        findings = run_checkers(AnalysisSubject(world_size=1, layout=layout))
        assert len(findings) == 1
        assert findings[0].rule == "buffer-aliasing"
        assert "b0.grad" in findings[0].message and "b1.grad" in findings[0].message


class TestEFInvariant:
    def test_biased_compressor_without_error_feedback(self):
        trace = CommTrace(world_size=2)
        for rank in (0, 1):
            trace.add(
                rank,
                "compressed_allreduce",
                bucket="b0",
                elements=64,
                group=(0, 1),
                compressor="onebit",
                biased=True,
                error_feedback=False,
            )
        findings = run_checkers(AnalysisSubject(world_size=2, trace=trace))
        assert fired_rules(findings) == {"ef-invariant"}
        assert all(f.severity == "error" for f in findings)

    def test_biased_compressor_with_error_feedback_is_clean(self):
        trace = CommTrace(world_size=2)
        for rank in (0, 1):
            trace.add(
                rank,
                "compressed_allreduce",
                bucket="b0",
                elements=64,
                group=(0, 1),
                compressor="onebit",
                biased=True,
                error_feedback=True,
            )
        assert run_checkers(AnalysisSubject(world_size=2, trace=trace)) == []

    def test_unbiased_compressor_needs_no_error_feedback(self):
        trace = CommTrace(world_size=2)
        for rank in (0, 1):
            trace.add(
                rank,
                "compressed_allreduce",
                bucket="b0",
                elements=64,
                group=(0, 1),
                compressor="qsgd-8bit",
                biased=False,
                error_feedback=False,
            )
        assert run_checkers(AnalysisSubject(world_size=2, trace=trace)) == []


# ----------------------------------------------------------------------
# CLI: python -m repro analyze
# ----------------------------------------------------------------------
class TestCLI:
    def test_single_algorithm_exits_zero(self, capsys):
        assert main(["analyze", "allreduce"]) == 0
        out = capsys.readouterr().out
        assert "PASS allreduce" in out

    def test_json_output(self, capsys):
        assert main(["analyze", "qsgd", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "qsgd"
        assert payload["ok"] is True
        assert payload["findings"] == []

    def test_missing_algorithm_is_usage_error(self, capsys):
        assert main(["analyze"]) == 2
        assert "needs an algorithm" in capsys.readouterr().err

    def test_unknown_algorithm_is_usage_error(self, capsys):
        assert main(["analyze", "nonesuch"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_all_sweep_exits_zero(self, capsys):
        assert main(["analyze", "--all"]) == 0
        out = capsys.readouterr().out
        for name in [*ALGORITHM_REGISTRY, *BASELINE_REGISTRY]:
            assert name in out
        assert "0 failing" in out

"""Static analyzer: algorithm sweep, per-rule counterexamples, CLI."""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.algorithms.registry import ALGORITHM_REGISTRY
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
# Negative: each counterexample trips exactly its own rule.
# ----------------------------------------------------------------------
class TestRankSymmetry:
    def test_dropped_collective_on_rank_1(self):
        trace = CommTrace(world_size=4)
        group = (0, 1, 2, 3)
        for rank in (0, 2, 3):  # rank 1 never enters the collective
            trace.add(rank, "allreduce", bucket="b0", elements=64, group=group)
        findings = run_checkers(AnalysisSubject(world_size=4, trace=trace))
        assert fired_rules(findings) == {"rank-symmetry"}
        assert any(f.rank == 1 for f in findings)

    def test_size_mismatch_flags_first_divergent_op(self):
        trace = CommTrace(world_size=2)
        group = (0, 1)
        trace.add(0, "allreduce", bucket="b0", elements=64, group=group)
        trace.add(0, "allreduce", bucket="b1", elements=32, group=group)
        trace.add(1, "allreduce", bucket="b0", elements=64, group=group)
        trace.add(1, "allreduce", bucket="b1", elements=48, group=group)  # diverges
        findings = run_checkers(AnalysisSubject(world_size=2, trace=trace))
        assert fired_rules(findings) == {"rank-symmetry"}
        assert len(findings) == 1
        assert findings[0].seq == 1

    def test_symmetric_trace_is_clean(self):
        trace = CommTrace(world_size=2)
        for rank in (0, 1):
            trace.add(rank, "allreduce", bucket="b0", elements=64, group=(0, 1))
        assert run_checkers(AnalysisSubject(world_size=2, trace=trace)) == []


class TestPeerMatching:
    def test_asymmetric_gossip_peers(self):
        trace = CommTrace(world_size=4)
        group = (0, 1, 2, 3)
        peer_sets = {0: (1,), 1: (0,), 2: (3,), 3: (0,)}  # 3 lists 0; 0 lists only 1
        for rank, peers in peer_sets.items():
            trace.add(rank, "gossip", bucket="b0", elements=64, group=group, peers=peers)
        findings = run_checkers(AnalysisSubject(world_size=4, trace=trace))
        assert fired_rules(findings) == {"peer-matching"}

    def test_ring_topology_violation(self):
        trace = CommTrace(world_size=4)
        group = (0, 1, 2, 3)
        ring = {0: (3, 1), 1: (0, 2), 2: (1, 3), 3: (2, 0)}
        ring[1] = (0, 3)  # symmetric with 3's (2, 0)? keep it symmetric but off-ring
        ring[3] = (2, 0, 1)
        for rank, peers in ring.items():
            trace.add(rank, "gossip", bucket="b0", elements=64, group=group, peers=peers)
        subject = AnalysisSubject(world_size=4, trace=trace, expected_topology="ring")
        findings = run_checkers(subject)
        assert fired_rules(findings) == {"peer-matching"}
        assert any("ring" in f.message for f in findings)

    def test_unmatched_send(self):
        trace = CommTrace(world_size=2)
        trace.add(0, "send", peers=(1,), nbytes=256.0, round=0)
        findings = run_checkers(AnalysisSubject(world_size=2, trace=trace))
        assert fired_rules(findings) == {"peer-matching"}
        assert "no matching recv" in findings[0].message

    def test_matched_p2p_is_clean(self):
        trace = CommTrace(world_size=2)
        trace.add(0, "send", peers=(1,), nbytes=256.0, round=0)
        trace.add(1, "recv", peers=(0,), nbytes=256.0, round=0)
        assert run_checkers(AnalysisSubject(world_size=2, trace=trace)) == []


class TestOverlapRace:
    def test_opt_step_before_await(self):
        trace = CommTrace(world_size=1)
        trace.add(0, "issue", bucket="b0")
        trace.add(0, "opt_step", bucket="b0")  # races the in-flight reduction
        trace.add(0, "await", bucket="b0")
        findings = run_checkers(AnalysisSubject(world_size=1, trace=trace))
        assert fired_rules(findings) == {"overlap-race"}
        assert findings[0].bucket == "b0"

    def test_never_awaited_issue(self):
        trace = CommTrace(world_size=1)
        trace.add(0, "issue", bucket="b0")
        trace.add(0, "opt_step", bucket="b1")
        findings = run_checkers(AnalysisSubject(world_size=1, trace=trace))
        assert fired_rules(findings) == {"overlap-race"}
        assert any("never" in f.message for f in findings)

    def test_bucketless_write_races_any_outstanding_comm(self):
        trace = CommTrace(world_size=1)
        trace.add(0, "issue", bucket="b0")
        trace.add(0, "ef_write")  # empty bucket = touches everything
        trace.add(0, "await", bucket="b0")
        findings = run_checkers(AnalysisSubject(world_size=1, trace=trace))
        assert fired_rules(findings) == {"overlap-race"}

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
        for name in ALGORITHM_REGISTRY:
            assert name in out
        assert "0 failing" in out

"""Plan-space verifier: negative fixtures per static rule, pruning, CLI.

Each negative fixture is a minimal broken plan description that must produce
*exactly one* finding, with a location — the root cause, not a cascade of
downstream checker noise.
"""

import json

import pytest

from repro.__main__ import main
from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.analysis import (
    PlanPoint,
    check_plan_static,
    enumerate_points,
    gossip_weight_matrix,
    prune_points,
    sweep_planspace,
    verify_point,
)
from repro.analysis.planspace import PLAN_OVERRIDES
from repro.analysis.symbolic import comm_model_of, gossip_peer_sets


def the_one_finding(findings):
    assert len(findings) == 1, [f.render() for f in findings]
    (finding,) = findings
    assert finding.location(), finding.render()
    assert finding.plan, finding.render()
    return finding


# ----------------------------------------------------------------------
# Negative fixtures: one broken plan, one root-cause finding each.
# ----------------------------------------------------------------------
class TestStaticRules:
    def test_asymmetric_gossip_peers(self):
        point = PlanPoint(
            algorithm="decentralized", world_size=2, workers_per_node=1,
            peer_sets=((1,), ()),  # rank 0 lists 1; rank 1 lists nobody
        )
        finding = the_one_finding(check_plan_static(point))
        assert finding.rule == "plan-gossip-closure"
        assert finding.severity == "error"
        assert finding.rank == 0

    def test_non_doubly_stochastic_weight_matrix(self):
        # A path graph 0-1-2: peers are mutual, but rank 1's column of the
        # averaging matrix sums to 4/3 — mass drifts toward the middle.
        point = PlanPoint(
            algorithm="decentralized", world_size=3, workers_per_node=1,
            peer_sets=((1,), (0, 2), (1,)),
        )
        finding = the_one_finding(check_plan_static(point))
        assert finding.rule == "plan-gossip-stochasticity"
        assert finding.severity == "error"
        assert finding.rank == 1

    def test_non_divisible_hierarchy_split(self):
        point = PlanPoint(
            algorithm="allreduce", world_size=6, workers_per_node=4,
            hierarchical=True,
        )
        finding = the_one_finding(check_plan_static(point))
        assert finding.rule == "plan-hierarchy-split"
        assert finding.severity == "error"

    def test_biased_compressor_without_error_feedback(self):
        point = PlanPoint(algorithm="qsgd", compressor="signsgd")
        finding = the_one_finding(check_plan_static(point))
        assert finding.rule == "plan-compressor-compat"
        assert finding.severity == "error"
        assert "signsgd" in finding.message

    def test_oversized_bucket_cap_warns(self):
        point = PlanPoint(algorithm="allreduce", bucket_bytes=1e6)
        finding = the_one_finding(check_plan_static(point))
        assert finding.rule == "plan-bucket-feasibility"
        assert finding.severity == "warning"  # degenerate, not invalid

    def test_non_positive_bucket_cap_is_an_error(self):
        for cap in (0.0, -1.0, float("nan")):
            point = PlanPoint(algorithm="allreduce", bucket_bytes=cap)
            finding = the_one_finding(check_plan_static(point))
            assert finding.rule == "plan-bucket-feasibility"
            assert finding.severity == "error"
            # ... so verification stops before the planner could reject it.
            verdict = verify_point(point)
            assert not verdict.ok
            assert verdict.source == "static rules (lowering skipped)"

    def test_unknown_compressor(self):
        point = PlanPoint(algorithm="allreduce", compressor="no-such-codec")
        finding = the_one_finding(check_plan_static(point))
        assert finding.rule == "plan-compressor-compat"
        assert finding.severity == "error"

    def test_default_points_are_clean(self):
        for name in sorted(ALGORITHM_REGISTRY):
            point = PlanPoint(algorithm=name, **PLAN_OVERRIDES.get(name, {}))
            assert check_plan_static(point) == [], name


class TestWeightMatrix:
    def test_ring_matrix_is_doubly_stochastic(self):
        point = PlanPoint(
            algorithm="decentralized-8bit", world_size=4, workers_per_node=2
        )
        peer_sets = gossip_peer_sets(point, comm_model_of("decentralized-8bit"))
        matrix = gossip_weight_matrix(peer_sets, tuple(range(4)))
        for i in range(4):
            assert sum(matrix[i]) == pytest.approx(1.0)
            assert sum(row[i] for row in matrix) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Verdicts and pruning.
# ----------------------------------------------------------------------
class TestVerifyAndPrune:
    def test_static_error_skips_lowering(self):
        verdict = verify_point(PlanPoint(algorithm="qsgd", compressor="signsgd"))
        assert not verdict.ok
        assert verdict.num_ops == 0
        assert "lowering skipped" in verdict.source
        assert "error feedback" in verdict.rejection

    def test_clean_point_lowers_and_counts_ops(self):
        verdict = verify_point(PlanPoint(algorithm="qsgd"))
        assert verdict.ok
        assert verdict.num_ops > 0
        assert "symbolic lowering" in verdict.source

    def test_prune_points_partitions_with_reasons(self):
        points = [
            PlanPoint(algorithm="qsgd"),
            PlanPoint(algorithm="qsgd", compressor="signsgd"),
            PlanPoint(
                algorithm="allreduce", world_size=6, workers_per_node=4,
                hierarchical=True,
            ),
        ]
        accepted, rejected = prune_points(points)
        assert accepted == [points[0]]
        assert len(rejected) == 2
        rules = {v.errors[0].rule for v in rejected}
        assert rules == {"plan-compressor-compat", "plan-hierarchy-split"}
        for verdict in rejected:
            assert verdict.rejection

    def test_default_sweep_is_clean_including_baselines(self):
        report = sweep_planspace(enumerate_points())
        assert report.ok, report.render()
        assert report.rejected() == []
        # 14 algorithms x 8 O/F/H combinations at the default world shape
        assert len(report.verdicts) == 14 * 8
        assert all(v.num_ops > 0 for v in report.verdicts)

    def test_report_render_and_to_dict(self):
        report = sweep_planspace(
            [
                PlanPoint(algorithm="qsgd"),
                PlanPoint(algorithm="qsgd", compressor="signsgd"),
            ]
        )
        assert not report.ok
        text = report.render()
        assert "2 plan(s) checked, 1 accepted, 1 rejected" in text
        assert "plan-compressor-compat" in text
        payload = report.to_dict()
        assert payload["num_plans"] == 2 and payload["num_rejected"] == 1
        failed = [v for v in payload["verdicts"] if not v["ok"]]
        assert len(failed) == 1
        assert failed[0]["findings"][0]["rule"] == "plan-compressor-compat"
        assert failed[0]["findings"][0]["plan"]  # location carries the plan label


# ----------------------------------------------------------------------
# CLI: python -m repro analyze --plans
# ----------------------------------------------------------------------
class TestPlansCli:
    def test_single_algorithm_sweep(self, capsys):
        assert main(["analyze", "--plans", "decentralized-8bit"]) == 0
        out = capsys.readouterr().out
        assert "plan(s) checked" in out and "0 rejected" in out

    def test_json_output_parses(self, capsys):
        assert main(["analyze", "--plans", "qsgd", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["num_plans"] == 8  # one algorithm x O/F/H grid

    def test_unknown_algorithm_exits_2(self, capsys):
        assert main(["analyze", "--plans", "no-such-algo"]) == 2
        assert "no communication model" in capsys.readouterr().err

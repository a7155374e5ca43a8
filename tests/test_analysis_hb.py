"""Happens-before engine tests: seeded defects, clean sweeps, witnesses.

One counterexample per ``hb-*`` rule — each a few-line trace with exactly
one planted bug — must fire *exactly* its rule across the whole suite and
carry a printable witness (what ``repro analyze --explain`` renders).  The
positive direction is covered twice: every registered algorithm and
baseline analyzes clean (including the O/F/H × update-mode schedule sweep),
and a Hypothesis property in ``test_schedule_executor.py`` checks arbitrary
generated schedules.  A second property here replays random hand-built
traces and checks that every wedged replay is reported and located.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.analysis import (
    AnalysisSubject,
    CommTrace,
    analyze_algorithm,
    build_hb,
    run_checkers,
)
from repro.analysis.hb import HB_RULES
from repro.baselines import BASELINE_REGISTRY
from repro.core import GATE_BACKWARD_END, GATE_BARRIER, GATE_COMM_DONE, GATE_GRAD_READY


def fired_rules(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# Seeded defects: one per rule, exactly one rule fires, witness printable
# ----------------------------------------------------------------------
class TestSeededDefects:
    def _race_subject(self):
        # The optimizer steps on b0 while b0's reduction is still in flight
        # on the comm thread: both touch grad bytes [0, 64) unordered.
        trace = CommTrace(1)
        trace.add(0, "issue", bucket="b0", elements=64, thread="main",
                  start=0, stop=64)
        trace.add(0, "allreduce", bucket="b0", elements=64, group=(0,),
                  thread="comm", gate=GATE_GRAD_READY, start=0, stop=64)
        trace.add(0, "opt_step", bucket="b0", elements=64, thread="main",
                  start=0, stop=64)
        return AnalysisSubject(world_size=1, trace=trace)

    def test_update_on_unawaited_bucket_is_race(self):
        findings = run_checkers(self._race_subject())
        assert fired_rules(findings) == {"hb-race"}
        assert len(findings) == 1

    def test_race_witness_names_both_events_and_ancestor(self):
        (finding,) = run_checkers(self._race_subject())
        witness = "\n".join(finding.witness)
        assert "A:" in witness and "B:" in witness
        assert "allreduce" in witness and "opt_step" in witness
        assert "no happens-before path" in witness
        assert "last common predecessor" in witness  # the issue op
        assert "issue" in finding.explain()

    def test_awaited_update_is_ordered_and_clean(self):
        # Same shape, but the await (gated on the comm) orders the update.
        trace = CommTrace(1)
        trace.add(0, "issue", bucket="b0", elements=64, thread="main",
                  start=0, stop=64)
        trace.add(0, "allreduce", bucket="b0", elements=64, group=(0,),
                  thread="comm", gate=GATE_GRAD_READY, start=0, stop=64)
        trace.add(0, "await", bucket="b0", elements=64, thread="main",
                  gate=GATE_COMM_DONE, start=0, stop=64)
        trace.add(0, "opt_step", bucket="b0", elements=64, thread="main",
                  start=0, stop=64)
        assert run_checkers(AnalysisSubject(world_size=1, trace=trace)) == []

    def _collective_order_deadlock_subject(self):
        # Rank 0 reduces b0 then b1; rank 1 reduces b1 then b0 — each waits
        # for the other inside its first collective: a provable wait cycle.
        trace = CommTrace(2)
        for rank, order in ((0, ("b0", "b1")), (1, ("b1", "b0"))):
            for bucket in order:
                trace.add(rank, "allreduce", bucket=bucket, elements=64,
                          group=(0, 1), peers=(1 - rank,))
        return AnalysisSubject(world_size=2, trace=trace)

    def test_collective_order_mismatch_is_deadlock(self):
        findings = run_checkers(self._collective_order_deadlock_subject())
        assert fired_rules(findings) == {"hb-deadlock"}
        assert len(findings) == 1
        assert "wait cycle" in findings[0].message

    def test_deadlock_witness_shows_the_cycle(self):
        (finding,) = run_checkers(self._collective_order_deadlock_subject())
        assert len(finding.witness) == 2  # one hop per blocked rank
        witness = "\n".join(finding.witness)
        assert "rank 0" in witness and "rank 1" in witness
        assert "waits for" in witness

    def _gated_partner_cycle_subject(self):
        # Rank 0 reduces b0 then b1.  Rank 1 reduces b1 on main before it
        # issues b0, and reduces b0 on comm once b0 is issued: rank 0's b0
        # waits for a partner held by its grad_ready gate, which waits
        # behind rank 1's b1, which waits for rank 0 — a wait cycle.
        trace = CommTrace(2)
        trace.add(0, "allreduce", bucket="b0", elements=64, group=(0, 1))
        trace.add(0, "allreduce", bucket="b1", elements=64, group=(0, 1))
        trace.add(1, "allreduce", bucket="b1", elements=64, group=(0, 1))
        trace.add(1, "issue", bucket="b0", elements=64)
        trace.add(1, "allreduce", bucket="b0", elements=64, group=(0, 1),
                  thread="comm", gate=GATE_GRAD_READY)
        return AnalysisSubject(world_size=2, trace=trace)

    def test_cycle_through_a_gated_partner_is_deadlock(self):
        (finding,) = run_checkers(self._gated_partner_cycle_subject())
        assert finding.rule == "hb-deadlock"
        assert finding.message.startswith("wait cycle across ranks [0, 1]")
        assert len(finding.witness) == 2  # one hop per blocked rank
        witness = "\n".join(finding.witness)
        assert "rank 1 thread 'comm' op#2 allreduce b0" in witness
        assert "but gate 'grad_ready' waits on rank 1 thread 'main' op#1 issue b0" in witness

    def _asymmetric_gossip_subject(self):
        # Rank 0 exchanges with rank 1, but rank 1's peer set is empty: the
        # recv rank 0 waits on is never posted.
        trace = CommTrace(2)
        trace.add(0, "gossip", bucket="b0", elements=64, group=(0, 1), peers=(1,))
        trace.add(1, "gossip", bucket="b0", elements=64, group=(0, 1), peers=())
        return AnalysisSubject(world_size=2, trace=trace)

    def test_asymmetric_gossip_peers_is_deadlock(self):
        findings = run_checkers(self._asymmetric_gossip_subject())
        assert fired_rules(findings) == {"hb-deadlock"}
        assert len(findings) == 1
        assert "does not list rank 0" in findings[0].message

    def test_gossip_deadlock_witness_is_printable(self):
        (finding,) = run_checkers(self._asymmetric_gossip_subject())
        assert finding.witness
        assert "never posted" in finding.explain()

    def test_mutual_gossip_peers_are_clean(self):
        trace = CommTrace(2)
        trace.add(0, "gossip", bucket="b0", elements=64, group=(0, 1), peers=(1,))
        trace.add(1, "gossip", bucket="b0", elements=64, group=(0, 1), peers=(0,))
        assert run_checkers(AnalysisSubject(world_size=2, trace=trace)) == []

    def _lost_update_subject(self):
        # The error-feedback residual is rewritten on main while the
        # compressed collective (which reads+writes the same residual) runs
        # unordered on the comm thread.
        trace = CommTrace(1)
        trace.add(0, "ef_write", bucket="b0", elements=64, thread="main",
                  start=0, stop=64)
        trace.add(0, "compressed_allreduce", bucket="b0", elements=64,
                  group=(0,), thread="comm", compressor="onebit", biased=True,
                  error_feedback=True, start=0, stop=64)
        return AnalysisSubject(world_size=1, trace=trace)

    def test_unordered_ef_write_is_lost_update(self):
        findings = run_checkers(self._lost_update_subject())
        assert fired_rules(findings) == {"hb-lost-update"}
        assert len(findings) == 1
        assert "residual" in findings[0].message

    def test_lost_update_witness_names_both_events(self):
        (finding,) = run_checkers(self._lost_update_subject())
        witness = "\n".join(finding.witness)
        assert "ef_write" in witness and "compressed_allreduce" in witness

    def _staleness_subject(self, bound):
        # The step-3 update consumes the gradient computed at step 0 (and
        # awaited then, so only its age is wrong).
        trace = CommTrace(1)
        trace.add(0, "issue", bucket="b0", elements=64, step=0, start=0, stop=64)
        trace.add(0, "await", bucket="b0", elements=64, step=0, start=0, stop=64)
        trace.add(0, "opt_step", bucket="b0", elements=64, step=3,
                  start=0, stop=64)
        subject = AnalysisSubject(world_size=1, trace=trace)
        subject.notes["staleness_bound"] = bound
        return subject

    def test_stale_gradient_beyond_bound_fires(self):
        findings = run_checkers(self._staleness_subject(bound=1))
        assert fired_rules(findings) == {"hb-staleness"}
        assert len(findings) == 1
        assert "3 step(s) old" in findings[0].message

    def test_staleness_witness_is_an_hb_path(self):
        (finding,) = run_checkers(self._staleness_subject(bound=1))
        witness = "\n".join(finding.witness)
        assert "issue" in witness and "opt_step" in witness
        assert "staleness 3 > bound 1" in witness

    def test_staleness_within_bound_is_clean(self):
        assert run_checkers(self._staleness_subject(bound=3)) == []

    def test_no_declared_bound_no_staleness_findings(self):
        trace = CommTrace(1)
        trace.add(0, "issue", bucket="b0", elements=64, step=0)
        trace.add(0, "await", bucket="b0", elements=64, step=0)
        trace.add(0, "opt_step", bucket="b0", elements=64, step=9)
        assert run_checkers(AnalysisSubject(world_size=1, trace=trace)) == []


# ----------------------------------------------------------------------
# Engine structure
# ----------------------------------------------------------------------
class TestHBGraph:
    def test_missing_collective_partner_is_unsatisfiable_wait(self):
        trace = CommTrace(4)
        for rank in (0, 2, 3):  # rank 1 never enters the collective
            trace.add(rank, "allreduce", bucket="b0", elements=64, group=(0, 1, 2, 3))
        findings = run_checkers(AnalysisSubject(world_size=4, trace=trace))
        assert fired_rules(findings) == {"hb-deadlock"}
        assert {f.rank for f in findings} == {0, 2, 3}
        assert all("rank 1 never issues a matching" in f.message for f in findings)

    def test_in_flight_window_sits_between_issue_and_await(self):
        trace = CommTrace(1)
        trace.add(0, "issue", bucket="b0", elements=4)
        trace.add(0, "opt_step", bucket="b0", elements=4)
        trace.add(0, "await", bucket="b0", elements=4)
        graph = build_hb(AnalysisSubject(world_size=1, trace=trace))
        issue, flight, step, wait = graph.events
        assert flight.op.kind == "in_flight" and flight.tid != issue.tid
        assert graph.happens_before(issue, flight)
        assert graph.happens_before(flight, wait)
        assert not graph.ordered(flight, step)

    def test_send_recv_edge_orders_cross_rank_events(self):
        trace = CommTrace(2)
        trace.add(0, "send", nbytes=64.0, round=0, peers=(1,), match="m0")
        trace.add(1, "recv", nbytes=64.0, round=0, peers=(0,), match="m0")
        graph = build_hb(AnalysisSubject(world_size=2, trace=trace))
        send, recv = graph.events
        assert graph.happens_before(send, recv)
        assert not graph.happens_before(recv, send)

    def test_recv_without_send_blocks_forever(self):
        trace = CommTrace(2)
        trace.add(1, "recv", nbytes=64.0, round=0, peers=(0,), match="m0")
        findings = run_checkers(AnalysisSubject(world_size=2, trace=trace))
        assert fired_rules(findings) == {"hb-deadlock"}
        assert "no matching send" in findings[0].message

    def test_collective_synchronizes_all_members(self):
        trace = CommTrace(2)
        for rank in (0, 1):
            trace.add(rank, "issue", bucket="b0", elements=64)
            trace.add(rank, "allreduce", bucket="b0", elements=64, group=(0, 1))
        graph = build_hb(AnalysisSubject(world_size=2, trace=trace))
        issue0 = graph.events[0]
        coll1 = next(
            e for e in graph.events
            if e.op.rank == 1 and e.op.kind == "allreduce"
        )
        # Rank 0's pre-collective event happens-before rank 1's collective.
        assert graph.happens_before(issue0, coll1)

    def test_graph_is_cached_on_subject(self):
        trace = CommTrace(1)
        trace.add(0, "opt_step", bucket="b0", elements=4)
        subject = AnalysisSubject(world_size=1, trace=trace)
        assert build_hb(subject) is build_hb(subject)


# ----------------------------------------------------------------------
# Property: a wedged replay always carries a finding it can locate
# ----------------------------------------------------------------------
@st.composite
def hand_built_subjects(draw):
    """Small traces of every op family on 1-4 ranks, two threads, any gate."""
    world = draw(st.integers(1, 4))
    trace = CommTrace(world)
    for rank in range(world):
        for _ in range(draw(st.integers(0, 6))):
            kind = draw(st.sampled_from(
                ("allreduce", "barrier", "gossip", "send", "recv",
                 "issue", "await", "opt_step", "ef_write")
            ))
            fields = {
                "bucket": draw(st.sampled_from(("b0", "b1"))),
                "elements": 64,
                "thread": draw(st.sampled_from(("main", "comm"))),
                "gate": draw(st.sampled_from(
                    ("", GATE_GRAD_READY, GATE_BACKWARD_END, GATE_COMM_DONE, GATE_BARRIER)
                )),
            }
            if kind in ("allreduce", "barrier", "gossip"):
                fields["group"] = tuple(range(world))
            if kind == "gossip":
                fields["peers"] = tuple(sorted(draw(st.sets(st.integers(0, world), max_size=2))))
            elif kind in ("send", "recv"):
                del fields["bucket"]
                fields.update(peers=(draw(st.integers(0, world - 1)),), nbytes=64.0, round=0)
            trace.add(rank, kind, **fields)
    return AnalysisSubject(world_size=world, trace=trace)


@given(subject=hand_built_subjects())
@settings(max_examples=200)
def test_wedged_replay_always_carries_a_located_finding(subject):
    graph = build_hb(subject)
    if any(not event.clock for event in graph.events):
        assert graph.deadlocks
    for finding in graph.deadlocks:
        assert finding.rule == "hb-deadlock"
        assert finding.rank is not None and finding.seq is not None
        assert finding.witness
        assert "never becomes runnable" not in finding.message


# ----------------------------------------------------------------------
# Positive sweep: registry + baselines are HB-clean
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY) + sorted(BASELINE_REGISTRY))
def test_registry_and_baselines_hb_clean(name):
    report = analyze_algorithm(name, steps=3)
    assert report.ok, report.render()
    assert report.findings == []
    assert report.num_ops > 0
    # both the dry-run trace and (when planned) the lowered plan were checked
    assert any("dry-run" in s for s in report.sources)
    assert set(HB_RULES) <= set(report.checkers)


# ----------------------------------------------------------------------
# CLI: the variant sweep, baselines and --explain
# ----------------------------------------------------------------------
class TestCLI:
    # The two test_hb_flag_* cases predate the retired --hb flag: the variant
    # sweep and the baseline registry it switched on are now always on.
    def test_hb_flag_single_algorithm(self, capsys):
        assert main(["analyze", "allreduce", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS allreduce" in out
        assert "updates=barrier" in out  # the schedule-variant sweep ran

    def test_hb_flag_accepts_baselines(self, capsys):
        assert main(["analyze", "horovod", "--steps", "2"]) == 0
        assert "PASS horovod" in capsys.readouterr().out

    def test_explain_out_of_range_is_usage_error(self, capsys):
        assert main(["analyze", "allreduce", "--steps", "2", "--explain", "99"]) == 2
        assert "only" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["--plans", "--protocol"])
    def test_explain_is_refused_under_plans_and_protocol(self, mode, capsys):
        assert main(["analyze", mode, "--explain", "0"]) == 2
        captured = capsys.readouterr()
        assert "--explain" in captured.err and mode in captured.err
        assert captured.out == ""

    def test_explain_negative_is_usage_error(self, capsys):
        assert main(["analyze", "allreduce", "--explain", "-1"]) == 2
        assert "non-negative" in capsys.readouterr().err

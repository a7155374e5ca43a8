"""Protocol model checker: exhaustive exploration, POR, mutations.

Covers the :mod:`repro.analysis.protocol` model/explorer half of ISSUE 8:

* the clean model explores clean at several world sizes (no false
  positives), and world 4 stays under a fixed state bound under DPOR;
* one negative fixture per protocol rule, planspace-style: a single seeded
  bug must yield **exactly one** located root-cause finding with a
  printable interleaving witness;
* partial-order reduction is validated against the unreduced search: same
  verdict, same rule, (far) fewer states;
* randomized legal interleavings — a Hypothesis-driven scheduler over the
  clean model — never trip an invariant and always quiesce cleanly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.protocol import (
    MUTATIONS,
    Explorer,
    Faults,
    Workload,
    build_model,
    explore,
    run_mutation,
    run_mutations,
)
from repro.analysis.protocol.model import ALL_RULES, RULE_CONFORMANCE


def the_one_finding(findings):
    assert len(findings) == 1, [f.render() for f in findings]
    (finding,) = findings
    assert finding.location(), finding.render()
    assert finding.witness, finding.render()
    return finding


# ----------------------------------------------------------------------
# Clean model: exhaustive exploration finds nothing.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("world", [1, 2, 3])
def test_clean_model_explores_clean(world):
    result = explore(Workload(world=world))
    assert result.ok, result.describe()
    assert result.finding is None
    assert not result.truncated
    assert result.states > 0


def test_world4_exploration_is_complete_and_small():
    # Deterministic stand-in for a wall-clock budget: DPOR keeps the whole
    # world-4 state space far below the explorer's truncation bound.
    result = explore(Workload(world=4))
    assert result.ok, result.describe()
    assert not result.truncated
    assert result.states < 1_000, result.describe()


def test_oversize_record_grows_the_ring_cleanly():
    # A batch larger than the ring is preceded by a remap of the rank's
    # rings; only *skipping* the grow (force_place) or unlinking the old
    # rings before the remap ack (early_retire) is a bug.
    result = explore(Workload(oversize=True))
    assert result.ok, result.describe()


def test_clean_model_with_one_round_per_batch():
    result = explore(Workload(rounds_per_batch=1))
    assert result.ok, result.describe()


def test_exploration_result_to_dict_roundtrips():
    result = explore(Workload(world=2))
    data = result.to_dict()
    assert data["ok"] is True
    assert data["world"] == 2
    assert data["finding"] is None
    assert data["states"] == result.states


# ----------------------------------------------------------------------
# Negative fixtures: one seeded bug, exactly one root-cause finding.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mutation", MUTATIONS, ids=[m.name for m in MUTATIONS])
def test_each_seeded_bug_yields_exactly_its_root_cause(mutation):
    outcome = run_mutation(mutation)
    finding = the_one_finding(outcome.result.findings())
    assert finding.rule == mutation.expected_rule, finding.render()
    assert finding.severity == "error"
    assert outcome.ok, outcome.describe()


def test_every_model_rule_has_a_negative_fixture():
    # Every protocol rule the model can raise is exercised by some mutation
    # (conformance is the sanitizer's divergence rule — live streams only).
    covered = {m.expected_rule for m in MUTATIONS}
    model_rules = set(ALL_RULES) - {RULE_CONFORMANCE}
    assert covered == model_rules, sorted(model_rules - covered)


def test_mutation_report_is_green_and_renders():
    report = run_mutations()
    assert report.ok, report.render()
    text = report.render()
    assert f"{len(MUTATIONS)}/{len(MUTATIONS)}" in text
    data = report.to_dict()
    assert data["ok"] is True
    assert len(data["mutations"]) == len(MUTATIONS)


def test_witness_is_a_printable_interleaving_trace():
    outcome = run_mutation(MUTATIONS[0])  # dropped-ack -> deadlock
    finding = the_one_finding(outcome.result.findings())
    trace = finding.explain()
    assert "step" in trace
    assert any("worker" in line or "parent" in line for line in finding.witness)


# ----------------------------------------------------------------------
# Partial-order reduction: same verdicts, fewer states.
# ----------------------------------------------------------------------
_POR_SCENARIOS = [
    ("clean-w2", Workload(), Faults()),
    ("clean-w3", Workload(world=3), Faults()),
    ("dropped-ack", Workload(), Faults(drop_ack=((0, 0),))),
    ("stale-seq", Workload(), Faults(stale_seq=((0, 1),))),
    ("dropped-pool-ack", Workload(), Faults(drop_ack=((0, 1),))),
    ("leak", Workload(), Faults(skip_unlink=(0,))),
    ("ack-early", Workload(), Faults(ack_early=(0,))),
    (
        "stale-flag",
        Workload(rounds_per_batch=1, pool=False, task=False),
        Faults(stale_seq=((0, 1),)),
    ),
    ("clean-reduce", Workload(world=2, reduce=True), Faults()),
    ("clean-grow", Workload(oversize=True), Faults()),
    ("early-retire", Workload(oversize=True), Faults(early_retire=(0,))),
    (
        "unmapped-poolref",
        Workload(world=2, reduce=True),
        Faults(poolref_unmapped=((0, 1),)),
    ),
    (
        "skip-reduce-write",
        Workload(world=2, reduce=True),
        Faults(skip_reduce_write=(0,)),
    ),
]


@pytest.mark.parametrize(
    "workload,faults", [(w, f) for _, w, f in _POR_SCENARIOS],
    ids=[name for name, _, _ in _POR_SCENARIOS],
)
def test_por_agrees_with_full_search(workload, faults):
    reduced = Explorer(por=True).explore(workload, faults)
    full = Explorer(por=False).explore(workload, faults)
    assert reduced.ok == full.ok
    reduced_rule = reduced.finding.rule if reduced.finding else None
    full_rule = full.finding.rule if full.finding else None
    assert reduced_rule == full_rule
    assert reduced.states <= full.states


def test_por_actually_reduces_the_clean_state_space():
    reduced = Explorer(por=True).explore(Workload(world=3))
    full = Explorer(por=False).explore(Workload(world=3))
    assert reduced.states < full.states / 2, (reduced.states, full.states)


# ----------------------------------------------------------------------
# Randomized legal interleavings stay clean (Hypothesis scheduler).
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(data=st.data(), world=st.integers(min_value=1, max_value=3))
def test_random_legal_interleavings_are_clean(data, world):
    state = build_model(Workload(world=world), Faults())
    steps = 0
    while True:
        procs = state.enabled_procs()
        if not procs:
            break
        proc = data.draw(st.sampled_from(sorted(procs)), label="scheduled proc")
        _, finding = state.step(proc)
        assert finding is None, finding.render()
        steps += 1
        assert steps < 10_000, "model failed to quiesce"
    assert state.quiescence_finding() is None
    assert steps > 0


def test_truncation_is_reported_not_silent():
    result = Explorer(max_states=5).explore(Workload(world=2))
    assert result.truncated
    assert not result.ok

"""Symbolic plan lowering: oracle identity vs engine-built schedules.

The tentpole claim of :mod:`repro.analysis.symbolic` is that lowering a plan
*description* yields IR event-identical to lowering the schedule a really
constructed engine commits to — for every registered algorithm and baseline,
across all sixteen O/F/H x update-mode variants, at world sizes {2, 4, 8,
16} — without constructing a transport or an engine or issuing a round (the
wall-clock ratio against a dry run is ``repro perf``'s ``symbolic_lowering``
record, reported there and gated nowhere).
"""

import dataclasses

import pytest

from repro.algorithms.registry import ALGORITHM_REGISTRY
from repro.analysis import run_checkers
from repro.analysis.driver import probe_algorithm, record_dry_run
from repro.analysis.lowering import lower_schedule
from repro.analysis.planspace import verify_point
from repro.analysis.symbolic import (
    PROBE_READY_INVENTORY,
    PlanPoint,
    check_plan_static,
    lower_point,
    probe_profile,
    sweep_variants,
    symbolic_schedule,
)
from repro.baselines import BASELINE_REGISTRY
from repro.cluster.topology import ClusterSpec
from repro.cluster.transport import Transport
from repro.compression.signsgd import SignSGDCompressor
from repro.core.engine import Algorithm, BaguaEngine

ALL_NAMES = sorted(ALGORITHM_REGISTRY) + sorted(BASELINE_REGISTRY)
#: (num_nodes, workers_per_node) -> worlds {2, 4, 8, 16}.
WORLD_SHAPES = ((1, 2), (2, 2), (2, 4), (4, 4))

#: (name, num_nodes, workers_per_node) -> (engine, recorder).
_DRY_RUN_CACHE: dict = {}


def dry_run(name, num_nodes, workers_per_node):
    """Check-by-execution: the driver's canonical executed path (an engine
    plus 5 recorded steps).  Cached per (name, shape)."""
    key = (name, num_nodes, workers_per_node)
    if key not in _DRY_RUN_CACHE:
        spec = ClusterSpec(num_nodes=num_nodes, workers_per_node=workers_per_node)
        _DRY_RUN_CACHE[key] = record_dry_run(probe_algorithm(name), spec)
    return _DRY_RUN_CACHE[key]


def built_engine(name, num_nodes, workers_per_node):
    return dry_run(name, num_nodes, workers_per_node)[0]


def variant_grid(schedule):
    """The driver's 16 O/F/H x update-mode rewrites, in sweep order."""
    for overlap in (False, True):
        for flatten in (False, True):
            for hierarchical in (False, True):
                for per_bucket in (False, True):
                    yield dataclasses.replace(
                        schedule,
                        overlap_backward=overlap,
                        flatten=flatten,
                        hierarchical=hierarchical,
                        per_bucket_updates=per_bucket,
                    )


# ----------------------------------------------------------------------
# The oracle: symbolic IR == engine-built IR, per op, per rank.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", WORLD_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("name", ALL_NAMES)
def test_symbolic_sweep_is_event_identical_to_engine_sweep(name, shape):
    num_nodes, workers_per_node = shape
    world = num_nodes * workers_per_node
    engine = built_engine(name, num_nodes, workers_per_node)
    spec = ClusterSpec(num_nodes=num_nodes, workers_per_node=workers_per_node)
    nodes = spec.node_groups()

    engine_subjects = [
        lower_schedule(variant, world, nodes=nodes)
        for variant in variant_grid(engine.schedule)
    ]
    point = PlanPoint(
        algorithm=name, world_size=world, workers_per_node=workers_per_node
    )
    symbolic_subjects = sweep_variants(point)

    assert len(engine_subjects) == len(symbolic_subjects) == 16
    for engine_subject, symbolic_subject in zip(engine_subjects, symbolic_subjects):
        assert symbolic_subject.layout == engine_subject.layout
        for rank in range(world):
            assert (
                symbolic_subject.trace.ops_of(rank)
                == engine_subject.trace.ops_of(rank)
            ), f"rank {rank} diverges for {name} @ {shape}"


@pytest.mark.parametrize("name", ALL_NAMES)
def test_symbolic_schedule_matches_engine_schedule(name):
    """The reconstructed BucketSchedule equals the engine's, field for field."""
    engine = built_engine(name, 2, 2)
    point = PlanPoint(algorithm=name, world_size=4, workers_per_node=2)
    assert symbolic_schedule(point) == engine.schedule


@pytest.mark.parametrize("name", ALL_NAMES)
def test_recorded_collective_tags_are_the_declared_ones(name):
    """Declared vs recorded: the tags the primitives put on a live run's
    collective ops are the ones the algorithm's declaration implies — the
    full-precision kind during warm-up and without a codec, the compressed
    kind with the declared codec and EF flag otherwise."""
    engine, recorder = dry_run(name, 2, 2)
    declared = engine.algorithm
    plain = "gossip" if declared.topology else "allreduce"
    ops = [
        op for op in recorder.trace.all_ops()
        if op.kind in (plain, f"compressed_{plain}")
    ]
    codec = declared.compressor
    for op in ops:
        tags = (op.kind, op.compressor, op.biased, op.error_feedback)
        if codec is None or op.step < declared.warmup_steps:
            assert tags == (plain, "", False, False), op
        else:
            assert tags == (
                f"compressed_{plain}", codec.name, codec.biased, declared.error_feedback
            ), op
    # Only point-to-point algorithms (async push/pull, the baselines' ring
    # and parameter-server traffic) go through no primitive at all.
    assert bool(ops) == (not declared.asynchronous and name in ALGORITHM_REGISTRY)


def test_probe_profile_matches_live_profiler():
    """The static ready inventory is what GradientReadyProfiler records."""
    engine = built_engine("allreduce", 2, 2)
    live = [(r.name, r.elements) for r in engine.profile.records]
    assert live == list(PROBE_READY_INVENTORY)
    static = probe_profile()
    assert [(r.name, r.elements, r.ready_index) for r in static.records] == [
        (r.name, r.elements, r.ready_index) for r in engine.profile.records
    ]


# ----------------------------------------------------------------------
# Nothing executes: the economics the pruner rests on.
# ----------------------------------------------------------------------
def test_symbolic_sweep_builds_no_engine_and_issues_no_rounds(monkeypatch):
    """Lowering every ``sweep_variants`` plan works from the description
    alone: no ``Transport`` or ``BaguaEngine`` is constructed and no exchange
    round is issued.  (How much cheaper that is than a dry run is wall-clock,
    so ``repro perf`` reports it as the ``symbolic_lowering`` record.)"""
    touched: list[str] = []

    def forbid(cls, method):
        def trap(*_args, **_kwargs):
            touched.append(f"{cls.__name__}.{method}")
            raise AssertionError(f"symbolic lowering called {cls.__name__}.{method}")

        monkeypatch.setattr(cls, method, trap)

    forbid(Transport, "__init__")
    forbid(Transport, "exchange")
    forbid(Transport, "exchange_sized")
    forbid(BaguaEngine, "__init__")

    for name in ALL_NAMES:
        subjects = sweep_variants(PlanPoint(algorithm=name, world_size=4, workers_per_node=2))
        assert len(subjects) == 16 and all(s.trace.num_ops > 0 for s in subjects)
    assert touched == []


# ----------------------------------------------------------------------
# Gossip lowering: peer structure and checker verdicts.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["decentralized", "decentralized-8bit"])
def test_gossip_point_lowers_clean(name):
    subject = lower_point(PlanPoint(algorithm=name, world_size=4, workers_per_node=2))
    findings = run_checkers(subject)
    assert findings == [], [f.render() for f in findings]
    kinds = {op.kind for op in subject.trace.all_ops()}
    assert kinds & {"gossip", "compressed_gossip"}


def test_ring_gossip_declares_expected_topology():
    subject = lower_point(
        PlanPoint(algorithm="decentralized-8bit", world_size=4, workers_per_node=2)
    )
    assert subject.expected_topology == "ring"
    for op in subject.trace.all_ops():
        if op.kind == "compressed_gossip":
            left = (op.rank - 1) % 4
            right = (op.rank + 1) % 4
            assert set(op.peers) == {left, right}


def test_staleness_note_mirrors_algorithm_declaration():
    """The symbolic subject carries a staleness bound exactly when the
    algorithm declares one — no registry algorithm currently does, so the
    note is absent and the hb-staleness rule stays inactive, matching the
    driver's dry-run subjects."""
    from repro.analysis.symbolic import staleness_bound_of

    for name in ALL_NAMES:
        subject = lower_point(
            PlanPoint(algorithm=name, world_size=4, workers_per_node=2)
        )
        bound = staleness_bound_of(name)
        assert subject.notes.get("staleness_bound") == bound or (
            bound is None and "staleness_bound" not in subject.notes
        )


# ----------------------------------------------------------------------
# Multi-step structure: frequency and warmup phases.
# ----------------------------------------------------------------------
def test_local_sgd_alternates_silent_and_synchronized_steps():
    point = PlanPoint(
        algorithm="local-sgd", world_size=4, workers_per_node=2,
        frequency=2, steps=4,
    )
    subject = lower_point(point)
    comm_steps = {op.step for op in subject.trace.all_ops() if op.kind == "allreduce"}
    assert comm_steps == {1, 3}  # steps 0 and 2 are local-only
    silent_updates = [
        op for op in subject.trace.ops_of(0)
        if op.kind == "opt_step" and op.step in (0, 2)
    ]
    assert silent_updates and all(op.gate == "" for op in silent_updates)
    findings = run_checkers(subject)
    assert findings == [], [f.render() for f in findings]


def test_1bit_adam_warmup_runs_full_precision_then_compresses():
    point = PlanPoint(
        algorithm="1bit-adam", world_size=4, workers_per_node=2,
        warmup_steps=1, steps=2,
    )
    subject = lower_point(point)
    step0 = [op for op in subject.trace.ops_of(0) if op.step == 0]
    step1 = [op for op in subject.trace.ops_of(0) if op.step == 1]
    assert any(op.kind == "allreduce" for op in step0)
    assert not any(op.kind == "compressed_allreduce" for op in step0)
    compressed = [op for op in step1 if op.kind == "compressed_allreduce"]
    assert compressed
    for op in compressed:
        assert op.compressor == "1bit" and op.biased and op.error_feedback
    findings = run_checkers(subject)
    assert findings == [], [f.render() for f in findings]


# ----------------------------------------------------------------------
# One declaration: a class plus a registry entry is all the analyzer needs.
# ----------------------------------------------------------------------
class _SignSGD(Algorithm):
    """Test-local algorithm: a biased codec, declared with error feedback."""

    name = "sign-sgd"
    error_feedback = True

    def __init__(self):
        self.compressor = SignSGDCompressor()


def test_registered_class_is_lowered_checked_and_verified_from_its_declaration(monkeypatch):
    monkeypatch.setitem(ALGORITHM_REGISTRY, "sign-sgd", _SignSGD)
    point = PlanPoint(algorithm="sign-sgd", world_size=4, workers_per_node=2)

    assert check_plan_static(point) == []
    collectives = [
        op for op in lower_point(point).trace.all_ops() if "allreduce" in op.kind
    ]
    assert collectives
    for op in collectives:
        assert (op.kind, op.compressor, op.biased, op.error_feedback) == (
            "compressed_allreduce", "signsgd", True, True
        )
    verdict = verify_point(point)
    assert verdict.ok and verdict.num_ops > 0, verdict.render()

    # The same class declared without EF is refuted by the static rule alone.
    monkeypatch.setattr(_SignSGD, "error_feedback", False)
    (finding,) = check_plan_static(point)
    assert finding.rule == "plan-compressor-compat" and "signsgd" in finding.message

"""Plan-space enumeration and pruning over the symbolic verifier.

The auto-tuner (:mod:`repro.core.autotune`) and the O/F/H ablations explore
a combinatorial space — algorithm × overlap × fusion × hierarchy × bucket
cap × codec × topology.  Timing every point is expensive; *checking* every
point is not: :func:`verify_point` runs the static rules of
:mod:`repro.analysis.symbolic` and, when those prove nothing wrong, lowers
the point symbolically and runs the full rule suite (the happens-before
engine included) over IR that never touched a transport.

:func:`enumerate_points` walks the knob grid; :func:`sweep_planspace` turns
it into a :class:`PlanSpaceReport` (the ``repro analyze --plans`` artifact);
:func:`prune_points` splits accepted from rejected points with per-plan
rejection reasons — the auto-tuner consumes exactly this split so it never
spends simulation time on a plan the verifier can refute.

Static errors short-circuit the lowering: a plan whose description is
already refuted reports its one root-cause finding instead of the cascade
of downstream checker noise the broken IR would produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Iterable, Sequence

from ..algorithms.registry import ALGORITHM_REGISTRY
from ..baselines import BASELINE_REGISTRY
from .checkers import run_checkers
from .report import Finding
from .symbolic import (
    PROBE_BUCKET_BYTES,
    PlanPoint,
    check_plan_static,
    lower_point,
)

#: World shapes the plan sweep verifies by default: every shape the paper's
#: ablations exercise at probe scale (flat two-node, wide node, tall node).
DEFAULT_WORLD_SHAPES: tuple[tuple[int, int], ...] = ((2, 2),)

#: Per-algorithm knobs so the sweep reaches each algorithm's interesting
#: communication phase in a handful of symbolic steps — the plan-space twin
#: of :data:`repro.analysis.driver.ANALYSIS_OVERRIDES` (a 20-step warmup or
#: 4-step sync period would otherwise hide the compressed / synchronized
#: path behind steps the sweep never lowers).
PLAN_OVERRIDES: dict[str, dict] = {
    "1bit-adam": {"warmup_steps": 1, "steps": 2},
    "local-sgd": {"frequency": 2, "steps": 2},
    "qsparse-local-sgd": {"frequency": 2, "steps": 2},
}


@dataclass(frozen=True)
class PlanVerdict:
    """One plan point's verification outcome."""

    point: PlanPoint
    findings: tuple[Finding, ...]
    source: str
    num_ops: int = 0

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def rejection(self) -> str:
        """The first error's message — why the pruner drops this point."""
        return self.errors[0].message if self.errors else ""

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"{status} {self.point.describe()}: {self.num_ops} ops, "
            f"{len(self.findings)} finding(s)"
        ]
        lines.extend(f"  {f.render()}" for f in self.findings)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "plan": self.point.describe(),
            "algorithm": self.point.algorithm,
            "ok": self.ok,
            "num_ops": self.num_ops,
            "source": self.source,
            "findings": [f.to_dict() for f in self.findings],
        }


@dataclass
class PlanSpaceReport:
    """All verdicts of one plan-space sweep."""

    verdicts: list[PlanVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def accepted(self) -> list[PlanVerdict]:
        return [v for v in self.verdicts if v.ok]

    def rejected(self) -> list[PlanVerdict]:
        return [v for v in self.verdicts if not v.ok]

    def all_findings(self) -> list[Finding]:
        return [f for v in self.verdicts for f in v.findings]

    def render(self) -> str:
        rejected = self.rejected()
        lines = [
            f"plan space: {len(self.verdicts)} plan(s) checked, "
            f"{len(self.accepted())} accepted, {len(rejected)} rejected"
        ]
        for verdict in rejected:
            lines.append("")
            lines.append(verdict.render())
        warned = [
            v for v in self.verdicts
            if v.ok and any(f.severity == "warning" for f in v.findings)
        ]
        for verdict in warned:
            lines.append("")
            lines.append(verdict.render())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "num_plans": len(self.verdicts),
            "num_rejected": len(self.rejected()),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def verify_point(point: PlanPoint, profile=None) -> PlanVerdict:
    """Verify one plan point: static rules first, lowered IR second.

    A static *error* is final — the lowering is skipped, both because the
    point may not even be lowerable (a non-divisible hierarchy split has no
    node partition) and because one refuted description should report its
    root cause, not a cascade.  Static warnings do not block the lowering.
    """
    findings = list(check_plan_static(point, profile))
    if any(f.severity == "error" for f in findings):
        return PlanVerdict(
            point=point,
            findings=tuple(findings),
            source="static rules (lowering skipped)",
        )
    subject = lower_point(point, profile)
    label = point.describe()
    findings.extend(
        f if f.plan else replace(f, plan=label) for f in run_checkers(subject)
    )
    return PlanVerdict(
        point=point,
        findings=tuple(findings),
        source=subject.source,
        num_ops=subject.trace.num_ops if subject.trace else 0,
    )


def enumerate_points(
    algorithms: Sequence[str] | None = None,
    world_shapes: Sequence[tuple[int, int]] = DEFAULT_WORLD_SHAPES,
    bucket_bytes_options: Sequence[float] = (PROBE_BUCKET_BYTES,),
    compressors: Sequence[str | None] = (None,),
    topologies: Sequence[str | None] = (None,),
    steps: int = 1,
) -> list[PlanPoint]:
    """Walk the plan-space grid: O/F/H × shape × bucket cap × codec × topology.

    ``algorithms`` defaults to every registered algorithm and baseline.
    ``None`` entries in ``compressors``/``topologies`` mean each algorithm's
    natural choice; explicit entries apply to every algorithm (the pruner
    then rejects the incompatible combinations — that is the point).
    """
    if algorithms is None:
        algorithms = sorted(ALGORITHM_REGISTRY) + sorted(BASELINE_REGISTRY)
    points = []
    for name in algorithms:
        overrides = PLAN_OVERRIDES.get(name, {})
        for num_nodes, workers_per_node in world_shapes:
            for bucket_bytes in bucket_bytes_options:
                for compressor in compressors:
                    for topology in topologies:
                        for overlap in (False, True):
                            for flatten in (False, True):
                                for hierarchical in (False, True):
                                    points.append(
                                        PlanPoint(
                                            algorithm=name,
                                            world_size=num_nodes * workers_per_node,
                                            workers_per_node=workers_per_node,
                                            overlap=overlap,
                                            flatten=flatten,
                                            hierarchical=hierarchical,
                                            bucket_bytes=bucket_bytes,
                                            compressor=compressor,
                                            topology=topology,
                                            steps=overrides.get("steps", steps),
                                            frequency=overrides.get("frequency"),
                                            warmup_steps=overrides.get("warmup_steps"),
                                        )
                                    )
    return points


def sweep_planspace(
    points: Iterable[PlanPoint] | None = None,
    profile=None,
) -> PlanSpaceReport:
    """Verify every point; the ``repro analyze --plans`` entry point."""
    if points is None:
        points = enumerate_points()
    report = PlanSpaceReport()
    for point in points:
        report.verdicts.append(verify_point(point, profile=profile))
    return report


def prune_points(
    points: Iterable[PlanPoint],
    profile=None,
) -> tuple[list[PlanPoint], list[PlanVerdict]]:
    """Split ``points`` into (accepted, rejected-with-reasons).

    The auto-tuner calls this before spending any simulation time: rejected
    points carry their verdict (rule, message, location) so the ranked
    output can show *why* a candidate was never timed.
    """
    accepted: list[PlanPoint] = []
    rejected: list[PlanVerdict] = []
    for point in points:
        verdict = verify_point(point, profile=profile)
        if verdict.ok:
            accepted.append(point)
        else:
            rejected.append(verdict)
    return accepted, rejected

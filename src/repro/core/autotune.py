"""Automatic algorithm selection (the paper's "Moving Forward" direction).

The paper notes BAGUA "does not provide a principled way to help a user
automatically pick the most suitable system relaxations" and calls an
auto-tuning system exciting future work.  This module implements a first
version on top of the reproduction's three pillars:

1. **Validity**: each candidate plan is run through the symbolic plan
   verifier (:mod:`repro.analysis.planspace`) *before* any simulation time
   is spent on it — static rules at the full cluster shape (hierarchy
   divisibility, compressor/EF compatibility, gossip weight stochasticity,
   Table 1 support) plus the full checker and happens-before suites over a
   scaled-down symbolic lowering.  Refuted candidates are never timed; they
   appear in the ranked output with their rejection reason.
2. **Performance**: each surviving candidate's epoch time is predicted with
   the timing simulator on the user's actual model spec and cluster.
3. **Convergence safety**: candidates known to be fragile for the model's
   architecture family are filtered or flagged — the knowledge distilled
   from Figure 6 (e.g. 1-bit Adam diverges on conv-dominated models, async
   staleness hurts deep transformers).

The result is a ranked list with predicted epoch times, safety notes and
per-plan rejection reasons.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..algorithms.registry import EVALUATED_ALGORITHMS
from ..cluster.topology import ClusterSpec
from ..models.spec import ModelSpec
from ..simulation.cost import CommCostModel
from ..simulation.runner import simulate_epoch
from ..simulation.systems import bagua_system
from .optimizer_framework import BaguaConfig
from .profiler import profile_from_spec

CANDIDATES = EVALUATED_ALGORITHMS

#: World shape the lowered (IR-level) verification runs at.  The static
#: rules check the *full* cluster shape; the checker/happens-before suites
#: then prove the schedule structure on a small representative world — the
#: lowered op stream is SPMD, so structural hazards (races, deadlocks,
#: unmatched peers) already manifest at 2 nodes x 2 workers.
_VERIFY_NODES = 2
_VERIFY_WORKERS = 2


def classify_family(model: ModelSpec) -> str:
    """Architecture family from the layer inventory.

    Precedence when a model mixes layer vocabularies (checked in this
    order, first match wins):

    1. ``lstm`` anywhere -> ``recurrent`` — recurrence dominates the
       convergence behavior even in hybrid stacks (Figure 6's LSTM+AlexNet
       speech model is exactly such a mix);
    2. ``attn`` or ``encoder`` -> ``transformer``;
    3. ``conv`` -> ``conv``;
    4. otherwise ``generic``.

    So a model with both ``conv`` and ``attn`` layers classifies as
    ``transformer`` (the attention blocks carry the staleness sensitivity),
    and one with ``lstm`` plus ``conv`` classifies as ``recurrent``.
    """
    names = " ".join(layer.name for layer in model.layers).lower()
    if "lstm" in names:
        return "recurrent"
    if "attn" in names or "encoder" in names:
        return "transformer"
    if "conv" in names:
        return "conv"
    return "generic"


#: (family, algorithm) -> warning; distilled from Figure 6's outcomes.
_SAFETY_NOTES: dict[tuple[str, str], str] = {
    ("conv", "1bit-adam"): "diverges on conv-dominated models (Figure 6, VGG16)",
    ("recurrent", "1bit-adam"): "diverges on the LSTM+AlexNet family (Figure 6)",
    ("transformer", "async"): "staleness visibly slows deep transformers (Figure 6, BERT-LARGE)",
    ("conv", "decentralized"): "small accuracy drop on conv models (Figure 6)",
    ("conv", "decentralized-8bit"): "small accuracy drop on conv models (Figure 6)",
}


@dataclass
class Recommendation:
    """One candidate's predicted performance, safety and validity verdict."""

    algorithm: str
    epoch_time: float
    speedup_vs_allreduce: float
    safe: bool
    note: str = ""
    #: True when the symbolic plan verifier refuted the candidate's plan;
    #: rejected candidates are never timed (``epoch_time`` is ``inf``).
    rejected: bool = False
    rejection: str = ""

    def __str__(self) -> str:
        if self.rejected:
            return f"{self.algorithm:>18s}: [REJECTED: {self.rejection}]"
        flag = "" if self.safe else "  [UNSAFE: " + self.note + "]"
        return (
            f"{self.algorithm:>18s}: {self.epoch_time:8.1f}s "
            f"({self.speedup_vs_allreduce:.2f}x vs allreduce){flag}"
        )


@dataclass
class TuningReport:
    """Ranked recommendations for one (model, cluster) pair."""

    model: str
    family: str
    recommendations: list[Recommendation]

    @property
    def best(self) -> Recommendation:
        """Fastest candidate that is valid and convergence-safe for this family."""
        safe = [r for r in self.recommendations if r.safe and not r.rejected]
        if not safe:
            raise RuntimeError(f"no safe algorithm for family {self.family!r}")
        return safe[0]

    def render(self) -> str:
        lines = [f"auto-tuning {self.model} (family: {self.family})"]
        lines += [f"  {r}" for r in self.recommendations]
        lines.append(f"  -> recommended: {self.best.algorithm}")
        return "\n".join(lines)


def _verify_candidate(
    name: str,
    cluster: ClusterSpec,
    config: BaguaConfig,
    profile,
    extra: dict,
):
    """Symbolically verify one candidate's plan; None means it survived.

    Static rules see the full cluster shape and the model's real profile;
    the lowered checker + happens-before pass runs at the representative
    verification world (the structure is SPMD — see ``_VERIFY_NODES``).
    """
    from ..analysis.planspace import PlanVerdict, verify_point
    from ..analysis.symbolic import PlanPoint, check_plan_static

    base = dict(
        algorithm=name,
        world_size=cluster.world_size,
        workers_per_node=cluster.workers_per_node,
        overlap=config.overlap,
        flatten=config.flatten,
        hierarchical=config.hierarchical,
        bucket_bytes=config.bucket_bytes,
    )
    base.update(extra)
    full = PlanPoint(**base)
    static = check_plan_static(full, profile)
    if any(f.severity == "error" for f in static):
        return PlanVerdict(
            point=full, findings=tuple(static),
            source="static rules (full cluster shape)",
        )
    scaled = full
    if full.peer_sets is None:  # explicit peer sets pin the world shape
        scaled = dataclasses.replace(
            full,
            world_size=min(full.world_size, _VERIFY_NODES * _VERIFY_WORKERS),
            workers_per_node=min(full.workers_per_node, _VERIFY_WORKERS),
        )
    verdict = verify_point(scaled, profile=profile)
    return None if verdict.ok else verdict


def recommend(
    model: ModelSpec,
    cluster: ClusterSpec,
    config: BaguaConfig | None = None,
    candidates=CANDIDATES,
    include_unsafe: bool = True,
    overrides: dict[str, dict] | None = None,
    verify: bool = True,
) -> TuningReport:
    """Rank candidate algorithms for ``model`` on ``cluster``.

    Every candidate first passes through the symbolic plan verifier
    (``verify=False`` skips it); refuted plans are listed last with their
    rejection reason and are never simulated.  ``overrides`` maps a
    candidate name to extra :class:`~repro.analysis.symbolic.PlanPoint`
    fields (codec, EF, topology, world overrides) so callers can probe
    variant plans — the invalid ones are exactly what the pruner rejects.
    Surviving safe candidates sort first (by predicted epoch time); unsafe
    ones follow with their warning unless ``include_unsafe`` is False.
    """
    family = classify_family(model)
    cost = CommCostModel(cluster)
    cfg = config or BaguaConfig()
    profile = profile_from_spec(model.layers)
    baseline = simulate_epoch(
        model, cluster, bagua_system(cost, "allreduce", config)
    ).epoch_time

    recommendations: list[Recommendation] = []
    for name in candidates:
        extra = dict(overrides.get(name, {})) if overrides else {}
        if verify:
            verdict = _verify_candidate(name, cluster, cfg, profile, extra)
            if verdict is not None:
                first = verdict.errors[0]
                recommendations.append(
                    Recommendation(
                        algorithm=name,
                        epoch_time=float("inf"),
                        speedup_vs_allreduce=0.0,
                        safe=False,
                        rejected=True,
                        rejection=f"{first.rule}: {first.message}",
                    )
                )
                continue
        epoch = simulate_epoch(model, cluster, bagua_system(cost, name, config)).epoch_time
        note = _SAFETY_NOTES.get((family, name), "")
        recommendations.append(
            Recommendation(
                algorithm=name,
                epoch_time=epoch,
                speedup_vs_allreduce=baseline / epoch,
                safe=(family, name) not in _SAFETY_NOTES
                or "accuracy drop" in note,  # drops are usable, divergence is not
                note=note,
            )
        )
    recommendations.sort(key=lambda r: (r.rejected, not r.safe, r.epoch_time))
    if not include_unsafe:
        recommendations = [r for r in recommendations if r.safe and not r.rejected]
    return TuningReport(model=model.name, family=family, recommendations=recommendations)

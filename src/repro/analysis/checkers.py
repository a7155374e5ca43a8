"""The analyzer's rule suite over the comm-op IR.

Every rule consumes an :class:`~repro.analysis.ir.AnalysisSubject` and
returns :class:`~repro.analysis.report.Finding` objects.
:func:`run_checkers` is the one entry: three structural rules, then the
happens-before engine of :mod:`repro.analysis.hb`, which proves what
BAGUA-style schedule rewriting (overlap / fusion / hierarchy, paper §3.4)
could break in ordering and matching — mismatched collectives, asymmetric
gossip peers and unmatched point-to-point messages (``hb-deadlock``),
updates racing in-flight communication (``hb-race``), residual writes
(``hb-lost-update``) and stale gradients (``hb-staleness``).  The
structural rules see what no partial order can:

* ``buffer-aliasing`` — fused bucket extents never overlap and every
  parameter view stays inside its bucket's extent;
* ``ef-invariant`` — a biased compressor is never used in a collective
  without error-feedback state (§2.2's two-sided error compensation is what
  the convergence proofs assume);
* ``peer-matching`` — gossip neighbors are the declared ring's; a symmetric
  off-ring pairing neither wedges nor races, so the engine cannot see it.
"""

from __future__ import annotations

from .hb import HB_RULES, check_hb
from .ir import GOSSIP_KINDS, AnalysisSubject
from .report import Finding


class Checker:
    """Base class: one rule over one analysis subject."""

    rule: str = "base"

    def check(self, subject: AnalysisSubject) -> list[Finding]:
        raise NotImplementedError

    def finding(self, message: str, severity: str = "error", **loc) -> Finding:
        return Finding(rule=self.rule, severity=severity, message=message, **loc)


# ----------------------------------------------------------------------
# buffer-aliasing
# ----------------------------------------------------------------------
class BufferAliasingChecker(Checker):
    """Bucket extents are disjoint; every param view stays inside its bucket."""

    rule = "buffer-aliasing"

    def check(self, subject: AnalysisSubject) -> list[Finding]:
        findings: list[Finding] = []
        extents = sorted(subject.layout, key=lambda e: (e.start, e.stop))
        for a, b in zip(extents, extents[1:]):
            if b.start < a.stop:
                findings.append(
                    self.finding(
                        f"bucket {a.name} [{a.start}, {a.stop}) overlaps bucket "
                        f"{b.name} [{b.start}, {b.stop}) — a reduction into one "
                        "silently corrupts the other",
                        bucket=a.name,
                    )
                )
        for extent in subject.layout:
            views = sorted(extent.views, key=lambda v: (v.start, v.stop))
            for view in views:
                if view.stop < view.start:
                    findings.append(
                        self.finding(
                            f"param view {view.name} has negative extent "
                            f"[{view.start}, {view.stop})",
                            bucket=extent.name,
                        )
                    )
                elif view.start < extent.start or view.stop > extent.stop:
                    findings.append(
                        self.finding(
                            f"param view {view.name} [{view.start}, {view.stop}) "
                            f"escapes bucket {extent.name} [{extent.start}, "
                            f"{extent.stop}) — the flat view would touch foreign "
                            "memory",
                            bucket=extent.name,
                        )
                    )
            for va, vb in zip(views, views[1:]):
                if vb.start < va.stop:
                    findings.append(
                        self.finding(
                            f"param views {va.name} and {vb.name} overlap inside "
                            f"bucket {extent.name}",
                            bucket=extent.name,
                        )
                    )
        return findings


# ----------------------------------------------------------------------
# ef-invariant
# ----------------------------------------------------------------------
class EFInvariantChecker(Checker):
    """Biased compressors require error-feedback residual state (§2.2)."""

    rule = "ef-invariant"

    def check(self, subject: AnalysisSubject) -> list[Finding]:
        trace = subject.trace
        if trace is None:
            return []
        findings: list[Finding] = []
        for rank in trace.ranks:
            for op in trace.collective_ops(rank):
                if op.compressor and op.biased and not op.error_feedback:
                    findings.append(
                        self.finding(
                            f"biased compressor {op.compressor!r} used in {op.kind} "
                            "without error-feedback residual state — compression "
                            "error accumulates and the convergence guarantees of "
                            "error-compensated C_LP_S no longer hold",
                            rank=rank,
                            seq=op.seq,
                            bucket=op.bucket or None,
                            step=op.step,
                        )
                    )
        return findings


# ----------------------------------------------------------------------
# peer-matching
# ----------------------------------------------------------------------
class PeerMatchingChecker(Checker):
    """Gossip neighbors conform to the algorithm's declared ring topology."""

    rule = "peer-matching"

    def check(self, subject: AnalysisSubject) -> list[Finding]:
        trace = subject.trace
        if trace is None or subject.expected_topology != "ring":
            return []
        findings: list[Finding] = []
        for rank in trace.ranks:
            # The k-th gossip op of a rank in a group is that group's round k.
            round_of: dict[tuple[int, ...], int] = {}
            for op in trace.collective_ops(rank):
                group = op.group
                if op.kind not in GOSSIP_KINDS or rank not in group:
                    continue
                k = round_of[group] = round_of.get(group, -1) + 1
                i = group.index(rank)
                expected = (
                    set() if len(group) == 1
                    else {group[i - 1], group[(i + 1) % len(group)]}
                )
                if set(op.peers) != expected:
                    findings.append(
                        self.finding(
                            f"ring topology declared but gossip round {k} pairs rank "
                            f"{rank} with {sorted(op.peers)} instead of ring neighbors "
                            f"{sorted(expected)}",
                            rank=rank,
                            seq=op.seq,
                            step=op.step,
                        )
                    )
        return findings


_CHECKERS: tuple[Checker, ...] = (
    BufferAliasingChecker(),
    EFInvariantChecker(),
    PeerMatchingChecker(),
)

#: Every rule :func:`run_checkers` reports, in reporting order.
RULES: tuple[str, ...] = tuple(c.rule for c in _CHECKERS) + HB_RULES


def run_checkers(subject: AnalysisSubject) -> list[Finding]:
    """Run every rule over one subject."""
    findings: list[Finding] = []
    for checker in _CHECKERS:
        findings.extend(checker.check(subject))
    findings.extend(check_hb(subject))
    return findings

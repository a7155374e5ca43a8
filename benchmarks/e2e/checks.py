"""Output checks.

Every check compares the measured run against an oracle computed in the
same invocation from the same source tree, or against an invariant of the
run itself — never against a committed number or a wall-clock value — and
is written to hold for any ``--seed``.  Each function returns the list of
failures (empty = pass).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from typing import Any

Step = tuple[float, float, float]  # (loss, virtual time, modelled bytes)

#: systems BAGUA-allreduce must not lose to at 10/25 Gbps (paper Table 4);
#: the ordering is false at 100 Gbps for three models, as in the paper, so
#: the sweep stops at 25 Gbps
BASELINES = ("PyTorch-DDP", "Horovod", "BytePS")
VIRTUAL_TIME_RTOL = 1e-9


def oracle_steps(build_run: Callable[[], Any], steps: int) -> list[Step]:
    """Replay the first ``steps`` steps of a job on the oracle it builds
    (the same job on the ``local`` backend)."""
    run = build_run()
    try:
        for _ in range(steps):
            run.step()
    finally:
        run.trainer.transport.close()
    return run.steps


def _bits(step: Step) -> tuple[str, ...]:
    return tuple(float(value).hex() for value in step)


def train_failures(
    steps: Sequence[Step],
    oracle: Sequence[Step],
    timed_from: int,
    replicas_equal: bool,
) -> list[str]:
    """Checks of one ``train_*`` run.

    ``steps`` holds every step of the measured run, set-up included;
    ``steps[timed_from:]`` are the timed ones.
    """
    failures = []
    for i, expected in enumerate(oracle):
        if i >= len(steps) or _bits(steps[i]) != _bits(expected):
            got = steps[i] if i < len(steps) else None
            failures.append(
                f"step {i}: (loss, virtual time, bytes) {got} differs bitwise "
                f"from the local-backend oracle's {expected}"
            )
            break

    # Training made progress: the last timed losses are below the losses the
    # run began with.  The first window starts at step 0, not at the first
    # timed step, because after the warm-up the loss of these small tasks is
    # already near its noise floor and a 12-op smoke run has no room to fall.
    losses = [loss for loss, _time, _bytes in steps]
    if not all(math.isfinite(loss) for loss in losses):
        failures.append("a loss is not finite")
    else:
        window = min(10, len(losses) - timed_from)
        if window > 0 and not sum(losses[-window:]) < sum(losses[:window]):
            failures.append(
                f"loss did not fall: mean of last {window} timed losses "
                f"{sum(losses[-window:]) / window} >= mean of the run's first {window} "
                f"{sum(losses[:window]) / window}"
            )

    # Every step charges the same modelled traffic, so the virtual clock
    # advances by a constant once the profiling step is behind (to rounding:
    # the running sum rounds, so this cannot be bitwise).
    times = [time for _loss, time, _bytes in steps]
    deltas = [b - a for a, b in zip(times[2:], times[3:])]
    if deltas and max(deltas) - min(deltas) > VIRTUAL_TIME_RTOL * max(deltas):
        failures.append(
            f"per-step virtual time varies after step 2: {min(deltas)} .. {max(deltas)}"
        )

    if not replicas_equal:
        failures.append("replicas' state_dicts differ after a synchronous centralized run")
    return failures


def sim_failures(
    labels: Sequence[tuple[str, str, str]],
    epoch_times: Sequence[float],
    cells_per_sweep: int,
) -> list[str]:
    """Checks of ``sim_tables``; ``labels[i]`` is ``(network, model, system)``
    and cell ``i`` repeats cell ``i - cells_per_sweep``."""
    failures = []
    if len(epoch_times) != len(labels) or len(labels) < 2 * cells_per_sweep:
        return [f"expected two sweeps of {cells_per_sweep} cells or more, got {len(epoch_times)}"]
    if not all(math.isfinite(t) and t > 0 for t in epoch_times):
        failures.append("an epoch time is not finite and positive")
    first = epoch_times[:cells_per_sweep]
    if any(t.hex() != first[i % cells_per_sweep].hex() for i, t in enumerate(epoch_times)):
        failures.append("a later sweep's epoch times differ bitwise from the first's")

    table: dict[tuple[str, str], dict[str, float]] = {}
    for (network, model, system), epoch_time in zip(labels[:cells_per_sweep], first):
        table.setdefault((network, model), {})[system] = epoch_time
    for (network, model), row in table.items():
        for baseline in BASELINES:
            if baseline in row and not row["BAGUA-allreduce"] <= row[baseline]:
                failures.append(
                    f"{model} @ {network}: BAGUA-allreduce {row['BAGUA-allreduce']} s "
                    f"> {baseline} {row[baseline]} s"
                )
    return failures

"""World-batched fast-path kernels for the collectives and primitives.

The loop implementations in :mod:`repro.comm.collectives` /
:mod:`repro.comm.scatter_reduce` model each rank as a Python-level
participant: per-rank chunk slices, one payload object per message, one
compressor call per (member, chunk).  That is the auditable reference — but
in a god's-eye simulation all ranks live in one process, so the world
dimension can be batched away: per-rank buffers become one ``(world, n)``
ndarray and every hot kernel becomes an axis-0 numpy reduction.

Everything observable is preserved **bitwise**:

* results — each kernel reproduces the loop's floating-point operation
  order (or an order proven equal: commutativity of single adds, axis
  reductions matching per-row reductions, one row-major RNG draw matching
  the sequence of per-cell draws);
* transport state — clocks, traffic stats, round counters and trace
  streams advance identically, via :meth:`Transport.exchange_sized` stub
  rounds that carry the exact byte counts and match ids of the loop's
  messages;
* compressor state — RNG streams and error-feedback residuals end in the
  same state.

The identity harness (``tests/identity_harness.py``; its in-process rows are
``tests/test_fastpath_identity.py``) enforces this contract for every
collective x compressor combination against ``backend="local"``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from ..cluster.backends.base import PoolRefChunk, ordered_fold
from ..compression.base import FULL_PRECISION_BYTES, Compressor
from ..compression.error_feedback import ErrorFeedback
from ..tensor.tensor import DTYPE
from .chunking import Rows, check_arrays, chunk_bounds, store_rows
from .group import CommGroup

#: tuple-header bytes of the ``(index, payload)`` envelope the loop
#: collectives send: 8 for the tuple container itself plus 8 for the scalar
#: index element (``payload_nbytes`` charges both since the container fix)
_HEADER_BYTES = 16.0


def _stack(arrays: Rows) -> np.ndarray:
    """Per-member 1-D arrays stacked into one ``(world, n)`` ``DTYPE`` matrix.

    ``arrays`` itself when the caller built it as that matrix already: the
    kernels only ever read the stack.
    """
    if isinstance(arrays, np.ndarray) and arrays.dtype == DTYPE:
        return arrays
    out = np.empty((len(arrays), arrays[0].shape[0]), DTYPE)
    for i, a in enumerate(arrays):
        out[i] = a
    return out


def _replicate(
    row: np.ndarray, n: int, out: Sequence[np.ndarray] | None = None, divisor: int = 1
) -> list[np.ndarray]:
    """``n`` mutually independent copies of ``row`` (``row`` itself is one).

    ``divisor`` divides ``row`` in place first: once, not once per copy.
    With ``out`` — one row per member, :func:`~.chunking.check_out`'s
    convention — ``row`` is stored into each of them (one that *is* ``row``
    needs no store) and they are what is returned.  Callers fan out only
    after reading every input, so ``out`` rows may be the inputs.

    Without, one block allocation + broadcast store instead of ``n`` separate
    ``row.copy()`` calls — same bytes, far fewer allocator round trips.  The
    returned rows are disjoint views, so callers may mutate them freely.
    """
    if divisor != 1:
        row /= divisor
    if out is not None:
        return store_rows([row] * n, out)
    if n == 1:
        return [row]
    block = np.empty((n - 1, row.shape[0]), dtype=row.dtype)
    block[:] = row
    return [*block, row]


def _merge_rows(matrix: np.ndarray) -> np.ndarray:
    """Axis-0 sum matching the loop's zeros-seeded ``acc += row`` fold.

    ``np.add.reduce`` folds rows sequentially from the first row when the
    reduction axis is strided, which is bitwise equal to the zeros-seeded
    fold except for a column whose terms are all ``-0.0`` (the loop's
    ``0.0 + -0.0`` yields ``+0.0``).  Adding ``0.0`` normalizes exactly
    that case and is exact everywhere else.

    A single-column matrix is the one layout where the reduction axis IS
    contiguous, and there numpy switches to pairwise summation (different
    bits for more than 8 rows) — that case folds explicitly.
    """
    if matrix.shape[1] == 1 and matrix.shape[0] > 1:
        acc = matrix[0].copy()
        for row in matrix[1:]:
            acc += row
    else:
        acc = np.add.reduce(matrix, axis=0)
    acc += 0.0
    return acc


def _sum_rows(arrays: Sequence[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """``np.sum(arrays, axis=0)`` of equal-length 1-D rows, without stacking them.

    numpy seeds an ``add`` reduction with ``+0.0`` and, when the reduction
    axis is strided, folds the rows in order — so ``(0.0 + a0) + a1 + ...``
    is the same operation sequence, sign of an all-``-0.0`` column included,
    and the result is a fresh array even for a single row.  One-element rows
    are the layout whose reduction axis is contiguous: numpy sums those
    pairwise (different bits from 8 rows up), so they keep the stacked call.

    ``out`` receives the sum instead of a fresh array.  It must have the
    rows' dtype: the fold runs in the accumulator's precision, so float32
    rows folded into a float64 ``out`` would come out with different bits.
    """
    if arrays[0].shape[0] == 1:
        return np.sum(arrays, axis=0, out=out)
    acc = np.add(arrays[0], 0.0, out=out)
    for row in arrays[1:]:
        acc += row
    return acc


def decompress_compatible(a: Compressor, b: Compressor) -> bool:
    """True when ``a.decompress`` and ``b.decompress`` are interchangeable.

    The loop C_LP_S decompresses worker payloads with the *shared* codec
    while error feedback updates residuals with each member's *own* codec;
    the batched kernel uses one roundtrip for both, which is only valid when
    the two decompress functions agree.  Name equality covers parametrized
    codecs (bits / ratio are encoded in the name); ``seed`` covers the
    count-sketch hash family, the one codec whose decompress has hidden
    state beyond the name.
    """
    return a is b or (
        type(a) is type(b)
        and a.name == b.name
        and getattr(a, "seed", None) == getattr(b, "seed", None)
    )


def _ef_row_roundtrip(
    ef: ErrorFeedback,
    row: np.ndarray,
    bounds: Sequence[tuple[int, int]],
    key_tag: str,
) -> np.ndarray:
    """Error-compensated roundtrip of one member's row, chunk keys ascending.

    Mirrors the loop's per-chunk ``ErrorFeedback.compress`` sequence: add the
    stored residual, quantize, store the new residual — but with a single
    batched codec call over the row (bitwise equal because the chunk keys are
    distinct, so reads and writes cannot interleave within one member).
    """
    compensated = row.copy()
    for j, (lo, hi) in enumerate(bounds):
        compensated[lo:hi] += ef.residual((key_tag, j), hi - lo)
    roundtripped = ef.compressor.batch_roundtrip(compensated[None, :], bounds)[0]
    for j, (lo, hi) in enumerate(bounds):
        ef.store((key_tag, j), compensated[lo:hi] - roundtripped[lo:hi])
    return roundtripped


# ----------------------------------------------------------------------
# Stub message rounds (exact byte / match-id / order parity with the loop)
# ----------------------------------------------------------------------
@lru_cache(maxsize=512)
def _alltoall_sends_uniform(
    ranks: tuple[int, ...], row_bytes: tuple[float, ...]
) -> list[tuple[int, int, float, None]]:
    """Memoized alltoall send list when every member sends the same row.

    Training loops repeat the same bucket shapes every step, so the O(n^2)
    send list is a pure function of ``(ranks, row_bytes)``; the cached list
    is safe to share because ``exchange_sized`` only reads it.
    """
    n = len(ranks)
    return [
        (ranks[i], ranks[(i + offset) % n], _HEADER_BYTES + row_bytes[(i + offset) % n], None)
        for offset in range(1, n)
        for i in range(n)
    ]


@lru_cache(maxsize=512)
def _allgather_sends(
    ranks: tuple[int, ...], payload_bytes: tuple[float, ...]
) -> list[tuple[int, int, float, None]]:
    """Memoized allgather send list (see :func:`_alltoall_sends_uniform`)."""
    n = len(ranks)
    return [
        (ranks[i], ranks[(i + offset) % n], _HEADER_BYTES + payload_bytes[i], None)
        for offset in range(1, n)
        for i in range(n)
    ]


def alltoall_sizes(group: CommGroup, part_bytes: Sequence[Sequence[float]]) -> None:
    """Stub round matching :func:`repro.comm.collectives.alltoall`.

    ``part_bytes[i][j]`` is the payload size member i sends to member j; the
    staggered ``(offset, i)`` emission order and positional match ids are
    those of the loop implementation.
    """
    n = group.size
    ranks = group.ranks
    first = part_bytes[0] if part_bytes else None
    if n > 1 and all(p is first for p in part_bytes):
        # Symmetric case (callers pass ``[row_bytes] * n``): fetch the
        # memoized send list instead of rebuilding n*(n-1) tuples.
        sends = _alltoall_sends_uniform(tuple(ranks), tuple(first))
    else:
        sends = [
            (ranks[i], ranks[(i + offset) % n], _HEADER_BYTES + part_bytes[i][(i + offset) % n], None)
            for offset in range(1, n)
            for i in range(n)
        ]
    group.transport.exchange_sized(sends)


def allgather_sizes(group: CommGroup, payload_bytes: Sequence[float]) -> None:
    """Stub round matching :func:`repro.comm.collectives.allgather_payloads`."""
    group.transport.exchange_sized(_allgather_sends(tuple(group.ranks), tuple(payload_bytes)))


def gather_sizes(group: CommGroup, array_bytes: Sequence[float]) -> None:
    """Stub round matching :func:`repro.comm.collectives.gather` at root 0.

    Members ``1..n-1``, in order, send their ``(i, array)`` envelope of
    ``array_bytes[i]`` array bytes to member 0 under the loop's
    ``gather.m{i}`` match ids; a one-member group sends nothing.
    """
    ranks = group.ranks
    group.transport.exchange_sized(
        [
            (ranks[i], ranks[0], _HEADER_BYTES + array_bytes[i], f"gather.m{i}")
            for i in range(1, group.size)
        ]
    )


def broadcast_sizes(group: CommGroup, array_bytes: float) -> None:
    """Stub round matching :func:`repro.comm.collectives.broadcast` from root 0.

    Member 0 sends the bare ``array_bytes``-byte array to members
    ``1..n-1``, in order, under the loop's ``bcast.m{i}`` match ids; a
    one-member group sends nothing.
    """
    ranks = group.ranks
    group.transport.exchange_sized(
        [(ranks[0], ranks[i], array_bytes, f"bcast.m{i}") for i in range(1, group.size)]
    )


# ----------------------------------------------------------------------
# The dense reduce (shared by ScatterReduce and the ring)
# ----------------------------------------------------------------------
def _reduce_chunks(
    arrays: Rows,
    group: CommGroup,
    chunks: Sequence[PoolRefChunk],
    add_zero: bool,
    out: Sequence[np.ndarray] | None = None,
    divisor: int = 1,
) -> list[np.ndarray]:
    """Every member's row with each chunk ``(lo, hi, order)`` summed across members.

    ``chunks[j]`` is the range member ``j`` owns and the order it folds the
    members in (:func:`~repro.cluster.backends.base.ordered_fold`); the
    ranges tile the rows.  Where the sums land depends on the inputs alone:

    * dense rows that each live in their member's own backend pool
      are reduced **in place** by ``backend.pool_ref_reduce`` — serially in
      this process, or by the shm workers in parallel — so nothing travels
      and the returned rows *are* the inputs, each divided by ``divisor``;
    * any other rows are only read: the sums are assembled in one fresh row,
      divided once and fanned out (:func:`_replicate`).

    Either way ``out`` rows, when given, receive the results, and may be the
    inputs.  The callers put the kernel's stub rounds around this call, so
    clocks, stats and traces cannot tell the two cases apart.
    """
    backend = group.transport.backend
    rows = [np.asarray(a, dtype=DTYPE) for a in arrays]  # the loop kernels' wire dtype
    refs = backend.resolve_pool_refs(rows, group.ranks)
    if refs is not None:
        backend.pool_ref_reduce(refs, chunks, add_zero=add_zero)
        return store_rows(rows, rows if out is None else out, divisor)
    full = np.empty(rows[0].shape[0], DTYPE)
    for lo, hi, order in chunks:
        full[lo:hi] = ordered_fold(rows, lo, hi, order, add_zero)
    return _replicate(full, group.size, out, divisor)


# ----------------------------------------------------------------------
# ScatterReduce
# ----------------------------------------------------------------------
def scatter_reduce_batched(
    arrays: Rows,
    group: CommGroup,
    codec: Compressor | None = None,
    worker_errors: Sequence[ErrorFeedback] | None = None,
    server_errors: Sequence[ErrorFeedback] | None = None,
    out: Sequence[np.ndarray] | None = None,
    divisor: int = 1,
) -> list[np.ndarray]:
    """World-batched ScatterReduce (paper §3.3), sum semantics.

    ``codec=None`` is the exact C_FP_S path; with a codec, phase-1 chunks and
    phase-2 merged partitions travel quantized (C_LP_S), optionally with
    two-sided error feedback.  Bitwise equal to
    :func:`repro.comm.scatter_reduce.scatter_reduce` driven by the
    corresponding hooks, including transport and compressor state.

    ``out`` (:func:`~.chunking.check_out`'s convention, validated by the
    primitives) receives the results instead of fresh rows and may be
    ``arrays`` itself: every read of an input precedes the first store.
    ``divisor`` divides the aggregate once, before it is fanned out.
    """
    check_arrays(arrays, group)
    n = group.size
    total = arrays[0].shape[0]
    bounds = chunk_bounds(total, n)
    widths = [hi - lo for lo, hi in bounds]

    if codec is None and n > 1:
        # Full precision: nothing is quantized, so partition owner j's merged
        # chunk is a plain fold of rows 0..n-1 — the loop's zeros-seeded
        # ``acc += row`` up to the trailing ``+ 0.0`` — and the (world, n)
        # stack never needs materializing.
        row_bytes = [float(FULL_PRECISION_BYTES * w) for w in widths]
        chunks = [(lo, hi, tuple(range(n))) for lo, hi in bounds]
        alltoall_sizes(group, [row_bytes] * n)
        rows = _reduce_chunks(arrays, group, chunks, True, out, divisor)
        allgather_sizes(group, row_bytes)
        return rows

    matrix = _stack(arrays)

    if n == 1:
        # Single member: no messages; replay the loop's Q(Q(x)) composition.
        if codec is None:
            result = matrix[0].copy()
        elif worker_errors is None:
            once = codec.batch_roundtrip(matrix, bounds)
            result = codec.batch_roundtrip(once, bounds)[0]
        else:
            once = _ef_row_roundtrip(worker_errors[0], matrix[0], bounds, "w")
            result = _ef_row_roundtrip(server_errors[0], once, bounds, "s")
        return _replicate(result, 1, out, divisor)

    # Phase 1: every member quantizes its n chunks (row-major, preserving
    # RNG order), then one all-to-all stub round.
    if worker_errors is None:
        decompressed = codec.batch_roundtrip(matrix, bounds)
        row_bytes = [codec.wire_bytes(w) for w in widths]
        part_bytes: list[Sequence[float]] = [row_bytes] * n
    else:
        decompressed = np.empty_like(matrix)
        for i in range(n):
            decompressed[i] = _ef_row_roundtrip(worker_errors[i], matrix[i], bounds, "w")
        part_bytes = [
            [worker_errors[i].compressor.wire_bytes(w) for w in widths] for i in range(n)
        ]
    alltoall_sizes(group, part_bytes)

    # Merge: partition owner j sums the n decompressed chunks of column
    # block j — one axis-0 reduction over the whole matrix.
    merged = _merge_rows(decompressed)

    # Phase 2: owner j quantizes its merged partition (j ascending ==
    # row-major over one (1, total) row), then one all-gather stub round.
    if server_errors is None:
        final = codec.batch_roundtrip(merged[None, :], bounds)[0]
        payload_bytes = [codec.wire_bytes(w) for w in widths]
    else:
        final = np.empty(total, DTYPE)
        for j, (lo, hi) in enumerate(bounds):
            ef = server_errors[j]
            compensated = merged[lo:hi] + ef.residual(("s", j), hi - lo)
            roundtripped = ef.compressor.batch_roundtrip(
                compensated[None, :], ((0, hi - lo),)
            )[0]
            ef.store(("s", j), compensated - roundtripped)
            final[lo:hi] = roundtripped
        payload_bytes = [
            server_errors[j].compressor.wire_bytes(w) for j, w in enumerate(widths)
        ]
    allgather_sizes(group, payload_bytes)

    return _replicate(np.ascontiguousarray(final), n, out, divisor)


# ----------------------------------------------------------------------
# Ring kernels
# ----------------------------------------------------------------------
def _ring_rounds(
    group: CommGroup, bounds: Sequence[tuple[int, int]], phase: str, owners: Sequence[int]
) -> None:
    """The n-1 stub rounds of one ring phase (``rs`` or ``ag``).

    In round r member i forwards to its right neighbour the chunk member
    ``(i - r) % n`` started the phase with: chunk ``owners[(i - r) % n]``.
    """
    n = group.size
    ranks = group.ranks
    for r in range(n - 1):
        sends = []
        for i in range(n):
            chunk = owners[(i - r) % n]
            lo, hi = bounds[chunk]
            sends.append(
                (
                    ranks[i],
                    ranks[(i + 1) % n],
                    _HEADER_BYTES + FULL_PRECISION_BYTES * (hi - lo),
                    f"{phase}.r{r}.c{chunk}",
                )
            )
        group.transport.exchange_sized(sends)


def _ring_chunks(bounds: Sequence[tuple[int, int]]) -> tuple[list[int], list[PoolRefChunk]]:
    """``owners[i] = (i+1) % n``, member i's ring chunk, and the chunks to fold.

    The ring's accumulation visits chunk c's rows in arrival order ``c, c+1,
    ..., c+n-1 (mod n)``; each step adds exactly one row, so the loop's
    ``received += own`` chain equals this left fold by commutativity of a
    single IEEE add.
    """
    n = len(bounds)
    owners = [(i + 1) % n for i in range(n)]
    return owners, [(*bounds[c], tuple((c + t) % n for t in range(n))) for c in owners]


def ring_reduce_scatter_batched(
    arrays: Sequence[np.ndarray], group: CommGroup
) -> list[np.ndarray]:
    """World-batched ring reduce-scatter; member i returns chunk ``(i+1) % n``.

    The inputs are only read (the chunks are fresh arrays), whatever they
    live in.
    """
    check_arrays(arrays, group)
    n = group.size
    if n == 1:
        return [np.array(arrays[0], dtype=DTYPE)]
    bounds = chunk_bounds(arrays[0].shape[0], n)
    _ring_rounds(group, bounds, "rs", range(n))
    _owners, chunks = _ring_chunks(bounds)
    rows = [np.asarray(a, dtype=DTYPE) for a in arrays]
    return [ordered_fold(rows, lo, hi, order, False) for lo, hi, order in chunks]


def ring_all_gather_chunks_batched(
    chunks: Sequence[np.ndarray], owners: Sequence[int], group: CommGroup, total: int
) -> list[np.ndarray]:
    """World-batched ring all-gather of per-member chunks into full arrays."""
    n = group.size
    bounds = chunk_bounds(total, n)
    full = np.zeros(total, DTYPE)
    for i in range(n):
        lo, hi = bounds[owners[i]]
        full[lo:hi] = chunks[i]
    _ring_rounds(group, bounds, "ag", owners)
    return _replicate(full, n)


def ring_allreduce_batched(
    arrays: Sequence[np.ndarray], group: CommGroup
) -> list[np.ndarray]:
    """World-batched two-phase ring allreduce (sum).

    Member i reduces its ring chunk ``(i+1) % n`` in the ring's arrival
    order (no ``+ 0.0`` — the ring fold never normalizes) and every member
    receives it: the all-gather phase is the same disjoint-chunk store.
    Pool-resident rows are reduced in place and returned
    (:func:`_reduce_chunks`); other inputs are only read.
    """
    check_arrays(arrays, group)
    n = group.size
    if n == 1:
        return [np.array(arrays[0], dtype=DTYPE)]
    bounds = chunk_bounds(arrays[0].shape[0], n)
    owners, chunks = _ring_chunks(bounds)
    _ring_rounds(group, bounds, "rs", range(n))
    rows = _reduce_chunks(arrays, group, chunks, False)
    _ring_rounds(group, bounds, "ag", owners)
    return rows


# ----------------------------------------------------------------------
# Decentralized gossip averaging
# ----------------------------------------------------------------------
def gossip_average_batched(
    arrays: Rows,
    neighbor_sets: Sequence[Sequence[int]],
    group: CommGroup,
    codec: Compressor | None = None,
    out: Sequence[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """World-batched peer averaging for D_FP_S / D_LP_S.

    ``codec=None`` exchanges full-precision tensors; with a codec every
    member's tensor is roundtripped (members compress in index order even
    when idle, matching the loop's RNG consumption) and neighbors average
    the decompressed values.  Results keep each input's dtype.

    ``out`` (:func:`~.chunking.check_out`'s ``like_inputs`` convention;
    ``neighbor_sets`` and ``out`` are validated by the primitives) receives
    the results and may be ``arrays`` itself; without it they land in fresh
    rows and the inputs are only read.  One ordering rule makes that safe —
    *every read of a row precedes the first store into it* — and the
    neighbor sets and dtypes decide how a member meets it:

    * a mutual pair of ``DTYPE`` rows (each the other's only source and only
      destination, no codec) is averaged where it lands: ``o_i = x_i + x_j``,
      halved in place, stored to ``o_j`` — the bits ``(x_j + x_i) / 2`` gives
      member j, because a single IEEE add commutes;
    * every other member accumulates its sources ascending into one ``DTYPE``
      row (with a codec: its row of the private stack), divides it in
      place, and all those rows — and an idle member's input in ``DTYPE``
      — are stored after the last read.

    Every average is taken in ``DTYPE`` and handed back in its member's
    dtype, exactly as the loop reference does.
    """
    n = group.size
    total = arrays[0].shape[0]
    # Gossip is communication-sparse (a handful of neighbors per member), so
    # without a codec a (world, n) stack would be pure overhead: accumulation
    # reads the input rows directly (each row itself when it is ``DTYPE``).
    own: Rows = [np.asarray(a, dtype=DTYPE) for a in arrays]
    contrib: Rows = own
    payload_bytes = _HEADER_BYTES + FULL_PRECISION_BYTES * total
    if codec is not None:
        # list(): a DTYPE matrix is stacked too, for the rows accumulate.
        own = stack = _stack(list(arrays))
        contrib = codec.batch_roundtrip(stack, ((0, total),))
        payload_bytes = _HEADER_BYTES + codec.wire_bytes(total)
    ranks = group.ranks
    sends = [
        (ranks[i], ranks[j], payload_bytes, f"gossip.m{i}->{j}")
        for i, neigh in enumerate(neighbor_sets)
        for j in neigh
    ]
    if sends:
        group.transport.exchange_sized(sends)
    if out is None:
        out = [np.empty_like(a) for a in arrays]
    sources: list[list[int]] = [[] for _ in range(n)]
    for j, neigh in enumerate(neighbor_sets):  # j ascending: each list ends up sorted
        for i in neigh:
            sources[i].append(j)
    results = list(own)  # an idle member's average is its input
    paired: set[int] = set()
    for i, srcs in enumerate(sources):
        if not srcs or i in paired:
            continue
        j = srcs[0]
        if (
            codec is None
            and srcs == list(neighbor_sets[i]) == [j]
            and sources[j] == list(neighbor_sets[j]) == [i]
            and arrays[i].dtype == arrays[j].dtype == DTYPE
        ):
            np.add(arrays[i], arrays[j], out=out[i])
            out[i] /= 2.0
            out[j][...] = out[i]
            results[i], results[j] = out[i], out[j]
            paired.add(j)
            continue
        row = np.empty(total, DTYPE) if codec is None else own[i]
        acc = np.add(own[i], contrib[j], out=row)
        for src in srcs[1:]:
            acc += contrib[src]
        acc /= 1 + len(srcs)
        results[i] = acc
    return store_rows(results, out)

"""Pickle-free wire codec: round-trip fidelity and size accounting.

The PR 9 shm fast path ships round payloads through
:mod:`repro.cluster.backends.wire` — a small self-describing binary format
for the nested tuples/lists of ndarrays and scalars real rounds carry —
so compressed tensors blit as packed bytes instead of passing through
pickle.  This suite pins the codec's contract:

* a Hypothesis-generated space of nested payload shapes (mixed dtypes,
  empty arrays, 0-d scalars, deep nesting) round-trips bit-exactly;
* every shipped compressor's payload takes the ``_CODEC`` path in the shm
  record encoder (no pickle fallback for the hot formats);
* the transport's ``payload_nbytes`` accounting is identical whether a
  payload travelled via the codec or via pickle;
* unsupported values refuse cleanly (``WireError``) and the shm encoder
  falls back to pickle for them.
"""

from __future__ import annotations

import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.backends import shm, wire
from repro.cluster.transport import payload_nbytes
from repro.compression import (
    OneBitCompressor,
    QSGDCompressor,
    SignSGDCompressor,
    TernGradCompressor,
    TopKCompressor,
)
from repro.compression.base import CompressedPayload
from repro.tensor import DTYPE


def assert_same(a, b):
    """Structural bit-exact equality over the codec's value space."""
    assert type(a) is type(b), (type(a), type(b))
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, np.generic):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            assert_same(a[k], b[k])
    elif isinstance(a, CompressedPayload):
        assert a.codec == b.codec and a.n == b.n and a.wire_bytes == b.wire_bytes
        assert_same(a.fields, b.fields)
    else:
        assert a == b


# ----------------------------------------------------------------------
# Hypothesis: nested payload shapes round-trip bit-exactly.
# ----------------------------------------------------------------------
_DTYPES = [np.float64, np.float32, np.float16, np.uint8, np.int8,
           np.int16, np.int32, np.int64, np.uint16, np.uint32, np.uint64, np.bool_]


@st.composite
def arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    # 0-d scalars, empty arrays and small nd shapes are all fair game.
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=0, max_size=3)))
    n = int(np.prod(shape)) if shape else 1
    raw = draw(st.binary(min_size=n * dtype.itemsize, max_size=n * dtype.itemsize))
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def scalars():
    return st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.floats(allow_nan=False),
        st.text(max_size=8),
        st.binary(max_size=8),
    )


def payloads():
    return st.recursive(
        st.one_of(scalars(), arrays()),
        lambda children: st.one_of(
            st.lists(children, max_size=3).map(tuple),
            st.lists(children, max_size=3),
            st.dictionaries(st.text(max_size=4), children, max_size=3),
        ),
        max_leaves=8,
    )


@settings(max_examples=200, deadline=None)
@given(payload=payloads())
def test_roundtrip_is_bit_exact(payload):
    assert wire.encodable(payload)
    assert_same(wire.decode(wire.encode(payload)), payload)


@settings(max_examples=100, deadline=None)
@given(payload=payloads())
def test_payload_nbytes_matches_pickle_path(payload):
    # The transport charges payload objects, not their encodings: the codec
    # must not shift a single accounted byte relative to the pickle path.
    via_codec = payload_nbytes(wire.decode(wire.encode(payload)))
    via_pickle = payload_nbytes(pickle.loads(pickle.dumps(payload)))
    assert via_codec == via_pickle


def test_decode_returns_owned_arrays():
    arr = np.arange(16, dtype=np.float64)
    out = wire.decode(wire.encode(arr))
    assert out.flags.owndata or out.base is None or out.base.flags.owndata
    out[0] = -1.0  # writable, not a view into the wire buffer


# ----------------------------------------------------------------------
# Compressed payloads take the codec path (the PR 9 criterion).
# ----------------------------------------------------------------------
_COMPRESSORS = [
    ("qsgd8", lambda: QSGDCompressor(bits=8, rng=np.random.default_rng(7))),
    ("onebit", OneBitCompressor),
    ("terngrad", lambda: TernGradCompressor(rng=np.random.default_rng(7))),
    ("topk1pct", lambda: TopKCompressor(ratio=0.01)),
    ("signsgd", SignSGDCompressor),
]


class TestCompressedPayloads:
    @pytest.mark.parametrize("name,make", _COMPRESSORS, ids=[n for n, _ in _COMPRESSORS])
    def test_every_compressor_payload_skips_pickle(self, name, make):
        grad = np.random.default_rng(3).standard_normal(4096)
        payload = make().compress(grad)
        kind, _data = shm._encode(payload)
        assert kind == shm._CODEC, f"{name} payload fell back to kind {kind}"

    @pytest.mark.parametrize("name,make", _COMPRESSORS, ids=[n for n, _ in _COMPRESSORS])
    def test_compressed_roundtrip_decompresses_identically(self, name, make):
        grad = np.random.default_rng(4).standard_normal(1024)
        codec = make()
        payload = codec.compress(grad)
        shipped = wire.decode(wire.encode(payload))
        assert_same(shipped, payload)
        np.testing.assert_array_equal(codec.decompress(shipped), codec.decompress(payload))
        assert payload_nbytes(shipped) == payload_nbytes(payload)

    def test_round_chunk_tuples_take_the_codec_path(self):
        # Collectives tag chunks as (chunk_id, array): the common round shape.
        kind, _ = shm._encode((3, np.arange(8, dtype=np.float32)))
        assert kind == shm._CODEC


# ----------------------------------------------------------------------
# PoolRef descriptors (the PR 10 zero-copy round payload).
# ----------------------------------------------------------------------
class TestPoolRefDescriptors:
    def test_roundtrip_is_25_bytes(self):
        from repro.cluster.backends import PoolRef

        ref = PoolRef(rank=3, offset=4096, length=512)
        blob = wire.encode(ref)
        # The whole point of the descriptor: 1 tag byte + three i64 fields,
        # regardless of how large the referenced pool region is.
        assert len(blob) == 25
        out = wire.decode(blob)
        assert isinstance(out, PoolRef)
        assert out == ref

    @settings(max_examples=50, deadline=None)
    @given(
        rank=st.integers(0, 2**16),
        offset=st.integers(0, 2**40).map(lambda v: v & ~7),
        length=st.integers(1, 2**32),
    )
    def test_roundtrip_hypothesis(self, rank, offset, length):
        from repro.cluster.backends import PoolRef

        ref = PoolRef(rank=rank, offset=offset, length=length)
        assert wire.encodable(ref)
        assert wire.decode(wire.encode(ref)) == ref

    def test_nested_in_round_shapes(self):
        # Descriptors may ride inside the usual tuple/list round payloads.
        from repro.cluster.backends import PoolRef

        payload = (7, [PoolRef(rank=1, offset=0, length=64), np.float64(2.5)])
        out = wire.decode(wire.encode(payload))
        assert out[1][0] == PoolRef(rank=1, offset=0, length=64)
        assert_same(out, payload)

    def test_truncated_descriptor_is_rejected(self):
        from repro.cluster.backends import PoolRef

        blob = wire.encode(PoolRef(rank=0, offset=8, length=8))
        with pytest.raises((wire.WireError, struct.error)):
            wire.decode(blob[:-1])


# ----------------------------------------------------------------------
# Refusals and fallbacks.
# ----------------------------------------------------------------------
class _Opaque:
    pass


class TestRefusals:
    @pytest.mark.parametrize(
        "value",
        [
            _Opaque(),
            {1, 2, 3},  # sets are not a round payload shape
            np.arange(6).reshape(2, 3).T,  # non-C-contiguous
            1 << 70,  # out of int64 range
        ],
        ids=["object", "set", "fortran-array", "bigint"],
    )
    def test_unsupported_values_raise_wire_error(self, value):
        assert not wire.encodable(value)
        with pytest.raises(wire.WireError):
            wire.encode(value)

    def test_shm_encoder_falls_back_to_pickle(self):
        kind, data = shm._encode(_Opaque())
        assert kind == shm._PICKLED
        assert isinstance(pickle.loads(data.tobytes()), _Opaque)

    def test_flat_dtype_arrays_go_raw(self):
        # The zero-copy RAW path outranks the codec for flat ``DTYPE`` vectors.
        kind, _ = shm._encode(np.arange(4, dtype=DTYPE))
        assert kind == shm._RAW

    def test_trailing_garbage_is_rejected(self):
        with pytest.raises(wire.WireError):
            wire.decode(wire.encode(1.0) + b"\x00")

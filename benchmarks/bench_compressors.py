"""Microbenchmarks: codec throughput and wire-size table.

These are genuine pytest-benchmark microbenchmarks (multiple rounds) over
the compression kernels — the per-element cost that the cost model's
``compress_time`` approximates.

Beyond tier-1: wall-clock throughput per codec at 2^18 elements plus the
wire-size / compression-ratio table in `extra_info`; tier-1 times nothing.
"""

import numpy as np
import pytest

from repro.compression import (
    FP16Compressor,
    IdentityCompressor,
    OneBitCompressor,
    QSGDCompressor,
    SignSGDCompressor,
    TernGradCompressor,
    TopKCompressor,
)

CODECS = [
    IdentityCompressor(),
    FP16Compressor(),
    QSGDCompressor(bits=8),
    OneBitCompressor(),
    TopKCompressor(ratio=0.01),
    TernGradCompressor(),
    SignSGDCompressor(),
]

N = 1 << 18


@pytest.fixture(scope="module")
def gradient():
    return np.random.default_rng(0).standard_normal(N)


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
def test_compress_roundtrip_throughput(benchmark, codec, gradient):
    def roundtrip():
        return codec.decompress(codec.compress(gradient))

    out = benchmark(roundtrip)
    assert out.shape == gradient.shape
    benchmark.extra_info["wire_bytes"] = codec.wire_bytes(N)
    benchmark.extra_info["compression_ratio"] = round(codec.compression_ratio(N), 1)

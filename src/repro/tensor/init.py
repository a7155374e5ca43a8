"""Weight initializers.

Deterministic given an explicit ``numpy.random.Generator`` so that every
worker in the simulated cluster can start from the identical model replica —
a precondition of data-parallel training that all algorithms here rely on.
Values are drawn in float64 and cast once to :data:`~repro.tensor.tensor.DTYPE`,
so a seed draws the same stream whatever the training precision.
"""

from __future__ import annotations

import numpy as np

from .tensor import DTYPE


def xavier_uniform(shape: tuple, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(DTYPE)


def xavier_normal(shape: tuple, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    fan_in, fan_out = _fans(shape)
    std = gain * np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape).astype(DTYPE)


def kaiming_uniform(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    fan_in, _ = _fans(shape)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(DTYPE)


def kaiming_normal(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    fan_in, _ = _fans(shape)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(DTYPE)


def normal(shape: tuple, rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    return rng.normal(0.0, std, size=shape).astype(DTYPE)


def zeros(shape: tuple) -> np.ndarray:
    return np.zeros(shape, DTYPE)


def ones(shape: tuple) -> np.ndarray:
    return np.ones(shape, DTYPE)


def _fans(shape: tuple) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[1], shape[0]
    # Convolution kernels: [out_channels, in_channels, kh, kw].
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive

"""Synthetic datasets substituting the paper's corpora.

The paper trains on ImageNet, SQuAD, AISHELL-2 and proprietary Kwai data;
none are usable here, and the convergence experiments only need a non-trivial
learnable objective per task family.  Each generator produces a deterministic
dataset with planted structure (a random teacher model or separable
clusters), so losses genuinely decrease and algorithms differ realistically
in how fast they do so.  Real-valued inputs are drawn in float64 and cast
once to the training dtype (:data:`repro.tensor.DTYPE`), so a seed's draws
do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tensor.tensor import DTYPE


@dataclass
class Dataset:
    """An in-memory dataset of (inputs, integer labels)."""

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.labels):
            raise ValueError(
                f"inputs ({len(self.inputs)}) and labels ({len(self.labels)}) differ in length"
            )

    def __len__(self) -> int:
        return len(self.inputs)


def make_image_classification(
    n: int = 512,
    channels: int = 3,
    size: int = 16,
    num_classes: int = 10,
    noise: float = 0.3,
    seed: int = 0,
) -> Dataset:
    """Images with class-dependent spatial templates plus Gaussian noise.

    Stand-in for ImageNet: each class has a random template image; samples
    are noisy copies — learnable by conv nets, not linearly trivial.
    """
    rng = np.random.default_rng(seed)
    templates = rng.standard_normal((num_classes, channels, size, size))
    labels = rng.integers(0, num_classes, size=n)
    inputs = templates[labels] + noise * rng.standard_normal((n, channels, size, size))
    return Dataset(inputs=inputs.astype(DTYPE), labels=labels, num_classes=num_classes)


def make_token_classification(
    n: int = 512,
    vocab: int = 64,
    seq_len: int = 16,
    num_classes: int = 4,
    seed: int = 0,
) -> Dataset:
    """Token sequences whose label depends on planted marker tokens.

    Stand-in for SQuAD/Kwai text: the label is determined by which marker
    token appears in the sequence, so attention/recurrent models must learn
    content-based aggregation.
    """
    rng = np.random.default_rng(seed)
    markers = rng.choice(vocab, size=num_classes, replace=False)
    labels = rng.integers(0, num_classes, size=n)
    inputs = rng.integers(0, vocab, size=(n, seq_len))
    positions = rng.integers(0, seq_len, size=n)
    # Remove stray markers, then plant the label's marker at one position.
    for marker in markers:
        inputs[inputs == marker] = (marker + num_classes + 1) % vocab
    inputs[np.arange(n), positions] = markers[labels]
    return Dataset(inputs=inputs, labels=labels, num_classes=num_classes)


def make_sequence_regression_tokens(
    n: int = 512,
    vocab: int = 64,
    seq_len: int = 12,
    num_classes: int = 4,
    seed: int = 0,
) -> Dataset:
    """Sequences labeled by the majority class of their planted markers —
    a harder order-sensitive variant used by the Transformer task."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, size=n)
    inputs = rng.integers(num_classes, vocab, size=(n, seq_len))
    # Plant the label token at 3 random positions.
    for i in range(n):
        positions = rng.choice(seq_len, size=3, replace=False)
        inputs[i, positions] = labels[i]
    return Dataset(inputs=inputs, labels=labels, num_classes=num_classes)


def make_multimodal(
    n: int = 512,
    channels: int = 3,
    size: int = 12,
    vocab: int = 32,
    seq_len: int = 8,
    num_classes: int = 6,
    noise: float = 0.4,
    seed: int = 0,
) -> tuple[Dataset, np.ndarray]:
    """Paired (image, token-sequence) samples sharing one label.

    Stand-in for the Kwai image+text data behind the LSTM+AlexNet task.
    Returns an image Dataset plus the aligned token array; the label is
    recoverable from either modality, rewarding the two-tower model.
    """
    rng = np.random.default_rng(seed)
    templates = rng.standard_normal((num_classes, channels, size, size))
    labels = rng.integers(0, num_classes, size=n)
    images = templates[labels] + noise * rng.standard_normal((n, channels, size, size))
    tokens = rng.integers(num_classes, vocab, size=(n, seq_len))
    positions = rng.integers(0, seq_len, size=n)
    tokens[np.arange(n), positions] = labels
    return Dataset(inputs=images.astype(DTYPE), labels=labels, num_classes=num_classes), tokens

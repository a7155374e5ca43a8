"""Standard neural-network layers built on the autograd substrate."""

from __future__ import annotations


import numpy as np

from . import functional as F
from . import init
from .module import Module
from .tensor import DTYPE, Tensor


class Linear(Module):
    """Affine transform ``y = x @ W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight", Tensor(init.kaiming_uniform((out_features, in_features), rng))
        )
        self.bias = (
            self.register_parameter("bias", Tensor(init.zeros((out_features,))))
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """2D convolution over [B, C, H, W] inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = self.register_parameter("weight", Tensor(init.kaiming_uniform(shape, rng)))
        self.bias = (
            self.register_parameter("bias", Tensor(init.zeros((out_channels,))))
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, training=self.training)


class BatchNorm2d(Module):
    """Batch normalization over [B, C, H, W] with running statistics."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.weight = self.register_parameter("weight", Tensor(init.ones((num_features,))))
        self.bias = self.register_parameter("bias", Tensor(init.zeros((num_features,))))
        # Buffers, not parameters: never communicated, updated in place.
        self.running_mean = np.zeros(num_features, DTYPE)
        self.running_var = np.ones(num_features, DTYPE)

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm2d(
            x,
            self.weight,
            self.bias,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )


class LayerNorm(Module):
    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.weight = self.register_parameter("weight", Tensor(init.ones((normalized_shape,))))
        self.bias = self.register_parameter("bias", Tensor(init.zeros((normalized_shape,))))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class Embedding(Module):
    """Lookup table from int token ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.weight = self.register_parameter(
            "weight", Tensor(init.normal((num_embeddings, embedding_dim), rng))
        )

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding_lookup(self.weight, indices)

"""numpy autograd + neural-network substrate (PyTorch stand-in)."""

from . import functional
from .attention import MultiHeadAttention, TransformerEncoderLayer
from .clip import clip_grad_norm, global_grad_norm
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    GELU,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
    Tanh,
)
from .module import Module, ModuleList, Sequential
from .optim import SGD, Adam, AdamW, Optimizer
from .recurrent import LSTM, LSTMCell
from .schedulers import CosineAnnealingLR, LRScheduler, StepLR, WarmupLR
from .serde import load_checkpoint, save_checkpoint
from .tensor import DTYPE, Tensor, ones, randn, tensor, zeros

__all__ = [
    "DTYPE",
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "randn",
    "functional",
    "Module",
    "ModuleList",
    "Sequential",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "ReLU",
    "Tanh",
    "GELU",
    "Flatten",
    "Dropout",
    "LayerNorm",
    "Embedding",
    "LSTM",
    "LSTMCell",
    "MultiHeadAttention",
    "TransformerEncoderLayer",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "save_checkpoint",
    "load_checkpoint",
    "BatchNorm2d",
    "clip_grad_norm",
    "global_grad_norm",
    "LRScheduler",
    "StepLR",
    "CosineAnnealingLR",
    "WarmupLR",
]

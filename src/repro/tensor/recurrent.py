"""Recurrent layers (LSTM), used by the LSTM+AlexNet proxy task."""

from __future__ import annotations


import numpy as np

from . import functional as F
from . import init
from .module import Module
from .tensor import DTYPE, Tensor


class LSTMCell(Module):
    """A single LSTM step with fused gate weights.

    Gate layout in the fused matrices is [input, forget, cell, output],
    matching the conventional ``torch.nn.LSTMCell`` ordering.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = self.register_parameter(
            "weight_ih", Tensor(init.xavier_uniform((4 * hidden_size, input_size), rng))
        )
        self.weight_hh = self.register_parameter(
            "weight_hh", Tensor(init.xavier_uniform((4 * hidden_size, hidden_size), rng))
        )
        self.bias = self.register_parameter("bias", Tensor(init.zeros((4 * hidden_size,))))

    def forward(
        self, x: Tensor, state: tuple[Tensor, Tensor]
    ) -> tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        gates = F.linear(x, self.weight_ih) + F.linear(h_prev, self.weight_hh, self.bias)
        hs = self.hidden_size
        i = F.sigmoid(gates[:, 0 * hs : 1 * hs])
        f = F.sigmoid(gates[:, 1 * hs : 2 * hs])
        g = F.tanh(gates[:, 2 * hs : 3 * hs])
        o = F.sigmoid(gates[:, 3 * hs : 4 * hs])
        c = f * c_prev + i * g
        h = o * F.tanh(c)
        return h, c

    def initial_state(self, batch: int) -> tuple[Tensor, Tensor]:
        return (
            Tensor(np.zeros((batch, self.hidden_size), DTYPE)),
            Tensor(np.zeros((batch, self.hidden_size), DTYPE)),
        )


class LSTM(Module):
    """Unrolled single-layer LSTM over [B, T, D] inputs, returning [B, T, H]."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor) -> Tensor:
        batch, steps, _ = x.shape
        h, c = self.cell.initial_state(batch)
        outputs = []
        for t in range(steps):
            h, c = self.cell(x[:, t, :], (h, c))
            outputs.append(h)
        return F.stack(outputs, axis=1)

    def last_hidden(self, x: Tensor) -> Tensor:
        """Run the sequence and return only the final hidden state [B, H]."""
        batch, steps, _ = x.shape
        h, c = self.cell.initial_state(batch)
        for t in range(steps):
            h, c = self.cell(x[:, t, :], (h, c))
        return h

"""LSTM and attention blocks: shapes, gradients, behaviour."""

import numpy as np
import pytest

from repro.tensor import LSTM, LSTMCell, MultiHeadAttention, Tensor, TransformerEncoderLayer


class TestLSTMCell:
    def test_step_shapes(self, rng):
        cell = LSTMCell(5, 7, rng=rng)
        x = Tensor(rng.standard_normal((3, 5)))
        h, c = cell(x, cell.initial_state(3))
        assert h.shape == (3, 7)
        assert c.shape == (3, 7)

    def test_initial_state_zero(self, rng):
        cell = LSTMCell(2, 3, rng=rng)
        h, c = cell.initial_state(4)
        assert h.data.sum() == 0 and c.data.sum() == 0

    def test_gradients_flow_through_time(self, rng):
        cell = LSTMCell(3, 4, rng=rng)
        x = Tensor(rng.standard_normal((2, 3)))
        h, c = cell.initial_state(2)
        for _ in range(3):
            h, c = cell(x, (h, c))
        h.sum().backward()
        assert cell.weight_hh.grad is not None
        assert np.abs(cell.weight_hh.grad).sum() > 0

    def test_numeric_grad(self, rng):
        cell = LSTMCell(3, 4, rng=rng)
        for p in cell.parameters():  # a float64 model runs float64 kernels
            p.data = p.data.astype(np.float64)
        x = Tensor(rng.standard_normal((2, 3)))

        def loss():
            h, c = cell(x, cell.initial_state(2))
            h2, _ = cell(x, (h, c))
            return (h2 ** 2).sum()

        cell.zero_grad()
        loss().backward()
        auto = cell.weight_ih.grad[2, 1]
        eps = 1e-6
        cell.weight_ih.data[2, 1] += eps
        hi = loss().item()
        cell.weight_ih.data[2, 1] -= 2 * eps
        lo = loss().item()
        cell.weight_ih.data[2, 1] += eps
        assert abs(auto - (hi - lo) / (2 * eps)) < 1e-5


class TestLSTM:
    def test_sequence_output_shape(self, rng):
        lstm = LSTM(4, 6, rng=rng)
        out = lstm(Tensor(rng.standard_normal((2, 5, 4))))
        assert out.shape == (2, 5, 6)

    def test_last_hidden_matches_sequence_tail(self, rng):
        lstm = LSTM(4, 6, rng=rng)
        x = Tensor(rng.standard_normal((2, 5, 4)))
        full = lstm(x)
        last = lstm.last_hidden(x)
        np.testing.assert_allclose(full.data[:, -1, :], last.data, atol=1e-12)

    def test_hidden_depends_on_order(self, rng):
        lstm = LSTM(3, 5, rng=rng)
        x = rng.standard_normal((1, 4, 3))
        a = lstm.last_hidden(Tensor(x)).data
        b = lstm.last_hidden(Tensor(x[:, ::-1, :].copy())).data
        assert not np.allclose(a, b)


class TestAttention:
    def test_mha_shape(self, rng):
        attn = MultiHeadAttention(8, 2, rng=rng)
        out = attn(Tensor(rng.standard_normal((2, 5, 8))))
        assert out.shape == (2, 5, 8)

    def test_mha_rejects_bad_heads(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(8, 3)

    def test_attention_mixes_positions(self, rng):
        attn = MultiHeadAttention(8, 2, rng=rng)
        x = rng.standard_normal((1, 4, 8))
        base = attn(Tensor(x)).data
        perturbed = x.copy()
        perturbed[0, 0] += 1.0
        out = attn(Tensor(perturbed)).data
        # Changing position 0 should affect other positions' outputs.
        assert not np.allclose(base[0, 3], out[0, 3])

    def test_mha_gradients(self, rng):
        attn = MultiHeadAttention(8, 2, rng=rng)
        x = Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)
        attn(x).sum().backward()
        assert x.grad is not None
        assert attn.q_proj.weight.grad is not None


class TestEncoderLayer:
    def test_shape_preserved(self, rng):
        enc = TransformerEncoderLayer(8, 2, 16, rng=rng)
        out = enc(Tensor(rng.standard_normal((2, 5, 8))))
        assert out.shape == (2, 5, 8)

    def test_residual_path(self, rng):
        enc = TransformerEncoderLayer(8, 2, 16, rng=rng)
        # Zero out all projections: output should equal input (residuals).
        for _, p in enc.named_parameters():
            if p.data.ndim == 2:
                p.data[...] = 0
        x = rng.standard_normal((1, 3, 8))
        out = enc(Tensor(x))
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_all_params_receive_grad(self, rng):
        enc = TransformerEncoderLayer(8, 2, 16, rng=rng)
        x = Tensor(rng.standard_normal((2, 4, 8)))
        (enc(x) ** 2).sum().backward()
        for name, p in enc.named_parameters():
            assert p.grad is not None, name

"""Attention operators against hand cases and direct loop oracles."""

from dataclasses import fields

import numpy as np
import pytest

from mlareid.attention import (
    MODES,
    STAGES,
    dla_forward,
    hla_forward,
    init_dla,
    init_hla,
    init_mla_block,
    init_pla,
    mla_block_forward,
    pla_forward,
)
from mlareid.autodiff import Parameter, Tensor, add, conv2d, finite_diff_check, relu, sigmoid, tsum
from mlareid.errors import ConfigError, DimensionError
from mlareid.layers import parameters


def conv1x1_apply(x, kernel):
    """Pointwise conv as a per-pixel matrix product (numpy reference)."""
    return x @ kernel[0, 0]


def hla_loop_reference(x, p):
    """Direct per-position dataflow: q.k + q.pos logits, softmax, weight v."""
    n, h, w, c = x.shape
    heads = p.r_h.shape[0]
    d = c // heads
    out = np.zeros_like(x)
    q_all = conv1x1_apply(x, p.w_q.data)
    k_all = conv1x1_apply(x, p.w_k.data)
    v_all = conv1x1_apply(x, p.w_v.data)
    for b in range(n):
        for t in range(heads):
            sl = slice(t * d, (t + 1) * d)
            q = q_all[b, :, :, sl].reshape(h * w, d)
            k = k_all[b, :, :, sl].reshape(h * w, d)
            v = v_all[b, :, :, sl].reshape(h * w, d)
            pos = np.zeros((h * w, d))
            for i in range(h):
                for j in range(w):
                    pos[i * w + j] = p.r_h.data[t, i] + p.r_w.data[t, j]
            logits = q @ k.T + q @ pos.T
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            att = e / e.sum(axis=1, keepdims=True)
            out[b, :, :, sl] = (att @ v).reshape(h, w, d)
    return out


def dla_loop_reference(x, p):
    """Per-pixel slot softmax, per-slot pixel normalization, value read-out."""
    n, h, w, c = x.shape
    c_k = p.k_d.shape[-1]
    out = np.zeros_like(x)
    for b in range(n):
        q = conv1x1_apply(x[b], p.w_q.data)
        scores = conv1x1_apply(q, p.k_d.data).reshape(h * w, c_k)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        att = e / e.sum(axis=1, keepdims=True)
        att = att / (np.abs(att).sum(axis=0, keepdims=True) + 1e-12)
        out[b] = x[b] + (att @ p.v_d.data[0, 0]).reshape(h, w, c)
    return out


class TestPla:
    def test_zero_params_halve_the_input(self):
        """Zero kernel and bias gate every element by sigmoid(0) = 0.5."""
        rng = np.random.default_rng(0)
        p = init_pla(rng, 3, "pla")
        p.kernel.data[:] = 0.0
        x = rng.standard_normal((2, 4, 4, 3))
        out = pla_forward(Tensor(x), p)
        np.testing.assert_array_equal(out.data, 0.5 * x)

    def test_saturated_bias_passes_input_through(self):
        """A +20 bias saturates the gate to 1 within 1e-8."""
        rng = np.random.default_rng(1)
        p = init_pla(rng, 2, "pla")
        p.kernel.data[:] = 0.0
        p.bias.data[:] = 20.0
        x = rng.standard_normal((1, 3, 3, 2))
        np.testing.assert_allclose(pla_forward(Tensor(x), p).data, x, atol=1e-8)

    def test_matches_gate_loop_oracle(self):
        """Random input with a fixed kernel matches conv-then-gate computed by loops."""
        rng = np.random.default_rng(2)
        p = init_pla(rng, 1, "pla")
        p.bias.data[:] = 0.3
        x = rng.standard_normal((1, 2, 2, 1))
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        expect = np.zeros_like(x)
        for i in range(2):
            for j in range(2):
                acc = p.bias.data[0]
                for a in range(3):
                    for b in range(3):
                        acc += xp[0, i + a, j + b, 0] * p.kernel.data[a, b, 0, 0]
                expect[0, i, j, 0] = x[0, i, j, 0] / (1.0 + np.exp(-acc))
        np.testing.assert_allclose(pla_forward(Tensor(x), p).data, expect, atol=1e-12)

    def test_gate_shrinks_every_nonzero_element(self):
        """The gate lies in (0,1), so |PLA(x)| < |x| wherever x != 0."""
        rng = np.random.default_rng(3)
        p = init_pla(rng, 4, "pla")
        x = rng.standard_normal((1, 5, 3, 4))
        out = pla_forward(Tensor(x), p).data
        assert (np.abs(out) < np.abs(x)).all()

    def test_channel_mismatch_raises(self):
        p = init_pla(np.random.default_rng(4), 3, "pla")
        with pytest.raises(DimensionError):
            pla_forward(Tensor(np.zeros((1, 4, 4, 2))), p)

    @pytest.mark.parametrize("probe", ["input", "kernel", "bias"])
    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed, probe):
        """PLA gradients w.r.t. the input, the gate kernel and the bias (added after the conv) pass
        finite differences across seeds."""
        rng = np.random.default_rng(seed)
        p = init_pla(rng, 2, "pla")
        x0 = rng.standard_normal((1, 3, 3, 2))
        if probe == "input":
            assert finite_diff_check(lambda t: tsum(pla_forward(t, p)), x0) < 1e-4
        else:
            assert finite_diff_check(lambda _: tsum(pla_forward(Tensor(x0), p)), getattr(p, probe)) < 1e-4


class TestHla:
    def test_single_position_applies_value_projection(self):
        """On a 1x1 map attention is a no-op, leaving just the value conv."""
        rng = np.random.default_rng(5)
        p = init_hla(rng, 4, 2, 1, 1, "hla")
        x = rng.standard_normal((2, 1, 1, 4))
        out = hla_forward(Tensor(x), p).data
        np.testing.assert_allclose(out, conv1x1_apply(x, p.w_v.data), atol=1e-12)

    def test_zero_queries_average_the_values(self):
        """Zero W_q and zero positions give uniform attention, the mean of v."""
        rng = np.random.default_rng(6)
        p = init_hla(rng, 2, 1, 2, 3, "hla")
        p.w_q.data[:] = 0.0
        p.r_h.data[:] = 0.0
        p.r_w.data[:] = 0.0
        x = rng.standard_normal((1, 2, 3, 2))
        out = hla_forward(Tensor(x), p).data
        v = conv1x1_apply(x, p.w_v.data)
        mean_v = v.reshape(1, 6, 2).mean(axis=1)
        np.testing.assert_allclose(out, np.broadcast_to(mean_v[:, None, None, :], out.shape), atol=1e-12)

    def test_matches_loop_reference_single_head(self):
        """A 1x2x1x2 single-head map matches the per-position loop oracle."""
        rng = np.random.default_rng(7)
        p = init_hla(rng, 2, 1, 2, 1, "hla")
        x = rng.standard_normal((1, 2, 1, 2))
        np.testing.assert_allclose(hla_forward(Tensor(x), p).data, hla_loop_reference(x, p), atol=1e-12)

    def test_matches_loop_reference_multi_head(self):
        """A two-head 2x2 map matches the oracle head by head."""
        rng = np.random.default_rng(8)
        p = init_hla(rng, 4, 2, 2, 2, "hla")
        x = rng.standard_normal((2, 2, 2, 4))
        np.testing.assert_allclose(hla_forward(Tensor(x), p).data, hla_loop_reference(x, p), atol=1e-12)

    def test_attention_rows_are_distributions(self):
        """Constant value rows pass through unchanged only if rows sum to 1."""
        rng = np.random.default_rng(9)
        p = init_hla(rng, 2, 1, 2, 2, "hla")
        x = np.broadcast_to(rng.standard_normal(2), (1, 2, 2, 2)).copy()
        out = hla_forward(Tensor(x), p).data
        v = conv1x1_apply(x, p.w_v.data)
        np.testing.assert_allclose(out, v, atol=1e-12)

    def test_map_other_than_position_rows_raises(self):
        """The position rows are the map's size: a larger or a smaller map is refused."""
        p = init_hla(np.random.default_rng(10), 2, 1, 4, 4, "hla")
        for hw in ((5, 4), (4, 5), (3, 4), (4, 3)):
            with pytest.raises(DimensionError, match="does not match the 4x4 position rows"):
                hla_forward(Tensor(np.zeros((1, *hw, 2))), p)

    def test_stage_params_hold_only_parameters(self):
        """The head count is r_h's first axis and the slot count k_d's last: no field restates them."""
        rng = np.random.default_rng(17)
        pla, hla, dla = init_pla(rng, 4, "pla"), init_hla(rng, 4, 2, 2, 3, "hla"), init_dla(rng, 4, 3, "dla")
        for p in (pla, hla, dla):
            assert all(isinstance(getattr(p, f.name), Parameter) for f in fields(p)), p
        assert (hla.r_h.shape[0], dla.k_d.shape[-1]) == (2, 3)

    def test_indivisible_heads_rejected_at_init(self):
        with pytest.raises(ConfigError):
            init_hla(np.random.default_rng(11), 3, 2, 4, 4, "hla")

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        """HLA input gradients pass finite differences across seeds."""
        rng = np.random.default_rng(seed + 20)
        p = init_hla(rng, 2, 1, 2, 2, "hla")
        x0 = rng.standard_normal((1, 2, 2, 2)) * 0.5
        assert finite_diff_check(lambda t: tsum(hla_forward(t, p)), x0) < 1e-4

    def test_position_encoding_gradients(self):
        """The learnable position rows receive finite-difference-clean gradients."""
        rng = np.random.default_rng(30)
        p = init_hla(rng, 2, 1, 2, 2, "hla")
        x = Tensor(rng.standard_normal((1, 2, 2, 2)) * 0.5)
        assert finite_diff_check(lambda _: tsum(hla_forward(x, p)), p.r_h) < 1e-4


class TestDla:
    def test_zero_value_memory_is_identity(self):
        """v_D = 0 makes the residual correction vanish exactly."""
        rng = np.random.default_rng(12)
        p = init_dla(rng, 3, 2, "dla")
        p.v_d.data[:] = 0.0
        x = rng.standard_normal((2, 3, 2, 3))
        np.testing.assert_array_equal(dla_forward(Tensor(x), p).data, x)

    def test_single_slot_spreads_uniform_weight(self):
        """c_k=1 collapses the softmax so every pixel carries weight 1/(h*w)."""
        rng = np.random.default_rng(13)
        p = init_dla(rng, 2, 1, "dla")
        x = rng.standard_normal((1, 2, 2, 2))
        out = dla_forward(Tensor(x), p).data
        np.testing.assert_allclose(out, x + p.v_d.data[0, 0, 0] / 4.0, atol=1e-12)

    def test_matches_loop_reference(self):
        """Random 1x2x2x2 input with c_k=3 matches the loop oracle."""
        rng = np.random.default_rng(14)
        p = init_dla(rng, 2, 3, "dla")
        x = rng.standard_normal((1, 2, 2, 2))
        np.testing.assert_allclose(dla_forward(Tensor(x), p).data, dla_loop_reference(x, p), atol=1e-12)

    def test_transposed_initialization_is_bit_exact(self):
        """Right after init the value memory equals the key memory transposed."""
        p = init_dla(np.random.default_rng(15), 6, 4, "dla")
        assert p.v_d.data[0, 0].tobytes() == p.k_d.data[0, 0].T.copy().tobytes()

    def test_dimension_mismatch_raises(self):
        p = init_dla(np.random.default_rng(16), 3, 2, "dla")
        with pytest.raises(DimensionError):
            dla_forward(Tensor(np.zeros((1, 2, 2, 5))), p)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        """DLA input gradients pass finite differences across seeds."""
        rng = np.random.default_rng(seed + 40)
        p = init_dla(rng, 2, 3, "dla")
        x0 = rng.standard_normal((1, 2, 2, 2))
        assert finite_diff_check(lambda t: tsum(dla_forward(t, p)), x0) < 1e-4


class TestMlaBlock:
    def build(self, mode, c_in=4, c_mid=2, c_out=4, stride=1, seed=50, hw=(4, 4)):
        rng = np.random.default_rng(seed)
        return init_mla_block(rng, c_in, c_mid, c_out, mode, 1, 2, *hw, "mla", stride=stride)

    def test_baseline_equals_plain_bottleneck(self):
        """Baseline mode is exactly reduce/conv3x3/expand with norms and shortcut."""
        p = self.build("baseline")
        rng = np.random.default_rng(51)
        x = rng.standard_normal((2, 4, 4, 4))
        got = mla_block_forward(Tensor(x), p, training=False).data

        y = relu(p.bn1.apply(conv2d(Tensor(x), p.reduce), False))
        m = relu(p.bn2.apply(conv2d(y, p.conv_mid, zero_pad=1), False))
        z = p.bn3.apply(conv2d(m, p.expand), False)
        expect = relu(add(z, Tensor(x))).data
        np.testing.assert_array_equal(got, expect)

    def test_dla_identity_block_doubles_positive_input(self):
        """Zero v_D and identity reduce/expand leave only the residual doubling."""
        p = self.build("dla", c_in=2, c_mid=2, c_out=2)
        p.reduce.data[0, 0] = np.eye(2)
        p.expand.data[0, 0] = np.eye(2)
        p.dla.v_d.data[:] = 0.0
        rng = np.random.default_rng(52)
        x = rng.uniform(0.05, 0.5, size=(1, 3, 2, 2))
        out = mla_block_forward(Tensor(x), p, training=False).data
        np.testing.assert_allclose(out, 2.0 * x, atol=1e-12)

    def test_all_mode_equals_manual_composition(self):
        """Mode=all equals hand-chaining pla, hla, dla between the same convs."""
        p = self.build("all", c_in=8, c_mid=2, c_out=8, hw=(4, 2))
        rng = np.random.default_rng(53)
        x = rng.standard_normal((1, 4, 2, 8))
        got = mla_block_forward(Tensor(x), p, training=False).data

        y = relu(p.bn1.apply(conv2d(Tensor(x), p.reduce), False))
        m = dla_forward(hla_forward(pla_forward(y, p.pla), p.hla), p.dla)
        z = p.bn3.apply(conv2d(relu(p.bn2.apply(m, False)), p.expand), False)
        expect = relu(add(z, Tensor(x))).data
        np.testing.assert_array_equal(got, expect)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown attention mode"):
            init_mla_block(np.random.default_rng(0), 4, 2, 4, "extra", 1, 2, 8, 8, "mla")

    @pytest.mark.parametrize("mode", MODES)
    def test_each_mode_holds_exactly_its_stages(self, mode):
        """A stage's parameters exist exactly when STAGES names it; conv_mid exactly when it names none."""
        p = self.build(mode)
        assert {stage for stage in ("pla", "hla", "dla") if getattr(p, stage) is not None} == set(STAGES[mode])
        assert (p.conv_mid is not None) == (STAGES[mode] == ())

    @pytest.mark.parametrize("mode", MODES)
    def test_shape_preserved_across_modes(self, mode):
        """Every mode maps n,h,w,c_in to n,h,w,c_out at stride 1."""
        p = self.build(mode)
        out = mla_block_forward(Tensor(np.random.default_rng(54).standard_normal((2, 4, 4, 4))), p, False)
        assert out.shape == (2, 4, 4, 4)

    def test_strided_block_projects_shortcut(self):
        """Stride 2 halves spatial dims and routes the shortcut through a projection."""
        p = self.build("baseline", c_in=4, c_mid=2, c_out=6, stride=2)
        assert p.shortcut is not None
        out = mla_block_forward(Tensor(np.zeros((1, 4, 4, 4))), p, False)
        assert out.shape == (1, 2, 2, 6)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_through_all_mode(self, seed):
        """The full block passes finite differences on the input across seeds."""
        p = self.build("all", c_in=2, c_mid=2, c_out=2, seed=seed + 60, hw=(2, 2))
        rng = np.random.default_rng(seed + 70)
        x0 = rng.standard_normal((1, 2, 2, 2)) * 0.5
        err = finite_diff_check(lambda t: tsum(mla_block_forward(t, p, training=False)), x0)
        assert err < 1e-4

    def test_identical_seeds_build_identical_blocks(self):
        """Rebuilding with the same seed reproduces every parameter bit-for-bit."""
        a = self.build("all", seed=99)
        b = self.build("all", seed=99)
        for pa, pb in zip(parameters(a), parameters(b)):
            assert pa.name == pb.name
            assert pa.data.tobytes() == pb.data.tobytes()

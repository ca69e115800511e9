"""Tensor arithmetic and reverse-mode gradients against loop oracles."""

import multiprocessing
import queue
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from mlareid import autodiff as ad
from mlareid.autodiff import (
    Parameter,
    Tensor,
    batch_norm,
    conv2d,
    finite_diff_check,
    l1_normalize,
    l2_normalize,
    matmul,
    relu,
    sigmoid,
    softmax,
    transpose,
    zero_grads,
)
from mlareid.attention import MODES
from mlareid.errors import ContractError, DimensionError
from conftest import pin_cores, small_backbone, weighted_sum, within


def conv2d_loop_reference(x, kernel, stride=1, zero_pad=0):
    """Six-nested-loop cross-correlation, the independent conv oracle."""
    n, h, w, c_in = x.shape
    kh, kw, _, c_out = kernel.shape
    xp = np.pad(x, ((0, 0), (zero_pad, zero_pad), (zero_pad, zero_pad), (0, 0)))
    h_out = (h + 2 * zero_pad - kh) // stride + 1
    w_out = (w + 2 * zero_pad - kw) // stride + 1
    out = np.zeros((n, h_out, w_out, c_out))
    for b in range(n):
        for i in range(h_out):
            for j in range(w_out):
                for o in range(c_out):
                    acc = 0.0
                    for a in range(kh):
                        for bb in range(kw):
                            for c in range(c_in):
                                acc += xp[b, i * stride + a, j * stride + bb, c] * kernel[a, bb, c, o]
                    out[b, i, j, o] = acc
    return out


def matmul_loop_reference(a, b):
    """Triple-loop matrix product oracle for 2-D operands."""
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestConv2d:
    def test_single_pixel_is_a_multiply(self):
        """1x1x1x1 input times a 1x1 kernel is the scalar product."""
        x = Tensor(np.full((1, 1, 1, 1), 3.0))
        k = Tensor(np.full((1, 1, 1, 1), -2.5))
        out = conv2d(x, k)
        np.testing.assert_allclose(out.data, np.full((1, 1, 1, 1), -7.5))

    def test_ones_with_padding_counts_overlap(self):
        """All-ones 3x3 input with an all-ones 3x3 kernel and pad 1 counts window overlap."""
        x = Tensor(np.ones((1, 3, 3, 1)))
        k = Tensor(np.ones((3, 3, 1, 1)))
        out = conv2d(x, k, zero_pad=1).data[0, :, :, 0]
        np.testing.assert_allclose(out[1, 1], 9.0)
        for i, j in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            np.testing.assert_allclose(out[i, j], 4.0)

    def test_matches_loop_reference(self):
        """Random inputs match the six-loop reference to 1e-12."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 4, 4, 2))
        k = rng.standard_normal((3, 3, 2, 2))
        out = conv2d(Tensor(x), Tensor(k))
        np.testing.assert_allclose(out.data, conv2d_loop_reference(x, k), atol=1e-12)

    @pytest.mark.parametrize("stride,pad,ksize,with_bias", [
        pytest.param(1, 0, 3, True, id="1-0"),
        pytest.param(1, 1, 3, True, id="1-1"),
        pytest.param(2, 0, 3, True, id="2-0"),
        pytest.param(2, 1, 3, True, id="2-1"),
        pytest.param(1, 0, 1, True, id="1x1-1-bias"),
        pytest.param(1, 0, 1, False, id="1x1-1-nobias"),
        pytest.param(2, 0, 1, True, id="1x1-2-bias"),
        pytest.param(2, 0, 1, False, id="1x1-2-nobias"),
    ])
    def test_stride_and_padding_match_loop_reference(self, stride, pad, ksize, with_bias):
        """Strided, padded and 1x1 variants, with a bias added after, agree with the loop oracle."""
        rng = np.random.default_rng(stride * 10 + pad + 100 * (ksize == 1))
        x = rng.standard_normal((2, 5, 6, 3))
        k = rng.standard_normal((ksize, ksize, 3, 4))
        b = rng.standard_normal(4)
        out = conv2d(Tensor(x), Tensor(k), stride=stride, zero_pad=pad)
        ref = conv2d_loop_reference(x, k, stride, pad)
        if with_bias:
            out, ref = ad.add(out, Tensor(b)), ref + b
        np.testing.assert_allclose(out.data, ref, atol=1e-12)

    def test_channel_mismatch_names_axis(self):
        """A channel disagreement raises a dimension error that names the axis."""
        x = Tensor(np.zeros((1, 4, 4, 2)))
        k = Tensor(np.zeros((3, 3, 5, 2)))
        with pytest.raises(DimensionError, match="axis 3"):
            conv2d(x, k)

    def test_oversized_kernel_rejected(self):
        """A kernel larger than the padded input is rejected."""
        with pytest.raises(DimensionError, match="exceeds"):
            conv2d(Tensor(np.zeros((1, 2, 2, 1))), Tensor(np.zeros((3, 3, 1, 1))))

    def test_gradients_match_finite_differences(self):
        """Gradients of a conv plus a bias w.r.t. input, kernel and bias pass finite differences."""
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((1, 4, 4, 2))
        k0 = rng.standard_normal((3, 3, 2, 2))
        b0 = rng.standard_normal(2)

        err_x = finite_diff_check(
            lambda t: ad.tsum(ad.add(conv2d(t, Tensor(k0), zero_pad=1), Tensor(b0))), x0
        )
        err_k = finite_diff_check(
            lambda t: ad.tsum(ad.add(conv2d(Tensor(x0), t, zero_pad=1), Tensor(b0))), k0
        )
        err_b = finite_diff_check(
            lambda t: ad.tsum(ad.add(conv2d(Tensor(x0), Tensor(k0), zero_pad=1), t)), b0
        )
        assert err_x < 1e-6 and err_k < 1e-6 and err_b < 1e-6

    def test_strided_gradients_match_finite_differences(self):
        """Stride-2 conv input gradient passes finite differences."""
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((1, 5, 5, 2))
        k0 = rng.standard_normal((3, 3, 2, 3))
        err = finite_diff_check(
            lambda t: ad.tsum(conv2d(t, Tensor(k0), stride=2, zero_pad=1)), x0
        )
        assert err < 1e-6

    @pytest.mark.parametrize("stride", [1, 2])
    def test_one_by_one_gradients_match_finite_differences(self, stride):
        """Gradients of a 1x1 conv plus a bias w.r.t. input, kernel and bias pass finite differences."""
        rng = np.random.default_rng(5 + stride)
        x0 = rng.standard_normal((2, 5, 4, 3))
        k0 = rng.standard_normal((1, 1, 3, 2))
        b0 = rng.standard_normal(2)
        w = Tensor(rng.standard_normal(conv2d(Tensor(x0), Tensor(k0), stride=stride).shape))

        def run(x, k, b):
            return weighted_sum(ad.add(conv2d(x, k, stride=stride), b), w)

        err_x = finite_diff_check(lambda t: run(t, Tensor(k0), Tensor(b0)), x0)
        err_k = finite_diff_check(lambda t: run(Tensor(x0), t, Tensor(b0)), k0)
        err_b = finite_diff_check(lambda t: run(Tensor(x0), Tensor(k0), t), b0)
        assert err_x < 1e-6 and err_k < 1e-6 and err_b < 1e-6

    @pytest.mark.parametrize("ksize,stride,c_in", [
        (3, 1, 3), (3, 1, 16), (3, 1, 32), (3, 2, 3), (3, 2, 16), (3, 2, 32),
        (1, 1, 16), (1, 2, 16),
    ])
    def test_kernel_gradient_is_bit_equal_to_tensordot(self, ksize, stride, c_in):
        """Output and kernel gradient equal the tensordot contractions over the window view."""
        rng = np.random.default_rng(ksize * 100 + stride * 10 + c_in)
        pad = ksize // 2
        x0 = rng.standard_normal((4, 16, 8, c_in))
        k = Tensor(rng.standard_normal((ksize, ksize, c_in, 16)), requires_grad=True)
        out = conv2d(Tensor(x0), k, stride=stride, zero_pad=pad)
        g = rng.standard_normal(out.shape)
        weighted_sum(out, Tensor(g)).backward()

        padded = np.pad(x0, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
        win = sliding_window_view(padded, (ksize, ksize), axis=(1, 2))[:, ::stride, ::stride]
        want_out = np.tensordot(win, k.data, axes=((4, 5, 3), (0, 1, 2)))
        want_gk = np.tensordot(win, g, axes=((0, 1, 2), (0, 1, 2))).transpose(1, 2, 0, 3)
        assert out.data.tobytes() == np.ascontiguousarray(want_out).tobytes()
        assert k.grad.tobytes() == np.ascontiguousarray(want_gk).tobytes()


class TestMatmul:
    def test_identity(self):
        """Multiplying by the 2x2 identity returns the operand."""
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), Tensor(m))
        np.testing.assert_allclose(out.data, m)

    def test_hand_case(self):
        """[[1,2],[3,4]] @ [[5],[6]] is [[17],[39]]."""
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[5.0], [6.0]]))
        np.testing.assert_allclose(matmul(a, b).data, [[17.0], [39.0]])

    def test_matches_loop_reference(self):
        """Random 3x4 by 4x5 matches the triple-loop oracle to 1e-12."""
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, matmul_loop_reference(a, b), atol=1e-12)

    def test_batched_broadcast(self):
        """Leading batch dims broadcast; each slice matches the loop oracle."""
        rng = np.random.default_rng(12)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        out = matmul(Tensor(a), Tensor(b)).data
        for i in range(2):
            np.testing.assert_allclose(out[i], matmul_loop_reference(a[i], b), atol=1e-12)

    def test_inner_mismatch_raises(self):
        """Disagreeing inner dimensions raise a dimension error."""
        with pytest.raises(DimensionError, match="inner"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_gradients_match_finite_differences(self):
        """Both operands of a matmul-sum pass finite differences."""
        rng = np.random.default_rng(13)
        a0 = rng.standard_normal((3, 4))
        b0 = rng.standard_normal((4, 5))
        assert finite_diff_check(lambda t: ad.tsum(matmul(t, Tensor(b0))), a0) < 1e-6
        assert finite_diff_check(lambda t: ad.tsum(matmul(Tensor(a0), t)), b0) < 1e-6


class TestSoftmax:
    def test_symmetric_pair(self):
        """Equal logits split the mass evenly."""
        np.testing.assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_log_ratio(self):
        """Logits [0, ln 3] give probabilities in ratio 1:3."""
        out = softmax(Tensor([0.0, np.log(3.0)])).data
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)

    def test_matches_direct_formula(self):
        """A random length-7 vector matches exp/sum(exp) and sums to 1 within 1e-12."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal(7)
        out = softmax(Tensor(x)).data
        ref = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(out, ref, atol=1e-12)
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        """Max-subtraction keeps huge logits finite and normalized."""
        out = softmax(Tensor([1e4, 1e4 - 1.0, 0.0])).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)

    def test_axis_selection(self):
        """Each row sums to 1 when normalizing the last axis of a matrix."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 5))
        out = softmax(Tensor(x), axis=-1).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_invalid_axis_raises(self):
        with pytest.raises(DimensionError):
            softmax(Tensor(np.zeros((2, 2))), axis=5)

    def test_gradient_matches_finite_differences(self):
        """softmax-then-dot with a fixed vector passes finite differences."""
        rng = np.random.default_rng(8)
        x0 = rng.standard_normal(6)
        v = rng.standard_normal(6)
        err = finite_diff_check(lambda t: weighted_sum(softmax(t), Tensor(v)), x0)
        assert err < 1e-6


class TestElementwise:
    def test_sigmoid_center_and_tails(self):
        """sigmoid(0) is 0.5 and saturates monotonically in both tails."""
        np.testing.assert_allclose(sigmoid(Tensor([0.0])).data, [0.5])
        out = sigmoid(Tensor([-800.0, 800.0])).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_relu(self):
        np.testing.assert_allclose(relu(Tensor([-2.0, 0.0, 3.0])).data, [0.0, 0.0, 3.0])

    def test_l2_normalize_three_four_five(self):
        """[3,4] normalizes to [0.6,0.8]."""
        np.testing.assert_allclose(l2_normalize(Tensor([3.0, 4.0])).data, [0.6, 0.8], atol=1e-12)

    def test_l2_normalize_zero_vector_guarded(self):
        """The zero vector maps to zeros instead of dividing by zero."""
        out = l2_normalize(Tensor([0.0, 0.0])).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [0.0, 0.0])

    def test_l1_normalize_matches_formula(self):
        """l1_normalize divides by the absolute sum along the axis."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 5))
        out = l1_normalize(Tensor(x), axis=0).data
        np.testing.assert_allclose(out, x / (np.abs(x).sum(axis=0, keepdims=True) + 1e-12), atol=1e-15)

    def test_global_avg_pool(self):
        """Pooling is the spatial mean: per-channel means, and each gradient spread evenly over h*w."""
        rng = np.random.default_rng(10)
        for n in (1, 4, 16):
            x = Tensor(rng.standard_normal((n, 8, 4, 64)), requires_grad=True)
            g = rng.standard_normal((n, 64))
            pooled = ad.tmean(x, axis=(1, 2))
            weighted_sum(pooled, Tensor(g)).backward()
            assert pooled.data.tobytes() == x.data.mean(axis=(1, 2)).tobytes()
            assert x.grad.tobytes() == (g[:, None, None, :] / 32 + np.zeros(x.shape)).tobytes()

    def test_broadcast_mismatch_raises(self):
        with pytest.raises(DimensionError):
            ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("seed", range(5))
    def test_normalize_gradients(self, seed):
        """l1/l2 normalize gradients pass finite differences on 5 seeds."""
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(6) + 0.5
        v = rng.standard_normal(6)
        err2 = finite_diff_check(lambda t: weighted_sum(l2_normalize(t), Tensor(v)), x0)
        err1 = finite_diff_check(lambda t: weighted_sum(l1_normalize(t), Tensor(v)), x0)
        assert err2 < 1e-6 and err1 < 1e-6


class TestBatchNorm:
    def test_training_hand_case(self):
        """Batch [[1],[3]] with unit gamma and zero beta normalizes to [-1, 1]."""
        out = batch_norm(
            Tensor(np.array([[1.0], [3.0]])), Tensor([1.0]), Tensor([0.0]), np.zeros(1), np.ones(1), training=True
        )
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-3)

    def test_training_updates_running_stats(self):
        """One training pass folds batch stats into the running estimates."""
        mean, var = np.zeros(1), np.ones(1)
        batch_norm(Tensor(np.array([[1.0], [3.0]])), Tensor([1.0]), Tensor([0.0]), mean, var, training=True)
        np.testing.assert_allclose(mean, [0.2], atol=1e-12)
        np.testing.assert_allclose(var, [1.0], atol=1e-12)

    def test_eval_uses_running_stats(self):
        """Eval mode normalizes by the stored running statistics."""
        mean, var = np.full(1, 2.0), np.full(1, 4.0)
        out = batch_norm(Tensor(np.array([[4.0]])), Tensor([3.0]), Tensor([1.0]), mean, var, training=False)
        np.testing.assert_allclose(out.data, [[4.0]], atol=1e-6)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            batch_norm(Tensor(np.zeros((2, 2))), Tensor([1.0]), Tensor([0.0]), np.zeros(2), np.ones(2), training=True)

    def test_training_gradients(self):
        """Batch-norm x, gamma and beta gradients of a weighted output pass finite differences.

        The output is weighted by a fixed random tensor: the x-gradient of a
        plain sum of batch-norm outputs is identically zero.
        """
        rng = np.random.default_rng(14)
        x0 = rng.standard_normal((4, 3))
        g0 = rng.standard_normal(3)
        b0 = rng.standard_normal(3)
        w = Tensor(rng.standard_normal(x0.shape))

        def run(x, g, b):
            return weighted_sum(batch_norm(x, g, b, np.zeros(3), np.ones(3), training=True), w)

        assert finite_diff_check(lambda t: run(t, Tensor(g0), Tensor(b0)), x0) < 1e-4
        assert finite_diff_check(lambda t: run(Tensor(x0), t, Tensor(b0)), g0) < 1e-6
        assert finite_diff_check(lambda t: run(Tensor(x0), Tensor(g0), t), b0) < 1e-6

    def test_eval_gradients(self):
        """The eval-mode node's x, gamma and beta gradients pass finite differences."""
        rng = np.random.default_rng(16)
        x0 = rng.standard_normal((2, 3, 2, 3))
        g0 = rng.standard_normal(3)
        b0 = rng.standard_normal(3)
        w = Tensor(rng.standard_normal(x0.shape))
        mean, var = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)

        def run(x, g, b):
            return weighted_sum(batch_norm(x, g, b, mean, var, training=False), w)

        assert finite_diff_check(lambda t: run(t, Tensor(g0), Tensor(b0)), x0) < 1e-6
        assert finite_diff_check(lambda t: run(Tensor(x0), t, Tensor(b0)), g0) < 1e-6
        assert finite_diff_check(lambda t: run(Tensor(x0), Tensor(g0), t), b0) < 1e-6

    @pytest.mark.parametrize("shape", [(4, 3), (1, 2, 3, 3), (2, 3, 2, 3)])
    def test_eval_node_is_bit_equal_to_composed_ops(self, shape):
        """Forward and all three gradients equal the sub/mul/mul/add chain bit for bit."""
        rng = np.random.default_rng(17)
        c = shape[-1]
        mean, var = rng.standard_normal(c), rng.uniform(0.5, 2.0, c)
        w = Tensor(rng.standard_normal(shape))
        x0, g0, b0 = rng.standard_normal(shape), rng.standard_normal(c), rng.standard_normal(c)
        bshape = (1,) * (len(shape) - 1) + (c,)

        def composed(x, g, b):
            scale = 1.0 / np.sqrt(var.reshape(bshape) + ad.NORM_EPS)
            centered = ad.sub(x, mean.reshape(bshape))
            scaled = ad.mul(ad.mul(centered, Tensor(scale)), ad.reshape(g, bshape))
            return ad.add(scaled, ad.reshape(b, bshape))

        results = []
        for f in (composed, lambda x, g, b: batch_norm(x, g, b, mean, var, training=False)):
            x, g, b = (Tensor(v.copy(), requires_grad=True) for v in (x0, g0, b0))
            out = f(x, g, b)
            weighted_sum(out, w).backward()
            results.append([a.tobytes() for a in (out.data, x.grad, g.grad, b.grad)])
        assert results[0] == results[1]

    @staticmethod
    def composed_train_chain(x, gamma, beta, running_mean, running_var):
        """Training-mode batch norm as the tape ops it was once built from; the running stats out of place."""
        c = x.shape[-1]
        bshape = (1,) * (x.ndim - 1) + (c,)
        axes = tuple(range(x.ndim - 1))
        m = ad.tmean(x, axis=axes, keepdims=True)
        centered = ad.sub(x, m)
        v = ad.tmean(ad.mul(centered, centered), axis=axes, keepdims=True)
        mom = ad.BN_MOMENTUM
        running_mean[...] = (1.0 - mom) * running_mean + mom * m.data.reshape(c)
        running_var[...] = (1.0 - mom) * running_var + mom * v.data.reshape(c)
        inv = ad.div(1.0, ad.sqrt(ad.add(v, ad.NORM_EPS)))
        return ad.add(ad.mul(ad.mul(centered, inv), ad.reshape(gamma, bshape)), ad.reshape(beta, bshape))

    @pytest.mark.parametrize("shape", [(4, 3), (1, 2, 3, 3), (2, 3, 2, 3), (16, 8, 4, 32)])
    @pytest.mark.parametrize("affine_grad", [True, False], ids=["affine", "frozen-affine"])
    def test_train_node_is_bit_equal_to_composed_ops(self, shape, affine_grad):
        """Output, running stats and the x/gamma/beta gradients equal the composed chain bit for bit."""
        rng = np.random.default_rng(19)
        c = shape[-1]
        w = Tensor(rng.standard_normal(shape))
        x0, g0, b0 = rng.standard_normal(shape) * 3.0 + 1.0, rng.standard_normal(c), rng.standard_normal(c)
        mean0, var0 = rng.standard_normal(c), rng.uniform(0.5, 2.0, c)

        def run(f):
            mean, var = mean0.copy(), var0.copy()
            x = Tensor(x0.copy(), requires_grad=True)
            g, b = (Tensor(v.copy(), requires_grad=affine_grad) for v in (g0, b0))
            out = f(x, g, b, mean, var)
            weighted_sum(out, w).backward()
            grads = [t.grad.tobytes() for t in (x, g, b) if t.requires_grad]
            return [a.tobytes() for a in (out.data, mean, var)] + grads

        want = run(self.composed_train_chain)
        got = run(lambda x, g, b, mean, var: batch_norm(x, g, b, mean, var, training=True))
        assert len(got) == (6 if affine_grad else 4)
        assert got == want

    @pytest.mark.parametrize("shape", [(4, 3), (2, 3, 2, 3), (16, 8, 4, 32)])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_fused_relu_node_is_bit_equal_to_relu_of_batch_norm(self, training, shape):
        """Output, running stats and the x/gamma/beta gradients equal relu(batch_norm(...)) bit for bit.

        The ReLU zeroes all of channel 0 (its beta is -1e3), where every gradient batch norm's
        rules see is then a zero.
        """
        rng = np.random.default_rng(29)
        c = shape[-1]
        w = Tensor(rng.standard_normal(shape))
        x0, g0, b0 = rng.standard_normal(shape) * 3.0 + 1.0, rng.standard_normal(c), rng.standard_normal(c)
        b0[0] = -1e3
        mean0, var0 = rng.standard_normal(c), rng.uniform(0.5, 2.0, c)

        def run(f):
            mean, var = mean0.copy(), var0.copy()
            x, g, b = (Tensor(v.copy(), requires_grad=True) for v in (x0, g0, b0))
            out = f(x, g, b, mean, var)
            weighted_sum(out, w).backward()
            return [a.tobytes() for a in (out.data, mean, var, x.grad, g.grad, b.grad)]

        want = run(lambda *args: ad.relu(batch_norm(*args, training=training)))
        got = run(lambda *args: batch_norm(*args, training=training, relu=True))
        assert got == want


class TestNoGrad:
    def test_outputs_carry_no_tape(self):
        """Under no_grad an op on a grad-requiring input records nothing."""
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with ad.no_grad():
            out = ad.tsum(relu(ad.mul(x, 2.0)))
        assert not out.requires_grad and out._rules == ()
        assert ad.mul(x, 2.0).requires_grad

    def test_values_match_grad_mode(self):
        """Forward values are identical with and without the tape."""
        rng = np.random.default_rng(18)
        x = Tensor(rng.standard_normal((2, 4, 4, 3)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 3, 3, 2)), requires_grad=True)
        with_tape = softmax(conv2d(x, k, zero_pad=1)).data
        with ad.no_grad():
            without = softmax(conv2d(x, k, zero_pad=1)).data
        assert with_tape.tobytes() == without.tobytes()

    def test_mode_restored_after_nesting(self):
        x = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            with ad.no_grad():
                assert not ad.mul(x, x).requires_grad
            assert not ad.mul(x, x).requires_grad
        assert ad.mul(x, x).requires_grad

    def test_mode_restored_after_exception(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("boom")
        assert ad.mul(x, x).requires_grad

    def test_mode_is_per_thread(self):
        """While one thread holds no_grad(), a forward in a second thread still builds a tape."""
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        k = Tensor(np.ones((1, 1, 3, 2)), requires_grad=True)
        holding, done = threading.Event(), threading.Event()
        seen = {}

        def hold():
            with ad.no_grad():
                seen["held"] = ad.mul(x, x).requires_grad
                holding.set()
                done.wait(timeout=30)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert holding.wait(timeout=30)
            out = ad.tsum(relu(conv2d(ad.reshape(x, (1, 2, 1, 3)), k)))
            assert out.requires_grad and out._rules != ()
            out.backward()
            assert k.grad is not None
        finally:
            done.set()
            holder.join(timeout=30)
        assert not holder.is_alive()
        assert seen["held"] is False

    def test_training_batch_norm_updates_running_stats(self):
        """Running statistics update under no_grad exactly as with the tape."""
        rng = np.random.default_rng(19)
        x = rng.standard_normal((5, 3))
        gamma = Parameter("bn.gamma", np.ones(3))
        beta = Parameter("bn.beta", np.zeros(3))
        taped, free = (np.zeros(3), np.ones(3)), (np.zeros(3), np.ones(3))
        batch_norm(Tensor(x), gamma, beta, *taped, training=True)
        with ad.no_grad():
            out = batch_norm(Tensor(x), gamma, beta, *free, training=True)
        assert not out.requires_grad
        assert not np.array_equal(free[0], np.zeros(3))
        assert [a.tobytes() for a in free] == [a.tobytes() for a in taped]


class TestOpsAreFunctionsOnly:
    """An op has one spelling, the module function; numpy refuses to wrap a Tensor."""

    @pytest.mark.parametrize("expr", [
        lambda t, a: t * t,
        lambda t, a: t + t,
        lambda t, a: t @ t,
        lambda t, a: t[0],
        lambda t, a: a * t,
        lambda t, a: a + t,
        lambda t, a: a @ t,
        lambda t, a: t * a,
        lambda t, a: np.add(a, t),
    ], ids=["t*t", "t+t", "t@t", "t[0]", "a*t", "a+t", "a@t", "t*a", "np.add(a,t)"])
    def test_operators_and_ufuncs_raise_type_error(self, expr):
        t = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        with pytest.raises(TypeError):
            expr(t, np.ones((2, 2)))

    def test_no_operator_member_is_left(self):
        members = ("__add__", "__radd__", "__mul__", "__rmul__", "__matmul__", "__getitem__", "reshape", "sum")
        assert [m for m in members if hasattr(Tensor, m)] == []
        assert Tensor.__array_ufunc__ is None


class TestBackward:
    def test_sum_of_squares_grad(self):
        """d/dx sum(x*x) at [1,2,3] is [2,4,6]."""
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        ad.tsum(ad.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_matmul_sum_matches_finite_differences(self):
        """sum(A @ B) gradients agree with central differences within 1e-6."""
        rng = np.random.default_rng(15)
        a0 = rng.standard_normal((3, 4))
        b0 = rng.standard_normal((4, 2))
        assert finite_diff_check(lambda t: ad.tsum(matmul(t, Tensor(b0))), a0) < 1e-6

    def test_unreachable_parameter_keeps_zero_grad(self):
        """A parameter with no path to the loss receives no gradient."""
        used = Parameter("w.used", np.ones(3))
        unused = Parameter("w.unused", np.ones(3))
        ad.tsum(ad.mul(used, used)).backward()
        assert used.grad is not None
        assert unused.grad is None or not unused.grad.any()

    def test_interior_gradients_released_leaf_gradients_kept(self):
        """After backward only leaves hold gradients, with the bytes of the hand-written chain rule."""
        rng = np.random.default_rng(24)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w1, w2 = Parameter("w1", rng.standard_normal((4, 5))), Parameter("w2", rng.standard_normal((5, 2)))
        v = rng.standard_normal((3, 2))
        a = matmul(x, w1)
        h = relu(a)
        y = matmul(h, w2)
        z = ad.mul(y, Tensor(v))
        loss = ad.tsum(z)
        loss.backward()
        assert all(t.grad is None and t._rules == () for t in (a, h, y, z, loss))
        g_y = np.ones(()) * v
        g_a = np.matmul(g_y, w2.data.T) * (a.data > 0.0)
        for leaf, want in ((x, np.matmul(g_a, w1.data.T)), (w1, np.matmul(x.data.T, g_a)),
                           (w2, np.matmul(h.data.T, g_y))):
            assert leaf.grad.tobytes() == (np.zeros(leaf.shape) + want).tobytes()

    def test_backward_frees_nodes_as_it_goes(self):
        """A node nobody holds is gone before the rules of the node below it run."""
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        a = ad.mul(x, 2.0)
        seen = []

        def rule(g):
            seen.append(b_ref() is None)
            return g

        probe = ad._make(a.data.copy(), (a, rule))
        b = relu(probe)
        b_ref = weakref.ref(b)
        loss = ad.tsum(b)
        del b  # only the tape holds b now
        loss.backward()
        assert seen == [True]
        assert x.grad.tolist() == [2.0, 0.0, 2.0]
        assert a.data.tolist() == [2.0, -4.0, 6.0] and probe.data.tolist() == [2.0, -4.0, 6.0]
        assert a.grad is None and probe.grad is None

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError, match="scalar"):
            ad.mul(Tensor(np.zeros(3), requires_grad=True), 2.0).backward()
        with pytest.raises(ContractError, match="scalar"):
            ad.mul(Tensor(np.zeros((2, 2)), requires_grad=True), 2.0).backward()

    def test_item_of_non_scalar_names_the_shape(self):
        assert Tensor(np.full((1, 1), 2.5)).item() == 2.5
        with pytest.raises(ContractError, match=r"\(2, 3\)"):
            Tensor(np.zeros((2, 3))).item()

    def test_grads_accumulate_until_zeroed(self):
        """Two backward passes double the gradient; zeroing resets it."""
        x = Tensor([1.0, 2.0], requires_grad=True)
        ad.tsum(ad.mul(x, x)).backward()
        ad.tsum(ad.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [4.0, 8.0])
        zero_grads([x])
        ad.tsum(ad.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_shared_subexpression_accumulates(self):
        """A tensor feeding two branches sums both contributions."""
        x = Tensor([2.0], requires_grad=True)
        y = ad.mul(x, 3.0)
        ad.tsum(ad.add(ad.mul(y, y), y)).backward()
        # d/dx (9x^2 + 3x) = 18x + 3
        np.testing.assert_allclose(x.grad, [39.0])

    def test_detach_blocks_gradient(self):
        """A detached branch contributes value but no gradient."""
        x = Tensor([3.0], requires_grad=True)
        ad.tsum(ad.mul(x.detach(), x)).backward()
        np.testing.assert_allclose(x.grad, [3.0])

    def test_broadcast_add_unbroadcasts(self):
        """Broadcast operands receive summed gradients of their own shape."""
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        ad.tsum(ad.add(a, b)).backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_transpose_reshape_grads(self):
        """Transpose and reshape invert themselves on the backward pass."""
        rng = np.random.default_rng(16)
        x0 = rng.standard_normal((2, 3, 4))
        v = rng.standard_normal((4, 6))

        def run(t):
            return weighted_sum(ad.reshape(transpose(t, (2, 0, 1)), (4, 6)), Tensor(v))

        assert finite_diff_check(run, x0) < 1e-6


def _bn(training):
    return lambda x, g, b: batch_norm(x, g, b, np.zeros(x.shape[-1]), np.ones(x.shape[-1]), training=training)


class TestTapePolicy:
    """The tape alone skips plain inputs and sums each gradient to its input's shape."""

    @pytest.mark.parametrize("op, shapes", [
        (ad.add, [(4, 3), (3,)]),
        (ad.sub, [(1, 3), (4, 3)]),
        (ad.mul, [(4, 1), (1, 3)]),
        (ad.div, [(4, 3), (4, 1)]),
        (matmul, [(2, 4, 3), (3, 5)]),
        (lambda x, k, b: ad.add(conv2d(x, k, zero_pad=1), b), [(2, 4, 3, 3), (3, 3, 3, 2), (2,)]),
        (_bn(True), [(2, 3, 2, 4), (4,), (4,)]),
        (_bn(False), [(5, 4), (4,), (4,)]),
    ], ids=["add", "sub", "mul", "div", "matmul", "conv2d_bias", "batch_norm_train", "batch_norm_eval"])
    def test_only_grad_inputs_receive_a_gradient_of_their_own_shape(self, op, shapes):
        rng = np.random.default_rng(23)
        values = [rng.uniform(0.5, 2.0, s) for s in shapes]  # positive: div has no zero denominator
        w = rng.standard_normal(op(*map(Tensor, values)).shape)

        def grads(needs):
            inputs = [Tensor(v.copy(), requires_grad=r) for v, r in zip(values, needs)]
            weighted_sum(op(*inputs), Tensor(w)).backward()
            return [t.grad for t in inputs]

        full = grads([True] * len(shapes))
        for i in range(len(shapes)):
            needs = [j == i for j in range(len(shapes))]
            got = grads(needs)
            assert got[i].shape == shapes[i] and got[i].tobytes() == full[i].tobytes()
            assert all(g is None for j, g in enumerate(got) if j != i)
        plain = [Tensor(v) for v in values]
        assert op(*plain)._rules == () and not op(*plain).requires_grad


class TestFiniteDiffCheck:
    def test_square_at_three(self):
        """f(x)=x^2 at x=3 agrees with the analytic slope 6 within 1e-8."""
        err = finite_diff_check(lambda t: ad.tsum(ad.mul(t, t)), np.array([3.0]))
        assert err < 1e-8

    def test_softmax_dot(self):
        """softmax-then-dot error stays below 1e-6."""
        rng = np.random.default_rng(17)
        v = rng.standard_normal(5)
        err = finite_diff_check(lambda t: weighted_sum(softmax(t), Tensor(v)), rng.standard_normal(5))
        assert err < 1e-6

    def test_conv_sum(self):
        """conv2d-then-sum error stays below 1e-6."""
        rng = np.random.default_rng(18)
        k = rng.standard_normal((3, 3, 2, 2))
        err = finite_diff_check(
            lambda t: ad.tsum(conv2d(t, Tensor(k), zero_pad=1)), rng.standard_normal((1, 4, 4, 2))
        )
        assert err < 1e-6

    def test_parameter_is_probed_in_place_and_restored(self):
        """A closure over a Parameter is checked; its bytes come back and no grad is left."""
        rng = np.random.default_rng(19)
        w = Parameter("w", rng.standard_normal((2, 3)))
        before = w.data.tobytes()
        x = Tensor(rng.standard_normal((4, 2)))
        v = Tensor(rng.standard_normal((4, 3)))
        w.grad = np.ones((2, 3))
        err = finite_diff_check(lambda _: weighted_sum(softmax(matmul(x, w)), v), w)
        assert err < 1e-6
        assert w.data.tobytes() == before
        assert w.grad is None

    def test_non_scalar_f_rejected(self):
        with pytest.raises(ContractError, match=r"scalar.*\(3,\)"):
            finite_diff_check(lambda t: ad.mul(t, t), np.ones(3))


class TestDeterminism:
    def test_forward_is_bit_identical(self):
        """The same seeded inputs produce byte-identical conv outputs."""
        def run():
            rng = np.random.default_rng(123)
            x = rng.standard_normal((2, 6, 5, 3))
            k = rng.standard_normal((3, 3, 3, 4))
            return conv2d(Tensor(x), Tensor(k), stride=2, zero_pad=1).data

        assert run().tobytes() == run().tobytes()

    def test_backward_is_bit_identical(self):
        """The same seeded graph produces byte-identical gradients."""
        def run():
            rng = np.random.default_rng(321)
            x = Tensor(rng.standard_normal((2, 4, 4, 2)), requires_grad=True)
            k = Tensor(rng.standard_normal((3, 3, 2, 2)), requires_grad=True)
            out = conv2d(x, k, zero_pad=1)
            ad.tsum(softmax(ad.reshape(out, (2, 32)), axis=-1)).backward()
            return x.grad.tobytes() + k.grad.tobytes()

        assert run() == run()


class CountingPool(ThreadPoolExecutor):
    """A ThreadPoolExecutor that counts the tasks submitted to any instance."""

    submits = 0

    def submit(self, *args, **kwargs):
        CountingPool.submits += 1
        return super().submit(*args, **kwargs)


def large_product_loss():
    """sum(x * w) over 4096 elements: one node with two live rules that splits."""
    rng = np.random.default_rng(41)
    x = Tensor(rng.standard_normal(4096), requires_grad=True)
    w = Tensor(rng.standard_normal(4096), requires_grad=True)
    ad.tsum(ad.mul(x, w)).backward()
    return x.grad.tobytes() + w.grad.tobytes()


class TestParallelBackward:
    """On two or more cores backward runs a node's later rules on a worker thread."""

    @staticmethod
    def train_step_grads(mode):
        """Parameter-gradient bytes of one train-mode forward, ClusterNCE loss and backward."""
        from mlareid.backbone import EMBED_DIM, extract_features
        from mlareid.contrast import MemoryDictionary, cluster_nce_loss
        from mlareid.layers import parameters

        rng = np.random.default_rng(MODES.index(mode))
        params = small_backbone(mode, 5)
        centroids = rng.standard_normal((3, EMBED_DIM))
        memory = MemoryDictionary(centroids / np.linalg.norm(centroids, axis=1, keepdims=True))
        images = Tensor(rng.uniform(0.0, 1.0, (12, 16, 16, 3)))
        cluster_nce_loss(extract_features(images, params, training=True), np.arange(12) % 3, memory).backward()
        return b"".join(p.grad.tobytes() for p in parameters(params))

    @pytest.mark.parametrize("mode", MODES)
    def test_train_step_gradients_do_not_depend_on_the_core_count(self, monkeypatch, mode):
        monkeypatch.setattr(ad, "ThreadPoolExecutor", CountingPool)
        grads, submits = {}, {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            for cores in (1, 2, 8):
                pin_cores(monkeypatch, cores)
                CountingPool.submits = 0
                grads[cores] = within(120, self.train_step_grads, mode)
                submits[cores] = CountingPool.submits
        finally:
            sys.setswitchinterval(interval)
        assert submits[1] == 0 and submits[2] == submits[8] > 0, submits
        assert grads[2] == grads[1]
        assert grads[8] == grads[1]

    def test_a_three_element_node_splits_at_two_cores(self, monkeypatch):
        """No size floor: any node with two live rules hands the later one to the worker."""
        monkeypatch.setattr(ad, "ThreadPoolExecutor", CountingPool)
        pin_cores(monkeypatch, 2)
        CountingPool.submits = 0
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        w = Tensor([4.0, 5.0, 6.0], requires_grad=True)
        ad.tsum(ad.mul(x, w)).backward()
        assert CountingPool.submits == 1
        assert x.grad.tolist() == [4.0, 5.0, 6.0] and w.grad.tolist() == [1.0, 2.0, 3.0]

    def test_heatmap_grid_does_not_depend_on_the_core_count(self, monkeypatch):
        from mlareid.dataio import ImageRecord
        from mlareid.evalviz import grad_cam_heatmap

        params = small_backbone("all", 6)
        raw = np.random.default_rng(6).integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        record = ImageRecord(raw=raw, pid=0, camid=1, split="query", path="q.ppm")
        grids = []
        for cores in (1, 2):
            pin_cores(monkeypatch, cores)
            grids.append(within(60, grad_cam_heatmap, record, params).grid.tobytes())
        assert grids[0] == grids[1]

    def test_a_failing_worker_rule_raises_and_leaves_no_thread(self, monkeypatch):
        pin_cores(monkeypatch, 2)
        x = Tensor(np.ones(4096), requires_grad=True)
        w = Tensor(np.ones(4096), requires_grad=True)
        ran_on = []

        def failing_rule(g):
            ran_on.append(threading.get_ident())
            raise RuntimeError("worker rule failed")

        product = ad._make(x.data * w.data, (x, lambda g: g * w.data), (w, failing_rule))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="worker rule failed"):
            ad.tsum(product).backward()
        assert ran_on and ran_on[0] != threading.get_ident()
        assert threading.active_count() == before

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
    def test_backward_in_a_fork_child_after_one_in_the_parent(self, monkeypatch):
        """No worker thread outlives backward, so a forked child's backward cannot wait on a dead one."""
        pin_cores(monkeypatch, 2)
        want = large_product_loss()
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=lambda: results.put(large_product_loss()))
        child.start()
        try:
            got = results.get(timeout=60)
        except queue.Empty:
            pytest.fail("the forked child's backward did not return within 60 s")
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
        assert got == want
        assert child.exitcode == 0

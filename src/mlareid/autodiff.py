"""Dense float64 tensors with reverse-mode automatic differentiation.

Every downstream module (attention operators, backbone, contrastive loss)
is built from the ops here. Conventions:

* float64 throughout; image-like data is row-major NHWC,
* ops are module functions only (``mul(a, b)``, never ``a * b``); numpy
  refuses to wrap a ``Tensor``, so mixing one with an array raises ``TypeError``,
* each op states only its math: one gradient rule per input, mapping the
  output's gradient to that input's. The tape, built eagerly per forward
  pass and freed by ``Tensor.backward``, applies them: it skips inputs
  that need no gradient, sums each result to its input's shape and adds
  it into ``grad``. Inside ``no_grad()`` (per thread) no tape is built, so
  forward-only passes keep no intermediates alive and compute the same bits,
* identical inputs give bit-identical outputs, and ``Tensor.backward``
  the same gradient bytes at any core count, with BLAS pinned to one
  thread (it runs a node's input rule beside its parameter rules),
* normalization ops guard zero denominators with ``NORM_EPS``; batch norm
  can take the ReLU after it into its own node (same bits, a smaller tape).

Gradients accumulate into ``Tensor.grad`` across backward calls until
explicitly zeroed; a tensor outside the tape never receives one.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, DimensionError

NORM_EPS = 1e-12  # inside l1/l2 norms and batch-norm variance
FD_STEP = 1e-5  # finite_diff_check's central-difference step

# Maps an op's output gradient to one input's gradient, before it is summed to that input's shape.
Rule = Callable[[np.ndarray], np.ndarray]


class Tensor:
    """An n-dimensional float64 array with optional gradient tape participation."""

    __array_ufunc__ = None  # numpy raises TypeError rather than wrapping a Tensor in an object array

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._rules: tuple[tuple[Tensor, Rule], ...] = ()  # (input, gradient rule) per op input

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"expected a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """A view of the same data with no tape participation."""
        return Tensor(self.data)

    def backward(self) -> None:
        """Populate ``grad`` on every tensor reachable from this scalar.

        Each node's rules run in the order its op lists its inputs, and only
        for inputs that require a gradient; each result is summed to its
        input's shape and added into that input's ``grad`` in that order,
        also when a second core runs a node's later rules
        (``_run_rules``). Nodes are popped off the topological order and an
        interior node drops its rules and ``grad`` once they ran, so one that
        nothing else holds is freed with its activation (no reuse). Only
        leaves keep gradients, accumulated across calls unless zeroed; a node
        the caller holds keeps its ``data``.
        """
        if self.data.size != 1:
            raise ContractError(f"backward expects a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._rules:
                stack.append((parent, False))
        _accumulate(self, np.ones_like(self.data))
        # Joined before returning (its thread starts at the first submit), so none is alive at a fork.
        with ThreadPoolExecutor(1) if usable_cores() > 1 else nullcontext() as pool:
            while topo:
                node = topo.pop()
                _run_rules(node, pool)
                if node._rules:  # an interior node's gradient is spent once its rules ran
                    node._rules, node.grad = (), None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class Parameter(Tensor):
    """A named, trainable tensor; the name is its checkpoint path."""

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def on_every_core(work: Callable[[Sequence], list], items: Sequence) -> list:
    """``work``'s results for ``items``, in item order, computed on every usable core.

    Stream k of ``min(usable_cores(), len(items))`` runs ``work(items[k::streams])``, one result per
    item: stream 0 on the calling thread, the others on a pool of ``streams - 1`` threads, joined before
    the call returns (no thread is alive at a fork). An error raised in any stream reaches the caller.
    """
    streams = max(1, min(usable_cores(), len(items)))
    with ThreadPoolExecutor(max(streams - 1, 1)) as pool:
        others = pool.map(lambda k: work(items[k::streams]), range(1, streams))
        outs = [work(items[::streams]), *others]  # reads every pool result, re-raising its error
    return [outs[i % streams][i // streams] for i in range(len(items))]


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _run_rules(node: Tensor, pool: ThreadPoolExecutor | None) -> None:
    """Add each rule result of ``node``, summed to its input's shape, into that input's ``grad``.

    Only rules whose input requires a gradient run. Given a pool, a node with two or more
    of them runs the first (the input gradient of conv2d, batch_norm and matmul) on the
    calling thread and the others on the pool, and adds the results in listed order once all
    have returned; desk-train went from 132 to 167 img/s with it (BENCH_19.json). Each rule
    is a pure function of ``node.grad`` and its closure, so every ``grad`` receives the same
    additions in the same order as on one thread.
    """
    live = [(parent, rule) for parent, rule in node._rules if parent.requires_grad]

    def summed(parent: Tensor, rule: Rule) -> np.ndarray:
        return _unbroadcast(rule(node.grad), parent.shape)

    if pool is not None and len(live) > 1:
        rest = pool.submit(lambda: [summed(*pair) for pair in live[1:]])
        grads = [summed(*live[0]), *rest.result()]
    else:
        grads = (summed(*pair) for pair in live)  # lazily: each result is added before the next rule runs
    for (parent, _), grad in zip(live, grads):
        _accumulate(parent, grad)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


class _GradMode(threading.local):
    on = True  # per thread: no_grad() in one thread leaves the others' tape on


_grad_enabled = _GradMode()


@contextmanager
def no_grad() -> Iterator[None]:
    """Build no tape inside the block: outputs carry no parents or grad flag.

    Forward values are unchanged; state mutation such as batch-norm
    running statistics still happens. The calling thread's previous mode
    is restored on exit, also when the block raises or contexts nest.
    """
    previous, _grad_enabled.on = _grad_enabled.on, False
    try:
        yield
    finally:
        _grad_enabled.on = previous


def _make(data: np.ndarray, *rules: tuple[Tensor, Rule]) -> Tensor:
    """A tensor of ``data`` that keeps its ``(input, rule)`` pairs when the tape is on and needs them."""
    out = Tensor(data)
    if _grad_enabled.on and any(t.requires_grad for t, _ in rules):
        out.requires_grad = True
        out._rules = rules
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` back down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _broadcast_check(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a, b, "add")
    return _make(a.data + b.data, (a, lambda g: g), (b, lambda g: g))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a, b, "sub")
    return _make(a.data - b.data, (a, lambda g: g), (b, lambda g: -g))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a, b, "mul")
    return _make(a.data * b.data, (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _broadcast_check(a, b, "div")
    return _make(a.data / b.data, (a, lambda g: g / b.data),
                 (b, lambda g: -g * a.data / (b.data * b.data)))


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)
    return _make(data, (a, lambda g: g * data))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _make(np.log(a.data), (a, lambda g: g / a.data))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    data = np.sqrt(a.data)
    return _make(data, (a, lambda g: g * 0.5 / data))


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _make(np.maximum(a.data, 0.0), (a, lambda g: g * (a.data > 0.0)))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    e = np.exp(-np.abs(a.data))  # stable in both tails
    data = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _make(data, (a, lambda g: g * data * (1.0 - data)))


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

def _spread(g: np.ndarray, axis, keepdims: bool, shape: tuple[int, ...]) -> np.ndarray:
    """A reduction's output gradient broadcast back over the axes it reduced."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a, lambda g: _spread(g, axis, keepdims, a.shape)))


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else np.prod([a.shape[i] for i in np.atleast_1d(axis)])
    return _make(a.data.mean(axis=axis, keepdims=keepdims),
                 (a, lambda g: _spread(g / count, axis, keepdims, a.shape)))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    orig = a.shape
    return _make(a.data.reshape(shape), (a, lambda g: g.reshape(orig)))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _make(a.data.transpose(axes), (a, lambda g: g.transpose(inverse)))


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Batched matrix product; leading dims broadcast, inner dims must agree."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul: operands must have rank >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul: inner dimensions disagree, {a.shape[-1]} (axis {a.ndim - 1} of a) "
            f"vs {b.shape[-2]} (axis {b.ndim - 2} of b)"
        )
    return _make(np.matmul(a.data, b.data),
                 (a, lambda g: np.matmul(g, np.swapaxes(b.data, -1, -2))),
                 (b, lambda g: np.matmul(np.swapaxes(a.data, -1, -2), g)))


def conv2d(x, kernel, stride: int = 1, zero_pad: int = 0) -> Tensor:
    """2-D cross-correlation on NHWC input with an HWIO kernel.

    Output spatial extent is floor((dim + 2*pad - k)/stride) + 1. The
    forward pass and the kernel gradient are one GEMM each over the same
    im2col matrix, which zero-pads ``x.data`` itself (no copy unpadded) and
    is rebuilt in backward, so the tape keeps neither it nor a padded input;
    the input gradient scatters one matmul per kernel tap into a zero
    buffer of the padded shape. Analytic gradients match the naive loop
    oracle up to float reassociation. It adds no bias: ``add`` does.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 4:
        raise DimensionError(f"conv2d: input must be NHWC rank 4, got shape {x.shape}")
    if kernel.ndim != 4:
        raise DimensionError(f"conv2d: kernel must be [kh,kw,c_in,c_out] rank 4, got shape {kernel.shape}")
    n, h, w, c_in = x.shape
    kh, kw, kc_in, c_out = kernel.shape
    if kc_in != c_in:
        raise DimensionError(f"conv2d: channel axis 3 of input has {c_in} channels, kernel expects {kc_in}")
    if stride < 1:
        raise ContractError(f"conv2d: stride must be positive, got {stride}")
    if zero_pad < 0:
        raise ContractError(f"conv2d: zero_pad must be non-negative, got {zero_pad}")
    hp, wp = h + 2 * zero_pad, w + 2 * zero_pad
    if kh > hp or kw > wp:
        raise DimensionError(
            f"conv2d: kernel {kh}x{kw} exceeds padded input {hp}x{wp} (spatial axes 1,2)"
        )
    h_out = (hp - kh) // stride + 1
    w_out = (wp - kw) // stride + 1

    def im2col() -> np.ndarray:
        padded = x.data
        if zero_pad:
            padded = np.zeros((n, hp, wp, c_in))
            padded[:, zero_pad:zero_pad + h, zero_pad:zero_pad + w] = x.data
        # windows: [n, h_out, w_out, c_in, kh, kw]
        win = sliding_window_view(padded, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
        # [n*h_out*w_out, kh*kw*c_in], rows in output order, columns in kernel order
        return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * c_in)

    data = np.dot(im2col(), kernel.data.reshape(-1, c_out)).reshape(n, h_out, w_out, c_out)

    def input_rule(g):
        gpad = np.zeros((n, hp, wp, c_in))
        for a_off in range(kh):
            for b_off in range(kw):
                sl_h = slice(a_off, a_off + stride * h_out, stride)
                sl_w = slice(b_off, b_off + stride * w_out, stride)
                gpad[:, sl_h, sl_w, :] += np.matmul(g, kernel.data[a_off, b_off].T)
        if zero_pad:
            gpad = gpad[:, zero_pad:hp - zero_pad, zero_pad:wp - zero_pad, :]
        return gpad

    def kernel_rule(g):
        # im2col recomputed rather than kept on the tape, which would hold it for the whole step
        return np.dot(im2col().T, g.reshape(-1, c_out)).reshape(kernel.shape)

    return _make(data, (x, input_rule), (kernel, kernel_rule))


# ---------------------------------------------------------------------------
# normalizations
# ---------------------------------------------------------------------------

def softmax(x, axis: int = -1) -> Tensor:
    """Max-subtracted softmax; output sums to 1 along ``axis``."""
    x = as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax: axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)
    return _make(data, (x, lambda g: data * (g - (g * data).sum(axis=axis, keepdims=True))))


def _axis_tuple(axis, ndim: int) -> tuple[int, ...]:
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def l2_normalize(x, axis=-1) -> Tensor:
    """x / sqrt(sum(x^2) + eps) along ``axis`` (eps guards the zero vector)."""
    x = as_tensor(x)
    axes = _axis_tuple(axis, x.ndim)
    sq = (x.data * x.data).sum(axis=axes, keepdims=True) + NORM_EPS
    r = np.sqrt(sq)
    return _make(x.data / r,
                 (x, lambda g: g / r - x.data * (g * x.data).sum(axis=axes, keepdims=True) / (sq * r)))


def l1_normalize(x, axis=-1) -> Tensor:
    """x / (sum(|x|) + eps) along ``axis``."""
    x = as_tensor(x)
    axes = _axis_tuple(axis, x.ndim)
    d = np.abs(x.data).sum(axis=axes, keepdims=True) + NORM_EPS

    def rule(g):
        return g / d - np.sign(x.data) * (g * x.data).sum(axis=axes, keepdims=True) / (d * d)

    return _make(x.data / d, (x, rule))


BN_MOMENTUM = 0.1  # weight of each training batch's statistics in the running ones


def fold_running(stat: np.ndarray, increment: np.ndarray) -> None:
    """Fold one batch's ``BN_MOMENTUM``-weighted statistic into a running array, in place."""
    stat *= 1.0 - BN_MOMENTUM
    stat += increment


def batch_norm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray, training: bool,
               relu: bool = False) -> Tensor:
    """Per-channel batch norm over all leading axes (channels last), or ``relu`` of it.

    Training mode normalizes by biased batch statistics and folds them into
    ``running_mean`` and ``running_var`` in place, with weight
    ``BN_MOMENTUM``; eval mode reads those arrays. Each mode is one tape
    node that repeats, in the same order, the arithmetic of the elementwise
    ops it replaces (mean, sub, mul, sqrt, div, add), so values and
    gradients are bit-equal to that composed chain without its temporaries.
    The running update is state mutation outside the tape. Both modes
    normalize in place by ``m`` and ``inv`` and share the gamma and beta
    rules; only the input rule differs, as batch statistics depend on ``x``.
    The node keeps only ``m``, ``s`` and ``inv`` beside the input; the rules
    that read ``x.data - m`` recompute it.
    With ``relu`` it rectifies in place and each rule first masks ``g`` as ``relu(batch_norm(...))``
    does: the same bits, with no pre-ReLU output on the tape (In-Place ABN's trade).
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"batch_norm: gamma/beta shapes {gamma.shape}/{beta.shape} do not match channel axis ({c},)"
        )
    bshape = (1,) * (x.ndim - 1) + (c,)
    gam = gamma.data.reshape(bshape)
    axes = tuple(range(x.ndim - 1))
    m = x.data.mean(axis=axes, keepdims=True) if training else running_mean.reshape(bshape)
    data = x.data - m  # centered, normalized in place below
    if training:
        v = (data * data).mean(axis=axes, keepdims=True)
        for stat, batch in ((running_mean, m), (running_var, v)):
            fold_running(stat, BN_MOMENTUM * batch.reshape(c))
    else:
        v = running_var.reshape(bshape)
    s = np.sqrt(v + NORM_EPS)
    inv = 1.0 / s
    data *= inv
    data *= gam
    data += beta.data.reshape(bshape)

    def input_rule(g):
        gx = g * gam
        if not training:  # running statistics are constants
            gx *= inv
            return gx
        # The composed chain's backward, in tape order: through the scale
        # 1/sqrt(v + eps), through both factors of centered*centered, then
        # through the mean subtracted from x (negation and division are
        # sign-symmetric, so subtracting the sum is adding that of -gx).
        centered = x.data - m
        count = x.size // c
        g_inv = _unbroadcast(gx * centered, bshape)
        g_s = -g_inv / (s * s)
        g_v = g_s * 0.5 / s
        gx *= inv
        centered *= g_v / count
        gx += centered
        gx += centered
        gx -= _unbroadcast(gx, bshape) / count
        return gx

    rules = ((x, input_rule), (gamma, lambda g: g * ((x.data - m) * inv)), (beta, lambda g: g))
    if relu:
        np.maximum(data, 0.0, out=data)
        rules = tuple((t, lambda g, rule=rule: rule(g * (data > 0.0))) for t, rule in rules)
    return _make(data, *rules)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def finite_diff_check(f: Callable[[Tensor], Tensor], x) -> float:
    """Max relative disagreement between backward() and central differences at FD_STEP.

    ``f`` must be a pure Tensor -> scalar map. A ``Parameter`` is probed in
    place, so ``f`` may also ignore its argument and read the parameter from
    a closure; its data is restored and its grad cleared before and after.
    Per coordinate the error is |analytic - numeric| / max(1, |analytic|,
    |numeric|); the max over coordinates is returned.
    """
    probe = x if isinstance(x, Parameter) else Tensor(as_tensor(x).data.copy(), requires_grad=True)
    probe.grad = None
    f(probe).backward()  # raises ContractError unless f returns a scalar
    analytic = np.zeros_like(probe.data) if probe.grad is None else probe.grad
    probe.grad = None

    flat = probe.data.reshape(-1)  # a view: coordinates are perturbed in place
    numeric = np.zeros(flat.size)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + FD_STEP
        fp = f(probe).item()
        flat[i] = saved - FD_STEP
        fm = f(probe).item()
        flat[i] = saved
        numeric[i] = (fp - fm) / (2.0 * FD_STEP)
    numeric = numeric.reshape(analytic.shape)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    err = np.abs(analytic - numeric) / denom
    return float(err.max()) if err.size else 0.0


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None

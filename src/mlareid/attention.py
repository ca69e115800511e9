"""Pixel-, head- and domain-level attention and their residual composition.

The three operators all preserve the spatial shape of the feature map, so
any subset can be enabled inside the block (``STAGES`` gives each mode's).
The chain runs PLA -> HLA -> DLA: the pixel gate cleans features before
self-attention (so the queries meeting the position encoding are already
gated), and the domain memory post-processes as a dataset-level supplement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    add,
    conv2d,
    l1_normalize,
    matmul,
    mul,
    reshape,
    sigmoid,
    softmax,
    transpose,
)
from .errors import ConfigError, DimensionError
from .layers import BnParams, init_bn, init_shortcut, kaiming, residual

# Each mode's middle stages in chain order; a mode with none runs the plain 3x3 ``conv_mid`` instead.
STAGES = {"baseline": (), "pla": ("pla",), "hla": ("hla",), "pla+hla": ("pla", "hla"),
          "dla": ("dla",), "all": ("pla", "hla", "dla")}
MODES = tuple(STAGES)

# The gate and domain-memory weights start above the usual conv scale so the
# two stages shape features from the first clustering pass; at plain kaiming
# scale their early output is drowned by the residual path and the modes
# barely differ within a short desk-scale run.
_PLA_INIT_GAIN = 2.0
_DLA_INIT_GAIN = 2.0


@dataclass
class PlaParams:
    """Depth-preserving 3x3 gate conv; padding 1 keeps spatial dims."""

    kernel: Parameter  # [3,3,c,c]
    bias: Parameter  # [c]


@dataclass
class HlaParams:
    """Multi-head self-attention projections plus factorized position rows."""

    w_q: Parameter  # [1,1,c,c]
    w_k: Parameter  # [1,1,c,c]
    w_v: Parameter  # [1,1,c,c]
    r_h: Parameter  # [heads, h, d_head], one row per map row
    r_w: Parameter  # [heads, w, d_head], one row per map column


@dataclass
class DlaParams:
    """Query projection plus the bias-free key/value memory convs."""

    w_q: Parameter  # [1,1,c,c]
    k_d: Parameter  # [1,1,c,c_k]
    v_d: Parameter  # [1,1,c_k,c]


@dataclass
class MlaBlockParams:
    """A residual bottleneck whose middle stage is the attention chain."""

    reduce: Parameter  # [1,1,c_in,c_mid]
    expand: Parameter  # [1,1,c_mid,c_out]
    bn1: BnParams
    bn2: BnParams
    bn3: BnParams
    conv_mid: Parameter | None  # [3,3,c_mid,c_mid], only when the mode runs no stage
    pla: PlaParams | None
    hla: HlaParams | None
    dla: DlaParams | None
    shortcut: Parameter | None  # [1,1,c_in,c_out] when projection needed
    bn_sc: BnParams | None
    stride: int


def init_pla(rng: np.random.Generator, c: int, name: str) -> PlaParams:
    return PlaParams(
        kernel=Parameter(f"{name}.kernel", _PLA_INIT_GAIN * kaiming(rng, (3, 3, c, c))),
        bias=Parameter(f"{name}.bias", np.zeros(c)),
    )


def init_hla(rng: np.random.Generator, c: int, heads: int, h: int, w: int, name: str) -> HlaParams:
    """Projections and position rows for an ``h`` x ``w`` map of ``c`` channels."""
    if heads < 1 or c % heads != 0:
        raise ConfigError(f"hla: channels {c} must divide evenly into heads {heads}")
    d_head = c // heads
    return HlaParams(
        w_q=Parameter(f"{name}.w_q", kaiming(rng, (1, 1, c, c))),
        w_k=Parameter(f"{name}.w_k", kaiming(rng, (1, 1, c, c))),
        w_v=Parameter(f"{name}.w_v", kaiming(rng, (1, 1, c, c))),
        r_h=Parameter(f"{name}.r_h", rng.standard_normal((heads, h, d_head))),
        r_w=Parameter(f"{name}.r_w", rng.standard_normal((heads, w, d_head))),
    )


def init_dla(rng: np.random.Generator, c: int, c_k: int, name: str) -> DlaParams:
    if c_k < 1:
        raise ConfigError(f"dla: c_k must be positive, got {c_k}")
    k_d = _DLA_INIT_GAIN * kaiming(rng, (1, 1, c, c_k))
    # value memory starts as the exact transpose of the key memory
    v_d = k_d[0, 0].T.copy().reshape(1, 1, c_k, c)
    return DlaParams(
        w_q=Parameter(f"{name}.w_q", kaiming(rng, (1, 1, c, c))),
        k_d=Parameter(f"{name}.k_d", k_d),
        v_d=Parameter(f"{name}.v_d", v_d),
    )


def init_mla_block(
    rng: np.random.Generator,
    c_in: int,
    c_mid: int,
    c_out: int,
    mode: str,
    heads: int,
    c_k: int,
    h: int,
    w: int,
    name: str,
    stride: int = 1,
) -> MlaBlockParams:
    """Allocate exactly the sub-parameters the given mode computes with."""
    if mode not in MODES:
        raise ConfigError(f"unknown attention mode {mode!r}, expected one of {MODES}")
    stages = STAGES[mode]  # drawn in chain order
    conv_mid = None if stages else Parameter(f"{name}.conv_mid", kaiming(rng, (3, 3, c_mid, c_mid)))
    pla = init_pla(rng, c_mid, f"{name}.pla") if "pla" in stages else None
    hla = init_hla(rng, c_mid, heads, h, w, f"{name}.hla") if "hla" in stages else None
    dla = init_dla(rng, c_mid, c_k, f"{name}.dla") if "dla" in stages else None
    sc, bn_sc = init_shortcut(rng, c_in, c_out, stride, name)
    return MlaBlockParams(
        reduce=Parameter(f"{name}.reduce", kaiming(rng, (1, 1, c_in, c_mid))),
        expand=Parameter(f"{name}.expand", kaiming(rng, (1, 1, c_mid, c_out))),
        bn1=init_bn(c_mid, f"{name}.bn1"),
        bn2=init_bn(c_mid, f"{name}.bn2"),
        bn3=init_bn(c_out, f"{name}.bn3"),
        conv_mid=conv_mid,
        pla=pla,
        hla=hla,
        dla=dla,
        shortcut=sc,
        bn_sc=bn_sc,
        stride=stride,
    )


def pla_forward(x: Tensor, p: PlaParams) -> Tensor:
    """Gate each element by the sigmoid of a padded 3x3 conv of the map plus the bias."""
    return mul(x, sigmoid(add(conv2d(x, p.kernel, zero_pad=1), p.bias)))


def hla_forward(x: Tensor, p: HlaParams) -> Tensor:
    """Multi-head self-attention over all positions with learned position rows.

    Logits are the content term q.k plus the position term q.pos where
    pos(i,j) = r_h[i] + r_w[j]; softmax runs over the key axis.
    """
    n, h, w, c = x.shape
    heads = p.r_h.shape[0]
    if c % heads != 0:
        raise DimensionError(f"hla: channel axis 3 extent {c} not divisible by {heads} heads")
    d_head = c // heads
    if (h, w) != (p.r_h.shape[1], p.r_w.shape[1]):
        raise DimensionError(
            f"hla: feature map {h}x{w} does not match the {p.r_h.shape[1]}x{p.r_w.shape[1]} position rows"
        )
    hw = h * w

    def split_heads(t: Tensor) -> Tensor:
        return transpose(reshape(t, (n, hw, heads, d_head)), (0, 2, 1, 3))

    q = split_heads(conv2d(x, p.w_q))  # [n,heads,hw,d]
    k = split_heads(conv2d(x, p.w_k))
    v = split_heads(conv2d(x, p.w_v))

    pos = add(reshape(p.r_h, (heads, h, 1, d_head)), reshape(p.r_w, (heads, 1, w, d_head)))
    pos = reshape(pos, (heads, hw, d_head))

    content = matmul(q, transpose(k, (0, 1, 3, 2)))  # [n,heads,hw,hw]
    position = matmul(q, transpose(pos, (0, 2, 1)))  # broadcasts over batch
    att = softmax(add(content, position), axis=-1)
    out = matmul(att, v)  # [n,heads,hw,d]
    return reshape(transpose(out, (0, 2, 1, 3)), (n, h, w, c))


def dla_forward(x: Tensor, p: DlaParams) -> Tensor:
    """Residual domain attention against the learnable key/value memory.

    Per pixel the c_k slot scores softmax to an assignment; each slot's
    weights are then L1-normalized across all pixels (the extra step that
    suppresses outlier pixels) before the value memory maps back.
    """
    q = conv2d(x, p.w_q)
    scores = conv2d(q, p.k_d)  # [n,h,w,c_k]
    att = softmax(scores, axis=-1)  # over slots, per pixel
    att = l1_normalize(att, axis=(1, 2))  # over pixels, per slot
    return add(x, conv2d(att, p.v_d))


def mla_block_forward(x: Tensor, p: MlaBlockParams, training: bool) -> Tensor:
    """Reduce, run the middle stages ``p`` holds, expand and close the block with ``residual``."""
    m = p.bn1.apply(conv2d(x, p.reduce, stride=p.stride), training, relu=True)
    if p.conv_mid is not None:
        m = conv2d(m, p.conv_mid, zero_pad=1)
    if p.pla is not None:
        m = pla_forward(m, p.pla)
    if p.hla is not None:
        m = hla_forward(m, p.hla)
    if p.dla is not None:
        m = dla_forward(m, p.dla)
    m = p.bn2.apply(m, training, relu=True)
    return residual(p.bn3.apply(conv2d(m, p.expand), training), x, p, training)

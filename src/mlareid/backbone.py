"""A small residual encoder whose last block is the attention block.

Three stride-2 stages of two blocks each (16, 32 and 64 channels) shrink
the input by 8x in each spatial dimension; this trunk is fixed, as in the
paper. The final residual block of the last stage is swapped for the MLA block,
and an embedding head (global average pool, linear projection, L2 norm)
produces unit-norm feature vectors for clustering and retrieval. A network
is fixed by two facts, passed to ``build_backbone``: the image size it takes
(``BackboneParams.input_hw``) and the attention mode (``TrainConfig.attention_mode``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import MlaBlockParams, init_mla_block, mla_block_forward
from .autodiff import (
    Parameter,
    Tensor,
    add,
    conv2d,
    l2_normalize,
    matmul,
    tmean,
)
from .errors import ConfigError, DimensionError
from .layers import BnParams, init_bn, init_shortcut, kaiming, parameters, residual, state_entries

# The one trunk every run trains; only the attention block varies (the attention mode).
STAGE_CHANNELS = (16, 32, 64)
BLOCKS_PER_STAGE = (2, 2, 2)
EMBED_DIM = 64
HEADS = 4
C_MID = STAGE_CHANNELS[-1] // 2  # the attention block's inner width
C_K = C_MID // 2  # domain slots
STRIDE = 2 ** len(STAGE_CHANNELS)  # each stage halves both extents


@dataclass
class BasicBlockParams:
    """Plain two-conv residual block, stride on the first conv.

    Field order is the checkpoint layout: both convs precede their norms.
    """

    conv1: Parameter
    conv2: Parameter
    bn1: BnParams
    bn2: BnParams
    shortcut: Parameter | None
    bn_sc: BnParams | None
    stride: int


@dataclass
class BackboneParams:
    input_hw: tuple[int, int]  # the (height, width) of every image the network takes
    stem: Parameter
    stem_bn: BnParams
    blocks: list[BasicBlockParams] = field(default_factory=list)
    mla: MlaBlockParams | None = None
    embed_w: Parameter | None = None
    embed_b: Parameter | None = None


def _init_basic_block(
    rng: np.random.Generator, c_in: int, c_out: int, stride: int, name: str
) -> BasicBlockParams:
    sc, bn_sc = init_shortcut(rng, c_in, c_out, stride, name)
    return BasicBlockParams(
        conv1=Parameter(f"{name}.conv1", kaiming(rng, (3, 3, c_in, c_out))),
        bn1=init_bn(c_out, f"{name}.bn1"),
        conv2=Parameter(f"{name}.conv2", kaiming(rng, (3, 3, c_out, c_out))),
        bn2=init_bn(c_out, f"{name}.bn2"),
        shortcut=sc,
        bn_sc=bn_sc,
        stride=stride,
    )


def build_backbone(input_hw: tuple[int, int], mode: str, seed: int) -> BackboneParams:
    """Deterministically initialize the network for ``input_hw`` images in attention ``mode`` from one seed.

    The trunk, the attention block and the embedding head draw from
    separate child streams, so changing the mode leaves every other
    parameter bit-identical.
    """
    if len(input_hw) != 2:
        raise ConfigError(f"input_hw must be two extents (height, width), got {input_hw}")
    h, w = input_hw
    if h % STRIDE or w % STRIDE:
        raise ConfigError(f"input {h}x{w} is not divisible by the total stride {STRIDE}")
    fh, fw = h // STRIDE, w // STRIDE
    if fh < 2 or fw < 2:
        raise ConfigError(f"final feature map {fh}x{fw} is below 2x2; attention needs multiple positions")
    trunk_ss, mla_ss, embed_ss = np.random.SeedSequence(seed).spawn(3)
    trunk_rng = np.random.default_rng(trunk_ss)

    params = BackboneParams(
        input_hw=(h, w),
        stem=Parameter("backbone.stem", kaiming(trunk_rng, (3, 3, 3, STAGE_CHANNELS[0]))),
        stem_bn=init_bn(STAGE_CHANNELS[0], "backbone.stem_bn"),
    )
    c_prev = STAGE_CHANNELS[0]
    for s, (c_out, n_blocks) in enumerate(zip(STAGE_CHANNELS, BLOCKS_PER_STAGE)):
        for b in range(n_blocks):
            stride = 2 if b == 0 else 1
            is_last = s == len(STAGE_CHANNELS) - 1 and b == n_blocks - 1
            if is_last:
                params.mla = init_mla_block(
                    np.random.default_rng(mla_ss), c_prev, C_MID, c_out, mode, HEADS, C_K, fh, fw,
                    "mla", stride=stride,
                )
            else:
                params.blocks.append(
                    _init_basic_block(trunk_rng, c_prev, c_out, stride, f"backbone.s{s}b{b}")
                )
            c_prev = c_out

    embed_rng = np.random.default_rng(embed_ss)
    params.embed_w = Parameter(
        "backbone.embed.weight", kaiming(embed_rng, (STAGE_CHANNELS[-1], EMBED_DIM))
    )
    params.embed_b = Parameter("backbone.embed.bias", np.zeros(EMBED_DIM))
    return params


def _basic_forward(x: Tensor, p: BasicBlockParams, training: bool) -> Tensor:
    y = p.bn1.apply(conv2d(x, p.conv1, stride=p.stride, zero_pad=1), training, relu=True)
    return residual(p.bn2.apply(conv2d(y, p.conv2, zero_pad=1), training), x, p, training)


def forward_to_featuremap(images: Tensor, params: BackboneParams, training: bool) -> Tensor:
    """Run the trunk and the attention block, returning the pre-pool map."""
    h, w = params.input_hw
    if images.ndim != 4 or images.shape[1:] != (h, w, 3):
        raise DimensionError(f"backbone expects input [n,{h},{w},3], got {images.shape}")
    x = params.stem_bn.apply(conv2d(images, params.stem, zero_pad=1), training, relu=True)
    for block in params.blocks:
        x = _basic_forward(x, block, training)
    return mla_block_forward(x, params.mla, training)


def embed_from_featuremap(fmap: Tensor, params: BackboneParams) -> Tensor:
    """Pool, project and L2-normalize a feature map into embedding rows."""
    pooled = tmean(fmap, axis=(1, 2))
    projected = add(matmul(pooled, params.embed_w), params.embed_b)
    return l2_normalize(projected, axis=-1)


def extract_features(images: Tensor, params: BackboneParams, training: bool) -> Tensor:
    """Unit-norm embedding rows for a batch of images."""
    return embed_from_featuremap(forward_to_featuremap(images, params, training), params)


def named_entries(params: BackboneParams) -> dict[str, np.ndarray]:
    """All learnable tensors plus batch-norm running stats, keyed by name."""
    out = {p.name: p.data for p in parameters(params)}
    out.update(state_entries(params))
    return out

"""A small residual encoder whose last block is the attention block.

Three stride-2 stages shrink the input by 8x in each spatial dimension;
the final residual block of the last stage is swapped for the MLA block,
and an embedding head (global average pool, linear projection, L2 norm)
produces unit-norm feature vectors for clustering and retrieval.
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
    relu,
    tmean,
)
from .errors import ConfigError, DimensionError
from .layers import BnParams, init_bn, init_shortcut, kaiming, parameters, shortcut, state_entries


@dataclass
class BackboneConfig:
    input_hw: tuple[int, int] = (64, 32)
    stage_channels: tuple[int, ...] = (16, 32, 64)
    blocks_per_stage: tuple[int, ...] = (2, 2, 2)
    embed_dim: int = 64
    attention_mode: str = "all"
    heads: int = 4

    @property
    def final_hw(self) -> tuple[int, int]:
        h, w = self.input_hw
        scale = 2 ** len(self.stage_channels)
        return h // scale, w // scale

    @property
    def c_mid(self) -> int:
        return self.stage_channels[-1] // 2

    @property
    def c_k(self) -> int:
        return self.c_mid // 2

    def validate(self) -> None:
        if len(self.stage_channels) != len(self.blocks_per_stage):
            raise ConfigError(
                f"stage_channels ({len(self.stage_channels)}) and blocks_per_stage "
                f"({len(self.blocks_per_stage)}) lengths differ"
            )
        if not self.stage_channels:
            raise ConfigError("at least one stage is required")
        if len(self.input_hw) != 2:
            raise ConfigError(f"input_hw must be two extents (height, width), got {self.input_hw}")
        for name in ("stage_channels", "blocks_per_stage", "embed_dim", "heads"):
            if np.min(getattr(self, name)) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        h, w = self.input_hw
        scale = 2 ** len(self.stage_channels)
        if h % scale or w % scale:
            raise ConfigError(f"input {h}x{w} is not divisible by the total stride {scale}")
        fh, fw = self.final_hw
        if fh < 2 or fw < 2:
            raise ConfigError(
                f"final feature map {fh}x{fw} is below 2x2; attention needs multiple positions"
            )
        if self.c_mid < 1 or self.c_k < 1:
            raise ConfigError(f"last stage width {self.stage_channels[-1]} is too narrow")


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
    cfg: BackboneConfig
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


def build_backbone(cfg: BackboneConfig, seed: int) -> BackboneParams:
    """Deterministically initialize all parameters from one seed.

    The trunk, the attention block and the embedding head draw from
    separate child streams, so changing attention_mode leaves every other
    parameter bit-identical.
    """
    cfg.validate()
    trunk_ss, mla_ss, embed_ss = np.random.SeedSequence(seed).spawn(3)
    trunk_rng = np.random.default_rng(trunk_ss)

    params = BackboneParams(
        cfg=cfg,
        stem=Parameter("backbone.stem", kaiming(trunk_rng, (3, 3, 3, cfg.stage_channels[0]))),
        stem_bn=init_bn(cfg.stage_channels[0], "backbone.stem_bn"),
    )
    c_prev = cfg.stage_channels[0]
    for s, (c_out, n_blocks) in enumerate(zip(cfg.stage_channels, cfg.blocks_per_stage)):
        for b in range(n_blocks):
            stride = 2 if b == 0 else 1
            is_last = s == len(cfg.stage_channels) - 1 and b == n_blocks - 1
            if is_last:
                fh, fw = cfg.final_hw
                params.mla = init_mla_block(
                    np.random.default_rng(mla_ss),
                    c_prev,
                    cfg.c_mid,
                    c_out,
                    cfg.attention_mode,
                    cfg.heads,
                    cfg.c_k,
                    fh,
                    fw,
                    "mla",
                    stride=stride,
                )
            else:
                params.blocks.append(
                    _init_basic_block(trunk_rng, c_prev, c_out, stride, f"backbone.s{s}b{b}")
                )
            c_prev = c_out

    embed_rng = np.random.default_rng(embed_ss)
    params.embed_w = Parameter(
        "backbone.embed.weight", kaiming(embed_rng, (cfg.stage_channels[-1], cfg.embed_dim))
    )
    params.embed_b = Parameter("backbone.embed.bias", np.zeros(cfg.embed_dim))
    return params


def _basic_forward(x: Tensor, p: BasicBlockParams, training: bool) -> Tensor:
    y = p.bn1.apply(conv2d(x, p.conv1, stride=p.stride, zero_pad=1), training, relu=True)
    y = p.bn2.apply(conv2d(y, p.conv2, zero_pad=1), training)
    return relu(add(y, shortcut(x, p.shortcut, p.bn_sc, p.stride, training)))


def forward_to_featuremap(images: Tensor, params: BackboneParams, training: bool) -> Tensor:
    """Run the trunk and the attention block, returning the pre-pool map."""
    cfg = params.cfg
    if images.ndim != 4 or images.shape[1:] != (*cfg.input_hw, 3):
        raise DimensionError(
            f"backbone expects input [n,{cfg.input_hw[0]},{cfg.input_hw[1]},3], got {images.shape}"
        )
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

"""Shared building blocks: weight initialization, batch norm, the residual
join that closes every block and the one walk over a parameter tree.

A parameter tree is a dataclass whose fields hold ``Parameter``s,
``BnParams``, nested parameter dataclasses, lists of them, ``None`` or
plain settings. Field declaration order is the checkpoint layout and the
optimizer order, so reordering fields changes both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Iterator

import numpy as np

from .autodiff import Parameter, Tensor, add, batch_norm, conv2d, relu


def kaiming(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Fan-in scaled normal init; the output axis is last (HWIO kernels, [in, out] weights)."""
    return rng.standard_normal(shape) * np.sqrt(2.0 / math.prod(shape[:-1]))


@dataclass
class BnParams:
    """Learnable affine plus running statistics for one batch-norm site.

    Training-mode ``apply`` updates the running arrays in place, so the
    checkpoint entries ``state_entries`` names are the arrays training moves.
    """

    gamma: Parameter
    beta: Parameter
    running_mean: np.ndarray
    running_var: np.ndarray

    def apply(self, x: Tensor, training: bool, relu: bool = False) -> Tensor:
        """Batch norm of ``x``, or with ``relu`` its rectification as the same single tape node."""
        return batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var, training, relu)


def init_bn(channels: int, name: str) -> BnParams:
    return BnParams(
        gamma=Parameter(f"{name}.gamma", np.ones(channels)),
        beta=Parameter(f"{name}.beta", np.zeros(channels)),
        running_mean=np.zeros(channels, dtype=np.float64),
        running_var=np.ones(channels, dtype=np.float64),
    )


def init_shortcut(
    rng: np.random.Generator, c_in: int, c_out: int, stride: int, name: str
) -> tuple[Parameter | None, BnParams | None]:
    """A residual block's 1x1 projection and its norm, or ``(None, None)`` when the shape is kept."""
    if stride == 1 and c_in == c_out:
        return None, None
    return Parameter(f"{name}.shortcut", kaiming(rng, (1, 1, c_in, c_out))), init_bn(c_out, f"{name}.bn_sc")


def residual(z: Tensor, x: Tensor, block, training: bool) -> Tensor:
    """Close a residual ``block``: ``relu(z + sc)``, where ``sc`` is the block input ``x`` itself or,
    where the block holds a ``shortcut`` kernel, the ``bn_sc`` norm of its strided projection."""
    sc = x
    if block.shortcut is not None:
        sc = block.bn_sc.apply(conv2d(x, block.shortcut, stride=block.stride), training)
    return relu(add(z, sc))


def _walk(node) -> Iterator[Parameter | BnParams]:
    """Every Parameter and BnParams under ``node``, depth first in field order."""
    if isinstance(node, (Parameter, BnParams)):
        yield node
    if isinstance(node, list):
        for item in node:
            yield from _walk(item)
    elif is_dataclass(node):
        for f in fields(node):
            yield from _walk(getattr(node, f.name))


def parameters(tree) -> list[Parameter]:
    """All trainable tensors of a parameter tree, in field order."""
    return [leaf for leaf in _walk(tree) if isinstance(leaf, Parameter)]


def state_entries(tree) -> dict[str, np.ndarray]:
    """Batch-norm running statistics of a parameter tree, keyed by checkpoint name."""
    out: dict[str, np.ndarray] = {}
    for leaf in _walk(tree):
        if isinstance(leaf, BnParams):
            prefix = leaf.gamma.name.rsplit(".", 1)[0]
            out[f"{prefix}.running_mean"] = leaf.running_mean
            out[f"{prefix}.running_var"] = leaf.running_var
    return out

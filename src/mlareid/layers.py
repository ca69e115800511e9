"""Shared building blocks: weight initialization, batch-norm containers and
the one walk over a parameter tree.

A parameter tree is a dataclass whose fields hold ``Parameter``s,
``BnParams``, nested parameter dataclasses, lists of them, ``None`` or
plain settings. Field declaration order is the checkpoint layout and the
optimizer order, so reordering fields changes both.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Iterator

import numpy as np

from .autodiff import BatchNormState, Parameter, Tensor, batch_norm


def kaiming_conv(rng: np.random.Generator, shape: tuple[int, int, int, int]) -> np.ndarray:
    """Fan-in scaled normal init for an HWIO conv kernel."""
    kh, kw, c_in, _ = shape
    std = np.sqrt(2.0 / (kh * kw * c_in))
    return rng.standard_normal(shape) * std


def kaiming_linear(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Fan-in scaled normal init for a [in, out] linear weight."""
    std = np.sqrt(2.0 / shape[0])
    return rng.standard_normal(shape) * std


@dataclass
class BnParams:
    """Learnable affine plus running statistics for one batch-norm site."""

    gamma: Parameter
    beta: Parameter
    state: BatchNormState

    def apply(self, x: Tensor, training: bool) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.state, training)


def init_bn(channels: int, name: str) -> BnParams:
    return BnParams(
        gamma=Parameter(f"{name}.gamma", np.ones(channels)),
        beta=Parameter(f"{name}.beta", np.zeros(channels)),
        state=BatchNormState(channels),
    )


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
            out[f"{prefix}.running_mean"] = leaf.state.running_mean
            out[f"{prefix}.running_var"] = leaf.state.running_var
    return out

"""Named finite-difference gradient checks over every differentiable layer.

Each check builds a small random instance, wraps one argument as the probe
parameter, and compares the analytic gradient against central differences.
The same suite backs the ``grad-check`` CLI subcommand and the automated
acceptance test, so the list of names is part of the public surface; both
hold every check to the one gate ``GRAD_TOLERANCE``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from . import autodiff
from .attention import (
    MlaBlockParams,
    dla_forward,
    hla_forward,
    init_dla,
    init_hla,
    init_mla_block,
    init_pla,
    mla_block_forward,
    pla_forward,
)
from .autodiff import Parameter, Tensor, finite_diff_check
from .contrast import MemoryDictionary, cluster_nce_loss
from .errors import ContractError

GRAD_TOLERANCE = 1e-4  # the gate on every check's worst error; fixed, never loosened


def _op_check(shape, make_op: Callable[[np.random.Generator], Callable[[Tensor], Tensor]]):
    """The check of ``tsum(mul(op(t), w))`` for a probe ``t`` of ``shape`` and a random ``w``.

    ``make_op(rng)`` draws the op's own parameters, before the probe and ``w``.
    """

    def check(rng: np.random.Generator) -> float:
        op = make_op(rng)
        x = Parameter("probe", rng.standard_normal(shape) * 0.5)
        with autodiff.no_grad():
            w = Tensor(rng.standard_normal(op(x).shape))
        return finite_diff_check(lambda t: autodiff.tsum(autodiff.mul(op(t), w)), x)

    return check


def _conv2d(rng: np.random.Generator):
    k = Parameter("k", rng.standard_normal((3, 3, 3, 4)) * 0.3)
    b = Parameter("b", rng.standard_normal(4) * 0.1)
    return lambda t: autodiff.add(autodiff.conv2d(t, k), b)


def _matmul(rng: np.random.Generator):
    m = Tensor(rng.standard_normal((3, 5)))
    return lambda t: autodiff.matmul(t, m)


def _batch_norm(rng: np.random.Generator):
    gamma = Parameter("g", 1.0 + 0.1 * rng.standard_normal(5))
    beta = Parameter("be", 0.1 * rng.standard_normal(5))
    return lambda t: autodiff.batch_norm(t, gamma, beta, np.zeros(5), np.ones(5), training=True)


def _make_block(rng: np.random.Generator) -> MlaBlockParams:
    return init_mla_block(
        rng,
        c_in=4,
        c_mid=4,
        c_out=8,
        mode="all",
        heads=2,
        c_k=2,
        h=3,
        w=3,
        name="blk",
        stride=1,
    )


def _check_mla_block_params(rng: np.random.Generator) -> float:
    """Probe one weight from each attention stage plus the reduce conv."""
    p = _make_block(rng)
    x = Tensor(rng.standard_normal((2, 3, 3, 4)) * 0.5)
    w = rng.standard_normal((2, 3, 3, 8))

    def loss(_: Tensor) -> Tensor:
        return autodiff.tsum(autodiff.mul(mla_block_forward(x, p, training=True), Tensor(w)))

    probes = (p.pla.kernel, p.hla.w_q, p.hla.r_h, p.dla.k_d, p.reduce)
    return float(np.max([finite_diff_check(loss, probe) for probe in probes]))  # keeps a NaN


def _check_cluster_nce(rng: np.random.Generator) -> float:
    feats = rng.standard_normal((5, 6))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    cents = rng.standard_normal((3, 6))
    cents /= np.linalg.norm(cents, axis=1, keepdims=True)
    mem = MemoryDictionary(centroids=cents)
    targets = rng.integers(0, 3, size=5)
    x = Parameter("probe", feats)
    return finite_diff_check(lambda t: cluster_nce_loss(t, targets, mem), x)


_CHECKS = {
    "conv2d": _op_check((2, 5, 4, 3), _conv2d),
    "matmul": _op_check((4, 3), _matmul),
    "softmax": _op_check((3, 6), lambda rng: lambda t: autodiff.softmax(t, axis=-1)),
    "sigmoid": _op_check((4, 4), lambda rng: autodiff.sigmoid),
    "l2_normalize": _op_check((3, 8), lambda rng: lambda t: autodiff.l2_normalize(t, axis=1)),
    "batch_norm": _op_check((3, 4, 2, 5), _batch_norm),
    "pla": _op_check((2, 4, 3, 3), lambda rng: partial(pla_forward, p=init_pla(rng, 3, "pla"))),
    "hla": _op_check((2, 4, 3, 4), lambda rng: partial(
        hla_forward, p=init_hla(rng, 4, heads=2, h=4, w=3, name="hla"))),
    "dla": _op_check((2, 3, 3, 4), lambda rng: partial(dla_forward, p=init_dla(rng, 4, c_k=3, name="dla"))),
    "mla_block": _op_check((2, 3, 3, 4), lambda rng: partial(
        mla_block_forward, p=_make_block(rng), training=True)),
    "mla_block_params": _check_mla_block_params,
    "cluster_nce_loss": _check_cluster_nce,
}


def run_gradient_suite(seeds=(0, 1, 2, 3, 4)) -> dict[str, float]:
    """Every named check's worst element error over ``seeds`` (NaN if any seed gave NaN).

    No seeds would pass unchecked, so they are refused.
    """
    if not seeds:
        raise ContractError("the gradient suite needs at least one seed")
    return {name: float(np.max([fn(np.random.default_rng(seed)) for seed in seeds]))
            for name, fn in _CHECKS.items()}

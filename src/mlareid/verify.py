"""Named finite-difference gradient checks over every differentiable layer.

Each check builds a small random instance, wraps one argument as the probe
parameter, and compares the analytic gradient against central differences.
The same suite backs the ``grad-check`` CLI subcommand and the automated
acceptance test, so the list of names is part of the public surface.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class GradCheckResult:
    name: str
    seed: int
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance


def _probe(rng: np.random.Generator, shape) -> Parameter:
    return Parameter("probe", rng.standard_normal(shape) * 0.5)


def _check_conv2d(rng: np.random.Generator) -> float:
    x = _probe(rng, (2, 5, 4, 3))
    k = Parameter("k", rng.standard_normal((3, 3, 3, 4)) * 0.3)
    b = Parameter("b", rng.standard_normal(4) * 0.1)
    w = rng.standard_normal((2, 3, 2, 4))

    def loss(t: Tensor) -> Tensor:
        return (autodiff.conv2d(t, k, bias=b, stride=1, zero_pad=0) * Tensor(w)).sum()

    return finite_diff_check(loss, x)


def _check_matmul(rng: np.random.Generator) -> float:
    x = _probe(rng, (4, 3))
    m = Tensor(rng.standard_normal((3, 5)))
    w = rng.standard_normal((4, 5))
    return finite_diff_check(lambda t: ((t @ m) * Tensor(w)).sum(), x)


def _check_softmax(rng: np.random.Generator) -> float:
    x = _probe(rng, (3, 6))
    w = rng.standard_normal((3, 6))
    return finite_diff_check(
        lambda t: (autodiff.softmax(t, axis=-1) * Tensor(w)).sum(), x
    )


def _check_sigmoid(rng: np.random.Generator) -> float:
    x = _probe(rng, (4, 4))
    w = rng.standard_normal((4, 4))
    return finite_diff_check(lambda t: (autodiff.sigmoid(t) * Tensor(w)).sum(), x)


def _check_l2_normalize(rng: np.random.Generator) -> float:
    x = _probe(rng, (3, 8))
    w = rng.standard_normal((3, 8))
    return finite_diff_check(
        lambda t: (autodiff.l2_normalize(t, axis=1) * Tensor(w)).sum(), x
    )


def _check_batch_norm(rng: np.random.Generator) -> float:
    x = _probe(rng, (3, 4, 2, 5))
    gamma = Parameter("g", 1.0 + 0.1 * rng.standard_normal(5))
    beta = Parameter("be", 0.1 * rng.standard_normal(5))
    w = rng.standard_normal((3, 4, 2, 5))

    def loss(t: Tensor) -> Tensor:
        state = autodiff.BatchNormState(5)
        out = autodiff.batch_norm(t, gamma, beta, state, training=True)
        return (out * Tensor(w)).sum()

    return finite_diff_check(loss, x)


def _check_pla(rng: np.random.Generator) -> float:
    p = init_pla(rng, 3, "pla")
    x = _probe(rng, (2, 4, 3, 3))
    w = rng.standard_normal((2, 4, 3, 3))
    return finite_diff_check(lambda t: (pla_forward(t, p) * Tensor(w)).sum(), x)


def _check_hla(rng: np.random.Generator) -> float:
    p = init_hla(rng, 4, heads=2, h_max=4, w_max=3, name="hla")
    x = _probe(rng, (2, 4, 3, 4))
    w = rng.standard_normal((2, 4, 3, 4))
    return finite_diff_check(lambda t: (hla_forward(t, p) * Tensor(w)).sum(), x)


def _check_dla(rng: np.random.Generator) -> float:
    p = init_dla(rng, 4, c_k=3, name="dla")
    x = _probe(rng, (2, 3, 3, 4))
    w = rng.standard_normal((2, 3, 3, 4))
    return finite_diff_check(lambda t: (dla_forward(t, p) * Tensor(w)).sum(), x)


def _make_block(rng: np.random.Generator) -> MlaBlockParams:
    return init_mla_block(
        rng,
        c_in=4,
        c_mid=4,
        c_out=8,
        mode="all",
        heads=2,
        c_k=2,
        h_max=3,
        w_max=3,
        name="blk",
        stride=1,
    )


def _check_mla_block(rng: np.random.Generator) -> float:
    p = _make_block(rng)
    x = _probe(rng, (2, 3, 3, 4))
    w = rng.standard_normal((2, 3, 3, 8))

    def loss(t: Tensor) -> Tensor:
        return (mla_block_forward(t, p, training=True) * Tensor(w)).sum()

    return finite_diff_check(loss, x)


def _check_mla_block_params(rng: np.random.Generator) -> float:
    """Probe one weight from each attention stage plus the reduce conv."""
    p = _make_block(rng)
    x = Tensor(rng.standard_normal((2, 3, 3, 4)) * 0.5)
    w = rng.standard_normal((2, 3, 3, 8))

    def loss(_: Tensor) -> Tensor:
        return (mla_block_forward(x, p, training=True) * Tensor(w)).sum()

    probes = (p.pla.kernel, p.hla.w_q, p.hla.r_h, p.dla.k_d, p.reduce)
    return max(finite_diff_check(loss, probe) for probe in probes)


def _check_cluster_nce(rng: np.random.Generator) -> float:
    feats = rng.standard_normal((5, 6))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    cents = rng.standard_normal((3, 6))
    cents /= np.linalg.norm(cents, axis=1, keepdims=True)
    mem = MemoryDictionary(centroids=cents, tau=0.5, mu=0.1)
    targets = rng.integers(0, 3, size=5)
    x = Parameter("probe", feats)
    return finite_diff_check(lambda t: cluster_nce_loss(t, targets, mem), x)


_CHECKS = {
    "conv2d": _check_conv2d,
    "matmul": _check_matmul,
    "softmax": _check_softmax,
    "sigmoid": _check_sigmoid,
    "l2_normalize": _check_l2_normalize,
    "batch_norm": _check_batch_norm,
    "pla": _check_pla,
    "hla": _check_hla,
    "dla": _check_dla,
    "mla_block": _check_mla_block,
    "mla_block_params": _check_mla_block_params,
    "cluster_nce_loss": _check_cluster_nce,
}


def run_gradient_suite(seeds=(0, 1, 2, 3, 4), tolerance: float = 1e-4) -> list[GradCheckResult]:
    """Every named check at every seed; results carry the worst element error.

    No seeds, or a tolerance that is not finite and positive, would pass unchecked: both are refused.
    """
    if not seeds:
        raise ContractError("the gradient suite needs at least one seed")
    if not 0.0 < tolerance < np.inf:  # also false for NaN
        raise ContractError(f"tolerance must be finite and positive, got {tolerance}")
    results = []
    for name, fn in _CHECKS.items():
        for seed in seeds:
            rng = np.random.default_rng(seed)
            results.append(
                GradCheckResult(
                    name=name, seed=int(seed), max_error=float(fn(rng)), tolerance=tolerance
                )
            )
    return results

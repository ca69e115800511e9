"""Cluster memory dictionary and its contrastive loss.

The memory holds one unit-norm representative per cluster and acts as the
classifier: the loss is a temperature-scaled cross-entropy between a
feature and all representatives,

    L = -log( exp(x . C_target / tau) / sum_k exp(x . C_k / tau) ),

averaged over the batch. Representatives are plain state, not tape
parameters; they move by the batch-hard momentum rule instead of SGD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import NORM_EPS, Tensor, add, exp, log, matmul, mul, sub, tmean, tsum
from .errors import ContractError
from .clustering import PseudoLabels, cluster_members

TAU, MU = 0.05, 0.1  # a run's temperature and memory momentum: Cluster Contrast's, fixed


@dataclass
class MemoryDictionary:
    centroids: np.ndarray  # [k, d], unit-norm rows

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def init_memory(features, labels: PseudoLabels, seed: int) -> MemoryDictionary:
    """One uniformly chosen member feature per cluster, in cluster-id order."""
    f = np.asarray(features, dtype=np.float64)
    if labels.k == 0:
        raise ContractError("init_memory: clustering produced no clusters")
    rng = np.random.default_rng(seed)
    centroids = np.zeros((labels.k, f.shape[1]))
    for cid, members in enumerate(cluster_members(labels)):
        centroids[cid] = f[members[rng.integers(members.size)]]
    return MemoryDictionary(centroids)


def cluster_nce_loss(x: Tensor, targets, mem: MemoryDictionary) -> Tensor:
    """Mean cross-entropy of each feature against all cluster representatives.

    Log-sum-exp is stabilized by subtracting the detached row max, which
    also makes the single-cluster case an exact zero.
    """
    targets = np.asarray(targets)
    if targets.ndim != 1 or targets.shape[0] != x.shape[0]:
        raise ContractError(
            f"targets shape {targets.shape} does not match batch of {x.shape[0]}"
        )
    if targets.size and (targets.min() < 0 or targets.max() >= mem.k):
        raise ContractError(
            f"targets must lie in [0,{mem.k}), got range "
            f"[{targets.min()},{targets.max()}]"
        )
    logits = matmul(x, Tensor(mem.centroids.T / TAU))  # [b, k]
    row_max = Tensor(logits.data.max(axis=1, keepdims=True))  # detached constant
    shifted = sub(logits, row_max)
    lse = add(log(tsum(exp(shifted), axis=1, keepdims=True)), row_max)  # [b, 1]
    picked = tsum(mul(logits, Tensor(np.eye(mem.k)[targets])), axis=1, keepdims=True)  # the target logit
    return tmean(sub(lse, picked))


def batch_hard_update(mem: MemoryDictionary, batch_features, batch_targets) -> None:
    """Momentum-update each batch cluster toward its least-similar member.

    C_i <- mu * C_i + (1 - mu) * argmin_{f in batch, label i} (f . C_i),
    then renormalized to unit length. Clusters absent from the batch keep
    their representative bit-for-bit.
    """
    f = np.asarray(batch_features, dtype=np.float64)
    targets = np.asarray(batch_targets)
    for cid in np.unique(targets):
        members = f[targets == cid]
        sims = members @ mem.centroids[cid]
        hardest = members[int(np.argmin(sims))]
        blended = MU * mem.centroids[cid] + (1.0 - MU) * hardest
        norm = np.linalg.norm(blended)
        mem.centroids[cid] = blended / norm if norm > NORM_EPS else blended

"""Pairwise cosine distances and deterministic DBSCAN pseudo-labels.

A point is core iff at least ``min_pts`` points (itself included) lie
within ``eps``. Clusters are the density-connected components of the core
points, grown in ascending index order; border points join the cluster of
their lowest-index core neighbor; everything else is noise (-1). Final
cluster ids are canonicalized to first-occurrence order, so identical
inputs always produce identical labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque

import numpy as np

from .errors import ContractError


@dataclass
class DistanceMatrix:
    d: np.ndarray  # symmetric, zero diagonal, entries >= 0


@dataclass
class PseudoLabels:
    labels: np.ndarray  # int, -1 for noise, 0..k-1 otherwise
    k: int


@dataclass
class ClusterStats:
    k: int
    sizes: np.ndarray
    noise_fraction: float


DISTANCE_BLOCK = 128  # edge of the square tiles symmetrised in place


def pairwise_cosine_distance(features) -> DistanceMatrix:
    """1 - f_i . f_j on unit-norm rows, symmetrised, clamped to [0,2], zero diagonal.

    The one n x n buffer is the ``f @ f.T`` product, turned into distances
    in place one tile pair (i <= j) at a time: both tiles' ``1 - g`` go to
    block-sized scratch before either is written, so diagonal tiles need
    no special case. Each entry gets ``clip(((1-g_ij) + (1-g_ji)) / 2, 0, 2)``,
    the same bytes as the whole-matrix formula, whatever the BLAS.
    """
    f = np.asarray(features, dtype=np.float64)
    if not np.isfinite(f).all():
        raise ContractError("pairwise_cosine_distance: features contain non-finite values")
    d = f @ f.T
    n = d.shape[0]
    edge = min(DISTANCE_BLOCK, n)
    scratch_a, scratch_b = np.empty((2, edge, edge))
    for i in range(0, n, DISTANCE_BLOCK):
        for j in range(i, n, DISTANCE_BLOCK):
            upper = d[i:i + DISTANCE_BLOCK, j:j + DISTANCE_BLOCK]
            lower = d[j:j + DISTANCE_BLOCK, i:i + DISTANCE_BLOCK]
            rows, cols = upper.shape
            a = np.subtract(1.0, upper, out=scratch_a[:rows, :cols])
            b = np.subtract(1.0, lower.T, out=scratch_b[:rows, :cols])
            a += b  # symmetrize away roundoff skew
            a /= 2.0
            np.clip(a, 0.0, 2.0, out=upper)
            lower[...] = upper.T
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(d=d)


def dbscan(dist: DistanceMatrix, eps: float, min_pts: int) -> PseudoLabels:
    """Classic density clustering with pinned deterministic tie-breaking."""
    if eps <= 0:
        raise ContractError(f"dbscan: eps must be positive, got {eps}")
    if min_pts < 1:
        raise ContractError(f"dbscan: min_pts must be at least 1, got {min_pts}")
    n = dist.d.shape[0]
    within = dist.d <= eps
    core = within.sum(axis=1) >= min_pts
    labels = np.full(n, -1, dtype=np.int64)

    cluster = 0
    for start in range(n):
        if not core[start] or labels[start] != -1:
            continue
        labels[start] = cluster
        queue = deque([start])
        while queue:
            p = queue.popleft()
            for q in np.flatnonzero(within[p]):
                if core[q] and labels[q] == -1:
                    labels[q] = cluster
                    queue.append(q)
        cluster += 1

    for i in range(n):
        if labels[i] == -1 and not core[i]:
            reachers = np.flatnonzero(within[i] & core)
            if reachers.size:
                labels[i] = labels[reachers[0]]

    return PseudoLabels(labels=_canonicalize(labels), k=cluster)


def _canonicalize(labels: np.ndarray) -> np.ndarray:
    """Relabel clusters to 0,1,2,... in order of first appearance."""
    out = labels.copy()
    mapping: dict[int, int] = {}
    for i, lab in enumerate(labels):
        if lab == -1:
            continue
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[i] = mapping[lab]
    return out


def cluster_summary(pl: PseudoLabels) -> ClusterStats:
    """Cluster count, per-cluster sizes and the noise fraction."""
    labels = pl.labels
    n = labels.size
    noise = int((labels == -1).sum())
    k = pl.k
    sizes = np.bincount(labels[labels >= 0], minlength=k) if k else np.zeros(0, dtype=np.int64)
    return ClusterStats(k=k, sizes=sizes, noise_fraction=noise / n if n else 0.0)


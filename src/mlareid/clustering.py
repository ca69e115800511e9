"""Pairwise cosine distances and deterministic DBSCAN pseudo-labels.

A point is core iff at least ``min_pts`` points (itself included) lie
within ``eps``. Clusters are the density-connected components of the core
points, grown in ascending index order; border points join the cluster of
their lowest-index core neighbor; everything else is noise (-1). Final
cluster ids are canonicalized to first-occurrence order, so identical
inputs always produce identical labels. Both kernels do O(n^2) numpy work
on one n x n matrix; no Python loop runs over neighbours. After the one
``f @ f.T``, the O(n^2) passes run in ``DISTANCE_BLOCK``-row blocks on every
usable core (``autodiff.on_every_core``), the same bytes at any core count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import on_every_core
from .errors import ContractError


@dataclass
class DistanceMatrix:
    d: np.ndarray  # symmetric, zero diagonal, entries >= 0


@dataclass
class PseudoLabels:
    labels: np.ndarray  # int, -1 for noise, 0..k-1 otherwise

    @property
    def k(self) -> int:
        return int(self.labels.max(initial=-1)) + 1


@dataclass
class ClusterStats:
    sizes: np.ndarray  # members per cluster id
    noise_fraction: float

    @property
    def k(self) -> int:
        return self.sizes.size


DISTANCE_BLOCK = 128  # rows per block; both passes at n = 4000: 2 cores 28-30 ms, 1 core 41-50, 1 block 43-51


def _by_row_blocks(fill, n: int) -> None:
    """``fill(rows)`` for each ``DISTANCE_BLOCK``-row slice of ``n`` rows, on every usable core."""
    on_every_core(lambda starts: [fill(slice(i, i + DISTANCE_BLOCK)) for i in starts],
                  range(0, n, DISTANCE_BLOCK))


def pairwise_cosine_distance(features) -> DistanceMatrix:
    """1 - f_i . f_j on unit-norm rows, clamped to [0,2], zero diagonal.

    The one n x n buffer is ``f @ f.T`` for a C-contiguous ``f``: numpy runs
    syrk and mirrors it, so ``g_ij == g_ji`` bit for bit and the symmetrised
    ``((1-g_ij) + (1-g_ji)) / 2`` is ``1-g_ij``, computed in place
    ``DISTANCE_BLOCK`` rows at a time. The byte tests pin both facts.
    """
    f = np.ascontiguousarray(features, dtype=np.float64)
    if not np.isfinite(f).all():
        raise ContractError("pairwise_cosine_distance: features contain non-finite values")
    d = f @ f.T

    def to_distances(rows: slice) -> None:
        np.subtract(1.0, d[rows], out=d[rows])
        np.clip(d[rows], 0.0, 2.0, out=d[rows])
    _by_row_blocks(to_distances, d.shape[0])
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(d=d)


def dbscan(dist: DistanceMatrix, eps: float, min_pts: int) -> PseudoLabels:
    """Classic density clustering with pinned deterministic tie-breaking.

    O(n^2) numpy work, no Python loop over neighbours: each core point is
    popped once and claims the unclaimed core points in its row of the
    n x n bool ``within``. Memory: that matrix, O(n) arrays, and a copy
    of the border points' rows.
    """
    if eps <= 0:
        raise ContractError(f"dbscan: eps must be positive, got {eps}")
    if min_pts < 1:
        raise ContractError(f"dbscan: min_pts must be at least 1, got {min_pts}")
    n = dist.d.shape[0]
    within, counts = np.empty((n, n), dtype=bool), np.empty(n, dtype=np.int32)

    def count_within(rows: slice) -> None:
        np.less_equal(dist.d[rows], eps, out=within[rows])
        # no bool cast: 2.5-2.9 ms against 4.5-4.8 ms for count_nonzero or a bool sum at n = 4000
        within[rows].view(np.uint8).sum(axis=1, dtype=np.int32, out=counts[rows])
    _by_row_blocks(count_within, n)
    core = counts >= min_pts
    labels = np.full(n, -1, dtype=np.int64)
    fresh = core.copy()  # core points in no cluster yet
    cluster = 0
    for start in np.flatnonzero(core).tolist():
        if not fresh[start]:
            continue
        fresh[start], labels[start], frontier = False, cluster, [start]
        while frontier:
            grown = (within[frontier.pop()] & fresh).nonzero()[0]
            fresh[grown], labels[grown] = False, cluster
            frontier.extend(grown.tolist())
        cluster += 1

    if cluster:  # each border point joins its lowest-index core neighbour
        border = np.flatnonzero(~core)
        reach = within[border]
        reach &= core
        nearest = reach.argmax(axis=1)
        hit = reach[np.arange(border.size), nearest]
        labels[border[hit]] = labels[nearest[hit]]
    clustered = labels >= 0  # renumber 0,1,2,... in order of first appearance
    _, first, inverse = np.unique(labels[clustered], return_index=True, return_inverse=True)
    labels[clustered] = np.argsort(np.argsort(first))[inverse]
    return PseudoLabels(labels)


def cluster_summary(pl: PseudoLabels) -> ClusterStats:
    """Cluster count, per-cluster sizes and the noise fraction."""
    n = pl.labels.size
    sizes = np.bincount(pl.labels[pl.labels >= 0], minlength=pl.k)
    noise = n - int(sizes.sum())
    return ClusterStats(sizes=sizes, noise_fraction=noise / n if n else 0.0)


def cluster_members(pl: PseudoLabels) -> list[np.ndarray]:
    """Member indices of each cluster id in ascending order, from one stable argsort."""
    order = np.argsort(pl.labels, kind="stable")[int((pl.labels < 0).sum()):]  # noise sorts first
    return np.split(order, np.cumsum(cluster_summary(pl).sizes))[:-1]

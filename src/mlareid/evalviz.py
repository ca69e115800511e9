"""Retrieval metrics with the cross-camera protocol, and Grad-CAM export.

Evaluation ranks the gallery per query by descending cosine similarity,
excluding gallery entries that share both pid and camera with the query
(the standard market-style protocol); ties break by gallery index.
Queries with no valid positive are excluded from both averages and
counted; ``retrieval_metrics`` embeds a dataset's query and gallery
splits for it. Heatmaps weight the post-attention feature map by the
spatial mean of the score gradient per channel, rectify, and max-normalize.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor, add, l2_normalize, matmul, mul, no_grad, tmean, tsum
from .backbone import BackboneParams, forward_to_featuremap
from .contrast import TAU, MemoryDictionary
from .dataio import ImageRecord, bilinear_upsample, stack_pixels, write_ppm
from .errors import ContractError
from .pipeline import extract_all_features


@dataclass
class RetrievalMetrics:
    map_score: float
    cmc: dict[int, float]  # rank -> accuracy, ranks 1, 5, 10
    queries_evaluated: int
    queries_excluded: int

    def rows(self) -> list[tuple[str, float]]:
        out = [("mAP", self.map_score)]
        out += [(f"top{k}", self.cmc[k]) for k in sorted(self.cmc)]
        out += [
            ("queries_evaluated", float(self.queries_evaluated)),
            ("queries_excluded", float(self.queries_excluded)),
        ]
        return out


@dataclass
class Heatmap:
    grid: np.ndarray  # [h', w'] floats in [0, 1]
    target: str  # human-readable score description


CMC_RANKS = (1, 5, 10)


def evaluate(
    query_features: np.ndarray,
    query_pids: np.ndarray,
    query_camids: np.ndarray,
    gallery_features: np.ndarray,
    gallery_pids: np.ndarray,
    gallery_camids: np.ndarray,
) -> RetrievalMetrics:
    """mAP and CMC over all queries with valid positives."""
    query_pids = np.asarray(query_pids)
    query_camids = np.asarray(query_camids)
    gallery_pids = np.asarray(gallery_pids)
    gallery_camids = np.asarray(gallery_camids)
    aps: list[float] = []
    cmc_hits = {k: 0 for k in CMC_RANKS}
    excluded = 0

    for q, qpid, qcam in zip(query_features, query_pids, query_camids):
        valid = ~((gallery_pids == qpid) & (gallery_camids == qcam))
        sims = gallery_features[valid] @ q
        pids = gallery_pids[valid]
        order = np.argsort(-sims, kind="stable")  # descending, index-stable ties
        hits = pids[order] == qpid
        positions = np.flatnonzero(hits)
        if positions.size == 0:
            excluded += 1
            continue
        ranks = positions + 1.0
        aps.append(float(np.mean(np.arange(1, positions.size + 1) / ranks)))
        for k in CMC_RANKS:
            if positions[0] < k:
                cmc_hits[k] += 1

    evaluated = len(aps)
    if evaluated == 0:
        return RetrievalMetrics(0.0, {k: 0.0 for k in CMC_RANKS}, 0, excluded)
    return RetrievalMetrics(
        map_score=float(np.mean(aps)),
        cmc={k: cmc_hits[k] / evaluated for k in CMC_RANKS},
        queries_evaluated=evaluated,
        queries_excluded=excluded,
    )


def retrieval_metrics(params: BackboneParams, records: list[ImageRecord]) -> RetrievalMetrics:
    """Embed the query and gallery splits of ``records`` in eval mode and evaluate them."""
    query = [r for r in records if r.split == "query"]
    gallery = [r for r in records if r.split == "gallery"]
    if not query or not gallery:
        raise ContractError(
            f"retrieval needs query and gallery images, got {len(query)} query and {len(gallery)} gallery"
        )
    qf = extract_all_features(stack_pixels(query), params)
    gf = extract_all_features(stack_pixels(gallery), params)
    return evaluate(
        qf, np.array([r.pid for r in query]), np.array([r.camid for r in query]),
        gf, np.array([r.pid for r in gallery]), np.array([r.camid for r in gallery]),
    )


def write_metrics_csv(metrics: RetrievalMetrics, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        for name, value in metrics.rows():
            writer.writerow([name, np.format_float_positional(value, unique=True)])


def cam_from_gradients(fmap: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Rectified gradient-weighted channel sum, normalized to max 1."""
    weights = grads.mean(axis=(0, 1))  # [c]
    cam = np.maximum(fmap @ weights, 0.0)  # [h', w']
    peak = cam.max()
    return cam / peak if peak > 0 else cam


def grad_cam_heatmap(
    record: ImageRecord,
    params: BackboneParams,
    memory: MemoryDictionary | None = None,
    cluster_id: int | None = None,
) -> Heatmap:
    """Spatial evidence for a cluster logit, or for the embedding energy.

    With a memory the score is a cluster's temperature-scaled logit, by
    default the cluster nearest the image's embedding; without one it is the
    squared pre-normalization embedding, whose gradient still carries spatial
    structure (the normalized embedding has constant norm and would give a zero map).
    """
    with no_grad():
        fmap = forward_to_featuremap(Tensor(record.pixels[None, ...]), params, training=False)
    fmap = Tensor(fmap.data, requires_grad=True)  # the tape starts at the map
    pooled = tmean(fmap, axis=(1, 2))
    projected = add(matmul(pooled, params.embed_w.detach()), params.embed_b.detach())

    if memory is not None:
        feat = l2_normalize(projected, axis=-1)
        if cluster_id is None:
            cluster_id = int(np.argmax(memory.centroids @ feat.data[0]))
        elif not 0 <= cluster_id < memory.k:
            raise ContractError(f"cluster id {cluster_id} is not in [0,{memory.k})")
        score = tsum(mul(feat, Tensor(memory.centroids[cluster_id][None, :] / TAU)))
        target = f"cluster {cluster_id} logit"
    else:
        score = tsum(mul(projected, projected))
        target = "embedding energy"
    score.backward()
    grid = cam_from_gradients(fmap.data[0], fmap.grad[0])
    return Heatmap(grid=grid, target=target)


def export_heatmap(hm: Heatmap, out_base: str | Path, source_pixels: np.ndarray) -> None:
    """Write <base>.csv (the raw grid) and <base>.ppm (overlay on ``source_pixels``).

    The overlay upsamples the grid to the source image size, maps it
    through a blue-to-red ramp and alpha-blends at 0.5.
    """
    out_base = Path(out_base)
    with open(out_base.with_suffix(".csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in hm.grid:
            writer.writerow([f"{v:.17g}" for v in row])

    h, w, _ = source_pixels.shape
    heat = bilinear_upsample(hm.grid, h, w)
    ramp = np.stack([heat, np.zeros_like(heat), 1.0 - heat], axis=-1)
    overlay = 0.5 * source_pixels + 0.5 * ramp
    write_ppm(out_base.with_suffix(".ppm"), overlay)


"""The three benchmark workloads: set-up from a seed, one timed pass, checks.

Each workload's ``setup(seed, root)`` builds its inputs under ``root`` and
returns a context; ``run(ctx, out)`` makes one timed pass writing
under ``out`` and returns a ``PassResult`` whose ``problems`` list the
output checks that failed. Calls into the library go through module
attributes (``pipeline.run_training``) so that tracing wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mlareid import clustering, contrast, dataio, evalviz, pipeline
from mlareid.dataio import SynthSpec
from mlareid.pipeline import TrainConfig

from tracing import PHASE_SPANS, Tracer

# The acceptance desk protocol (tests/test_acceptance.py): the DESK_SPEC
# images and criterion 6's training settings in attention mode "all".
DESK_SPEC = dict(
    num_ids=32, images_per_id=8, num_cameras=2,
    image_hw=(64, 32), background_strength=0.8, seed=0,
)
DESK_EPS = 0.04
DESK_MIN_PTS = 2
DESK_SEED = 0  # the pinned training seed of the desk protocol
DESK_WARMUP = 5


def desk_config(iterations: int) -> TrainConfig:
    return TrainConfig(
        clustering_iterations=iterations, epochs_per_iteration=1, lr0=8e-4,
        eps=DESK_EPS, min_pts=DESK_MIN_PTS, seed=DESK_SEED, attention_mode="all",
        bn_warmup_passes=DESK_WARMUP,
    )


@dataclass
class Measure:
    value: float
    unit: str


@dataclass
class PassResult:
    seconds: float  # wall time of the pass
    measures: dict[str, Measure]  # every named end-to-end metric the pass defines
    record: dict = field(default_factory=dict)  # behaviour fingerprint for the log
    problems: list[str] = field(default_factory=list)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _retrieval_problems(metrics) -> list[str]:
    problems = []
    if metrics.queries_evaluated < 1:
        problems.append("no query was evaluated")
    for name, value in (("map", metrics.map_score), ("rank1", metrics.cmc[1])):
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name} {value} outside [0, 1]")
    return problems


def _evaluate(query, qf, gallery, gf):
    return evalviz.evaluate(
        qf, np.array([r.pid for r in query]), np.array([r.camid for r in query]),
        gf, np.array([r.pid for r in gallery]), np.array([r.camid for r in gallery]),
    )


# ---------------------------------------------------------------------------
# desk-train: the whole unsupervised loop on the acceptance desk data
# ---------------------------------------------------------------------------

@dataclass
class DeskContext:
    data: Path
    cfg: TrainConfig
    query: list
    gallery: list


class DeskTrain:
    """run_training under the criterion-6 protocol, then a reload and eval.

    The inputs are pinned: the DESK_SPEC images and training seed 0, so
    the benchmark seed does not change them. Across training seeds K, and
    with it the number of batches, moves run time by up to a third
    (23-37 s for seeds 0-4), which would swamp any speed change; at the
    pinned seed every run does the same work and must write the same
    checkpoint bytes. Rates come from a phase clock of eight
    pipeline-level spans (tracing.PHASE_SPANS, about 70 calls per run).
    """

    name = "desk-train"
    rate_metric = "train_img_per_s"

    def setup(self, seed: int, root: Path) -> DeskContext:
        records = dataio.synth_generate(SynthSpec(**DESK_SPEC), root / "data")
        return DeskContext(
            data=root / "data",
            cfg=desk_config(iterations=10),
            query=[r for r in records if r.split == "query"],
            gallery=[r for r in records if r.split == "gallery"],
        )

    def fingerprint(self, ctx: DeskContext) -> str:
        digest = hashlib.sha256()
        for path in sorted((ctx.data).rglob("*.ppm")):
            digest.update(path.read_bytes())
        return digest.hexdigest()

    def run(self, ctx: DeskContext, out: Path) -> PassResult:
        clock = Tracer(PHASE_SPANS)
        start = time.perf_counter()
        with clock:
            ckpt, _ = pipeline.run_training(ctx.cfg, ctx.data, out)
            backbone, _, _ = pipeline.load_backbone_from_checkpoint(ckpt)
            qf = pipeline.extract_all_features(dataio.stack_pixels(ctx.query), backbone)
            gf = pipeline.extract_all_features(dataio.stack_pixels(ctx.gallery), backbone)
            metrics = _evaluate(ctx.query, qf, ctx.gallery, gf)
        seconds = time.perf_counter() - start

        counts = clock.counts
        train_step_s = clock.self_seconds["pipeline.train_iteration"]
        measures = {
            "run_s": Measure(seconds, "s"),
            "train_img_per_s": Measure(counts["sampled_images"] / train_step_s, "1/s"),
            "embed_img_per_s": Measure(counts["extracted_images"] / clock.seconds["pipeline.extract"], "1/s"),
            "map": Measure(metrics.map_score, "ratio"),
            "rank1": Measure(metrics.cmc[1], "ratio"),
        }

        problems = _retrieval_problems(metrics)
        rows = (out / "report.csv").read_text().splitlines()
        if rows[0] != pipeline.REPORT_HEADER or len(rows) - 1 != ctx.cfg.clustering_iterations:
            problems.append(f"report.csv has {len(rows) - 1} rows for "
                            f"{ctx.cfg.clustering_iterations} iterations")
        if [int(r.split(",")[0]) for r in rows[1:]] != list(range(len(rows) - 1)):
            problems.append("report.csv iterations are not 0..n-1")
        if len(clock.iterations) != ctx.cfg.clustering_iterations:
            problems.append(f"{len(clock.iterations)} iterations ran")
        if sum(it["batches"] for it in clock.iterations) < 1:
            problems.append("no batch trained")
        return PassResult(
            seconds=seconds,
            measures=measures,
            record={
                "checkpoint_sha256": sha256_file(ckpt),
                "iterations": clock.iterations,
                "map": metrics.map_score,
                "rank1": metrics.cmc[1],
            },
            problems=problems,
        )


# ---------------------------------------------------------------------------
# gallery-embed: forward-only use of a checkpoint on a larger gallery
# ---------------------------------------------------------------------------

GALLERY_SPEC = dict(DESK_SPEC, num_ids=128, images_per_id=10)  # 512 query+gallery images
GALLERY_TRAIN_SPEC = dict(DESK_SPEC, num_ids=16)  # set-up training: 80 images, 4.3 s
GALLERY_HEATMAPS = 16


@dataclass
class GalleryContext:
    checkpoint: Path
    gallery_dir: Path


class GalleryEmbed:
    """Load a query+gallery set and a checkpoint, embed, rank, render heatmaps.

    Set-up trains the checkpoint with one iteration of the desk protocol
    on half the desk identities at the pinned seed (K = 9 after warmup),
    so it carries a memory whatever the benchmark seed; other seeds find
    as few as 1 cluster there, and an iteration with K < P = 4 is
    skipped. The training runs in a child process, so this process's
    peak RSS covers only loading, embedding and heatmaps, not the
    training graph. Set-up then writes a 512-image query+gallery set
    from the same generator at the benchmark seed.
    """

    name = "gallery-embed"
    rate_metric = "embed_img_per_s"

    def setup(self, seed: int, root: Path) -> GalleryContext:
        train_dir = root / "train_data"
        dataio.synth_generate(SynthSpec(**GALLERY_TRAIN_SPEC), train_dir)
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as child:
            ckpt, _ = child.submit(pipeline.run_training, desk_config(iterations=1),
                                   train_dir, root / "run").result()
        if pipeline.load_backbone_from_checkpoint(ckpt)[1] is None:
            raise RuntimeError("set-up training skipped its iteration: the checkpoint has no memory")
        gallery_dir = root / "gallery"
        dataio.synth_generate(SynthSpec(**dict(GALLERY_SPEC, seed=seed)), gallery_dir)
        for path in (gallery_dir / "train").iterdir():  # only query+gallery are read
            path.unlink()
        return GalleryContext(checkpoint=ckpt, gallery_dir=gallery_dir)

    def fingerprint(self, ctx: GalleryContext) -> str:
        return sha256_file(ctx.checkpoint)

    def run(self, ctx: GalleryContext, out: Path) -> PassResult:
        start = time.perf_counter()
        records = dataio.load_dataset(ctx.gallery_dir)
        query = [r for r in records if r.split == "query"]
        gallery = [r for r in records if r.split == "gallery"]
        backbone, memory, _ = pipeline.load_backbone_from_checkpoint(ctx.checkpoint)
        embed_start = time.perf_counter()
        qf = pipeline.extract_all_features(dataio.stack_pixels(query), backbone)
        gf = pipeline.extract_all_features(dataio.stack_pixels(gallery), backbone)
        embed_s = time.perf_counter() - embed_start
        metrics = _evaluate(query, qf, gallery, gf)
        heat_start = time.perf_counter()
        grids = []
        for record, feature in zip(query[:GALLERY_HEATMAPS], qf):
            cluster_id = int(np.argmax(memory.centroids @ feature))
            hm = evalviz.grad_cam_heatmap(record, backbone, memory, cluster_id)
            evalviz.export_heatmap(hm, out / Path(record.path).stem, source_pixels=record.pixels)
            grids.append(hm.grid)
        heat_s = time.perf_counter() - heat_start
        seconds = time.perf_counter() - start

        embedded = len(query) + len(gallery)
        measures = {
            "run_s": Measure(seconds, "s"),
            "embed_img_per_s": Measure(embedded / embed_s, "1/s"),
            "heatmap_per_s": Measure(len(grids) / heat_s, "1/s"),
            "map": Measure(metrics.map_score, "ratio"),
            "rank1": Measure(metrics.cmc[1], "ratio"),
        }
        problems = _retrieval_problems(metrics)
        features = np.concatenate([qf, gf])
        if not np.isfinite(features).all():
            problems.append("embeddings are not finite")
        elif np.abs(np.linalg.norm(features, axis=1) - 1.0).max() > 1e-9:
            problems.append("embeddings are not unit-norm")
        if len(grids) != GALLERY_HEATMAPS:
            problems.append(f"{len(grids)} heatmaps for {GALLERY_HEATMAPS}")
        if not all(np.isfinite(g).all() and g.min() >= 0.0 and g.max() <= 1.0 for g in grids):
            problems.append("a heatmap grid leaves [0, 1]")
        if len(list(out.glob("*.ppm"))) != len(grids):
            problems.append("an overlay was not written")
        return PassResult(
            seconds=seconds,
            measures=measures,
            record={"images": embedded, "map": metrics.map_score, "rank1": metrics.cmc[1]},
            problems=problems,
        )


# ---------------------------------------------------------------------------
# pseudo-label: distances -> DBSCAN -> summary -> memory -> PK batches
# ---------------------------------------------------------------------------

LABEL_IDS = 500
LABEL_PER_ID = 8  # n = 4000: the n x n float64 distances take 128 MB
LABEL_CAMERAS = 2
LABEL_DIM = 64  # the backbone's embedding width
LABEL_SPREAD = 0.32  # identity centres around one shared direction
LABEL_CAMERA_SHIFT = 0.08
LABEL_SIGMA = 0.14  # within-identity scatter
LABEL_OUTLIER_SHARE = 0.25
LABEL_OUTLIER_SIGMA = 0.45
LABEL_P, LABEL_K = 4, 4


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def make_embeddings(seed: int) -> np.ndarray:
    """Unit-norm rows with identity and camera structure, like desk features.

    Identity centres cluster around one shared direction (trained desk
    embeddings are compressed the same way); each camera adds its own
    offset; a share of images scatter widely and become noise.
    """
    rng = np.random.default_rng([seed, 7])
    n = LABEL_IDS * LABEL_PER_ID
    shared = _unit_rows(rng.standard_normal((1, LABEL_DIM)))
    centres = _unit_rows(shared + LABEL_SPREAD * rng.standard_normal((LABEL_IDS, LABEL_DIM)) / math.sqrt(LABEL_DIM))
    cameras = LABEL_CAMERA_SHIFT * rng.standard_normal((LABEL_CAMERAS, LABEL_DIM)) / math.sqrt(LABEL_DIM)
    pids = np.repeat(np.arange(LABEL_IDS), LABEL_PER_ID)
    camids = np.tile(np.arange(LABEL_PER_ID) % LABEL_CAMERAS, LABEL_IDS)
    sigma = np.where(rng.random(n) < LABEL_OUTLIER_SHARE, LABEL_OUTLIER_SIGMA, LABEL_SIGMA)
    noise = sigma[:, None] * rng.standard_normal((n, LABEL_DIM)) / math.sqrt(LABEL_DIM)
    order = rng.permutation(n)  # no identity order for the BFS to exploit
    return _unit_rows(centres[pids] + cameras[camids] + noise)[order]


@dataclass
class LabelContext:
    features: np.ndarray
    seed: int


def dbscan_problems(d: np.ndarray, labels: np.ndarray, k: int, eps: float, min_pts: int) -> list[str]:
    """The DBSCAN definition as vectorised invariants, independent of the BFS."""
    problems = []
    within = d <= eps
    core = within.sum(axis=1) >= min_pts
    noise = labels == -1
    if noise[core].any():
        problems.append("a core point is labelled noise")
    cores = np.flatnonzero(core)
    core_pairs = within[np.ix_(cores, cores)]
    if (labels[cores][:, None] != labels[cores][None, :])[core_pairs].any():
        problems.append("core neighbours carry different labels")
    if within[np.ix_(np.flatnonzero(noise), cores)].any():
        problems.append("a noise point has a core point within eps")
    border = np.flatnonzero(~core & ~noise)
    reach = within[np.ix_(border, cores)]
    if border.size and not reach.any(axis=1).all():
        problems.append("a border point has no core neighbour")
    elif border.size and (labels[cores[reach.argmax(axis=1)]] != labels[border]).any():
        problems.append("a border point did not join its lowest-index core neighbour")
    used = np.unique(labels[~noise])
    if not np.array_equal(used, np.arange(k)) or np.unique(labels[cores]).size != k:
        problems.append(f"labels {used[:5]}... do not enumerate {k} clusters with cores")
    # one cluster per connected component of the core graph (min-label propagation)
    component = np.arange(cores.size, dtype=np.int32)
    while True:
        spread = np.minimum(np.where(core_pairs, component[None, :], cores.size).min(axis=1), component)
        if np.array_equal(spread, component):
            break
        component = spread
    if np.unique(component).size != k:
        problems.append(f"{np.unique(component).size} core components but {k} clusters")
    return problems


class PseudoLabel:
    """Pseudo-label 4000 seeded embeddings with the desk eps and min_pts."""

    name = "pseudo-label"
    rate_metric = "label_img_per_s"

    def setup(self, seed: int, root: Path) -> LabelContext:
        return LabelContext(features=make_embeddings(seed), seed=seed)

    def fingerprint(self, ctx: LabelContext) -> str:
        return hashlib.sha256(ctx.features.tobytes()).hexdigest()

    def run(self, ctx: LabelContext, out: Path) -> PassResult:
        f = ctx.features
        start = time.perf_counter()
        dist = clustering.pairwise_cosine_distance(f)
        labels = clustering.dbscan(dist, DESK_EPS, DESK_MIN_PTS)
        stats = clustering.cluster_summary(labels)
        memory = contrast.init_memory(f, labels, ctx.seed)
        batches = pipeline.pk_sampler(labels, LABEL_P, LABEL_K, ctx.seed)
        seconds = time.perf_counter() - start

        n = f.shape[0]
        lab = labels.labels
        problems = dbscan_problems(dist.d, lab, labels.k, DESK_EPS, DESK_MIN_PTS)
        if stats.k != labels.k or stats.sizes.sum() != int((lab >= 0).sum()):
            problems.append("cluster_summary disagrees with the labels")
        members_match = all(
            (f[lab == cid] == memory.centroids[cid]).all(axis=1).any() for cid in range(labels.k)
        )
        if memory.centroids.shape != (labels.k, f.shape[1]) or not members_match:
            problems.append("a memory row is not a member feature of its cluster")
        picked = np.concatenate(batches)
        if any(b.size != LABEL_P * LABEL_K or np.unique(lab[b]).size != LABEL_P for b in batches):
            problems.append("a PK batch does not hold P clusters of K images")
        if (lab[picked] == -1).any() or np.unique(lab[picked]).size != labels.k:
            problems.append("PK batches include noise or miss a cluster")
        return PassResult(
            seconds=seconds,
            measures={"run_s": Measure(seconds, "s"), "label_img_per_s": Measure(n / seconds, "1/s")},
            record={
                "n": n,
                "k": labels.k,
                "noise_frac": stats.noise_fraction,
                "largest_cluster": int(stats.sizes.max()),
                "within_eps_frac": (int(np.count_nonzero(dist.d <= DESK_EPS)) - n) / (n * n - n),
                "median_distance_sampled": _sampled_median(dist.d),
                "batches": len(batches),
            },
            problems=problems,
        )


MEDIAN_SAMPLE_PAIRS = 200_000


def _sampled_median(d: np.ndarray) -> float:
    """Median off-diagonal distance over a fixed sample of pairs."""
    rng = np.random.default_rng(0)
    i = rng.integers(0, d.shape[0], MEDIAN_SAMPLE_PAIRS)
    j = rng.integers(0, d.shape[0], MEDIAN_SAMPLE_PAIRS)
    keep = i != j
    return float(np.median(d[i[keep], j[keep]]))


WORKLOADS = {w.name: w for w in (DeskTrain(), GalleryEmbed(), PseudoLabel())}

"""The alternating cluster/train loop with PK sampling and checkpointing.

Each clustering iteration extracts all features in eval mode on every core,
runs DBSCAN, re-initializes the memory dictionary from the fresh clusters,
then makes one (configurable) pass of PK batches: forward in train mode,
ClusterNCE loss, Adam step, batch-hard memory update. Per-iteration
randomness (the memory pick, the batch order, augmentation) is derived from
(seed, iteration), so resuming from a checkpoint written at an iteration
boundary replays the remaining iterations bit-for-bit. ``run_training``
writes ``checkpoint.bin`` after every iteration: parameters, running stats,
Adam state, the last memory centroids, the iteration count, the images'
height and width (``backbone.input_hw``), the run's ``TrainConfig`` as
``config_lines`` text (``meta.train``, the one place its attention mode is
kept) and the sha256 of the train split's bytes (``meta.data``). A resume
refuses other training images and any config change but a larger
``clustering_iterations``.
"""

from __future__ import annotations

import hashlib
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .attention import MODES, STAGES
from .autodiff import Parameter, Tensor, fold_running, no_grad, usable_cores, zero_grads
from .backbone import (
    C_MID, EMBED_DIM, HEADS, STRIDE, BackboneParams, build_backbone, extract_features, named_entries,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .clustering import (
    PseudoLabels, cluster_members, cluster_summary, dbscan, pairwise_cosine_distance,
)
from .contrast import MemoryDictionary, batch_hard_update, cluster_nce_loss, init_memory
from .dataio import decode, load_dataset, stack_pixels
from .errors import ConfigError, ContractError, DataFormatError
from .layers import parameters, state_entries

REPORT_HEADER = "iter,K,noise_frac,mean_loss,lr,skipped,batches,seconds"
FEATURE_CHUNK = 8  # fixed eval-extraction batch so runs stay bit-comparable
WARMUP_CHUNK = 32  # fixed warmup batch: train-mode batch statistics depend on the batch

# per-iteration seed stream tags
_TAG_MEMORY = 1
_TAG_SAMPLER = 2
_TAG_AUGMENT = 3

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
LR_DECAY, LR_DECAY_EVERY = 0.1, 20  # Cluster Contrast's step schedule, fixed


@dataclass
class TrainConfig:
    clustering_iterations: int = 50
    epochs_per_iteration: int = 1
    batch_p: int = 4
    batch_k: int = 4
    lr0: float = 1.6e-4
    eps: float = 0.4
    min_pts: int = 4
    seed: int = 0
    attention_mode: str = "all"
    augment: bool = False
    bn_warmup_passes: int = 2

    def validate(self) -> None:
        non_finite = [k for k, v in vars(self).items() if isinstance(v, float) and not math.isfinite(v)]
        if non_finite:
            raise ConfigError(f"{', '.join(non_finite)} must be finite")
        if self.clustering_iterations < 0 or self.epochs_per_iteration < 1:
            raise ConfigError("iteration counts must be non-negative (epochs at least 1)")
        if min(self.bn_warmup_passes, self.seed) < 0:
            raise ConfigError("bn_warmup_passes and seed must be non-negative")
        if min(self.batch_p, self.batch_k) < 1 or self.batch_p * self.batch_k <= 1:
            raise ConfigError("batch P and K must be at least 1 and P*K must exceed 1")
        if min(self.lr0, self.eps) <= 0:
            raise ConfigError("lr0 and eps must be positive")
        if self.min_pts < 1:
            raise ConfigError("min_pts must be at least 1")
        if self.attention_mode not in MODES:
            raise ConfigError(
                f"unknown attention mode {self.attention_mode!r}, expected one of {MODES}"
            )


def config_lines(cfg) -> list[str]:
    """One ``key = value`` line per field of a config dataclass; apply_config_lines reads them."""
    return [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(cfg)]


def parse_config(path: str | Path) -> TrainConfig:
    """Flat ``key = value`` lines, ``#`` comments; keys must be TrainConfig field names."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read config {path}: {exc}") from exc
    return _read_config(text, f"config {path}")


def _read_config(text: str, source: str) -> TrainConfig:
    """The TrainConfig that ``text``'s ``key = value`` lines set (``#`` starts a comment), checked;
    an error names ``source`` and, if one line is at fault, the line."""
    lines = [raw.split("#", 1)[0] for raw in text.splitlines()]
    cfg = apply_config_lines(TrainConfig(), lines, [f"{source} line {i + 1}" for i in range(len(lines))])
    try:
        cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return cfg


def apply_config_lines(cfg, lines, where):
    """A copy of the config dataclass ``cfg`` with the fields that ``key = value`` lines set, unchecked.

    Tuples are comma-separated ints; an error about ``lines[i]`` cites ``where[i]``.
    """
    field_types = {f.name: f.type for f in fields(cfg)}
    updates = {}
    for at, raw in zip(where, lines, strict=True):
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{at}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in field_types:
            raise ConfigError(f"{at}: unknown key {key!r}")
        kind = field_types[key]
        try:
            if kind == "int":
                updates[key] = int(value)
            elif kind == "float":
                updates[key] = float(value)
            elif kind == "bool":
                if value.lower() not in ("true", "false"):
                    raise ValueError(value)
                updates[key] = value.lower() == "true"
            elif kind.startswith("tuple"):
                updates[key] = tuple(int(v) for v in value.strip("()").split(",") if v.strip())
            else:
                updates[key] = value
        except ValueError:
            raise ConfigError(f"{at}: bad value {value!r} for {key!r}") from None
    return replace(cfg, **updates)


@dataclass
class EpochReport:
    iteration: int
    k: int
    noise_frac: float
    mean_loss: float
    lr: float
    batches: int  # PK batches trained, at least 1 unless skipped
    seconds: float

    @property
    def skipped(self) -> bool:  # fewer than P clusters: no memory, no batch
        return self.batches == 0

    def csv_row(self) -> str:
        return (
            f"{self.iteration},{self.k},{self.noise_frac:.17g},"
            f"{self.mean_loss:.17g},{self.lr:.17g},{int(self.skipped)},{self.batches},"
            f"{self.seconds:.6f}"
        )


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step schedule: lr0 scaled by LR_DECAY once per LR_DECAY_EVERY epochs."""
    if epoch < 0:
        raise ContractError(f"epoch must be non-negative, got {epoch}")
    return cfg.lr0 * LR_DECAY ** (epoch // LR_DECAY_EVERY)


def pk_sampler(labels: PseudoLabels, p: int, k_img: int, seed: int) -> list[np.ndarray]:
    """One epoch of P-identity, K-image batches over all eligible clusters.

    Cluster order is a seeded permutation; a short final chunk is padded
    with distinct clusters drawn from the rest. Undersized clusters repeat
    members (each appears at least once); noise never enters a batch.
    """
    if labels.k < p:
        raise ContractError(f"pk_sampler: only {labels.k} clusters for P={p}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(labels.k)
    members_of = cluster_members(labels)
    batches: list[np.ndarray] = []
    for start in range(0, labels.k, p):
        chunk = order[start:start + p]
        if chunk.size < p:
            rest = order[:start]  # the short chunk is the tail of the order
            chunk = np.concatenate([chunk, rng.choice(rest, size=p - chunk.size, replace=False)])
        picks: list[np.ndarray] = []
        for cid in chunk:
            members = members_of[cid]
            if members.size >= k_img:
                picks.append(rng.choice(members, size=k_img, replace=False))
            else:
                extra = rng.choice(members, size=k_img - members.size, replace=True)
                picks.append(np.concatenate([members, extra]))
        batches.append(np.concatenate(picks))
    return batches


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(params: list[Parameter], lr: float, state: AdamState) -> None:
    """Standard bias-corrected Adam; a missing gradient counts as zero."""
    state.t += 1
    t = state.t
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m.get(p.name, 0.0)  # a first step's zero moments
        v = state.v.get(p.name, 0.0)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        state.m[p.name] = m
        state.v[p.name] = v
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class RunState:
    cfg: TrainConfig
    backbone: BackboneParams
    optim: AdamState
    pixels: np.ndarray  # train-split images [n,h,w,3] uint8, decoded a chunk or batch at a time
    iteration: int = 0  # completed clustering iterations
    memory: MemoryDictionary | None = None
    data: str = field(init=False)  # sha256 of the pixels' bytes, checked on resume

    def __post_init__(self):
        self.data = hashlib.sha256(np.ascontiguousarray(self.pixels)).hexdigest()


def _derived_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def extract_all_features(pixels: np.ndarray, params: BackboneParams) -> np.ndarray:
    """Eval-mode features of uint8 ``pixels`` in input order, computed on every usable core.

    The calling thread (so its heap arena, which training reuses, serves too: desk peak RSS
    116-122 MiB against 130-133 MiB for a pool.map over all chunks) and one pool thread per
    other core take FEATURE_CHUNK-image chunks in turn: same bytes at any count. Each stream decodes
    its chunks into one buffer, free again once a forward returns: a fresh array per chunk cost
    gallery-embed 3.7 % of its rate (5 pairs, BENCH_21.json) and 36.6k minor page faults a pass, not 2.5k.
    """
    starts = range(0, pixels.shape[0], FEATURE_CHUNK)
    streams = max(1, min(usable_cores(), len(starts)))

    def run_stream(first: int) -> list[np.ndarray]:
        floats = np.empty(pixels[:FEATURE_CHUNK].shape)
        with no_grad():  # per thread
            chunks = (decode(pixels[s:s + FEATURE_CHUNK], floats) for s in starts[first::streams])
            return [extract_features(Tensor(chunk), params, training=False).data for chunk in chunks]
    with ThreadPoolExecutor(max(streams - 1, 1)) as pool:
        others = pool.map(run_stream, range(1, streams))
        outs = [run_stream(0), *others]  # reads every pool result, re-raising its error
    return np.concatenate([outs[i % streams][i // streams] for i in range(len(starts))], axis=0)


def bn_warmup(params: BackboneParams, pixels: np.ndarray, passes: int) -> None:
    """Settle batch-norm running stats as ``passes`` train-mode passes over uint8 ``pixels`` would.

    A train-mode forward normalizes by its batch's statistics alone and draws
    no randomness, and the WARMUP_CHUNK chunks are fixed, so every pass folds
    the same per-chunk increments into the running arrays. Each chunk
    therefore runs once, tape-free, from running arrays set to -0.0, which
    leaves exactly its ``BN_MOMENTUM * batch`` increment in them (-0.0 + y is
    y, bit for bit; this needs every batch-norm site to run once per forward,
    as each does). The saved values are then restored and the increments
    are folded in pass by pass, chunk by chunk: the updates of the plain loop
    in its order, with one forward per image instead of ``passes`` (0.64 s against 2.65 s
    in a traced desk pair, BENCH_16.json). It stays on the calling thread: a second forward
    thread saved 0.3 s of a desk run but raised its peak RSS from 176 to 222-242 MiB.
    """
    if passes == 0:
        return
    stats = list(state_entries(params).values())
    saved = [stat.copy() for stat in stats]
    increments = []
    with no_grad():
        for start in range(0, pixels.shape[0], WARMUP_CHUNK):
            for stat in stats:
                stat.fill(-0.0)
            extract_features(Tensor(decode(pixels[start:start + WARMUP_CHUNK])), params, training=True)
            increments.append([stat.copy() for stat in stats])
    for stat, value in zip(stats, saved):
        stat[...] = value
    for _ in range(passes):
        for chunk in increments:
            for stat, increment in zip(stats, chunk):
                fold_running(stat, increment)


def _augment_batch(pixels: np.ndarray, rng: np.random.Generator, pad: int = 2) -> np.ndarray:
    """Seeded horizontal flip plus crop-from-padding, per image: values only move, in any dtype."""
    out = np.empty_like(pixels)
    h, w = pixels.shape[1:3]
    for i, img in enumerate(pixels):
        if rng.random() < 0.5:
            img = img[:, ::-1, :]
        padded = np.pad(img, ((pad, pad), (pad, pad), (0, 0)), mode="edge")
        dy = int(rng.integers(0, 2 * pad + 1))
        dx = int(rng.integers(0, 2 * pad + 1))
        out[i] = padded[dy:dy + h, dx:dx + w]
    return out


def _failure(out_dir: Path, what: str, features: np.ndarray, labels: PseudoLabels | None,
             lr: float) -> ContractError:
    """Dump what a failed iteration saw (``labels`` is None before clustering); the error names it."""
    dump = out_dir / "diagnostics"
    dump.mkdir(parents=True, exist_ok=True)
    np.savetxt(dump / "features.csv", features, delimiter=",")
    if labels is not None:
        np.savetxt(dump / "labels.csv", labels.labels, fmt="%d", delimiter=",")
    (dump / "lr.txt").write_text(f"{lr:.17g}\n")
    return ContractError(f"{what}; diagnostics written to {dump}")


def train_iteration(state: RunState, out_dir: Path) -> EpochReport:
    """One clustering iteration: cluster, rebuild memory, train one pass.

    With fewer than P clusters there is no PK batch, so the iteration is
    skipped: no memory is built and the parameters stay as they are.
    """
    cfg = state.cfg
    started = time.perf_counter()
    iteration = state.iteration
    epoch = iteration * cfg.epochs_per_iteration  # completed global epochs

    features = extract_all_features(state.pixels, state.backbone)
    lr = lr_at(epoch, cfg)
    if not np.isfinite(features).all():
        raise _failure(out_dir, f"non-finite features at iteration {iteration}", features, None, lr)
    labels = dbscan(pairwise_cosine_distance(features), cfg.eps, cfg.min_pts)
    stats = cluster_summary(labels)
    losses: list[float] = []

    if stats.k >= cfg.batch_p:
        memory = init_memory(features, labels, _derived_seed(cfg.seed, iteration, _TAG_MEMORY))
        params = parameters(state.backbone)
        for sub_epoch in range(cfg.epochs_per_iteration):
            lr = lr_at(epoch + sub_epoch, cfg)
            batches = pk_sampler(
                labels, cfg.batch_p, cfg.batch_k,
                _derived_seed(cfg.seed, iteration, sub_epoch, _TAG_SAMPLER),
            )
            aug_rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, iteration, sub_epoch, _TAG_AUGMENT])
            )
            for batch_idx in batches:
                batch_pixels = state.pixels[batch_idx]
                if cfg.augment:
                    batch_pixels = _augment_batch(batch_pixels, aug_rng)
                targets = labels.labels[batch_idx]
                feats = extract_features(Tensor(decode(batch_pixels)), state.backbone, training=True)
                loss = cluster_nce_loss(feats, targets, memory)
                if not np.isfinite(loss.item()):
                    what = f"non-finite loss {loss.item()} at iteration {iteration}"
                    raise _failure(out_dir, what, features, labels, lr)
                losses.append(loss.item())
                zero_grads(params)
                loss.backward()
                adam_step(params, lr, state.optim)
                batch_hard_update(memory, feats.data, targets)
        state.memory = memory

    state.iteration += 1
    return EpochReport(
        iteration=iteration,
        k=stats.k,
        noise_frac=stats.noise_fraction,
        mean_loss=float(np.mean(losses)) if losses else 0.0,
        lr=lr,
        batches=len(losses),
        seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# checkpoint binding
# ---------------------------------------------------------------------------

def _stored(entries: dict[str, np.ndarray], name: str, path, shape: tuple,
            top: int | None = None) -> np.ndarray:
    """Entry ``name``, refused unless present with ``shape`` (a ``None`` axis takes any length but 0),
    finite and, given ``top``, holding only whole numbers in 0..``top``."""
    if name not in entries:
        raise DataFormatError(f"checkpoint {path} lacks {name!r}")
    value = entries[name]
    if value.ndim != len(shape) or any(
            got == 0 if want is None else got != want for got, want in zip(value.shape, shape)):
        raise DataFormatError(f"checkpoint {path} {name!r} has shape {value.shape}, expected {shape}")
    if not np.isfinite(value).all():
        raise DataFormatError(f"checkpoint {path} {name!r} holds a value that is not finite")
    if top is not None and not np.all((value >= 0) & (value <= top) & (value == np.floor(value))):
        raise DataFormatError(f"checkpoint {path} {name!r} holds a value that is no whole number in 0-{top}")
    return value


def _stored_text(entries: dict[str, np.ndarray], name: str, path) -> str:
    """The UTF-8 text stored under ``name``, one whole float64 per byte (uint8 would wrap 321 to 65)."""
    try:
        return _stored(entries, name, path, (None,), top=255).astype(np.uint8).tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"checkpoint {path} {name} is not UTF-8 text ({exc})") from None


def _refuse_changes(stored: TrainConfig, given: TrainConfig) -> None:
    """ConfigError naming every field of ``given`` that differs from the checkpoint's,
    but for a larger ``clustering_iterations``."""
    old, new = vars(stored), vars(given)
    changed = [f"{k} (checkpoint {old[k]!r}, given {new[k]!r})" for k in old
               if new[k] != old[k] and not (k == "clustering_iterations" and new[k] > old[k])]
    if changed:
        raise ConfigError(f"train config differs from the checkpoint's: {', '.join(changed)}")


def save_run_checkpoint(path: str | Path, state: RunState) -> None:
    entries = named_entries(state.backbone)
    for prefix, moments in (("optim.m.", state.optim.m), ("optim.v.", state.optim.v)):
        entries.update((prefix + name, value) for name, value in moments.items())
    entries["optim.t"] = np.array(float(state.optim.t))
    if state.memory is not None:
        entries["memory.centroids"] = state.memory.centroids
    entries["pipeline.iteration"] = np.array(float(state.iteration))
    entries["backbone.input_hw"] = np.array(state.backbone.input_hw, dtype=np.float64)
    texts = {"meta.train": "\n".join(config_lines(state.cfg)), "meta.data": state.data}
    for name, text in texts.items():  # read back by _stored_text
        entries[name] = np.frombuffer(text.encode("utf-8"), np.uint8).astype(np.float64)
    save_checkpoint(path, entries)


def _load_trained(
    path: str | Path,
) -> tuple[TrainConfig, BackboneParams, MemoryDictionary | None, dict[str, np.ndarray]]:
    """The checkpoint's train config, backbone, final memory (if saved) and raw entries."""
    entries = load_checkpoint(path)
    cfg = _read_config(_stored_text(entries, "meta.train", path), f"checkpoint {path} meta.train")
    input_hw = [int(extent) for extent in _stored(entries, "backbone.input_hw", path, (2,), top=2**53)]
    # A mode with HLA has its position rows, sized by the image, checked before build_backbone allocates them
    row_names = ("mla.hla.r_h", "mla.hla.r_w") if "hla" in STAGES[cfg.attention_mode] else ()
    rows = {name: _stored(entries, name, path, (HEADS, extent // STRIDE, C_MID // HEADS))
            for name, extent in zip(row_names, input_hw)}
    try:
        backbone = build_backbone(input_hw, cfg.attention_mode, cfg.seed)
    except ConfigError as exc:  # the mode passed cfg.validate, so the image size is at fault
        raise DataFormatError(f"checkpoint {path} backbone.input_hw: {exc}") from None
    for name, target in named_entries(backbone).items():
        target[...] = rows[name] if name in rows else _stored(entries, name, path, target.shape)
    memory = None
    if "memory.centroids" in entries:
        memory = MemoryDictionary(_stored(entries, "memory.centroids", path, (None, EMBED_DIM)))
    return cfg, backbone, memory, entries


def load_backbone_from_checkpoint(
    path: str | Path,
) -> tuple[BackboneParams, MemoryDictionary | None, TrainConfig]:
    """Rebuild the backbone, its final memory (None if none was saved) and the run's TrainConfig."""
    cfg, backbone, memory, _ = _load_trained(path)
    return backbone, memory, cfg


def load_run_checkpoint(path: str | Path, cfg: TrainConfig, pixels: np.ndarray) -> RunState:
    """Rebuild a RunState from a checkpoint whose TrainConfig ``cfg`` and pixels match."""
    stored, backbone, memory, entries = _load_trained(path)
    _refuse_changes(stored, cfg)
    stored_data = _stored_text(entries, "meta.data", path)

    t, iteration = (int(_stored(entries, name, path, (), top=2**53))  # float64 counts exactly up to 2**53
                    for name in ("optim.t", "pipeline.iteration"))
    params = parameters(backbone) if t else []  # adam_step gives every parameter both moments
    m, v = ({p.name: _stored(entries, prefix + p.name, path, p.shape) for p in params}
            for prefix in ("optim.m.", "optim.v."))
    stray = [n for n in entries if n.startswith(("optim.m.", "optim.v.")) and n.split(".", 2)[2] not in m]
    if stray:
        raise DataFormatError(f"checkpoint {path} {stray[0]!r} is the moment of no parameter at optim.t {t}")
    state = RunState(cfg=cfg, backbone=backbone, optim=AdamState(m, v, t), pixels=pixels,
                     iteration=iteration, memory=memory)
    if state.data != stored_data:
        raise ConfigError(f"train-split pixels differ from the checkpoint's: "
                          f"sha256 {stored_data} in {path}, {state.data} given")
    return state


def run_training(
    cfg: TrainConfig,
    data_dir: str | Path,
    out_dir: str | Path,
    resume_from: str | Path | None = None,
) -> tuple[Path, list[EpochReport]]:
    """Train for cfg.clustering_iterations, writing report.csv and checkpoint.bin."""
    cfg.validate()
    records = [r for r in load_dataset(data_dir) if r.split == "train"]
    if not records:
        raise DataFormatError(f"no training images found under {data_dir}")
    pixels = stack_pixels(records)

    if resume_from is not None:
        state = load_run_checkpoint(resume_from, cfg, pixels)
    else:
        state = RunState(cfg=cfg, backbone=build_backbone(pixels.shape[1:3], cfg.attention_mode, cfg.seed),
                         optim=AdamState(), pixels=pixels)
    out = Path(out_dir)  # created only once the run is accepted
    out.mkdir(parents=True, exist_ok=True)

    # Calibrate batch-norm running statistics before the first clustering
    # pass; a freshly initialized network otherwise collapses every eval-mode
    # embedding onto one direction and DBSCAN sees a single blob. bn_warmup
    # runs one train-mode forward per image and replays the running-stat
    # updates of all bn_warmup_passes passes.
    if state.iteration == 0 and cfg.clustering_iterations > 0:
        bn_warmup(state.backbone, pixels, cfg.bn_warmup_passes)

    # A resumed run keeps the logged rows before its checkpoint and replaces
    # the rest, so resuming from an older checkpoint duplicates no row. The
    # kept rows go through a temporary file renamed over the report, so a
    # run killed mid-iteration never loses rows that were already on disk.
    report_path = out / "report.csv"
    kept = [REPORT_HEADER]
    if resume_from is not None and report_path.exists():
        for row in report_path.read_text().splitlines()[1:]:
            first = row.split(",", 1)[0]
            if first.isdigit() and int(first) < state.iteration:
                kept.append(row)
    staged = report_path.with_name(report_path.name + ".tmp")
    staged.write_text("".join(line + "\n" for line in kept))
    staged.replace(report_path)
    checkpoint_path = out / "checkpoint.bin"
    reports: list[EpochReport] = []
    with open(report_path, "a") as log:
        while state.iteration < cfg.clustering_iterations:
            report = train_iteration(state, out_dir=out)
            reports.append(report)
            log.write(report.csv_row() + "\n")
            log.flush()
            save_run_checkpoint(checkpoint_path, state)
    if not reports:
        save_run_checkpoint(checkpoint_path, state)
    return checkpoint_path, reports

"""Synthetic confounded pedestrian data, PPM I/O and dataset loading.

Every image is a camera-keyed background plus an identity-keyed figure:

* background: a low-resolution random field, fixed per camera, bilinearly
  upsampled and blended toward mid-gray by (1 - background_strength) —
  the camera confound dial,
* figure: head disc, torso and leg rectangles whose colors and
  proportions are fixed per identity, shifted by a small per-image jitter,
* plus Gaussian pixel noise.

Files are binary PPM (P6, maxval 255) named ``{pid:04d}_c{cam}_{idx:04d}.ppm``
under ``train/``, ``query/`` and ``gallery/``, with a ``manifest.csv``.
Identity and camera ids live only in filenames and records; the training
pipeline consumes pixels alone.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataFormatError

FILENAME_RE = re.compile(r"^(\d+)_c(\d+)_(\d+)\.ppm$")
SPLITS = ("train", "query", "gallery")

# seed-stream tags so the per-camera, per-identity and per-image draws
# never collide
_TAG_CAMERA = 1
_TAG_IDENTITY = 2
_TAG_IMAGE = 3


@dataclass
class ImageRecord:
    """One image as its PPM body, ``raw`` ([h,w,3] uint8, an eighth of its float64 decode), plus its ids."""

    raw: np.ndarray
    pid: int
    camid: int
    split: str
    path: str

    @property
    def pixels(self) -> np.ndarray:
        """[h,w,3] floats in [0,1]: ``decode(raw)``, the bits a decoded stack gives this record."""
        return decode(self.raw)


@dataclass
class SynthSpec:
    num_ids: int = 32
    images_per_id: int = 8
    num_cameras: int = 2
    image_hw: tuple[int, int] = (64, 32)
    background_strength: float = 0.8
    noise_sigma: float = 0.02
    jitter_px: int = 1
    seed: int = 0

    def validate(self) -> None:
        non_finite = [k for k, v in vars(self).items() if isinstance(v, float) and not math.isfinite(v)]
        if non_finite:
            raise ConfigError(f"{', '.join(non_finite)} must be finite")
        if self.num_ids < 2:
            raise ConfigError("num_ids must be at least 2")
        if self.num_cameras < 2:
            raise ConfigError("num_cameras must be at least 2 for cross-camera evaluation")
        if self.images_per_id < max(5, self.num_cameras):
            raise ConfigError(
                "images_per_id must be at least 5 (and at least num_cameras) so every "
                "identity lands in train, query and gallery under multiple cameras"
            )
        if not 0.0 <= self.background_strength <= 1.0:
            raise ConfigError(f"background_strength must lie in [0,1], got {self.background_strength}")
        if min(self.noise_sigma, self.jitter_px, self.seed) < 0:
            raise ConfigError("noise_sigma, jitter_px and seed must be non-negative")
        if len(self.image_hw) != 2 or min(self.image_hw) < 16:
            raise ConfigError(f"image_hw must be (height, width), both at least 16, got {self.image_hw}")


def bilinear_upsample(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-convention bilinear resize of a [h,w] or [h,w,c] array."""
    src_h, src_w = grid.shape[:2]
    ys = np.clip((np.arange(out_h) + 0.5) * src_h / out_h - 0.5, 0.0, src_h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * src_w / out_w - 0.5, 0.0, src_w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, src_h - 1)
    x1 = np.minimum(x0 + 1, src_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    if grid.ndim == 3:
        wy = wy[..., None]
        wx = wx[..., None]
    top = grid[y0][:, x0] * (1 - wx) + grid[y0][:, x1] * wx
    bot = grid[y1][:, x0] * (1 - wx) + grid[y1][:, x1] * wx
    return top * (1 - wy) + bot * wy


def write_ppm(path: str | Path, pixels: np.ndarray) -> np.ndarray:
    """Write [h,w,3] floats in [0,1] as binary 8-bit PPM; returns the uint8 bytes written, undecoded."""
    h, w, c = pixels.shape
    if c != 3:
        raise DataFormatError(f"PPM needs 3 channels, got {c}")
    data = np.clip(np.round(pixels * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
    return data


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary 8-bit PPM's body as [h,w,3] uint8, undecoded (``decode`` makes floats)."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    if blob[:2] != b"P6":
        raise DataFormatError(f"{path}: not a binary PPM (magic {blob[:2]!r})")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":  # comment runs to end of line
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        token = blob[start:pos]
        if not token.isdigit():
            raise DataFormatError(f"{path}: malformed PPM header token {token!r}")
        fields.append(int(token))
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise DataFormatError(f"{path}: only maxval 255 supported, got {maxval}")
    need = h * w * 3
    raw = blob[pos:pos + need]
    if len(raw) != need:
        raise DataFormatError(f"{path}: truncated pixel data ({len(raw)} of {need} bytes)")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)


# Generator proportions. Backgrounds are low-frequency fields; the figure
# is a head disc, torso box and leg strips in per-identity colors.
_FIELD_CELL = 8  # one random field cell per this many pixels
_FIELD_RANGE = (0.0, 1.0)
_HEAD_CY, _HEAD_R = 0.14, 0.10  # fractions of image height
_TORSO_TOP, _TORSO_BOT = 0.22, 0.58
_HALFWIDTH_RANGE = (0.24, 0.34)  # fraction of image width
_LEG_LENGTH_RANGE = (0.36, 0.46)  # fraction of image height
_LEG_GAP = 0.15  # inner gap as a fraction of the torso halfwidth
_HEAD_COLOR_LO = 0.3


def _camera_background(spec: SynthSpec, camid: int) -> np.ndarray:
    """Smooth random field per camera, blended toward gray by the dial."""
    h, w = spec.image_hw
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, _TAG_CAMERA, camid]))
    lo, hi = _FIELD_RANGE
    field = rng.uniform(lo, hi, size=(max(2, h // _FIELD_CELL), max(2, w // _FIELD_CELL), 3))
    smooth = bilinear_upsample(field, h, w)
    return spec.background_strength * smooth + (1.0 - spec.background_strength) * 0.5


@dataclass
class _FigureStyle:
    head_color: np.ndarray
    torso_color: np.ndarray
    leg_color: np.ndarray
    torso_halfwidth: float  # fraction of image width
    leg_length: float  # fraction of image height


def _identity_style(spec: SynthSpec, pid: int) -> _FigureStyle:
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, _TAG_IDENTITY, pid]))
    return _FigureStyle(
        head_color=rng.uniform(_HEAD_COLOR_LO, 1.0, size=3),
        torso_color=rng.uniform(0.0, 1.0, size=3),
        leg_color=rng.uniform(0.0, 1.0, size=3),
        torso_halfwidth=rng.uniform(*_HALFWIDTH_RANGE),
        leg_length=rng.uniform(*_LEG_LENGTH_RANGE),
    )


def _draw_figure(canvas: np.ndarray, style: _FigureStyle, dy: int, dx: int) -> np.ndarray:
    """Paint the jitter-shifted figure; returns the foreground mask."""
    h, w, _ = canvas.shape
    yy, xx = np.mgrid[0:h, 0:w]
    cx = w / 2 + dx
    head_cy = _HEAD_CY * h + dy
    head_r = _HEAD_R * h
    torso_top = _TORSO_TOP * h + dy
    torso_bot = _TORSO_BOT * h + dy
    leg_bot = torso_bot + style.leg_length * h
    half_w = style.torso_halfwidth * w
    leg_gap = _LEG_GAP * half_w

    head = (yy - head_cy) ** 2 + (xx - cx) ** 2 <= head_r**2
    torso = (yy >= torso_top) & (yy < torso_bot) & (np.abs(xx - cx) <= half_w)
    legs = (
        (yy >= torso_bot)
        & (yy < leg_bot)
        & (np.abs(xx - cx) <= half_w)
        & (np.abs(xx - cx) >= leg_gap)
    )
    canvas[head] = style.head_color
    canvas[torso] = style.torso_color
    canvas[legs] = style.leg_color
    return head | torso | legs


def _image_draws(spec: SynthSpec, pid: int, camid: int, idx: int) -> tuple[np.random.Generator, int, int]:
    """One image's random stream and, drawn first from it, the figure's jitter (dy, dx)."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, _TAG_IMAGE, pid, camid, idx]))
    dy = int(rng.integers(-spec.jitter_px, spec.jitter_px + 1))
    dx = int(rng.integers(-spec.jitter_px, spec.jitter_px + 1))
    return rng, dy, dx


def _render(spec: SynthSpec, pid: int, camid: int, idx: int,
            background: np.ndarray, style: _FigureStyle) -> np.ndarray:
    """One image on a camera background and an identity style rendered beforehand."""
    rng, dy, dx = _image_draws(spec, pid, camid, idx)
    canvas = background.copy()
    _draw_figure(canvas, style, dy, dx)
    if spec.noise_sigma > 0:
        canvas = canvas + rng.normal(0.0, spec.noise_sigma, size=canvas.shape)
    return np.clip(canvas, 0.0, 1.0)


def figure_mask(spec: SynthSpec, pid: int, camid: int, idx: int) -> np.ndarray:
    """The foreground mask the renderer would paint for this image."""
    _, dy, dx = _image_draws(spec, pid, camid, idx)
    return _draw_figure(np.zeros((*spec.image_hw, 3)), _identity_style(spec, pid), dy, dx)


def split_counts(images_per_id: int) -> tuple[int, int, int]:
    """60/20/20 per identity: train rounds up, query rounds down, rest gallery."""
    n_train = math.ceil(0.6 * images_per_id)
    n_query = math.floor(0.2 * images_per_id)
    return n_train, n_query, images_per_id - n_train - n_query


def synth_generate(spec: SynthSpec, out_dir: str | Path) -> list[ImageRecord]:
    """Write the dataset and manifest under out_dir; returns the records, holding the bytes written.

    Each camera's background and each identity's style is rendered once.

    Refuses a split folder that already holds a file, before writing
    anything: ``load_dataset`` would read the old images beside the new.
    """
    spec.validate()
    out = Path(out_dir)
    for split in SPLITS:
        used = sorted(p for p in (out / split).glob("*") if p.is_file())
        if used:
            raise DataFormatError(f"{used[0]}: synth needs a new or empty directory, {out / split} is in use")
    try:
        for split in SPLITS:
            (out / split).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataFormatError(f"cannot create dataset directory {out}: {exc}") from exc

    n_train, n_query, _ = split_counts(spec.images_per_id)
    backgrounds = {camid: _camera_background(spec, camid) for camid in range(1, spec.num_cameras + 1)}
    records: list[ImageRecord] = []
    for pid in range(spec.num_ids):
        style = _identity_style(spec, pid)
        for idx in range(spec.images_per_id):
            camid = idx % spec.num_cameras + 1
            if idx < n_train:
                split = "train"
            elif idx < n_train + n_query:
                split = "query"
            else:
                split = "gallery"
            rel = f"{split}/{pid:04d}_c{camid}_{idx:04d}.ppm"
            try:
                raw = write_ppm(out / rel, _render(spec, pid, camid, idx, backgrounds[camid], style))
            except OSError as exc:
                raise DataFormatError(f"cannot write {out / rel}: {exc}") from exc
            records.append(ImageRecord(raw=raw, pid=pid, camid=camid, split=split, path=rel))

    with open(out / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "pid", "camid", "split"])
        for rec in records:
            writer.writerow([rec.path, rec.pid, rec.camid, rec.split])
    return records


def load_dataset(root: str | Path) -> list[ImageRecord]:
    """Read all splits back into records, ordered lexicographically by path.

    A missing ``root`` is a ``DataFormatError`` naming it, before any file is read.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataFormatError(f"data directory {root} does not exist")
    records: list[ImageRecord] = []
    for split in SPLITS:
        split_dir = root / split
        if not split_dir.is_dir():
            continue
        for path in split_dir.iterdir():
            if not path.is_file():
                continue
            match = FILENAME_RE.match(path.name)
            if match is None:
                raise DataFormatError(
                    f"{path}: filename does not match pid_c<cam>_<idx>.ppm convention"
                )
            pid, camid = int(match.group(1)), int(match.group(2))
            records.append(
                ImageRecord(
                    raw=read_ppm(path),
                    pid=pid,
                    camid=camid,
                    split=split,
                    path=f"{split}/{path.name}",
                )
            )
    records.sort(key=lambda r: r.path)
    return records


def stack_pixels(records: list[ImageRecord]) -> np.ndarray:
    """Pixels only, [n,h,w,3] uint8 file bytes to ``decode`` a chunk at a time; no pid or camid."""
    for rec in records:
        if rec.raw.shape != records[0].raw.shape:
            raise DataFormatError(f"{rec.path} has shape {rec.raw.shape}, "
                                  f"but {records[0].path} has {records[0].raw.shape}")
    return np.stack([rec.raw for rec in records])


def decode(raw: np.ndarray, buffer: np.ndarray | None = None) -> np.ndarray:
    """Floats in [0,1] from uint8 pixels, the one decode; a chunk gets a whole stack's bits.

    Given a float64 ``buffer`` with room for ``raw``, its leading rows receive them. Other
    dtypes are refused: a float stack would be divided by 255 a second time.
    """
    if raw.dtype != np.uint8:
        raise ContractError(f"decode expects uint8 pixels, got {raw.dtype}")
    return np.divide(raw, 255.0, out=None if buffer is None else buffer[:len(raw)])

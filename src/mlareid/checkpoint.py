"""Flat binary checkpoints with bit-exact float64 round-trips.

Layout: the 4-byte magic ``MLA1``, then one entry per array — name length
(u32 LE), the UTF-8 name, rank (u32 LE), one extent per axis (u64 LE),
then the raw float64 little-endian data in row-major order. Entry names
must be unique; order is preserved.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ContractError, DataFormatError

MAGIC = b"MLA1"


def save_checkpoint(path: str | Path, entries: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays to ``path`` in insertion order."""
    blob = bytearray(MAGIC)
    for name, array in entries.items():
        if not name:
            raise ContractError("checkpoint entry names must be non-empty")
        arr = np.asarray(array, dtype=np.float64)  # keep rank-0 shapes intact
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded))
        blob += encoded
        blob += struct.pack("<I", arr.ndim)
        for extent in arr.shape:
            blob += struct.pack("<Q", extent)
        blob += arr.astype("<f8", copy=False).tobytes()
    # A sibling temporary file renamed over the target, so an interrupted
    # write leaves any earlier checkpoint intact.
    path = Path(path)
    staged = path.with_name(path.name + ".tmp")
    try:
        staged.write_bytes(bytes(blob))
        staged.replace(path)
    finally:
        staged.unlink(missing_ok=True)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into name -> array, preserving file order."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataFormatError(f"cannot read checkpoint {path}: {exc}") from exc
    if blob[:4] != MAGIC:
        raise DataFormatError(f"{path}: bad checkpoint magic {blob[:4]!r}, expected {MAGIC!r}")
    entries: dict[str, np.ndarray] = {}
    pos = 4
    total = len(blob)

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > total:
            raise DataFormatError(f"{path}: truncated checkpoint while reading {what}")
        chunk = blob[pos:pos + n]
        pos += n
        return chunk

    while pos < total:
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        raw_name = take(name_len, "name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(
                f"{path}: checkpoint entry {len(entries)} name {raw_name!r} is not UTF-8 ({exc})"
            ) from None
        if name in entries:
            raise DataFormatError(f"{path}: duplicate checkpoint entry {name!r}")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        shape = tuple(
            struct.unpack("<Q", take(8, f"extent {i} of {name!r}"))[0] for i in range(rank)
        )
        count = 1
        for extent in shape:
            count *= extent
        raw = take(8 * count, f"data of {name!r}")
        entries[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    return entries

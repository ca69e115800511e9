"""Binary checkpoint round-trips and corruption handling."""

import struct
from pathlib import Path

import numpy as np
import pytest

from mlareid.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from mlareid.errors import DataFormatError


class TestRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        """Arrays of assorted ranks come back byte-identical, in order."""
        rng = np.random.default_rng(0)
        entries = {
            "backbone.stem.kernel": rng.standard_normal((3, 3, 3, 16)),
            "scalar.tau": np.array(0.05),
            "memory.centroids": rng.standard_normal((7, 64)),
            "pipeline.iteration": np.array(12.0),
        }
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, entries)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(entries)
        for name, arr in entries.items():
            assert loaded[name].shape == np.asarray(arr).shape
            assert loaded[name].tobytes() == np.asarray(arr, dtype=np.float64).tobytes()

    def test_special_values_survive(self, tmp_path):
        """Signed zeros, denormals and extreme magnitudes round-trip bit-exactly."""
        vals = np.array([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e-300])
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"edge": vals})
        assert load_checkpoint(path)["edge"].tobytes() == vals.tobytes()

    def test_empty_checkpoint(self, tmp_path):
        """A checkpoint with no entries is just the magic and loads empty."""
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {})
        assert path.read_bytes() == MAGIC
        assert load_checkpoint(path) == {}

    def test_file_layout_is_as_documented(self, tmp_path):
        """The on-disk bytes follow magic, u32 name len, name, u32 rank, u64 extents, f64 data."""
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"ab": np.array([[1.0, 2.0]])})
        raw = path.read_bytes()
        expect = MAGIC
        expect += struct.pack("<I", 2) + b"ab"
        expect += struct.pack("<I", 2) + struct.pack("<Q", 1) + struct.pack("<Q", 2)
        expect += np.array([1.0, 2.0]).astype("<f8").tobytes()
        assert raw == expect


class TestAtomicWrite:
    def test_interrupted_write_keeps_earlier_checkpoint(self, tmp_path, monkeypatch):
        """A write that dies halfway leaves the old file byte-equal and no temp file."""
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"w": np.arange(4.0)})
        before = path.read_bytes()
        real_write_bytes = Path.write_bytes

        def write_half_then_fail(self, data):
            real_write_bytes(self, data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, {"w": np.arange(100.0)})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]


class TestCorruption:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(DataFormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_data_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"w": np.arange(10.0)})
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"w": np.array([1.0])})
        body = path.read_bytes()
        path.write_bytes(body + body[4:])
        with pytest.raises(DataFormatError, match="duplicate"):
            load_checkpoint(path)

    def test_name_not_utf8_rejected_naming_file_and_entry(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"w": np.array([1.0]), "bias": np.array([2.0])})
        blob = bytearray(path.read_bytes())
        blob[blob.index(b"bias")] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match=r"ckpt\.bin: checkpoint entry 1 name b'\\xffias' is not"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.bin")

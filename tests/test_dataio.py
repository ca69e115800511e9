"""Synthetic generator, PPM round-trips and dataset loading."""

import gc
import tracemalloc

import numpy as np
import pytest

from mlareid.dataio import (
    FILENAME_RE,
    SynthSpec,
    bilinear_upsample,
    decode,
    figure_mask,
    load_dataset,
    read_ppm,
    split_counts,
    stack_pixels,
    synth_generate,
    write_ppm,
)
from mlareid.errors import ConfigError, ContractError, DataFormatError


def small_spec(**overrides):
    base = dict(
        num_ids=4, images_per_id=6, num_cameras=2, image_hw=(32, 16),
        background_strength=0.8, noise_sigma=0.02, jitter_px=1, seed=0,
    )
    base.update(overrides)
    return SynthSpec(**base)


def rendered(spec, out_dir):
    """Each image ``synth_generate`` writes, as pixels keyed by its filename's (pid, camid, idx)."""
    images = {}
    for rec in synth_generate(spec, out_dir):
        pid, camid, idx = map(int, FILENAME_RE.match(rec.path.split("/")[1]).groups())
        images[pid, camid, idx] = rec.pixels
    return images


class TestBilinearUpsample:
    def test_two_by_two_to_four_by_four_hand_case(self):
        """Half-pixel bilinear weights on [[0,1],[2,3]] match the hand grid."""
        out = bilinear_upsample(np.array([[0.0, 1.0], [2.0, 3.0]]), 4, 4)
        expect = np.array(
            [
                [0.0, 0.25, 0.75, 1.0],
                [0.5, 0.75, 1.25, 1.5],
                [1.5, 1.75, 2.25, 2.5],
                [2.0, 2.25, 2.75, 3.0],
            ]
        )
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_constant_grid_stays_constant(self):
        out = bilinear_upsample(np.full((3, 2), 0.7), 9, 8)
        np.testing.assert_allclose(out, 0.7, atol=1e-12)

    def test_channel_dimension_passes_through(self):
        rng = np.random.default_rng(0)
        grid = rng.uniform(size=(2, 2, 3))
        out = bilinear_upsample(grid, 4, 4)
        assert out.shape == (4, 4, 3)
        for c in range(3):
            np.testing.assert_allclose(out[..., c], bilinear_upsample(grid[..., c], 4, 4))


class TestPpm:
    def test_round_trip_is_exact_after_quantization(self, tmp_path):
        rng = np.random.default_rng(1)
        pixels = rng.uniform(0, 1, size=(5, 7, 3))
        path = tmp_path / "img.ppm"
        written = write_ppm(path, pixels)
        loaded = read_ppm(path)
        assert loaded.dtype == written.dtype == np.uint8
        np.testing.assert_array_equal(loaded, np.round(pixels * 255))
        np.testing.assert_array_equal(written, loaded)

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "img.ppm"
        body = bytes([10, 20, 30] * 2)
        path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + body)
        loaded = read_ppm(path)
        assert loaded.shape == (1, 2, 3)
        np.testing.assert_array_equal(loaded[0, 0], [10, 20, 30])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P5\n2 1\n255\n" + b"\x00" * 6)
        with pytest.raises(DataFormatError, match="magic"):
            read_ppm(path)

    def test_truncated_pixels_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(DataFormatError, match="truncated"):
            read_ppm(path)

    def test_unsupported_maxval_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
        with pytest.raises(DataFormatError, match="maxval"):
            read_ppm(path)


class TestSplitCounts:
    @pytest.mark.parametrize("m,expect", [(5, (3, 1, 1)), (8, (5, 1, 2)), (10, (6, 2, 2))])
    def test_rounding(self, m, expect):
        """Train rounds up from 60%, query rounds down from 20%, rest gallery."""
        assert split_counts(m) == expect


class TestSynthGenerate:
    def test_determinism_is_bit_level(self, tmp_path):
        """The same spec writes byte-identical files into two directories."""
        spec = small_spec()
        a, b = tmp_path / "a", tmp_path / "b"
        ra = synth_generate(spec, a)
        synth_generate(spec, b)
        for rec in ra:
            assert (a / rec.path).read_bytes() == (b / rec.path).read_bytes()
        assert (a / "manifest.csv").read_text() == (b / "manifest.csv").read_text()

    def test_filenames_match_grammar_and_splits_cover_every_pid(self, tmp_path):
        spec = small_spec()
        records = synth_generate(spec, tmp_path)
        assert len(records) == spec.num_ids * spec.images_per_id
        for rec in records:
            assert FILENAME_RE.match(rec.path.split("/")[1]), rec.path
        for split in ("train", "query", "gallery"):
            pids = {r.pid for r in records if r.split == split}
            assert pids == set(range(spec.num_ids)), split

    def test_every_identity_seen_by_both_cameras(self, tmp_path):
        records = synth_generate(small_spec(), tmp_path)
        for pid in range(4):
            cams = {r.camid for r in records if r.pid == pid}
            assert cams == {1, 2}

    def test_zero_background_makes_cameras_indistinguishable(self, tmp_path):
        """With the confound dial at 0 the same pid renders identically everywhere."""
        images = rendered(small_spec(background_strength=0.0, noise_sigma=0.0, jitter_px=0), tmp_path)
        assert images[1, 1, 0].tobytes() == images[1, 2, 1].tobytes()

    def test_full_background_shared_within_camera(self, tmp_path):
        """At dial 1 two pids under one camera agree outside both figures."""
        spec = small_spec(background_strength=1.0, noise_sigma=0.0, jitter_px=0)
        images = rendered(spec, tmp_path)
        a, b = images[0, 1, 0], images[1, 1, 0]
        outside = ~(figure_mask(spec, 0, 1, 0) | figure_mask(spec, 1, 1, 0))
        assert outside.any()
        np.testing.assert_array_equal(a[outside], b[outside])

    def test_confound_trap_direction(self, tmp_path):
        """At dial 1, same-camera strangers look closer than cross-camera selves."""
        images = rendered(small_spec(num_ids=6, background_strength=1.0), tmp_path)
        same_cam_diff_pid = []
        diff_cam_same_pid = []
        for pid in range(6):
            for other in range(6):
                if other != pid:
                    same_cam_diff_pid.append(
                        np.abs(images[pid, 1, 0] - images[other, 1, 2]).mean()
                    )
            diff_cam_same_pid.append(
                np.abs(images[pid, 1, 0] - images[pid, 2, 1]).mean()
            )
        assert np.mean(same_cam_diff_pid) < np.mean(diff_cam_same_pid)

    def test_manifest_lists_every_file(self, tmp_path):
        spec = small_spec()
        records = synth_generate(spec, tmp_path)
        lines = (tmp_path / "manifest.csv").read_text().strip().splitlines()
        assert lines[0] == "path,pid,camid,split"
        assert len(lines) == len(records) + 1

    def test_used_directory_refused_before_writing(self, tmp_path):
        """A second set into a used directory is refused, naming a file, and nothing is written."""
        synth_generate(small_spec(num_ids=6, seed=1), tmp_path)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        with pytest.raises(DataFormatError, match="train/0000_c1_0000.ppm"):
            synth_generate(small_spec(num_ids=4, seed=2), tmp_path)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert len(load_dataset(tmp_path)) == 6 * 6

    def test_empty_split_folders_are_reused(self, tmp_path):
        for split in ("train", "query", "gallery"):
            (tmp_path / split).mkdir()
        assert len(synth_generate(small_spec(), tmp_path)) == len(load_dataset(tmp_path))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_ids=1),
            dict(num_cameras=1),
            dict(images_per_id=3),
            dict(background_strength=1.5),
            dict(image_hw=(8, 8)),
            dict(jitter_px=-1),
            dict(noise_sigma=float("nan")),
            dict(noise_sigma=float("inf")),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs, tmp_path):
        with pytest.raises(ConfigError):
            synth_generate(small_spec(**kwargs), tmp_path)


class TestLoadDataset:
    def test_round_trip_recovers_identities(self, tmp_path):
        """Loading a generated set recovers the pid inventory and the returned pixels exactly."""
        spec = small_spec()
        written = synth_generate(spec, tmp_path)
        loaded = load_dataset(tmp_path)
        assert len(loaded) == len(written)
        assert {r.pid for r in loaded} == set(range(spec.num_ids))
        by_path = {r.path: r for r in written}
        for rec in loaded:
            assert rec.pixels.tobytes() == by_path[rec.path].pixels.tobytes(), rec.path

    def test_filename_parse(self, tmp_path):
        (tmp_path / "train").mkdir()
        write_ppm(tmp_path / "train" / "0003_c1_0007.ppm", np.zeros((4, 4, 3)))
        rec = load_dataset(tmp_path)[0]
        assert rec.pid == 3 and rec.camid == 1 and rec.split == "train"

    def test_empty_directories_load_empty(self, tmp_path):
        (tmp_path / "train").mkdir()
        assert load_dataset(tmp_path) == []

    def test_malformed_filename_names_the_file(self, tmp_path):
        (tmp_path / "train").mkdir()
        bad = tmp_path / "train" / "notaname.ppm"
        write_ppm(bad, np.zeros((4, 4, 3)))
        with pytest.raises(DataFormatError, match="notaname"):
            load_dataset(tmp_path)

    def test_ordering_is_lexicographic(self, tmp_path):
        synth_generate(small_spec(), tmp_path)
        paths = [r.path for r in load_dataset(tmp_path)]
        assert paths == sorted(paths)

    def test_stack_pixels_shape(self, tmp_path):
        records = synth_generate(small_spec(), tmp_path)
        train = [r for r in records if r.split == "train"]
        stacked = stack_pixels(train)
        assert stacked.shape == (len(train), 32, 16, 3)

    def test_stack_pixels_mixed_sizes_name_the_odd_record(self, tmp_path):
        """A record whose size differs from the first's is a data-format error naming both."""
        train = [r for r in synth_generate(small_spec(), tmp_path) if r.split == "train"]
        odd = train[3]
        odd.raw = np.zeros((16, 16, 3), dtype=np.uint8)
        with pytest.raises(DataFormatError) as info:
            stack_pixels(train)
        message = str(info.value)
        assert odd.path in message and train[0].path in message
        assert "(16, 16, 3)" in message and "(32, 16, 3)" in message


class TestRecordBytes:
    """Records and stacks hold the files' 8-bit bytes; ``decode`` is the one float conversion."""

    def test_stack_pixels_is_the_bytes_over_255(self, tmp_path):
        """Bit for bit, on synth and on loaded records, with pixels at 0 and 255."""
        spec = small_spec(background_strength=1.0, noise_sigma=0.5)
        written = synth_generate(spec, tmp_path)
        for records in (written, load_dataset(tmp_path)):
            raw = np.stack([r.raw for r in records])
            assert raw.dtype == np.uint8 and (raw == 0).any() and (raw == 255).any()
            assert stack_pixels(records).tobytes() == raw.tobytes()
            stacked = decode(stack_pixels(records))
            assert stacked.dtype == np.float64
            assert stacked.tobytes() == np.stack([r.raw / 255.0 for r in records]).tobytes()
            assert stacked.tobytes() == np.stack([r.pixels for r in records]).tobytes()
            assert decode(raw[3:7]).tobytes() == stacked[3:7].tobytes()
            buffer = np.full((8, *raw.shape[1:]), np.nan)
            assert decode(raw[3:7], buffer).tobytes() == stacked[3:7].tobytes()
            assert buffer[:4].tobytes() == stacked[3:7].tobytes() and np.isnan(buffer[4:]).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_decode_refuses_all_but_bytes_naming_the_dtype(self, dtype):
        """A float stack would otherwise be divided by 255 a second time."""
        with pytest.raises(ContractError, match=np.dtype(dtype).name):
            decode(np.ones((2, 4, 4, 3), dtype=dtype))

    def test_records_hold_under_two_bytes_per_channel(self, tmp_path):
        """Synth's and load_dataset's records hold under 2 n*h*w*3 bytes; float64 would hold 8."""
        spec = small_spec(image_hw=(64, 32))
        synth_generate(spec, tmp_path / "warm")  # first-call caches are not the records'
        load_dataset(tmp_path / "warm")
        bound = 2 * spec.num_ids * spec.images_per_id * 64 * 32 * 3

        def held(make):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                records = make()
                gc.collect()
                size = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(records) == spec.num_ids * spec.images_per_id
            return size

        assert held(lambda: synth_generate(spec, tmp_path / "data")) < bound
        assert held(lambda: load_dataset(tmp_path / "data")) < bound

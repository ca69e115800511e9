"""Backbone construction, forward contracts and embedding head."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from mlareid.attention import MODES
from mlareid.autodiff import Tensor, finite_diff_check
from mlareid.backbone import (
    EMBED_DIM,
    build_backbone,
    embed_from_featuremap,
    extract_features,
    forward_to_featuremap,
    named_entries,
)
from mlareid.contrast import MemoryDictionary, cluster_nce_loss
from mlareid.checkpoint import load_checkpoint, save_checkpoint
from mlareid.errors import ConfigError, DataFormatError, DimensionError
from mlareid.layers import parameters
from mlareid.pipeline import AdamState, RunState, TrainConfig, load_backbone_from_checkpoint, save_run_checkpoint
from conftest import pin_cores, small_backbone, weighted_sum

# sha256 of the newline-joined named_entries() keys of the desk network (64x32 images), per mode
LAYOUT_SHA256 = {
    "baseline": "16cf4dde523aa14701af80f44bdcca42ea853fc9c6beae8af492bd4b8b838e70",
    "pla": "62301dd1f01a796c9b38e64dcbb949c684c8c1d5694a4f0200389a463fda5d32",
    "hla": "9e9b065ba28d1c9815f9d208c7ed0d7a0753f21cddf5884dc79c7fe954aa422c",
    "pla+hla": "fc4616621bdc9e8fbdc394a7b4474fe8af8822f8b3cc111c6da06b5c0b0c996b",
    "dla": "d86addfe81d8a819f9a00d082dd9b11dc2f3d1e5a95c2079106f25c2ba9ab7f7",
    "all": "9c9718f0954e491363581031286fe7b097bc44711602d7987a669557f068280b",
}

# sha256 of the concatenated bytes of those entries at seed 0, per mode: the initial values and the
# order of the draws that make them
INIT_SHA256 = {
    "baseline": "e79356b1c4761db6e97078e2b62f612b7c1726aace29ff9f67cfa43ea4b57492",
    "pla": "c023e98b082d05a3645339a7c1a8b713aaef4b80d974d2f90f029e3db3d99a08",
    "hla": "a9f6eb98e62f5dffc5ba4736b21526e84c2a5ad012866b7c2b8e76b57b08be4e",
    "pla+hla": "a66652d90c49d4b9dcc5ecde796f78c68632e639b6cb5569300c3bfc625e2788",
    "dla": "683e3fdd11ee03d2159dfd604c564a6a7b0c62be70f4576337b7738ca6a59784",
    "all": "9ed151a09c84e0656ec6c04650ae07bc3605e6f3da3741d88ae907610ffa2128",
}


class TestBuild:
    def test_same_seed_is_bit_identical(self):
        """Two builds from one seed agree on every parameter and stat."""
        a = small_backbone(seed=5)
        b = small_backbone(seed=5)
        ea, eb = named_entries(a), named_entries(b)
        assert ea.keys() == eb.keys()
        for name in ea:
            assert ea[name].tobytes() == eb[name].tobytes(), name

    def test_desk_config_final_map_shape(self):
        """The desk network maps 2x64x32x3 images to a 2x8x4x64 map."""
        params = build_backbone((64, 32), "all", 0)
        x = Tensor(np.random.default_rng(0).uniform(0, 1, size=(2, 64, 32, 3)))
        fmap = forward_to_featuremap(x, params, training=False)
        assert fmap.shape == (2, 8, 4, 64)

    def test_baseline_mode_allocates_no_attention(self):
        params = small_backbone("baseline", 1)
        assert params.mla.pla is None and params.mla.hla is None and params.mla.dla is None

    def test_mode_swap_changes_only_the_last_block(self):
        """Trunk and embedding parameters are bit-identical across modes."""
        a = small_backbone("all", 7)
        b = small_backbone("baseline", 7)
        names_a = {p.name: p.data for p in parameters(a) if not p.name.startswith("mla.")}
        names_b = {p.name: p.data for p in parameters(b) if not p.name.startswith("mla.")}
        assert names_a.keys() == names_b.keys()
        for name in names_a:
            assert names_a[name].tobytes() == names_b[name].tobytes(), name

    def test_dla_transposed_init_survives_build(self):
        params = small_backbone("all", 3)
        k = params.mla.dla.k_d.data[0, 0]
        v = params.mla.dla.v_d.data[0, 0]
        assert v.tobytes() == k.T.copy().tobytes()

    @pytest.mark.parametrize(
        "input_hw, mode, why",
        [
            ((64,), "all", "input_hw must be two extents"),
            ((8, 16), "all", "final feature map 1x2 is below 2x2"),
            ((60, 32), "all", "input 60x32 is not divisible by the total stride 8"),
            ((64, 32), "everything", "unknown attention mode 'everything'"),
        ],
    )
    def test_invalid_configs_rejected(self, input_hw, mode, why):
        """Collapsed maps, bad strides and modes all fail."""
        with pytest.raises(ConfigError, match=why):
            build_backbone(input_hw, mode, 0)


class TestForward:
    def test_zero_image_zero_stem_gives_zero_map(self):
        """With a zeroed stem and baseline mode a zero image stays zero."""
        params = small_backbone("baseline", 2)
        params.stem.data[:] = 0.0
        out = forward_to_featuremap(Tensor(np.zeros((1, 16, 16, 3))), params, training=False)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_eval_mode_is_idempotent(self):
        """Two eval-mode passes over one batch are bit-identical."""
        params = small_backbone(seed=4)
        x = Tensor(np.random.default_rng(1).uniform(0, 1, size=(3, 16, 16, 3)))
        a = forward_to_featuremap(x, params, training=False).data
        b = forward_to_featuremap(x, params, training=False).data
        assert a.tobytes() == b.tobytes()

    def test_wrong_input_shape_raises(self):
        params = small_backbone(seed=4)
        with pytest.raises(DimensionError, match="expects input"):
            forward_to_featuremap(Tensor(np.zeros((1, 8, 8, 3))), params, training=False)

    def test_training_mode_updates_running_stats(self):
        """A training pass moves the stem batch-norm running stats."""
        params = small_backbone(seed=8)
        before = params.stem_bn.running_mean.copy()
        x = Tensor(np.random.default_rng(2).uniform(0, 1, size=(2, 16, 16, 3)))
        forward_to_featuremap(x, params, training=True)
        assert not np.array_equal(before, params.stem_bn.running_mean)

    def test_checkpoint_entries_are_the_arrays_training_moves(self):
        """Running stats update in place: entries named before a training pass hold its update."""
        params = small_backbone(seed=8)
        entries = named_entries(params)
        before = entries["backbone.stem_bn.running_mean"].copy()
        x = Tensor(np.random.default_rng(2).uniform(0, 1, size=(2, 16, 16, 3)))
        forward_to_featuremap(x, params, training=True)
        assert entries["backbone.stem_bn.running_mean"] is params.stem_bn.running_mean
        assert entries["backbone.stem_bn.running_var"] is params.stem_bn.running_var
        assert not np.array_equal(before, entries["backbone.stem_bn.running_mean"])


class TestFeatures:
    def test_rows_are_unit_norm(self):
        params = small_backbone(seed=6)
        x = Tensor(np.random.default_rng(3).uniform(0, 1, size=(4, 16, 16, 3)))
        feats = extract_features(x, params, training=False).data
        np.testing.assert_allclose(np.linalg.norm(feats, axis=1), np.ones(4), atol=1e-9)

    def test_identical_images_identical_rows(self):
        params = small_backbone(seed=6)
        img = np.random.default_rng(4).uniform(0, 1, size=(16, 16, 3))
        feats = extract_features(Tensor(np.stack([img, img])), params, training=False).data
        assert feats[0].tobytes() == feats[1].tobytes()

    def test_cosine_similarity_is_dot_product(self):
        """Unit-norm rows make dot product and cosine similarity coincide."""
        params = small_backbone(seed=6)
        x = Tensor(np.random.default_rng(5).uniform(0, 1, size=(2, 16, 16, 3)))
        f = extract_features(x, params, training=False).data
        dot = float(f[0] @ f[1])
        cos = dot / (np.linalg.norm(f[0]) * np.linalg.norm(f[1]))
        np.testing.assert_allclose(dot, cos, atol=1e-9)

    def test_embedding_gradients_against_finite_differences(self):
        """Gradients w.r.t. the embedding weight survive the deep composition."""
        params = small_backbone(seed=9)
        x = Tensor(np.random.default_rng(6).uniform(0, 1, size=(1, 16, 16, 3)))
        fmap = forward_to_featuremap(x, params, training=False).detach()
        target = Tensor(np.random.default_rng(7).standard_normal((1, EMBED_DIM)))
        err = finite_diff_check(lambda _: weighted_sum(embed_from_featuremap(fmap, params), target), params.embed_w)
        assert err < 1e-3

    def test_full_network_input_gradients(self):
        """A whole-network scalar passes finite differences on a small input."""
        params = small_backbone(seed=11)
        x0 = np.random.default_rng(8).uniform(0.1, 0.9, size=(1, 16, 16, 3))
        v = np.random.default_rng(9).standard_normal((1, EMBED_DIM))

        def run(t):
            return weighted_sum(extract_features(t, params, training=False), Tensor(v))

        assert finite_diff_check(run, x0) < 1e-3


class TestTapeMemory:
    def test_train_step_tape_holds_no_copies(self, monkeypatch):
        """A desk-size train step keeps only what backward reads.

        Default config, mode all, 16 images of 64x32 against a fixed memory:
        a tape that also kept padded conv inputs, batch norm's centered
        input or every activation until backward returned read 77 MiB live
        after the forward and 79 MiB at backward's peak; one that kept the
        batch-norm outputs only a following ReLU read (no fused node) read
        44.1 and 45.4 MiB. Fused nodes read 36.6 MiB live. Backward runs on
        one core here, so its peak has one mode, 37.67-37.70 MiB (15 runs);
        on two cores it read 37.9 or 41.1 MiB, as the worker's
        parameter-gradient rules happened to overlap the input rules.
        """
        pin_cores(monkeypatch, 1)
        params = build_backbone((64, 32), "all", 0)
        rng = np.random.default_rng(7)
        images = Tensor(rng.uniform(0.0, 1.0, (16, *params.input_hw, 3)))
        centroids = rng.standard_normal((4, EMBED_DIM))
        memory = MemoryDictionary(centroids / np.linalg.norm(centroids, axis=1, keepdims=True))
        mib = 2.0 ** 20
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            loss = cluster_nce_loss(extract_features(images, params, training=True), np.arange(16) % 4, memory)
            live = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert all(p.grad is not None for p in parameters(params))
        assert live <= 40 * mib, live / mib
        assert peak <= 39 * mib, peak / mib


class TestEntries:
    """Named entries, restored through the checkpoint loader, the one place that checks them."""

    @staticmethod
    def saved(tmp_path, params):
        """The path of a run checkpoint of ``params``, written by ``save_run_checkpoint``."""
        path = tmp_path / "checkpoint.bin"
        state = RunState(cfg=TrainConfig(), backbone=params, optim=AdamState(),
                         pixels=np.zeros((1, *params.input_hw, 3), np.uint8))
        save_run_checkpoint(path, state)
        return path

    def test_entries_round_trip_restores_features(self, tmp_path):
        """Loading a checkpoint of one backbone reproduces its features, not those of its seed."""
        src = small_backbone(seed=21)
        x = Tensor(np.random.default_rng(10).uniform(0, 1, size=(2, 16, 16, 3)))
        want = extract_features(x, src, training=False).data
        dst, _, _ = load_backbone_from_checkpoint(self.saved(tmp_path, src))
        assert extract_features(x, dst, training=False).data.tobytes() == want.tobytes()
        fresh = small_backbone(seed=TrainConfig().seed)
        assert extract_features(x, fresh, training=False).data.tobytes() != want.tobytes()

    def test_missing_entry_rejected(self, tmp_path):
        """The loader requires every entry, naming the file and the one that is missing."""
        params = small_backbone(seed=23)
        entries, bad = load_checkpoint(self.saved(tmp_path, params)), tmp_path / "bad.bin"
        for name in named_entries(params):
            save_checkpoint(bad, {k: v for k, v in entries.items() if k != name})
            with pytest.raises(DataFormatError) as raised:
                load_backbone_from_checkpoint(bad)
            assert f"checkpoint {bad} lacks {name!r}" in str(raised.value)

    def test_shape_mismatch_rejected(self, tmp_path):
        """The loader checks every entry's shape, naming the file and the entry."""
        params = small_backbone(seed=24)
        entries, bad = load_checkpoint(self.saved(tmp_path, params)), tmp_path / "bad.bin"
        for name, target in named_entries(params).items():
            save_checkpoint(bad, entries | {name: entries[name].reshape(-1, 1)})
            with pytest.raises(DataFormatError) as raised:
                load_backbone_from_checkpoint(bad)
            want = f"checkpoint {bad} {name!r} has shape {(target.size, 1)}, expected {target.shape}"
            assert want in str(raised.value)

    @pytest.mark.parametrize("mode", MODES)
    def test_checkpoint_layout_is_pinned(self, mode):
        """Entry names and their order, which fix the checkpoint and Adam layouts, never move."""
        names = "\n".join(named_entries(build_backbone((64, 32), mode, 0)))
        assert hashlib.sha256(names.encode()).hexdigest() == LAYOUT_SHA256[mode]

    @pytest.mark.parametrize("mode", MODES)
    def test_initial_bytes_are_pinned(self, mode):
        """The seed-0 entries of the desk network keep their bytes, so reordering the init's draws fails here."""
        digest = hashlib.sha256()
        for value in named_entries(build_backbone((64, 32), mode, 0)).values():
            digest.update(value.tobytes())
        assert digest.hexdigest() == INIT_SHA256[mode]

    def test_parameter_names_unique(self):
        params = small_backbone(seed=25)
        names = [p.name for p in parameters(params)]
        assert len(names) == len(set(names))

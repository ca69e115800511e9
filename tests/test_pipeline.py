"""Training-loop tests: sampler contracts, LR schedule, Adam, resume, extraction."""

import gc
import hashlib
import sys
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from mlareid.backbone import EMBED_DIM, build_backbone, named_entries
from mlareid.checkpoint import load_checkpoint, save_checkpoint
from mlareid.clustering import PseudoLabels
from mlareid.dataio import ImageRecord, SynthSpec, decode, load_dataset, stack_pixels, synth_generate
from mlareid.errors import ConfigError, ContractError, DataFormatError
from mlareid.attention import MODES
from mlareid.autodiff import Parameter, Tensor
from mlareid.pipeline import (
    REPORT_HEADER,
    AdamState,
    EpochReport,
    RunState,
    TrainConfig,
    _augment_batch,
    _read_config,
    adam_step,
    apply_config_lines,
    config_lines,
    load_backbone_from_checkpoint,
    load_run_checkpoint,
    lr_at,
    parse_config,
    pk_sampler,
    run_training,
)
from conftest import pin_cores, small_backbone, within


def random_bytes(rng, shape):
    """Random uint8 pixels, as ``stack_pixels`` gives them."""
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """A small dataset plus an eps at which a seed-0 run trains in each of its first four iterations.

    At eps 0.02 the clusters and batches of iterations 0-3 read (3, 2) (2, 1) (3, 2) (2, 1).
    The smallest eps that finds two clusters before training, 0.005, trains no batch at
    iterations 2 and 3.
    """
    root = tmp_path_factory.mktemp("pipe")
    spec = SynthSpec(
        num_ids=6, images_per_id=6, num_cameras=2, image_hw=(16, 16),
        background_strength=0.6, seed=11,
    )
    synth_generate(spec, root / "data")
    return root / "data", 0.02


class TestPkSampler:
    def test_exact_fit_single_batch(self):
        """2 clusters of 4 with P=2, K=4 fit one batch holding all 8 samples."""
        pl = PseudoLabels(np.array([0, 0, 0, 0, 1, 1, 1, 1]))
        batches = pk_sampler(pl, p=2, k_img=4, seed=0)
        assert len(batches) == 1
        assert sorted(batches[0].tolist()) == list(range(8))

    def test_replacement_fills_small_cluster(self):
        """A 2-member cluster still contributes K_img slots, each member once."""
        pl = PseudoLabels(np.array([0, 0, 1, 1, 1, 1]))
        batches = pk_sampler(pl, p=2, k_img=4, seed=3)
        (batch,) = batches
        small = [i for i in batch if i in (0, 1)]
        assert len(small) == 4
        assert set(small) == {0, 1}

    def test_batch_shape_contract(self):
        """Every batch holds exactly P distinct clusters times K_img samples."""
        rng = np.random.default_rng(0)
        raw = rng.integers(-1, 7, size=60)
        pl = PseudoLabels(raw)
        for batch in pk_sampler(pl, p=3, k_img=2, seed=5):
            assert batch.size == 6
            cids = raw[batch]
            assert len(np.unique(cids)) == 3

    def test_noise_never_sampled(self):
        raw = np.array([0, 0, 0, -1, -1, 1, 1, 1, -1, 2, 2, 2])
        pl = PseudoLabels(raw)
        for batch in pk_sampler(pl, p=2, k_img=3, seed=9):
            assert (raw[batch] >= 0).all()

    def test_epoch_covers_every_cluster(self):
        rng = np.random.default_rng(4)
        raw = rng.integers(0, 9, size=80)
        pl = PseudoLabels(raw)
        seen = set()
        for batch in pk_sampler(pl, p=4, k_img=2, seed=2):
            seen.update(raw[batch].tolist())
        assert seen == set(range(9))

    def test_seeded_replay_identical(self):
        raw = np.random.default_rng(7).integers(-1, 5, size=50)
        pl = PseudoLabels(raw)
        a = pk_sampler(pl, p=2, k_img=3, seed=42)
        b = pk_sampler(pl, p=2, k_img=3, seed=42)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_per_cluster_loop(self, seed):
        """Same batches, byte for byte, as a per-cluster flatnonzero sampler."""

        def loop_sampler(labels, p, k_img, seed):
            rng = np.random.default_rng(seed)
            order = rng.permutation(labels.k)
            members_of = {cid: np.flatnonzero(labels.labels == cid) for cid in range(labels.k)}
            batches = []
            for start in range(0, labels.k, p):
                chunk = order[start:start + p]
                if chunk.size < p:
                    rest = np.array([c for c in order if c not in set(chunk.tolist())])
                    chunk = np.concatenate([chunk, rng.choice(rest, size=p - chunk.size, replace=False)])
                picks = []
                for cid in chunk:
                    members = members_of[int(cid)]
                    if members.size >= k_img:
                        picks.append(rng.choice(members, size=k_img, replace=False))
                    else:
                        extra = rng.choice(members, size=k_img - members.size, replace=True)
                        picks.append(np.concatenate([members, extra]))
                batches.append(np.concatenate(picks))
            return batches

        raw = np.random.default_rng(100 + seed).integers(-1, 23, size=200)
        pl = PseudoLabels(raw)
        got = pk_sampler(pl, p=4, k_img=6, seed=seed)  # 23 clusters: a padded last chunk
        want = loop_sampler(pl, p=4, k_img=6, seed=seed)
        assert [b.tobytes() for b in got] == [b.tobytes() for b in want]

    def test_too_few_clusters_rejected(self):
        pl = PseudoLabels(np.array([0, 0, 0, 1, 1, 1]))
        with pytest.raises(ContractError, match="P=3"):
            pk_sampler(pl, p=3, k_img=2, seed=0)


class TestLrSchedule:
    def test_paper_values(self):
        cfg = TrainConfig()
        assert lr_at(0, cfg) == 1.6e-4
        assert lr_at(20, cfg) == pytest.approx(1.6e-5, rel=1e-12)
        assert lr_at(19, cfg) == 1.6e-4

    def test_closed_form_first_hundred_epochs(self):
        cfg = TrainConfig(lr0=2.0)
        for epoch in range(101):
            assert lr_at(epoch, cfg) == 2.0 * 0.1 ** (epoch // 20)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ContractError):
            lr_at(-1, TrainConfig())


class TestAdam:
    def test_single_step_hand_formula(self):
        """Fresh-state step equals -lr*g/(|g|+eps) after bias correction."""
        g = np.array([0.3, -1.2, 2.0])
        p = Parameter("w", np.array([1.0, 2.0, 3.0]))
        p.grad = g.copy()
        state = AdamState()
        adam_step([p], lr=0.1, state=state)
        expected = np.array([1.0, 2.0, 3.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p.data, expected, atol=1e-12)

    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = Parameter("w", np.array([4.0, 5.0]))
        p.grad = np.zeros(2)
        adam_step([p], lr=0.1, state=AdamState())
        assert p.data.tolist() == [4.0, 5.0]

    def test_missing_gradient_counts_as_zero(self):
        p = Parameter("w", np.array([4.0]))
        p.grad = None
        adam_step([p], lr=0.1, state=AdamState())
        assert p.data.tolist() == [4.0]

    def test_constant_gradient_step_approaches_lr(self):
        """With constant g the bias-corrected step tends to lr*sign(g)."""
        p = Parameter("w", np.array([0.0]))
        state = AdamState()
        for _ in range(400):
            p.grad = np.array([0.5])
            before = p.data.copy()
            adam_step([p], lr=1e-3, state=state)
        step = before - p.data
        np.testing.assert_allclose(step, [1e-3], rtol=1e-3)

    def test_two_steps_match_manual_recurrence(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        grads = [np.array([0.7, -0.2]), np.array([-0.1, 0.4])]
        p = Parameter("w", np.zeros(2))
        state = AdamState()
        m = np.zeros(2)
        v = np.zeros(2)
        ref = np.zeros(2)
        for t, g in enumerate(grads, start=1):
            p.grad = g.copy()
            adam_step([p], lr=lr, state=state)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref = ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        np.testing.assert_allclose(p.data, ref, atol=1e-15)


class TestEpochReport:
    def test_skipped_is_read_from_the_batch_count(self):
        """An iteration that trains runs at least one batch, so no batch means skipped."""
        assert "skipped" not in [f.name for f in fields(EpochReport)]
        report = EpochReport(iteration=0, k=1, noise_frac=1.0, mean_loss=0.0, lr=0.1, batches=0, seconds=0.0)
        assert report.skipped and not replace(report, batches=3).skipped
        assert report.csv_row().split(",")[REPORT_HEADER.split(",").index("skipped")] == "1"


class TestConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    def test_parse_overrides_and_types(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "clustering_iterations = 3\n"
            "lr0 = 0.004\n"
            "# a comment line\n"
            "\n"
            "attention_mode = hla\n"
            "augment = true\n"
        )
        cfg = parse_config(path)
        assert cfg.clustering_iterations == 3
        assert cfg.lr0 == 0.004
        assert cfg.attention_mode == "hla"
        assert cfg.augment is True
        assert cfg.batch_p == 4  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# rates\nlearning_rate = 0.1\n")
        with pytest.raises(ConfigError) as raised:
            parse_config(path)
        assert str(raised.value) == f"config {path} line 2: unknown key 'learning_rate'"

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError) as raised:
            apply_config_lines(TrainConfig(), ["min_pts = four"], ["--min-pts"])
        assert str(raised.value) == "--min-pts: bad value 'four' for 'min_pts'"

    def test_invalid_combinations_rejected_naming_the_source(self):
        for line in (
            "batch_p = 1\nbatch_k = 1", "batch_p = -2\nbatch_k = -2",
            "lr0 = 0", "eps = -0.5", "min_pts = 0", "attention_mode = cnn",
            "lr0 = nan", "eps = nan", "lr0 = inf", "seed = -1",
        ):
            apply_config_lines(TrainConfig(), line.splitlines(), line.splitlines())  # each line parses
            with pytest.raises(ConfigError, match="^where: "):
                _read_config(line, "where")

    def test_config_lines_roundtrip(self):
        cfg = TrainConfig(lr0=3e-4, attention_mode="dla", augment=True)
        assert _read_config("\n".join(config_lines(cfg)), "test") == cfg
        spec = SynthSpec(image_hw=(32, 16), seed=3)
        lines = config_lines(spec)
        assert "image_hw = (32, 16)" in lines
        assert apply_config_lines(SynthSpec(), lines, lines) == spec


class TestRunTraining:
    def desk_cfg(self, eps, mode="all", iters=2, seed=0):
        return TrainConfig(
            clustering_iterations=iters, batch_p=2, batch_k=2, lr0=8e-4,
            eps=eps, min_pts=2, seed=seed, attention_mode=mode, bn_warmup_passes=2,
        )

    def test_zero_iterations_emits_initial_checkpoint(self, tiny_dataset, tmp_path):
        data, eps = tiny_dataset
        cfg = self.desk_cfg(eps, iters=0)
        ck, reports = run_training(cfg, data, tmp_path / "r")
        assert reports == []
        entries = load_checkpoint(ck)
        fresh = named_entries(small_backbone("all", 0))
        for name, value in fresh.items():
            assert entries[name].tobytes() == value.tobytes()

    def test_first_iteration_takes_optimizer_steps(self, tiny_dataset, tmp_path):
        data, eps = tiny_dataset
        cfg = self.desk_cfg(eps, iters=1)
        ck, reports = run_training(cfg, data, tmp_path / "r")
        assert not reports[0].skipped
        assert reports[0].k >= 2
        assert int(load_checkpoint(ck)["optim.t"]) >= 1

    def test_report_csv_layout(self, tiny_dataset, tmp_path):
        data, eps = tiny_dataset
        cfg = self.desk_cfg(eps, iters=2)
        ck, reports = run_training(cfg, data, tmp_path / "r")
        lines = (tmp_path / "r" / "report.csv").read_text().splitlines()
        assert lines[0] == REPORT_HEADER
        assert len(lines) == 3
        rows = [dict(zip(REPORT_HEADER.split(","), line.split(","))) for line in lines[1:]]
        assert all(len(line.split(",")) == 8 for line in lines[1:])
        assert [r["iter"] for r in rows] == ["0", "1"]
        assert [r["skipped"] for r in rows] == ["0", "0"]
        assert [int(r["batches"]) for r in rows] == [r.batches for r in reports]
        # every trained batch is one Adam step
        assert sum(r.batches for r in reports) == int(load_checkpoint(ck)["optim.t"]) >= 2

    def test_two_runs_bit_identical(self, tiny_dataset, tmp_path):
        data, eps = tiny_dataset
        outs = []
        for name in ("a", "b"):
            cfg = self.desk_cfg(eps, iters=2)
            ck, reports = run_training(cfg, data, tmp_path / name)
            assert reports and all(r.batches >= 1 for r in reports)  # runs that never trained prove nothing
            rows = [r.csv_row().rsplit(",", 1)[0] for r in reports]  # drop seconds
            outs.append((load_checkpoint(ck), rows))
        (ca, ra), (cb, rb) = outs
        assert ra == rb
        assert set(ca) == set(cb)
        for key in ca:
            assert ca[key].tobytes() == cb[key].tobytes(), key

    def test_resume_matches_straight_run(self, tiny_dataset, tmp_path):
        data, eps = tiny_dataset
        cfg4 = self.desk_cfg(eps, iters=4)
        ck4, rep4 = run_training(cfg4, data, tmp_path / "straight")
        cfg2 = self.desk_cfg(eps, iters=2)
        ck2, rep2 = run_training(cfg2, data, tmp_path / "half")
        ckr, repr_ = run_training(cfg4, data, tmp_path / "resumed",
                                  resume_from=ck2)
        for reports in (rep4, rep2, repr_):  # every compared iteration trained
            assert reports and all(r.batches >= 1 for r in reports)
        tail = [r.csv_row().rsplit(",", 1)[0] for r in rep4[2:]]
        resumed = [r.csv_row().rsplit(",", 1)[0] for r in repr_]
        assert resumed == tail
        a, b = load_checkpoint(ck4), load_checkpoint(ckr)
        assert set(a) == set(b)
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), key

    def test_resume_in_place_from_older_checkpoint_rewrites_report(self, tiny_dataset, tmp_path):
        """Resuming inside a longer run's directory replaces its later rows."""
        data, eps = tiny_dataset
        ck2, _ = run_training(self.desk_cfg(eps, iters=2), data, tmp_path / "half")

        def rows_without_seconds():
            lines = (tmp_path / "run" / "report.csv").read_text().splitlines()
            return [ln.rsplit(",", 1)[0] for ln in lines]

        run_training(self.desk_cfg(eps, iters=4), data, tmp_path / "run")
        straight = rows_without_seconds()
        run_training(self.desk_cfg(eps, iters=4), data, tmp_path / "run", resume_from=ck2)
        assert rows_without_seconds() == straight
        assert len(straight) == 5
        assert not (tmp_path / "run" / "report.csv.tmp").exists()

    def test_skip_iteration_keeps_parameters_bit_unchanged(self, tiny_dataset, tmp_path):
        """An eps tiny enough to make everything noise must train nothing."""
        data, eps = tiny_dataset
        cfg = self.desk_cfg(1e-9, iters=1)
        cfg.min_pts = 4
        ck, reports = run_training(cfg, data, tmp_path / "r")
        assert reports[0].skipped
        assert reports[0].mean_loss == 0.0
        assert reports[0].batches == 0
        row = (tmp_path / "r" / "report.csv").read_text().splitlines()[1]
        assert dict(zip(REPORT_HEADER.split(","), row.split(",")))["skipped"] == "1"
        cfg0 = self.desk_cfg(eps, iters=0)
        ck0, _ = run_training(cfg0, data, tmp_path / "r0")
        trained = load_checkpoint(ck)
        fresh = load_checkpoint(ck0)
        # identical weights modulo the bn stats the warmup pass touched
        for key, value in fresh.items():
            if ".running_" in key or key.startswith(("pipeline.", "optim.", "meta.")):
                continue
            assert trained[key].tobytes() == value.tobytes(), key

    def test_non_finite_loss_dumps_diagnostics_under_out(self, tiny_dataset, tmp_path, monkeypatch):
        """A NaN loss aborts the run and leaves features, labels and lr in <out>/diagnostics."""
        import mlareid.pipeline

        data, eps = tiny_dataset
        monkeypatch.setattr(mlareid.pipeline, "cluster_nce_loss", lambda *args: Tensor(np.nan))
        out = tmp_path / "r"
        with pytest.raises(ContractError, match="non-finite loss") as raised:
            run_training(self.desk_cfg(eps, iters=1), data, out)
        dump = out / "diagnostics"
        assert str(dump) in str(raised.value)
        for name in ("features.csv", "labels.csv", "lr.txt"):
            assert (dump / name).is_file(), name

    def test_non_finite_features_dump_diagnostics_under_out(self, tiny_dataset, tmp_path, monkeypatch):
        """A NaN feature row aborts before clustering and leaves features and lr in <out>/diagnostics."""
        import mlareid.pipeline

        real_extract = mlareid.pipeline.extract_all_features

        def extract_with_nan_row(*args):
            features = real_extract(*args)
            features[1] = np.nan
            return features

        data, eps = tiny_dataset
        monkeypatch.setattr(mlareid.pipeline, "extract_all_features", extract_with_nan_row)
        out = tmp_path / "r"
        with pytest.raises(ContractError, match="non-finite features") as raised:
            run_training(self.desk_cfg(eps, iters=1), data, out)
        dump = out / "diagnostics"
        assert str(dump) in str(raised.value)
        for name in ("features.csv", "lr.txt"):
            assert (dump / name).is_file(), name
        assert not (dump / "labels.csv").exists()
        assert np.isnan(np.loadtxt(dump / "features.csv", delimiter=",")[1]).all()

    def test_augmented_runs_replay_and_resume_bit_identical(self, tiny_dataset, tmp_path):
        data, eps = tiny_dataset

        def run(name, iters, augment=True, **kwargs):
            cfg = replace(self.desk_cfg(eps, iters=iters), augment=augment)
            ck, reports = run_training(cfg, data, tmp_path / name, **kwargs)
            assert sum(r.batches for r in reports) >= 1
            return ck.read_bytes()

        straight = run("a", 3)
        assert run("b", 3) == straight
        run("resumed", 1)
        resumed = run("resumed", 3, resume_from=tmp_path / "resumed" / "checkpoint.bin")
        assert resumed == straight
        # augmentation reached the trained batches
        assert run("plain", 3, augment=False) != straight

    def test_mode_mismatch_on_resume_rejected(self, tiny_dataset, tmp_path):
        data, eps = tiny_dataset
        cfg = self.desk_cfg(eps, iters=1)
        ck, _ = run_training(cfg, data, tmp_path / "r")
        other = self.desk_cfg(eps, mode="hla", iters=2)
        with pytest.raises(ConfigError, match="attention_mode"):
            run_training(other, data, tmp_path / "r2", resume_from=ck)

    def test_checkpoint_contains_optimizer_and_meta(self, tiny_dataset, tmp_path):
        data, eps = tiny_dataset
        cfg = self.desk_cfg(eps, iters=1)
        ck, _ = run_training(cfg, data, tmp_path / "r")
        entries = load_checkpoint(ck)
        assert "optim.t" in entries
        assert any(k.startswith("optim.m.") for k in entries)
        assert int(entries["pipeline.iteration"]) == 1

        assert _read_config(entries["meta.train"].astype(np.uint8).tobytes().decode("utf-8"), "test") == cfg
        assert entries["backbone.input_hw"].tolist() == [16.0, 16.0]

    def test_a_load_reads_back_every_entry_the_checkpoint_holds(self, tiny_dataset, tmp_path, monkeypatch):
        """A resume reads each entry of a trained run's checkpoint once: none is written to be ignored."""
        import mlareid.pipeline

        data, eps = tiny_dataset
        cfg = self.desk_cfg(eps, iters=1)
        ck, reports = run_training(cfg, data, tmp_path / "r")
        assert reports[0].batches >= 1  # so the Adam moments and the centroids are saved
        read = []
        real_stored = mlareid.pipeline._stored

        def stored(entries, name, *args, **kwargs):
            read.append(name)
            return real_stored(entries, name, *args, **kwargs)

        monkeypatch.setattr(mlareid.pipeline, "_stored", stored)
        load_run_checkpoint(ck, cfg, stack_pixels([r for r in load_dataset(data) if r.split == "train"]))
        assert sorted(read) == sorted(load_checkpoint(ck))

    def test_config_mismatch_on_resume_names_the_keys(self, tiny_dataset, tmp_path):
        data, eps = tiny_dataset
        ck, _ = run_training(self.desk_cfg(eps, iters=1), data, tmp_path / "r")
        changed = replace(self.desk_cfg(eps, iters=2), lr0=0.2, batch_k=3)
        with pytest.raises(ConfigError, match="lr0") as raised:
            run_training(changed, data, tmp_path / "r2", resume_from=ck)
        assert "batch_k" in str(raised.value)
        assert "clustering_iterations" not in str(raised.value)
        # fewer iterations than the checkpoint's run is a change too
        with pytest.raises(ConfigError, match="clustering_iterations"):
            run_training(self.desk_cfg(eps, iters=0), data, tmp_path / "r3", resume_from=ck)

    def test_checkpoint_without_train_config_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "old.bin", {"pipeline.iteration": np.array(1.0)})
        with pytest.raises(DataFormatError, match="meta.train"):
            load_backbone_from_checkpoint(tmp_path / "old.bin")

    def test_checkpoint_without_data_digest_refused_on_resume(self, tiny_dataset, tmp_path):
        data, eps = tiny_dataset
        cfg = self.desk_cfg(eps, iters=1)
        ck, _ = run_training(cfg, data, tmp_path / "r")
        entries = load_checkpoint(ck)
        assert list(entries)[-3:] == ["backbone.input_hw", "meta.train", "meta.data"]
        del entries["meta.data"]
        save_checkpoint(tmp_path / "old.bin", entries)
        with pytest.raises(DataFormatError, match="meta.data"):
            run_training(replace(cfg, clustering_iterations=2), data, tmp_path / "r2",
                         resume_from=tmp_path / "old.bin")

    def test_a_run_holds_the_split_as_bytes(self, tiny_dataset, tmp_path, monkeypatch):
        import mlareid.pipeline

        held = []
        real_save = mlareid.pipeline.save_run_checkpoint

        def save(path, state):
            held.append(state.pixels.dtype)
            real_save(path, state)

        monkeypatch.setattr(mlareid.pipeline, "save_run_checkpoint", save)
        data, eps = tiny_dataset
        run_training(self.desk_cfg(eps, iters=1), data, tmp_path / "r")
        assert held == [np.uint8]

    def test_data_digest_is_that_of_the_split_bytes(self):
        """The digest hashes the uint8 split a run holds, not a float decode eight times its size."""

        pixels = random_bytes(np.random.default_rng(5), (37, 16, 16, 3))
        state = RunState(cfg=TrainConfig(), backbone=small_backbone("all", 0),
                         optim=AdamState(), pixels=pixels)
        assert state.data == hashlib.sha256(pixels.tobytes()).hexdigest()

    def test_interrupted_run_resumes_in_place_like_a_straight_run(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        """A run killed at iteration 2 resumes from its own <out>/checkpoint.bin."""
        import mlareid.pipeline

        data, eps = tiny_dataset
        cfg = self.desk_cfg(eps, iters=4)

        def rows_without_seconds(out):
            return [ln.rsplit(",", 1)[0] for ln in (out / "report.csv").read_text().splitlines()]

        straight, _ = run_training(cfg, data, tmp_path / "straight")
        real_iteration = mlareid.pipeline.train_iteration

        def interrupted_at_two(state, out_dir):
            if state.iteration == 2:
                raise KeyboardInterrupt
            return real_iteration(state, out_dir)

        out = tmp_path / "run"
        monkeypatch.setattr(mlareid.pipeline, "train_iteration", interrupted_at_two)
        with pytest.raises(KeyboardInterrupt):
            run_training(cfg, data, out)
        monkeypatch.undo()
        resumed, _ = run_training(cfg, data, out, resume_from=out / "checkpoint.bin")
        assert resumed.read_bytes() == straight.read_bytes()
        assert rows_without_seconds(out) == rows_without_seconds(tmp_path / "straight")


class TestAugmentBatch:
    def test_each_image_is_an_edge_padded_crop_of_itself_or_its_mirror(self):
        pixels = np.random.default_rng(0).uniform(size=(12, 6, 5, 3))
        pad = 2
        out = _augment_batch(pixels, np.random.default_rng(1), pad=pad)
        assert out.shape == pixels.shape
        rows, cols = np.arange(6), np.arange(5)
        mirrored = 0
        for img, aug in zip(pixels, out):
            crops = {}
            for flip, src in ((False, img), (True, img[:, ::-1, :])):
                for dy in range(2 * pad + 1):
                    for dx in range(2 * pad + 1):
                        r = np.clip(rows + dy - pad, 0, 5)
                        c = np.clip(cols + dx - pad, 0, 4)
                        crops.setdefault(src[np.ix_(r, c)].tobytes(), flip)
            assert aug.tobytes() in crops
            mirrored += crops[aug.tobytes()]
        assert 0 < mirrored < len(pixels)
        again = _augment_batch(pixels, np.random.default_rng(1), pad=pad)
        assert again.tobytes() == out.tobytes()

    def test_augmenting_bytes_then_decoding_gives_the_floats_of_the_reverse(self):
        """The train loop augments the uint8 batch, then decodes it: the floats are the same."""
        raw = random_bytes(np.random.default_rng(2), (12, 6, 5, 3))
        got = decode(_augment_batch(raw, np.random.default_rng(3)))
        want = _augment_batch(decode(raw), np.random.default_rng(3))
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


class TestTapeFreeExtraction:
    @pytest.mark.parametrize("mode", MODES)
    def test_features_equal_grad_mode_forward(self, mode):
        """extract_all_features gives the bytes of an eval forward with the tape on."""
        from mlareid.backbone import extract_features
        from mlareid.pipeline import FEATURE_CHUNK, bn_warmup, extract_all_features

        rng = np.random.default_rng(MODES.index(mode))
        pixels = random_bytes(rng, (FEATURE_CHUNK + 3, 16, 16, 3))
        params = small_backbone(mode, 1)
        bn_warmup(params, pixels, 1)
        taped = []
        for start in range(0, pixels.shape[0], FEATURE_CHUNK):
            chunk = decode(pixels[start:start + FEATURE_CHUNK])
            out = extract_features(Tensor(chunk), params, training=False)
            assert out.requires_grad
            taped.append(out.data)
        assert extract_all_features(pixels, params).tobytes() == np.concatenate(taped).tobytes()


def warmup_oracle(params, pixels, passes):
    """The plain warmup loop: ``passes`` tape-free train-mode passes over fixed decoded chunks."""
    from mlareid.autodiff import no_grad
    from mlareid.backbone import extract_features
    from mlareid.pipeline import WARMUP_CHUNK

    with no_grad():
        for _ in range(passes):
            for start in range(0, pixels.shape[0], WARMUP_CHUNK):
                extract_features(Tensor(decode(pixels[start:start + WARMUP_CHUNK])), params, training=True)


class TestBnWarmup:
    @pytest.mark.parametrize("images", ["random", "zeros", "constant"])
    @pytest.mark.parametrize("mode", MODES)
    def test_replay_is_byte_equal_to_the_plain_loop(self, mode, images):
        """One forward per chunk plus replayed updates leaves the plain loop's running bytes.

        n = 33 and 40 end in a short chunk; with two chunks and two or more
        passes, folding the chunks in any other order changes the bytes. The
        running arrays stay the checkpoint's objects, and neither parameters
        nor gradients move.
        """
        from mlareid.layers import parameters, state_entries
        from mlareid.pipeline import bn_warmup

        rng = np.random.default_rng(MODES.index(mode))
        for n in (8, 33, 40):
            pixels = {
                "random": random_bytes(rng, (n, 16, 16, 3)),
                "zeros": np.zeros((n, 16, 16, 3), dtype=np.uint8),
                "constant": np.full((n, 16, 16, 3), 94, dtype=np.uint8),
            }[images]
            for passes in (0, 1, 2, 5):
                want = small_backbone(mode, 3)
                warmup_oracle(want, pixels, passes)
                got = small_backbone(mode, 3)
                arrays = state_entries(got)
                param_bytes = [p.data.tobytes() for p in parameters(got)]
                bn_warmup(got, pixels, passes)
                after = state_entries(got)
                assert all(after[name] is arrays[name] for name in arrays)
                for name, value in state_entries(want).items():
                    assert after[name].tobytes() == value.tobytes(), (n, passes, name)
                assert [p.data.tobytes() for p in parameters(got)] == param_bytes
                assert all(p.grad is None for p in parameters(got))

    def test_a_float_stack_is_refused_naming_its_dtype(self):
        from mlareid.pipeline import bn_warmup

        params = small_backbone("all", 3)
        with pytest.raises(ContractError, match="float64"):
            bn_warmup(params, decode(random_bytes(np.random.default_rng(0), (8, 16, 16, 3))), 1)


class TestParallelExtraction:
    """extract_all_features shares fixed chunks between the caller and a pool."""

    @staticmethod
    def warmed(mode, n, seed):
        from mlareid.pipeline import bn_warmup

        rng = np.random.default_rng(seed)
        pixels = random_bytes(rng, (n, 16, 16, 3))
        params = small_backbone(mode, seed)
        bn_warmup(params, random_bytes(rng, (8, 16, 16, 3)), 1)
        return pixels, params

    @staticmethod
    def sequential(pixels, params):
        from mlareid.autodiff import no_grad
        from mlareid.backbone import extract_features
        from mlareid.pipeline import FEATURE_CHUNK

        with no_grad():
            return np.concatenate([
                extract_features(Tensor(decode(pixels[s:s + FEATURE_CHUNK])), params, training=False).data
                for s in range(0, pixels.shape[0], FEATURE_CHUNK)
            ])

    @pytest.mark.parametrize("mode", MODES)
    def test_bytes_equal_a_sequential_chunk_loop(self, mode):
        from mlareid.pipeline import extract_all_features

        for n in (1, 8, 17, 35):
            pixels, params = self.warmed(mode, n, MODES.index(mode))
            got = extract_all_features(pixels, params)
            assert got.shape == (n, EMBED_DIM)
            assert got.tobytes() == self.sequential(pixels, params).tobytes(), n

    def test_bytes_do_not_depend_on_the_pool_width(self, monkeypatch):
        import mlareid.pipeline

        pixels, params = self.warmed("all", 35, 7)
        want = self.sequential(pixels, params).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            for cores in (1, 2, 8):
                pin_cores(monkeypatch, cores)
                got = within(120, mlareid.pipeline.extract_all_features, pixels, params)
                assert got.tobytes() == want, cores
        finally:
            sys.setswitchinterval(interval)

    def test_a_float_stack_is_refused_naming_its_dtype(self):
        from mlareid.pipeline import extract_all_features

        pixels, params = self.warmed("all", 17, 6)
        with pytest.raises(ContractError, match="float64"):
            extract_all_features(decode(pixels), params)

    def test_peak_memory_grows_by_the_added_file_bytes_not_their_decode(self, monkeypatch):
        """From n to 4n images, the traced peak of extract_all_features(stack_pixels(records))
        grows by at most 1.1x the added images' file bytes plus their feature rows.

        A whole-stack float64 decode would add 8x the file bytes. One core keeps the chunk
        working set the same at both sizes. The images are large so that their bytes, not the
        few KiB of interpreter blocks each chunk leaves traced, make up the growth.
        """
        from mlareid.pipeline import FEATURE_CHUNK, extract_all_features

        n = FEATURE_CHUNK
        rng = np.random.default_rng(8)
        pixels = random_bytes(rng, (4 * n, 128, 64, 3))
        params = build_backbone((128, 64), "all", 8)
        records = [ImageRecord(raw=img, pid=0, camid=1, split="query", path=f"query/{i}.ppm")
                   for i, img in enumerate(pixels)]
        pin_cores(monkeypatch, 1)

        def traced_peak(count):
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                extract_all_features(stack_pixels(records[:count]), params)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        traced_peak(n)  # first-call caches are not the images'
        added = 3 * n * (pixels[0].nbytes + EMBED_DIM * 8)
        growth = traced_peak(4 * n) - traced_peak(n)
        assert growth <= 1.1 * added, growth / added

    @pytest.mark.parametrize("failing", [0, 1, 3])
    def test_a_failing_chunk_raises_and_leaves_no_thread(self, monkeypatch, failing):
        """Of five chunks on four streams, 0 runs on the calling thread, 1 and 3 on pool threads."""
        import mlareid.pipeline
        from mlareid.backbone import extract_features
        from mlareid.pipeline import FEATURE_CHUNK

        pixels, params = self.warmed("baseline", 5 * FEATURE_CHUNK, 3)
        bad_first_pixel = decode(pixels[failing * FEATURE_CHUNK]).tobytes()

        def extract_or_fail(batch, *args, **kwargs):
            if batch.data[0].tobytes() == bad_first_pixel:
                raise RuntimeError(f"chunk {failing} failed")
            return extract_features(batch, *args, **kwargs)

        pin_cores(monkeypatch, 4)
        monkeypatch.setattr(mlareid.pipeline, "extract_features", extract_or_fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"chunk {failing} failed"):
            mlareid.pipeline.extract_all_features(pixels, params)
        assert threading.active_count() == before

    @pytest.mark.parametrize("fail", [False, True])
    def test_the_callers_grad_mode_is_kept(self, monkeypatch, fail):
        import mlareid.pipeline
        from mlareid import autodiff

        pixels, params = self.warmed("baseline", 17, 4)
        if fail:
            def boom(*args, **kwargs):
                raise RuntimeError("boom")

            monkeypatch.setattr(mlareid.pipeline, "extract_features", boom)
        pin_cores(monkeypatch, 2)
        x = Tensor([1.0], requires_grad=True)

        def extract():
            try:
                mlareid.pipeline.extract_all_features(pixels, params)
            except RuntimeError:
                assert fail

        extract()
        assert autodiff.mul(x, x).requires_grad
        with autodiff.no_grad():
            extract()
            assert not autodiff.mul(x, x).requires_grad
        assert autodiff.mul(x, x).requires_grad

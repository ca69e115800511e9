"""CLI contract tests: dispatch, exit codes, config echo, determinism."""

import argparse
import shutil

import numpy as np
import pytest

from mlareid import backbone, evalviz, verify
from mlareid.checkpoint import load_checkpoint, save_checkpoint
from mlareid.cli import build_parser, main
from mlareid.dataio import read_ppm, write_ppm
from mlareid.pipeline import (
    AdamState, RunState, TrainConfig, load_backbone_from_checkpoint, save_run_checkpoint,
)
from mlareid.verify import GRAD_TOLERANCE


# The workspace run's train flags, apart from --data, --out and --iterations.
RUN_FLAGS = [
    "--mode", "baseline", "--seed", "0", "--batch-p", "2", "--batch-k", "2",
    "--eps", "0.01", "--min-pts", "2", "--bn-warmup-passes", "1",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synthesized dataset plus one short training run, via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    code = main([
        "synth", "--out", str(data), "--ids", "6", "--images-per-id", "6",
        "--cameras", "2", "--image-hw", "16,16",
        "--background-strength", "0.5", "--seed", "7",
    ])
    assert code == 0
    run = root / "run"
    code = main(["train", "--data", str(data), "--out", str(run), "--iterations", "1", *RUN_FLAGS])
    assert code == 0
    return root


def subcommand_flags(name):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {s for a in sub.choices[name]._actions for s in a.option_strings} - {"-h", "--help"}


def checkpoint_argv(workspace, command, checkpoint, out, mode="baseline"):
    """A train --resume in ``mode`` from, or an eval or heatmap of, ``checkpoint`` with output under ``out``."""
    if command == "train":
        return ["train", "--data", str(workspace / "data"), "--out", str(out),
                "--iterations", "2", *RUN_FLAGS, "--mode", mode, "--resume", str(checkpoint)]
    return [command, "--data", str(workspace / "data"), "--checkpoint", str(checkpoint), "--out", str(out)]


def with_line(workspace, tmp_path, entry, line):
    """A copy of the workspace checkpoint whose ``entry`` text ends in ``line`` (a later line wins)."""
    entries = load_checkpoint(workspace / "run" / "checkpoint.bin")
    text = entries[entry].astype(np.uint8).tobytes() + b"\n" + line.encode()
    entries[entry] = np.frombuffer(text, np.uint8).astype(np.float64)
    path = tmp_path / "old.bin"
    save_checkpoint(path, entries)
    return path, len(text.splitlines())


def tampered(workspace, tmp_path, tampers):
    """The path of a copy of the workspace checkpoint in which each entry named in ``tampers`` is
    ``tamper(stored value, None if absent)``, or is dropped where that gives None."""
    entries = load_checkpoint(workspace / "run" / "checkpoint.bin")
    entries |= {name: tamper(entries.get(name)) for name, tamper in tampers.items()}
    path = tmp_path / "old.bin"
    save_checkpoint(path, {name: value for name, value in entries.items() if value is not None})
    return path


def text_entry(text):
    """``text`` as a checkpoint stores it, one float64 per UTF-8 byte."""
    return np.frombuffer(text.encode("utf-8"), np.uint8).astype(np.float64)


def with_first(array, value):
    """A copy of ``array`` whose first element is ``value``."""
    out = array.copy()
    out.flat[0] = value
    return out


class TestDispatch:
    def test_unknown_subcommand_exits_one_with_usage(self, capsys):
        assert main(["polish"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["grad-check", "--wat"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_flag_exits_one(self, capsys):
        assert main(["train", "--out", "/tmp/x"]) == 1
        assert "usage" in capsys.readouterr().err.lower()


class TestSynth:
    def test_echoes_effective_spec(self, tmp_path, capsys):
        code = main([
            "synth", "--out", str(tmp_path / "d"), "--ids", "3",
            "--images-per-id", "5", "--image-hw", "16,16",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "num_ids = 3" in out
        assert "image_hw = (16, 16)" in out
        assert (tmp_path / "d" / "manifest.csv").exists()

    def test_invalid_spec_exits_one(self, tmp_path, capsys):
        code = main([
            "synth", "--out", str(tmp_path / "d"), "--ids", "0",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_bad_flag_value_exits_one_naming_the_key(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "d"), "--ids", "x"]) == 1
        assert "--ids: bad value 'x' for 'num_ids'" in capsys.readouterr().err
        assert main(["synth", "--out", str(tmp_path / "d"), "--image-hw", "16"]) == 1
        assert "image_hw must be (height, width)" in capsys.readouterr().err
        assert main(["synth", "--out", str(tmp_path / "d"), "--seed", "-1"]) == 1
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_used_out_exits_two_naming_a_file(self, tmp_path, capsys):
        args = ["synth", "--out", str(tmp_path / "d"), "--ids", "3", "--images-per-id", "5",
                "--image-hw", "16,16"]
        assert main(args) == 0
        manifest = (tmp_path / "d" / "manifest.csv").read_text()
        capsys.readouterr()
        assert main(args[:-1] + ["32,16"]) == 2
        assert "train/0000_c1_0000.ppm" in capsys.readouterr().err
        assert (tmp_path / "d" / "manifest.csv").read_text() == manifest

    def test_synth_flags_are_the_spec_fields_plus_out(self):
        """One flag per SynthSpec field (two with short names) plus out."""
        assert subcommand_flags("synth") == {
            "--out", "--ids", "--images-per-id", "--cameras", "--image-hw",
            "--background-strength", "--noise-sigma", "--jitter-px", "--seed",
        }


class TestTrain:
    def test_missing_data_dir_exits_two_naming_path(self, tmp_path, capsys):
        code = main([
            "train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o"),
            "--iterations", "1",
        ])
        assert code == 2
        assert "nope" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_echoes_effective_config_with_overrides(self, workspace, tmp_path, capsys):
        code = main([
            "train", "--data", str(workspace / "data"), "--out", str(tmp_path / "run"),
            "--iterations", "0", "--mode", "dla", "--lr0", "0.002",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "attention_mode = dla" in out
        assert "lr0 = 0.002" in out
        assert "clustering_iterations = 0" in out

    def test_config_file_plus_flag_override(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("clustering_iterations = 0\nlr0 = 0.2\nattention_mode = hla\n")
        code = main([
            "train", "--data", str(workspace / "data"), "--out", str(tmp_path / "run"),
            "--config", str(cfg), "--mode", "pla",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "lr0 = 0.2" in out  # from file
        assert "attention_mode = pla" in out  # flag wins

    @pytest.mark.parametrize("text, why", [
        ("# speeds\nwarp_speed = 9\n", "config {cfg} line 2: unknown key 'warp_speed'"),
        ("eps = -1  # no line is at fault alone\n", "config {cfg}: lr0 and eps must be positive"),
    ], ids=["unknown-key", "invalid-value"])
    def test_a_config_file_defect_exits_one_naming_the_file(self, workspace, tmp_path, text, why, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = main([
            "train", "--data", str(workspace / "data"), "--out", str(tmp_path / "run"),
            "--config", str(cfg),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {why.format(cfg=cfg)}\n"
        assert not (tmp_path / "run").exists()

    def test_bad_flag_value_exits_one_naming_the_key(self, workspace, tmp_path, capsys):
        code = main([
            "train", "--data", str(workspace / "data"), "--out", str(tmp_path / "run"),
            "--iterations", "0", "--min-pts", "four",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "--min-pts: bad value 'four' for 'min_pts'" in err
        assert "config line" not in err
        # a flag value is never cut at a "#" the way a config-file line is
        assert main([
            "train", "--data", str(workspace / "data"), "--out", str(tmp_path / "run"),
            "--iterations", "0", "--mode", "all#pla",
        ]) == 1
        assert "'all#pla'" in capsys.readouterr().err

    def test_negative_batch_sizes_exit_one(self, workspace, tmp_path, capsys):
        code = main([
            "train", "--data", str(workspace / "data"), "--out", str(tmp_path / "run"),
            "--iterations", "0", "--batch-p", "-2", "--batch-k", "-2",
        ])
        assert code == 1
        assert "batch P and K" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_mixed_image_sizes_exit_two_naming_the_file(self, workspace, tmp_path, capsys):
        """One 32x16 image in a 16x16 train split is a data-format error, not numpy's."""
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        write_ppm(data / "train" / "9999_c0_0000.ppm", np.zeros((32, 16, 3)))
        code = main([
            "train", "--data", str(data), "--out", str(tmp_path / "run"), "--iterations", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "9999_c0_0000.ppm has shape (32, 16, 3)" in err and "(16, 16, 3)" in err

    def test_resume_on_other_images_exits_one_naming_both_digests(self, tmp_path, capsys):
        """Same-size images from another synth seed are refused, not trained on."""
        def synth(seed):
            out = tmp_path / f"data{seed}"
            assert main([
                "synth", "--out", str(out), "--ids", "4", "--images-per-id", "5",
                "--image-hw", "16,16", "--seed", str(seed),
            ]) == 0
            return out

        def train(data, iterations, *resume):
            return main([
                "train", "--data", str(data), "--out", str(tmp_path / "run"),
                "--iterations", str(iterations), "--mode", "baseline", "--batch-p", "2",
                "--batch-k", "2", "--eps", "0.01", "--min-pts", "2",
                "--bn-warmup-passes", "1", *resume,
            ])

        first, second = synth(1), synth(2)
        assert train(first, 2) == 0
        checkpoint = tmp_path / "run" / "checkpoint.bin"
        saved = checkpoint.read_bytes()
        capsys.readouterr()
        assert train(second, 3, "--resume", str(checkpoint)) == 1
        err = capsys.readouterr().err
        assert "pixels differ" in err
        digests = [w for w in err.replace(",", " ").split() if len(w) == 64]
        assert len(set(digests)) == 2, err
        assert checkpoint.read_bytes() == saved
        assert train(first, 3, "--resume", str(checkpoint)) == 0

    @pytest.mark.parametrize("checkpoint, mode, code", [
        ("nope.bin", "baseline", 2),  # no such checkpoint
        ("run/checkpoint.bin", "all", 1),  # the checkpoint was trained in mode baseline
    ])
    def test_refused_resume_creates_no_out_dir(self, workspace, tmp_path, checkpoint, mode, code):
        flags = [*RUN_FLAGS, "--mode", mode]  # the later --mode wins
        out = tmp_path / "fresh"
        assert main([
            "train", "--data", str(workspace / "data"), "--out", str(out), "--iterations", "2",
            *flags, "--resume", str(workspace / checkpoint),
        ]) == code
        assert not out.exists()

    REMOVED_KEYS = {  # a key that is now a constant -> its entry and its line in an older checkpoint
        "tau": ("meta.train", "tau = 0.05"),
    }

    @pytest.mark.parametrize("command", ["train", "eval", "heatmap"])
    @pytest.mark.parametrize("key", list(REMOVED_KEYS))
    def test_a_checkpoint_with_a_removed_key_is_refused_naming_it(self, workspace, tmp_path, key, command, capsys):
        """A meta text that still sets a key now fixed in the code stops a resume, an eval and a heatmap alike."""
        entry, line = self.REMOVED_KEYS[key]
        old, number = with_line(workspace, tmp_path, entry, line)
        out = tmp_path / "fresh"
        assert main(checkpoint_argv(workspace, command, old, out)) == 1
        assert f"checkpoint {old} {entry} line {number}: unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    CONFIG_DEFECTS = {  # a meta line no config can be built from -> what the config's check says
        ("meta.train", "eps = -1"): "lr0 and eps must be positive",
    }

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("entry, line", list(CONFIG_DEFECTS))
    def test_a_config_that_cannot_be_built_is_refused_naming_the_entry(
        self, workspace, tmp_path, entry, line, command, capsys
    ):
        """Exit 1 naming the file, the entry and the field: main returns instead of raising, so the console
        prints no traceback."""
        old, _ = with_line(workspace, tmp_path, entry, line)
        out = tmp_path / "fresh"
        assert main(checkpoint_argv(workspace, command, old, out)) == 1
        assert f"error: checkpoint {old} {entry}: {self.CONFIG_DEFECTS[entry, line]}" in capsys.readouterr().err
        assert not out.exists()

    LOAD_DEFECTS = {  # case -> {entry: tamper}, as for tampered(), the exit code and the error
        "indivisible-size": ({"backbone.input_hw": lambda a: np.array([60.0, 32.0])}, 2,
                             "checkpoint {old} backbone.input_hw: input 60x32 is not divisible by the total stride 8"),
        "one-extent-size": ({"backbone.input_hw": lambda a: a[:1]}, 2,
                            "checkpoint {old} 'backbone.input_hw' has shape (1,), expected (2,)"),
        "pre-change": ({"backbone.input_hw": lambda a: None,  # the image size once sat in a meta.backbone text
                        "meta.backbone": lambda a: text_entry("input_hw = (16, 16)\nattention_mode = baseline")},
                       2, "checkpoint {old} lacks 'backbone.input_hw'"),
        # each of the three below once gave output: eval an mAP, heatmap an overlay, heatmap numpy's argmax error
        "nan-weight": ({"backbone.embed.weight": lambda a: with_first(a, np.nan)}, 2,
                       "checkpoint {old} 'backbone.embed.weight' holds a value that is not finite"),
        "nan-centroid": ({"memory.centroids": lambda a: with_first(a, np.nan)}, 2,
                         "checkpoint {old} 'memory.centroids' holds a value that is not finite"),
        "no-centroids": ({"memory.centroids": lambda a: a[:0]}, 2,
                         "checkpoint {old} 'memory.centroids' has shape (0, 64), expected (None, 64)"),
    }

    @pytest.mark.parametrize("command", ["train", "eval", "heatmap"])
    @pytest.mark.parametrize("case", list(LOAD_DEFECTS))
    def test_a_checkpoint_no_network_can_be_loaded_from_is_refused_naming_the_entry(
        self, workspace, tmp_path, case, command, capsys
    ):
        tampers, code, why = self.LOAD_DEFECTS[case]
        old, out = tampered(workspace, tmp_path, tampers), tmp_path / "fresh"
        assert main(checkpoint_argv(workspace, command, old, out)) == code
        assert f"error: {why.format(old=old)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "heatmap"])
    @pytest.mark.parametrize("rows", ["stored", "deleted"])
    def test_an_image_size_the_position_rows_do_not_fit_is_refused_before_the_network_is_built(
        self, workspace, tmp_path, rows, command, capsys
    ):
        """Position rows for a 2**53-row image would take 256 PiB: a mode with HLA has its rows checked first,
        and a checkpoint that lacks them is refused for that, not built at the stored size."""
        params = backbone.build_backbone((16, 16), "all", 0)
        save_run_checkpoint(tmp_path / "all.bin", RunState(
            cfg=TrainConfig(attention_mode="all"), backbone=params, optim=AdamState(),
            pixels=np.zeros((1, 16, 16, 3), np.uint8)))
        entries = load_checkpoint(tmp_path / "all.bin")
        entries["backbone.input_hw"] = np.array([2.0**53, 16.0])
        if rows == "deleted":
            del entries["mla.hla.r_h"], entries["mla.hla.r_w"]
        old, out = tmp_path / "old.bin", tmp_path / "fresh"
        save_checkpoint(old, entries)
        assert main(checkpoint_argv(workspace, command, old, out, mode="all")) == 2
        err = capsys.readouterr().err
        why = {"stored": f"'mla.hla.r_h' has shape {params.mla.hla.r_h.shape}", "deleted": "lacks 'mla.hla.r_h'"}
        assert f"error: checkpoint {old} {why[rows]}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("defect", ["missing", "reshaped"])
    def test_a_checkpoint_without_a_fitting_entry_exits_two_naming_it(
        self, workspace, tmp_path, defect, command, capsys
    ):
        """A lacking or misshapen backbone entry stops a resume and an eval alike, naming the file."""
        entries = load_checkpoint(workspace / "run" / "checkpoint.bin")
        want = entries.pop("backbone.stem").shape
        if defect == "reshaped":
            entries["backbone.stem"] = np.zeros((1, 1, 3, 4))
        old, out = tmp_path / "old.bin", tmp_path / "fresh"
        save_checkpoint(old, entries)
        assert main(checkpoint_argv(workspace, command, old, out)) == 2
        err = capsys.readouterr().err
        if defect == "missing":
            assert f"checkpoint {old} lacks 'backbone.stem'" in err
        else:
            assert f"checkpoint {old} 'backbone.stem' has shape (1, 1, 3, 4), expected {want}" in err
        assert not out.exists()

    MISFITS = {  # case -> (entry, its tampered value from the stored one)
        "moment-shape": ("optim.m.backbone.stem", lambda a: np.zeros(1)),  # numpy would broadcast it
        "moment-length": ("optim.v.mla.bn1.gamma", lambda a: np.zeros(a.size + 1)),
        "moment-of-no-parameter": ("optim.m.backbone.nope", lambda a: np.zeros(3)),
        "step-shape": ("optim.t", lambda a: np.full(2, a)),  # once an uncaught TypeError
        "step-nan": ("optim.t", lambda a: np.array(np.nan)),
        "iteration-shape": ("pipeline.iteration", lambda a: a.reshape(1)),
        "iteration-negative": ("pipeline.iteration", lambda a: np.array(-3.0)),
        "centroid-width": ("memory.centroids", lambda a: np.zeros((a.shape[0], a.shape[1] + 1))),
        "train-text-byte": ("meta.train", lambda a: np.append(a, 321.0)),  # uint8 would wrap it to "A"
        "moment-inf": ("optim.v.backbone.stem", lambda a: with_first(a, -np.inf)),
        "data-text-byte": ("meta.data", lambda a: np.append(a, 65.5)),
    }

    @pytest.mark.parametrize("case", list(MISFITS))
    def test_resume_refuses_a_misfit_entry_naming_the_file_and_the_entry(self, workspace, tmp_path, case, capsys):
        entry, tamper = self.MISFITS[case]
        entries = load_checkpoint(workspace / "run" / "checkpoint.bin")
        entries[entry] = tamper(entries.get(entry, np.zeros(3)))
        old, out = tmp_path / "old.bin", tmp_path / "fresh"
        save_checkpoint(old, entries)
        assert main(checkpoint_argv(workspace, "train", old, out)) == 2
        assert f"checkpoint {old} {entry!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["pipeline.iteration", "optim.t"])
    def test_resume_without_a_count_exits_two_naming_it(self, workspace, tmp_path, entry, capsys):
        entries = load_checkpoint(workspace / "run" / "checkpoint.bin")
        del entries[entry]
        save_checkpoint(tmp_path / "old.bin", entries)
        assert main([
            "train", "--data", str(workspace / "data"), "--out", str(tmp_path / "run"),
            "--iterations", "2", *RUN_FLAGS, "--resume", str(tmp_path / "old.bin"),
        ]) == 2
        assert f"checkpoint {tmp_path / 'old.bin'} lacks {entry!r}" in capsys.readouterr().err

    def test_train_flags_are_the_config_fields_plus_four(self):
        """One flag per TrainConfig field (two with short names) plus data, out, config, resume."""
        assert subcommand_flags("train") == {
            "--data", "--out", "--config", "--resume",
            "--mode", "--seed", "--iterations", "--epochs-per-iteration", "--batch-p",
            "--batch-k", "--lr0", "--eps", "--min-pts", "--augment", "--bn-warmup-passes",
        }

    def test_outputs_under_run_dir(self, workspace):
        run = workspace / "run"
        assert (run / "checkpoint.bin").exists()
        assert (run / "report.csv").exists()


class TestEval:
    def test_writes_metrics_and_echoes(self, workspace, capsys):
        code = main([
            "eval", "--data", str(workspace / "data"),
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "attention_mode = baseline" in out  # the checkpoint's, from its meta.train
        assert "mAP," in out
        assert (workspace / "run" / "metrics.csv").exists()

    def test_two_evals_identical(self, workspace, capsys):
        argv = [
            "eval", "--data", str(workspace / "data"),
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_missing_checkpoint_exits_two(self, workspace, capsys):
        code = main([
            "eval", "--data", str(workspace / "data"),
            "--checkpoint", str(workspace / "missing.bin"),
        ])
        assert code == 2

    def test_missing_data_dir_exits_two_naming_path(self, workspace, tmp_path, capsys):
        code = main([
            "eval", "--data", str(tmp_path / "nope"),
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert f"data directory {tmp_path / 'nope'} does not exist" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_data_dir_without_images_exits_two_naming_it(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main([
            "eval", "--data", str(empty),
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert f"no images in split 'query' under {empty}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("corrupt", ["entry name", "meta.train text"])
    def test_checkpoint_not_utf8_exits_two_naming_file(self, workspace, tmp_path, corrupt, capsys):
        bad = tmp_path / "bad.bin"
        if corrupt == "entry name":
            blob = bytearray((workspace / "run" / "checkpoint.bin").read_bytes())
            blob[8] = 0xFF  # first byte of the first entry's name, after magic and name length
            bad.write_bytes(bytes(blob))
        else:
            entries = load_checkpoint(workspace / "run" / "checkpoint.bin")
            entries["meta.train"][0] = 255.0
            save_checkpoint(bad, entries)
        code = main(["eval", "--data", str(workspace / "data"), "--checkpoint", str(bad)])
        assert code == 2
        assert "bad.bin" in capsys.readouterr().err


class TestHeatmap:
    def test_emits_csv_and_valid_ppm(self, workspace, capsys):
        code = main([
            "heatmap", "--data", str(workspace / "data"),
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--split", "query", "--limit", "2",
        ])
        assert code == 0
        assert "attention_mode = baseline" in capsys.readouterr().out
        heat = workspace / "run" / "heatmaps"
        ppms = sorted(heat.glob("*.ppm"))
        csvs = sorted(heat.glob("*.csv"))
        assert len(ppms) == 2 and len(csvs) == 2
        pixels = read_ppm(ppms[0])
        assert pixels.shape == (16, 16, 3)
        assert pixels.dtype == np.uint8

    def test_missing_data_dir_exits_two_naming_path(self, workspace, tmp_path, capsys):
        code = main([
            "heatmap", "--data", str(tmp_path / "nope"),
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert f"data directory {tmp_path / 'nope'} does not exist" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_data_dir_without_images_exits_two_naming_it(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty"
        (empty / "query").mkdir(parents=True)
        code = main([
            "heatmap", "--data", str(empty),
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert f"no images in split 'query' under {empty}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_limit_below_one_exits_one_naming_the_flag(self, workspace, tmp_path, capsys):
        for limit in ("0", "-1"):
            code = main([
                "heatmap", "--data", str(workspace / "data"),
                "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
                "--out", str(tmp_path), "--limit", limit,
            ])
            assert code == 1
            assert f"--limit must be at least 1, got {limit}" in capsys.readouterr().err
        assert not (tmp_path / "heatmaps").exists()

    def test_one_backbone_forward_per_image(self, workspace, tmp_path, capsys, monkeypatch):
        """The nearest cluster comes from the heatmap's own forward, not from a second one."""
        checkpoint = workspace / "run" / "checkpoint.bin"
        assert load_backbone_from_checkpoint(checkpoint)[1] is not None
        calls = []
        original = backbone.forward_to_featuremap

        def counting(*args, **kwargs):
            calls.append(args[0].shape[0])
            return original(*args, **kwargs)

        for module in (backbone, evalviz):
            monkeypatch.setattr(module, "forward_to_featuremap", counting)
        code = main([
            "heatmap", "--data", str(workspace / "data"), "--checkpoint", str(checkpoint),
            "--out", str(tmp_path), "--limit", "2",
        ])
        assert code == 0
        assert capsys.readouterr().out.count("target: cluster") == 2
        assert calls == [1, 1]


class TestGradCheck:
    def test_single_seed_suite_passes(self, capsys):
        assert main(["grad-check", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "conv2d" in out and "FAIL" not in out

    def test_echoes_the_seeds_and_the_fixed_gate(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "_CHECKS", {"ok": lambda rng: 1e-9})
        assert main(["grad-check", "--seeds", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["# effective grad-check config", "seeds = 2", f"tolerance = {GRAD_TOLERANCE}"]
        assert GRAD_TOLERANCE == 1e-4

    def test_a_check_over_the_gate_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "_CHECKS", {"ok": lambda rng: 1e-9, "bad": lambda rng: 1.0})
        assert main(["grad-check", "--seeds", "1"]) == 1
        out = capsys.readouterr().out
        assert "ok: max_error=1.000e-09 PASS" in out and "bad: max_error=1.000e+00 FAIL" in out

    def test_a_nan_at_a_middle_seed_fails(self, monkeypatch, capsys):
        """The worst error over seeds keeps a NaN, which the built-in max would skip past."""
        errors = iter([1e-9, float("nan"), 1e-9])
        monkeypatch.setattr(verify, "_CHECKS", {"flaky": lambda rng: next(errors)})
        assert main(["grad-check", "--seeds", "3"]) == 1
        assert "flaky: max_error=nan FAIL" in capsys.readouterr().out

    def test_tolerance_is_not_an_option(self, capsys):
        assert "--tolerance" not in subcommand_flags("grad-check")
        assert main(["grad-check", "--tolerance", "1"]) == 1
        assert "unrecognized arguments: --tolerance 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--seeds", "0"], ["--seeds", "-2"]])
    def test_a_suite_that_checks_nothing_exits_one(self, argv, capsys):
        assert main(["grad-check", *argv]) == 1
        captured = capsys.readouterr()
        assert "error" in captured.err and "PASS" not in captured.out

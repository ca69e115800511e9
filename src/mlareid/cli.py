"""Command-line entry point: synth, train, eval, heatmap, grad-check.

Every subcommand echoes its effective configuration before doing work, so
a run can be reproduced from its own log. Exit codes: 0 success, 1 for
contract/usage errors, 2 for I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .dataio import SynthSpec, load_dataset, stack_pixels, synth_generate
from .errors import ContractError
from .evalviz import evaluate, export_heatmap, grad_cam_heatmap, write_metrics_csv
from .pipeline import (
    TrainConfig,
    apply_config_lines,
    config_lines,
    extract_all_features,
    load_backbone_from_checkpoint,
    parse_config,
    run_training,
)
from .verify import run_gradient_suite

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_IO = 2

# Every TrainConfig field is a train flag, "--" plus its dashed name, but for two short names.
_TRAIN_FLAGS = {f.name: "--" + f.name.replace("_", "-") for f in fields(TrainConfig)} | {
    "attention_mode": "--mode", "clustering_iterations": "--iterations"
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exception, not sys.exit(2)."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _echo(label: str, lines: list[str]) -> None:
    print(f"# effective {label}")
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    spec = SynthSpec(
        num_ids=args.ids,
        images_per_id=args.images_per_id,
        num_cameras=args.cameras,
        image_hw=(args.height, args.width),
        background_strength=args.background_strength,
        noise_sigma=args.noise_sigma,
        jitter_px=args.jitter_px,
        seed=args.seed,
    )
    _echo("synth spec", config_lines(spec))
    records = synth_generate(spec, args.out)
    print(f"wrote {len(records)} images under {args.out}")
    return EXIT_OK


def _effective_train_config(args) -> TrainConfig:
    cfg = parse_config(args.config) if args.config else TrainConfig()
    given = [f.name for f in fields(TrainConfig) if getattr(args, f.name) is not None]
    lines = [f"{name} = {getattr(args, name)}" for name in given]
    return apply_config_lines(cfg, lines, where=[_TRAIN_FLAGS[name] for name in given])


def _cmd_train(args) -> int:
    cfg = _effective_train_config(args)
    _echo("train config", config_lines(cfg))
    data = Path(args.data)
    if not data.is_dir():
        raise FileNotFoundError(f"data directory {data} does not exist")
    checkpoint, reports = run_training(
        cfg, data, args.out, resume_from=args.resume
    )
    for report in reports:
        print(report.csv_row())
    print(f"checkpoint: {checkpoint}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    backbone, _, _ = load_backbone_from_checkpoint(args.checkpoint)
    _echo(
        "eval config",
        [
            f"checkpoint = {args.checkpoint}",
            f"data = {args.data}",
            f"attention_mode = {backbone.cfg.attention_mode}",
        ],
    )
    records = load_dataset(args.data)
    query = [r for r in records if r.split == "query"]
    gallery = [r for r in records if r.split == "gallery"]
    if not query or not gallery:
        raise ContractError(
            f"dataset under {args.data} needs non-empty query and gallery splits"
        )
    qf = extract_all_features(stack_pixels(query), backbone)
    gf = extract_all_features(stack_pixels(gallery), backbone)
    metrics = evaluate(
        qf,
        np.array([r.pid for r in query]),
        np.array([r.camid for r in query]),
        gf,
        np.array([r.pid for r in gallery]),
        np.array([r.camid for r in gallery]),
    )
    out = Path(args.out) if args.out else Path(args.checkpoint).parent
    out.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(metrics, out / "metrics.csv")
    for name, value in metrics.rows():
        print(f"{name},{np.format_float_positional(value, unique=True)}")
    return EXIT_OK


def _cmd_heatmap(args) -> int:
    backbone, memory, _ = load_backbone_from_checkpoint(args.checkpoint)
    _echo(
        "heatmap config",
        [
            f"checkpoint = {args.checkpoint}",
            f"data = {args.data}",
            f"split = {args.split}",
            f"limit = {args.limit}",
            f"target = {'cluster logit' if memory is not None else 'embedding energy'}",
        ],
    )
    records = [r for r in load_dataset(args.data) if r.split == args.split]
    if not records:
        raise ContractError(f"no images in split {args.split!r} under {args.data}")
    out = Path(args.out) if args.out else Path(args.checkpoint).parent
    heat_dir = out / "heatmaps"
    heat_dir.mkdir(parents=True, exist_ok=True)
    for record in records[: args.limit]:
        cluster_id = None
        if memory is not None:
            feature = extract_all_features(record.pixels[None, ...], backbone)[0]
            cluster_id = int(np.argmax(memory.centroids @ feature))
        hm = grad_cam_heatmap(record, backbone, memory, cluster_id)
        base = heat_dir / Path(record.path).stem
        export_heatmap(hm, base, source_pixels=record.pixels)
        print(f"{base.with_suffix('.ppm')} target: {hm.target}")
    return EXIT_OK


def _cmd_grad_check(args) -> int:
    results = run_gradient_suite(
        seeds=tuple(range(args.seeds)), tolerance=args.tolerance
    )
    worst: dict[str, float] = {}
    for r in results:
        worst[r.name] = max(worst.get(r.name, 0.0), r.max_error)
    failed = False
    for name, err in worst.items():
        ok = err < args.tolerance
        failed = failed or not ok
        print(f"{name}: max_error={err:.3e} {'PASS' if ok else 'FAIL'}")
    return EXIT_CONTRACT if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mlareid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic re-id dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--ids", type=int, default=32)
    p.add_argument("--images-per-id", type=int, default=8)
    p.add_argument("--cameras", type=int, default=2)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--background-strength", type=float, default=0.8)
    p.add_argument("--noise-sigma", type=float, default=0.02)
    p.add_argument("--jitter-px", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="run the clustering/training loop")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="key = value file of TrainConfig fields")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    for f in fields(TrainConfig):  # values are parsed and checked by apply_config_lines
        p.add_argument(
            _TRAIN_FLAGS[f.name], dest=f.name, metavar=f.type.upper(),
            help=f"TrainConfig.{f.name} (default {f.default})",
        )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="retrieval metrics for a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None, help="directory for metrics.csv")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("heatmap", help="Grad-CAM overlays for dataset images")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None, help="directory for heatmaps/")
    p.add_argument("--split", choices=("train", "query", "gallery"), default="query")
    p.add_argument("--limit", type=int, default=4)
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser("grad-check", help="finite-difference gradient suite")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=_cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_CONTRACT
    try:
        return args.func(args)
    except OSError as exc:  # includes DataFormatError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # contract, config and dimension errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: synth, train, eval, heatmap, grad-check.

A thin shell over the library. The synth and train flags are the fields
of ``SynthSpec`` and ``TrainConfig``, parsed and checked as config lines;
eval and heatmap call ``retrieval_metrics`` and ``grad_cam_heatmap``.
Every subcommand echoes its effective configuration before doing work, so
a run can be reproduced from its own log. Exit codes: 0 success, 1 for
contract/usage errors, 2 for I/O errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads: extraction already uses every core
import numpy as np  # noqa: E402

from .dataio import ImageRecord, SynthSpec, load_dataset, synth_generate  # noqa: E402
from .errors import ContractError, DataFormatError  # noqa: E402
from .evalviz import export_heatmap, grad_cam_heatmap, retrieval_metrics, write_metrics_csv  # noqa: E402
from .pipeline import (  # noqa: E402
    TrainConfig,
    apply_config_lines,
    config_lines,
    load_backbone_from_checkpoint,
    parse_config,
    run_training,
)
from .verify import GRAD_TOLERANCE, run_gradient_suite  # noqa: E402

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_IO = 2

# Every field of a config class is a flag, "--" plus its dashed name, but for four short names.
_FLAGS = {
    cls: {f.name: "--" + f.name.replace("_", "-") for f in fields(cls)} | short
    for cls, short in (
        (SynthSpec, {"num_ids": "--ids", "num_cameras": "--cameras"}),
        (TrainConfig, {"attention_mode": "--mode", "clustering_iterations": "--iterations"}),
    )
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

def _effective(cfg, args):
    """``cfg`` with every flag the user gave applied as a ``key = value`` line."""
    flags = _FLAGS[type(cfg)]
    given = [name for name in flags if getattr(args, name) is not None]
    lines = [f"{name} = {getattr(args, name)}" for name in given]
    cfg = apply_config_lines(cfg, lines, [flags[name] for name in given])
    cfg.validate()
    return cfg


def _load_splits(data: str, splits: tuple[str, ...]) -> list[ImageRecord]:
    """The records under ``data``; a split of ``splits`` without images is missing input data."""
    records = load_dataset(data)
    for split in splits:
        if not any(r.split == split for r in records):
            raise DataFormatError(f"no images in split {split!r} under {data}")
    return records


def _cmd_synth(args) -> int:
    spec = _effective(SynthSpec(), args)
    _echo("synth spec", config_lines(spec))
    records = synth_generate(spec, args.out)
    print(f"wrote {len(records)} images under {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _effective(parse_config(args.config) if args.config else TrainConfig(), args)
    _echo("train config", config_lines(cfg))
    checkpoint, reports = run_training(cfg, args.data, args.out, resume_from=args.resume)
    for report in reports:
        print(report.csv_row())
    print(f"checkpoint: {checkpoint}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    backbone, _, cfg = load_backbone_from_checkpoint(args.checkpoint)
    _echo(
        "eval config",
        [
            f"checkpoint = {args.checkpoint}",
            f"data = {args.data}",
            f"attention_mode = {cfg.attention_mode}",
        ],
    )
    metrics = retrieval_metrics(backbone, _load_splits(args.data, ("query", "gallery")))
    out = Path(args.out) if args.out else Path(args.checkpoint).parent
    out.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(metrics, out / "metrics.csv")
    for name, value in metrics.rows():
        print(f"{name},{np.format_float_positional(value, unique=True)}")
    return EXIT_OK


def _cmd_heatmap(args) -> int:
    if args.limit < 1:
        raise ContractError(f"--limit must be at least 1, got {args.limit}")
    backbone, memory, cfg = load_backbone_from_checkpoint(args.checkpoint)
    _echo(
        "heatmap config",
        [
            f"checkpoint = {args.checkpoint}",
            f"data = {args.data}",
            f"attention_mode = {cfg.attention_mode}",
            f"split = {args.split}",
            f"limit = {args.limit}",
            f"target = {'cluster logit' if memory is not None else 'embedding energy'}",
        ],
    )
    records = [r for r in _load_splits(args.data, (args.split,)) if r.split == args.split]
    out = Path(args.out) if args.out else Path(args.checkpoint).parent
    heat_dir = out / "heatmaps"
    heat_dir.mkdir(parents=True, exist_ok=True)
    for record in records[: args.limit]:
        hm = grad_cam_heatmap(record, backbone, memory)
        base = heat_dir / Path(record.path).stem
        export_heatmap(hm, base, source_pixels=record.pixels)
        print(f"{base.with_suffix('.ppm')} target: {hm.target}")
    return EXIT_OK


def _cmd_grad_check(args) -> int:
    _echo("grad-check config", [f"seeds = {args.seeds}", f"tolerance = {GRAD_TOLERANCE}"])
    errors = run_gradient_suite(seeds=tuple(range(args.seeds)))
    for name, error in errors.items():  # a NaN error fails: it is not below the gate
        print(f"{name}: max_error={error:.3e} {'PASS' if error < GRAD_TOLERANCE else 'FAIL'}")
    return EXIT_OK if all(e < GRAD_TOLERANCE for e in errors.values()) else EXIT_CONTRACT


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_flags(parser: argparse.ArgumentParser, cls) -> None:
    for f in fields(cls):  # values are parsed by apply_config_lines and checked by _effective
        parser.add_argument(
            _FLAGS[cls][f.name], dest=f.name, metavar=f.type.partition("[")[0].upper(),
            help=f"{cls.__name__}.{f.name} (default {f.default})",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mlareid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic re-id dataset")
    p.add_argument("--out", required=True)
    _add_flags(p, SynthSpec)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="run the clustering/training loop")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="key = value file of TrainConfig fields")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    _add_flags(p, TrainConfig)
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

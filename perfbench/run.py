"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload desk-train --seed 0 --seconds 15 --trace 0

Run from the repository root (it imports ``src/mlareid``). Set-up runs
at least SETUP_REPEATS times, cheap ones until SETUP_SECONDS have
elapsed, and the median is ``setup_s``; then passes of the
workload repeat until ``--seconds`` have elapsed (at least one pass, so a
desk-train run always trains once). With ``--trace 0`` the last line holds
the end-to-end metrics; with ``--trace 1`` the untraced passes are
followed by as many seconds of traced passes and the last line holds the
per-layer metrics. Earlier lines name every metric the workload defines,
with its unit, and a JSON record of the environment and of the run's
behaviour (per-iteration K and batches, checkpoint sha256).

BLAS is pinned to one thread before numpy loads: on two cores a second
thread made the desk loop no faster and only added scheduler noise.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 3  # at least; cheap set-ups repeat until SETUP_SECONDS
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 25
END_TO_END = ("setup_s", "run_s", "img_per_s", "peak_rss_mb")
TRACE_METRICS = ("trace.run_s", "trace.overhead_s", "trace.overhead_frac")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_passes(workload, ctx, root: Path, seconds: float):
    """Repeat passes until ``seconds`` elapse; a raising pass counts as failed.

    Also returns the process CPU seconds of every pass, for telling CPU
    stolen by a shared host apart from slower code.
    """
    results, cpu_seconds, crashed = [], [], 0
    start = time.perf_counter()
    while not (results or crashed) or time.perf_counter() - start < seconds:
        out = root / f"pass{len(results) + crashed}"
        out.mkdir(parents=True)
        cpu_start = time.process_time()
        try:
            results.append(workload.run(ctx, out))
            cpu_seconds.append(time.process_time() - cpu_start)
        except Exception:  # one broken pass must not hide the others' numbers
            traceback.print_exc()
            crashed += 1
        shutil.rmtree(out, ignore_errors=True)
    return results, cpu_seconds, crashed


def _median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mlareid" / "__init__.py").is_file():
        print(f"perfbench: no mlareid package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import envinfo
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    problems: list[str] = []
    try:
        setup_times, prints = [], set()
        while len(setup_times) < SETUP_REPEATS or (
                sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX_REPEATS):
            if setup_times:  # only the last set-up's files are kept
                shutil.rmtree(work / f"setup{len(setup_times) - 1}", ignore_errors=True)
            start = time.perf_counter()
            ctx = workload.setup(args.seed, work / f"setup{len(setup_times)}")
            setup_times.append(time.perf_counter() - start)
            prints.add(workload.fingerprint(ctx))
        if len(prints) != 1:
            problems.append("set-up at one seed gave different inputs")
        plain, cpu_seconds, crashed = run_passes(workload, ctx, work / "plain", args.seconds)
        traced, tracer = [], None
        if args.trace and plain:
            tracer = tracing.Tracer()
            with tracer:
                traced, _, traced_crashed = run_passes(workload, ctx, work / "traced", args.seconds)
            crashed += traced_crashed
            if tracer.patched():
                problems.append("tracing wrappers were left installed")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    passes = plain + traced
    if not plain or (args.trace and not traced):
        print(f"perfbench: every {'traced ' if plain else ''}pass failed ({crashed} crashed)",
              file=sys.stderr)
        return 1
    for p in passes:
        problems.extend(p.problems)
    shas = {p.record["checkpoint_sha256"] for p in passes if "checkpoint_sha256" in p.record}
    if len(shas) > 1:
        problems.append("checkpoints differ between passes at one seed (traced vs untraced?)")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    named = {"setup_s": (_median(setup_times), "s")}
    for name in plain[0].measures:
        named[name] = (_median(p.measures[name].value for p in plain), plain[0].measures[name].unit)
    named["img_per_s"] = (named[workload.rate_metric][0], "1/s")
    named["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    for name, (value, unit) in named.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")

    if args.trace:
        plain_s = _median(p.seconds for p in plain)
        traced_s = _median(p.seconds for p in traced)
        values = tracing.layer_metrics(tracer, len(traced), sum(p.seconds for p in traced))
        values.update(zip(TRACE_METRICS, (traced_s, traced_s - plain_s, (traced_s - plain_s) / plain_s)))
        metrics = {name: {"value": v, "unit": tracing.unit_of(name)} for name, v in values.items()}
        self_s = {k: v / len(traced) for k, v in sorted(tracer.self_seconds.items())}
    else:
        metrics = {name: {"value": named[name][0], "unit": named[name][1]} for name in END_TO_END}
        self_s = None

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": {"untraced": len(plain), "traced": len(traced), "crashed": crashed},
        "setup_s_all": setup_times,
        "pass_s_all": [p.seconds for p in passes],
        "pass_cpu_s_untraced": cpu_seconds,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "record": plain[0].record,
        "self_s": self_s,
        "computed": list(tracing.COMPUTED) if args.trace else None,
        "env": envinfo.environment(ROOT, BLAS_THREADS),
    }
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    failed = crashed + sum(bool(p.problems) for p in passes)
    if problems and not failed:  # a run-level check (set-up, traced checkpoint) failed
        failed = 1
    result = {
        "correct": not problems and not crashed,
        "attempted": len(passes) + crashed,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

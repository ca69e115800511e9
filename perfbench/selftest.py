"""Self-tests of the benchmark itself (about three minutes on one core).

    python3 perfbench/selftest.py

Checks that tracing does not change behaviour and cleans up after
itself, that counts repeat exactly at one seed, that the DBSCAN checker
rejects a broken labelling, that the metric names match BENCHMARK.json,
and that the benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import mlareid  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mlareid import autodiff, clustering, layers, pipeline  # noqa: E402


def _originals() -> dict[str, object]:
    """Every attribute a tracer may patch, as it stands now."""
    found = {}
    for span in tracing.LAYER_SPANS:
        module_name, _, path = span.target.partition(":")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(sys.modules[module_name], cls_name)
            found[span.target] = cls.__dict__[attr]
            continue
        for name, mod in sys.modules.items():
            if (name == "mlareid" or name.startswith("mlareid.")) and hasattr(mod, path):
                found[f"{name}:{path}"] = getattr(mod, path)
    return found


def _traced_pass(workload, ctx, out: Path):
    tracer = tracing.Tracer()
    with tracer:
        result = workload.run(ctx, out)
    return result, tracer


def _counts(tracer: tracing.Tracer) -> dict:
    return {
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        "values": {k: list(v) for k, v in tracer.values.items()},
        "iterations": tracer.iterations,
    }


def test_traced_desk_checkpoint_is_byte_identical(root: Path) -> None:
    desk = workloads.WORKLOADS["desk-train"]
    ctx = desk.setup(0, root / "setup")
    before = _originals()
    plain = desk.run(ctx, root / "plain")
    traced, tracer = _traced_pass(desk, ctx, root / "traced")
    assert not tracer.patched(), "wrappers left installed"
    assert _originals() == before, "an original function was not restored"
    assert pipeline.dbscan is clustering.dbscan
    assert not hasattr(autodiff.Tensor.backward, "__wrapped__")
    assert not hasattr(layers.BnParams.apply, "__wrapped__")
    again = desk.run(ctx, root / "again")
    shas = {r.record["checkpoint_sha256"] for r in (plain, traced, again)}
    assert len(shas) == 1, f"checkpoints differ: {shas}"
    assert plain.record["iterations"] == traced.record["iterations"] == again.record["iterations"]
    assert tracer.calls["pipeline.adam"] == sum(it["batches"] for it in tracer.iterations) >= 1
    assert not plain.problems and not traced.problems and not again.problems


def test_counts_repeat_at_one_seed(root: Path) -> None:
    for name in ("gallery-embed", "pseudo-label"):
        workload = workloads.WORKLOADS[name]
        first_ctx = workload.setup(5, root / name / "setup0")
        second_ctx = workload.setup(5, root / name / "setup1")
        assert workload.fingerprint(first_ctx) == workload.fingerprint(second_ctx)
        first, first_tracer = _traced_pass(workload, first_ctx, _fresh(root / name / "pass0"))
        second, second_tracer = _traced_pass(workload, second_ctx, _fresh(root / name / "pass1"))
        assert _counts(first_tracer) == _counts(second_tracer), f"{name} counts differ"
        assert first.record == second.record, f"{name} records differ"
        assert not first.problems and not second.problems, first.problems + second.problems


def test_dbscan_checker_rejects_broken_labels(root: Path) -> None:
    f = workloads.make_embeddings(3)[:600]
    dist = clustering.pairwise_cosine_distance(f)
    pl = clustering.dbscan(dist, workloads.DESK_EPS, workloads.DESK_MIN_PTS)
    args = (dist.d, workloads.DESK_EPS, workloads.DESK_MIN_PTS)
    assert workloads.dbscan_problems(args[0], pl.labels, pl.k, *args[1:]) == []
    core = np.flatnonzero((dist.d <= workloads.DESK_EPS).sum(axis=1) >= workloads.DESK_MIN_PTS)
    as_noise = pl.labels.copy()
    as_noise[core[0]] = -1
    assert workloads.dbscan_problems(args[0], as_noise, pl.k, *args[1:])
    merged = pl.labels.copy()
    merged[merged == 1] = 0
    merged[merged > 1] -= 1
    assert workloads.dbscan_problems(args[0], merged, pl.k - 1, *args[1:])


def test_metric_names_match_benchmark_json(root: Path) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer_names = list(tracing.layer_metrics(tracing.Tracer(), 1, 1.0)) + list(run.TRACE_METRICS)
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.unit_of(m["name"]), m


def test_refuses_without_sources(root: Path) -> None:
    bare = root / "bare"
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pseudo-label", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)


def _fresh(path: Path) -> Path:
    path.mkdir(parents=True)
    return path


def main() -> int:
    tests = [test_dbscan_checker_rejects_broken_labels, test_metric_names_match_benchmark_json,
             test_refuses_without_sources, test_counts_repeat_at_one_seed,
             test_traced_desk_checkpoint_is_byte_identical]
    failures = 0
    run.WORK_DIR.mkdir(exist_ok=True)
    for test in tests:
        root = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR))
        try:
            test(root)
            print(f"PASS {test.__name__}", flush=True)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}", flush=True)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    if not any(run.WORK_DIR.iterdir()):
        run.WORK_DIR.rmdir()
    print(f"{len(tests) - failures}/{len(tests)} passed (mlareid {mlareid.__version__})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

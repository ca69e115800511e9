"""Per-layer spans made by wrapping public functions of the mlareid modules.

A span names one callable, as ``module:attr`` or ``module:Class.attr``.
While a tracer is installed, every mlareid module attribute (or the class
attribute) that held the original points at a timing wrapper, so calls
made through the pipeline's own imports are seen as well. Spans nest:
each records inclusive seconds, self seconds (inclusive minus the spans
it called) and calls. ``remove()`` puts every original object back.

The library code is not changed; the spans sit around the calls into
each layer, from the benchmark's own files.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# Import every layer now: a module first imported while wrappers are
# installed would bind a wrapper by name and keep it after remove().
import mlareid.cli  # noqa: F401
from mlareid.autodiff import Tensor


@dataclass(frozen=True)
class Span:
    target: str  # "mlareid.clustering:dbscan" or "mlareid.autodiff:Tensor.backward"
    name: str  # metric stem, "clustering.dbscan"
    by_mode: bool = False  # key by the backbone's train/eval mode
    sets_mode: bool = False  # this call's ``training`` argument sets the mode
    observe: Callable[["Tracer", tuple, dict, Any], None] | None = None  # untimed


def _shape(x) -> tuple[int, ...]:
    return np.shape(x.data if isinstance(x, Tensor) else x)


def _argument(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _observe_conv(tracer: "Tracer", args, kwargs, out) -> None:
    """Computed work of one conv2d forward: 2*n*h_out*w_out*kh*kw*c_in*c_out."""
    kh, kw, c_in, c_out = _shape(args[1])
    n, h_out, w_out, _ = _shape(out)
    tracer.counts["conv2d_flop"] += 2 * n * h_out * w_out * kh * kw * c_in * c_out
    arrays = [args[0], args[1], out]
    bias = args[2] if len(args) > 2 else kwargs.get("bias")
    if bias is not None:
        arrays.append(bias)
    tracer.counts["conv2d_bytes"] += sum(8 * int(np.prod(_shape(a))) for a in arrays)


def _observe_dbscan(tracer: "Tracer", args, kwargs, labels) -> None:
    dist = args[0]
    eps = _argument(args, kwargs, 1, "eps")
    n = dist.d.shape[0]
    tracer.values["clustering.k"].append(labels.k)
    tracer.values["clustering.noise_frac"].append(float((labels.labels == -1).mean()))
    if n > 1:
        within = int(np.count_nonzero(dist.d <= eps)) - n  # off-diagonal pairs
        tracer.values["clustering.within_eps_frac"].append(within / (n * n - n))
    tracer.values["clustering.distance_mb"].append(dist.d.nbytes / 1e6)


def _observe_sampler(tracer: "Tracer", args, kwargs, batches) -> None:
    tracer.counts["sampled_batches"] += len(batches)
    tracer.counts["sampled_images"] += sum(len(b) for b in batches)


def _observe_loss(tracer: "Tracer", args, kwargs, loss) -> None:
    tracer.counts["images_trained"] += _shape(args[0])[0]


def _observe_extract(tracer: "Tracer", args, kwargs, features) -> None:
    tracer.counts["extracted_images"] += _shape(args[0])[0]


def _observe_iteration(tracer: "Tracer", args, kwargs, report) -> None:
    """One record per clustering iteration: K, batches trained, skipped."""
    done = sum(it["batches"] for it in tracer.iterations)
    tracer.iterations.append({
        "iter": report.iteration,
        "k": report.k,
        "batches": tracer.counts["sampled_batches"] - done,
        "skipped": bool(report.skipped),
    })


# The desk loop's own phases: enough to split a desk run into warmup,
# eval extraction, pseudo-labelling and train steps (the self time of
# train_iteration). A desk run makes about 70 calls through these.
PHASE_SPANS = (
    Span("mlareid.pipeline:bn_warmup", "pipeline.warmup"),
    Span("mlareid.pipeline:train_iteration", "pipeline.train_iteration", observe=_observe_iteration),
    Span("mlareid.pipeline:extract_all_features", "pipeline.extract", observe=_observe_extract),
    Span("mlareid.pipeline:pk_sampler", "pipeline.sampler", observe=_observe_sampler),
    Span("mlareid.clustering:pairwise_cosine_distance", "clustering.distance"),
    Span("mlareid.clustering:dbscan", "clustering.dbscan", observe=_observe_dbscan),
    Span("mlareid.clustering:cluster_summary", "clustering.summary"),
    Span("mlareid.contrast:init_memory", "contrast.init_memory"),
)

LAYER_SPANS = PHASE_SPANS + (
    Span("mlareid.pipeline:adam_step", "pipeline.adam"),
    Span("mlareid.backbone:forward_to_featuremap", "backbone.forward", by_mode=True, sets_mode=True),
    Span("mlareid.backbone:embed_from_featuremap", "backbone.head"),
    Span("mlareid.attention:mla_block_forward", "attention.block", by_mode=True),
    Span("mlareid.attention:pla_forward", "attention.pla", by_mode=True),
    Span("mlareid.attention:hla_forward", "attention.hla", by_mode=True),
    Span("mlareid.attention:dla_forward", "attention.dla", by_mode=True),
    Span("mlareid.autodiff:conv2d", "autodiff.conv2d", by_mode=True, observe=_observe_conv),
    Span("mlareid.autodiff:Tensor.backward", "autodiff.backward"),
    Span("mlareid.layers:BnParams.apply", "layers.bn", by_mode=True),
    Span("mlareid.contrast:cluster_nce_loss", "contrast.loss", observe=_observe_loss),
    Span("mlareid.contrast:batch_hard_update", "contrast.memory_update"),
    Span("mlareid.evalviz:evaluate", "evalviz.evaluate"),
    Span("mlareid.evalviz:grad_cam_heatmap", "evalviz.heatmap"),
    Span("mlareid.evalviz:export_heatmap", "evalviz.export"),
    Span("mlareid.checkpoint:save_checkpoint", "checkpoint.save"),
    Span("mlareid.checkpoint:load_checkpoint", "checkpoint.load"),
    Span("mlareid.dataio:load_dataset", "dataio.load"),
)


class Tracer:
    """Installs span wrappers; accumulates seconds, calls and counts."""

    def __init__(self, spans=LAYER_SPANS):
        self.spans = spans
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.values: dict[str, list[float]] = defaultdict(list)
        self.iterations: list[dict] = []
        self.training = False
        self.top_seconds = 0.0  # time inside at least one span
        self.observe_seconds = 0.0  # time in the untimed ``observe`` hooks
        self._child_seconds: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for span in self.spans:
            self._patch(span)
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[str]:
        """Where this tracer's wrappers sit now (empty once removed)."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in self._undo]

    def _patch(self, span: Span) -> None:
        module_name, _, path = span.target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(span, original))
            return
        original = getattr(module, path)
        wrapper = self._wrap(span, original)
        for name, mod in list(sys.modules.items()):
            if (name == "mlareid" or name.startswith("mlareid.")) and getattr(mod, path, None) is original:
                self._undo.append((mod, path, original))
                setattr(mod, path, wrapper)

    def _wrap(self, span: Span, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            previous = tracer.training
            if span.sets_mode:
                tracer.training = bool(_argument(args, kwargs, 2, "training"))
            key = f"{span.name}_{'train' if tracer.training else 'eval'}" if span.by_mode else span.name
            tracer._child_seconds.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.training = previous
                tracer.seconds[key] += elapsed
                tracer.self_seconds[key] += elapsed - tracer._child_seconds.pop()
                tracer.calls[key] += 1
                if tracer._child_seconds:
                    tracer._child_seconds[-1] += elapsed
                else:
                    tracer.top_seconds += elapsed
            if span.observe is not None:
                observe_start = time.perf_counter()
                span.observe(tracer, args, kwargs, result)
                tracer.observe_seconds += time.perf_counter() - observe_start
            return result

        return wrapper


CALIBRATION_CALLS = 20_000


def wrapper_cost() -> float:
    """Seconds a span wrapper adds to one call, timed around a no-op."""
    def noop(*args):
        return None

    wrapped = Tracer(())._wrap(Span("calibration:noop", "calibration", by_mode=True), noop)

    def best_of_three(fn) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                fn(None, None)
            times.append(time.perf_counter() - start)
        return min(times)

    return max(best_of_three(wrapped) - best_of_three(noop), 0.0) / CALIBRATION_CALLS


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def layer_metrics(tracer: Tracer, passes: int, pass_seconds: float) -> dict[str, float]:
    """Per-layer metrics per traced pass; times are inclusive span seconds."""
    per = 1.0 / passes
    s, calls, counts = tracer.seconds, tracer.calls, tracer.counts
    conv_s = s["autodiff.conv2d_train"] + s["autodiff.conv2d_eval"]
    iterations = len(tracer.iterations)
    skipped = sum(it["skipped"] for it in tracer.iterations)
    out = {
        "pipeline.warmup_s": s["pipeline.warmup"] * per,
        "pipeline.extract_s": s["pipeline.extract"] * per,
        "pipeline.adam_s": s["pipeline.adam"] * per,
        "pipeline.sampler_s": s["pipeline.sampler"] * per,
        "pipeline.batches": calls["pipeline.adam"] * per,
        "pipeline.images_trained": counts["images_trained"] * per,
        "pipeline.skipped_iters": skipped * per,
        "pipeline.trained_iter_frac": (iterations - skipped) / iterations if iterations else 0.0,
        "backbone.forward_train_s": s["backbone.forward_train"] * per,
        "backbone.forward_eval_s": s["backbone.forward_eval"] * per,
        "backbone.head_s": s["backbone.head"] * per,
    }
    for layer in ("block", "pla", "hla", "dla"):
        for mode in ("train", "eval"):
            out[f"attention.{layer}_{mode}_s"] = s[f"attention.{layer}_{mode}"] * per
    out.update({
        "autodiff.backward_s": s["autodiff.backward"] * per,
        "autodiff.backward_calls": calls["autodiff.backward"] * per,
        "autodiff.conv2d_train_s": s["autodiff.conv2d_train"] * per,
        "autodiff.conv2d_eval_s": s["autodiff.conv2d_eval"] * per,
        "autodiff.conv2d_train_calls": calls["autodiff.conv2d_train"] * per,
        "autodiff.conv2d_eval_calls": calls["autodiff.conv2d_eval"] * per,
        "autodiff.conv2d_gflop": counts["conv2d_flop"] / 1e9 * per,
        "autodiff.conv2d_gflops": counts["conv2d_flop"] / 1e9 / conv_s if conv_s else 0.0,
        "autodiff.conv2d_mb": counts["conv2d_bytes"] / 1e6 * per,
        "layers.bn_train_s": s["layers.bn_train"] * per,
        "layers.bn_eval_s": s["layers.bn_eval"] * per,
        "clustering.distance_s": s["clustering.distance"] * per,
        "clustering.dbscan_s": s["clustering.dbscan"] * per,
        "clustering.k": _mean(tracer.values["clustering.k"]),
        "clustering.noise_frac": _mean(tracer.values["clustering.noise_frac"]),
        "clustering.within_eps_frac": _mean(tracer.values["clustering.within_eps_frac"]),
        "clustering.distance_mb": max(tracer.values["clustering.distance_mb"], default=0.0),
        "contrast.loss_s": s["contrast.loss"] * per,
        "contrast.memory_update_s": s["contrast.memory_update"] * per,
        "contrast.init_memory_s": s["contrast.init_memory"] * per,
        "evalviz.evaluate_s": s["evalviz.evaluate"] * per,
        "evalviz.heatmap_s": s["evalviz.heatmap"] * per,
        "evalviz.export_s": s["evalviz.export"] * per,
        "checkpoint.save_s": s["checkpoint.save"] * per,
        "checkpoint.load_s": s["checkpoint.load"] * per,
        "dataio.load_s": s["dataio.load"] * per,
        "trace.covered_frac": tracer.top_seconds / pass_seconds if pass_seconds else 0.0,
        # the tracer's own cost, from call counts rather than from two wall times
        "trace.wrapper_s": (sum(calls.values()) * wrapper_cost() + tracer.observe_seconds) * per,
    })
    return out


# Metrics computed from call shapes rather than timed.
COMPUTED = ("autodiff.conv2d_gflop", "autodiff.conv2d_mb", "clustering.distance_mb")


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_frac", "ratio"), ("_gflops", "GFLOP/s"),
                         ("_gflop", "GFLOP"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"

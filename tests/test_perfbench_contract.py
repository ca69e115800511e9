"""The benchmark's hooks into the library: every traced span finds its target, the desk config
validates and is the acceptance gate's, and the two quick workloads set up and pass their own checks.

The benchmark under ``perfbench/`` patches library callables by name and
builds its desk run from ``TrainConfig`` fields, so a renamed function, a
method moved out of its class body or a removed config field breaks it;
its workloads check their outputs, so a library change that breaks them
reports problems. These tests catch that in the test suite instead of in
a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest
import test_acceptance

from mlareid.autodiff import Tensor, mul, tsum

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``tracing`` and ``workloads`` modules, imported from its directory."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracing"), importlib.import_module("workloads")
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


def _resolve(target: str):
    """The owner (module or class) of a span's target, its attribute name, and what it holds now."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr, vars(owner)[attr]


def test_every_span_patches_its_target_and_exit_restores_it(perfbench):
    tracing, _ = perfbench
    originals = {s.target: _resolve(s.target)[2] for s in tracing.LAYER_SPANS}
    with tracing.Tracer() as tracer:
        patched = tracer.patched()
        for span in tracing.LAYER_SPANS:
            owner, attr, now = _resolve(span.target)
            assert now is not originals[span.target], span.target
            assert f"{owner.__name__}.{attr}" in patched, span.target
        x = Tensor(np.ones(3), requires_grad=True)
        tsum(mul(x, x)).backward()
        assert tracer.calls["autodiff.backward"] == 1
    assert tracer.patched() == []
    for span in tracing.LAYER_SPANS:
        assert _resolve(span.target)[2] is originals[span.target], span.target


def test_desk_config_validates(perfbench):
    _, workloads = perfbench
    workloads.desk_config(10).validate()


def test_desk_protocol_is_the_acceptance_one(perfbench):
    """The benchmark runs criterion 6's images and settings at mode "all", seed 0, not a copy that drifted."""
    _, workloads = perfbench
    assert workloads.DESK_SPEC == test_acceptance.DESK_SPEC
    assert workloads.desk_config(10) == test_acceptance.desk_config("all", 0)


@pytest.mark.parametrize("name", ["pseudo-label", "gallery-embed"])
def test_workload_sets_up_and_one_pass_reports_no_problem(perfbench, tmp_path, name):
    """One set-up and one pass through perfbench's own ``setup``/``run`` at seed 0 (about 5 s for both)."""
    _, workloads = perfbench
    workload = workloads.WORKLOADS[name]
    ctx = workload.setup(0, tmp_path / "setup")
    out = tmp_path / "pass"
    out.mkdir()
    assert workload.run(ctx, out).problems == []

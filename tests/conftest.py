"""Test-session set-up and the helpers several test modules share.

BLAS is pinned to one thread before numpy loads: feature extraction
already runs one stream per usable core, and BLAS threads of its own on
top of those oversubscribe the cores. An explicit setting in the
environment still wins.
"""

import os
import threading

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from mlareid.autodiff import mul, tsum  # noqa: E402  (after the BLAS pin)
from mlareid.backbone import BackboneParams, build_backbone  # noqa: E402


def weighted_sum(t, w):
    """The scalar ``sum(t * w)``, the usual way to pull every element's gradient through a weight."""
    return tsum(mul(t, w))


def small_backbone(mode: str = "all", seed: int = 0) -> BackboneParams:
    """The backbone every run trains, built for 16x16 images: the smallest its stride-8 trunk takes
    (a 2x2 final map)."""
    return build_backbone((16, 16), mode, seed)


def pin_cores(monkeypatch, n):
    """Make ``n`` cores look usable to ``autodiff.usable_cores``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def within(seconds, fn, *args):
    """fn(*args) on its own thread, failing the test if it has not returned in ``seconds``."""
    result = {}

    def run():
        try:
            result["value"] = fn(*args)
        except BaseException as exc:  # re-raised on the test's thread
            result["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), f"no return within {seconds} s"
    if "error" in result:
        raise result["error"]
    return result["value"]

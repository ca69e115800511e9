"""End to end at small scale: cluster, train, evaluate, explain.

Generates a confounded dataset (12 ids, 2 cameras, strong background
fields), runs a few clustering/training iterations with the full
attention chain, and compares cross-camera retrieval against the
raw-pixel reference from demo 03. Watch K during training: clustering
starts fragmented and drifts toward the true identity count while the
loss drops. Finishes with one heatmap overlay showing where the trained
model looks. Takes about fifteen seconds.

Run:  python3 demos/04_train_and_retrieve.py
"""

import os
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads: extraction already uses every core
import numpy as np  # noqa: E402

from mlareid.dataio import SynthSpec, load_dataset, synth_generate  # noqa: E402
from mlareid.evalviz import evaluate, export_heatmap, grad_cam_heatmap, retrieval_metrics  # noqa: E402
from mlareid.pipeline import TrainConfig, load_backbone_from_checkpoint, run_training  # noqa: E402

root = Path(tempfile.mkdtemp(prefix="mlareid_e2e_"))
data = root / "data"
synth_generate(
    SynthSpec(num_ids=12, images_per_id=8, num_cameras=2,
              image_hw=(64, 32), background_strength=0.8, seed=5),
    data,
)

cfg = TrainConfig(
    clustering_iterations=8, batch_p=4, batch_k=4,
    lr0=8e-4, eps=0.04, min_pts=2, seed=0,
    attention_mode="all", bn_warmup_passes=5,
)
print("training: 8 clustering iterations, mode=all ...")
checkpoint, reports = run_training(cfg, data, root / "run")
for r in reports:
    print(f"  iter {r.iteration}: K={r.k} noise={r.noise_frac:.2f} "
          f"mean_loss={r.mean_loss:.4f}{'  (skipped)' if r.skipped else ''}")

backbone, memory, _ = load_backbone_from_checkpoint(checkpoint)
records = load_dataset(data)
metrics = retrieval_metrics(backbone, records)
query = [r for r in records if r.split == "query"]
gallery = [r for r in records if r.split == "gallery"]


def pixel_features(records_):
    flat = np.stack([r.pixels.reshape(-1) for r in records_])
    return flat / np.linalg.norm(flat, axis=1, keepdims=True)


pixel_metrics = evaluate(
    pixel_features(query), [r.pid for r in query], [r.camid for r in query],
    pixel_features(gallery), [r.pid for r in gallery], [r.camid for r in gallery],
)

print(f"\ncross-camera retrieval, learned: mAP={metrics.map_score:.3f} "
      f"rank-1={metrics.cmc[1]:.3f}")
print(f"cross-camera retrieval, raw pixels: mAP={pixel_metrics.map_score:.3f} "
      f"rank-1={pixel_metrics.cmc[1]:.3f}")

hm = grad_cam_heatmap(query[0], backbone, memory)  # nearest cluster, if trained
export_heatmap(hm, root / "heatmap_q0", source_pixels=query[0].pixels)
print(f"heatmap overlay written to {root}/heatmap_q0.ppm ({hm.target})")

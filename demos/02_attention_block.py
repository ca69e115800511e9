"""The multi-level attention block, mode by mode.

One residual bottleneck hosts up to three attention stages: a pixel gate
(local saliency), multi-head spatial attention with learned relative
position terms, and a domain-slot stage that redistributes globally
shared patterns. This script runs the same input through every mode and
shows how much each stage reshapes the feature map.

Run:  python3 demos/02_attention_block.py
"""

import numpy as np

from mlareid.attention import MODES, STAGES, init_mla_block, mla_block_forward
from mlareid.autodiff import Tensor

rng = np.random.default_rng(7)
x = Tensor(rng.normal(size=(2, 8, 4, 8)))  # NHWC: two 8x4 maps, 8 channels

print("middle stages per mode, in chain order:")
for mode, stages in STAGES.items():
    print(f"{mode:9s} {' -> '.join(stages) or '(none)'}")
print()

outputs = {}
for mode in MODES:
    params = init_mla_block(
        np.random.default_rng(0),  # same seed in every mode
        c_in=8, c_mid=4, c_out=8,
        mode=mode, heads=2, c_k=3, h=8, w=4,
        name="demo",
    )
    out = mla_block_forward(x, params, training=False)
    outputs[mode] = out.data
    print(f"{mode:9s} out shape {out.data.shape}  mean {out.data.mean():+.4f}  std {out.data.std():.4f}")

print()
base = outputs["baseline"]
for mode in MODES:
    delta = np.linalg.norm(outputs[mode] - base) / np.linalg.norm(base)
    print(f"{mode:9s} relative change vs baseline: {delta:.4f}")

# The attention stages replace the bottleneck's 3x3 mid convolution, which
# runs only where the table above lists no stage. Each mode draws its middle
# stage before the reduce and expand convolutions, so with one seed those
# weights differ between modes as well (pla's gate takes as many draws as the
# mid conv, so the two share them): the changes above mix both effects.

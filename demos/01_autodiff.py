"""A tour of the tensor core: build a computation, differentiate it, check it.

Run:  python3 demos/01_autodiff.py
"""

import numpy as np

from mlareid.autodiff import (
    Tensor, add, conv2d, finite_diff_check, l2_normalize, mul, relu, reshape, softmax, tsum,
)

rng = np.random.default_rng(0)

# A tiny convolution -> relu -> normalize chain on a 1x8x8x2 image.
x = Tensor(rng.normal(size=(1, 8, 8, 2)), requires_grad=True)
k = Tensor(rng.normal(size=(3, 3, 2, 4)) * 0.3, requires_grad=True)
target = Tensor(rng.normal(size=(1, 256)))

# Every op is a function; numpy refuses to combine an array with a Tensor.
y = l2_normalize(reshape(relu(conv2d(x, k, stride=1, zero_pad=1)), (1, -1)), axis=1)
loss = tsum(mul(y, target))  # a scalar to pull gradients from
print(f"forward value: {loss.data.item():.6f}")

loss.backward()
print(f"grad shapes: x {x.grad.shape}, k {k.grad.shape}")
print(f"grad norms:  x {np.linalg.norm(x.grad):.4f}, k {np.linalg.norm(k.grad):.4f}")

# Every op is validated against central finite differences. The check
# returns the worst relative error between analytic and numeric gradients.
def f(inp: Tensor) -> Tensor:
    h = reshape(conv2d(inp, k.detach(), stride=1, zero_pad=1), (1, -1))
    return add(tsum(mul(softmax(h, axis=1), target)), tsum(mul(h, h)))

err = finite_diff_check(f, Tensor(x.data.copy(), requires_grad=True))
print(f"finite-difference check on conv/softmax chain: max rel err = {err:.2e}")
assert err < 1e-6
print("ok")

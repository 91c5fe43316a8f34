"""The four-op chain that ``autodiff.conv_block`` fuses, as separate ops.

``conv_block`` must give the same bits as conv2d → batch norm → max-pool →
relu in its output, gradients and running buffers. All four live here,
because the model calls only the fused op; ``conv2d`` wraps the conv that
``conv_block`` runs (``_conv_forward`` and ``_conv_backward``). Batch norm
takes its statistics and sums with the helpers ``conv_block`` uses, in the
same order, so the two can agree bit for bit. Pooling is reshape then
``reduce_max`` over freq, then over time, whose gradient goes to the first
maximal element of each window in row-major (time, freq) order.
"""

import numpy as np

from mbsed.autodiff import (
    ShapeError,
    Tensor,
    _accumulate,
    _batch_statistics,
    _channel_sum,
    _check_batch_norm,
    _check_conv,
    _conv_backward,
    _conv_forward,
    _record,
    _tracked,
    as_tensor,
    reduce_max,
    reshape,
)


def conv2d(x: Tensor, kernel: Tensor, padding: tuple[int, int] = (0, 0)) -> Tensor:
    """2-D cross-correlation of NHWC input with a KCkhkw kernel, NHWC out:
    zero padding, unit stride, no bias."""
    x, kernel = as_tensor(x), as_tensor(kernel)
    _check_conv(x, kernel, padding)
    out = Tensor(_conv_forward(x.data, kernel.data, padding))

    def backward():
        if out.grad is not None:
            _conv_backward(x, kernel, padding, np.ascontiguousarray(out.grad))

    return _record((x, kernel), out, backward)


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0))

    def backward():
        if out.grad is not None and _tracked(x):
            _accumulate(x, out.grad * (x.data > 0.0))

    return _record((x,), out, backward)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float = 1e-5,
    momentum: float = 0.1,
    train: bool = True,
) -> Tensor:
    """Per-channel normalization of NHWC input over the (N, H, W) axes.

    Train mode normalizes with batch statistics and updates the running
    buffers in place (unbiased variance for the running estimate); eval
    mode applies the running statistics as constants.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects 4-D NHWC input, got {x.shape}")
    n, h, w, c = x.shape
    _check_batch_norm(c, gamma, beta, eps)
    m = n * h * w
    # Elementwise work runs on (N*H, W*C) rows against per-channel vectors
    # tiled W times, so the inner loops stay long when C is small.
    rows = x.data.reshape(n * h, w * c)

    def tiled(v: np.ndarray) -> np.ndarray:
        return np.tile(v, w)

    if train:
        mean, var = _batch_statistics(rows, c, running_mean, running_var, momentum)
    else:
        mean, var = running_mean, running_var
    x_hat = rows - tiled(mean)
    inv_sigma = 1.0 / np.sqrt(var + eps)
    x_hat *= tiled(inv_sigma)
    out_rows = x_hat * tiled(gamma.data)
    out_rows += tiled(beta.data)
    out = Tensor(out_rows.reshape(x.shape))

    def backward():
        if out.grad is None:
            return
        g = np.ascontiguousarray(out.grad).reshape(n * h, w * c)
        sum_g = _channel_sum(g, c)
        sum_gx_hat = _channel_sum(g, c, x_hat)
        if _tracked(gamma):
            _accumulate(gamma, sum_gx_hat)
        if _tracked(beta):
            _accumulate(beta, sum_g)
        if not _tracked(x):
            return
        coeff = tiled(gamma.data * inv_sigma)
        if train:
            dx = g - tiled(sum_g / m)
            # the tape runs this rule once, so x_hat's buffer is free to reuse
            dx -= np.multiply(x_hat, tiled(sum_gx_hat / m), out=x_hat)
            dx *= coeff
        else:
            dx = g * coeff
        _accumulate(x, dx.reshape(x.shape), owned=True)

    return _record((x, gamma, beta), out, backward)


def max_pool_by_reduce_max(x, q, p):
    """Pooling as reshape -> reduce_max over freq -> reshape -> reduce_max over time."""
    n, h, w, c = x.shape
    y = reduce_max(reshape(x, (n, h, w // p, p, c)), axis=3)
    return reduce_max(reshape(y, (n, h // q, q, w // p, c)), axis=2)

"""The four-op chain that ``autodiff.conv_block`` fuses, as separate ops.

``conv_block`` must give the same bits as conv2d → batch norm → max-pool →
relu in its output, gradients and running buffers. All four live here,
because the model calls only the fused op. ``conv2d`` wraps the "same"
conv that ``conv_block`` runs (``_conv_forward`` and ``_conv_backward``):
odd kernel sides, padded by (kh // 2, kw // 2), so the output is the
input's size. Batch norm uses the op's ``BN_EPS`` and moves the running
buffers by its ``_move_running``. In train mode its input gradient is
((g - shift) - x_hat * scale) * coeff; in eval mode it is g * coeff, the
textbook form that ``conv_block``'s one formula reaches with zero shift
and scale. It takes every per-channel sum (its mean, centered square sum,
and the sums of g and g * x_hat) with ``_channel_sums``, whose chunks hold
whole groups of ``window`` rows. The chain passes its time pool as
``window``, so the chunks are ``conv_block``'s chunks of whole pooling
windows, and the two agree bit for bit: ``_channel_sums`` ignores exact
zeros, such as those of the full-size gradient the chain sums where
``conv_block`` sums only the winners. Pooling is reshape then
``reduce_max`` over freq, then over time, whose gradient goes to the first
maximal element of each window in row-major (time, freq) order.
"""

import numpy as np

from mbsed.autodiff import (
    BN_EPS,
    ShapeError,
    Tensor,
    _accumulate,
    _channel_sums,
    _check_batch_norm,
    _check_conv,
    _conv_backward,
    _conv_forward,
    _move_running,
    _record,
    _tracked,
    as_tensor,
    reduce_max,
    reshape,
)


def conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """2-D "same" cross-correlation of NHWC input with a KCkhkw kernel of
    odd sides, NHWC out of the input's size: zero padding, unit stride, no
    bias."""
    x, kernel = as_tensor(x), as_tensor(kernel)
    _check_conv(x, kernel)
    out = Tensor(_conv_forward(x.data, kernel.data))

    def backward():
        if out.grad is not None:
            _conv_backward(x, kernel, np.ascontiguousarray(out.grad))

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
    train: bool = True,
    window: int = 1,
) -> Tensor:
    """Per-channel normalization of NHWC input over the (N, H, W) axes.

    Train mode normalizes with batch statistics and moves the running
    buffers in place by ``BN_MOMENTUM`` (unbiased variance for the running
    estimate); eval mode applies the running statistics as constants. Each
    sum's chunks hold whole groups of ``window`` rows of x
    (``_channel_sums``; N*H must be a multiple): a conv_block's time pool
    gives its sums' chunks.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects 4-D NHWC input, got {x.shape}")
    n, h, w, c = x.shape
    _check_batch_norm(c, gamma, beta)
    m = n * h * w
    # Elementwise work runs on (N*H, W*C) rows against per-channel vectors
    # tiled W times, so the inner loops stay long when C is small.
    rows = x.data.reshape(n * h, w * c)

    def tiled(v: np.ndarray) -> np.ndarray:
        return np.tile(v, w)

    if train:
        mean = _channel_sums(rows, c, window) / m
        dev = rows - tiled(mean)
        var = _channel_sums(np.multiply(dev, dev, out=dev), c, window) / m
        _move_running(running_mean, running_var, mean, var, m)
    else:
        mean, var = running_mean, running_var
    x_hat = rows - tiled(mean)
    inv_sigma = 1.0 / np.sqrt(var + BN_EPS)
    x_hat *= tiled(inv_sigma)
    out_rows = x_hat * tiled(gamma.data)
    out_rows += tiled(beta.data)
    out = Tensor(out_rows.reshape(x.shape))

    def backward():
        if out.grad is None:
            return
        g = np.ascontiguousarray(out.grad).reshape(n * h, w * c)
        sum_g = _channel_sums(g, c, window)
        sum_gx_hat = _channel_sums(g * x_hat, c, window)
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

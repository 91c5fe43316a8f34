"""Dense float64 tensors with a reverse-mode gradient tape.

Everything runs on numpy arrays in 64-bit floats. Operations record a
backward rule onto a tape while they execute, so the recording order is
already a topological order; ``Tensor.backward`` replays the tape in exact
reverse. Gradients accumulate additively when a tensor feeds several
consumers, and the tape is freed once backward finishes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(ValueError):
    """Operand values lie outside the mathematical domain of the op."""


# Gradient recording can be suspended (finite-difference probes, inference).
_grad_enabled = True


class no_grad:
    """Context manager that suspends tape recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tape:
    """The backward rules of one forward pass, in recording order.

    A tape is confined to a single thread. Two disjoint subgraphs merge
    the moment an op consumes tensors from both; entry order stays
    topological because entries are appended in execution order.
    """

    __slots__ = ("entries", "_merged_into")

    def __init__(self):
        self.entries: list[Callable[[], None]] = []
        self._merged_into: Tape | None = None

    def _resolve(self) -> "Tape":
        tape = self
        while tape._merged_into is not None:
            tape = tape._merged_into
        return tape


class Tensor:
    """N-dimensional float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.tape: Tape | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._not_scalar()

    def _not_scalar(self):
        raise ShapeError(f"item() requires a scalar tensor, got shape {self.shape}")

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Seed d(self)/d(self) = 1 and replay the tape in reverse order."""
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")
        tape = self.tape._resolve() if self.tape is not None else None
        if tape is None or not tape.entries:
            raise RuntimeError("backward called with an empty tape")
        self.grad = np.ones_like(self.data)
        for backward in reversed(tape.entries):
            backward()
        tape.entries.clear()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; the free functions hold the real implementations.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t.tape is not None


def _find_tape(inputs: Sequence[Tensor]) -> Tape | None:
    tape = None
    for t in inputs:
        if t.tape is None:
            continue
        candidate = t.tape._resolve()
        if tape is None:
            tape = candidate
        elif candidate is not tape:
            # Disjoint subgraphs meet here; concatenation keeps both
            # internally ordered and no cross edges existed before now.
            tape.entries.extend(candidate.entries)
            candidate.entries = []
            candidate._merged_into = tape
    return tape


def _record(inputs: Sequence[Tensor], out: Tensor, backward: Callable[[], None]) -> Tensor:
    if not _grad_enabled or not any(_tracked(t) for t in inputs):
        return out
    tape = _find_tape(inputs)
    if tape is None:
        tape = Tape()
    out.tape = tape
    tape.entries.append(backward)
    return out


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add g into t.grad, which starts from zeros laid out like t.data.

    ``owned`` says no one else holds g, so a g laid out like t.data can
    become t.grad itself; adding 0.0 turns its -0.0 into +0.0, as the sum
    into zeros would.
    """
    if t.grad is None:
        if owned and g.strides == t.data.strides:
            np.add(g, 0.0, out=g)
            t.grad = g
            return
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum out the axes numpy broadcasting added or stretched."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)

    def backward():
        g = out.grad
        if g is None:
            return
        if _tracked(a):
            _accumulate(a, _unbroadcast(g, a.shape))
        if _tracked(b):
            _accumulate(b, _unbroadcast(g, b.shape))

    return _record((a, b), out, backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)

    def backward():
        g = out.grad
        if g is None:
            return
        if _tracked(a):
            _accumulate(a, _unbroadcast(g, a.shape))
        if _tracked(b):
            _accumulate(b, _unbroadcast(-g, b.shape))

    return _record((a, b), out, backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)

    def backward():
        g = out.grad
        if g is None:
            return
        if _tracked(a):
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if _tracked(b):
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _record((a, b), out, backward)


def matmul(a, b) -> Tensor:
    """Stacked matrix product over the last two axes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward():
        g = out.grad
        if g is None:
            return
        if _tracked(a):
            _accumulate(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
        if _tracked(b):
            _accumulate(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

    return _record((a, b), out, backward)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    out = Tensor(x.data.reshape(shape))

    def backward():
        if out.grad is not None and _tracked(x):
            _accumulate(x, out.grad.reshape(x.shape))

    return _record((x,), out, backward)


def transpose(x: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    x = as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = Tensor(x.data.transpose(axes))

    def backward():
        if out.grad is not None and _tracked(x):
            _accumulate(x, out.grad.transpose(inverse))

    return _record((x,), out, backward)


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    axes = list(range(as_tensor(x).ndim))
    axes[a], axes[b] = axes[b], axes[a]
    return transpose(x, axes)


def broadcast_to(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.broadcast_to(x.data, shape).copy())

    def backward():
        if out.grad is not None and _tracked(x):
            _accumulate(x, _unbroadcast(out.grad, x.shape))

    return _record((x,), out, backward)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip values into [lo, hi]; gradient passes only strictly inside."""
    x = as_tensor(x)
    out = Tensor(np.clip(x.data, lo, hi))
    interior = (x.data > lo) & (x.data < hi)

    def backward():
        if out.grad is not None and _tracked(x):
            _accumulate(x, out.grad * interior)

    return _record((x,), out, backward)


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0))

    def backward():
        if out.grad is not None and _tracked(x):
            _accumulate(x, out.grad * (x.data > 0.0))

    return _record((x,), out, backward)


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    v = x.data
    s = np.empty_like(v)
    pos = v >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    s[~pos] = ev / (1.0 + ev)
    out = Tensor(s)

    def backward():
        if out.grad is not None and _tracked(x):
            _accumulate(x, out.grad * s * (1.0 - s))

    return _record((x,), out, backward)


def log(x: Tensor) -> Tensor:
    x = as_tensor(x)
    if np.any(x.data <= 0.0):
        raise DomainError("log requires strictly positive inputs")
    out = Tensor(np.log(x.data))

    def backward():
        if out.grad is not None and _tracked(x):
            _accumulate(x, out.grad / x.data)

    return _record((x,), out, backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator | int, train: bool = True) -> Tensor:
    """Zero entries with probability p and rescale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {p}")
    x = as_tensor(x)
    if not train or p == 0.0:
        return x
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    out = Tensor(x.data * keep)

    def backward():
        if out.grad is not None and _tracked(x):
            _accumulate(x, out.grad * keep)

    return _record((x,), out, backward)


# ---------------------------------------------------------------------------
# reductions and softmax


def _expand(g: np.ndarray, axis: int, keepdims: bool) -> np.ndarray:
    return g if keepdims else np.expand_dims(g, axis)


def reduce_sum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    if axis is None:
        out = Tensor(x.data.sum())

        def backward():
            if out.grad is not None and _tracked(x):
                _accumulate(x, np.broadcast_to(out.grad, x.shape).copy())

        return _record((x,), out, backward)

    _check_axis(x, axis)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def backward():
        if out.grad is not None and _tracked(x):
            _accumulate(x, np.broadcast_to(_expand(out.grad, axis, keepdims), x.shape).copy())

    return _record((x,), out, backward)


def reduce_mean(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    if axis is None:
        n = x.size
        out = Tensor(x.data.mean())

        def backward():
            if out.grad is not None and _tracked(x):
                _accumulate(x, np.broadcast_to(out.grad / n, x.shape).copy())

        return _record((x,), out, backward)

    _check_axis(x, axis)
    n = x.shape[axis]
    out = Tensor(x.data.mean(axis=axis, keepdims=keepdims))

    def backward():
        if out.grad is not None and _tracked(x):
            _accumulate(x, np.broadcast_to(_expand(out.grad, axis, keepdims) / n, x.shape).copy())

    return _record((x,), out, backward)


def reduce_max(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; gradient routes to the first maximal element."""
    x = as_tensor(x)
    _check_axis(x, axis)
    out = Tensor(x.data.max(axis=axis, keepdims=keepdims))
    # argmax returns the lowest index among ties, which is the declared
    # tie-break rule.
    argmax = np.expand_dims(x.data.argmax(axis=axis), axis)

    def backward():
        if out.grad is None or not _tracked(x):
            return
        g = np.zeros_like(x.data)
        np.put_along_axis(g, argmax, _expand(out.grad, axis, keepdims), axis)
        _accumulate(x, g)

    return _record((x,), out, backward)


def _check_axis(x: Tensor, axis: int) -> None:
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for rank {x.ndim}")
    if x.shape[axis] == 0:
        raise ShapeError(f"cannot reduce over empty axis {axis} of shape {x.shape}")


def softmax(x: Tensor, scale: float = 1.0, axis: int = -1) -> Tensor:
    """exp(x/scale) normalized along ``axis``, with max subtraction."""
    if scale <= 0.0:
        raise ValueError(f"softmax scale must be positive, got {scale}")
    x = as_tensor(x)
    _check_axis(x, axis)
    z = x.data / scale
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def backward():
        g = out.grad
        if g is None or not _tracked(x):
            return
        inner = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(x, (g - inner) * y / scale)

    return _record((x,), out, backward)


# ---------------------------------------------------------------------------
# layers


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map along the last axis: x @ weight + bias."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if weight.ndim != 2:
        raise ShapeError(f"linear weight must be 2-D (in, out), got {weight.shape}")
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(
            f"linear input dimension {x.shape[-1]} does not match weight {weight.shape}"
        )
    if bias.shape != (weight.shape[1],):
        raise ShapeError(f"linear bias shape {bias.shape} does not match weight {weight.shape}")
    return add(matmul(x, weight), bias)


def _channel_sum(rows: np.ndarray, c: int, other: np.ndarray | None = None) -> np.ndarray:
    """Per-channel sum of ``rows`` (or of ``rows * other``) in np.sum's order.

    ``rows`` holds channels-last data whose last axis ends in ``c``
    channels. With two or more channels np.sum adds the pixels in sequence,
    as einsum does without a temporary for the product; with one channel
    np.sum adds pairwise, so that case stays with np.sum.
    """
    flat = rows.reshape(-1, c)
    if c == 1:
        return (flat if other is None else flat * other.reshape(-1, c)).sum(axis=0)
    if other is None:
        return np.einsum("ij->j", flat)
    return np.einsum("ij,ij->j", flat, other.reshape(-1, c))


def _single_channel_kernel_grad(xp: np.ndarray, g: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(K, kh, kw) kernel gradient of a one-channel conv2d, one gemm per clip.

    ``xp`` is the padded (N, Hp, Wp, 1) input and ``g`` the (N, H', W', K)
    output gradient; ``cols`` holds every kernel offset's window of one clip.
    """
    n, h2, w2, k = g.shape
    cols = np.zeros((h2, w2, max(2, kh * kw)))
    flat = cols.reshape(h2 * w2, -1)
    total = np.zeros((k, flat.shape[1]))
    prod = np.empty_like(total)
    for b in range(n):
        for i in range(kh):
            for j in range(kw):
                cols[:, :, i * kw + j] = xp[b, i : i + h2, j : j + w2, 0]
        np.dot(g[b].reshape(h2 * w2, k).T, flat, out=prod)
        total += prod
    return total[:, : kh * kw].reshape(k, kh, kw)


def _kernel_grad(xp: np.ndarray, g: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(K, C, kh, kw) gradient of conv2d's kernel, over the whole batch.

    ``xp`` is the padded (N, Hp, Wp, C) input and ``g`` the contiguous
    (N, H', W', K) output gradient.
    """
    n, h2, w2, k = g.shape
    c = xp.shape[3]
    if c == 1:
        return _single_channel_kernel_grad(xp, g, kh, kw)[:, None]
    m = n * h2 * w2
    rows = g.reshape(m, k)
    window = np.empty((n, h2, w2, c))  # one offset's input pixels, reused
    gk = np.empty((k, c, kh, kw))
    for i in range(kh):
        for j in range(kw):
            np.copyto(window, xp[:, i : i + h2, j : j + w2, :])
            # rows.T is a transposed view on purpose: BLAS rounds a
            # contiguous copy of it differently in the last bits
            gk[:, :, i, j] = np.dot(rows.T, window.reshape(m, c))
    return gk


# Doubles in one conv2d slab buffer (1 MiB). conv2d fills and multiplies
# one slab of output pixels at a time, so no temporary grows with the batch.
SLAB_DOUBLES = 1 << 17


def _slabs(n: int, h2: int, w2: int, width: int) -> list[tuple[slice, slice]]:
    """(clips, rows) slices that tile an (n, h2, w2) output in slabs of at
    most ``SLAB_DOUBLES // width`` pixels (and never less than one row).

    A slab holds whole clips when one clip fits, and otherwise rows of one
    clip; either way its pixels are contiguous in an NHWC array.
    """
    pixels = max(w2, SLAB_DOUBLES // width)
    if h2 * w2 <= pixels:
        step = pixels // (h2 * w2)
        return [(slice(b, min(b + step, n)), slice(0, h2)) for b in range(0, n, step)]
    step = pixels // w2
    return [
        (slice(b, b + 1), slice(r, min(r + step, h2)))
        for b in range(n)
        for r in range(0, h2, step)
    ]


def conv2d(x: Tensor, kernel: Tensor, padding: tuple[int, int] = (0, 0)) -> Tensor:
    """2-D cross-correlation of NHWC input with a KCkhkw kernel, NHWC out.

    Zero padding, unit stride, no bias (the model feeds every conv into
    batch norm, whose beta is the shift).

    The forward is im2col over slabs of output pixels (``_slabs``): whole
    clips when one fits in ``SLAB_DOUBLES``, else rows of one clip. One
    ``np.copyto`` from a sliding-window view fills a slab's
    (pixels, kh*kw*C) columns, and one gemm with the (kh*kw*C, K) kernel
    matrix writes the slab's output in place. The input gradient walks the
    same slabs: per kernel offset, one (pixels, K) x (K, C) product into a
    contiguous buffer, added into the padded input gradient. Slab buffers
    live only inside one call, so memory does not grow with the batch
    beyond the input, output and their gradients.

    The kernel gradient stays one product over the whole batch. Per slab,
    its inner dimension would be the slab's pixel count, and OpenBLAS
    blocks some inner lengths differently with one thread than with
    several: at the gate encoder's block 2 a per-slab (16, 1000) x
    (1000, 72) product gave different bits at 1 and 2 threads. With C > 1
    it is one (K, N*H'*W') x (N*H'*W', C) product per offset. With one
    input channel each offset's product would be a gemv, which OpenBLAS
    splits between threads when its output is short; instead each clip's
    gradient is one gemm of its output gradient with an (H'*W', kh*kw)
    buffer of every offset's window (at least two columns, so numpy calls
    gemm).
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and kernel, got {x.shape} and {kernel.shape}")
    n, h, w, c = x.shape
    k, ck, kh, kw = kernel.shape
    if ck != c:
        raise ShapeError(f"kernel channels {ck} do not match input channels {c}")
    ph, pw = padding
    if kh > h + 2 * ph or kw > w + 2 * pw:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h + 2 * ph}x{w + 2 * pw}")
    h2 = h + 2 * ph - kh + 1
    w2 = w + 2 * pw - kw + 1
    width = kh * kw * c
    slabs = _slabs(n, h2, w2, width)  # the first slab is the largest

    xp = np.pad(x.data, ((0, 0), (ph, ph), (pw, pw), (0, 0))) if (ph or pw) else x.data
    # (N, H', W', kh, kw, C): the input pixels each output pixel meets, in
    # the row order of the kernel matrix
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    windows = windows.transpose(0, 1, 2, 4, 5, 3)
    kmat = kernel.data.transpose(2, 3, 1, 0).reshape(width, k)

    out_data = np.empty((n, h2, w2, k))
    cols = np.empty(windows[slabs[0]].size)
    for slab in slabs:
        src = windows[slab]
        dst = cols[: src.size].reshape(src.shape)
        np.copyto(dst, src)
        np.dot(dst.reshape(-1, width), kmat, out=out_data[slab].reshape(-1, k))
    out = Tensor(out_data)

    def backward():
        if out.grad is None:
            return
        g = np.ascontiguousarray(out.grad)
        if _tracked(kernel):
            _accumulate(kernel, _kernel_grad(xp, g, kh, kw))
        if not _tracked(x):
            return
        gxp = np.zeros_like(xp)
        kt = kernel.data.transpose(2, 3, 0, 1).copy()  # (kh, kw, K, C)
        contrib = np.empty(g[slabs[0]].size // k * c)
        for clips, rows in slabs:
            g_rows = g[clips, rows].reshape(-1, k)
            part = contrib[: len(g_rows) * c].reshape(-1, c)
            for i in range(kh):
                for j in range(kw):
                    np.dot(g_rows, kt[i, j], out=part)
                    target = gxp[clips, rows.start + i : rows.stop + i, j : j + w2]
                    target += part.reshape(target.shape)
        gx = gxp[:, ph : ph + h, pw : pw + w, :] if (ph or pw) else gxp
        _accumulate(x, gx)

    return _record((x, kernel), out, backward)


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
    if eps <= 0.0:
        raise ValueError(f"batch_norm eps must be positive, got {eps}")
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects 4-D NHWC input, got {x.shape}")
    n, h, w, c = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},)")
    m = n * h * w
    # Elementwise work runs on (N*H, W*C) rows against per-channel vectors
    # tiled W times, so the inner loops stay long when C is small.
    rows = x.data.reshape(n * h, w * c)

    def tiled(v: np.ndarray) -> np.ndarray:
        return np.tile(v, w)

    if train:
        mean = _channel_sum(rows, c) / m
        x_hat = rows - tiled(mean)
        var = _channel_sum(x_hat, c, x_hat) / m
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        unbiased = var * (m / (m - 1)) if m > 1 else var
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        var = running_var
        x_hat = rows - tiled(running_mean)

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


def max_pool(x: Tensor, time_pool: int, freq_pool: int) -> Tensor:
    """Max over non-overlapping (time_pool, freq_pool) windows of NHWC input.

    The gradient routes to the first maximal element of each window in
    row-major (time, freq) order, the element that a max over freq and
    then over time would pick.
    """
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"max_pool expects 4-D NHWC input, got {x.shape}")
    if time_pool < 1 or freq_pool < 1:
        raise ValueError(f"pool factors must be >= 1, got {time_pool} and {freq_pool}")
    n, h, w, c = x.shape
    q, p = time_pool, freq_pool
    if h % q or w % p:
        raise ShapeError(f"pool {q}x{p} does not tile input {h}x{w}")
    # axes (N, T', q, F', p, C): element (a, b) of every window is [:, :, a, :, b]
    windows = x.data.reshape(n, h // q, q, w // p, p, c)
    offsets = [(a, b) for a in range(q) for b in range(p)]

    out_data = windows[:, :, 0, :, 0].copy()
    for a, b in offsets[1:]:
        np.maximum(out_data, windows[:, :, a, :, b], out=out_data)
    out = Tensor(out_data)

    def backward():
        if out.grad is None or not _tracked(x):
            return
        first = np.empty(windows.shape, dtype=bool)
        # windows whose maximum has not been claimed by an earlier element
        unclaimed = np.ones(out_data.shape, dtype=bool)
        for a, b in offsets:
            hit = windows[:, :, a, :, b] == out_data
            hit &= unclaimed
            unclaimed ^= hit
            first[:, :, a, :, b] = hit
        g = out.grad[:, :, None, :, None]
        _accumulate(x, np.where(first, g, 0.0).reshape(x.shape), owned=True)

    return _record((x,), out, backward)


# ---------------------------------------------------------------------------
# verification


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-5,
) -> float:
    """Max relative error between tape gradients and central differences.

    Per coordinate the error is |g_ad - g_fd| / max(1e-8, |g_fd| + |g_ad|).
    ``f`` must be scalar-valued and deterministic; the caller is expected
    to keep inputs away from relu/max kinks.
    """
    x.zero_grad()
    out = f(x)
    out.backward()
    g_ad = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    flat = x.data.reshape(-1)
    g_fd = np.empty_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(x).item()
            flat[i] = orig - eps
            lo = f(x).item()
            flat[i] = orig
            g_fd[i] = (hi - lo) / (2.0 * eps)
    g_fd = g_fd.reshape(x.shape)

    denom = np.maximum(1e-8, np.abs(g_fd) + np.abs(g_ad))
    return float(np.max(np.abs(g_fd - g_ad) / denom))

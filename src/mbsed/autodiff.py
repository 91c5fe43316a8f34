"""Dense float64 tensors with a reverse-mode gradient tape.

Everything runs on numpy arrays in 64-bit floats. Operations record a
backward rule onto a tape while they execute, so the recording order is
already a topological order; ``Tensor.backward`` replays the tape in exact
reverse. Gradients accumulate additively when a tensor feeds several
consumers, and each rule leaves the tape as soon as it has run.
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
        # each rule is dropped once it has run, and with it the arrays it
        # held for backward
        while tape.entries:
            tape.entries.pop()()

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


def _expand(g: np.ndarray, axis: int | None, keepdims: bool) -> np.ndarray:
    return g if keepdims or axis is None else np.expand_dims(g, axis)


def reduce_sum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Sum along ``axis``, or over every axis when it is None."""
    x = as_tensor(x)
    _check_axis(x, axis)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def backward():
        if out.grad is not None and _tracked(x):
            _accumulate(x, np.broadcast_to(_expand(out.grad, axis, keepdims), x.shape).copy())

    return _record((x,), out, backward)


def reduce_mean(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Mean along ``axis``, or over every axis when it is None."""
    x = as_tensor(x)
    _check_axis(x, axis)
    n = x.size if axis is None else x.shape[axis]
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


def _check_axis(x: Tensor, axis: int | None) -> None:
    if axis is None:
        return
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


def _check_conv(x: Tensor, kernel: Tensor, padding: tuple[int, int]) -> None:
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and kernel, got {x.shape} and {kernel.shape}")
    _, h, w, c = x.shape
    _, ck, kh, kw = kernel.shape
    if ck != c:
        raise ShapeError(f"kernel channels {ck} do not match input channels {c}")
    ph, pw = padding
    if kh > h + 2 * ph or kw > w + 2 * pw:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h + 2 * ph}x{w + 2 * pw}")


def _pad(x: np.ndarray, padding: tuple[int, int]) -> np.ndarray:
    ph, pw = padding
    return np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0))) if (ph or pw) else x


def _conv_forward(xp: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """(N, H', W', K) cross-correlation of the padded NHWC input ``xp`` with
    a (K, C, kh, kw) kernel, one gemm per slab (see ``conv2d``)."""
    n, hp, wp, c = xp.shape
    k, _, kh, kw = kernel.shape
    h2, w2 = hp - kh + 1, wp - kw + 1
    width = kh * kw * c
    slabs = _slabs(n, h2, w2, width)  # the first slab is the largest
    # (N, H', W', kh, kw, C): the input pixels each output pixel meets, in
    # the row order of the kernel matrix
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    windows = windows.transpose(0, 1, 2, 4, 5, 3)
    kmat = kernel.transpose(2, 3, 1, 0).reshape(width, k)

    out = np.empty((n, h2, w2, k))
    cols = np.empty(windows[slabs[0]].size)
    for slab in slabs:
        src = windows[slab]
        dst = cols[: src.size].reshape(src.shape)
        np.copyto(dst, src)
        np.dot(dst.reshape(-1, width), kmat, out=out[slab].reshape(-1, k))
    return out


def _conv_backward(
    x: Tensor, kernel: Tensor, padding: tuple[int, int], xp: np.ndarray, g: np.ndarray
) -> None:
    """Accumulate the kernel and input gradients of a conv whose padded
    input is ``xp`` and whose contiguous output gradient is ``g``."""
    n, h2, w2, k = g.shape
    kh, kw = kernel.shape[2:]
    if _tracked(kernel):
        _accumulate(kernel, _kernel_grad(xp, g, kh, kw))
    if not _tracked(x):
        return
    c = xp.shape[3]
    gxp = np.zeros_like(xp)
    kt = kernel.data.transpose(2, 3, 0, 1).copy()  # (kh, kw, K, C)
    slabs = _slabs(n, h2, w2, kh * kw * c)
    contrib = np.empty(g[slabs[0]].size // k * c)
    for clips, rows in slabs:
        g_rows = g[clips, rows].reshape(-1, k)
        part = contrib[: len(g_rows) * c].reshape(-1, c)
        for i in range(kh):
            for j in range(kw):
                np.dot(g_rows, kt[i, j], out=part)
                target = gxp[clips, rows.start + i : rows.stop + i, j : j + w2]
                target += part.reshape(target.shape)
    h, w = x.shape[1:3]
    ph, pw = padding
    # a contiguous copy of the unpadded part is owned, so it becomes x.grad
    # without a zero-filled buffer to add it into
    gx = gxp[:, ph : ph + h, pw : pw + w].copy() if (ph or pw) else gxp
    _accumulate(x, gx, owned=True)


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
    _check_conv(x, kernel, padding)
    xp = _pad(x.data, padding)
    out = Tensor(_conv_forward(xp, kernel.data))

    def backward():
        if out.grad is not None:
            _conv_backward(x, kernel, padding, xp, np.ascontiguousarray(out.grad))

    return _record((x, kernel), out, backward)


def _check_batch_norm(c: int, gamma: Tensor, beta: Tensor, eps: float) -> None:
    if eps <= 0.0:
        raise ValueError(f"batch_norm eps must be positive, got {eps}")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},)")


def _centered_square_sum(flat: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Per-channel sum of (flat - mean)**2 over the rows of (M, C) ``flat``,
    in ``_channel_sum``'s order.

    With two or more channels einsum adds the rows in sequence, so the sum
    runs slab by slab without an (M, C) temporary: each slab's einsum
    starts with a row that carries the sum so far, times 1.0.
    """
    m, c = flat.shape
    if c == 1:
        dev = flat - mean
        return _channel_sum(dev, 1, dev)
    step = max(1, SLAB_DOUBLES // c)
    carried = np.empty((min(step, m) + 1, c))  # the sum so far, then deviations
    ones = np.empty_like(carried)  # 1.0, then the same deviations
    ones[0] = 1.0
    total = np.zeros(c)
    for start in range(0, m, step):
        slab = flat[start : start + step]
        dev = carried[1 : len(slab) + 1]
        np.subtract(slab, mean, out=dev)
        ones[1 : len(slab) + 1] = dev
        carried[0] = total
        total = np.einsum("ij,ij->j", carried[: len(slab) + 1], ones[: len(slab) + 1])
    return total


def _batch_statistics(
    rows: np.ndarray,
    c: int,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    momentum: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch mean and biased variance of each of the ``c`` channels of
    channels-last ``rows``, with the running buffers moved toward them in
    place (unbiased variance for the running estimate)."""
    m = rows.size // c
    mean = _channel_sum(rows, c) / m
    var = _centered_square_sum(rows.reshape(m, c), mean) / m
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean
    unbiased = var * (m / (m - 1)) if m > 1 else var
    running_var *= 1.0 - momentum
    running_var += momentum * unbiased
    return mean, var


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


def _pool_windows(x: np.ndarray, time_pool: int, freq_pool: int):
    """(N, T', q, F', p, C) window view of NHWC ``x`` and the window offsets
    (a, b) in row-major (time, freq) order: element (a, b) of every window
    is ``windows[:, :, a, :, b]``."""
    if time_pool < 1 or freq_pool < 1:
        raise ValueError(f"pool factors must be >= 1, got {time_pool} and {freq_pool}")
    n, h, w, c = x.shape
    q, p = time_pool, freq_pool
    if h % q or w % p:
        raise ShapeError(f"pool {q}x{p} does not tile input {h}x{w}")
    windows = x.reshape(n, h // q, q, w // p, p, c)
    return windows, [(a, b) for a in range(q) for b in range(p)]


def _window_max(windows: np.ndarray, offsets: list, flip: np.ndarray | None = None) -> np.ndarray:
    """Each window's maximum, or its minimum in the channels where ``flip``
    (as minus the maximum of the negated values, which is exact)."""
    if flip is None or not flip.any():
        out = windows[:, :, 0, :, 0].copy()
        for a, b in offsets[1:]:
            np.maximum(out, windows[:, :, a, :, b], out=out)
        return out
    sign = np.where(flip, -1.0, 1.0)
    out = windows[:, :, 0, :, 0] * sign
    flipped = np.empty_like(out)
    for a, b in offsets[1:]:
        np.maximum(out, np.multiply(windows[:, :, a, :, b], sign, out=flipped), out=out)
    out *= sign
    return out


def _first_max(values: Callable[[int, int], np.ndarray], maxima: np.ndarray, offsets: list) -> list:
    """One boolean mask per window offset marking each window's first
    element, in ``offsets`` order, whose value equals the window maximum;
    ``values(a, b)`` gives the values at offset (a, b) of every window."""
    # windows whose maximum has not been claimed by an earlier element
    unclaimed = np.ones(maxima.shape, dtype=bool)
    hits = []
    for a, b in offsets:
        hit = values(a, b) == maxima
        hit &= unclaimed
        unclaimed ^= hit
        hits.append(hit)
    return hits


def max_pool(x: Tensor, time_pool: int, freq_pool: int) -> Tensor:
    """Max over non-overlapping (time_pool, freq_pool) windows of NHWC input.

    The gradient routes to the first maximal element of each window in
    row-major (time, freq) order, the element that a max over freq and
    then over time would pick.
    """
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"max_pool expects 4-D NHWC input, got {x.shape}")
    windows, offsets = _pool_windows(x.data, time_pool, freq_pool)
    out_data = _window_max(windows, offsets)
    out = Tensor(out_data)

    def backward():
        if out.grad is None or not _tracked(x):
            return
        first = np.empty(windows.shape, dtype=bool)
        hits = _first_max(lambda a, b: windows[:, :, a, :, b], out_data, offsets)
        for (a, b), hit in zip(offsets, hits):
            first[:, :, a, :, b] = hit
        g = out.grad[:, :, None, :, None]
        _accumulate(x, np.where(first, g, 0.0).reshape(x.shape), owned=True)

    return _record((x,), out, backward)


def conv_block(
    x: Tensor,
    kernel: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    padding: tuple[int, int] = (0, 0),
    time_pool: int = 1,
    freq_pool: int = 1,
    eps: float = 1e-5,
    momentum: float = 0.1,
    train: bool = True,
) -> Tensor:
    """relu(max_pool(batch_norm(conv2d(x, kernel)))) as one op, with the
    same bits as that chain in its output, gradients and running buffers.

    Batch norm maps each channel through (((y - mean) * inv_sigma) * gamma)
    + beta, and every step of that chain, rounding included, is monotone:
    non-decreasing when gamma >= 0, non-increasing when gamma < 0. So the
    maximum of a window's normalized values is the normalized value of
    the window's largest conv output (its smallest where gamma < 0), and
    the forward pools the conv output ``y`` first and normalizes only the
    pooled values. The tape keeps ``y`` and the pooled output, nothing
    else at full resolution.

    The backward recomputes batch norm's x_hat in ``y``'s buffer with the
    forward's ops. Each window's gradient goes to its first element, in
    row-major (time, freq) order, whose recomputed normalized value equals
    the window's output: the chain's tie rule. (Where relu cut a window
    the gradient is zero and the choice does not matter, so the pooled
    output stands in for the pre-relu maximum.) The batch-norm sums take
    the winners in full-resolution pixel order: (N, T', q, F', C) rows,
    which einsum adds in the sequence the chain's full-size sum does, the
    other pixels' zeros changing nothing. (With one channel np.sum adds
    pairwise, so the sums then run over a full-size gradient.) The input
    gradient of batch norm is written into ``y``'s buffer, which then goes
    to the conv backward.
    """
    x, kernel, gamma, beta = as_tensor(x), as_tensor(kernel), as_tensor(gamma), as_tensor(beta)
    _check_conv(x, kernel, padding)
    _check_batch_norm(kernel.shape[0], gamma, beta, eps)
    y = _conv_forward(_pad(x.data, padding), kernel.data)
    windows, offsets = _pool_windows(y, time_pool, freq_pool)
    n, h, w, c = y.shape
    q, p = time_pool, freq_pool
    h2, w2 = h // q, w // p
    m = n * h * w
    rows = y.reshape(n * h, w * c)
    if train:
        mean, var = _batch_statistics(rows, c, running_mean, running_var, momentum)
    else:
        mean, var = running_mean.copy(), running_var
    inv_sigma = 1.0 / np.sqrt(var + eps)

    out_data = _window_max(windows, offsets, flip=gamma.data < 0.0)
    pooled = out_data.reshape(n * h2, w2 * c)
    pooled -= np.tile(mean, w2)
    pooled *= np.tile(inv_sigma, w2)
    pooled *= np.tile(gamma.data, w2)
    pooled += np.tile(beta.data, w2)
    np.maximum(out_data, 0.0, out=out_data)
    out = Tensor(out_data)

    def backward():
        if out.grad is None:
            return
        # Zero signs: the chain's gradients are 0.0 where these can be -0.0,
        # but every sum that reads them starts from 0.0 (einsum, BLAS and the
        # zero-filled gradient buffers), so the sign changes no bit.
        g_win = out.grad * (out_data > 0.0)  # relu's gradient
        # x_hat, recomputed in y's buffer
        np.subtract(rows, np.tile(mean, w), out=rows)
        np.multiply(rows, np.tile(inv_sigma, w), out=rows)
        x_hat = windows  # the (N, T', q, F', p, C) view of that buffer
        tmp = np.empty_like(out_data)

        def normalized(a: int, b: int) -> np.ndarray:
            np.multiply(x_hat[:, :, a, :, b], gamma.data, out=tmp)
            return np.add(tmp, beta.data, out=tmp)

        hits = _first_max(normalized, out_data, offsets)
        if c == 1:
            # np.sum adds one channel pairwise: the sums run over every pixel
            g_pix = np.zeros(windows.shape)
            x_pix = x_hat
            for (a, b), hit in zip(offsets, hits):
                g_pix[:, :, a, :, b] += np.multiply(g_win, hit, out=tmp)
        else:
            # einsum adds rows in sequence, so the winners alone, in
            # (N, T', q, F') rows, give the full-size sums' bits
            x_pix = np.zeros((n, h2, q, w2, c))
            # with q == 1 each window with a nonzero gradient has one winner
            # and the windows are in pixel order already
            g_pix = g_win[:, :, None] if q == 1 else np.zeros_like(x_pix)
            for (a, b), hit in zip(offsets, hits):
                x_pix[:, :, a] += np.multiply(x_hat[:, :, a, :, b], hit, out=tmp)
                if q > 1:
                    g_pix[:, :, a] += np.multiply(g_win, hit, out=tmp)
        sum_g = _channel_sum(g_pix, c)
        sum_gx_hat = _channel_sum(g_pix, c, x_pix)
        del g_pix, x_pix
        if _tracked(gamma):
            _accumulate(gamma, sum_gx_hat)
        if _tracked(beta):
            _accumulate(beta, sum_g)
        if not (_tracked(x) or _tracked(kernel)):
            return
        coeff = gamma.data * inv_sigma
        if train:
            np.multiply(rows, np.tile(sum_gx_hat / m, w), out=rows)
        for (a, b), hit in zip(offsets, hits):
            # the chain's full-size gradient at offset (a, b): the window's
            # gradient at its winner, 0.0 elsewhere
            g_ab = np.multiply(g_win, hit, out=tmp)
            dx = x_hat[:, :, a, :, b]
            if train:
                g_ab -= sum_g / m
                np.subtract(g_ab, dx, out=dx)
            else:
                np.multiply(g_ab, coeff, out=dx)
        if train:
            np.multiply(rows, np.tile(coeff, w), out=rows)
        _conv_backward(x, kernel, padding, _pad(x.data, padding), y)

    return _record((x, kernel, gamma, beta), out, backward)


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

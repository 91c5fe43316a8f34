"""Dense float64 tensors with a reverse-mode gradient tape.

Everything runs on numpy arrays in 64-bit floats. Operations record a
backward rule onto a tape while they execute, so the recording order is
already a topological order; ``Tensor.backward`` replays the tape in exact
reverse. Gradients accumulate additively when a tensor feeds several
consumers, and each rule leaves the tape as soon as it has run.
"""

from __future__ import annotations

import functools
import math
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

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


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Zero entries with probability p and rescale survivors by 1/(1-p),
    the mask drawn from ``rng``."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {p}")
    x = as_tensor(x)
    if p == 0.0:
        return x
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


def _gemm_rows(rows: np.ndarray) -> np.ndarray:
    """(M, K) ``rows``, with a zero column appended when K == 1.

    numpy computes a product with a one-row operand as a gemv, and
    OpenBLAS splits a long gemv's sum between threads, so its bits depend
    on the thread count; with two rows it is a gemm, whose bits do not.
    """
    return rows if rows.shape[1] > 1 else np.concatenate([rows, np.zeros_like(rows)], axis=1)


# Doubles in one conv2d slab buffer (1 MiB). conv2d fills and multiplies
# one slab of output pixels at a time, so no temporary grows with the batch.
SLAB_DOUBLES = 1 << 17

# Pixels in one piece of conv2d's backward. OpenBLAS cuts a gemm's inner
# dimension into blocks of 384 and splits a last remainder of 384 to 768 in
# two, rounded one way with one thread and another with several unless the
# remainder is a multiple of 32. So a product whose inner length is at most
# 384 or a multiple of 32 has the same bits at any thread count.
PIECE_PIXELS = 384


def _slabs(
    n: int, h: int, w: int, pixels: int, whole_clips: bool = True
) -> list[tuple[slice, slice]]:
    """(clips, rows) slices that tile an (n, h, w) image in slabs of at
    most ``pixels`` pixels (and never less than one row).

    A slab holds whole clips when one clip fits and ``whole_clips`` allows
    it, and otherwise rows of one clip; either way its pixels are
    contiguous in an NHWC array.
    """
    if whole_clips and h * w <= pixels:
        step = pixels // (h * w)
        return [(slice(b, min(b + step, n)), slice(0, h)) for b in range(0, n, step)]
    step = max(1, pixels // w)
    return [
        (slice(b, b + 1), slice(r, min(r + step, h)))
        for b in range(n)
        for r in range(0, h, step)
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
    """NHWC ``x`` with ``padding`` (rows, columns) of zeros on both sides of
    each image axis; a negative count crops that many instead."""
    ph, pw = padding
    h, w = x.shape[1:3]
    x = x[:, max(0, -ph) : h - max(0, -ph), max(0, -pw) : w - max(0, -pw)]
    ph, pw = max(0, ph), max(0, pw)
    return np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0))) if (ph or pw) else x


def _windows(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(N, H', W', kh, kw, C) view of the (kh, kw) windows of NHWC ``xp``,
    each in the row order of a (kh*kw*C, ·) kernel matrix."""
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    return windows.transpose(0, 1, 2, 4, 5, 3)


def _column_buffer(windows: np.ndarray, slab: tuple) -> np.ndarray:
    """A buffer for the im2col columns of ``slab``, the largest slab, past
    ``PIECE_PIXELS`` widened with zero columns to a multiple of 32 (see there)."""
    width = math.prod(windows.shape[3:])
    cols = width if width <= PIECE_PIXELS else -(-width // 32) * 32
    buf = np.empty((math.prod(windows[slab].shape[:3]), cols))
    buf[:, width:] = 0.0
    return buf


def _zero_rows(mat: np.ndarray, rows: int) -> np.ndarray:
    """``mat`` with zero rows up to ``rows``, for a ``_column_buffer``'s zeros."""
    return mat if len(mat) == rows else np.pad(mat, ((0, rows - len(mat)), (0, 0)))


def _columns(windows: np.ndarray, slab: tuple, buf: np.ndarray) -> np.ndarray:
    """The first rows of ``buf`` (see ``_column_buffer``), holding one
    im2col row per pixel of ``slab``: its window, then zeros."""
    src = windows[slab]
    cols = buf[: math.prod(src.shape[:3])]
    # the reshape only splits rows and window columns, so it is a view of buf
    np.copyto(cols[:, : math.prod(src.shape[3:])].reshape(src.shape), src)
    return cols


def _conv_forward(xp: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """(N, H', W', K) cross-correlation of the padded NHWC input ``xp`` with
    a (K, C, kh, kw) kernel, one gemm per slab (see ``conv2d``)."""
    n, hp, wp, c = xp.shape
    k, _, kh, kw = kernel.shape
    h2, w2 = hp - kh + 1, wp - kw + 1
    width = kh * kw * c
    slabs = _slabs(n, h2, w2, SLAB_DOUBLES // width)
    windows = _windows(xp, kh, kw)
    buf = _column_buffer(windows, slabs[0])  # the first slab is the largest
    kmat = _zero_rows(kernel.transpose(2, 3, 1, 0).reshape(width, k), buf.shape[1])
    out = np.empty((n, h2, w2, k))
    for slab in slabs:
        np.dot(_columns(windows, slab, buf), kmat, out=out[slab].reshape(-1, k))
    return out


def _conv_backward(x: Tensor, kernel: Tensor, padding: tuple[int, int], g: np.ndarray) -> None:
    """Accumulate the kernel and input gradients of a conv whose contiguous
    output gradient is ``g`` (see ``conv2d``)."""
    k, c, kh, kw = kernel.shape
    total = 0.0  # the kernel gradient's sum over pieces, in piece order
    if _tracked(x):
        # row (i, j, k) of an x pixel's column of the padded g meets that
        # pixel through kernel offset (kh - 1 - i, kw - 1 - j)
        windows = _windows(_pad(g, (kh - 1 - padding[0], kw - 1 - padding[1])), kh, kw)
        gx = np.empty(x.shape)
        pieces = _slabs(*x.shape[:3], PIECE_PIXELS, whole_clips=False)
        buf = _column_buffer(windows, pieces[0])
        kflip = kernel.data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, c)
        kflip = _zero_rows(kflip, buf.shape[1])
        for piece in pieces:
            cols = _columns(windows, piece, buf)
            np.dot(cols, kflip, out=gx[piece].reshape(-1, c))
            if _tracked(kernel):
                total += np.dot(_gemm_rows(cols).T, _gemm_rows(x.data[piece].reshape(-1, c)))
        _accumulate(x, gx, owned=True)
        if _tracked(kernel):
            gk = total[: kh * kw * k, :c].reshape(kh, kw, k, c)[::-1, ::-1].transpose(2, 3, 0, 1)
            _accumulate(kernel, gk)
    elif _tracked(kernel):
        windows = _windows(_pad(x.data, padding), kh, kw)
        width = kh * kw * c
        many = max(1, SLAB_DOUBLES // width // PIECE_PIXELS) if g.shape[2] % 32 == 0 else 1
        pieces = _slabs(*g.shape[:3], many * PIECE_PIXELS, whole_clips=False)
        buf = _column_buffer(windows, pieces[0])
        for piece in pieces:
            cols = _gemm_rows(_columns(windows, piece, buf))
            total += np.dot(_gemm_rows(g[piece].reshape(-1, k)).T, cols)
        _accumulate(kernel, total[:k, :width].reshape(k, kh, kw, c).transpose(0, 3, 1, 2))


def conv2d(x: Tensor, kernel: Tensor, padding: tuple[int, int] = (0, 0)) -> Tensor:
    """2-D cross-correlation of NHWC input with a KCkhkw kernel, NHWC out.

    Zero padding, unit stride, no bias (the model feeds every conv into
    batch norm, whose beta is the shift).

    The forward is im2col over slabs of output pixels (``_slabs``): whole
    clips when one fits in ``SLAB_DOUBLES``, else rows of one clip. One
    ``np.copyto`` from a sliding-window view fills a slab's columns, and one
    gemm with the kernel matrix writes the slab's output in place. Slab
    buffers live only inside one call, so memory does not grow with the
    batch beyond the input, output and their gradients.

    The backward walks pieces of rows of one clip. With the input tracked,
    a piece of at most ``PIECE_PIXELS`` pixels gets one im2col copy of the
    output gradient padded by (kh - 1 - ph, kw - 1 - pw) (cropped where that
    is negative), whose (pixels, kh*kw*K) columns feed two gemms: with the
    flipped kernel into the piece's input-gradient rows, and with its input
    rows into the kernel gradient, summed in piece order. With the input
    untracked (an encoder's first block), the kernel gradient takes im2col
    pieces of the padded input: as many times ``PIECE_PIXELS`` pixels as fit
    in ``SLAB_DOUBLES`` at an output width that is a multiple of 32, else at
    most ``PIECE_PIXELS``. No kernel-gradient bit depends on the batch size,
    nor, at widths up to 384 or a multiple of 32, on the BLAS thread count.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    _check_conv(x, kernel, padding)
    out = Tensor(_conv_forward(_pad(x.data, padding), kernel.data))

    def backward():
        if out.grad is not None:
            _conv_backward(x, kernel, padding, np.ascontiguousarray(out.grad))

    return _record((x, kernel), out, backward)


def _check_batch_norm(c: int, gamma: Tensor, beta: Tensor, eps: float) -> None:
    if eps <= 0.0:
        raise ValueError(f"batch norm eps must be positive, got {eps}")
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


# OpenBLAS's thread-count setters, by the names scipy-openblas, 64-bit and
# plain builds export
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


@functools.lru_cache(maxsize=None)
def _blas_thread_calls():
    """(setter, getter) of the OpenBLAS numpy links against, or None.

    A handle on numpy's compiled core finds the library by ``dlsym``, which
    searches the handle's dependency tree.
    """
    import ctypes

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for name in _BLAS_THREAD_SETTERS:
        setter = getattr(lib, name, None)
        getter = getattr(lib, name.replace("_set_", "_get_"), None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


def _blas_threads() -> int:
    """numpy's OpenBLAS thread count, read now; 1 without OpenBLAS."""
    calls = _blas_thread_calls()
    return max(1, calls[1]()) if calls is not None else 1


# Doubles of conv output in one chunk of conv_block's per-pixel work (2 MiB),
# so that a chunk's several passes find it in cache.
CHUNK_DOUBLES = 1 << 18

# ((pid, threads), pool) of the last _run_chunks call that needed threads. A
# pool made before fork has no threads in the child, so a new pid gets its own.
_chunk_pool: tuple[tuple[int, int], ThreadPoolExecutor] | None = None
_chunk_pool_lock = threading.Lock()


def _run_chunks(
    fn: Callable[[slice, object], None],
    rows: int,
    row_doubles: int,
    scratch: Callable[[int], object],
) -> None:
    """``fn(part, buffers)`` for slices ``part`` that tile ``range(rows)`` in
    chunks of about ``CHUNK_DOUBLES`` (``row_doubles`` per row, at least
    one row).

    The chunks run on a pool of as many threads as numpy's OpenBLAS has
    right now, at most one per four chunks at once, and inline when that
    allows only one: an ablation worker, whose BLAS has one thread, starts
    none, and a small block (a batch-1 prediction) skips the hand-off.
    ``fn`` must only write its own rows, so the result does not depend on
    the thread count or on which chunks run together.

    ``buffers`` is what ``scratch(rows_per_chunk)`` returned, made on the
    calling thread once per running chunk, and ``fn`` keeps its temporaries
    there: memory a worker thread allocates stays in that thread's malloc
    arena once freed, so it would add to the process's resident size.
    """
    global _chunk_pool
    step = min(rows, max(1, CHUNK_DOUBLES // row_doubles))
    parts = [slice(r, min(r + step, rows)) for r in range(0, rows, step)]
    threads = _blas_threads()
    running = min(threads, len(parts) // 4)  # chunks that run at once
    if running <= 1:
        buffers = scratch(step)
        for part in parts:
            fn(part, buffers)
        return
    key = (os.getpid(), threads)
    with _chunk_pool_lock:
        if _chunk_pool is None or _chunk_pool[0] != key:
            if _chunk_pool is not None and _chunk_pool[0][0] == key[0]:
                _chunk_pool[1].shutdown(wait=False)
            _chunk_pool = (key, ThreadPoolExecutor(threads, thread_name_prefix="mbsed-chunk"))
        pool = _chunk_pool[1]
    free = queue.SimpleQueue()  # one set of buffers per running chunk
    for _ in range(running):
        free.put(scratch(step))

    def run(part: slice) -> None:
        buffers = free.get()
        try:
            fn(part, buffers)
        finally:
            free.put(buffers)

    # reading every result re-raises the first exception of a chunk
    for _ in pool.map(run, parts):
        pass


def _pool_windows(x: np.ndarray, time_pool: int, freq_pool: int):
    """(N*T', q, F', p, C) window view of NHWC ``x`` and the window offsets
    (a, b) in row-major (time, freq) order: element (a, b) of every window
    is ``windows[:, a, :, b]``. A window row, ``windows[i]``, is q*W*C
    contiguous doubles."""
    if time_pool < 1 or freq_pool < 1:
        raise ValueError(f"pool factors must be >= 1, got {time_pool} and {freq_pool}")
    n, h, w, c = x.shape
    q, p = time_pool, freq_pool
    if h % q or w % p:
        raise ShapeError(f"pool {q}x{p} does not tile input {h}x{w}")
    windows = x.reshape(n * (h // q), q, w // p, p, c)
    return windows, [(a, b) for a in range(q) for b in range(p)]


def _window_max(
    windows: np.ndarray, offsets: list, out: np.ndarray, flip: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """Each window's maximum, or its minimum in the channels where ``flip``
    (as minus the maximum of the negated values, which is exact), written
    into and returned as ``out``. ``work``, shaped like ``out``, holds the
    negated values when ``flip`` has a True."""
    first = windows[:, 0, :, 0]
    if not flip.any():
        np.copyto(out, first)
        for a, b in offsets[1:]:
            np.maximum(out, windows[:, a, :, b], out=out)
        return out
    sign = np.where(flip, -1.0, 1.0)
    np.multiply(first, sign, out=out)
    for a, b in offsets[1:]:
        np.maximum(out, np.multiply(windows[:, a, :, b], sign, out=work), out=out)
    out *= sign
    return out


def _first_max(
    values: Callable[[int, int], np.ndarray],
    maxima: np.ndarray,
    offsets: list,
    hits: np.ndarray,
    unclaimed: np.ndarray,
) -> np.ndarray:
    """Fill and return ``hits``: ``hits[k]`` marks, for ``(a, b) =
    offsets[k]``, the windows whose first element, in ``offsets`` order,
    equal to the window maximum sits at (a, b). ``values(a, b)`` gives the
    values at offset (a, b) of every window; ``unclaimed`` is a boolean
    buffer shaped like ``maxima``."""
    # windows whose maximum has not been claimed by an earlier element
    unclaimed.fill(True)
    for k, (a, b) in enumerate(offsets):
        hit = np.equal(values(a, b), maxima, out=hits[k])
        hit &= unclaimed
        unclaimed ^= hit
    return hits


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
    """conv2d, then batch norm, max-pooling and relu as one op, with the
    same bits as that chain of ops in its output, gradients and running
    buffers (the chain is in the tests' ``reference`` module).

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

    The per-pixel work runs in chunks of window rows (``_run_chunks``), on
    as many threads as BLAS has: forward, the window max and the pooled
    values' normalization and relu; backward, one sweep that recomputes
    x_hat, marks the winners and gathers them, and after the batch-norm
    sums a second that writes batch norm's input gradient. Every chunk op
    is elementwise on its own rows. The order-dependent sums (the batch
    statistics and the batch-norm sums over the gathered winners) and the
    conv's products run on the calling thread, so no bit depends on the
    thread count.
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
    rows = y.reshape(n * h, w * c)  # window row i is rows[i * q : (i + 1) * q]
    if train:
        mean, var = _batch_statistics(rows, c, running_mean, running_var, momentum)
    else:
        mean, var = running_mean.copy(), running_var
    inv_sigma = 1.0 / np.sqrt(var + eps)
    flip = gamma.data < 0.0
    pooled = np.empty((n * h2, w2, c))

    def pooled_rows(r: int) -> np.ndarray:
        return np.empty((r, w2, c))

    def pool(part: slice, work: np.ndarray) -> None:
        v = _window_max(windows[part], offsets, pooled[part], flip, work[: part.stop - part.start])
        v -= mean
        v *= inv_sigma
        v *= gamma.data
        v += beta.data
        np.maximum(v, 0.0, out=v)

    _run_chunks(pool, n * h2, q * w * c, pooled_rows)
    out_data = pooled.reshape(n, h2, w2, c)
    out = Tensor(out_data)

    def backward():
        if out.grad is None:
            return
        # Zero signs: the chain's gradients are 0.0 where these can be -0.0,
        # but every sum that reads them starts from 0.0 (einsum, BLAS and the
        # zero-filled gradient buffers), so the sign changes no bit.
        g_out = out.grad.reshape(pooled.shape)
        g_win = np.empty_like(pooled)  # relu's gradient
        hits = np.empty((len(offsets),) + pooled.shape, dtype=bool)
        mean_w, inv_sigma_w = np.tile(mean, w), np.tile(inv_sigma, w)
        if c == 1:
            # np.sum adds one channel pairwise: the sums run over every pixel
            g_pix = np.zeros(windows.shape)
            x_pix = windows
        else:
            # einsum adds rows in sequence, so the winners alone, in
            # (N*T', q, F') rows, give the full-size sums' bits
            x_pix = np.zeros((n * h2, q, w2, c))
            # with q == 1 each window with a nonzero gradient has one winner
            # and the windows are in pixel order already
            g_pix = g_win[:, None] if q == 1 else np.zeros_like(x_pix)

        def gather_scratch(r: int) -> tuple:
            return pooled_rows(r), np.empty((r, w2, c), dtype=bool), np.empty((r, w2, c), dtype=bool)

        def gather(part: slice, buffers: tuple) -> None:
            tmp, live, unclaimed = (b[: part.stop - part.start] for b in buffers)
            # x_hat, recomputed in y's buffer
            x_rows = rows[part.start * q : part.stop * q]
            np.subtract(x_rows, mean_w, out=x_rows)
            np.multiply(x_rows, inv_sigma_w, out=x_rows)
            x_hat = windows[part]
            live = np.greater(pooled[part], 0.0, out=live)
            g = np.multiply(g_out[part], live, out=g_win[part])

            def normalized(a: int, b: int) -> np.ndarray:
                np.multiply(x_hat[:, a, :, b], gamma.data, out=tmp)
                return np.add(tmp, beta.data, out=tmp)

            part_hits = _first_max(normalized, pooled[part], offsets, hits[:, part], unclaimed)
            for (a, b), hit in zip(offsets, part_hits):
                if c == 1:
                    g_pix[part, a, :, b] += np.multiply(g, hit, out=tmp)
                    continue
                x_pix[part, a] += np.multiply(x_hat[:, a, :, b], hit, out=tmp)
                if q > 1:
                    g_pix[part, a] += np.multiply(g, hit, out=tmp)

        _run_chunks(gather, n * h2, q * w * c, gather_scratch)
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
        shift = sum_g / m
        scale_w, coeff_w = np.tile(sum_gx_hat / m, w), np.tile(coeff, w)

        def scatter(part: slice, work: np.ndarray) -> None:
            # batch norm's input gradient, written over x_hat in y's buffer
            x_rows = rows[part.start * q : part.stop * q]
            if train:
                np.multiply(x_rows, scale_w, out=x_rows)
            dx_windows = windows[part]
            g = g_win[part]
            tmp = work[: part.stop - part.start]
            for k, (a, b) in enumerate(offsets):
                # the chain's full-size gradient at offset (a, b): the
                # window's gradient at its winner, 0.0 elsewhere
                g_ab = np.multiply(g, hits[k, part], out=tmp)
                dx = dx_windows[:, a, :, b]
                if train:
                    g_ab -= shift
                    np.subtract(g_ab, dx, out=dx)
                else:
                    np.multiply(g_ab, coeff, out=dx)
            if train:
                np.multiply(x_rows, coeff_w, out=x_rows)

        _run_chunks(scatter, n * h2, q * w * c, pooled_rows)
        _conv_backward(x, kernel, padding, y)

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

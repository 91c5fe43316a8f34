"""Dense float64 tensors with a reverse-mode gradient tape.

Everything runs on numpy arrays in 64-bit floats. Operations record a
backward rule onto a tape while they execute, so the recording order is
already a topological order; ``Tensor.backward`` replays the tape in exact
reverse. Gradients accumulate additively when a tensor feeds several
consumers, and each rule leaves the tape as soon as it has run.

``with profile() as prof:`` totals each op's calls, forward and backward
seconds and output bytes, on every thread.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import queue
import threading
import time
from typing import Callable, Sequence

import numpy as np

from . import blas


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(ValueError):
    """Operand values lie outside the mathematical domain of the op."""


class _GradState(threading.local):
    """Whether this thread records ops onto tapes; each thread starts on."""

    enabled = True


# Gradient recording can be suspended (finite-difference probes, inference),
# per thread, so inference on one thread leaves training on another recording.
_grad = _GradState()


class no_grad:
    """Context manager that suspends tape recording on the calling thread."""

    def __enter__(self):
        self._prev = _grad.enabled
        _grad.enabled = False

    def __exit__(self, *exc):
        _grad.enabled = self._prev
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


def _record(inputs: Sequence[Tensor], out: Tensor, backward: Callable, named_by=None) -> Tensor:
    """Put ``backward`` on the tape of ``inputs`` as ``out``'s rule. A profile
    counts it under the op whose name starts the ``__qualname__`` of
    ``named_by``, or else of ``backward``: "<op>.<locals>.backward"."""
    if not _grad.enabled or not any(_tracked(t) for t in inputs):
        return out
    prof = _profile
    if prof is not None:
        backward = prof._timed(backward, (named_by or backward).__qualname__.partition(".")[0])
    tape = _find_tape(inputs)
    if tape is None:
        tape = Tape()
    out.tape = tape
    tape.entries.append(backward)
    return out


def _recorded(inputs: Sequence[Tensor], data: np.ndarray, grads: Sequence[Callable]) -> Tensor:
    """The output tensor of an op of ``inputs`` whose value is ``data``,
    recorded with the one backward rule: once the output has a gradient g,
    ``grads[i](g)`` is added into ``inputs[i]`` where it is tracked, in
    input order. A profile counts the rule under the op that defines
    ``grads[0]``."""
    out = Tensor(data)

    def backward():
        g = out.grad
        if g is None:
            return
        for t, grad in zip(inputs, grads):
            if _tracked(t):
                _accumulate(t, grad(g))

    return _record(inputs, out, backward, grads[0])


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
# op profiler


@dataclasses.dataclass
class OpStats:
    """One op's totals in a profile: calls, seconds in the calls and in the
    backward rules they recorded, and bytes of their outputs."""

    calls: int = 0
    forward_s: float = 0.0
    backward_s: float = 0.0
    out_bytes: int = 0


class profile:
    """``with profile() as prof:`` totals the ops run while it is open, on
    any thread; ``prof.ops`` maps each op's name to its ``OpStats``.

    A call counts from entry to return, with its output's bytes; the
    backward rule it records counts when it runs, also after the profile
    has closed. Compositions such as ``linear`` and ``swapaxes`` are not
    ops: they show as the ops they call, so no second counts time twice,
    and the calls of a step add up to its tape's entries. Work done
    between ops is in no op's row, such as ``Model.encode``'s draw of a
    dropout mask before the ``mul`` that applies it. Each thread adds
    into a table of its own and ``ops`` merges them, so threads share no
    mutable state. One profile is open at a time. While none is, an op
    pays one test for ``None``, and so does ``_record``.
    """

    def __init__(self):
        self._local = threading.local()
        self._tables: list[dict[str, OpStats]] = []
        self._lock = threading.Lock()

    def __enter__(self) -> "profile":
        global _profile
        with _profile_lock:
            if _profile is not None:
                raise RuntimeError("a profile is already open")
            _profile = self
        return self

    def __exit__(self, *exc) -> bool:
        global _profile
        _profile = None
        return False

    def _stats(self, name: str) -> OpStats:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {}
            with self._lock:
                self._tables.append(table)
        stats = table.get(name)
        if stats is None:
            stats = table[name] = OpStats()
        return stats

    def _call(self, name: str, fn: Callable, args, kwargs) -> Tensor:
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        stats = self._stats(name)
        stats.forward_s += time.perf_counter() - start
        stats.calls += 1
        stats.out_bytes += out.data.nbytes
        return out

    def _timed(self, backward: Callable[[], None], name: str) -> Callable[[], None]:
        def timed() -> None:
            start = time.perf_counter()
            try:
                backward()
            finally:
                self._stats(name).backward_s += time.perf_counter() - start

        return timed

    @property
    def ops(self) -> dict[str, OpStats]:
        """Totals per op name, over every thread, in name order."""
        with self._lock:
            tables = list(self._tables)
        merged: dict[str, OpStats] = {}
        for table in tables:
            for name, stats in list(table.items()):
                into = merged.setdefault(name, OpStats())
                for f in dataclasses.fields(OpStats):
                    setattr(into, f.name, getattr(into, f.name) + getattr(stats, f.name))
        return dict(sorted(merged.items()))


# the open profile, or None
_profile: profile | None = None
_profile_lock = threading.Lock()


def _op(fn: Callable[..., Tensor]) -> Callable[..., Tensor]:
    """``fn`` as an op: counted under its name while a profile is open."""
    name = fn.__name__

    @functools.wraps(fn)
    def op(*args, **kwargs):
        prof = _profile
        if prof is None:
            return fn(*args, **kwargs)
        return prof._call(name, fn, args, kwargs)

    return op


# ---------------------------------------------------------------------------
# elementwise arithmetic


@_op
def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _recorded(
        (a, b),
        a.data + b.data,
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(g, b.shape)),
    )


@_op
def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _recorded(
        (a, b),
        a.data - b.data,
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(-g, b.shape)),
    )


@_op
def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _recorded(
        (a, b),
        a.data * b.data,
        (lambda g: _unbroadcast(g * b.data, a.shape), lambda g: _unbroadcast(g * a.data, b.shape)),
    )


@_op
def matmul(a, b) -> Tensor:
    """Stacked matrix product over the last two axes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    return _recorded(
        (a, b),
        a.data @ b.data,
        (
            lambda g: _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape),
            lambda g: _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape),
        ),
    )


# ---------------------------------------------------------------------------
# shape manipulation


@_op
def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    return _recorded((x,), x.data.reshape(shape), (lambda g: g.reshape(x.shape),))


@_op
def transpose(x: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    x = as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _recorded((x,), x.data.transpose(axes), (lambda g: g.transpose(inverse),))


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    axes = list(range(as_tensor(x).ndim))
    axes[a], axes[b] = axes[b], axes[a]
    return transpose(x, axes)


@_op
def broadcast_to(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    data = np.broadcast_to(x.data, shape).copy()
    return _recorded((x,), data, (lambda g: _unbroadcast(g, x.shape),))


@_op
def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip values into [lo, hi]; gradient passes only strictly inside."""
    x = as_tensor(x)
    interior = (x.data > lo) & (x.data < hi)
    return _recorded((x,), np.clip(x.data, lo, hi), (lambda g: g * interior,))


# ---------------------------------------------------------------------------
# pointwise nonlinearities


@_op
def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    v = x.data
    s = np.empty_like(v)
    pos = v >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    s[~pos] = ev / (1.0 + ev)
    return _recorded((x,), s, (lambda g: g * s * (1.0 - s),))


@_op
def log(x: Tensor) -> Tensor:
    x = as_tensor(x)
    if np.any(x.data <= 0.0):
        raise DomainError("log requires strictly positive inputs")
    return _recorded((x,), np.log(x.data), (lambda g: g / x.data,))


# ---------------------------------------------------------------------------
# reductions and softmax


def _expand(g: np.ndarray, axis: int | None, keepdims: bool) -> np.ndarray:
    return g if keepdims or axis is None else np.expand_dims(g, axis)


@_op
def reduce_sum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Sum along ``axis``, or over every axis when it is None."""
    x = as_tensor(x)
    _check_axis(x, axis)
    return _recorded(
        (x,),
        x.data.sum(axis=axis, keepdims=keepdims),
        (lambda g: np.broadcast_to(_expand(g, axis, keepdims), x.shape).copy(),),
    )


@_op
def reduce_mean(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Mean along ``axis``, or over every axis when it is None."""
    x = as_tensor(x)
    _check_axis(x, axis)
    n = x.size if axis is None else x.shape[axis]
    return _recorded(
        (x,),
        x.data.mean(axis=axis, keepdims=keepdims),
        (lambda g: np.broadcast_to(_expand(g, axis, keepdims) / n, x.shape).copy(),),
    )


@_op
def reduce_max(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; gradient routes to the first maximal element."""
    x = as_tensor(x)
    _check_axis(x, axis)
    # argmax returns the lowest index among ties, which is the declared
    # tie-break rule.
    argmax = np.expand_dims(x.data.argmax(axis=axis), axis)

    def grad(g: np.ndarray) -> np.ndarray:
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, argmax, _expand(g, axis, keepdims), axis)
        return gx

    return _recorded((x,), x.data.max(axis=axis, keepdims=keepdims), (grad,))


def _check_axis(x: Tensor, axis: int | None) -> None:
    if axis is None:
        return
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for rank {x.ndim}")
    if x.shape[axis] == 0:
        raise ShapeError(f"cannot reduce over empty axis {axis} of shape {x.shape}")


@_op
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

    def grad(g: np.ndarray) -> np.ndarray:
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (g - inner) * y / scale

    return _recorded((x,), y, (grad,))


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


# Doubles in one conv slab buffer (1 MiB). The conv fills and multiplies
# one slab of output pixels at a time, so no temporary grows with the batch.
SLAB_DOUBLES = 1 << 17

# Pixels in one piece of the conv's backward. The kernel gradient is a sum
# of one term per piece, added in piece order, so this tiling fixes the
# order of that sum, and with it the gradient's bits.
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


def _check_conv(x: Tensor, kernel: Tensor) -> None:
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv expects 4-D input and kernel, got {x.shape} and {kernel.shape}")
    _, h, w, c = x.shape
    _, ck, kh, kw = kernel.shape
    if ck != c:
        raise ShapeError(f"kernel channels {ck} do not match input channels {c}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"kernel {kh}x{kw} has an even side, which no padding centres")
    if h == 0 or w == 0:
        raise ShapeError(f"conv input {h}x{w} has no rows or no columns")


def _windows(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(N, H', W', kh, kw, C) view of the (kh, kw) windows of NHWC ``xp``,
    each in the row order of a (kh*kw*C, ·) kernel matrix."""
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    return windows.transpose(0, 1, 2, 4, 5, 3)


def _columns(windows: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The first rows of ``buf`` holding one im2col row per pixel of
    (N, H', W', kh, kw, C) ``windows``: its window."""
    cols = buf[: math.prod(windows.shape[:3])]
    # the reshape only splits rows and window columns, so it is a view of buf
    np.copyto(cols.reshape(windows.shape), windows)
    return cols


def _im2col(
    a: np.ndarray, kh: int, kw: int, parts: list[tuple[slice, slice]]
) -> tuple[Callable[[], object], Callable[[tuple, object], np.ndarray]]:
    """``(scratch, columns)`` for the im2col rows of the "same" (kh, kw)
    conv of NHWC ``a``, whose odd sides pad (kh // 2, kw // 2) zeros on
    both sides of each image axis, over ``parts``: (clips, rows) slices of
    the output, which is ``a``'s size, the first the largest (``_slabs``).
    ``scratch()`` makes one part's buffers, on the calling thread as
    ``_run_parts`` requires, and ``columns(part, buffers)`` returns the
    part's (pixels, kh*kw*C) im2col rows.

    Each part pads its own rows, padded rows ``start`` to ``stop + kh - 1``,
    so nothing of ``a``'s size is copied. A 1x1 kernel pads nothing, and
    its rows are a view of ``a``. Otherwise they are copied into a buffer
    whose border columns are zero from the start, and only the halo rows
    that a part at a clip's edge reads from outside the clip are zeroed
    again.
    """
    n, h, w, c = a.shape
    ph, pw = kh // 2, kw // 2
    clips, rows = parts[0]
    shape = (clips.stop - clips.start, rows.stop - rows.start + kh - 1, w + 2 * pw, c)
    pixels = shape[0] * (rows.stop - rows.start) * w
    if kh == kw == 1:
        windows = _windows(a, 1, 1)

        def scratch() -> np.ndarray:
            return np.empty((pixels, c))

        def columns(part: tuple, cols: np.ndarray) -> np.ndarray:
            return _columns(windows[part], cols)

        return scratch, columns

    def scratch() -> tuple:
        padded = np.zeros(shape)
        return np.empty((pixels, kh * kw * c)), padded, _windows(padded, kh, kw)

    def columns(part: tuple, buffers: tuple) -> np.ndarray:
        cols, padded, windows = buffers
        clips, rows = part
        nb = clips.stop - clips.start
        # the rows of ``a`` that the part's windows cover, and those of them
        # inside the clip
        top, bottom = rows.start - ph, rows.stop + ph
        lo, hi = max(top, 0), min(bottom, h)
        padded[:nb, : lo - top] = 0.0
        padded[:nb, hi - top : bottom - top] = 0.0
        padded[:nb, lo - top : hi - top, pw : pw + w] = a[clips, lo:hi]
        return _columns(windows[:nb, : rows.stop - rows.start], cols)

    return scratch, columns


def _conv_forward(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """(N, H, W, K) "same" cross-correlation of NHWC ``x`` with a (K, C,
    kh, kw) kernel of odd sides, zero-padded by (kh // 2, kw // 2): unit
    stride, no bias (batch norm's beta is the shift). It is im2col over
    slabs of output pixels (``_slabs``), whole clips when one fits in
    ``SLAB_DOUBLES`` and rows of one clip otherwise: each slab pads its own
    input rows (``_im2col``), one ``np.copyto`` fills its columns and one
    gemm writes its output rows, so no temporary grows with the batch."""
    n, h, w, c = x.shape
    k, _, kh, kw = kernel.shape
    width = kh * kw * c
    slabs = _slabs(n, h, w, SLAB_DOUBLES // width)
    scratch, columns = _im2col(x, kh, kw, slabs)
    kmat = kernel.transpose(2, 3, 1, 0).reshape(width, k)
    out = np.empty((n, h, w, k))

    def slab_gemm(slab: tuple, buffers, _) -> None:
        np.dot(columns(slab, buffers), kmat, out=out[slab].reshape(-1, k))

    _run_parts(slab_gemm, slabs, scratch)
    return out


def _conv_backward(x: Tensor, kernel: Tensor, g: np.ndarray) -> None:
    """Accumulate the kernel and input gradients of a "same" conv whose
    contiguous output gradient is ``g``, over pieces of rows of one clip,
    each of which pads its own rows (``_im2col``). With the input tracked,
    a piece of at most ``PIECE_PIXELS`` pixels of the input takes one
    im2col copy of its rows of ``g``, "same"-padded like the input, whose
    columns feed two gemms: with the flipped kernel into the piece's
    input-gradient rows, and with its input rows into its kernel-gradient
    term. With the input untracked (an encoder's first block), im2col
    pieces of the input, as many times ``PIECE_PIXELS`` pixels of the
    output as fit in ``SLAB_DOUBLES``, give the terms alone. ``_run_parts``
    adds the terms in piece order."""
    k, c, kh, kw = kernel.shape
    if _tracked(x):
        # row (i, j, k) of an x pixel's column of the padded g meets that
        # pixel through kernel offset (kh - 1 - i, kw - 1 - j)
        pieces = _slabs(*x.shape[:3], PIECE_PIXELS, whole_clips=False)
        scratch, columns = _im2col(g, kh, kw, pieces)
        gx = np.empty(x.shape)
        width = kh * kw * k
        kflip = kernel.data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(width, c)
        # the kernel gradient's sum over pieces, in piece order
        total = np.zeros((width, c)) if _tracked(kernel) else None

        def piece_grads(piece: tuple, buffers, term: np.ndarray | None) -> None:
            cols = columns(piece, buffers)
            np.dot(cols, kflip, out=gx[piece].reshape(-1, c))
            if term is not None:
                np.dot(cols.T, x.data[piece].reshape(-1, c), out=term)

        _run_parts(piece_grads, pieces, scratch, total)
        _accumulate(x, gx, owned=True)
        if total is not None:
            gk = total.reshape(kh, kw, k, c)[::-1, ::-1].transpose(2, 3, 0, 1)
            _accumulate(kernel, gk)
    elif _tracked(kernel):
        width = kh * kw * c
        many = max(1, SLAB_DOUBLES // width // PIECE_PIXELS)
        pieces = _slabs(*g.shape[:3], many * PIECE_PIXELS, whole_clips=False)
        scratch, columns = _im2col(x.data, kh, kw, pieces)
        total = np.zeros((k, width))

        def piece_grad(piece: tuple, buffers, term: np.ndarray) -> None:
            np.dot(g[piece].reshape(-1, k).T, columns(piece, buffers), out=term)

        _run_parts(piece_grad, pieces, scratch, total)
        _accumulate(kernel, total.reshape(k, kh, kw, c).transpose(0, 3, 1, 2))


# Batch norm's variance floor and running-buffer momentum, the same in
# every encoder block.
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def _check_batch_norm(c: int, gamma: Tensor, beta: Tensor) -> None:
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},)")


# Doubles of conv output in one chunk of conv_block's per-pixel work (2 MiB),
# so that a chunk's several passes find it in cache.
CHUNK_DOUBLES = 1 << 18

# Doubles of scratch that the parts of one _run_parts call running at once
# may hold between them (2 MiB), unless two parts' scratch is more.
SCRATCH_DOUBLES = 1 << 18

def _nbytes(buffers) -> int:
    """Bytes that the arrays in ``buffers``, an array or a tuple of them,
    own: a view of another array's memory adds none."""
    items = buffers if isinstance(buffers, tuple) else (buffers,)
    return sum(b.nbytes for b in items if isinstance(b, np.ndarray) and b.base is None)


def _run_parts(
    fn: Callable[[object, object, np.ndarray | None], None],
    parts: list,
    scratch: Callable[[], object],
    total: np.ndarray | None = None,
) -> None:
    """``fn(part, buffers, term)`` for every part of ``parts``. With
    ``total``, ``fn`` writes its part's term into ``term``, shaped like
    ``total``, and the terms are added into ``total`` in part order on the
    calling thread, as a serial loop would add them.

    Every product in ``fn`` runs at one BLAS thread, as every product in
    the process does once mbsed is imported, and the parts run through
    ``blas.run_in_order``, at most ``blas.threads()`` and one per four parts
    at once: inline where that is one (an ablation worker with one thread,
    a ``map_clips`` clip on a pool thread, or a small op). ``fn`` must only
    write its own part of a shared output, so the result does not depend
    on the thread count or on which parts run together.

    Every buffer is made on the calling thread, since memory a pool thread
    allocates stays in its malloc arena once freed: ``buffers`` is what
    ``scratch()`` returned, one set per running part, and part i's ``term``
    is ``terms[i % len(terms)]``, of two per running part (one inline), free
    again as the runner starts part i only once part i - 2 * running is
    added. The parts that run at once hold at most ``SCRATCH_DOUBLES`` of
    buffers and terms between them, or two parts' worth where one part's
    is more, so scratch memory does not grow with the core count.
    """
    buffers = scratch()
    part_bytes = _nbytes(buffers) + (0 if total is None else 2 * total.nbytes)
    # parts that run at once
    running = min(
        blas.threads(), len(parts) // 4, max(2, SCRATCH_DOUBLES * 8 // max(1, part_bytes))
    )
    free = queue.SimpleQueue()
    free.put(buffers)
    for _ in range(running - 1):
        free.put(scratch())
    terms = [None if total is None else np.empty_like(total)
             for _ in range(2 * running if running > 1 else 1)]

    def run(part, term: np.ndarray | None) -> np.ndarray | None:
        buffers = free.get()
        try:
            fn(part, buffers, term)
        finally:
            free.put(buffers)
        return term

    def add(term: np.ndarray | None) -> None:
        if total is not None:
            np.add(total, term, out=total)

    tasks = (functools.partial(run, part, terms[i % len(terms)]) for i, part in enumerate(parts))
    blas.run_in_order(tasks, running, add)


def _run_chunks(
    fn: Callable[[slice, object, np.ndarray | None], None],
    rows: int,
    row_doubles: int,
    scratch: Callable[[int], object],
    total: np.ndarray | None = None,
) -> None:
    """``fn(part, buffers, term)`` through ``_run_parts``, for slices
    ``part`` that tile ``range(rows)`` in chunks of about ``CHUNK_DOUBLES``
    (``row_doubles`` per row, at least one row); ``buffers`` is what
    ``scratch(rows_per_chunk)`` returned; with ``total`` the terms are added
    in chunk order (``_run_parts``). The chunks never follow the thread count."""
    step = min(rows, max(1, CHUNK_DOUBLES // row_doubles))
    parts = [slice(r, min(r + step, rows)) for r in range(0, rows, step)]
    _run_parts(fn, parts, lambda: scratch(step), total)


def _column_sums(rows: np.ndarray, out: np.ndarray) -> None:
    """The column sums of 2-D ``rows`` into ``out``, each added in row order
    (numpy's reduce adds a single column pairwise, an accumulate does not)."""
    if rows.shape[1] > 1:
        np.add.reduce(rows, axis=0, out=out)
    else:
        out[...] = np.add.accumulate(rows[:, 0])[-1:]


def _partial_sum(rows: np.ndarray, pix: np.ndarray, term: np.ndarray) -> None:
    """A chunk's term of ``_channel_sums``: the column sums of (k, W*C)
    ``rows`` into (W, C) ``pix``, whose column sums go into (C,) ``term``."""
    _column_sums(rows, pix.reshape(-1))
    _column_sums(pix, term)


def _channel_sums(rows: np.ndarray, c: int, window: int = 1) -> np.ndarray:
    """Per-channel sums of channels-last (R, W*C) ``rows`` in the order of
    every batch-norm sum: one term per chunk of ``_run_chunks`` over groups
    of ``window`` rows (a pooling window's rows in ``conv_block``), each the
    chunk's column sums in row order folded over the W pixels in order
    (``_partial_sum``), the terms added in chunk order to 0.0. Every add is
    in sequence, so exact zeros anywhere change no bit: x + 0.0 is x, and a
    zero's sign shows only in a sum of zeros, which the 0.0 makes +0.0."""
    r, width = rows.shape

    def partial(part: slice, pix: np.ndarray, term: np.ndarray) -> None:
        _partial_sum(rows[part.start * window : part.stop * window], pix, term)

    total = np.zeros(c)
    _run_chunks(partial, r // window, window * width, lambda _: np.empty((width // c, c)), total)
    return total


def _move_running(running_mean, running_var, mean, var, m: int) -> None:
    """Move the running buffers in place by ``BN_MOMENTUM`` toward a batch's
    mean and biased variance over ``m`` values (unbiased variance for the
    running estimate)."""
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mean
    unbiased = var * (m / (m - 1)) if m > 1 else var
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * unbiased


def _pool_windows(x: np.ndarray, time_pool: int, freq_pool: int):
    """(N*T', q, F', p, C) window view of NHWC ``x``: element (a, b) of
    every window is ``windows[:, a, :, b]``. A window row, ``windows[i]``,
    is q*W*C contiguous doubles."""
    if time_pool < 1 or freq_pool < 1:
        raise ValueError(f"pool factors must be >= 1, got {time_pool} and {freq_pool}")
    n, h, w, c = x.shape
    q, p = time_pool, freq_pool
    if h % q or w % p:
        raise ShapeError(f"pool {q}x{p} does not tile input {h}x{w}")
    return x.reshape(n * (h // q), q, w // p, p, c)


def _window_max(
    windows: np.ndarray, out: np.ndarray, sign: np.ndarray | None, work: np.ndarray
) -> np.ndarray:
    """Each window's maximum, or its minimum in the channels where ``sign``
    is -1.0 (as minus the maximum of the negated values), written into and
    returned as (R, F', C) ``out``.

    ``windows`` is a (R, q, F', p, C) view whose window rows are q*W*C
    contiguous doubles, and ``sign``, when given, is tiled over W pixels.
    The time offsets go first, over whole rows of W*C doubles, into
    ``work`` (R, W*C) when q > 1, then the freq offsets over the 1/q as
    many row maxima. A maximum is one of the values it compares, so this
    order gives the value the chain's freq-then-time pooling gives; which
    element it is, the backward finds by the chain's tie rule itself
    (``conv_block``). ``sign`` negates the windows in place for the search
    and then restores them: negation is exact, so no bit moves.
    """
    r, q, f2, p, c = windows.shape
    rows = windows.reshape(r, q, f2 * p * c)
    if sign is not None:
        rows *= sign
    best = rows[:, 0] if q == 1 else np.maximum(rows[:, 0], rows[:, 1], out=work)
    for a in range(2, q):
        np.maximum(best, rows[:, a], out=best)
    best = best.reshape(r, f2, p, c)
    np.copyto(out, best[:, :, 0])
    for b in range(1, p):
        np.maximum(out, best[:, :, b], out=out)
    if sign is not None:
        rows *= sign
        flat = out.reshape(r, f2 * c)
        flat *= sign[: f2 * c]
    return out


@_op
def conv_block(
    x: Tensor,
    kernel: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    time_pool: int,
    freq_pool: int,
    train: bool = True,
) -> Tensor:
    """One encoder block: a "same" conv (odd kernel sides, padded by
    (kh // 2, kw // 2), unit stride, no bias), then batch norm (``BN_EPS``,
    ``BN_MOMENTUM``), max-pooling and relu as one op, with the same bits as
    that chain of ops in its output, gradients and running buffers (the
    chain is in the tests' ``reference`` module, whose batch norm takes the
    time pool as its sums' ``window``, so that they have this op's chunks
    of whole window rows).

    Batch norm maps each channel through (((y - mean) * inv_sigma) * gamma)
    + beta, and every step of that chain, rounding included, is monotone:
    non-decreasing when gamma >= 0, non-increasing when gamma < 0. So the
    maximum of a window's normalized values is the normalized value of
    the window's largest conv output (its smallest where gamma < 0), and
    the forward pools the conv output ``y`` first and normalizes only the
    pooled values. The tape keeps ``y`` and the pooled output, nothing
    else at full resolution; the conv pads each slab's rows itself
    (``_im2col``), so no padded copy of the input is made either.

    Train and eval mode differ only in where mean and var come from: the
    batch, with the running buffers moved toward it, or the running
    buffers. Every per-channel sum of batch norm (the mean, the centered
    square sum, and the backward's sums of g and g * x_hat) is a
    ``_channel_sums``: one term per chunk of whole window rows, the chunks
    fixed by ``CHUNK_DOUBLES`` and the row width, each term a plain axis-0
    reduction of the chunk's W*C-wide rows folded over the W pixels, the
    terms added in chunk order. Each term is taken in the chunk sweep that
    reads those rows. Forward: the mean in a pass of its own (train mode),
    then the raw window max (``_window_max``) with, in train mode, the
    centered squares beside it, then one pass that normalizes and relus
    the pooled values. Backward, one sweep recomputes x_hat in ``y``'s
    buffer with the forward's ops and, offset by offset in row-major
    (time, freq) order, copies the offset's x_hat into a contiguous buffer
    and finds the winners: each window's gradient goes to its first
    element whose recomputed normalized value equals the window's output,
    the chain's tie rule (where relu cut a window the gradient is zero, so
    the pooled output stands in for the pre-relu maximum). The chain sums
    a full-size gradient that is zero off the winners; this sweep sums,
    per column of a window row, the one winner the chain's q rows hold
    there, and exact zeros change no bit of a ``_channel_sums``. A second
    sweep writes batch norm's input gradient, ((g - shift) - x_hat *
    scale) * coeff, over ``y``'s buffer, which goes to the conv backward.
    In eval mode the statistics are constants, so shift and scale are
    zero: the formula gives g * coeff up to the sign of a zero, which the
    conv backward's zero-started sums make +0.0.

    Beyond the tape, the backward allocates each window's winning offset
    as one byte (q*p where no offset won, as where relu cut the window),
    writes relu's gradient over the op's own output gradient, and drops
    both before the conv backward, which adds only the input gradient and
    its pieces' scratch.

    The chunks run on as many threads as BLAS has (``_run_chunks``). Every
    chunk op is elementwise on its own rows, the sums' terms are added in
    chunk order, and the conv's gemms run at one BLAS thread
    (``_run_parts``), so no bit depends on the thread count. A numpy op
    over a strided window view, or against a (C,) vector, runs an inner
    loop of C doubles per pixel, which costs several times a contiguous
    row's per double when C is small (2 in the gate's compact encoder's
    first block). So every pass runs over rows of whole pixels: per-channel
    vectors are tiled over a row, and a window offset is read or written as
    one item of C doubles per pixel (a void view of ``y``).
    """
    x, kernel, gamma, beta = as_tensor(x), as_tensor(kernel), as_tensor(gamma), as_tensor(beta)
    _check_conv(x, kernel)
    _check_batch_norm(kernel.shape[0], gamma, beta)
    y = _conv_forward(x.data, kernel.data)
    windows = _pool_windows(y, time_pool, freq_pool)
    n, h, w, c = y.shape
    q, p = time_pool, freq_pool
    h2, w2 = h // q, w // p
    m = n * h * w
    rows = y.reshape(n * h, w * c)  # window row i is rows[i * q : (i + 1) * q]
    if train:
        mean = _channel_sums(rows, c, q) / m
    else:
        mean, var = running_mean, running_var
    mean_w = np.tile(mean, w)
    flip = gamma.data < 0.0
    sign = np.tile(np.where(flip, -1.0, 1.0), w) if flip.any() else None
    # pooled rows of F'*C doubles
    pooled = np.empty((n * h2, w2 * c))

    def pool_scratch(r: int) -> tuple:
        # _window_max's row maxima, which need a buffer when q > 1, and in
        # train mode the chunk's squared deviations and its pixels' sums
        return (np.empty((r, w * c if q > 1 else 0)), np.empty((r * q if train else 0, w * c)),
                np.empty((w, c)))

    def pool(part: slice, buffers: tuple, term: np.ndarray | None) -> None:
        work, dev, pix = buffers
        v = pooled[part]
        _window_max(windows[part], v.reshape(-1, w2, c), sign, work[: len(v)])
        if term is not None:
            dev = dev[: len(v) * q]
            np.subtract(rows[part.start * q : part.stop * q], mean_w, out=dev)
            np.multiply(dev, dev, out=dev)
            _partial_sum(dev, pix, term)

    square_sum = np.zeros(c) if train else None
    _run_chunks(pool, n * h2, q * w * c, pool_scratch, square_sum)
    if train:
        var = square_sum / m
        _move_running(running_mean, running_var, mean, var, m)
    inv_sigma = 1.0 / np.sqrt(var + BN_EPS)
    mean_p, inv_sigma_p, gamma_p, beta_p = (
        np.tile(v, w2) for v in (mean, inv_sigma, gamma.data, beta.data)
    )

    def normalize(part: slice, *_) -> None:
        v = pooled[part]
        v -= mean_p
        v *= inv_sigma_p
        v *= gamma_p
        v += beta_p
        np.maximum(v, 0.0, out=v)

    _run_chunks(normalize, n * h2, q * w * c, lambda _: None)
    out = Tensor(pooled.reshape(n, h2, w2, c))

    def backward():
        if out.grad is None:
            return
        # Zero signs: the chain's gradients are 0.0 where these can be -0.0,
        # but every sum that reads them starts from 0.0 (the batch-norm
        # sums' totals, BLAS and the zero-filled gradient buffers), so the
        # sign changes no bit.
        g_out = out.grad.reshape(pooled.shape)
        # each window's winning offset, in row-major (time, freq) order, or
        # q*p where no offset won (relu cut the window)
        winner = np.zeros(pooled.shape, dtype=np.min_scalar_type(q * p))
        inv_sigma_w = np.tile(inv_sigma, w)
        # y's pixels as items of C doubles: reading one window offset then
        # copies one item per pixel, not C strided doubles
        pixels = windows.view(np.dtype((np.void, 8 * c)))[..., 0]

        def gather_scratch(r: int) -> tuple:
            return (np.empty((2, r, w2 * c)), np.empty((2, p if q > 1 else 1, r, w2 * c)),
                    np.empty((2, r, w2 * c), dtype=bool), np.empty((2, p, w2 * c)),
                    np.empty((w, c)))

        def gather(part: slice, buffers: tuple, term: np.ndarray) -> None:
            r = part.stop - part.start
            (x_ab, tmp), acc, (hit, unclaimed) = (b[..., :r, :] for b in buffers[:3])
            cols, pix = buffers[3:]
            # x_hat, recomputed in y's buffer
            x_rows = rows[part.start * q : part.stop * q]
            np.subtract(x_rows, mean_w, out=x_rows)
            np.multiply(x_rows, inv_sigma_w, out=x_rows)
            # relu's gradient, over the op's own output gradient
            g = g_out[part]
            np.multiply(g, np.greater(pooled[part], 0.0, out=hit), out=g)
            # windows whose maximum no earlier offset has claimed
            unclaimed.fill(True)
            idx = winner[part]
            for a, b in np.ndindex(q, p):
                np.copyto(x_ab.view(pixels.dtype), pixels[part, a, :, b])
                # the forward's normalization of x_hat at (a, b): the first
                # offset whose value equals the window's output wins
                np.multiply(x_ab, gamma_p, out=tmp)
                tmp += beta_p
                np.equal(tmp, pooled[part], out=hit)
                hit &= unclaimed
                unclaimed ^= hit
                # one more offset passed for every window still unclaimed
                idx += unclaimed
                # the window's gradient where it wins at freq offset b, and
                # its product with x_hat, over the window's time offsets (one
                # wins at most): column (f*p + b, c) of the chain's q rows
                g_b, gx_b = acc[:, b if q > 1 else 0]
                if a == 0:
                    np.multiply(g, hit, out=g_b)
                    np.multiply(g_b, x_ab, out=gx_b)
                else:
                    g_b += np.multiply(g, hit, out=tmp)
                    gx_b += np.multiply(tmp, x_ab, out=tmp)
                if a == q - 1:
                    _column_sums(g_b, cols[0, b])
                    _column_sums(gx_b, cols[1, b])
            # the two sums' column sums, in pixel order, summed over the pixels
            for k in range(2):
                np.copyto(pix.reshape(w2, p, c), cols[k].reshape(p, w2, c).transpose(1, 0, 2))
                _column_sums(pix, term[k])

        sums = np.zeros((2, c))
        _run_chunks(gather, n * h2, q * w * c, gather_scratch, sums)
        sum_g, sum_gx_hat = sums
        if _tracked(gamma):
            _accumulate(gamma, sum_gx_hat)
        if _tracked(beta):
            _accumulate(beta, sum_g)
        if not (_tracked(x) or _tracked(kernel)):
            return
        # eval mode's statistics are constants, so they pass no gradient on
        shift, scale = sums / m if train else np.zeros((2, c))
        shift_p = np.tile(shift, w2)
        scale_w, coeff_w = np.tile(scale, w), np.tile(gamma.data * inv_sigma, w)

        def scatter_scratch(r: int) -> tuple:
            return np.empty((r, w2 * c)), np.empty((r, w * c)), np.empty((r, w2 * c), dtype=bool)

        def scatter(part: slice, buffers: tuple, _) -> None:
            # batch norm's input gradient, ((g - shift) - x_hat * scale) *
            # coeff with g the chain's full-size gradient, written over
            # x_hat in y's buffer
            r = part.stop - part.start
            g_ab, g_row, hit = (b[:r] for b in buffers)
            x_windows = rows[part.start * q : part.stop * q].reshape(r, q, w * c)
            np.multiply(x_windows, scale_w, out=x_windows)
            g = g_out[part]
            row_pixels = g_row.view(pixels.dtype).reshape(r, w2, p)
            for a in range(q):
                # g - shift at time offset a of each window: the window's
                # gradient at its winner, 0.0 elsewhere, as one row of W pixels
                for b in range(p):
                    np.equal(winner[part], a * p + b, out=hit)
                    np.multiply(g, hit, out=g_ab)
                    g_ab -= shift_p
                    np.copyto(row_pixels[:, :, b], g_ab.view(pixels.dtype))
                dx = x_windows[:, a]
                np.subtract(g_row, dx, out=dx)
            np.multiply(x_windows, coeff_w, out=x_windows)

        _run_chunks(scatter, n * h2, q * w * c, scatter_scratch)
        # spent: free them before the conv allocates its input gradient
        del g_out, winner
        out.grad = None
        _conv_backward(x, kernel, y)

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

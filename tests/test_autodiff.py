"""Tensor op forward oracles and gradient checks.

Forward results are compared against naive loop implementations written
independently of the library code; gradients against central finite
differences via grad_check.
"""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from mbsed import autodiff as ad
from mbsed import blas
from mbsed.autodiff import (
    DomainError,
    ShapeError,
    Tensor,
    clamp,
    conv_block,
    grad_check,
    linear,
    log,
    matmul,
    reduce_max,
    reduce_mean,
    reduce_sum,
    reshape,
    sigmoid,
    softmax,
    transpose,
)

from reference import batch_norm, conv2d, max_pool_by_reduce_max, relu
from test_blas import openblas_threads


# ---------------------------------------------------------------------------
# oracles


def nhwc(a):
    """An NCHW draw as the channels-last array the encoder ops take."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def same_padded(x, k):
    """NHWC ``x`` zero-padded by half of each odd side of kernel ``k``."""
    kh, kw = k.shape[2:]
    return np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))


def conv2d_loops(x, k):
    """Direct six-nested-loop "same" convolution of NHWC input, the forward
    reference: the output has the input's size."""
    n, h, w, c = x.shape
    kk, _, kh, kw = k.shape
    xp = same_padded(x, k)
    out = np.zeros((n, h, w, kk))
    for ni in range(n):
        for ki in range(kk):
            for oi in range(h):
                for oj in range(w):
                    acc = 0.0
                    for ci in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[ni, oi + i, oj + j, ci] * k[ki, ci, i, j]
                    out[ni, oi, oj, ki] = acc
    return out


def conv2d_grads_loops(x, k, g):
    """Input and kernel gradients of sum(conv2d(x, k) * g), one kernel
    offset at a time over the zero-padded input."""
    n, h, w, c = x.shape
    kk, _, kh, kw = k.shape
    xp = same_padded(x, k)
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(k)
    for i in range(kh):
        for j in range(kw):
            window = xp[:, i : i + h, j : j + w]
            gk[:, :, i, j] = np.einsum("nhwk,nhwc->kc", g, window)
            gxp[:, i : i + h, j : j + w] += np.einsum("nhwk,kc->nhwc", g, k[:, :, i, j])
    return gxp[:, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w], gk


def batch_norm_loops(x, gamma, beta, eps):
    """Two-pass per-channel mean/variance normalization of NHWC input."""
    out = np.empty_like(x)
    for c in range(x.shape[3]):
        vals = x[:, :, :, c]
        mean = vals.sum() / vals.size
        var = ((vals - mean) ** 2).sum() / vals.size
        out[:, :, :, c] = gamma[c] * (vals - mean) / np.sqrt(var + eps) + beta[c]
    return out


def chunked_channel_sums(rows, c, chunk_rows):
    """Per-channel sums of channels-last (R, W*C) ``rows``, one add at a
    time: per chunk of ``chunk_rows`` rows, the rows in sequence, then the
    W pixels of their sum in sequence; the chunks' terms added in order to
    0.0."""
    total = np.zeros(c)
    for start in range(0, len(rows), chunk_rows):
        chunk = rows[start : start + chunk_rows]
        col = chunk[0]
        for row in chunk[1:]:
            col = col + row
        pixels = col.reshape(-1, c)
        term = pixels[0]
        for pixel in pixels[1:]:
            term = term + pixel
        total = total + term
    return total


def batch_norm_textbook(x, gamma, beta, running_mean, running_var, g, eps, momentum):
    """Batch norm in train mode with its sums in ``_channel_sums``'s chunks
    of (N*H, W*C) rows (``chunked_channel_sums``): output, running stats
    and the gradients of sum(out * g) with respect to x, gamma and beta."""
    n, h, w, c = x.shape
    m = n * h * w
    chunk_rows = max(1, ad.CHUNK_DOUBLES // (w * c))

    def sums(a):
        return chunked_channel_sums(a.reshape(n * h, w * c), c, chunk_rows)

    mean = sums(x) / m
    var = sums((x - mean) ** 2) / m
    running_mean = running_mean * (1.0 - momentum) + momentum * mean
    running_var = running_var * (1.0 - momentum) + momentum * (var * (m / (m - 1)))
    inv_sigma = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean) * inv_sigma
    out = gamma * x_hat + beta
    grad_gamma = sums(g * x_hat)
    grad_beta = sums(g)
    grad_x = (gamma * inv_sigma) * (g - grad_beta / m - x_hat * (grad_gamma / m))
    return out, running_mean, running_var, grad_x, grad_gamma, grad_beta


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def linear_loops(x, w, b):
    rows, e = x.shape
    cols = w.shape[1]
    out = np.zeros((rows, cols))
    for r in range(rows):
        for c in range(cols):
            acc = b[c]
            for k in range(e):
                acc += x[r, k] * w[k, c]
            out[r, c] = acc
    return out


# ---------------------------------------------------------------------------
# conv2d


class TestConv2d:
    def test_scalar_scaling(self):
        x = Tensor([[[[1.0], [2.0]], [[3.0], [4.0]]]])
        k = Tensor([[[[2.0]]]])
        out = conv2d(x, k)
        np.testing.assert_array_equal(out.data, [[[[2.0], [4.0]], [[6.0], [8.0]]]])

    def test_sum_of_ones(self):
        # each output counts the input pixels its 3x3 window covers
        x = Tensor(np.ones((1, 3, 3, 1)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, k)
        np.testing.assert_array_equal(out.data[0, :, :, 0], [[4, 6, 4], [6, 9, 6], [4, 6, 4]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        x = nhwc(rng.standard_normal((2, 3, 8, 8)))
        k = rng.standard_normal((4, 3, 3, 3))
        got = conv2d(Tensor(x), Tensor(k)).data
        np.testing.assert_allclose(got, conv2d_loops(x, k), atol=1e-12)

    # the "same" padding (ph, pw) of a (2ph + 1, 2pw + 1) kernel: 1x3, 3x1,
    # 5x3 and 1x1
    @pytest.mark.parametrize("padding", [(0, 1), (1, 0), (2, 1), (0, 0)])
    def test_padding_matches_oracle(self, padding):
        rng = np.random.default_rng(7)
        x = nhwc(rng.standard_normal((2, 2, 7, 6)))
        k = rng.standard_normal((3, 2, 2 * padding[0] + 1, 2 * padding[1] + 1))
        got = conv2d(Tensor(x), Tensor(k)).data
        assert got.shape == (2, 7, 6, 3)
        np.testing.assert_allclose(got, conv2d_loops(x, k), atol=1e-12)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 4, 4, 2))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_omitted_bias_gradients(self):
        rng = np.random.default_rng(12)
        x = Tensor(nhwc(rng.standard_normal((1, 2, 5, 5))), requires_grad=True)
        k = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        reduce_sum(conv2d(x, k)).backward()
        assert x.grad is not None and k.grad is not None

    def test_gradients(self):
        rng = np.random.default_rng(3)
        x = nhwc(rng.standard_normal((2, 2, 5, 5)))
        k = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)

        err_k = grad_check(lambda t: reduce_sum(relu(conv2d(Tensor(x), t))), k)
        assert err_k <= 1e-6
        xt = Tensor(x, requires_grad=True)
        err_x = grad_check(lambda t: reduce_sum(relu(conv2d(t, k))), xt)
        assert err_x <= 1e-6

    def test_kernel_gradient_ignores_grad_memory_order(self):
        rng = np.random.default_rng(13)
        x = Tensor(nhwc(rng.standard_normal((2, 3, 9, 8))))
        k_data = rng.standard_normal((4, 3, 3, 3))
        g = rng.standard_normal((2, 9, 8, 4))
        grads = []
        for order in ("C", "F"):
            k = Tensor(k_data, requires_grad=True)
            out = conv2d(x, k)
            out.grad = np.array(g, order=order)
            for rule in reversed(out.tape._resolve().entries):
                rule()
            grads.append(k.grad)
        assert same_bits(grads[0], grads[1])

    @pytest.mark.parametrize(
        "shape, kernel, tracked",
        [
            ((4, 1000, 64, 1), (2, 1, 1, 1), True),
            ((8, 500, 64, 1), (40, 1, 3, 3), True),
            ((8, 125, 32, 2), (8, 2, 3, 3), True),
            ((8, 125, 8, 8), (16, 8, 3, 3), True),
            ((4, 125, 8, 64), (64, 64, 3, 3), True),
            ((1, 40000, 16, 1), (1, 1, 3, 3), True),
            ((1, 40000, 16, 2), (1, 2, 3, 3), True),
            ((3, 500, 4, 64), (64, 64, 3, 3), True),
            ((2, 100, 16, 48), (48, 48, 3, 3), True),
            ((8, 500, 64, 1), (2, 1, 1, 1), False),
            ((2, 500, 62, 1), (40, 1, 3, 3), False),
        ],
        ids=[
            "K2_1x1", "K40_3x3", "K8_C2_3x3", "K16_C8_3x3", "K64_C64_3x3", "K1_3x3", "K1_C2_3x3",
            "K64_C64_3x3_3clips", "K48_C48_3x3", "K2_1x1_untracked", "K40_3x3_w62_untracked",
        ],
    )
    def test_same_bits_at_any_blas_thread_count(self, blas_threads, shape, kernel, tracked):
        # every gemm of the conv runs at one BLAS thread (_run_parts), so
        # no shape's bits depend on the count, whether or not OpenBLAS would
        # split its products differently between threads: one input channel
        # and N*H*W = 256000 output rows, a long one-column product; the
        # gate's compact encoder's blocks 1 and 2 at batch 8; a large-preset
        # block whose forward product has 576 = 9 * 64 inner terms, more
        # than OpenBLAS takes in one block; one output channel over 640000
        # pixels; a last batch of 3 clips at a large-preset block; and 48
        # channels in and out, whose forward and input-gradient products
        # have 432 inner terms, a remainder past 384 that is not a multiple
        # of 32. Then untracked one-channel inputs, whose kernel gradient
        # takes pieces of as many rows as fit in SLAB_DOUBLES of columns:
        # the gate's compact block 0, with one im2col column, and a 62-wide
        # image, whose pieces of 229 * 62 = 14198 pixels are no multiple of 32
        rng = np.random.default_rng(17)
        x_data = rng.standard_normal(shape)
        k_data = rng.standard_normal(kernel)
        probe = rng.standard_normal(shape[:3] + kernel[:1])
        results = []
        for threads in (1, 2, 4):
            blas_threads(threads)
            x = Tensor(x_data, requires_grad=tracked)
            k = Tensor(k_data, requires_grad=True)
            out = conv2d(x, k)
            reduce_sum(ad.mul(out, probe)).backward()
            results.append((out.data, k.grad, x.grad if tracked else np.empty(0)))
        for other in results[1:]:
            for name, a, b in zip(("output", "kernel grad", "input grad"), results[0], other):
                assert same_bits(a, b), name

    @pytest.mark.parametrize("case", ["clips_per_slab", "slabs_per_clip"])
    def test_slab_boundaries_match_oracle(self, case):
        # a 7x9 kernel on 2 channels: slabs of SLAB_DOUBLES // 126 pixels
        kh, kw, c = 7, 9, 2
        pixels = ad.SLAB_DOUBLES // (kh * kw * c)
        if case == "clips_per_slab":
            # 4x12-pixel clips; two full slabs of whole clips, a ragged third
            h, w = 4, 12
            per_slab = pixels // (h * w)
            n = 2 * per_slab + 5
            assert per_slab > 1
        else:
            # 20-pixel rows; each clip two slabs of rows, the second ragged
            n, w = 2, 20
            h = pixels // w + 11
            assert h * w > pixels
        rng = np.random.default_rng(23)
        x = rng.standard_normal((n, h, w, c))
        k = rng.standard_normal((2, c, kh, kw))
        probe = rng.standard_normal((n, h, w, 2))
        got = conv2d(Tensor(x), Tensor(k)).data
        np.testing.assert_allclose(got, conv2d_loops(x, k), atol=1e-12)

        def loss(xt, kt):
            return reduce_sum(ad.mul(conv2d(xt, kt), probe))

        # the loss is linear in each argument, so a wide step adds no
        # truncation error and keeps the rounding error of a large sum small
        kt = Tensor(k, requires_grad=True)
        assert grad_check(lambda t: loss(Tensor(x), t), kt, eps=1e-3) <= 1e-6
        xt = Tensor(x, requires_grad=True)
        assert grad_check(lambda t: loss(t, Tensor(k)), xt, eps=1e-3) <= 1e-6

    # the "same" padding of the kernel, as in test_padding_matches_oracle:
    # 1x3, 1x1, 3x1 and 5x3, then 3x3 and 5x3
    @pytest.mark.parametrize(
        "case, padding",
        [
            ("pieces", (0, 1)),
            ("pieces", (0, 0)),
            ("pieces", (1, 0)),
            ("pieces", (2, 1)),
            ("short_clip", (1, 1)),
            ("two_clips", (1, 1)),
            ("two_clips", (2, 1)),
        ],
    )
    def test_backward_pieces_match_oracle(self, case, padding):
        # the backward walks pieces of PIECE_PIXELS // 8 rows of one 8-wide
        # clip: two full pieces and a ragged third, of one clip or of two,
        # so that each clip has a piece at its top and at its bottom edge,
        # or a second clip shorter than one piece; a 5-row kernel reads two
        # halo rows of the output gradient past each piece
        w, c = 8, 2
        rows = ad.PIECE_PIXELS // w
        n, h = {"pieces": (1, 2 * rows + 5), "two_clips": (2, 2 * rows + 5)}.get(case, (2, rows - 7))
        rng = np.random.default_rng(37)
        x = rng.standard_normal((n, h, w, c))
        k = rng.standard_normal((3, c, 2 * padding[0] + 1, 2 * padding[1] + 1))
        probe = rng.standard_normal((n, h, w, 3))

        def loss(xt, kt):
            return reduce_sum(ad.mul(conv2d(xt, kt), probe))

        xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
        loss(xt, kt).backward()
        want_x, want_k = conv2d_grads_loops(x, k, probe)
        np.testing.assert_allclose(xt.grad, want_x, atol=1e-10)
        np.testing.assert_allclose(kt.grad, want_k, atol=1e-10)
        # the loss is linear in each argument (see the slab test)
        kt = Tensor(k, requires_grad=True)
        assert grad_check(lambda t: loss(Tensor(x), t), kt, eps=1e-3) <= 1e-6
        xt = Tensor(x, requires_grad=True)
        assert grad_check(lambda t: loss(t, Tensor(k)), xt, eps=1e-3) <= 1e-6

    # the "same" padding of the kernel, as in test_padding_matches_oracle:
    # 3x3, 7x5, 5x1, 1x5, 1x3, 3x1, 5x3 and 1x1
    @pytest.mark.parametrize(
        "padding", [(1, 1), (3, 2), (2, 0), (0, 2), (0, 1), (1, 0), (2, 1), (0, 0)]
    )
    @pytest.mark.parametrize("whole_clips", [False, True], ids=["rows", "clips"])
    def test_parts_pad_their_own_rows(self, padding, whole_clips):
        # each part pads its own rows (_im2col): pieces of 3 rows at each
        # clip's top edge, inside it and at its bottom edge, or two whole
        # clips and then one, run in order and then in reverse through one
        # set of buffers, give the im2col rows of a padded copy of the
        # input; a 7-row kernel reads three halo rows, past a whole piece
        ph, pw = padding
        kh, kw = 2 * ph + 1, 2 * pw + 1
        rng = np.random.default_rng(47)
        a = rng.standard_normal((3, 11, 6, 2))
        xp = np.pad(a, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
        windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
        windows = windows.transpose(0, 1, 2, 4, 5, 3)
        assert windows.shape[1:3] == (11, 6)
        parts = ad._slabs(3, 11, 6, (22 if whole_clips else 3) * 6, whole_clips=whole_clips)
        assert len(parts) == (2 if whole_clips else 3 * 4)
        scratch, columns = ad._im2col(a, kh, kw, parts)
        buffers = scratch()
        for order in (parts, parts[::-1]):
            for part in order:
                want = windows[part].reshape(-1, kh * kw * 2)
                assert same_bits(columns(part, buffers), want), part

    def test_wide_columns_match_oracle(self):
        # 48 channels in and out: 432 im2col columns, an inner sum past 384
        # terms that is not a multiple of 32
        rng = np.random.default_rng(43)
        x = rng.standard_normal((1, 4, 5, 48))
        k = rng.standard_normal((48, 48, 3, 3))
        probe = rng.standard_normal((1, 4, 5, 48))
        xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
        out = conv2d(xt, kt)
        np.testing.assert_allclose(out.data, conv2d_loops(x, k), atol=1e-11)
        reduce_sum(ad.mul(out, probe)).backward()
        want_x, want_k = conv2d_grads_loops(x, k, probe)
        np.testing.assert_allclose(xt.grad, want_x, atol=1e-11)
        np.testing.assert_allclose(kt.grad, want_k, atol=1e-11)

    @pytest.mark.parametrize(
        "kernel, w",
        [((2, 1, 1, 1), 64), ((3, 1, 3, 3), 64), ((3, 1, 3, 3), 62)],
        ids=["1x1", "3x3", "3x3_w62"],
    )
    def test_untracked_input_kernel_gradient_matches_oracle(self, kernel, w):
        # an untracked one-channel input, as in an encoder's first block:
        # the kernel gradient takes pieces of as many multiples of
        # PIECE_PIXELS as fit in SLAB_DOUBLES of columns, here two per clip
        # (a full one and a ragged one), also at a width of 62
        kk, c, kh, kw = kernel
        pixels = ad.SLAB_DOUBLES // (kh * kw * c) // ad.PIECE_PIXELS * ad.PIECE_PIXELS
        h = pixels // 64 + 13
        rng = np.random.default_rng(41)
        x = rng.standard_normal((2, h, w, c))
        k = rng.standard_normal(kernel)
        probe = rng.standard_normal((2, h, w, kk))

        def loss(kt):
            return reduce_sum(ad.mul(conv2d(Tensor(x), kt), probe))

        kt = Tensor(k, requires_grad=True)
        loss(kt).backward()
        np.testing.assert_allclose(kt.grad, conv2d_grads_loops(x, k, probe)[1], atol=1e-9)
        assert grad_check(loss, Tensor(k, requires_grad=True), eps=1e-3) <= 1e-6

    def test_memory_stays_within_operands(self):
        # the small preset's block 1 at batch 2: 40 -> 40 channels, 3x3
        rng = np.random.default_rng(29)
        x = Tensor(rng.standard_normal((2, 500, 16, 40)), requires_grad=True)
        k = Tensor(rng.standard_normal((40, 40, 3, 3)) * 0.1, requires_grad=True)
        probe = rng.standard_normal((2, 500, 16, 40))
        in_bytes = x.data.nbytes
        out_bytes = probe.nbytes
        # slab buffers and bookkeeping; a padded copy of the input or of the
        # output gradient is larger than this
        slack = 3 * ad.SLAB_DOUBLES * 8
        # the padded rows of the output gradient that the two backward
        # pieces running at once read: PIECE_PIXELS // 16 rows and a halo
        # row at each end, each of 18 pixels
        piece_rows_bytes = 2 * (ad.PIECE_PIXELS // 16 + 2) * 18 * 40 * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, k)
            current, peak = tracemalloc.get_traced_memory()
            # the forward holds the output
            assert peak - start <= out_bytes + slack
            out.grad = probe
            tracemalloc.reset_peak()
            for rule in reversed(out.tape._resolve().entries):
                rule()
            peak = tracemalloc.get_traced_memory()[1]
            # backward adds the input gradient
            assert peak - current <= in_bytes + piece_rows_bytes + slack
        finally:
            tracemalloc.stop()
        assert x.grad is not None and k.grad is not None

    @pytest.mark.parametrize("threads", [3, 4])
    def test_memory_stays_within_operands_at_more_blas_threads(self, blas_threads, threads):
        # the slabs and pieces that run at once on the pool share one
        # scratch budget, so more BLAS threads hold no more column buffers
        blas_threads(threads)
        self.test_memory_stays_within_operands()


# ---------------------------------------------------------------------------
# batch_norm


def wide_range(rng, shape):
    """Normal draws scaled over many orders of magnitude, so that adding
    them in another order moves bits."""
    return rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))


class TestChannelSums:
    """``_channel_sums``, the one order of every batch-norm sum: per chunk
    of whole groups of ``window`` rows, the rows in sequence, then the
    row's pixels; the chunks in order."""

    # (W, C): rows one double wide are a single column, which numpy's
    # reduce would add pairwise
    @pytest.mark.parametrize("window", [1, 3])
    @pytest.mark.parametrize("w, c", [(7, 1), (7, 2), (7, 5), (1, 1)])
    def test_matches_chunk_loop_oracle(self, monkeypatch, w, c, window):
        monkeypatch.setattr(ad, "CHUNK_DOUBLES", 1 << 10)
        groups = max(1, ad.CHUNK_DOUBLES // (window * w * c))
        rng = np.random.default_rng(10 * c + window)
        # five full chunks and a partial sixth
        rows = wide_range(rng, ((5 * groups + 2) * window, w * c))
        want = chunked_channel_sums(rows, c, groups * window)
        assert same_bits(ad._channel_sums(rows, c, window), want)

    def test_one_chunk_up_to_chunk_doubles(self):
        rng = np.random.default_rng(11)
        w, c = 16, 4
        rows = wide_range(rng, (ad.CHUNK_DOUBLES // (w * c) + 1, w * c))
        want = chunked_channel_sums(rows, c, ad.CHUNK_DOUBLES // (w * c))
        assert same_bits(ad._channel_sums(rows, c), want)
        assert not same_bits(ad._channel_sums(rows, c), chunked_channel_sums(rows, c, len(rows)))

    @pytest.mark.parametrize("c", [1, 3])
    def test_same_bits_at_any_thread_count(self, blas_threads, monkeypatch, c):
        # 33 chunks, so 2 and 4 threads run them on the pool
        monkeypatch.setattr(ad, "CHUNK_DOUBLES", 1 << 9)
        w, window = 8, 2
        groups = ad.CHUNK_DOUBLES // (window * w * c)
        rows = wide_range(np.random.default_rng(12 + c), ((32 * groups + 1) * window, w * c))
        sums = []
        for threads in (1, 2, 4):
            blas_threads(threads)
            sums.append(ad._channel_sums(rows, c, window))
        assert all(same_bits(sums[0], other) for other in sums[1:])
        assert same_bits(sums[0], chunked_channel_sums(rows, c, groups * window))

    @pytest.mark.parametrize("w, c", [(6, 1), (6, 2), (6, 5), (1, 1)])
    def test_exact_zeros_change_no_bit(self, monkeypatch, w, c):
        # each row of ``dense`` spread over a group of q rows: every column
        # of a group holds the row's value in one of its q rows, chosen at
        # random, and exact zeros of random sign in the others, as the
        # chain's full-size gradient holds a window row's winners
        monkeypatch.setattr(ad, "CHUNK_DOUBLES", 1 << 10)
        q = 4
        rng = np.random.default_rng(13 + c + w)
        groups = ad.CHUNK_DOUBLES // (q * w * c)
        dense = wide_range(rng, (3 * groups + 1, w * c))
        dense[rng.random(dense.shape) < 0.2] = 0.0
        spread = np.where(rng.random((len(dense), q, w * c)) < 0.5, 0.0, -0.0)
        at = rng.integers(0, q, dense.shape)
        np.put_along_axis(spread, at[:, None], dense[:, None], axis=1)
        spread = spread.reshape(-1, w * c)
        want = chunked_channel_sums(dense, c, groups)
        assert same_bits(ad._channel_sums(spread, c, q), want)
        # and no zero's sign moves a bit either
        flipped = np.where(spread == 0.0, -np.copysign(0.0, spread), spread)
        assert same_bits(ad._channel_sums(flipped, c, q), want)
        assert same_bits(ad._channel_sums(spread + 0.0, c, q), want)
        assert same_bits(ad._channel_sums(np.zeros((8, w * c)) * -1.0, c), np.zeros(c))


class TestBatchNorm:
    def test_normalizes_each_channel(self):
        rng = np.random.default_rng(1)
        x = nhwc(rng.standard_normal((4, 3, 5, 6)) * 3.0 + 2.0)
        out = batch_norm(
            Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
            np.zeros(3), np.ones(3),
        ).data
        for c in range(3):
            assert abs(out[..., c].mean()) < 1e-12
            assert abs(out[..., c].var() - 1.0) < 1e-4  # eps shifts variance slightly

    def test_zero_gamma_gives_constant_beta(self):
        rng = np.random.default_rng(2)
        x = nhwc(rng.standard_normal((2, 2, 3, 3)))
        beta = np.array([0.5, -1.5])
        out = batch_norm(
            Tensor(x), Tensor(np.zeros(2)), Tensor(beta), np.zeros(2), np.ones(2)
        ).data
        np.testing.assert_array_equal(out[..., 0], 0.5 * np.ones((2, 3, 3)))
        np.testing.assert_array_equal(out[..., 1], -1.5 * np.ones((2, 3, 3)))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        x = nhwc(rng.standard_normal((3, 4, 6, 5)))
        gamma = rng.standard_normal(4)
        beta = rng.standard_normal(4)
        got = batch_norm(
            Tensor(x), Tensor(gamma), Tensor(beta), np.zeros(4), np.ones(4)
        ).data
        np.testing.assert_allclose(got, batch_norm_loops(x, gamma, beta, 1e-5), atol=1e-12)

    def test_eval_mode_uses_running_stats(self):
        x = np.full((1, 2, 2, 1), 10.0)
        rm, rv = np.array([4.0]), np.array([9.0])
        out = batch_norm(
            Tensor(x), Tensor([2.0]), Tensor([1.0]), rm, rv, train=False
        ).data
        np.testing.assert_allclose(out, 2.0 * (10.0 - 4.0) / np.sqrt(9.0 + 1e-5) + 1.0)
        # eval must not touch the buffers
        assert rm[0] == 4.0 and rv[0] == 9.0

    def test_running_stats_updated_in_train(self):
        rng = np.random.default_rng(4)
        x = nhwc(rng.standard_normal((4, 2, 3, 3)))
        rm, rv = np.zeros(2), np.ones(2)
        batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv)
        m = 4 * 3 * 3
        want_m = 0.1 * x.mean(axis=(0, 1, 2))
        want_v = 0.9 + 0.1 * x.var(axis=(0, 1, 2)) * m / (m - 1)
        np.testing.assert_allclose(rm, want_m, atol=1e-12)
        np.testing.assert_allclose(rv, want_v, atol=1e-12)

    def test_gradients_train_mode(self):
        # probe with a fixed random linear functional; sum-of-squares of a
        # normalized output is nearly constant in x and starves the FD check
        rng = np.random.default_rng(5)
        x = Tensor(nhwc(rng.standard_normal((3, 2, 4, 4))), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
        beta = Tensor(rng.standard_normal(2), requires_grad=True)
        probe = nhwc(rng.standard_normal((3, 2, 4, 4)))

        def loss_wrt(t, which):
            args = {"x": x, "gamma": gamma, "beta": beta}
            args[which] = t
            out = batch_norm(
                args["x"], args["gamma"], args["beta"], np.zeros(2), np.ones(2)
            )
            return reduce_sum(ad.mul(out, probe))

        assert grad_check(lambda t: loss_wrt(t, "x"), x) <= 1e-6
        assert grad_check(lambda t: loss_wrt(t, "gamma"), gamma) <= 1e-6
        assert grad_check(lambda t: loss_wrt(t, "beta"), beta) <= 1e-6

    # (2, 300, 20, 40) and (2, 700, 200, 1) span two chunks
    # (CHUNK_DOUBLES // (W*C) rows each)
    @pytest.mark.parametrize(
        "shape",
        [(4, 7, 6, 3), (2, 9, 5, 1), (3, 10, 8, 40), (2, 300, 20, 40), (2, 200, 120, 3),
         (2, 700, 200, 1)],
    )
    def test_train_mode_matches_textbook_bit_for_bit(self, shape):
        rng = np.random.default_rng(sum(shape))
        c = shape[3]
        x = Tensor(rng.standard_normal(shape) * 2.0 + 0.5, requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, c), requires_grad=True)
        beta = Tensor(rng.standard_normal(c), requires_grad=True)
        g = rng.standard_normal(shape)
        rm0, rv0 = rng.standard_normal(c), rng.uniform(0.5, 2.0, c)
        rm, rv = rm0.copy(), rv0.copy()
        out = batch_norm(x, gamma, beta, rm, rv)
        reduce_sum(ad.mul(out, g)).backward()
        want = batch_norm_textbook(x.data, gamma.data, beta.data, rm0, rv0, g, 1e-5, 0.1)
        got = (out.data, rm, rv, x.grad, gamma.grad, beta.grad)
        for name, a, b in zip(("out", "mean", "var", "x", "gamma", "beta"), got, want):
            assert same_bits(a, b), name
        # the chunked sums' statistics are np.mean's and np.var's to a
        # relative 1e-10 (each adds about 3e5 values at most here)
        rows = x.data.reshape(-1, shape[2] * c)
        m = rows.size // c
        mean = ad._channel_sums(rows, c) / m
        var = ad._channel_sums(np.square(rows - np.tile(mean, shape[2])), c) / m
        np.testing.assert_allclose(mean, np.mean(x.data, axis=(0, 1, 2)), rtol=1e-10)
        np.testing.assert_allclose(var, np.var(x.data, axis=(0, 1, 2)), rtol=1e-10)


# ---------------------------------------------------------------------------
# pointwise


class TestPointwise:
    def test_relu(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).item() == 0.5

    def test_sigmoid_extremes_finite(self):
        out = sigmoid(Tensor([-1000.0, 1000.0])).data
        assert np.all(np.isfinite(out))
        assert out[0] >= 0.0 and out[1] <= 1.0

    def test_log_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            log(Tensor([1.0, 0.0]))


# ---------------------------------------------------------------------------
# linear


class TestLinear:
    def test_identity_weight(self):
        x = np.arange(12.0).reshape(3, 4)
        out = linear(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_weight_gives_bias(self):
        b = np.array([1.0, -2.0])
        out = linear(Tensor(np.ones((5, 3))), Tensor(np.zeros((3, 2))), Tensor(b))
        np.testing.assert_array_equal(out.data, np.tile(b, (5, 1)))

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 160))
        w = rng.standard_normal((160, 10))
        b = rng.standard_normal(10)
        got = linear(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(got, linear_loops(x, w, b), atol=1e-12)

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal(5)
        got = linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert got.shape == (2, 3, 5)
        np.testing.assert_allclose(got[1], linear_loops(x[1], w, b), atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))

    def test_matmul_same_bits_at_any_blas_thread_count(self, blas_threads):
        # the large preset's classifier at batch 16: (16, 500, 1024) frames
        # times (1024, 10) weights. The weight gradient's products sum over
        # 500 frames, which OpenBLAS splits at one point with one thread and
        # at another with several; matmul runs every product at one thread
        rng = np.random.default_rng(83)
        a_data = rng.standard_normal((16, 500, 1024))
        b_data = rng.standard_normal((1024, 10))
        probe = rng.standard_normal((16, 500, 10))
        first = None
        for threads in (1, 2, 4):
            blas_threads(threads)
            a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
            out = matmul(a, b)
            reduce_sum(ad.mul(out, probe)).backward()
            got = (out.data, a.grad, b.grad)
            if first is None:
                first = got
                continue
            for name, x, y in zip(("product", "left gradient", "right gradient"), first, got):
                assert same_bits(x, y), f"{name} at {threads} threads"


# ---------------------------------------------------------------------------
# reductions


class TestReduce:
    def test_max(self):
        assert reduce_max(Tensor([1.0, 3.0, 2.0]), axis=0).item() == 3.0

    def test_mean(self):
        assert reduce_mean(Tensor([1.0, 3.0, 2.0]), axis=0).item() == 2.0

    def test_sum_backward_is_ones(self):
        x = Tensor([1.0, 3.0, 2.0], requires_grad=True)
        reduce_sum(x, axis=0).backward()
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_max_backward_first_of_ties(self):
        x = Tensor([2.0, 5.0, 5.0, 1.0], requires_grad=True)
        reduce_max(x, axis=0).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0, 0.0])

    def test_empty_axis_rejected(self):
        with pytest.raises(ShapeError):
            reduce_max(Tensor(np.zeros((3, 0))), axis=1)

    def test_axis_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            reduce_sum(Tensor(np.zeros((2, 2))), axis=5)


# ---------------------------------------------------------------------------
# conv_block


def conv_block_chain(x, kernel, gamma, beta, running_mean, running_var, q, p, train=True):
    """conv_block as the four ops it fuses, in the encoder's order; batch
    norm's sums take chunks of whole pooling windows, as conv_block's do."""
    y = conv2d(x, kernel)
    y = batch_norm(y, gamma, beta, running_mean, running_var, train=train, window=q)
    return relu(max_pool_by_reduce_max(y, q, p))


# per-channel gammas: a zero channel and two negative ones; two channels,
# as in the gate's compact encoder's first block, the first negative (the
# tests' beta lets relu cut the whole last channel); or a single negative
# channel (whose batch-norm sums np.sum adds pairwise)
BLOCK_GAMMAS = {
    "mixed": [1.2, 0.0, -0.7, 0.6, -0.9],
    "two_channels": [-1.1, 0.9],
    "one_channel": [-0.8],
}


class TestConvBlock:
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("gammas", list(BLOCK_GAMMAS))
    @pytest.mark.parametrize("pools", [(1, 1), (1, 4), (4, 2), (2, 3), (3, 1)])
    def test_matches_chain_bit_for_bit(self, pools, gammas, train):
        q, p = pools
        gamma_data = np.array(BLOCK_GAMMAS[gammas])
        k = len(gamma_data)
        rng = np.random.default_rng(q * 10 + p)
        # relu'd input whose first 2q frames are zero: the conv output is
        # exactly 0 there, so those windows' maxima tie
        x_data = np.maximum(rng.standard_normal((2, 4 * q, 3 * p, 3)), 0.0)
        x_data[:, : 2 * q] = 0.0
        k_data = rng.standard_normal((k, 3, 3, 3)) * 0.5
        beta_data = rng.standard_normal(k)
        if k > 1:
            beta_data[-1] = -10.0  # relu cuts the whole last channel
        rm0, rv0 = rng.standard_normal(k) * 0.1, rng.uniform(0.5, 2.0, k)
        probe = rng.standard_normal((2, 4, 3, k))
        results = []
        for op in (conv_block, conv_block_chain):
            tensors = [
                Tensor(a.copy(), requires_grad=True) for a in (x_data, k_data, gamma_data, beta_data)
            ]
            rm, rv = rm0.copy(), rv0.copy()
            out = op(*tensors, rm, rv, q, p, train=train)
            reduce_sum(ad.mul(out, probe)).backward()
            results.append([out.data, rm, rv] + [t.grad for t in tensors])
        names = ("out", "running_mean", "running_var", "x", "kernel", "gamma", "beta")
        for name, a, b in zip(names, *results):
            assert same_bits(a, b), name
        assert np.any(results[0][0] == 0.0)  # relu cut some windows

    # (q, p, W): one channel pooled to one freq bin, so the gather's column
    # sums run over rows one double wide, at q = 1 and 4; and one channel
    # one bin wide, so the chain's sums do too
    @pytest.mark.parametrize("pools", [(4, 4, 4), (1, 4, 4), (4, 1, 1)])
    def test_one_double_wide_rows_match_chain(self, pools):
        q, p, w = pools
        rng = np.random.default_rng(35)
        # values over many orders of magnitude, so that a sum in another
        # order moves bits
        x_data = np.maximum(rng.standard_normal((2, 64 * q, w, 3)), 0.0)
        x_data *= np.exp(rng.uniform(-3.0, 3.0, x_data.shape))
        k_data = rng.standard_normal((1, 3, 3, 3))
        probe = rng.standard_normal((2, 64, w // p, 1))
        probe *= np.exp(rng.uniform(-5.0, 5.0, probe.shape))
        results = []
        for op in (conv_block, conv_block_chain):
            tensors = [
                Tensor(a.copy(), requires_grad=True)
                for a in (x_data, k_data, np.array([0.9]), np.array([0.3]))
            ]
            out = op(*tensors, np.zeros(1), np.ones(1), q, p)
            reduce_sum(ad.mul(out, probe)).backward()
            results.append([out.data] + [t.grad for t in tensors])
        for name, a, b in zip(("out", "x", "kernel", "gamma", "beta"), *results):
            assert same_bits(a, b), name

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("gammas", list(BLOCK_GAMMAS))
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("pools", [(1, 4), (4, 2)])
    def test_same_bits_at_any_thread_count(
        self, blas_threads, monkeypatch, pools, batch, gammas, train
    ):
        # conv_block's per-pixel work runs in chunks of CHUNK_DOUBLES // (q*W*C)
        # window rows, as many at once as there are BLAS threads, up to one
        # per four chunks: here, in 32 KiB chunks, 16 full chunks and a
        # partial 17th, so 2 and 4 threads all run them, and they cross clip
        # boundaries at batch 3
        monkeypatch.setattr(ad, "CHUNK_DOUBLES", 1 << 12)
        q, p = pools
        gamma_data = np.array(BLOCK_GAMMAS[gammas])
        k = len(gamma_data)
        w = 3 * p
        step = ad.CHUNK_DOUBLES // (q * w * k)
        h = q * -(-(16 * step + 3) // batch)  # ceil((16 * step + 3) / batch) windows
        window_rows = batch * h // q
        assert 16 * step < window_rows < 17 * step
        rng = np.random.default_rng(q * 10 + p + batch)
        x_data = np.maximum(rng.standard_normal((batch, h, w, 2)), 0.0)
        x_data[:, : 2 * q] = 0.0  # ties: these windows' conv outputs are all 0
        k_data = rng.standard_normal((k, 2, 3, 3)) * 0.5
        beta_data = rng.standard_normal(k) * 0.1
        if k > 1:
            beta_data[-1] = -10.0  # relu cuts the whole last channel
        rm0, rv0 = rng.standard_normal(k) * 0.1, rng.uniform(0.5, 2.0, k)
        probe = rng.standard_normal((batch, h // q, w // p, k))
        runs = [(conv_block_chain, 1)] + [(conv_block, threads) for threads in (1, 2, 4)]
        results = []
        for op, threads in runs:
            blas_threads(threads)
            tensors = [
                Tensor(a.copy(), requires_grad=True) for a in (x_data, k_data, gamma_data, beta_data)
            ]
            rm, rv = rm0.copy(), rv0.copy()
            out = op(*tensors, rm, rv, q, p, train=train)
            reduce_sum(ad.mul(out, probe)).backward()
            results.append([out.data, rm, rv] + [t.grad for t in tensors])
        names = ("out", "running_mean", "running_var", "x", "kernel", "gamma", "beta")
        for (op, threads), result in zip(runs[1:], results[1:]):
            for name, a, b in zip(names, results[0], result):
                assert same_bits(a, b), f"{name} at {threads} threads"
        assert np.any(results[0][0] == 0.0)  # relu cut some windows

    def test_tape_keeps_conv_output_and_pooled_arrays(self):
        # the small preset's block 1 at batch 2: 40 -> 40 channels, 3x3,
        # freq pool 2; the four-op chain keeps about 5 conv outputs here
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal((2, 500, 16, 40)), requires_grad=True)
        kernel = Tensor(rng.standard_normal((40, 40, 3, 3)) * 0.1, requires_grad=True)
        gamma = Tensor(np.ones(40), requires_grad=True)
        beta = Tensor(np.zeros(40), requires_grad=True)
        y_bytes = x.data.nbytes  # the conv output has the input's shape
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = conv_block(x, kernel, gamma, beta, np.zeros(40), np.ones(40), 1, 2)
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert retained <= y_bytes + 4 * out.data.nbytes
        reduce_sum(ad.mul(out, 1.0)).backward()
        assert x.grad is not None and kernel.grad is not None

    @pytest.mark.parametrize("w", [16, 8], ids=["block1", "block2"])
    def test_backward_holds_input_gradient_and_winner_bytes(self, w):
        # the small preset's blocks 1 and 2 at batch 2: 40 -> 40 channels,
        # 3x3, freq pool 2, on 16 and 8 bins. Beyond the tape, the backward
        # holds one byte per window for the winners, and then the input
        # gradient: it writes relu's gradient over its own output gradient,
        # takes the batch-norm sums in its chunks' scratch, copies no padded
        # output gradient, and frees the winners before the conv's backward
        rng = np.random.default_rng(34)
        x = Tensor(rng.standard_normal((2, 500, w, 40)), requires_grad=True)
        kernel = Tensor(rng.standard_normal((40, 40, 3, 3)) * 0.1, requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 40) * np.where(np.arange(40) % 3, 1.0, -1.0),
                       requires_grad=True)
        beta = Tensor(rng.standard_normal(40) * 0.1, requires_grad=True)
        out = conv_block(x, kernel, gamma, beta, np.zeros(40), np.ones(40), 1, 2)
        out.grad = rng.standard_normal(out.shape)
        # chunk and piece buffers and bookkeeping
        slack = 3 * ad.SLAB_DOUBLES * 8
        tracemalloc.start()
        try:
            for rule in reversed(out.tape._resolve().entries):
                rule()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= x.data.nbytes + out.data.size + slack
        assert x.grad is not None and kernel.grad is not None

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_retains_nothing_without_grad(self, train):
        rng = np.random.default_rng(32)
        x = Tensor(rng.standard_normal((2, 100, 16, 8)), requires_grad=True)
        kernel = Tensor(rng.standard_normal((8, 8, 3, 3)), requires_grad=True)
        gamma, beta = Tensor(np.ones(8), requires_grad=True), Tensor(np.zeros(8), requires_grad=True)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with ad.no_grad():
                out = conv_block(
                    x, kernel, gamma, beta, np.zeros(8), np.ones(8), 2, 4, train=train
                )
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert out.tape is None
        # the output, its Tensor and array objects
        assert retained <= out.data.nbytes + 4096

    @pytest.mark.parametrize("kernel", [(3, 2, 2, 3), (3, 2, 3, 4)], ids=["2x3", "3x4"])
    def test_even_kernel_side_rejected(self, kernel):
        # an even side has no centred "same" padding
        rng = np.random.default_rng(36)
        args = (Tensor(rng.standard_normal((1, 6, 8, 2))), Tensor(rng.standard_normal(kernel)),
                Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3), np.ones(3))
        with pytest.raises(ShapeError, match="even side"):
            conv_block(*args, 1, 1)

    @pytest.mark.parametrize("shape", [(1, 0, 8, 2), (1, 6, 0, 2)], ids=["no_rows", "no_columns"])
    def test_empty_input_rejected(self, shape):
        args = (Tensor(np.zeros(shape)), Tensor(np.ones((3, 2, 3, 3))),
                Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3), np.ones(3))
        with pytest.raises(ShapeError, match="no rows or no columns"):
            conv_block(*args, 1, 1)

    def test_untiled_output_rejected(self):
        rng = np.random.default_rng(33)
        args = (
            Tensor(rng.standard_normal((1, 6, 8, 2))), Tensor(rng.standard_normal((3, 2, 3, 3))),
            Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3), np.ones(3),
        )
        with pytest.raises(ShapeError):
            conv_block(*args, 4, 2)
        with pytest.raises(ShapeError):
            conv_block(*args, 1, 3)
        with pytest.raises(ShapeError):
            conv_block(*args[:2], Tensor(np.ones(2)), *args[3:], 2, 2)

    @pytest.mark.parametrize(
        "threads, chunks, running", [(2, 7, 1), (2, 8, 2), (4, 11, 2), (4, 17, 4)]
    )
    def test_chunks_run_a_quarter_at_once(self, blas_threads, threads, chunks, running):
        # at most one chunk per four runs at once, on as many buffer sets;
        # where that is one, the chunks run inline on the calling thread
        blas_threads(threads)
        lock = threading.Lock()
        active, most, buffers, names = [0], [0], set(), set()

        def fn(part, buf, term):
            with lock:
                active[0] += 1
                most[0] = max(most[0], active[0])
                buffers.add(id(buf))
                names.add(threading.current_thread().name)
            time.sleep(0.005)
            with lock:
                active[0] -= 1

        ad._run_chunks(fn, chunks, ad.CHUNK_DOUBLES, lambda rows: object())
        assert most[0] <= running and len(buffers) <= running
        inline = names == {threading.current_thread().name}
        assert inline == (running == 1)


# ---------------------------------------------------------------------------
# softmax


class TestSoftmax:
    def test_zeros_give_uniform(self):
        out = softmax(Tensor(np.zeros(7)), scale=3.0).data
        np.testing.assert_allclose(out, np.full(7, 1.0 / 7.0), atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        s = rng.standard_normal(20)
        a = softmax(Tensor(s)).data
        b = softmax(Tensor(s + 123.456)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_direct_evaluation(self):
        # exp([1,2,3]) / sum(exp([1,2,3])), computed independently
        out = softmax(Tensor([1.0, 2.0, 3.0]), scale=1.0).data
        np.testing.assert_allclose(out, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)

    def test_sums_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            out = softmax(Tensor(rng.standard_normal(30) * 100), scale=2.5).data
            assert abs(out.sum() - 1.0) <= 1e-12
            assert np.all(out >= 0.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            softmax(Tensor([1.0]), scale=0.0)

    def test_large_scale_flattens_to_uniform(self):
        s = np.array([1.0, 2.0, 3.0])
        out = softmax(Tensor(s), scale=1e9 * (s.max() - s.min())).data
        np.testing.assert_allclose(out, 1.0 / 3.0, atol=1e-6)


# ---------------------------------------------------------------------------
# backward mechanics


class TestBackward:
    def test_identity_loss(self):
        x = Tensor([4.0], requires_grad=True)
        reduce_sum(x, axis=0).backward()
        np.testing.assert_array_equal(x.grad, [1.0])

    def test_sum_of_squares(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        reduce_sum(ad.mul(x, x), axis=0).backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data)

    def test_fanout_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = ad.add(ad.mul(x, 3.0), ad.mul(x, 5.0))  # 3x + 5x
        reduce_sum(y, axis=0).backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_non_scalar_backward_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            ad.mul(x, x).backward()

    def test_tape_is_topological_and_freed(self):
        # x fans out to a and b, which fan back in: f = sum(x^2 * 3x) = 3 sum(x^3).
        # Replaying the tape out of order would leave a or b without its
        # gradient when its backward rule runs.
        x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        a = ad.mul(x, x)
        b = ad.mul(x, 3.0)
        y = reduce_sum(ad.mul(a, b), axis=0)
        tape = y.tape._resolve()
        y.backward()
        np.testing.assert_allclose(x.grad, 9.0 * x.data**2, rtol=1e-15)
        np.testing.assert_allclose(a.grad, b.data, rtol=1e-15)
        assert not tape.entries

    def test_disjoint_graphs_merge(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([2.0], requires_grad=True)
        a = ad.mul(x, x)
        b = ad.mul(y, 3.0)
        total = reduce_sum(ad.add(a, b), axis=0)
        total.backward()
        np.testing.assert_allclose(x.grad, [2.0])
        np.testing.assert_allclose(y.grad, [3.0])

    def test_composite_conv_relu_mean_matches_fd(self):
        rng = np.random.default_rng(11)
        k = Tensor(rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
        x = nhwc(rng.standard_normal((1, 1, 6, 6)) + 0.05)  # jitter off relu kinks

        def f(t):
            return reduce_mean(relu(conv2d(Tensor(x), t)))

        assert grad_check(f, k) <= 1e-6

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(12)
        x = nhwc(rng.standard_normal((2, 1, 5, 5)))
        k = rng.standard_normal((2, 1, 3, 3))

        def run():
            kt = Tensor(k, requires_grad=True)
            out = reduce_sum(relu(conv2d(Tensor(x), kt)))
            out.backward()
            return out.data.copy(), kt.grad.copy()

        o1, g1 = run()
        o2, g2 = run()
        assert np.array_equal(o1, o2) and np.array_equal(g1, g2)


def records() -> bool:
    """Whether an op on a tracked tensor lands on a tape on this thread."""
    return ad.mul(Tensor([1.0], requires_grad=True), 2.0).tape is not None


def run_threads(*targets) -> None:
    """Run each target on its own thread; re-raise the first failure here."""
    errors = []

    def guarded(target):
        try:
            target()
        except BaseException as exc:  # re-raised below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,), daemon=True) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads), "a thread did not finish in 30 s"
    if errors:
        raise errors[0]


class TestNoGrad:
    def test_suspends_recording_in_its_block(self):
        with ad.no_grad():
            assert not records()
            with ad.no_grad():
                assert not records()
            assert not records()
        assert records()

    def test_held_on_one_thread_leaves_another_recording(self):
        entered, checked = threading.Event(), threading.Event()
        seen = {}

        def inference():
            with ad.no_grad():
                entered.set()
                assert checked.wait(10)
                seen["inference"] = records()

        def training():
            assert entered.wait(10)
            seen["training"] = records()
            checked.set()

        run_threads(inference, training)
        assert seen == {"inference": False, "training": True}

    def test_interleaved_blocks_leave_recording_on(self):
        # a enters, b enters, a leaves, b leaves: with one flag for the
        # process, a's leaving would switch b's block back on, and b's
        # leaving would restore the "off" it saw on entering, for good
        step = threading.Barrier(2, timeout=10)
        seen = {}

        def a():
            with ad.no_grad():
                step.wait()  # a is inside
                step.wait()  # b is inside
            step.wait()  # a has left
            step.wait()  # b has left
            seen["a"] = records()

        def b():
            step.wait()
            with ad.no_grad():
                step.wait()
                step.wait()
                seen["b inside"] = records()
            step.wait()
            seen["b"] = records()

        run_threads(a, b)
        assert seen == {"a": True, "b inside": False, "b": True}
        assert records()


# ---------------------------------------------------------------------------
# conv2d on the pool

# (input shape, kernel shape, input tracked): with SLAB_DOUBLES at 2**12,
# each has 8 or more forward slabs and backward pieces, so 2 and 4 BLAS
# threads run them on the pool: a tracked input (im2col of the padded
# output gradient), one input channel and one output channel (one-column
# kernel-gradient operands, which numpy multiplies as a gemv), a 1x1
# kernel with one output channel (one im2col column), and untracked inputs
# at a width of 32 (the kernel gradient alone, over im2col pieces of the
# padded input)
THREADED_CONVS = {
    "tracked": ((4, 60, 16, 8), (8, 8, 3, 3), True),
    "tracked_one_channel": ((4, 60, 16, 1), (1, 1, 3, 3), True),
    "tracked_1x1_one_out": ((4, 120, 16, 3), (1, 3, 1, 1), True),
    "untracked": ((4, 60, 32, 1), (6, 1, 3, 3), False),
    "untracked_one_out": ((4, 60, 32, 2), (1, 2, 3, 3), False),
}


def conv_parts(shape, kernel, tracked):
    """(forward slabs, backward pieces) of a padded 'same' conv2d."""
    n, h, w, c = shape
    _, _, kh, kw = kernel
    slabs = ad._slabs(n, h, w, ad.SLAB_DOUBLES // (kh * kw * c))
    if tracked:
        pieces = ad._slabs(n, h, w, ad.PIECE_PIXELS, whole_clips=False)
    else:
        many = max(1, ad.SLAB_DOUBLES // (kh * kw * c) // ad.PIECE_PIXELS)
        pieces = ad._slabs(n, h, w, many * ad.PIECE_PIXELS, whole_clips=False)
    return slabs, pieces


def conv_step(x_data, k_data, probe, tracked):
    """Output, kernel gradient and input gradient of sum(conv2d * probe)."""
    x = Tensor(x_data, requires_grad=tracked)
    k = Tensor(k_data, requires_grad=True)
    out = conv2d(x, k)
    reduce_sum(ad.mul(out, probe)).backward()
    return out.data, k.grad, x.grad if tracked else np.empty(0)


@pytest.fixture
def small_slabs(monkeypatch):
    monkeypatch.setattr(ad, "SLAB_DOUBLES", 1 << 12)


@pytest.fixture
def column_spy(monkeypatch):
    """Records (thread name, OpenBLAS's own thread count) of every im2col
    copy, which the part's gemms follow on the same thread."""
    seen = []
    columns = ad._columns

    def spy(*args):
        seen.append((threading.current_thread().name, openblas_threads()))
        return columns(*args)

    monkeypatch.setattr(ad, "_columns", spy)
    return seen


class TestConvOnThePool:
    @pytest.mark.parametrize("case", list(THREADED_CONVS))
    def test_same_bits_as_inline(self, blas_threads, small_slabs, column_spy, case):
        shape, kernel, tracked = THREADED_CONVS[case]
        slabs, pieces = conv_parts(shape, kernel, tracked)
        assert len(slabs) >= 8 and len(pieces) >= 8
        rng = np.random.default_rng(53)
        x_data = rng.standard_normal(shape)
        k_data = rng.standard_normal(kernel)
        probe = rng.standard_normal(shape[:3] + kernel[:1])
        results = []
        for threads in (1, 2, 4):
            blas_threads(threads)
            column_spy.clear()
            results.append(conv_step(x_data, k_data, probe, tracked))
            assert blas.threads() == threads
            assert len(column_spy) == len(slabs) + len(pieces)
            if threads == 1:
                assert {name for name, _ in column_spy} == {threading.current_thread().name}
            else:
                assert all(name.startswith("mbsed-pool") for name, _ in column_spy)
                assert all(count == 1 for _, count in column_spy)
        for threads, other in zip((2, 4), results[1:]):
            for name, a, b in zip(("output", "kernel grad", "input grad"), results[0], other):
                assert same_bits(a, b), f"{name} at {threads} threads"

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_conv_block_same_bits_as_inline(self, blas_threads, small_slabs, column_spy, train):
        # 36 im2col columns: 12 forward slabs and 4 backward pieces per clip
        rng = np.random.default_rng(59)
        x_data = rng.standard_normal((3, 80, 16, 4))
        k_data = rng.standard_normal((6, 4, 3, 3)) * 0.5
        gamma_data = np.array([1.1, -0.6, 0.8, 0.0, 1.3, -1.2])
        beta_data = rng.standard_normal(6) * 0.1
        probe = rng.standard_normal((3, 40, 8, 6))
        results = []
        for threads in (1, 2, 4):
            blas_threads(threads)
            column_spy.clear()
            tensors = [
                Tensor(a.copy(), requires_grad=True) for a in (x_data, k_data, gamma_data, beta_data)
            ]
            rm, rv = np.zeros(6), np.ones(6)
            out = conv_block(*tensors, rm, rv, 2, 2, train=train)
            reduce_sum(ad.mul(out, probe)).backward()
            results.append([out.data, rm, rv] + [t.grad for t in tensors])
            names = {name for name, _ in column_spy}
            if threads > 1:
                assert all(name.startswith("mbsed-pool") for name in names)
        names = ("out", "running_mean", "running_var", "x", "kernel", "gamma", "beta")
        for threads, other in zip((2, 4), results[1:]):
            for name, a, b in zip(names, results[0], other):
                assert same_bits(a, b), f"{name} at {threads} threads"

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("phase", ["forward", "backward"])
    def test_blas_count_restored_when_a_piece_raises(
        self, blas_threads, small_slabs, monkeypatch, threads, phase
    ):
        # the copy of a middle slab or piece raises; the error reaches the
        # caller, and the same conv at the same thread count then gives the
        # inline result's bits, so the pool and its buffers still work
        shape, kernel, _ = THREADED_CONVS["tracked"]
        slabs, pieces = conv_parts(shape, kernel, True)
        fail_at = len(slabs) // 2 if phase == "forward" else len(slabs) + len(pieces) // 2
        rng = np.random.default_rng(61)
        args = (rng.standard_normal(shape), rng.standard_normal(kernel),
                rng.standard_normal(shape[:3] + kernel[:1]), True)
        blas_threads(1)
        want = conv_step(*args)
        blas_threads(threads)
        calls = [0]
        columns = ad._columns

        def failing(*args):
            calls[0] += 1
            if calls[0] == fail_at:
                raise RuntimeError("piece failed")
            return columns(*args)

        monkeypatch.setattr(ad, "_columns", failing)
        with pytest.raises(RuntimeError, match="piece failed"):
            conv_step(*args)
        assert blas.threads() == threads
        monkeypatch.setattr(ad, "_columns", columns)
        got = conv_step(*args)
        for name, a, b in zip(("output", "kernel grad", "input grad"), want, got):
            assert same_bits(a, b), name

    def test_inside_map_clips_runs_inline(self, blas_threads, small_slabs, column_spy, monkeypatch):
        from mbsed.pipeline import map_clips

        rng = np.random.default_rng(67)
        shape, kernel, tracked = THREADED_CONVS["tracked"]
        slabs, pieces = conv_parts(shape, kernel, tracked)
        args = [rng.standard_normal(shape), rng.standard_normal(kernel) * 0.5]
        gamma, beta = np.ones(kernel[0]), np.zeros(kernel[0])
        clip = threading.local()  # the seed of the clip the thread runs
        ran_on = {}  # seed -> thread that ran the clip
        copies = []  # (seed of the running clip, thread) of each im2col copy
        columns = ad._columns

        def spy(*args):
            copies.append((getattr(clip, "seed", None), threading.current_thread()))
            return columns(*args)

        def block(seed):
            clip.seed = seed
            ran_on[seed] = threading.current_thread()
            x, k = (Tensor(a, requires_grad=True) for a in args)
            out = conv_block(x, k, Tensor(gamma), Tensor(beta), np.zeros(kernel[0]),
                             np.ones(kernel[0]), 2, 2)
            reduce_sum(ad.mul(out, float(seed))).backward()
            clip.seed = None
            return out.data, x.grad, k.grad

        blas_threads(1)
        want = [block(seed) for seed in (1, 2)]
        blas_threads(2)
        column_spy.clear()
        monkeypatch.setattr(ad, "_columns", spy)
        got = []
        run_threads(lambda: got.extend(map_clips(block, [1, 2])))
        # each clip's im2col copies ran on the pool thread that ran the clip
        assert all(t.name.startswith("mbsed-pool") for t in ran_on.values())
        per_clip = len(slabs) + len(pieces)
        assert sorted(seed for seed, _ in copies) == [1] * per_clip + [2] * per_clip
        assert all(thread is ran_on[seed] for seed, thread in copies)
        assert all(count == 1 for _, count in column_spy)
        assert blas.threads() == 2
        for a, b in zip(want, got):
            assert all(same_bits(u, v) for u, v in zip(a, b))


class TestRunParts:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_terms_added_in_part_order(self, blas_threads, threads):
        # terms of mixed magnitude, whose sum changes with the order of
        # addition; random sleeps finish the parts out of order
        blas_threads(threads)
        rng = np.random.default_rng(71)
        terms = rng.standard_normal((24, 5)) * 10.0 ** rng.integers(-8, 9, (24, 1))
        delays = rng.uniform(0, 0.004, 24)
        want = np.zeros(5)
        for term in terms:
            want += term
        seen = set()  # term buffers

        def fn(part, _, term):
            time.sleep(delays[part])
            seen.add(id(term))
            term[:] = terms[part]

        total = np.zeros(5)
        ad._run_parts(fn, list(range(24)), object, total)
        assert same_bits(total, want)
        running = min(threads, 24 // 4)
        assert len(seen) <= (1 if running == 1 else 2 * running)

    def test_inline_parts_run_at_one_blas_thread(self, blas_threads):
        # three parts are too few for the pool, so they run on the calling
        # thread, still at one BLAS thread
        blas_threads(2)
        seen = []

        def fn(part, _, term):
            seen.append((threading.current_thread().name, openblas_threads()))

        ad._run_parts(fn, [0, 1, 2], object)
        assert seen == [(threading.current_thread().name, 1)] * 3
        assert blas.threads() == 2


# ---------------------------------------------------------------------------
# profiler


def profiled_step():
    """Loss of two conv_blocks, a linear head and a mean, and its backward:
    returns the tape's entries before the backward."""
    rng = np.random.default_rng(73)
    x = Tensor(rng.standard_normal((2, 16, 8, 1)))
    params = [
        Tensor(rng.standard_normal(shape), requires_grad=True)
        for shape in ((4, 1, 3, 3), (4,), (4,), (4, 4, 3, 3), (4,), (4,), (8, 3), (3,))
    ]
    h = x
    for i in (0, 3):
        k, gamma, beta = params[i : i + 3]
        h = conv_block(h, k, gamma, beta, np.zeros(4), np.ones(4), 2, 2)
    h = reshape(h, (2, 4, 8))
    loss = reduce_mean(sigmoid(linear(h, params[6], params[7])))
    entries = len(loss.tape._resolve().entries)
    loss.backward()
    return entries


class TestProfile:
    def test_reports_each_op_of_a_step_once(self):
        with ad.profile() as prof:
            entries = profiled_step()
        ops = prof.ops
        assert ops["conv_block"].calls == 2
        assert ops["conv_block"].forward_s > 0.0 and ops["conv_block"].backward_s > 0.0
        assert ops["conv_block"].out_bytes == (2 * 8 * 4 * 4 + 2 * 4 * 2 * 4) * 8
        # linear is matmul then add, and counts only as those
        assert "linear" not in ops and ops["matmul"].calls == ops["add"].calls == 1
        assert sum(s.calls for s in ops.values()) == entries == 7
        assert all(s.backward_s > 0.0 for s in ops.values())

    def test_totals_from_threads_add_up(self):
        # four threads on two cores, switching often: a lost update to a
        # shared total would break the sums
        with ad.profile() as one:
            profiled_step()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ad.profile() as four:
                run_threads(*[profiled_step] * 4)
        finally:
            sys.setswitchinterval(interval)
        assert four.ops.keys() == one.ops.keys()
        for name, stats in four.ops.items():
            assert stats.calls == 4 * one.ops[name].calls, name
            assert stats.out_bytes == 4 * one.ops[name].out_bytes, name

    def test_records_only_while_open(self):
        with ad.profile() as prof:
            pass
        profiled_step()
        assert prof.ops == {} and ad._profile is None

    def test_one_profile_at_a_time(self):
        with ad.profile():
            with pytest.raises(RuntimeError, match="already open"):
                with ad.profile():
                    pass
        assert ad._profile is None


# ---------------------------------------------------------------------------
# misc ops


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        y = reduce_sum(ad.mul(reshape(x, (2, 3)), 2.0))
        y.backward()
        np.testing.assert_array_equal(x.grad, np.full(6, 2.0))

    def test_transpose_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = np.array([[1.0], [2.0]])
        reduce_sum(matmul(transpose(x), Tensor(w))).backward()
        np.testing.assert_allclose(x.grad, np.tile(w.reshape(2, 1), (1, 3)))

    def test_clamp_gradient_inside_only(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        reduce_sum(clamp(x, -1.0, 1.0), axis=0).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# grad_check contract


class TestGradCheck:
    def test_sigmoid_tight(self):
        assert grad_check(lambda t: reduce_sum(sigmoid(t), axis=0), Tensor([0.3], requires_grad=True)) <= 1e-7

    def test_linear_map_near_exact(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        err = grad_check(lambda t: reduce_sum(ad.mul(t, 4.0), axis=0), x)
        assert err <= 1e-9


GRAD_SEEDS = range(20)


@pytest.mark.parametrize("seed", GRAD_SEEDS)
def test_every_op_grad_check(seed):
    """All differentiable ops stay within 1e-4 of finite differences."""
    rng = np.random.default_rng(seed)
    checks = []

    x = Tensor(nhwc(rng.standard_normal((2, 2, 5, 4)) + 0.1), requires_grad=True)
    k = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5, requires_grad=True)
    checks.append(
        grad_check(
            lambda t: reduce_sum(conv2d(x, t)), k
        )
    )

    g = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
    bn_probe = nhwc(rng.standard_normal((2, 2, 5, 4)))
    checks.append(
        grad_check(
            lambda t: reduce_sum(
                ad.mul(
                    batch_norm(x, t, Tensor(np.zeros(2)), np.zeros(2), np.ones(2)),
                    bn_probe,
                )
            ),
            g,
        )
    )

    v = Tensor(rng.standard_normal(8) + np.where(rng.random(8) > 0.5, 0.2, -0.2), requires_grad=True)
    checks.append(grad_check(lambda t: reduce_sum(relu(t), axis=0), v))
    checks.append(grad_check(lambda t: reduce_sum(sigmoid(t), axis=0), v))

    p = Tensor(rng.uniform(0.2, 3.0, 8), requires_grad=True)
    checks.append(grad_check(lambda t: reduce_sum(log(t), axis=0), p))

    d = Tensor(rng.standard_normal(16), requires_grad=True)
    # dropout is a product with a fixed keep mask, survivors scaled by 1/(1 - p)
    keep = (np.random.default_rng(seed + 1000).random(16) >= 0.4) / 0.6
    checks.append(grad_check(lambda t: reduce_sum(ad.mul(t, keep), axis=0), d))

    w = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    xin = Tensor(rng.standard_normal((4, 6)))
    checks.append(
        grad_check(lambda t: reduce_sum(sigmoid(linear(xin, t, Tensor(np.zeros(3))))), w)
    )

    m = Tensor(rng.standard_normal((3, 5)) * 2.0, requires_grad=True)
    sm_probe = rng.standard_normal((3, 5))
    checks.append(grad_check(lambda t: reduce_sum(reduce_max(t, axis=1), axis=0), m))
    checks.append(grad_check(lambda t: reduce_sum(reduce_mean(t, axis=0), axis=0), m))
    checks.append(
        grad_check(lambda t: reduce_sum(ad.mul(softmax(t, scale=1.7, axis=1), sm_probe)), m)
    )

    a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    bmat = Tensor(rng.standard_normal((2, 4, 2)), requires_grad=True)
    checks.append(grad_check(lambda t: reduce_sum(matmul(t, bmat)), a))
    checks.append(grad_check(lambda t: reduce_sum(matmul(a, t)), bmat))

    pool_in = Tensor(rng.permutation(48).reshape(2, 4, 6, 1) * 0.3, requires_grad=True)
    pool_probe = rng.standard_normal((2, 2, 2, 1))
    checks.append(
        grad_check(
            lambda t: reduce_sum(ad.mul(max_pool_by_reduce_max(t, 2, 3), pool_probe)), pool_in
        )
    )

    block_args = [
        Tensor(nhwc(rng.standard_normal((2, 2, 4, 6))), requires_grad=True),
        Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5, requires_grad=True),
        # a negative channel pools by its minimum
        Tensor(rng.uniform(0.5, 1.5, 3) * [1.0, -1.0, 1.0], requires_grad=True),
        # a positive shift keeps pooled outputs off relu's kink
        Tensor(rng.uniform(0.5, 1.0, 3), requires_grad=True),
    ]
    block_probe = rng.standard_normal((2, 2, 2, 3))

    def block_loss(i, t):
        args = block_args[:i] + [t] + block_args[i + 1 :]
        out = conv_block(*args, np.zeros(3), np.ones(3), 2, 3)
        return reduce_sum(ad.mul(out, block_probe))

    for i, t in enumerate(block_args):
        checks.append(grad_check(lambda u: block_loss(i, u), t))

    assert max(checks) <= 1e-4

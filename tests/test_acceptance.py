"""Acceptance gate: one test per end-to-end guarantee, at stated tolerances.

Each test is self-timed against its runtime budget. The ablation test
trains twenty small models and dominates the suite's runtime; everything
else completes in seconds. Run with -v to get one pass/fail line per
guarantee.
"""

import inspect
import time

import numpy as np
import pytest

import mbsed.autodiff as ad
from mbsed.audio import PIPELINE_RATE, AudioClip, logmel
from mbsed.config import parse_branches, parse_run_config
from mbsed.metrics import event_based_f1, segment_based_f1
from mbsed.model import (
    CnnBlockSpec,
    Model,
    ModelConfig,
    clip_loss,
    load_checkpoint,
    save_checkpoint,
    total_loss,
    train_model,
)
from mbsed.pipeline import load_dataset, run_ablation, run_training
from mbsed.pooling import (
    AttentionParams,
    PoolMethod,
    attention_weights,
    instance_pool,
)
from mbsed.postprocess import binarize, extract_events, median_filter
from mbsed.synth import SynthConfig, generate_dataset

from reference import batch_norm, conv2d, relu
from test_metrics import max_matching_oracle, random_case, segment_counts_oracle
from test_pipeline import tiny_model_config

GRAD_TOL = 1e-4
GRAD_EPS = 1e-5
GRAD_SEEDS = 20


# ---------------------------------------------------------------------------
# gradient correctness: every differentiable operation, then the full
# three-branch loss, against central finite differences


def op_checks(rng):
    """(name, scalar closure, input tensor) triples away from kinks.

    Every random constant is drawn here, outside the closures, so each
    closure is a deterministic function of its argument as finite
    differences require.
    """
    t = lambda *shape: ad.Tensor(rng.uniform(-0.9, 0.9, shape), requires_grad=True)
    pos = lambda *shape: ad.Tensor(rng.uniform(0.2, 2.0, shape), requires_grad=True)
    w = lambda *shape: rng.uniform(-1.0, 1.0, shape)
    proj = lambda y, ww: ad.reduce_sum(ad.mul(y, ww))

    def away_from(value, margin, shape):
        x = rng.uniform(-1.5, 1.5, shape)
        x = np.where(np.abs(np.abs(x) - value) < margin, x + 2 * margin, x)
        return ad.Tensor(x, requires_grad=True)

    c34, c45 = w(3, 4), w(4, 5)
    w34, w35, w36, w43, w4 = w(3, 4), w(3, 5), w(3, 6), w(4, 3), w(4)
    w432, w534, w31 = w(4, 3, 2), w(5, 3, 4), w(3, 1)
    v12 = w(12)
    x_relu = away_from(0.0, 0.05, (3, 4))
    x_clamp = away_from(0.75, 0.05, (3, 4))
    # unique entries so max has an isolated argmax everywhere
    x_max = ad.Tensor(rng.permutation(24).reshape(4, 6) + rng.uniform(0.1, 0.4), requires_grad=True)
    x_lin = t(3, 4)
    lw, lb = t(4, 6), t(6)
    # dropout, as Model.encode applies it: a fixed keep mask, survivors
    # scaled by 1/(1 - p), from a generator of its own so no draw above moves
    keep34 = (np.random.default_rng(77).random((3, 4)) >= 0.4) / 0.6

    # the encoder ops take channels-last arrays: NCHW draws, transposed
    nhwc = lambda a: np.ascontiguousarray(a.transpose(0, 2, 3, 1))
    bn_shape = (2, 3, 4, 5)
    x_bn = ad.Tensor(nhwc(w(*bn_shape)), requires_grad=True)
    gamma, beta = pos(3), t(3)
    w_bn = nhwc(w(*bn_shape))
    rm_eval, rv_eval = w(3) * 0.2, np.full(3, 0.8)

    def bn_train(x):
        # fresh buffers per call: train output ignores them, mutation stays local
        return proj(batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), train=True), w_bn)

    def bn_eval(x):
        return proj(batch_norm(x, gamma, beta, rm_eval.copy(), rv_eval.copy(), train=False), w_bn)

    img = ad.Tensor(nhwc(w(2, 2, 5, 6)), requires_grad=True)
    kern = ad.Tensor(rng.uniform(-0.7, 0.7, (3, 2, 3, 3)), requires_grad=True)
    w_conv = nhwc(w(2, 3, 5, 6))

    rows = [
        ("add", lambda x: proj(ad.add(x, c34), w34), t(3, 4)),
        ("sub", lambda x: proj(ad.sub(c34, x), w34), t(3, 4)),
        ("mul", lambda x: proj(ad.mul(x, c34), w34), t(3, 4)),
        ("matmul", lambda x: proj(ad.matmul(x, c45), w35), t(3, 4)),
        ("linear_x", lambda x: proj(ad.linear(x, lw, lb), w36), t(3, 4)),
        ("linear_w", lambda ww: proj(ad.linear(x_lin, ww, lb), w36), lw),
        ("linear_b", lambda b: proj(ad.linear(x_lin, lw, b), w36), lb),
        ("reshape", lambda x: proj(ad.reshape(x, (12,)), v12), t(3, 4)),
        ("transpose", lambda x: proj(ad.transpose(x), w43), t(3, 4)),
        ("swapaxes", lambda x: proj(ad.swapaxes(x, 0, 2), w432), t(2, 3, 4)),
        # proj's mul broadcasts x over w534's first axis, as E-GMP/E-GAP's
        # one embedding is over the classes
        ("mul_broadcast", lambda x: proj(x, w534), t(1, 3, 4)),
        ("clamp", lambda x: proj(ad.clamp(x, -0.75, 0.75), w34), x_clamp),
        ("relu", lambda x: proj(relu(x), w34), x_relu),
        ("sigmoid", lambda x: proj(ad.sigmoid(x), w34), t(3, 4)),
        ("log", lambda x: proj(ad.log(x), w34), pos(3, 4)),
        ("dropout", lambda x: proj(ad.mul(x, keep34), w34), t(3, 4)),
        ("reduce_sum", lambda x: proj(ad.reduce_sum(x, axis=0), w4), t(3, 4)),
        ("reduce_mean", lambda x: proj(ad.reduce_mean(x, axis=1, keepdims=True), w31), t(3, 4)),
        ("reduce_max", lambda x: proj(ad.reduce_max(x, axis=1), w4), x_max),
        ("softmax", lambda x: proj(ad.softmax(x, scale=3.0, axis=-1), w34), t(3, 4)),
        ("conv2d_kernel", lambda k: proj(conv2d(img, k), w_conv), kern),
        ("conv2d_input", lambda x: proj(conv2d(x, kern), w_conv), img),
        ("batch_norm_train", bn_train, x_bn),
        ("batch_norm_gamma", lambda g: proj(batch_norm(x_bn, g, beta, np.zeros(3), np.ones(3), train=True), w_bn), gamma),
        ("batch_norm_beta", lambda b: proj(batch_norm(x_bn, gamma, b, np.zeros(3), np.ones(3), train=True), w_bn), beta),
        ("batch_norm_eval", bn_eval, x_bn),
    ]

    # conv_block's inputs are drawn after every other row's, so no earlier
    # draw moves; a negative channel pools by its minimum, and a positive
    # beta keeps pooled outputs off relu's kink
    block = [
        ad.Tensor(nhwc(w(2, 2, 4, 6)), requires_grad=True),
        ad.Tensor(rng.uniform(-0.7, 0.7, (3, 2, 3, 3)), requires_grad=True),
        ad.Tensor(rng.uniform(0.2, 2.0, 3) * [1.0, -1.0, 1.0], requires_grad=True),
        ad.Tensor(rng.uniform(0.5, 1.0, 3), requires_grad=True),
    ]
    w_block = nhwc(w(2, 3, 2, 2))

    def block_row(i):
        def fn(t):
            args = block[:i] + [t] + block[i + 1 :]
            # fresh buffers per call, as for bn_train
            out = ad.conv_block(*args, np.zeros(3), np.ones(3), time_pool=2, freq_pool=3)
            return proj(out, w_block)

        return fn

    names = ("conv_block_x", "conv_block_kernel", "conv_block_gamma", "conv_block_beta")
    return rows + [(name, block_row(i), block[i]) for i, name in enumerate(names)]


def test_gradient_table_covers_every_op():
    """Every public autodiff function but as_tensor and grad_check has a
    row in op_checks named after it: the name, or the name plus "_..."."""
    rows = [name for name, _, _ in op_checks(np.random.default_rng(0))]
    ops = [
        name
        for name, fn in vars(ad).items()
        if inspect.isfunction(fn)
        and fn.__module__ == ad.__name__
        and not name.startswith("_")
        and name not in ("as_tensor", "grad_check")
    ]
    assert "conv_block" in ops and "swapaxes" in ops
    missing = [op for op in ops if not any(row == op or row.startswith(op + "_") for row in rows)]
    assert not missing, f"ops without a gradient check row: {missing}"


def micro_config(seed):
    return ModelConfig(
        encoder=(CnnBlockSpec(3, (3, 3), freq_pool=4),),
        num_classes=2,
        branches=parse_branches(("E-ATP", "I-GAP", "I-GMP")),
        attention_scale=3.0,
        num_bands=8,
        seed=seed,
    )


def test_gradient_correctness():
    t0 = time.monotonic()
    worst = ("", 0.0)
    for seed in range(GRAD_SEEDS):
        rng = np.random.default_rng([41, seed])
        for name, fn, x in op_checks(rng):
            err = ad.grad_check(fn, x, eps=GRAD_EPS)
            if err > worst[1]:
                worst = (name, err)
    assert worst[1] <= GRAD_TOL, f"op {worst[0]}: {worst[1]:.3e}"

    for seed in range(GRAD_SEEDS):
        rng = np.random.default_rng([42, seed])
        model = Model(micro_config(seed))
        batch = rng.uniform(-1.0, 1.0, (2, 6, 8))
        labels = rng.integers(0, 2, (2, 2)).astype(float)

        def loss_fn(_):
            feats = model.encode(batch, train=True)
            losses = [
                ad.reduce_mean(clip_loss(model.branch_clip_probs(feats, b), labels))
                for b in model.branches
            ]
            return total_loss(losses[0], losses[1:])

        for name, p in model.parameters():
            err = ad.grad_check(loss_fn, p, eps=GRAD_EPS)
            assert err <= GRAD_TOL, f"seed {seed} {name}: {err:.3e}"
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# pooling algebra on random frame-probability matrices


def test_pooling_algebra():
    t0 = time.monotonic()
    rng = np.random.default_rng(314)
    for _ in range(1000):
        t_frames = int(rng.integers(2, 30))
        c = int(rng.integers(1, 6))
        e = int(rng.integers(2, 9))
        probs = ad.Tensor(rng.uniform(0.0, 1.0, (t_frames, c)))
        feats = ad.Tensor(rng.normal(0.0, 1.0, (t_frames, e)))
        attn = AttentionParams(
            weights=ad.Tensor(rng.normal(0.0, 1.0, (c, e))), scale=float(rng.uniform(1, 8))
        )

        gmp = instance_pool(probs, PoolMethod.GMP).data
        gap = instance_pool(probs, PoolMethod.GAP).data
        atp = instance_pool(probs, PoolMethod.ATP, attn=attn, features=feats).data
        assert np.all(gmp >= gap)
        lo, hi = probs.data.min(axis=0), probs.data.max(axis=0)
        assert np.all(atp >= lo - 1e-12) and np.all(atp <= hi + 1e-12)

        a = attention_weights(feats, attn).data
        np.testing.assert_allclose(a.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)

        zero_attn = AttentionParams(weights=ad.Tensor(np.zeros((c, e))), scale=attn.scale)
        atp_zero = instance_pool(probs, PoolMethod.ATP, attn=zero_attn, features=feats).data
        np.testing.assert_allclose(atp_zero, gap, rtol=0.0, atol=1e-12)
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# closed-form loss values


def test_loss_closed_forms():
    probs = ad.Tensor(np.array([[0.5, 0.5]]))
    labels = np.array([[1.0, 0.0]])
    value = clip_loss(probs, labels).data[0]
    assert abs(value - 2.0 * np.log(2.0)) <= 1e-12

    main = ad.Tensor(np.array(0.4))
    auxs = [ad.Tensor(np.array(0.2)), ad.Tensor(np.array(0.2))]
    assert total_loss(main, auxs).data.item() == 0.6


# ---------------------------------------------------------------------------
# frontend shape guarantee


def test_frontend_shape():
    rng = np.random.default_rng(2718)
    n = 10 * PIPELINE_RATE
    tt = np.arange(n) / PIPELINE_RATE
    clips = [
        rng.uniform(-1.0, 1.0, n),
        np.zeros(n),
        0.5 * np.sin(2 * np.pi * 440.0 * tt),
        np.sign(np.sin(2 * np.pi * 3.0 * tt)) * rng.uniform(0.0, 1.0, n),
        rng.normal(0.0, 0.1, n).clip(-1, 1),
    ]
    for samples in clips:
        t0 = time.monotonic()
        feats = logmel(AudioClip(samples, PIPELINE_RATE))
        elapsed = time.monotonic() - t0
        assert feats.shape == (500, 64)
        assert np.all(np.isfinite(feats))
        assert elapsed < 1.0, f"{elapsed:.2f}s for one 10 s clip"


# ---------------------------------------------------------------------------
# metric implementations against brute-force oracles


def test_metric_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    for _ in range(300):
        refs, preds = random_case(rng, classes=("A", "B"), clips=("c0", "c1"))
        report = segment_based_f1(refs, preds, 1.0, 10.0)
        oracle = segment_counts_oracle(refs, preds, 1.0, 10.0)
        for label, (tp, fp, fn) in oracle.items():
            score = report.per_class[label]
            assert (score.tp, score.fp, score.fn) == (tp, fp, fn)

    rng = np.random.default_rng(7)
    agree = 0
    cases = 200
    for _ in range(cases):
        refs, preds = random_case(rng, max_events=4)
        report = event_based_f1(refs, preds)
        greedy_tp = sum(s.tp for s in report.per_class.values())
        oracle_tp = 0
        for clip in {e.clip_id for e in refs} | {e.clip_id for e in preds}:
            for label in {e.label for e in refs} | {e.label for e in preds}:
                r = [e for e in refs if e.clip_id == clip and e.label == label]
                p = [e for e in preds if e.clip_id == clip and e.label == label]
                oracle_tp += max_matching_oracle(r, p)
        assert greedy_tp <= oracle_tp
        agree += greedy_tp == oracle_tp
    assert agree >= 0.95 * cases, f"greedy matched the oracle on {agree}/{cases}"
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# post-processing properties


def test_postprocess_properties():
    t0 = time.monotonic()
    rng = np.random.default_rng(1234)
    for i in range(1000):
        n = int(rng.integers(1, 80))
        if i % 2 == 0:
            seq = rng.integers(0, 2, n).astype(np.float64)
        else:
            seq = rng.uniform(0.0, 1.0, n)

        once = median_filter(binarize(seq, 0.5), 3)
        twice = median_filter(once, 3)
        np.testing.assert_array_equal(once, twice)

        lo, hi = sorted(rng.uniform(0.05, 0.95, 2))
        if lo == hi:
            continue
        events_lo = extract_events(median_filter(binarize(seq, lo), 3), 0.02, "x", "c")
        events_hi = extract_events(median_filter(binarize(seq, hi), 3), 0.02, "x", "c")
        measure = lambda evs: sum(e.offset - e.onset for e in evs)
        assert measure(events_hi) <= measure(events_lo) + 1e-12
        for e in events_hi:
            assert any(c.onset <= e.onset and e.offset <= c.offset for c in events_lo), (
                "raising the threshold moved activity outside existing events"
            )
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# end-to-end ablation: auxiliary branches must not hurt, and the full
# three-branch model must clear the quality floor


ABLATION_TRAIN_SEED = 2026
ABLATION_TEST_SEED = 2027
ABLATION_FLOOR = 0.55


def ablation_model_config():
    """Compact encoder calibrated for this gate: the 1x1 front block
    downsamples 500x64 maps to 125x32 so the 3x3 blocks stay cheap."""
    return ModelConfig(
        encoder=(
            CnnBlockSpec(2, (1, 1), freq_pool=2, time_pool=4),
            CnnBlockSpec(8, (3, 3), freq_pool=4),
            CnnBlockSpec(16, (3, 3), freq_pool=8),
        ),
        num_classes=4,
        branches=parse_branches(("E-ATP", "I-GAP", "I-GMP")),
        attention_scale=4.0,
        learning_rate=0.03,
        batch_size=8,
        epochs=8,
        seed=0,
    )


def ablation_synth_config(n_clips, seed):
    # noisy, dense soundscapes: a single-branch model cannot saturate here
    return SynthConfig(
        n_clips=n_clips,
        seed=seed,
        max_polyphony=3,
        events_min=2,
        events_max=4,
        snr_db_lo=-3.0,
        snr_db_hi=9.0,
    )


@pytest.fixture(scope="session")
def ablation_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("ablation")
    generate_dataset(ablation_synth_config(200, ABLATION_TRAIN_SEED), root / "train")
    generate_dataset(ablation_synth_config(50, ABLATION_TEST_SEED), root / "test")
    return root


def test_ablation_orderings(ablation_dirs):
    t0 = time.monotonic()
    run = parse_run_config(
        f"""
[data]
train_dir = {ablation_dirs / 'train'}
test_dir = {ablation_dirs / 'test'}

[training]
repeats = 5

[postprocess]
threshold = 0.6
tag_threshold = 0.5
"""
    )
    rows = [
        ("E-ATP",),
        ("E-ATP", "I-GAP", "I-GMP"),
        ("E-GMP",),
        ("E-GMP", "I-GAP"),
    ]
    results = {r.branches: r for r in run_ablation(run, rows=rows, model_config=ablation_model_config())}
    atp = results[("E-ATP",)].mean
    three = results[("E-ATP", "I-GAP", "I-GMP")].mean
    gmp = results[("E-GMP",)].mean
    gmp_gap = results[("E-GMP", "I-GAP")].mean
    detail = f"E-ATP {atp:.3f}, three-branch {three:.3f}, E-GMP {gmp:.3f}, E-GMP+I-GAP {gmp_gap:.3f}"
    assert three >= atp, f"auxiliary branches hurt the attention model: {detail}"
    assert gmp_gap >= gmp, f"auxiliary branch hurt the max-pool model: {detail}"
    assert three >= ABLATION_FLOOR, detail
    assert time.monotonic() - t0 < 900.0


# ---------------------------------------------------------------------------
# determinism: training and synthesis are bit-reproducible


def test_determinism(tmp_path):
    # 6 clips at seed 9 cover all four classes, matching the 4-class model
    a, b = tmp_path / "a", tmp_path / "b"
    generate_dataset(SynthConfig(n_clips=6, seed=9), a)
    generate_dataset(SynthConfig(n_clips=6, seed=9), b)
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name

    run = parse_run_config(f"[data]\ntrain_dir = {a}\n[training]\nepochs = 2\n")
    arts1 = run_training(run, tmp_path / "r1", model_config=tiny_model_config(epochs=2))
    arts2 = run_training(run, tmp_path / "r2", model_config=tiny_model_config(epochs=2))
    ckpt1 = arts1[0].checkpoint_path.read_bytes()
    ckpt2 = arts2[0].checkpoint_path.read_bytes()
    assert ckpt1 == ckpt2
    assert arts1[0].loss_path.read_text() == arts2[0].loss_path.read_text()


# ---------------------------------------------------------------------------
# deleting auxiliary branches leaves main-branch inference bit-identical


def test_main_branch_only_inference(tmp_path):
    data = tmp_path / "data"
    generate_dataset(SynthConfig(n_clips=6, seed=9), data)
    dataset = load_dataset(data)
    full = Model(tiny_model_config(epochs=2, seed=4))
    train_model(full, dataset.features, dataset.labels)
    ckpt = tmp_path / "full.ckpt"
    save_checkpoint(full, ckpt)
    loaded = load_checkpoint(ckpt)

    solo = Model(tiny_model_config(branches=("E-ATP",), epochs=2, seed=4))
    for block_solo, block_full in zip(solo.blocks, loaded.blocks):
        block_solo.kernel.data[...] = block_full.kernel.data
        block_solo.gamma.data[...] = block_full.gamma.data
        block_solo.beta.data[...] = block_full.beta.data
        block_solo.running_mean[...] = block_full.running_mean
        block_solo.running_var[...] = block_full.running_var
    main = loaded.main_branch
    solo.branches[0].classifier.weight.data[...] = main.classifier.weight.data
    solo.branches[0].classifier.bias.data[...] = main.classifier.bias.data
    solo.branches[0].attention.weights.data[...] = main.attention.weights.data

    for feats in dataset.features:
        clip_full, frames_full = loaded.predict(feats)
        clip_solo, frames_solo = solo.predict(feats)
        assert np.array_equal(clip_full, clip_solo)
        assert np.array_equal(frames_full, frames_solo)

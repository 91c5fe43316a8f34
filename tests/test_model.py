"""Tests for the multi-branch model, its losses, training, and checkpoints."""

import json
import math
import struct

import numpy as np
import pytest

from mbsed import autodiff as ad
from mbsed.autodiff import Tensor
from mbsed.model import (
    BN_EPS,
    BN_MOMENTUM,
    Adam,
    BranchSpec,
    CheckpointError,
    CnnBlockSpec,
    DivergenceError,
    Model,
    ModelConfig,
    clip_loss,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    config_digest,
    large_config,
    load_checkpoint,
    save_checkpoint,
    small_config,
    total_loss,
    train_model,
)
from mbsed.pooling import MilStrategy, PoolMethod


def tiny_config(branches=("E-ATP", "I-GAP", "I-GMP"), seed=0, epochs=5, **kw):
    """Small enough to train in milliseconds, still two conv blocks deep."""
    specs = tuple(
        BranchSpec.parse(name, 1.0 if name.startswith("E") else 0.5) for name in branches
    )
    defaults = dict(
        encoder=(
            CnnBlockSpec(4, (3, 3), freq_pool=8),
            CnnBlockSpec(8, (3, 3), freq_pool=8),
        ),
        num_classes=4,
        branches=specs,
        attention_scale=8.0,
        num_bands=64,
        batch_size=8,
        epochs=epochs,
        seed=seed,
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def make_clips(n, t=20, f=64, classes=4, seed=0, amp=1.0):
    """Clips whose content is a sum of per-class templates plus noise."""
    rng = np.random.default_rng(seed)
    templates = amp * rng.standard_normal((classes, t, f))
    labels = np.zeros((n, classes))
    clips = []
    for i in range(n):
        active = rng.choice(classes, size=rng.integers(1, 3), replace=False)
        labels[i, active] = 1.0
        clip = 0.1 * rng.standard_normal((t, f))
        for c in active:
            clip += templates[c]
        clips.append(clip)
    return clips, labels


class TestSpecs:
    def test_branch_parse(self):
        spec = BranchSpec.parse("E-ATP", 1.0)
        assert spec.strategy is MilStrategy.EMBEDDING
        assert spec.method is PoolMethod.ATP
        assert spec.label == "E-ATP"
        assert BranchSpec.parse("i-gmp", 0.5).label == "I-GMP"

    def test_branch_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            BranchSpec.parse("X-ATP", 1.0)
        with pytest.raises(ValueError):
            BranchSpec.parse("EATP", 1.0)

    def test_config_requires_exactly_one_main(self):
        with pytest.raises(ValueError, match="exactly one"):
            tiny_config(branches=("I-GAP", "I-GMP"))
        with pytest.raises(ValueError, match="exactly one"):
            tiny_config(branches=("E-ATP", "E-GMP"))

    def test_config_rejects_bad_freq_pooling(self):
        with pytest.raises(ValueError, match="does not divide"):
            ModelConfig(
                encoder=(CnnBlockSpec(4, freq_pool=3),),
                num_classes=2,
                branches=(BranchSpec.parse("E-GMP", 1.0),),
                attention_scale=4.0,
            )

    def test_block_spec_validation(self):
        with pytest.raises(ValueError):
            CnnBlockSpec(4, freq_pool=0)
        with pytest.raises(ValueError):
            CnnBlockSpec(4, dropout=1.0)

    def test_small_preset_dimensions(self):
        cfg = small_config(10, (BranchSpec.parse("E-ATP", 1.0),))
        assert len(cfg.encoder) == 3
        assert cfg.freq_bins_out == 4
        assert cfg.feature_dim == 160
        assert cfg.attention_scale == 64.0

    def test_large_preset_dimensions(self):
        cfg = large_config(10, (BranchSpec.parse("E-ATP", 1.0),))
        assert len(cfg.encoder) == 9
        assert cfg.feature_dim == 1024
        assert cfg.encoder[0].dropout == 0.3

    def test_config_dict_round_trip(self):
        cfg = tiny_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestModelShape:
    def test_encode_shapes(self):
        model = Model(tiny_config())
        feats = model.encode(np.zeros((3, 20, 64)))
        assert feats.shape == (3, 20, 8)

    def test_encode_with_time_pool(self):
        cfg = tiny_config()
        cfg = ModelConfig(
            encoder=(
                CnnBlockSpec(4, (3, 3), freq_pool=8, time_pool=2),
                CnnBlockSpec(8, (3, 3), freq_pool=8, time_pool=2),
            ),
            num_classes=4,
            branches=cfg.branches,
            attention_scale=8.0,
        )
        model = Model(cfg)
        feats = model.encode(np.zeros((2, 20, 64)))
        assert feats.shape == (2, 5, 8)

    def test_encode_rejects_wrong_bands(self):
        model = Model(tiny_config())
        with pytest.raises(ValueError, match="64"):
            model.encode(np.zeros((1, 20, 32)))

    def test_predict_shapes(self):
        model = Model(tiny_config())
        clip_probs, frame_probs = model.predict(np.zeros((20, 64)))
        assert clip_probs.shape == (4,)
        assert frame_probs.shape == (20, 4)
        assert np.all((clip_probs >= 0) & (clip_probs <= 1))

    def test_predict_records_nothing(self):
        model = Model(tiny_config())
        model.predict(np.zeros((20, 64)))
        for _, p in model.parameters():
            assert p.tape is None or not p.tape.entries

    def test_main_and_aux_split(self):
        model = Model(tiny_config())
        assert model.main_branch.label == "E-ATP"

    def test_attention_only_for_atp(self):
        model = Model(tiny_config())
        assert model.branches[0].attention is not None
        assert model.branches[1].attention is None


def relu_then_pool_encode(model, batch, rng):
    """Model.encode rebuilt from generic ops in conv, BN, relu, pool, dropout
    order, pooling by reshape -> reduce_max over freq, then over time, and
    dropout masks drawn from ``rng`` over (N, C, T, F)."""
    x = Tensor(batch[:, :, :, None])
    for block in model.blocks:
        spec = block.spec
        kh, kw = spec.kernel
        x = ad.conv2d(x, block.kernel, padding=(kh // 2, kw // 2))
        x = ad.batch_norm(
            x, block.gamma, block.beta, block.running_mean, block.running_var,
            eps=BN_EPS, momentum=BN_MOMENTUM, train=True,
        )
        x = ad.relu(x)
        n, h, w, c = x.shape
        if spec.freq_pool > 1:
            x = ad.reduce_max(ad.reshape(x, (n, h, w // spec.freq_pool, spec.freq_pool, c)), axis=3)
            w //= spec.freq_pool
        if spec.time_pool > 1:
            x = ad.reduce_max(ad.reshape(x, (n, h // spec.time_pool, spec.time_pool, w, c)), axis=2)
            h //= spec.time_pool
        if spec.dropout > 0.0:
            keep = (rng.random((n, c, h, w)) >= spec.dropout) / (1.0 - spec.dropout)
            x = ad.mul(x, keep.transpose(0, 2, 3, 1))
    n, h, w, c = x.shape
    return ad.reshape(ad.transpose(x, (0, 1, 3, 2)), (n, h, c * w))


class TestEncoderRegression:
    @pytest.mark.parametrize("encoder", ["small", "gate_compact", "dropout"])
    def test_encode_matches_relu_then_pool_bit_for_bit(self, encoder):
        branches = tuple(
            BranchSpec.parse(name, 1.0 if name.startswith("E") else 0.5)
            for name in ("E-ATP", "I-GAP", "I-GMP")
        )
        if encoder == "small":
            cfg = small_config(4, branches, seed=3)
        elif encoder == "gate_compact":
            # the acceptance gate's compact encoder
            cfg = tiny_config(seed=3, encoder=(
                CnnBlockSpec(2, (1, 1), freq_pool=2, time_pool=4),
                CnnBlockSpec(8, (3, 3), freq_pool=4),
                CnnBlockSpec(16, (3, 3), freq_pool=8),
            ))
        else:
            cfg = tiny_config(seed=3, encoder=(
                CnnBlockSpec(4, (3, 3), freq_pool=8, time_pool=2, dropout=0.3),
                CnnBlockSpec(6, (3, 3), dropout=0.3),
                CnnBlockSpec(8, (3, 3), freq_pool=8),
            ))
        rng = np.random.default_rng(8)
        batch = rng.standard_normal((2, 500, 64))
        models = [Model(cfg), Model(cfg)]
        models[0]._dropout_rng = np.random.default_rng(5)
        feats = [
            models[0].encode(batch, train=True),
            relu_then_pool_encode(models[1], batch, np.random.default_rng(5)),
        ]
        assert feats[0].data.tobytes() == feats[1].data.tobytes()
        probe = rng.standard_normal(feats[0].shape)
        for f in feats:
            ad.reduce_sum(ad.mul(f, probe)).backward()
        for i, (a, b) in enumerate(zip(models[0].blocks, models[1].blocks)):
            for name in ("kernel", "gamma", "beta"):
                grads = getattr(a, name).grad, getattr(b, name).grad
                assert grads[0].tobytes() == grads[1].tobytes(), f"block {i} {name}"
            assert a.running_mean.tobytes() == b.running_mean.tobytes(), f"block {i}"
            assert a.running_var.tobytes() == b.running_var.tobytes(), f"block {i}"


class TestLosses:
    def test_uniform_probs_two_classes(self):
        # p = 0.5 for both classes, labels [1, 0]: loss is exactly 2 ln 2
        loss = clip_loss(Tensor(np.array([0.5, 0.5])), np.array([1.0, 0.0]))
        assert abs(loss.item() - 2.0 * math.log(2.0)) < 1e-12

    def test_zeroed_model_gives_uniform_probs(self):
        model = Model(tiny_config())
        for _, p in model.parameters():
            p.data[...] = 0.0
        feats = model.encode(np.zeros((1, 20, 64)))
        for branch in model.branches:
            probs = model.branch_clip_probs(feats, branch)
            loss = clip_loss(probs, np.array([[1.0, 0.0, 1.0, 0.0]]))
            assert abs(loss.item() - 4.0 * math.log(2.0)) < 1e-12

    def test_total_loss_weighting(self):
        total = total_loss(
            Tensor(np.array(0.4)),
            [Tensor(np.array(0.2)), Tensor(np.array(0.2))],
            alpha=1.0,
            beta=0.5,
        )
        assert total.item() == 0.6

    def test_perfect_prediction_loss_is_tiny(self):
        probs = Tensor(np.array([1.0, 0.0, 1.0]))
        loss = clip_loss(probs, np.array([1.0, 0.0, 1.0]))
        assert loss.item() == pytest.approx(3.0 * -math.log(1.0 - 1e-7), abs=1e-15)

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError, match="binary"):
            clip_loss(Tensor(np.array([0.5])), np.array([0.5]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            clip_loss(Tensor(np.array([0.5, 0.5])), np.array([1.0]))

    def test_batched_loss_matches_per_clip(self):
        rng = np.random.default_rng(3)
        probs = rng.uniform(0.01, 0.99, (5, 4))
        labels = (rng.random((5, 4)) < 0.5).astype(float)
        batched = clip_loss(Tensor(probs), labels)
        singles = [clip_loss(Tensor(probs[i]), labels[i]).item() for i in range(5)]
        assert np.allclose(batched.data, singles, atol=1e-15)

    def test_zero_beta_matches_main_only_gradients(self):
        # with beta = 0 the auxiliary branches must not move shared params
        clips, labels = make_clips(4, seed=9)
        batch = np.stack(clips)

        model = Model(tiny_config(seed=5))
        feats = model.encode(batch, train=True)
        branch_losses = [
            ad.reduce_mean(clip_loss(model.branch_clip_probs(feats, b), labels))
            for b in model.branches
        ]
        loss = total_loss(branch_losses[0], branch_losses[1:], alpha=1.0, beta=0.0)
        loss.backward()
        grads_joint = {n: p.grad.copy() for n, p in model.parameters() if p.grad is not None}

        model2 = Model(tiny_config(seed=5))
        feats2 = model2.encode(batch, train=True)
        loss2 = ad.reduce_mean(clip_loss(model2.branch_clip_probs(feats2, model2.branches[0]), labels))
        loss2.backward()
        for name, p in model2.parameters():
            if p.grad is None:
                continue
            assert np.allclose(grads_joint[name], p.grad, atol=1e-12), name

        for name, p in model.parameters():
            if "branches.1" in name or "branches.2" in name:
                assert p.grad is None or np.all(p.grad == 0.0), name


class TestAdam:
    def test_single_step_matches_formula(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        p.grad = np.array([0.5, -0.5])
        opt.step()
        # first step: m-hat = g, v-hat = g^2, update = lr * g / (|g| + eps)
        expected = np.array([1.0, 2.0]) - 0.1 * np.array([0.5, -0.5]) / (0.5 + 1e-8)
        assert np.allclose(p.data, expected, atol=1e-12)

    def test_skips_params_without_grad(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        opt.step()
        assert p.data[0] == 1.0

    def test_quadratic_convergence(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.2)
        for _ in range(300):
            opt.zero_grad()
            loss = ad.reduce_sum(ad.mul(p, p))
            loss.backward()
            opt.step()
        assert abs(p.data[0]) < 1e-3


class TestTraining:
    def test_loss_curve_decreases(self):
        clips, labels = make_clips(8, seed=1)
        model = Model(tiny_config(epochs=15, seed=1))
        curve = train_model(model, clips, labels)
        assert len(curve) == 15
        assert curve[-1] < curve[0]

    def test_overfits_small_batch(self):
        # wider feature than tiny_config so 8 clips are memorized comfortably
        encoder = (
            CnnBlockSpec(8, (3, 3), freq_pool=8),
            CnnBlockSpec(16, (3, 3), freq_pool=4),
        )
        clips, labels = make_clips(8, seed=2, amp=1.5)
        model = Model(tiny_config(epochs=200, seed=2, learning_rate=2e-2, encoder=encoder))
        curve = train_model(model, clips, labels)
        assert curve[-1] < 0.05, f"final loss {curve[-1]:.4f}"

    def test_training_is_deterministic(self):
        clips, labels = make_clips(6, seed=3)
        runs = []
        for _ in range(2):
            model = Model(tiny_config(epochs=4, seed=7))
            curve = train_model(model, clips, labels)
            params = {n: p.data.copy() for n, p in model.parameters()}
            probs, frames = model.predict(clips[0])
            runs.append((curve, params, probs, frames))
        assert runs[0][0] == runs[1][0]
        for name in runs[0][1]:
            assert np.array_equal(runs[0][1][name], runs[1][1][name]), name
        assert np.array_equal(runs[0][2], runs[1][2])
        assert np.array_equal(runs[0][3], runs[1][3])

    def test_zero_learning_rate_is_noop(self):
        clips, labels = make_clips(4, seed=12)
        model = Model(tiny_config(epochs=1, learning_rate=0.0))
        before = {n: p.data.copy() for n, p in model.parameters()}
        train_model(model, clips, labels)
        for name, p in model.parameters():
            assert np.array_equal(before[name], p.data), name

    def test_different_seeds_differ(self):
        clips, labels = make_clips(6, seed=3)
        a = Model(tiny_config(epochs=2, seed=0))
        b = Model(tiny_config(epochs=2, seed=8))
        ca = train_model(a, clips, labels)
        cb = train_model(b, clips, labels)
        assert ca != cb

    def test_divergence_raises(self):
        clips, labels = make_clips(4, seed=4)
        model = Model(tiny_config(epochs=3, learning_rate=1e-3))
        model.blocks[0].kernel.data[...] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(DivergenceError, match="epoch 0"):
                train_model(model, clips, labels)

    def test_rejects_empty_and_mismatched(self):
        model = Model(tiny_config())
        with pytest.raises(ValueError, match="empty"):
            train_model(model, [], np.zeros((0, 4)))
        clips, _ = make_clips(3)
        with pytest.raises(ValueError, match="labels"):
            train_model(model, clips, np.zeros((3, 2)))

    def test_running_stats_update_during_training(self):
        clips, labels = make_clips(4, seed=5)
        model = Model(tiny_config(epochs=1))
        before = model.blocks[0].running_mean.copy()
        train_model(model, clips, labels)
        assert not np.array_equal(before, model.blocks[0].running_mean)


class TestAuxiliaryRemoval:
    def test_predict_ignores_auxiliary_branches(self):
        clips, labels = make_clips(6, seed=6)
        full = Model(tiny_config(epochs=3, seed=11))
        train_model(full, clips, labels)
        out_full = full.predict(clips[0])

        solo_cfg = tiny_config(branches=("E-ATP",), epochs=3, seed=11)
        solo = Model(solo_cfg)
        for block_solo, block_full in zip(solo.blocks, full.blocks):
            block_solo.kernel.data[...] = block_full.kernel.data
            block_solo.gamma.data[...] = block_full.gamma.data
            block_solo.beta.data[...] = block_full.beta.data
            block_solo.running_mean[...] = block_full.running_mean
            block_solo.running_var[...] = block_full.running_var
        solo.branches[0].classifier.weight.data[...] = full.main_branch.classifier.weight.data
        solo.branches[0].classifier.bias.data[...] = full.main_branch.classifier.bias.data
        solo.branches[0].attention.weights.data[...] = full.main_branch.attention.weights.data
        out_solo = solo.predict(clips[0])

        assert np.array_equal(out_full[0], out_solo[0])
        assert np.array_equal(out_full[1], out_solo[1])


class TestFullModelGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_grad_check_every_parameter(self, seed):
        clips, labels = make_clips(2, t=12, seed=seed)
        batch = np.stack(clips)
        model = Model(tiny_config(seed=seed))

        def loss_fn(_):
            feats = model.encode(batch, train=True)
            losses = [
                ad.reduce_mean(clip_loss(model.branch_clip_probs(feats, b), labels))
                for b in model.branches
            ]
            return total_loss(losses[0], losses[1:])

        for name, p in model.parameters():
            err = ad.grad_check(loss_fn, p)
            assert err <= 1e-4, f"{name}: {err:.3e}"


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        clips, labels = make_clips(4, seed=7)
        model = Model(tiny_config(epochs=2, seed=13))
        train_model(model, clips, labels)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for (name, p), (_, q) in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(p.data, q.data), name
        for (name, b), (_, c) in zip(model.buffers(), loaded.buffers()):
            assert np.array_equal(b, c), name
        a = model.predict(clips[0])
        b = loaded.predict(clips[0])
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_save_is_deterministic(self, tmp_path):
        model = Model(tiny_config())
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_rejects_tampered_digest(self, tmp_path):
        model = Model(tiny_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        # flip one hex digit inside the stored digest
        pos = blob.find(b'"digest"') + 12
        blob[pos] = ord("0") if blob[pos] != ord("0") else ord("1")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)
        # valid JSON that is not a well-formed header; the digest does not
        # cover the parameter manifest
        save_checkpoint(model, path)
        blob = path.read_bytes()
        (size,) = struct.unpack("<I", blob[4:8])
        header = json.loads(blob[8 : 8 + size])
        del header["params"][0]["shape"]
        no_config = {"version": CHECKPOINT_VERSION, "digest": header["digest"]}
        for bad in ([CHECKPOINT_VERSION], no_config, header):
            text = json.dumps(bad).encode()
            path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(text)) + text + blob[8 + size :])
            with pytest.raises(CheckpointError, match="corrupt"):
                load_checkpoint(path)

    def test_rejects_truncated_file(self, tmp_path):
        model = Model(tiny_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        for size in (len(blob) - 100, 5):
            path.write_bytes(blob[:size])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_digest_tracks_config(self):
        a = config_digest(tiny_config(seed=0))
        b = config_digest(tiny_config(seed=1))
        assert a != b
        assert a == config_digest(tiny_config(seed=0))

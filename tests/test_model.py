"""Tests for the multi-branch model, its losses, training, and checkpoints."""

import dataclasses
import hashlib
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

from reference import batch_norm, relu


def tiny_config(branches=("E-ATP", "I-GAP", "I-GMP"), seed=0, epochs=5, **kw):
    """Small enough to train in milliseconds, still two conv blocks deep."""
    specs = tuple(BranchSpec.parse(name) for name in branches)
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


# the acceptance gate's compact encoder
GATE_COMPACT = (
    CnnBlockSpec(2, (1, 1), freq_pool=2, time_pool=4),
    CnnBlockSpec(8, (3, 3), freq_pool=4),
    CnnBlockSpec(16, (3, 3), freq_pool=8),
)


def split_checkpoint(blob: bytes) -> tuple[dict, bytes]:
    """A checkpoint's JSON header and the parameter bytes behind it."""
    (size,) = struct.unpack("<I", blob[4:8])
    return json.loads(blob[8 : 8 + size]), blob[8 + size :]


def join_checkpoint(header, params: bytes) -> bytes:
    text = json.dumps(header).encode()
    return CHECKPOINT_MAGIC + struct.pack("<I", len(text)) + text + params


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
        spec = BranchSpec.parse("E-ATP")
        assert spec.strategy is MilStrategy.EMBEDDING
        assert spec.method is PoolMethod.ATP
        assert spec.label == "E-ATP"
        assert BranchSpec.parse("i-gmp").label == "I-GMP"

    def test_branch_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            BranchSpec.parse("X-ATP")
        with pytest.raises(ValueError):
            BranchSpec.parse("EATP")

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
                branches=(BranchSpec.parse("E-GMP"),),
                attention_scale=4.0,
            )

    def test_block_spec_validation(self):
        with pytest.raises(ValueError):
            CnnBlockSpec(4, freq_pool=0)
        with pytest.raises(ValueError):
            CnnBlockSpec(4, dropout=1.0)

    def test_small_preset_dimensions(self):
        cfg = small_config(10, (BranchSpec.parse("E-ATP"),))
        assert len(cfg.encoder) == 3
        assert cfg.freq_bins_out == 4
        assert cfg.feature_dim == 160
        assert cfg.attention_scale == 64.0

    def test_large_preset_dimensions(self):
        cfg = large_config(10, (BranchSpec.parse("E-ATP"),))
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

    def test_predict_drops_frames_pooling_cannot_tile(self):
        # 365 frames is a 7.3 s clip; the gate's encoder pools time by 4
        model = Model(tiny_config(seed=2, encoder=GATE_COMPACT))
        clip = np.random.default_rng(6).standard_normal((365, 64))
        clip_probs, frame_probs = model.predict(clip)
        assert frame_probs.shape == (91, 4)
        tiled = model.predict(clip[:364])
        assert clip_probs.tobytes() == tiled[0].tobytes()
        assert frame_probs.tobytes() == tiled[1].tobytes()

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
        x = batch_norm(
            x, block.gamma, block.beta, block.running_mean, block.running_var,
            eps=BN_EPS, momentum=BN_MOMENTUM, train=True,
        )
        x = relu(x)
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
        branches = tuple(BranchSpec.parse(name) for name in ("E-ATP", "I-GAP", "I-GMP"))
        if encoder == "small":
            cfg = small_config(4, branches, seed=3)
        elif encoder == "gate_compact":
            cfg = tiny_config(seed=3, encoder=GATE_COMPACT)
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

    def test_joint_gradient_is_weighted_sum_of_branch_gradients(self):
        # total_loss weights each branch as its spec says: the joint gradient
        # is the main branch's plus 0.5 x each auxiliary's, each of those
        # taken from a backward pass of its branch's loss alone
        clips, labels = make_clips(4, seed=9)
        batch = np.stack(clips)

        def branch_losses():
            model = Model(tiny_config(seed=5))
            feats = model.encode(batch, train=True)
            losses = [
                ad.reduce_mean(clip_loss(model.branch_clip_probs(feats, b), labels))
                for b in model.branches
            ]
            return model, losses

        def grads(model):
            params = model.parameters()
            return {n: np.zeros_like(p.data) if p.grad is None else p.grad for n, p in params}

        model, losses = branch_losses()
        weights = [b.spec.loss_weight for b in model.branches]
        assert weights == [1.0, 0.5, 0.5]
        total_loss(losses[0], losses[1:]).backward()
        joint = grads(model)

        want = {n: np.zeros_like(g) for n, g in joint.items()}
        for i, weight in enumerate(weights):
            model, losses = branch_losses()
            losses[i].backward()
            for name, g in grads(model).items():
                want[name] += weight * g
        for name, g in joint.items():
            np.testing.assert_allclose(g, want[name], rtol=1e-12, atol=1e-15, err_msg=name)


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
        header, params = split_checkpoint(path.read_bytes())
        del header["params"][0]["shape"]
        no_config = {"version": CHECKPOINT_VERSION, "digest": header["digest"]}
        for bad in ([CHECKPOINT_VERSION], no_config, header):
            path.write_bytes(join_checkpoint(bad, params))
            with pytest.raises(CheckpointError, match="corrupt"):
                load_checkpoint(path)

    def test_rejects_unknown_config_key(self, tmp_path):
        # the digest is taken over the config as parsed, so a key the parser
        # dropped would leave it matching
        path = tmp_path / "model.ckpt"
        save_checkpoint(Model(tiny_config()), path)
        header, params = split_checkpoint(path.read_bytes())
        for target in (header["config"], header["config"]["encoder"][0]):
            target["stray"] = 1
            path.write_bytes(join_checkpoint(header, params))
            with pytest.raises(CheckpointError, match="corrupt"):
                load_checkpoint(path)
            del target["stray"]

    def test_rejects_branch_weight_off_the_table(self, tmp_path):
        # branch loss weights come from LOSS_WEIGHTS, not from the header: a
        # header that gives another weight fails the digest check even when
        # its digest was taken over that weight
        def digest_over(config: dict) -> str:
            payload = {"version": CHECKPOINT_VERSION, "config": config}
            payload = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(payload.encode()).hexdigest()

        path = tmp_path / "model.ckpt"
        save_checkpoint(Model(tiny_config()), path)
        header, params = split_checkpoint(path.read_bytes())
        assert digest_over(header["config"]) == header["digest"]
        header["config"]["branches"][1]["loss_weight"] = 0.7
        header["digest"] = digest_over(header["config"])
        path.write_bytes(join_checkpoint(header, params))
        with pytest.raises(CheckpointError, match="digest mismatch"):
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

    def test_rejects_deeply_nested_header(self, tmp_path):
        # json.loads recurses once per nesting level
        path = tmp_path / "nested.ckpt"
        text = b"[" * 200_000 + b"]" * 200_000
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(text)) + text)
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)
        # a config value nested shallowly enough to parse, deeply enough that
        # the dict form under the digest cannot be built
        save_checkpoint(Model(tiny_config(num_classes=1)), path)
        header, params = split_checkpoint(path.read_bytes())
        header["config"]["class_labels"] = json.loads("[" * 600 + "]" * 600)
        path.write_bytes(join_checkpoint(header, params))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("encoder", ["small", "gate_compact"])
    def test_same_bytes_at_any_blas_thread_count(self, blas_threads, tmp_path, encoder):
        if encoder == "small":
            branches = tuple(BranchSpec.parse(name) for name in ("E-ATP", "I-GAP", "I-GMP"))
            cfg = dataclasses.replace(small_config(4, branches, seed=3), epochs=1, batch_size=8)
        else:
            cfg = tiny_config(seed=3, epochs=1, encoder=GATE_COMPACT)
        clips, labels = make_clips(8, t=500, seed=4)
        blobs = []
        for threads in (1, 2, 4):
            blas_threads(threads)
            model = Model(cfg)
            train_model(model, clips, labels)
            path = tmp_path / f"threads{threads}.ckpt"
            save_checkpoint(model, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_preset_digests_pinned(self):
        # the digest hashes the config's dict form: a changed key, value or
        # rendering of that form changes these
        branches = tuple(BranchSpec.parse(name) for name in ("E-ATP", "I-GAP", "I-GMP"))
        assert config_digest(small_config(4, branches)) == (
            "e31e0ad8d2e9b9af4470978f2c55e48d3e7b4e420207192bfe53a94dd74ed259"
        )
        assert config_digest(large_config(10, branches, seed=2)) == (
            "c9313bcc3bd4c62ce0e644d37811fa1ac3f1c933ba90abf758c9ed0fcafd645a"
        )

    def test_digest_tracks_config(self):
        a = config_digest(tiny_config(seed=0))
        b = config_digest(tiny_config(seed=1))
        assert a != b
        assert a == config_digest(tiny_config(seed=0))

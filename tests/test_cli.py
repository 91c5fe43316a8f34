"""Command line behaviour: flags, artifacts, error reporting."""

import dataclasses
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mbsed
from mbsed.audio import AudioClip, frame_hop_seconds, write_features, write_wav
from mbsed.cli import main
from mbsed.config import load_run_config
from mbsed.events import read_events_tsv, write_events_tsv
from mbsed.model import CnnBlockSpec, Model, load_checkpoint, save_checkpoint
from mbsed.pipeline import load_dataset, post_config_from_run, predict_events

from test_model import digest_over, join_checkpoint, split_checkpoint
from test_pipeline import tiny_model_config


def tiny_preset(num_classes, branches, seed=0):
    """Drop-in for the small preset so CLI tests stay fast."""
    return dataclasses.replace(
        tiny_model_config(epochs=2, seed=seed), num_classes=num_classes, branches=branches
    )


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    assert run_cli(["synth", "--clips", 4, "--seed", 0, "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def run_config_path(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.ini"
    path.write_text(
        f"[data]\ntrain_dir = {dataset}\ntest_dir = {dataset}\n"
        "[training]\nepochs = 2\nbatch_size = 4\nlearning_rate = 0.01\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    # train a tiny model directly; CLI training uses the full preset
    from mbsed.pipeline import load_dataset, run_training
    from mbsed.config import parse_run_config

    out = tmp_path_factory.mktemp("ckpt")
    run = parse_run_config(f"[data]\ntrain_dir = {dataset}\n[training]\nepochs = 2\n")
    arts = run_training(run, out, model_config=tiny_model_config(epochs=2))
    return arts[0].checkpoint_path


def first_block(key, value):
    def edit(header):
        header["config"]["encoder"][0][key] = value

    return edit


def even_kernel(header):
    """A 2x2 first kernel, in the config and in the parameter manifest."""
    header["config"]["encoder"][0]["kernel"] = [2, 2]
    entry = next(e for e in header["params"] if e["name"] == "blocks.0.kernel")
    entry["shape"][2:] = [2, 2]


# header edits that give a config no model can be built from
BAD_MODEL_CONFIGS = {
    "zero_channels": first_block("out_channels", 0),
    "negative_channels": first_block("out_channels", -2),
    "fractional_channels": first_block("out_channels", 2.5),
    "zero_kernel_side": first_block("kernel", [0, 3]),
    "even_kernel": even_kernel,
    "zero_attention_scale": lambda header: header["config"].update(attention_scale=0),
    "empty_encoder": lambda header: header["config"].update(encoder=[]),
    "negative_classes": lambda header: header["config"].update(num_classes=-1, class_labels=[]),
    "zero_bands": lambda header: header["config"].update(num_bands=0),
    "negative_seed": lambda header: header["config"].update(seed=-1),
}


class TestSynth:
    def test_layout(self, dataset):
        names = sorted(p.name for p in dataset.iterdir())
        assert "manifest.json" in names
        assert "strong.tsv" in names and "weak.tsv" in names
        assert sum(n.endswith(".wav") for n in names) == 4

    def test_zero_clips_message(self, tmp_path, capsys):
        code = run_cli(["synth", "--clips", 0, "--out", tmp_path / "x"])
        assert code == 2
        err = capsys.readouterr().err
        assert "n_clips must be positive" in err

    def test_negative_clips_message(self, tmp_path, capsys):
        assert run_cli(["synth", "--clips", -3, "--out", tmp_path / "x"]) == 2
        assert "n_clips must be positive" in capsys.readouterr().err

    def test_negative_seed_message(self, tmp_path, capsys):
        assert run_cli(["synth", "--clips", 2, "--seed", -1, "--out", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed must be non-negative" in err
        assert "Traceback" not in err

    def test_deterministic(self, dataset, tmp_path):
        again = tmp_path / "again"
        assert run_cli(["synth", "--clips", 4, "--seed", 0, "--out", again]) == 0
        for wav in sorted(dataset.glob("*.wav")):
            assert (again / wav.name).read_bytes() == wav.read_bytes()


class TestTrain:
    def test_repeats_write_seed_suffixed_checkpoints(
        self, run_config_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("mbsed.pipeline.small_config", tiny_preset)
        out = tmp_path / "run"
        code = run_cli([
            "train", "--config", run_config_path, "--seed", 5, "--repeats", 3, "--out", out,
        ])
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        for seed in (5, 6, 7):
            assert f"model_seed{seed}.ckpt" in names
            assert f"loss_seed{seed}.csv" in names
        assert "config_resolved.ini" in names
        stdout = capsys.readouterr().out
        assert "seed 5" in stdout and "seed 7" in stdout

    @pytest.mark.parametrize(
        "preset, clips, epochs, batch",
        [("small", 4, 2, 4), ("large", 2, 1, 2)],
        ids=["small", "large"],
    )
    def test_same_checkpoint_at_any_blas_thread_count(
        self, tmp_path, preset, clips, epochs, batch
    ):
        # WAVs to log-mel features to a preset's training, without the
        # feature cache, in a fresh process at one and at two BLAS threads
        data = tmp_path / "data"
        assert run_cli(["synth", "--clips", clips, "--seed", 3, "--out", data]) == 0
        config = tmp_path / "run.ini"
        config.write_text(
            f"[data]\ntrain_dir = {data}\ncache_features = false\n"
            f"[model]\npreset = {preset}\n"
            f"[training]\nepochs = {epochs}\nbatch_size = {batch}\n",
            encoding="utf-8",
        )
        src = Path(mbsed.__file__).resolve().parent.parent
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(src)}
            args = ["-m", "mbsed.cli", "train", "--config", config, "--out", out]
            proc = subprocess.run(
                [sys.executable, *map(str, args)], env=env, capture_output=True, text=True,
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append((out / "model_seed0.ckpt").read_bytes())
        assert not (data / "features").exists()
        assert blobs[0] == blobs[1]

    def test_empty_training_set(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "weak.tsv").write_text("", encoding="utf-8")
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\ntrain_dir = {empty}\n", encoding="utf-8")
        assert run_cli(["train", "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"training set {empty / 'weak.tsv'} lists no clips" in err

    def test_missing_train_dir(self, tmp_path, capsys):
        cfg = tmp_path / "none.ini"
        cfg.write_text("[training]\nepochs = 1\n", encoding="utf-8")
        assert run_cli(["train", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "train_dir" in capsys.readouterr().err

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[training]\nepoch = 1\n", encoding="utf-8")
        assert run_cli(["train", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_non_utf8_config(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.ini"
        cfg.write_bytes(b"[data]\ntrain_dir = /caf\xe9\n")
        assert run_cli(["train", "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


    def test_sample_rate_out_of_range(self, dataset, tmp_path, capsys):
        # each of these rates once made train die with a ZeroDivisionError
        cfg = tmp_path / "rate.ini"
        for rate in (0, -5, 1):
            cfg.write_text(f"[data]\ntrain_dir = {dataset}\nsample_rate = {rate}\n")
            assert run_cli(["train", "--config", cfg, "--out", tmp_path / "o"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "sample_rate" in err and "Traceback" not in err

    def test_clips_of_different_lengths(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli(["synth", "--clips", 2, "--clip-seconds", 5, "--out", data]) == 0
        write_wav(data / "clip_0001.wav", AudioClip(np.zeros(7 * 22050), 22050))
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\ntrain_dir = {data}\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli(["train", "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "clip_0001 has 350 frames" in err and "clip_0000 has 250" in err

    def test_corrupt_feature_cache(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli(["synth", "--clips", 2, "--clip-seconds", 5, "--out", data]) == 0
        cache = data / "features" / "22050" / "clip_0000.mel"
        load_dataset(data, cache=True)
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\ntrain_dir = {data}\n", encoding="utf-8")

        def train_error():
            capsys.readouterr()
            assert run_cli(["train", "--config", cfg, "--out", tmp_path / "o"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            return err

        # files whose stamp names the clip's WAV and this frontend, so they
        # are read, not recomputed
        blob = bytearray(cache.read_bytes())
        stamp = bytes(blob[:64])
        blob[68:72] = (32).to_bytes(4, "little")  # header (250, 64) now claims (250, 32)
        cache.write_bytes(bytes(blob))
        assert "clip_0000.mel: feature cache longer than header claims" in train_error()
        write_features(cache, np.zeros((250, 32)), stamp)  # well formed, but 32 bands
        assert "clip_0000.mel: 32 bands, expected 64" in train_error()
        for path in cache.parent.glob("*.mel"):
            path.write_bytes(path.read_bytes()[:64] + struct.pack("<II", 0, 64))  # no frames
        assert "clip_0000.mel: feature cache header claims an empty 0x64 matrix" in train_error()


class TestPredict:
    def test_outputs(self, checkpoint, dataset, tmp_path, capsys):
        out = tmp_path / "pred" / "events.tsv"
        code = run_cli([
            "predict", "--checkpoint", checkpoint, "--audio", dataset, "--out", out,
        ])
        assert code == 0
        assert out.exists()
        tags = out.with_suffix(".tags.tsv")
        assert tags.exists()
        assert len(tags.read_text().splitlines()) == 4 * 4  # clips x classes
        events = read_events_tsv(out)
        keys = [(e.clip_id, e.onset) for e in events]
        assert keys == sorted(keys)
        stdout = capsys.readouterr().out
        assert "events:" in stdout and "clip tags:" in stdout

    def test_config_post_processes_as_ablate(self, tmp_path):
        # the small preset, trained briefly with the clip gate off: adaptive
        # windows from the training labels decide which events survive
        train, test = tmp_path / "train", tmp_path / "test"
        for out, clips, seed in ((train, 8, 1), (test, 4, 2)):
            assert run_cli([
                "synth", "--clips", clips, "--clip-seconds", 5, "--seed", seed, "--out", out,
            ]) == 0
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            f"[data]\ntrain_dir = {train}\n"
            "[training]\nepochs = 3\nbatch_size = 4\nlearning_rate = 0.01\n"
            "[postprocess]\ntag_threshold = 0\n",
            encoding="utf-8",
        )
        assert run_cli(["train", "--config", cfg, "--out", tmp_path / "run"]) == 0
        ckpt = tmp_path / "run" / "model_seed0.ckpt"
        out = tmp_path / "events.tsv"
        assert run_cli([
            "predict", "--checkpoint", ckpt, "--audio", test, "--config", cfg, "--out", out,
        ]) == 0

        # the events ablate scores: windows at the pooled hop from train/strong.tsv
        model = load_checkpoint(ckpt)
        post = post_config_from_run(
            load_run_config(cfg), read_events_tsv(train / "strong.tsv"),
            frame_hop_seconds(22050) * model.config.time_pool_total,
        )
        test_set = load_dataset(test, cache=False)
        expected = []
        for clip_id, feats in zip(test_set.clip_ids, test_set.features):
            expected += predict_events(model, feats, clip_id, test_set.hop_seconds, post)[1]
        write_events_tsv(tmp_path / "expected.tsv", expected)
        assert out.read_bytes() == (tmp_path / "expected.tsv").read_bytes()

    def test_digest_mismatch_refused(self, checkpoint, dataset, tmp_path, capsys):
        # flip one config byte inside the header; loading must refuse
        blob = bytearray(checkpoint.read_bytes())
        at = blob.find(b'"attention_scale"')
        assert at != -1
        digit = blob.index(b":", at) + 2
        blob[digit] = blob[digit] ^ 1
        tampered = tmp_path / "tampered.ckpt"
        tampered.write_bytes(bytes(blob))
        code = run_cli([
            "predict", "--checkpoint", tampered, "--audio", dataset,
            "--out", tmp_path / "e.tsv",
        ])
        assert code == 2
        assert "digest mismatch" in capsys.readouterr().err

    def test_truncated_checkpoint_refused(self, checkpoint, dataset, tmp_path, capsys):
        short = tmp_path / "short.ckpt"
        short.write_bytes(checkpoint.read_bytes()[:5])
        code = run_cli([
            "predict", "--checkpoint", short, "--audio", dataset, "--out", tmp_path / "e.tsv",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_deeply_nested_header_refused(self, dataset, tmp_path, capsys):
        from mbsed.model import CHECKPOINT_MAGIC

        text = b"[" * 200_000 + b"]" * 200_000
        nested = tmp_path / "nested.ckpt"
        nested.write_bytes(CHECKPOINT_MAGIC + len(text).to_bytes(4, "little") + text)
        code = run_cli([
            "predict", "--checkpoint", nested, "--audio", dataset, "--out", tmp_path / "e.tsv",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_wav_shorter_than_one_hop(self, checkpoint, tmp_path, capsys):
        audio = tmp_path / "audio"
        audio.mkdir()
        write_wav(audio / "blip.wav", AudioClip(np.zeros(100), 22050))
        code = run_cli([
            "predict", "--checkpoint", checkpoint, "--audio", audio, "--out", tmp_path / "e.tsv",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "blip.wav" in err and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(BAD_MODEL_CONFIGS))
    def test_bad_model_config_refused(self, checkpoint, dataset, tmp_path, capsys, case):
        # the digest is taken over the edited config, so only the config's
        # own checks can refuse it
        header, params = split_checkpoint(checkpoint.read_bytes())
        BAD_MODEL_CONFIGS[case](header)
        header["digest"] = digest_over(header["config"])
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(join_checkpoint(header, params))
        code = run_cli([
            "predict", "--checkpoint", bad, "--audio", dataset, "--out", tmp_path / "e.tsv",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "corrupt header" in err and "Traceback" not in err

    @pytest.mark.parametrize("name, value", [
        ("blocks.0.kernel", np.nan),
        ("branches.0.classifier.weight", np.inf),
        ("blocks.0.running_var", -1.0),
    ], ids=["nan_weight", "inf_weight", "negative_running_var"])
    def test_bad_value_refused(self, checkpoint, dataset, tmp_path, capsys, name, value):
        # the digest covers the config alone: these bytes pass it
        header, params = split_checkpoint(checkpoint.read_bytes())
        (offset,) = [e["offset"] for e in header["params"] if e["name"] == name]
        params = bytearray(params)
        params[offset : offset + 8] = struct.pack("<d", value)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(join_checkpoint(header, bytes(params)))
        code = run_cli([
            "predict", "--checkpoint", bad, "--audio", dataset, "--out", tmp_path / "e.tsv",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "Traceback" not in err

    def test_wav_shorter_than_time_pooling(self, tmp_path, capsys):
        pooled = dataclasses.replace(tiny_model_config(), encoder=(
            CnnBlockSpec(4, (3, 3), freq_pool=8, time_pool=4),
            CnnBlockSpec(8, (3, 3), freq_pool=8, time_pool=4),
        ))
        ckpt = tmp_path / "pooled.ckpt"
        save_checkpoint(Model(pooled), ckpt)
        audio = tmp_path / "audio"
        audio.mkdir()
        # 0.1 s is 5 frames, fewer than the 16 that time pooling needs
        write_wav(audio / "blip.wav", AudioClip(np.zeros(2205), 22050))
        code = run_cli([
            "predict", "--checkpoint", ckpt, "--audio", audio, "--out", tmp_path / "e.tsv",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: clip blip: 5 frames") and "Traceback" not in err

    def test_missing_audio_dir(self, checkpoint, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = run_cli([
            "predict", "--checkpoint", checkpoint, "--audio", empty,
            "--out", tmp_path / "e.tsv",
        ])
        assert code == 2
        assert "no .wav files" in capsys.readouterr().err


class TestEvaluate:
    def test_echoes_collar_values(self, dataset, capsys):
        refs = dataset / "strong.tsv"
        code = run_cli([
            "evaluate", "--refs", refs, "--preds", refs, "--protocol", "both",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "onset collar 0.200 s" in out
        assert "offset tolerance max(0.200 s, 20% of event duration)" in out
        assert "segment length 1.000 s" in out
        assert out.count("macro_f1\t1.000000") == 2

    def test_protocol_flag_overrides(self, dataset, capsys):
        refs = dataset / "strong.tsv"
        assert run_cli(["evaluate", "--refs", refs, "--preds", refs,
                        "--protocol", "event"]) == 0
        out = capsys.readouterr().out
        assert "protocol: event" in out
        assert "protocol: segment" not in out

    def test_missing_refs_file(self, dataset, tmp_path, capsys):
        code = run_cli([
            "evaluate", "--refs", tmp_path / "absent.tsv", "--preds", dataset / "strong.tsv",
        ])
        assert code == 2

    def test_non_utf8_refs(self, dataset, tmp_path, capsys):
        refs = tmp_path / "latin1.tsv"
        refs.write_bytes(b"clip_0000\t0.0\t1.0\tcaf\xe9\n")
        code = run_cli(["evaluate", "--refs", refs, "--preds", dataset / "strong.tsv"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestAblate:
    def test_table_on_stdout(self, run_config_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("mbsed.pipeline.ABLATION_ROWS", [("E-GMP",), ("E-GMP", "I-GAP")])
        monkeypatch.setattr("mbsed.pipeline.small_config", tiny_preset)
        out = tmp_path / "abl"
        code = run_cli([
            "ablate", "--config", run_config_path, "--repeats", 2, "--out", out,
        ])
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("| Branches | Average segment F1 | Best segment F1 |")
        assert any(line.startswith("| E-GMP + I-GAP |") for line in lines)
        assert (out / "ablation.md").read_text(encoding="utf-8").splitlines()[0] == lines[0]
        # progress goes to stderr, one line per run
        assert captured.err.count("[") >= 4

    def test_empty_training_set(self, dataset, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "weak.tsv").write_text("", encoding="utf-8")
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\ntrain_dir = {empty}\ntest_dir = {dataset}\n", encoding="utf-8")
        code = run_cli(["ablate", "--config", cfg, "--repeats", 2, "--out", tmp_path / "a"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "lists no clips" in err

    def test_needs_repeats(self, run_config_path, tmp_path, capsys):
        code = run_cli(["ablate", "--config", run_config_path, "--out", tmp_path / "a"])
        assert code == 2
        assert "repeats" in capsys.readouterr().err


class TestParser:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(["frobnicate"])

    def test_entry_point_importable(self):
        from mbsed.cli import main as entry
        assert callable(entry)

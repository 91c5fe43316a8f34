"""Command line behaviour: flags, artifacts, error reporting."""

import dataclasses

import numpy as np
import pytest

from mbsed.audio import AudioClip, write_wav
from mbsed.cli import main
from mbsed.events import read_events_tsv

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

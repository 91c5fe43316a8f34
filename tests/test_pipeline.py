"""End-to-end pipeline tests on a miniature synthesized dataset.

The model used here is deliberately tiny so the full synthesize, train,
predict, evaluate loop stays fast.
"""

import copy
import dataclasses
import shutil
import struct
import sys
import threading

import numpy as np
import pytest

from mbsed import autodiff as ad
from mbsed import blas, pipeline
from mbsed.audio import (
    AudioIOError,
    feature_stamp,
    frame_hop_seconds,
    load_audio,
    logmel,
    read_features,
)
from mbsed.config import RunConfig, parse_branches, parse_run_config
from mbsed.events import EventAnnotation, read_events_tsv
from mbsed.metrics import segment_based_f1
from mbsed.model import CnnBlockSpec, Model, ModelConfig, save_checkpoint, train_model
from mbsed.pipeline import (
    ABLATION_ROWS,
    PipelineError,
    format_ablation_table,
    load_dataset,
    model_post_config,
    post_config_from_run,
    predict_events,
    run_ablation,
    run_evaluation,
    run_prediction,
    run_training,
    worker_count,
)
from mbsed.postprocess import PostConfig, adaptive_window
from mbsed.synth import SynthConfig, generate_dataset

from test_blas import openblas_threads

N_TRAIN = 6
N_TEST = 3


def tiny_model_config(branches=("E-ATP", "I-GAP", "I-GMP"), epochs=3, seed=0):
    return ModelConfig(
        encoder=(
            CnnBlockSpec(4, (3, 3), freq_pool=8),
            CnnBlockSpec(8, (3, 3), freq_pool=8),
        ),
        num_classes=4,
        branches=parse_branches(branches),
        attention_scale=8.0,
        learning_rate=1e-2,
        batch_size=4,
        epochs=epochs,
        seed=seed,
    )


def compact_model_config():
    """The gate's compact encoder, which pools time by 4, at tiny_model_config's settings."""
    return dataclasses.replace(
        tiny_model_config(),
        encoder=(
            CnnBlockSpec(2, (1, 1), freq_pool=2, time_pool=4),
            CnnBlockSpec(8, (3, 3), freq_pool=4),
            CnnBlockSpec(16, (3, 3), freq_pool=8),
        ),
        class_labels=("burst", "chirp", "tone", "warble"),
    )


@pytest.fixture(scope="module")
def data_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    train = root / "train"
    test = root / "test"
    generate_dataset(SynthConfig(n_clips=N_TRAIN, seed=0), train)
    generate_dataset(SynthConfig(n_clips=N_TEST, seed=100), test)
    return train, test


@pytest.fixture(scope="module")
def long_clip_dirs(tmp_path_factory):
    """12 s clips, so reference events can end after 10 s."""
    root = tmp_path_factory.mktemp("long")
    generate_dataset(SynthConfig(n_clips=N_TRAIN, clip_seconds=12.0, seed=0), root / "train")
    generate_dataset(SynthConfig(n_clips=N_TEST, clip_seconds=12.0, seed=100), root / "test")
    return root / "train", root / "test"


def make_run(train_dir, test_dir, **training):
    text = f"[data]\ntrain_dir = {train_dir}\ntest_dir = {test_dir}\n"
    run = parse_run_config(text)
    for key, value in training.items():
        setattr(run.training, key, value)
    return run


@pytest.fixture(scope="module")
def trained(data_dirs, tmp_path_factory):
    train, test = data_dirs
    out = tmp_path_factory.mktemp("run")
    run = make_run(train, test, epochs=3, repeats=1)
    artifacts = run_training(run, out, model_config=tiny_model_config())
    return run, out, artifacts


class TestLoadDataset:
    def test_basics(self, data_dirs):
        train, _ = data_dirs
        ds = load_dataset(train)
        assert ds.clip_ids == [f"clip_{i:04d}" for i in range(N_TRAIN)]
        assert ds.class_labels == ["burst", "chirp", "tone", "warble"]
        assert ds.labels.shape == (N_TRAIN, 4)
        assert set(np.unique(ds.labels)) <= {0.0, 1.0}
        assert ds.hop_seconds == pytest.approx(0.02)
        for feats in ds.features:
            assert feats.shape == (500, 64)

    def test_explicit_class_order(self, data_dirs):
        train, _ = data_dirs
        order = ["warble", "tone", "chirp", "burst"]
        ds = load_dataset(train, class_labels=order)
        base = load_dataset(train)
        assert ds.class_labels == order
        np.testing.assert_array_equal(ds.labels, base.labels[:, ::-1])

    def test_unknown_label_rejected(self, data_dirs):
        train, _ = data_dirs
        with pytest.raises(PipelineError, match="outside the class list"):
            load_dataset(train, class_labels=["tone"])

    def test_missing_weak_file(self, tmp_path):
        with pytest.raises(PipelineError, match="missing weak label"):
            load_dataset(tmp_path)

    def test_cache_survives_wav_removal(self, tmp_path):
        dataset = tmp_path / "tiny"
        generate_dataset(SynthConfig(n_clips=2, seed=5), dataset)
        first = load_dataset(dataset, cache=True)
        assert sorted(p.name for p in (dataset / "features" / "22050").iterdir()) == [
            "clip_0000.mel",
            "clip_0001.mel",
        ]
        for wav in dataset.glob("*.wav"):
            wav.unlink()
        second = load_dataset(dataset, cache=True)
        for a, b in zip(first.features, second.features):
            np.testing.assert_array_equal(a, b)
        with pytest.raises(PipelineError, match="missing audio"):
            load_dataset(dataset, cache=False)


    def test_cache_follows_resynthesized_wavs(self, tmp_path):
        # new WAVs written over the old ones in the same directory: the
        # cache is recomputed, not served as the old clips' features
        dataset = tmp_path / "tiny"
        generate_dataset(SynthConfig(n_clips=4, seed=1), dataset)
        old = load_dataset(dataset, cache=True)
        generate_dataset(SynthConfig(n_clips=4, seed=2), dataset)
        new = load_dataset(dataset, cache=True)
        fresh = load_dataset(dataset, cache=False)
        for clip_id, a, b, c in zip(new.clip_ids, old.features, new.features, fresh.features):
            wav = dataset / f"{clip_id}.wav"
            want = logmel(load_audio(wav)).features
            assert np.array_equal(b, want) and np.array_equal(c, want)
            assert not np.array_equal(a, want)
            # rewritten under the new WAV's stamp
            cached = dataset / "features" / "22050" / f"{clip_id}.mel"
            assert np.array_equal(read_features(cached, feature_stamp(22050, wav)), want)

    def test_headerless_cache_file_recomputed(self, tmp_path):
        # a file in the format before cache files carried a stamp (uint32 T
        # and F, then the values) is recomputed and rewritten, not read
        dataset = tmp_path / "tiny"
        generate_dataset(SynthConfig(n_clips=2, seed=5), dataset)
        want = load_dataset(dataset, cache=False).features[0]
        path = dataset / "features" / "22050" / "clip_0000.mel"
        path.parent.mkdir(parents=True)
        path.write_bytes(struct.pack("<II", *want.shape) + np.zeros(want.shape).tobytes())
        got = load_dataset(dataset, cache=True).features[0]
        assert np.array_equal(got, want)
        stamp = feature_stamp(22050, dataset / "clip_0000.wav")
        assert path.read_bytes()[:64] == stamp
        assert np.array_equal(read_features(path, stamp), want)

    def test_cache_keyed_by_rate(self, tmp_path):
        # features cached at one rate are not served at another
        dataset = tmp_path / "tiny"
        generate_dataset(SynthConfig(n_clips=2, seed=5), dataset)
        for rate in (22050, 16000):
            cached = load_dataset(dataset, rate=rate, cache=True)
            again = load_dataset(dataset, rate=rate, cache=True)
            fresh = load_dataset(dataset, rate=rate, cache=False)
            for a, b, c in zip(cached.features, again.features, fresh.features):
                np.testing.assert_array_equal(a, c)
                np.testing.assert_array_equal(b, c)
        assert sorted(p.name for p in (dataset / "features").iterdir()) == ["16000", "22050"]

    def test_same_bytes_at_any_blas_thread_count(self, data_dirs, blas_threads):
        # log-mel's filterbank product gives the same bits at any BLAS
        # thread count, so features do not depend on where they were made
        train, _ = data_dirs
        blobs = []
        for threads in (1, 2):
            blas_threads(threads)
            ds = load_dataset(train, cache=False)
            blobs.append(b"".join(feats.tobytes() for feats in ds.features))
        assert blobs[0] == blobs[1]


class TestTraining:
    def test_artifacts(self, data_dirs, tmp_path):
        train, test = data_dirs
        run = make_run(train, test, epochs=2, repeats=2, seed=7)
        arts = run_training(run, tmp_path, model_config=tiny_model_config(epochs=2))
        assert [a.seed for a in arts] == [7, 8]
        assert [a.checkpoint_path.name for a in arts] == [
            "model_seed7.ckpt",
            "model_seed8.ckpt",
        ]
        for art in arts:
            assert art.checkpoint_path.exists()
            lines = art.loss_path.read_text().splitlines()
            assert lines[0] == "epoch,loss"
            assert len(lines) == 1 + 2  # header + one row per epoch
            assert np.isfinite(art.final_loss)
        # different seeds give different weights
        blobs = [a.checkpoint_path.read_bytes() for a in arts]
        assert blobs[0] != blobs[1]

    def test_resolved_config_written(self, trained):
        run, out, _ = trained
        text = (out / "config_resolved.ini").read_text(encoding="utf-8")
        assert parse_run_config(text) == run

    def test_deterministic_checkpoints(self, data_dirs, tmp_path):
        train, test = data_dirs
        run = make_run(train, test, epochs=2, repeats=1)
        a = run_training(run, tmp_path / "a", model_config=tiny_model_config(epochs=2))
        b = run_training(run, tmp_path / "b", model_config=tiny_model_config(epochs=2))
        assert a[0].checkpoint_path.read_bytes() == b[0].checkpoint_path.read_bytes()


class TestPrediction:
    def test_outputs(self, trained, data_dirs, tmp_path):
        _, _, arts = trained
        _, test = data_dirs
        events_path, tags_path = run_prediction(
            arts[0].checkpoint_path, test, tmp_path / "pred" / "events.tsv"
        )
        assert events_path.exists() and tags_path.exists()
        tag_lines = tags_path.read_text().splitlines()
        assert len(tag_lines) == N_TEST * 4
        for line in tag_lines:
            clip_id, label, prob = line.split("\t")
            assert clip_id.startswith("clip_")
            assert label in ("burst", "chirp", "tone", "warble")
            assert 0.0 <= float(prob) <= 1.0
        events = read_events_tsv(events_path)
        keys = [(e.clip_id, e.onset) for e in events]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_same_bytes_as_a_serial_loop(
        self, trained, data_dirs, tmp_path, monkeypatch, blas_threads, threads
    ):
        # the test set has N_TEST = 3 clips, so 4 threads are more than clips;
        # a short switch interval makes the clip threads interleave often
        _, _, arts = trained
        _, test = data_dirs
        ckpt = arts[0].checkpoint_path
        blas_threads(threads)
        seen = []  # (thread name, OpenBLAS's own thread count) of each clip
        predict = pipeline.predict_events

        def spy(*args):
            seen.append((threading.current_thread().name, openblas_threads()))
            return predict(*args)

        monkeypatch.setattr(pipeline, "predict_events", spy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            concurrent = run_prediction(ckpt, test, tmp_path / "concurrent" / "events.tsv")
        finally:
            sys.setswitchinterval(interval)
        assert blas.threads() == threads
        assert len(seen) == N_TEST and all(count == 1 for _, count in seen)
        names = {name for name, _ in seen}
        if threads == 1:
            assert names == {threading.current_thread().name}
        else:
            assert all(name.startswith("mbsed-clip") for name in names)
            assert len(names) <= min(threads, N_TEST)

        monkeypatch.setattr(pipeline, "map_clips", lambda fn, items: [fn(i) for i in items])
        serial = run_prediction(ckpt, test, tmp_path / "serial" / "events.tsv")
        for a, b in zip(concurrent, serial):
            assert a.read_bytes() == b.read_bytes()

    def test_first_bad_clip_in_sorted_order_raises(
        self, trained, data_dirs, tmp_path, blas_threads
    ):
        _, _, arts = trained
        _, test = data_dirs
        audio = tmp_path / "audio"
        audio.mkdir()
        for wav in test.glob("*.wav"):
            shutil.copy(wav, audio / wav.name)
        (audio / "clip_0001.wav").write_bytes(b"not a wav file")
        (audio / "clip_0002.wav").write_bytes(b"RIFF")
        for threads in (1, 2, 4):
            blas_threads(threads)
            with pytest.raises(AudioIOError, match="clip_0001.wav"):
                run_prediction(arts[0].checkpoint_path, audio, tmp_path / "e.tsv")
            assert blas.threads() == threads

    def test_training_records_after_prediction(self, trained, data_dirs, tmp_path, blas_threads):
        # inference switches recording off on its clip threads only
        _, _, arts = trained
        train, test = data_dirs
        blas_threads(2)
        run_prediction(arts[0].checkpoint_path, test, tmp_path / "events.tsv")
        ds = load_dataset(train)
        model = Model(tiny_model_config(epochs=1))
        before = [t.data.copy() for _, t in model.parameters()]
        # backward on an empty tape would raise
        train_model(model, ds.features[:4], ds.labels[:4])
        after = [t.data for _, t in model.parameters()]
        assert not all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_clip_length_pooling_cannot_tile(self, tmp_path):
        # 7.3 s clips have 365 frames; the gate's compact encoder pools time by 4
        audio = tmp_path / "audio"
        generate_dataset(SynthConfig(n_clips=2, clip_seconds=7.3, seed=5), audio)
        assert load_dataset(audio, cache=False).features[0].shape == (365, 64)
        ckpt = tmp_path / "compact.ckpt"
        save_checkpoint(Model(compact_model_config()), ckpt)
        # a threshold below every probability and no clip gate: one event per class and clip
        events_path, tags_path = run_prediction(
            ckpt, audio, tmp_path / "events.tsv", PostConfig(threshold=1e-9, tag_threshold=0.0)
        )
        events = read_events_tsv(events_path)
        assert len(events) == 2 * 4
        assert all(e.onset == 0.0 and e.offset == pytest.approx(91 * 4 * 0.02) for e in events)
        assert len(tags_path.read_text().splitlines()) == 2 * 4

    def test_empty_dir_rejected(self, trained, tmp_path):
        _, _, arts = trained
        with pytest.raises(PipelineError, match="no .wav files"):
            run_prediction(arts[0].checkpoint_path, tmp_path, tmp_path / "e.tsv")

    def test_label_fallback_without_names(self, trained, data_dirs):
        # a model trained without class label metadata still predicts
        _, test = data_dirs
        cfg = tiny_model_config(epochs=1)
        from mbsed.model import Model

        model = Model(cfg)
        ds = load_dataset(test)
        from mbsed.postprocess import PostConfig

        probs, events = predict_events(
            model, ds.features[0], "clip_0000", ds.hop_seconds, PostConfig()
        )
        assert probs.shape == (4,)
        for e in events:
            assert e.label.startswith("class_")

    def test_clip_gate_suppresses_rejected_classes(self, data_dirs):
        # a gate above every clip probability silences the detector entirely
        from mbsed.model import Model
        from mbsed.postprocess import PostConfig

        _, test = data_dirs
        ds = load_dataset(test)
        model = Model(tiny_model_config(epochs=1))
        clip_probs, _ = model.predict(ds.features[0])
        high = float(min(0.99, clip_probs.max() + 0.001))
        _, gated = predict_events(
            model, ds.features[0], "c", ds.hop_seconds, PostConfig(tag_threshold=high)
        )
        assert gated == []
        _, open_gate = predict_events(
            model, ds.features[0], "c", ds.hop_seconds,
            PostConfig(threshold=0.05, tag_threshold=0.0),
        )
        kept = {e.label for e in open_gate}
        _, default_gate = predict_events(
            model, ds.features[0], "c", ds.hop_seconds, PostConfig(threshold=0.05)
        )
        # the default gate only keeps classes tagged above 0.5
        allowed = {
            label for label, p in zip(model.config.class_labels or
            [f"class_{i}" for i in range(4)], clip_probs) if p > 0.5
        }
        assert {e.label for e in default_gate} <= allowed
        assert {e.label for e in default_gate} <= kept


class TestEvaluation:
    def test_perfect_predictions(self, data_dirs, trained, tmp_path):
        _, test = data_dirs
        run, _, _ = trained
        run = copy.deepcopy(run)  # sections are mutable, do not touch the fixture
        run.eval.protocol = "both"
        reports = run_evaluation(test / "strong.tsv", test / "strong.tsv", run)
        assert set(reports) == {"event", "segment"}
        assert reports["event"].macro_f1 == pytest.approx(1.0)
        assert reports["segment"].macro_f1 == pytest.approx(1.0)

    def test_single_protocol(self, data_dirs, trained):
        _, test = data_dirs
        run, _, _ = trained
        reports = run_evaluation(test / "strong.tsv", test / "strong.tsv", run)
        assert set(reports) == {"segment"}


class TestPostConfigFromRun:
    def test_adaptive_windows_from_durations(self):
        run = RunConfig()
        refs = [
            EventAnnotation("c", "tone", 0.0, 1.62),
            EventAnnotation("c", "tone", 2.0, 3.62),
            EventAnnotation("c", "chirp", 0.0, 0.1),
        ]
        post = post_config_from_run(run, refs, hop=0.02)
        # median tone duration 1.62 s over 0.02 s hops, a third of 81 frames
        assert post.window_for("tone") == 27
        assert post.window_for("chirp") == 3  # clamped low
        assert post.window_for("unseen") == post.default_window

    def test_fixed_window(self):
        run = parse_run_config("[postprocess]\nwindow = 11\nthreshold = 0.3\n")
        post = post_config_from_run(run, None, hop=0.02)
        assert post.window_for("anything") == 11
        assert post.threshold == 0.3

    def test_tag_threshold_carried(self):
        run = parse_run_config("[postprocess]\ntag_threshold = 0.8\n")
        assert post_config_from_run(run, None, hop=0.02).tag_threshold == 0.8
        run = parse_run_config("[postprocess]\ntag_threshold = 0.8\nwindow = 5\n")
        assert post_config_from_run(run, None, hop=0.02).tag_threshold == 0.8


class TestModelPostConfig:
    def test_windows_at_the_pooled_hop(self, data_dirs):
        train, test = data_dirs
        refs = read_events_tsv(train / "strong.tsv")
        post = model_post_config(make_run(train, test), compact_model_config())
        hop = 4 * frame_hop_seconds(22050)
        durations = {e.label: [d.duration for d in refs if d.label == e.label] for e in refs}
        assert post.median_windows == {
            label: adaptive_window(float(np.median(durs)), hop) for label, durs in durations.items()
        }
        assert post.median_windows != model_post_config(
            make_run(train, test), tiny_model_config()
        ).median_windows

    def test_fixed_window_or_no_train_labels(self, data_dirs):
        train, test = data_dirs
        run = parse_run_config("[postprocess]\nwindow = 9\n")
        run.data.train_dir = str(train)
        assert model_post_config(run, tiny_model_config()).median_windows == {}
        assert model_post_config(run, tiny_model_config()).default_window == 9
        post = model_post_config(RunConfig(), tiny_model_config())
        assert post.median_windows == {} and post.default_window == 27


class TestWorkerCount:
    def test_default(self, monkeypatch):
        # one worker per CPU when MBSED_WORKERS is unset
        monkeypatch.delenv("MBSED_WORKERS", raising=False)
        monkeypatch.setattr(pipeline, "cpu_count", lambda: 3)
        assert worker_count() == 3

    def test_explicit(self, monkeypatch):
        monkeypatch.setenv("MBSED_WORKERS", "3")
        assert worker_count() == 3

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("MBSED_WORKERS", "many")
        with pytest.raises(PipelineError, match="integer"):
            worker_count()
        monkeypatch.setenv("MBSED_WORKERS", "0")
        with pytest.raises(PipelineError, match="at least 1"):
            worker_count()


def report_blas_threads(job):
    """Stands in for an ablation job in a pool worker: mbsed's thread count
    there, or minus OpenBLAS's own count where that is not 1."""
    openblas = openblas_threads()
    return float(blas.threads()) if openblas == 1 else -float(openblas)


class TestAblation:
    def test_rows_and_table(self, data_dirs, tmp_path):
        train, test = data_dirs
        run = make_run(train, test, epochs=2, repeats=2)
        rows = [("E-ATP",), ("E-ATP", "I-GMP")]
        results = run_ablation(run, rows=rows, model_config=tiny_model_config(epochs=2))
        assert [r.branches for r in results] == rows
        for row in results:
            assert len(row.scores) == 2
            assert 0.0 <= row.mean <= 1.0
            assert row.best == max(row.scores)
            assert row.std == pytest.approx(np.std(row.scores, ddof=1))
        table = format_ablation_table(results, "segment")
        lines = table.splitlines()
        assert lines[0].startswith("| Branches ")
        assert lines[1].startswith("| ---")
        assert lines[2].startswith("| E-ATP |")
        assert "E-ATP + I-GMP" in lines[3]
        # three-decimal cells
        import re

        assert re.search(r"\| \d\.\d{3} \+- \d\.\d{3} \| \d\.\d{3} \|", lines[2])

    def test_one_and_two_workers_score_alike(self, data_dirs, monkeypatch):
        train, test = data_dirs
        run = make_run(train, test, repeats=2)
        rows = [("E-ATP",), ("E-GMP", "I-GAP")]
        scores, logs = {}, {}
        for workers in ("1", "2"):
            monkeypatch.setenv("MBSED_WORKERS", workers)
            logs[workers] = []
            results = run_ablation(
                run, rows=rows, model_config=tiny_model_config(epochs=2),
                log_fn=lambda *call, log=logs[workers]: log.append(call),
            )
            scores[workers] = [row.scores for row in results]
        assert scores["1"] == scores["2"]
        assert logs["1"] == logs["2"]
        assert [call[:3] for call in logs["1"]] == [
            (1, 4, rows[0]), (2, 4, rows[0]), (3, 4, rows[1]), (4, 4, rows[1])
        ]

    @pytest.mark.parametrize(
        "workers, cpus, threads", [("2", None, None), ("8", 8, 2), (None, 8, 2)]
    )
    def test_workers_share_the_cpus_as_blas_threads(
        self, data_dirs, monkeypatch, blas_threads, workers, cpus, threads
    ):
        # four jobs, so of 8 workers asked for (or, unset, one per CPU) on
        # 8 CPUs, 4 start with 2 threads each
        train, test = data_dirs
        run = make_run(train, test, repeats=2)
        rows = [("E-ATP",), ("E-GMP",)]
        if cpus is not None:
            monkeypatch.setattr(pipeline, "cpu_count", lambda: cpus)
        monkeypatch.setattr(pipeline, "_ablation_run", report_blas_threads)
        if workers is None:
            monkeypatch.delenv("MBSED_WORKERS", raising=False)
        else:
            monkeypatch.setenv("MBSED_WORKERS", workers)
        results = run_ablation(run, rows=rows)
        expected = threads or max(1, pipeline.cpu_count() // int(workers))
        assert [row.scores for row in results] == [[expected] * 2] * 2

    def test_workers_forked_after_chunk_threads_score_alike(
        self, data_dirs, monkeypatch, blas_threads
    ):
        # a conv_block backward on two BLAS threads starts its chunk threads
        # in this process; fork copies none of them into the workers. Chunks
        # of 128 KiB, which the workers inherit, give each block at least the
        # four chunks per thread that conv_block needs to use its threads
        monkeypatch.setattr(ad, "CHUNK_DOUBLES", 1 << 14)
        blas_threads(2)
        rng = np.random.default_rng(41)
        x = ad.Tensor(rng.standard_normal((2, 500, 64, 1)), requires_grad=True)
        kernel = ad.Tensor(rng.standard_normal((8, 1, 3, 3)), requires_grad=True)
        gamma, beta = ad.Tensor(np.ones(8)), ad.Tensor(np.zeros(8))
        out = ad.conv_block(x, kernel, gamma, beta, np.zeros(8), np.ones(8), (1, 1), 1, 4)
        ad.reduce_sum(out).backward()
        assert any(t.name.startswith("mbsed-chunk") for t in threading.enumerate())

        train, test = data_dirs
        run = make_run(train, test, repeats=2)
        rows = [("E-ATP",), ("E-GMP", "I-GAP")]
        cfg = tiny_model_config(epochs=2)
        monkeypatch.setenv("MBSED_WORKERS", "1")
        expected = [row.scores for row in run_ablation(run, rows=rows, model_config=cfg)]
        # 4 CPUs between 2 workers give each 2 BLAS threads, so the workers'
        # conv_block chunks (32 per block 0 batch of 4) run on threads as well
        monkeypatch.setattr(pipeline, "cpu_count", lambda: 4)
        monkeypatch.setenv("MBSED_WORKERS", "2")
        outcome = []

        def ablate():
            try:
                outcome.append(run_ablation(run, rows=rows, model_config=cfg))
            except Exception as exc:  # re-raised below, in the test's thread
                outcome.append(exc)

        # a worker waiting on threads it does not have would hang the test
        runner = threading.Thread(target=ablate, daemon=True)
        runner.start()
        runner.join(timeout=300)
        assert not runner.is_alive(), "ablation with 2 workers did not finish in 300 s"
        if isinstance(outcome[0], Exception):
            raise outcome[0]
        assert [row.scores for row in outcome[0]] == expected

    def test_scores_like_evaluation(self, long_clip_dirs):
        train, test = long_clip_dirs
        refs = read_events_tsv(test / "strong.tsv")
        assert max(e.offset for e in refs) > 10.0
        run = make_run(train, test, repeats=2)
        cfg = tiny_model_config(branches=("E-ATP",), epochs=2)
        rows = run_ablation(run, rows=[("E-ATP",)], model_config=cfg)

        # the first job again, in this process, scored as run_evaluation scores
        train_set = load_dataset(train)
        test_set = load_dataset(test, class_labels=train_set.class_labels)
        model = Model(dataclasses.replace(
            cfg, seed=run.training.seed, class_labels=tuple(train_set.class_labels)
        ))
        train_model(model, train_set.features, train_set.labels)
        post = post_config_from_run(
            run, read_events_tsv(train / "strong.tsv"), train_set.hop_seconds * cfg.time_pool_total
        )
        preds = []
        for clip_id, feats in zip(test_set.clip_ids, test_set.features):
            preds += predict_events(model, feats, clip_id, test_set.hop_seconds, post)[1]
        clip_duration = max([e.offset for e in refs + preds] + [10.0])
        report = segment_based_f1(refs, preds, run.eval.segment_length, clip_duration)
        assert rows[0].scores[0] == report.macro_f1

    def test_rejects_both_protocols(self, data_dirs):
        train, test = data_dirs
        run = make_run(train, test, repeats=2)
        run.eval.protocol = "both"
        with pytest.raises(PipelineError, match="one protocol"):
            run_ablation(run, rows=[("E-ATP",)], model_config=tiny_model_config(epochs=1))

    def test_needs_two_repeats(self, data_dirs):
        train, test = data_dirs
        run = make_run(train, test, repeats=1)
        with pytest.raises(PipelineError, match="repeats >= 2"):
            run_ablation(run, rows=[("E-ATP",)])

    def test_needs_test_dir(self, data_dirs):
        train, _ = data_dirs
        run = make_run(train, "", repeats=2)
        with pytest.raises(PipelineError, match="test_dir"):
            run_ablation(run, rows=[("E-ATP",)])

    def test_default_row_set(self):
        assert len(ABLATION_ROWS) == 12
        mains = {row[0] for row in ABLATION_ROWS}
        assert mains == {"E-GMP", "E-GAP", "E-ATP"}
        for row in ABLATION_ROWS:
            assert all(b.startswith("I-") for b in row[1:])

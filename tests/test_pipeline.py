"""End-to-end pipeline tests on a miniature synthesized dataset.

The model used here is deliberately tiny so the full synthesize, train,
predict, evaluate loop stays fast.
"""

import copy
import dataclasses

import numpy as np
import pytest

from mbsed.config import RunConfig, parse_branches, parse_run_config
from mbsed.events import EventAnnotation, read_events_tsv
from mbsed.metrics import segment_based_f1
from mbsed.model import CnnBlockSpec, Model, ModelConfig, train_model
from mbsed.pipeline import (
    ABLATION_ROWS,
    PipelineError,
    format_ablation_table,
    load_dataset,
    post_config_from_run,
    predict_events,
    run_ablation,
    run_evaluation,
    run_prediction,
    run_training,
    worker_count,
)
from mbsed.synth import SynthConfig, generate_dataset

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
        assert sorted(p.name for p in (dataset / "features").iterdir()) == [
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


class TestWorkerCount:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("MBSED_WORKERS", raising=False)
        assert worker_count() == 1

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
        scores = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("MBSED_WORKERS", workers)
            results = run_ablation(run, rows=rows, model_config=tiny_model_config(epochs=2))
            scores[workers] = [row.scores for row in results]
        assert scores["1"] == scores["2"]

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

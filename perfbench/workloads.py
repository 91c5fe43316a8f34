"""The three workloads: inputs made from the seed, one timed round, checks.

Each workload is a class with
- ``setup(work_dir)``: synthesis, features and any checkpoint, timed as
  ``setup_s``;
- ``round(state)``: one fixed unit of work through mbsed's public API,
  repeated for the length of the run; it returns the outputs to check and
  the wall seconds of each timed sample in it, a training step or the
  whole round;
- ``check(state, outputs)``: correctness checks outside the timed region,
  raising ``oracle.CheckFailed`` on a wrong output.
``units`` is how many steps, clips or jobs one round does, the
denominator of the per-layer numbers. ``items_per_s`` is
``items_per_sample`` over the median sample: clips through a training
step, clips predicted and scored, or ablation jobs.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from pathlib import Path

import numpy as np

import mbsed.autodiff as ad
from mbsed import config, events, model, pipeline, synth
from oracle import (
    check_events,
    check_tags,
    directional_fd_error,
    event_f1,
    parse_events_tsv,
    parse_tags_tsv,
    require,
    segment_f1,
)

CLASS_LABELS = sorted(t.label for t in synth.DEFAULT_TEMPLATES)
CLIP_SECONDS = 10.0
PAPER_BRANCHES = ("E-ATP", "I-GAP", "I-GMP")
FD_TOLERANCE = 1e-6
# The training seed (weight init, shuffling) is fixed; --seed makes the
# data. At a fixed seed the losses then move with the data and the code
# only, not with the initial weights.
TRAIN_SEED = 0


def derived_seed(seed: int, stream: int) -> int:
    """An independent 31-bit seed per input stream of one workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0] >> 1)


def synthesize(out_dir: Path, n_clips: int, seed: int, **settings):
    return synth.generate_dataset(synth.SynthConfig(n_clips=n_clips, seed=seed, **settings), out_dir)


def step_loss(m: model.Model, batch: np.ndarray, labels: np.ndarray) -> ad.Tensor:
    """The multi-branch loss of one training step, as train_model builds it."""
    feats = m.encode(batch, train=True)
    losses = [
        ad.reduce_mean(model.clip_loss(m.branch_clip_probs(feats, b), labels)) for b in m.branches
    ]
    main = m.branches.index(m.main_branch)
    aux = [loss for i, loss in enumerate(losses) if i != main]
    return model.total_loss(losses[main], aux)


def params_equal(a: model.Model, b: model.Model) -> bool:
    """Same names, and bit-identical parameters and running statistics."""
    left = [(n, t.data) for n, t in a.parameters()] + a.buffers()
    right = [(n, t.data) for n, t in b.parameters()] + b.buffers()
    return [n for n, _ in left] == [n for n, _ in right] and all(
        np.array_equal(x, y) for (_, x), (_, y) in zip(left, right)
    )


class TrainSmall:
    """`small` preset, paper branches, batch 16, STEPS train_model steps per round."""

    name = "train-small"
    N_CLIPS = 16
    STEPS = 2
    FD_CLIPS = 2
    unit = "step"
    units = STEPS
    items_per_sample = N_CLIPS
    items_per_round = N_CLIPS * STEPS

    def __init__(self, seed: int):
        self.data_seed = derived_seed(seed, 0)
        self.fd_seed = derived_seed(seed, 1)

    def config(self, epochs: int, batch_size: int) -> model.ModelConfig:
        base = model.small_config(len(CLASS_LABELS), config.parse_branches(PAPER_BRANCHES),
                                  seed=TRAIN_SEED)
        return dataclasses.replace(base, epochs=epochs, batch_size=batch_size,
                                   class_labels=tuple(CLASS_LABELS))

    def setup(self, work_dir: Path):
        synthesize(work_dir / "train", self.N_CLIPS, self.data_seed)
        return pipeline.load_dataset(work_dir / "train", cache=False, class_labels=CLASS_LABELS)

    def round(self, data):
        m = model.Model(self.config(self.STEPS, self.N_CLIPS))
        # one epoch is one step here; log_fn marks the end of each
        marks = [time.perf_counter()]
        curve = model.train_model(m, data.features, data.labels,
                                  log_fn=lambda epoch, loss: marks.append(time.perf_counter()))
        return curve, list(np.diff(marks))

    def summary(self, state, outputs, sample_s: float) -> dict:
        return {"train_clips_per_s": self.N_CLIPS / sample_s, "final_loss": outputs[0][-1],
                "loss_curve": outputs[0]}

    def check(self, data, outputs) -> None:
        curve = outputs[0]
        require(all(np.isfinite(curve)), f"non-finite loss in {curve}")
        require(curve[-1] < curve[0], f"loss did not fall over the timed steps: {curve}")
        require(all(c == curve for c in outputs), "rounds from one seed gave different losses")

        batch = np.stack(data.features[: self.FD_CLIPS])
        labels = data.labels[: self.FD_CLIPS]
        m = model.Model(self.config(1, self.FD_CLIPS))
        err = directional_fd_error(
            lambda: step_loss(m, batch, labels), [p for _, p in m.parameters()],
            np.random.default_rng(self.fd_seed), no_grad=ad.no_grad,
        )
        require(err <= FD_TOLERANCE, f"loss gradient off by {err:.3e} of its norm along a random direction")

        prefix = [data.features[: self.FD_CLIPS], labels]
        runs = []
        for _ in range(2):
            runs.append(model.Model(self.config(1, self.FD_CLIPS)))
            model.train_model(runs[-1], *prefix)
        require(params_equal(*runs), "two trainings from one seed differ")


def compact_model_config(epochs: int) -> model.ModelConfig:
    """The ablation gate's compact encoder: a 1x1 front block, then 8 and 16 channels.

    run_ablation sets the branches and the seed of each job.
    """
    return model.ModelConfig(
        encoder=(
            model.CnnBlockSpec(2, (1, 1), freq_pool=2, time_pool=4),
            model.CnnBlockSpec(8, (3, 3), freq_pool=4),
            model.CnnBlockSpec(16, (3, 3), freq_pool=8),
        ),
        num_classes=len(CLASS_LABELS),
        branches=config.parse_branches(PAPER_BRANCHES),
        attention_scale=4.0,
        learning_rate=0.03,
        batch_size=8,
        epochs=epochs,
    )


# the ablation gate's noisy, dense soundscapes
GATE_SYNTH = dict(max_polyphony=3, events_min=2, events_max=4, snr_db_lo=-3.0, snr_db_hi=9.0)


class PredictEval:
    """run_prediction on held-out WAVs, then run_evaluation under both protocols."""

    name = "predict-eval"
    N_TRAIN = 2
    # post-processing and scoring cost varies with the events found; more
    # clips per round average that out
    N_TEST = 24
    # three steps at a raised learning rate: enough for events to appear,
    # too few for probabilities to round to 0 or 1 in the tag file
    TRAIN_EPOCHS = 3
    TRAIN_LEARNING_RATE = 1e-2
    unit = "clip"
    units = items_per_sample = items_per_round = N_TEST

    def __init__(self, seed: int):
        self.train_seed = derived_seed(seed, 0)
        self.test_seed = derived_seed(seed, 1)
        self.predict_s = []

    def setup(self, work_dir: Path):
        train = synthesize(work_dir / "train", self.N_TRAIN, self.train_seed)
        test = synthesize(work_dir / "test", self.N_TEST, self.test_seed)
        run = config.parse_run_config("[eval]\nprotocol = both\n")
        data = pipeline.load_dataset(train.out_dir, cache=False, class_labels=CLASS_LABELS)
        base = model.small_config(len(CLASS_LABELS), run.branch_specs(), seed=TRAIN_SEED)
        cfg = dataclasses.replace(base, epochs=self.TRAIN_EPOCHS, batch_size=self.N_TRAIN,
                                  learning_rate=self.TRAIN_LEARNING_RATE,
                                  class_labels=tuple(CLASS_LABELS))
        trained = model.Model(cfg)
        curve = model.train_model(trained, data.features, data.labels)
        ckpt = work_dir / "model.ckpt"
        model.save_checkpoint(trained, ckpt)
        require(params_equal(trained, model.load_checkpoint(ckpt)),
                "checkpoint read back differs from the model written")
        hop_out = data.hop_seconds * cfg.time_pool_total
        train_refs = events.read_events_tsv(train.strong_path)
        post = pipeline.post_config_from_run(run, train_refs, hop_out)
        return dict(run=run, ckpt=ckpt, test=test, post=post, curve=curve,
                    out=work_dir / "pred" / "events.tsv")

    def round(self, s):
        start = time.perf_counter()
        events_path, tags_path = pipeline.run_prediction(s["ckpt"], s["test"].out_dir, s["out"],
                                                          post=s["post"])
        predicted = time.perf_counter()
        reports = pipeline.run_evaluation(s["test"].strong_path, events_path, s["run"])
        end = time.perf_counter()
        self.predict_s.append(predicted - start)
        output = (events_path.read_text(encoding="utf-8"), tags_path.read_text(encoding="utf-8"),
                  {p: r.macro_f1 for p, r in reports.items()})
        return output, [end - start]

    def summary(self, s, outputs, sample_s: float) -> dict:
        f1 = outputs[0][2]
        return {"predict_clips_per_s": self.N_TEST / statistics.median(self.predict_s),
                "events": len(outputs[0][0].splitlines()),
                "event_f1": f1["event"], "segment_f1": f1["segment"],
                "checkpoint_loss_curve": s["curve"]}

    def check(self, s, outputs) -> None:
        events_text, tags_text, reported = outputs[0]
        require(all(o == outputs[0] for o in outputs), "rounds gave different predictions")
        preds = parse_events_tsv(events_text)
        refs = parse_events_tsv(s["test"].strong_path.read_text(encoding="utf-8"))
        clip_ids = s["test"].clip_ids
        check_events(preds, clip_ids, CLASS_LABELS, CLIP_SECONDS)
        check_tags(parse_tags_tsv(tags_text), preds, clip_ids, CLASS_LABELS,
                   s["post"].tag_threshold)
        ev = s["run"].eval
        expected = {
            "event": event_f1(refs, preds, ev.onset_collar, ev.offset_tolerance),
            "segment": segment_f1(refs, preds, CLIP_SECONDS, ev.segment_length),
        }
        for protocol, value in expected.items():
            require(abs(reported[protocol] - value) <= 1e-12,
                    f"{protocol} F1 {reported[protocol]!r} != independent {value!r}")


class AblateCompact:
    """run_ablation over ROWS x 2 seeds with 2 workers on the gate's compact encoder."""

    name = "ablate-compact"
    N_TRAIN = 24
    N_TEST = 12
    EPOCHS = 4
    ROWS = [("E-ATP",), ("E-ATP", "I-GAP", "I-GMP")]
    REPEATS = 2
    WORKERS = 2
    unit = "job"
    units = items_per_sample = items_per_round = len(ROWS) * REPEATS

    def __init__(self, seed: int):
        self.train_seed = derived_seed(seed, 0)
        self.test_seed = derived_seed(seed, 1)

    def setup(self, work_dir: Path):
        train = synthesize(work_dir / "train", self.N_TRAIN, self.train_seed, **GATE_SYNTH)
        test = synthesize(work_dir / "test", self.N_TEST, self.test_seed, **GATE_SYNTH)
        run = config.parse_run_config(
            f"[data]\ntrain_dir = {train.out_dir}\ntest_dir = {test.out_dir}\n"
            f"[training]\nrepeats = {self.REPEATS}\nseed = {TRAIN_SEED}\n"
            "[postprocess]\nthreshold = 0.6\ntag_threshold = 0.5\n"
        )
        # fill the feature caches that run_ablation reads
        train_set = pipeline.load_dataset(train.out_dir)
        test_set = pipeline.load_dataset(test.out_dir, class_labels=train_set.class_labels)
        return dict(run=run, train=train, test=test, train_set=train_set, test_set=test_set)

    def round(self, s):
        os.environ[pipeline.WORKERS_ENV] = str(self.WORKERS)
        start = time.perf_counter()
        rows = pipeline.run_ablation(s["run"], rows=self.ROWS,
                                     model_config=compact_model_config(self.EPOCHS))
        elapsed = time.perf_counter() - start
        return [score for row in rows for score in row.scores], [elapsed]

    def rerun_first_job(self, s):
        """Job (ROWS[0], first seed) trained in this process, scored independently."""
        run, train_set, test_set = s["run"], s["train_set"], s["test_set"]
        cfg = dataclasses.replace(
            compact_model_config(self.EPOCHS),
            branches=config.parse_branches(self.ROWS[0]),
            seed=run.training.seed,
            class_labels=tuple(train_set.class_labels),
        )
        m = model.Model(cfg)
        curve = model.train_model(m, train_set.features, train_set.labels)
        post = pipeline.post_config_from_run(
            run, events.read_events_tsv(s["train"].strong_path),
            train_set.hop_seconds * cfg.time_pool_total,
        )
        preds = []
        for clip_id, feats in zip(test_set.clip_ids, test_set.features):
            _, found = pipeline.predict_events(m, feats, clip_id, test_set.hop_seconds, post)
            preds += [(e.clip_id, e.label, e.onset, e.offset) for e in found]
        refs = parse_events_tsv(s["test"].strong_path.read_text(encoding="utf-8"))
        return curve, segment_f1(refs, preds, CLIP_SECONDS, run.eval.segment_length)

    def summary(self, s, outputs, sample_s: float) -> dict:
        return {"ablate_jobs_per_min": 60.0 * self.items_per_sample / sample_s,
                "segment_f1": statistics.mean(outputs[0]), "scores": outputs[0],
                "rerun_final_loss": s["rerun_curve"][-1]}

    def check(self, s, outputs) -> None:
        scores = outputs[0]
        require(all(o == scores for o in outputs), "rounds gave different scores")
        require(all(0.0 <= x <= 1.0 for x in scores), f"score outside [0, 1] in {scores}")
        os.environ[pipeline.WORKERS_ENV] = "1"
        curve, score = self.rerun_first_job(s)
        s["rerun_curve"] = curve
        require(all(np.isfinite(curve)), f"non-finite loss in {curve}")
        require(abs(score - scores[0]) <= 1e-12,
                f"run_ablation reported {scores[0]!r}, the same job scores {score!r}")


WORKLOADS = {w.name: w for w in (TrainSmall, PredictEval, AblateCompact)}

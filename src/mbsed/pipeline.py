"""End-to-end pipelines: features, training runs, prediction, evaluation,
and the branch-combination ablation table.

Training and ablation build each model config with ``build_model_config``,
and evaluation and ablation score events with ``score_events``, so a row of
the ablation table is the model ``train`` would write, scored as
``evaluate`` would score its predictions.

Every artifact-producing step is deterministic given its config and seed;
repeated runs rewrite byte-identical files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import blas
from .audio import (
    N_BANDS,
    AudioIOError,
    feature_stamp,
    frame_hop_seconds,
    load_audio,
    logmel,
    read_features,
    write_features,
    written_whole,
)
from .config import RunConfig, parse_branches, resolved_text
from .events import (
    EventAnnotation,
    read_events_tsv,
    read_weak_labels_tsv,
    write_events_tsv,
)
from .metrics import EvalReport, event_based_f1, segment_based_f1
from .model import (
    PRESETS,
    BranchSpec,
    Model,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
    train_model,
)
from .postprocess import DEFAULT_WINDOW, PostConfig, adaptive_window, probs_to_events
from .synth import STRONG_NAME, WEAK_NAME

WORKERS_ENV = "MBSED_WORKERS"
FEATURE_DIR = "features"

# default ablation grid: each main branch alone and with every
# combination of the two instance-level auxiliaries
ABLATION_ROWS = [
    ("E-GMP",),
    ("E-GMP", "I-GMP"),
    ("E-GMP", "I-GAP"),
    ("E-GMP", "I-GAP", "I-GMP"),
    ("E-GAP",),
    ("E-GAP", "I-GMP"),
    ("E-GAP", "I-GAP"),
    ("E-GAP", "I-GAP", "I-GMP"),
    ("E-ATP",),
    ("E-ATP", "I-GMP"),
    ("E-ATP", "I-GAP"),
    ("E-ATP", "I-GAP", "I-GMP"),
]


class PipelineError(RuntimeError):
    """Missing dataset files or inconsistent pipeline inputs."""


def map_clips(fn, items) -> list:
    """``[fn(item) for item in items]``, with the items spread over mbsed's
    pool of ``blas.threads()`` threads (``blas.run_in_order``).

    Importing mbsed left OpenBLAS at one thread for the whole process
    (``mbsed.blas``), so the cores are used by threads like these, never
    by OpenBLAS; without OpenBLAS the count is 1. On a pool thread
    ``blas.threads()`` is 1, so each clip keeps to one core and
    ``conv_block`` runs its conv and chunks inline. With one thread (an
    ablation worker, ``OPENBLAS_NUM_THREADS=1``) or one item the map runs
    inline. Results come in item order, and the first item to raise, in
    that order, is the one whose exception propagates once the started
    items have returned, so a caller sees what a serial loop would. ``fn``
    must not share mutable state between items.
    """
    items = list(items)
    out = []
    blas.run_in_order(
        (functools.partial(fn, item) for item in items), min(blas.threads(), len(items)), out.append
    )
    return out


def cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count() -> int:
    """Ablation worker processes: ``MBSED_WORKERS``, else one per CPU.

    ``run_ablation`` starts no more of them than it has jobs.
    """
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return cpu_count()
    try:
        workers = int(raw)
    except ValueError:
        raise PipelineError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise PipelineError(f"{WORKERS_ENV} must be at least 1, got {workers}")
    return workers


@dataclass
class Dataset:
    """Features plus weak labels for one directory of synthesized clips."""

    clip_ids: list[str]
    features: list[np.ndarray]
    labels: np.ndarray  # (n_clips, n_classes) binary
    class_labels: list[str]
    hop_seconds: float


def clip_features(dataset_dir: Path, clip_id: str, cache: bool, rate: int) -> np.ndarray:
    """Log-mel features for one clip, cached beside the audio per rate when asked.

    A cache file is read only when its stamp names this frontend and the
    bytes of the clip's WAV, or any WAV once the WAV is gone; otherwise the
    features are computed and the file is written again. A cache file that
    cannot be written raises PipelineError.
    """
    cache_path = dataset_dir / FEATURE_DIR / str(rate) / f"{clip_id}.mel"
    wav_path = dataset_dir / f"{clip_id}.wav"
    have_wav = wav_path.exists()
    if cache:
        stamp = feature_stamp(rate, wav_path if have_wav else None)
        feats = read_features(cache_path, stamp) if cache_path.exists() else None
        if feats is not None:
            if feats.shape[1] != N_BANDS:
                raise AudioIOError(f"{cache_path}: {feats.shape[1]} bands, expected {N_BANDS}")
            return feats
    if not have_wav:
        raise PipelineError(f"missing audio file {wav_path}")
    clip = load_audio(wav_path, rate)
    try:
        feats = logmel(clip)
    except ValueError as exc:  # a clip shorter than one hop
        raise AudioIOError(f"{wav_path}: {exc}") from None
    if cache:
        try:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            write_features(cache_path, feats, stamp)
        except OSError as exc:
            raise PipelineError(f"cannot write feature cache {cache_path}: {exc}") from None
    return feats


def load_dataset(
    dataset_dir,
    rate: int = 22050,
    cache: bool = True,
    class_labels: list[str] | None = None,
) -> Dataset:
    """Read weak labels and features; class order is sorted label names."""
    dataset_dir = Path(dataset_dir)
    weak_path = dataset_dir / WEAK_NAME
    if not weak_path.exists():
        raise PipelineError(f"missing weak label file {weak_path}")
    weak = read_weak_labels_tsv(weak_path)
    clip_ids = sorted(weak)
    if class_labels is None:
        class_labels = sorted({label for labels in weak.values() for label in labels})
    labels = np.zeros((len(clip_ids), len(class_labels)))
    index = {label: i for i, label in enumerate(class_labels)}
    for row, clip_id in enumerate(clip_ids):
        for label in weak[clip_id]:
            if label not in index:
                raise PipelineError(
                    f"clip {clip_id} has label {label!r} outside the class list {class_labels}"
                )
            labels[row, index[label]] = 1.0
    features = [clip_features(dataset_dir, cid, cache, rate) for cid in clip_ids]
    return Dataset(clip_ids, features, labels, list(class_labels), frame_hop_seconds(rate))


def load_train_set(run: RunConfig) -> Dataset:
    """The run's training set; training batches clips, so their frame counts must agree."""
    dataset = load_dataset(run.data.train_dir, run.data.sample_rate, run.data.cache_features)
    if not dataset.clip_ids:
        raise PipelineError(
            f"training set {Path(run.data.train_dir) / WEAK_NAME} lists no clips"
        )
    frames = [feats.shape[0] for feats in dataset.features]
    for clip_id, n in zip(dataset.clip_ids, frames):
        if n != frames[0]:
            raise PipelineError(
                f"training clip {clip_id} has {n} frames but {dataset.clip_ids[0]} has "
                f"{frames[0]}; training batches need clips of one length"
            )
    return dataset


def build_model_config(
    run: RunConfig,
    class_labels: list[str],
    branches: tuple[BranchSpec, ...],
    seed: int,
    model_config: ModelConfig | None = None,
) -> ModelConfig:
    """The config one training run uses.

    Without ``model_config`` it is the run's preset with the run's training
    settings; with it, that config as given. Either way the branches, seed
    and class labels are the ones passed here.
    """
    if model_config is None:
        model_config = dataclasses.replace(
            PRESETS[run.model.preset](len(class_labels), branches),
            learning_rate=run.training.learning_rate,
            batch_size=run.training.batch_size,
            epochs=run.training.epochs,
        )
    return dataclasses.replace(
        model_config, branches=branches, seed=seed, class_labels=tuple(class_labels)
    )


@dataclass
class TrainArtifacts:
    checkpoint_path: Path
    loss_path: Path
    seed: int
    final_loss: float


def run_training(
    run: RunConfig, out_dir, model_config: ModelConfig | None = None
) -> list[TrainArtifacts]:
    """Train `repeats` models with seeds seed+0..; write checkpoints and logs.

    A fully resolved copy of the run config lands beside the checkpoints.
    An explicit model_config replaces the run's preset and training
    settings; the branches still come from the run and the seed from the
    repeat.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = load_train_set(run)
    branches = run.branch_specs()
    artifacts = []
    for r in range(run.training.repeats):
        seed = run.training.seed + r
        model = Model(build_model_config(run, dataset.class_labels, branches, seed, model_config))
        curve = train_model(model, dataset.features, dataset.labels)
        ckpt = out_dir / f"model_seed{seed}.ckpt"
        save_checkpoint(model, ckpt)
        loss_path = out_dir / f"loss_seed{seed}.csv"
        rows = "".join(f"{epoch},{value:.6f}\n" for epoch, value in enumerate(curve))
        with written_whole(loss_path) as fh:
            fh.write(f"epoch,loss\n{rows}".encode())
        artifacts.append(TrainArtifacts(ckpt, loss_path, seed, curve[-1]))
    (out_dir / "config_resolved.ini").write_text(resolved_text(run), encoding="utf-8")
    return artifacts


def predict_events(
    model: Model,
    features: np.ndarray,
    clip_id: str,
    hop_seconds: float,
    post: PostConfig,
) -> tuple[np.ndarray, list[EventAnnotation]]:
    """Clip tag probabilities and post-processed events for one clip.

    Classes rejected at clip level are gated out of the frame output, so
    detection never contradicts tagging. A clip too short for the
    encoder's time pooling is a PipelineError.
    """
    try:
        model.config.tiled_frames(len(features))
    except ValueError as exc:
        raise PipelineError(f"clip {clip_id}: {exc}") from None
    clip_probs, frame_probs = model.predict(features)
    frame_probs = frame_probs * (clip_probs > post.tag_threshold)[None, :]
    hop_out = hop_seconds * model.config.time_pool_total
    events = probs_to_events(
        frame_probs, hop_out, model.config.label_names, post, clip_id=clip_id
    )
    return clip_probs, events


def run_prediction(
    checkpoint_path,
    audio_dir,
    out_tsv,
    post: PostConfig | None = None,
    rate: int = 22050,
    cache: bool = False,
) -> tuple[Path, Path]:
    """Predict events for every WAV in a directory; returns (events, tags) paths.

    The clips run concurrently (``map_clips``), and the files list them in
    sorted WAV order, so they do not depend on the BLAS thread count.
    """
    model = load_checkpoint(checkpoint_path)
    audio_dir = Path(audio_dir)
    wavs = sorted(audio_dir.glob("*.wav"))
    if not wavs:
        raise PipelineError(f"no .wav files found in {audio_dir}")
    post = post or PostConfig()
    hop = frame_hop_seconds(rate)

    def predict_wav(wav: Path):
        feats = clip_features(audio_dir, wav.stem, cache, rate)
        return wav.stem, *predict_events(model, feats, wav.stem, hop, post)

    all_events = []
    tag_rows = []
    for clip_id, clip_probs, events in map_clips(predict_wav, wavs):
        all_events.extend(events)
        for label, prob in zip(model.config.label_names, clip_probs):
            tag_rows.append(f"{clip_id}\t{label}\t{prob:.6f}")
    out_tsv = Path(out_tsv)
    out_tsv.parent.mkdir(parents=True, exist_ok=True)
    write_events_tsv(out_tsv, all_events)
    tags_path = out_tsv.with_suffix(".tags.tsv")
    tags_path.write_text("\n".join(tag_rows) + "\n", encoding="utf-8")
    return out_tsv, tags_path


def score_events(
    refs: list[EventAnnotation], preds: list[EventAnnotation], run: RunConfig
) -> dict[str, EvalReport]:
    """Reports for the run's protocol, or for both.

    Segments cover the longest offset among refs and preds, at least 10 s.
    """
    reports = {}
    protocols = ("event", "segment") if run.eval.protocol == "both" else (run.eval.protocol,)
    for protocol in protocols:
        if protocol == "event":
            reports["event"] = event_based_f1(
                refs, preds, run.eval.onset_collar, run.eval.offset_tolerance
            )
        else:
            clip_duration = max(
                [e.offset for e in refs] + [e.offset for e in preds] + [10.0]
            )
            reports["segment"] = segment_based_f1(
                refs, preds, run.eval.segment_length, clip_duration
            )
    return reports


def run_evaluation(refs_tsv, preds_tsv, run: RunConfig) -> dict[str, EvalReport]:
    return score_events(read_events_tsv(refs_tsv), read_events_tsv(preds_tsv), run)


def post_config_from_run(run: RunConfig, train_refs: list[EventAnnotation] | None, hop: float) -> PostConfig:
    """Postprocess settings; adaptive windows need training-set durations."""
    windows, default = {}, DEFAULT_WINDOW
    if run.postprocess.window != "adaptive":
        default = int(run.postprocess.window)
    elif train_refs:
        by_label: dict[str, list[float]] = {}
        for e in train_refs:
            by_label.setdefault(e.label, []).append(e.duration)
        windows = {
            label: adaptive_window(float(np.median(durs)), hop)
            for label, durs in by_label.items()
        }
    return PostConfig(
        threshold=run.postprocess.threshold,
        median_windows=windows,
        default_window=default,
        tag_threshold=run.postprocess.tag_threshold,
    )


def model_post_config(run: RunConfig, model_config: ModelConfig) -> PostConfig:
    """What ``predict`` and ``ablate`` apply: train_dir's strong labels at the pooled hop."""
    strong = Path(run.data.train_dir) / STRONG_NAME
    adaptive = run.postprocess.window == "adaptive" and run.data.train_dir and strong.exists()
    train_refs = read_events_tsv(strong) if adaptive else None
    hop = frame_hop_seconds(run.data.sample_rate) * model_config.time_pool_total
    return post_config_from_run(run, train_refs, hop)


@dataclass
class AblationRow:
    branches: tuple[str, ...]
    scores: list[float]

    @property
    def name(self) -> str:
        return " + ".join(self.branches)

    @property
    def mean(self) -> float:
        return float(np.mean(self.scores))

    @property
    def std(self) -> float:
        return float(np.std(self.scores, ddof=1)) if len(self.scores) > 1 else 0.0

    @property
    def best(self) -> float:
        return float(np.max(self.scores))


# What every ablation job of a run shares, in a pool worker: (run, train
# set, test set, test refs, model config). The pool initializer
# sets it, so a worker receives the datasets once and each job only
# (branches, seed).
_worker_shared: tuple | None = None


def _init_ablation_worker(shared: tuple, blas_threads: int) -> None:
    """Pool initializer: the shared job inputs, and this worker's share of
    the CPUs as mbsed's threads (results do not depend on the count)."""
    global _worker_shared
    _worker_shared = shared
    blas.set_threads(blas_threads)


def _ablation_run(job: tuple[tuple[str, ...], int]) -> float:
    """One job in a pool worker; module-level so worker processes can import it."""
    return _ablation_job(_worker_shared, job)


def _ablation_job(shared: tuple, job: tuple[tuple[str, ...], int]) -> float:
    """One train+evaluate pass for (branches, seed)."""
    branches, seed = job
    run, train_set, test_set, test_refs, model_config = shared
    cfg = build_model_config(
        run, train_set.class_labels, parse_branches(branches), seed, model_config
    )
    model = Model(cfg)
    train_model(model, train_set.features, train_set.labels)
    post = model_post_config(run, cfg)

    def clip_events(clip):
        clip_id, feats = clip
        return predict_events(model, feats, clip_id, test_set.hop_seconds, post)[1]

    clips = zip(test_set.clip_ids, test_set.features)
    predictions = [e for events in map_clips(clip_events, clips) for e in events]
    return score_events(test_refs, predictions, run)[run.eval.protocol].macro_f1


def run_ablation(
    run: RunConfig,
    rows: list[tuple[str, ...]] | None = None,
    model_config: ModelConfig | None = None,
    log_fn=None,
) -> list[AblationRow]:
    """Train every branch combination `repeats` times and score the test set."""
    if run.eval.protocol == "both":
        raise PipelineError("ablation scores one protocol; set [eval] protocol to event or segment")
    if run.training.repeats < 2:
        raise PipelineError("ablation needs repeats >= 2 for a standard deviation")
    if not run.data.test_dir:
        raise PipelineError("ablation needs [data] test_dir")
    rows = rows or ABLATION_ROWS
    train_set = load_train_set(run)
    test_set = load_dataset(
        run.data.test_dir, run.data.sample_rate, run.data.cache_features,
        class_labels=train_set.class_labels,
    )
    strong_path = Path(run.data.test_dir) / STRONG_NAME
    if not strong_path.exists():
        raise PipelineError(f"missing reference annotations {strong_path}")
    test_refs = read_events_tsv(strong_path)

    shared = (run, train_set, test_set, test_refs, model_config)
    jobs = [
        (branches, run.training.seed + r)
        for branches in rows
        for r in range(run.training.repeats)
    ]
    workers = min(worker_count(), len(jobs))
    scores = []
    with contextlib.ExitStack() as stack:
        if workers > 1:
            import multiprocessing

            pool = stack.enter_context(multiprocessing.Pool(
                workers,
                initializer=_init_ablation_worker,
                initargs=(shared, max(1, cpu_count() // workers)),
            ))
            job_scores = pool.imap(_ablation_run, jobs)
        else:
            job_scores = (_ablation_job(shared, job) for job in jobs)
        for i, (job, score) in enumerate(zip(jobs, job_scores)):
            scores.append(score)
            if log_fn is not None:
                log_fn(i + 1, len(jobs), job[0], score)
    results = []
    for i, branches in enumerate(rows):
        chunk = scores[i * run.training.repeats : (i + 1) * run.training.repeats]
        results.append(AblationRow(branches, chunk))
    return results


def format_ablation_table(rows: list[AblationRow], protocol: str) -> str:
    """Markdown table, mean +- (n-1)-std and best over repeats, 3 decimals."""
    header = f"| Branches | Average {protocol} F1 | Best {protocol} F1 |"
    rule = "| --- | --- | --- |"
    lines = [header, rule]
    for row in rows:
        lines.append(f"| {row.name} | {row.mean:.3f} +- {row.std:.3f} | {row.best:.3f} |")
    return "\n".join(lines) + "\n"

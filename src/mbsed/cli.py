"""Command line interface: synth, train, predict, evaluate, ablate.

Every command is deterministic given its flags. ``ablate`` runs one worker
process per CPU (MBSED_WORKERS overrides the count); parallelism never
changes results.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .audio import AudioIOError
from .config import ConfigError, RunConfig, load_run_config
from .events import AnnotationError
from .metrics import format_report
from .model import CheckpointError, DivergenceError, load_checkpoint
from .pipeline import (
    PipelineError,
    format_ablation_table,
    model_post_config,
    run_ablation,
    run_evaluation,
    run_prediction,
    run_training,
)
from .synth import SynthConfig, SynthesisError, generate_dataset

_ERRORS = (
    ConfigError,
    PipelineError,
    SynthesisError,
    CheckpointError,
    AudioIOError,
    AnnotationError,
    DivergenceError,
    OSError,
)


def _load_config(args) -> RunConfig:
    run = load_run_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        run.training.seed = args.seed
    if getattr(args, "repeats", None) is not None:
        run.training.repeats = args.repeats
    return run.validate()


def cmd_synth(args) -> int:
    try:
        config = SynthConfig(
            n_clips=args.clips,
            clip_seconds=args.clip_seconds,
            seed=args.seed if args.seed is not None else 0,
        )
    except ValueError as exc:
        raise SynthesisError(str(exc)) from None
    manifest = generate_dataset(config, args.out)
    print(
        f"wrote {config.n_clips} clips ({config.clip_seconds:g} s each, "
        f"classes: {', '.join(config.class_labels)}) to {args.out}"
    )
    print(f"labels: {manifest.strong_path.name}, {manifest.weak_path.name}")
    return 0


def cmd_train(args) -> int:
    run = _load_config(args)
    if not run.data.train_dir:
        raise PipelineError("config is missing [data] train_dir")
    artifacts = run_training(run, args.out)
    for art in artifacts:
        print(f"seed {art.seed}: final loss {art.final_loss:.6f} -> {art.checkpoint_path}")
    print(f"resolved config: {Path(args.out) / 'config_resolved.ini'}")
    return 0


def cmd_predict(args) -> int:
    run = _load_config(args)
    post = model_post_config(run, load_checkpoint(args.checkpoint).config)
    # features are cached beside the audio only where a config's [data] asks
    cache = {"cache": run.data.cache_features} if args.config else {}
    events_path, tags_path = run_prediction(
        args.checkpoint, args.audio, args.out, post=post, rate=run.data.sample_rate, **cache
    )
    with open(events_path, encoding="utf-8") as fh:
        n_events = sum(1 for _ in fh)
    print(f"events: {events_path} ({n_events} rows)")
    print(f"clip tags: {tags_path}")
    return 0


def cmd_evaluate(args) -> int:
    run = _load_config(args)
    if args.protocol:
        run.eval.protocol = args.protocol
        run.validate()
    reports = run_evaluation(args.refs, args.preds, run)
    for protocol, report in sorted(reports.items()):
        if protocol == "event":
            print(
                f"protocol: event (onset collar {run.eval.onset_collar:.3f} s, "
                f"offset tolerance max({run.eval.offset_tolerance:.3f} s, "
                f"20% of event duration))"
            )
        else:
            print(f"protocol: segment (segment length {run.eval.segment_length:.3f} s)")
        print(format_report(report), end="")
        print()
    return 0


def cmd_ablate(args) -> int:
    run = _load_config(args)

    def progress(done, total, branches, score):
        print(f"[{done}/{total}] {' + '.join(branches)}: {score:.3f}", file=sys.stderr)

    rows = run_ablation(run, log_fn=progress)
    table = format_ablation_table(rows, run.eval.protocol)
    print(table, end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "ablation.md").write_text(table, encoding="utf-8")
        print(f"table written to {out_dir / 'ablation.md'}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbsed",
        description="Multi-branch weakly supervised sound event detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labelled dataset")
    p.add_argument("--clips", type=int, required=True, help="number of clips")
    p.add_argument("--clip-seconds", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train models from a run config")
    p.add_argument("--config", required=True, help="run config INI file")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--repeats", type=int, default=None, help="train seeds seed..seed+n-1")
    p.add_argument("--out", required=True, help="artifact directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write event and tag TSVs for a directory of WAVs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--audio", required=True, help="directory of .wav files")
    p.add_argument("--config", default=None, help="run config; post-process as ablate does")
    p.add_argument("--out", required=True, help="output events TSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predicted events against references")
    p.add_argument("--refs", required=True, help="reference events TSV")
    p.add_argument("--preds", required=True, help="predicted events TSV")
    p.add_argument("--config", default=None)
    p.add_argument("--protocol", choices=("event", "segment", "both"), default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train and score every branch combination")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--out", default=None, help="directory for the markdown table")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of mbsed: one workload per run, timed end to end or traced by layer.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is ``src/mbsed`` of the checkout
that holds this file. A run sets up the workload's inputs SETUP_REPEATS
times (the median is ``setup_s``), runs whole rounds of the workload until
``--seconds`` have passed, checks the outputs, and prints a summary and
then, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
rounds alternate between untraced and traced; the metrics are the
per-layer numbers of the traced rounds plus the tracing overhead, the
ratio of the two kinds of round. A failed check exits with code 1 and
prints no result.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# reported as seen; the benchmark sets none of them
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer metric -> (span name, denominator): "unit" is the workload's
# step, clip or job in the traced rounds; "call" is one call of the layer
# over set-up and traced rounds
OP_LAYERS = ("conv2d", "batch_norm", "relu", "reduce_max", "reshape", "transpose",
             "matmul", "softmax", "sigmoid", "other")
PER_LAYER = {
    "synth.clip_s": ("synth.clip", "call"),
    "audio.load_audio_s": ("audio.load_audio", "call"),
    "audio.logmel_s": ("audio.logmel", "call"),
    "audio.write_features_s": ("audio.write_features", "call"),
    "audio.read_features_s": ("audio.read_features", "call"),
    **{f"autodiff.{op}.fwd_s": (f"autodiff.{op}.fwd", "unit") for op in OP_LAYERS},
    "autodiff.backward_s": ("autodiff.backward", "unit"),
    "model.encode_s": ("model.encode", "unit"),
    "model.loss_s": ("model.loss", "unit"),
    "model.adam_s": ("model.adam", "unit"),
    "model.predict_s": ("model.predict", "unit"),
    "model.save_checkpoint_s": ("model.save_checkpoint", "call"),
    "model.load_checkpoint_s": ("model.load_checkpoint", "call"),
    "pooling.clip_probabilities_s": ("pooling.clip_probabilities", "unit"),
    "pooling.frame_probabilities_s": ("pooling.frame_probabilities", "unit"),
    "postprocess.probs_to_events_s": ("postprocess.probs_to_events", "unit"),
    "events.write_events_tsv_s": ("events.write_events_tsv", "call"),
    "events.read_events_tsv_s": ("events.read_events_tsv", "call"),
    "metrics.event_based_f1_s": ("metrics.event_based_f1", "call"),
    "metrics.segment_based_f1_s": ("metrics.segment_based_f1", "call"),
    "pipeline.load_dataset_s": ("pipeline.load_dataset", "call"),
}


def import_program():
    """Put the checkout's src/ first on the path and import mbsed from it."""
    src = ROOT / "src"
    if not (src / "mbsed" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'mbsed'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import mbsed

    if Path(mbsed.__file__).resolve().parent != src / "mbsed":
        sys.exit(f"error: imported mbsed from {mbsed.__file__}, not from {src}")


def peak_rss_mb() -> float:
    """ru_maxrss of this process plus that of its largest waited-for child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def merge(into: dict, totals: dict) -> None:
    for key in ("self_s", "calls"):
        for name, value in totals[key].items():
            into[key][name] = into[key].get(name, 0) + value
    into["ops"] += totals["ops"]
    into["op_bytes"] += totals["op_bytes"]


def empty_totals() -> dict:
    return {"self_s": {}, "calls": {}, "ops": 0, "op_bytes": 0}


class AblationJobSpans:
    """Per-job spans from ablation pool workers, passed back through files.

    While installed, ``pipeline._ablation_run`` is replaced by a wrapper
    that resets the worker's copy of the tracer, runs the job, and writes
    the job's totals and wall seconds to one JSON file. Workers are forked
    from this process, so they see the wrapper and the installed spans.
    """

    def __init__(self, tracer, out_dir: Path):
        from mbsed import pipeline

        self.pipeline = pipeline
        self.original = pipeline._ablation_run
        self.tracer = tracer
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

    def install(self):
        original, tracer, out_dir = self.original, self.tracer, self.out_dir

        @functools.wraps(original)
        def job(args):
            tracer.reset()
            start = time.perf_counter()
            score = original(args)
            totals = tracer.take()
            totals["job_s"] = time.perf_counter() - start
            path = out_dir / f"{os.getpid()}-{time.monotonic_ns()}.json"
            path.write_text(json.dumps(totals), encoding="utf-8")
            return score

        self.pipeline._ablation_run = job

    def uninstall(self):
        self.pipeline._ablation_run = self.original

    def collect(self) -> list[dict]:
        jobs = []
        for path in sorted(self.out_dir.glob("*.json")):
            jobs.append(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()
        return jobs


def per_layer_metrics(setup: dict, rounds: dict, units: int, jobs: list[dict],
                      workers: int, traced_wall: float, overhead: float) -> dict:
    both = empty_totals()
    merge(both, setup)
    merge(both, rounds)
    out = {}
    for metric, (span, per) in PER_LAYER.items():
        if per == "unit":
            value = rounds["self_s"].get(span, 0.0) / units
        else:
            calls = both["calls"].get(span, 0)
            value = both["self_s"].get(span, 0.0) / calls if calls else 0.0
        out[metric] = (value, "s")
    out["autodiff.ops_per_step"] = (rounds["ops"] / units, "count")
    out["autodiff.out_bytes_per_step"] = (rounds["op_bytes"] / units, "B")
    job_s = sum(j["job_s"] for j in jobs)
    out["pipeline.ablate.job_s"] = (job_s / len(jobs) if jobs else 0.0, "s")
    out["pipeline.ablate.dispatch_s"] = (
        (traced_wall * workers - job_s) / len(jobs) if jobs else 0.0, "s")
    out["trace.overhead_pct"] = (100.0 * overhead, "%")
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed)
    tracer = Tracer()
    if trace:
        tracer.install()

    setup_times = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(work / f"setup{i}")
        setup_times.append(time.perf_counter() - start)
    if trace:
        tracer.uninstall()
    setup_totals = tracer.take()
    for i in range(SETUP_REPEATS - 1):
        shutil.rmtree(work / f"setup{i}")

    jobs_spans = AblationJobSpans(tracer, work / "job_spans") if trace else None
    # wall seconds per round, untraced (False) and traced (True)
    round_s = {False: [], True: []}
    samples, outputs = [], []
    round_totals, jobs = empty_totals(), []
    begin = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced rounds, untraced first
        tracing = trace and len(round_s[False]) > len(round_s[True])
        if tracing:
            tracer.install()
            jobs_spans.install()
        start = time.perf_counter()
        output, round_samples = workload.round(state)
        elapsed = time.perf_counter() - start
        outputs.append(output)
        round_s[tracing].append(elapsed)
        if tracing:
            jobs_spans.uninstall()
            tracer.uninstall()
            merge(round_totals, tracer.take())
            for job in jobs_spans.collect():
                merge(round_totals, job)
                jobs.append(job)
        else:
            samples += round_samples
        if time.perf_counter() - begin >= seconds and (round_s[True] or not trace):
            break

    workload.check(state, outputs)
    rounds = len(outputs)
    sample_s = statistics.median(samples)
    if trace:
        overhead = statistics.median(round_s[True]) / statistics.median(round_s[False]) - 1.0
        metrics = per_layer_metrics(
            setup_totals, round_totals, workload.units * len(round_s[True]), jobs,
            getattr(workload, "WORKERS", 1), sum(round_s[True]), overhead,
        )
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "items_per_s": (workload.items_per_sample / sample_s, "items/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    blas = {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARIABLES}
    summary = {
        "rounds": rounds,
        "samples": len(samples),
        "sample_s": sample_s,
        "setup_times_s": setup_times,
        "blas_threads": blas,
        "cpus": len(os.sched_getaffinity(0)),
        **workload.summary(state, outputs, sample_s),
    }
    for name, value in summary.items():
        print(f"{workload_name}  {name:<32} {value}")
    for name, (value, unit) in metrics.items():
        print(f"{workload_name}  {name:<32} {value:.6g} {unit}")
    return {
        "correct": True,
        "attempted": rounds * workload.items_per_round,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-small", "predict-eval", "ablate-compact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from oracle import CheckFailed

    work = ROOT / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except CheckFailed as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

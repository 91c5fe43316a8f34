"""Spans around calls into mbsed, installed by wrapping module attributes.

``Tracer.install`` replaces each target function with a wrapper in every
``mbsed`` module namespace that binds it (``from .x import f`` makes a
second binding that patching ``mbsed.x.f`` alone would miss) and each
target method on its class. A wrapper records a span; a span's self time
is its duration minus the time of the spans it encloses. Spans are summed
per layer name in memory. ``uninstall`` puts every original back.

An autodiff op that encloses no other op span is a primitive op: it is
counted and the bytes of its output are summed. Composite ops such as
``linear`` therefore count once, through the ops they call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# autodiff ops reported on their own; every other op is "autodiff.other"
NAMED_OPS = (
    "conv2d", "batch_norm", "relu", "reduce_max", "reshape", "transpose",
    "matmul", "softmax", "sigmoid",
)
# public functions of mbsed.autodiff that are not ops
NOT_OPS = ("as_tensor", "grad_check")


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.ops = 0
        self.op_bytes = 0
        # one [child seconds, encloses an op] pair per open span
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.ops = 0
        self.op_bytes = 0
        self._stack.clear()

    def take(self) -> dict:
        """Totals recorded since the last take or reset, then reset."""
        totals = {
            "self_s": dict(self.self_s), "calls": dict(self.calls),
            "ops": self.ops, "op_bytes": self.op_bytes,
        }
        self.reset()
        return totals

    def span(self, name: str, fn, op: bool = False):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, False]
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.self_s[name] += elapsed - frame[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] = stack[-1][1] or op
            if op and not frame[1]:
                self.ops += 1
                self.op_bytes += out.data.nbytes
            return out

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_function(self, fn, name: str, op: bool = False) -> None:
        wrapper = self.span(name, fn, op)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "mbsed" or mod_name.startswith("mbsed."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)

    def wrap_method(self, cls, attr: str, name: str) -> None:
        self._patch(cls, attr, self.span(name, cls.__dict__[attr]))

    def install(self) -> None:
        from mbsed import audio, autodiff, events, metrics, model, pipeline, pooling, postprocess, synth

        for attr, fn in vars(autodiff).items():
            if (inspect.isfunction(fn) and fn.__module__ == autodiff.__name__
                    and not attr.startswith("_") and attr not in NOT_OPS):
                layer = attr if attr in NAMED_OPS else "other"
                self.wrap_function(fn, f"autodiff.{layer}.fwd", op=True)
        self.wrap_method(autodiff.Tensor, "backward", "autodiff.backward")
        self.wrap_method(model.Model, "encode", "model.encode")
        self.wrap_method(model.Model, "branch_clip_probs", "model.loss")
        self.wrap_method(model.Model, "predict", "model.predict")
        self.wrap_method(model.Adam, "step", "model.adam")
        functions = [
            (model.clip_loss, "model.loss"),
            (model.total_loss, "model.loss"),
            (model.save_checkpoint, "model.save_checkpoint"),
            (model.load_checkpoint, "model.load_checkpoint"),
            (pooling.clip_probabilities, "pooling.clip_probabilities"),
            (pooling.frame_probabilities, "pooling.frame_probabilities"),
            (postprocess.probs_to_events, "postprocess.probs_to_events"),
            (events.write_events_tsv, "events.write_events_tsv"),
            (events.read_events_tsv, "events.read_events_tsv"),
            (metrics.event_based_f1, "metrics.event_based_f1"),
            (metrics.segment_based_f1, "metrics.segment_based_f1"),
            (pipeline.load_dataset, "pipeline.load_dataset"),
            (audio.load_audio, "audio.load_audio"),
            (audio.logmel, "audio.logmel"),
            (audio.write_features, "audio.write_features"),
            (audio.read_features, "audio.read_features"),
            (synth.synthesize_clip, "synth.clip"),
        ]
        for fn, name in functions:
            self.wrap_function(fn, name)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

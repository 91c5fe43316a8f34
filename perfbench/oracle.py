"""Checks on the program's outputs that do not use the program's own answers.

The scorer here implements the event- and segment-based protocols from
their definitions, on events parsed straight from the TSV text, so a fault
in ``mbsed.events``, ``mbsed.metrics`` or ``mbsed.pipeline`` cannot hide
behind itself. Events are plain ``(clip_id, label, onset, offset)`` tuples.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# TSV parsing


def parse_events_tsv(text: str) -> list[tuple[str, str, float, float]]:
    """``clip<TAB>onset<TAB>offset<TAB>label`` lines into event tuples."""
    events = []
    for line in text.splitlines():
        if not line:
            continue
        clip_id, onset, offset, label = line.split("\t")
        events.append((clip_id, label, float(onset), float(offset)))
    return events


def parse_tags_tsv(text: str) -> dict[str, dict[str, float]]:
    """``clip<TAB>label<TAB>probability`` lines into {clip: {label: p}}."""
    tags: dict[str, dict[str, float]] = {}
    for line in text.splitlines():
        if not line:
            continue
        clip_id, label, prob = line.split("\t")
        row = tags.setdefault(clip_id, {})
        require(label not in row, f"{clip_id}: duplicate tag row for {label}")
        row[label] = float(prob)
    return tags


# ---------------------------------------------------------------------------
# scoring


def _macro(counts: dict[str, list[int]]) -> float:
    """Mean over classes of 2tp / (2tp + fp + fn); a class with no tp scores 0."""
    if not counts:
        return 1.0
    total = 0.0
    for tp, fp, fn in counts.values():
        total += 2.0 * tp / (2.0 * tp + fp + fn) if tp else 0.0
    return total / len(counts)


def _by_clip_and_label(events) -> dict[tuple[str, str], list[tuple[float, float]]]:
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for clip_id, label, onset, offset in events:
        groups.setdefault((clip_id, label), []).append((onset, offset))
    return groups


def event_f1(refs, preds, onset_collar: float = 0.2, offset_tolerance: float = 0.2,
             offset_fraction: float = 0.2) -> float:
    """Macro F1 of greedy collar matching.

    Per clip and class, references in (onset, offset) order each take the
    earliest unmatched prediction, in (onset, offset) order, whose onset
    is within the collar and whose offset is within
    max(offset_tolerance, offset_fraction * reference duration).
    """
    ref_groups, pred_groups = _by_clip_and_label(refs), _by_clip_and_label(preds)
    counts: dict[str, list[int]] = {}
    for key in set(ref_groups) | set(pred_groups):
        group_refs = sorted(ref_groups.get(key, []))
        free = sorted(pred_groups.get(key, []))
        matched = 0
        for onset, offset in group_refs:
            tolerance = max(offset_tolerance, offset_fraction * (offset - onset))
            for k, (p_on, p_off) in enumerate(free):
                if abs(p_on - onset) <= onset_collar and abs(p_off - offset) <= tolerance:
                    del free[k]
                    matched += 1
                    break
        c = counts.setdefault(key[1], [0, 0, 0])
        c[0] += matched
        c[1] += len(pred_groups.get(key, [])) - matched
        c[2] += len(group_refs) - matched
    return _macro(counts)


def _active(intervals, segment_length: float, n_segments: int) -> set[int]:
    """Segments k with positive-length overlap of [k*L, k*L + L) and an event."""
    active = set()
    for onset, offset in intervals:
        for k in range(n_segments):
            lo = k * segment_length
            if min(offset, lo + segment_length) > max(onset, lo):
                active.add(k)
    return active


def segment_f1(refs, preds, clip_duration: float, segment_length: float = 1.0) -> float:
    """Macro F1 over fixed segments; a class is active where any event overlaps."""
    n_segments = math.ceil(clip_duration / segment_length)
    ref_groups, pred_groups = _by_clip_and_label(refs), _by_clip_and_label(preds)
    counts: dict[str, list[int]] = {}
    for key in set(ref_groups) | set(pred_groups):
        ref_on = _active(ref_groups.get(key, []), segment_length, n_segments)
        pred_on = _active(pred_groups.get(key, []), segment_length, n_segments)
        c = counts.setdefault(key[1], [0, 0, 0])
        c[0] += len(ref_on & pred_on)
        c[1] += len(pred_on - ref_on)
        c[2] += len(ref_on - pred_on)
    return _macro(counts)


# ---------------------------------------------------------------------------
# properties of predicted events and tags


def check_events(events, clip_ids, labels, clip_duration: float) -> None:
    """Every event lies in [0, duration], onset < offset, on a known clip and label."""
    known_clips, known_labels = set(clip_ids), set(labels)
    for clip_id, label, onset, offset in events:
        where = f"event {clip_id} {label} [{onset}, {offset}]"
        require(clip_id in known_clips, f"{where}: unknown clip")
        require(label in known_labels, f"{where}: unknown label")
        require(0.0 <= onset < offset <= clip_duration, f"{where}: outside [0, {clip_duration}]")


def check_tags(tags, events, clip_ids, labels, tag_threshold: float, decimals: int = 6) -> None:
    """One row per clip and class with p in (0, 1); gated-out classes have no events.

    Probabilities are read back at ``decimals`` places, so a class counts as
    gated out only when its written value is below the threshold by more
    than the rounding half-step.
    """
    require(sorted(tags) == sorted(clip_ids), "tag rows do not cover exactly the predicted clips")
    half_step = 0.5 * 10.0 ** -decimals
    with_events = {(clip_id, label) for clip_id, label, _, _ in events}
    for clip_id in clip_ids:
        row = tags[clip_id]
        require(sorted(row) == sorted(labels), f"{clip_id}: tag rows {sorted(row)} != {sorted(labels)}")
        for label, p in row.items():
            require(0.0 < p < 1.0, f"{clip_id} {label}: tag probability {p} outside (0, 1)")
            if p <= tag_threshold - half_step:
                require((clip_id, label) not in with_events,
                        f"{clip_id} {label}: events despite tag probability {p} <= {tag_threshold}")


# ---------------------------------------------------------------------------
# gradient


def directional_fd_error(loss_fn, params, rng: np.random.Generator, eps: float = 1e-6,
                         no_grad=contextlib.nullcontext) -> float:
    """Gap between the tape's directional derivative and central differences.

    ``loss_fn()`` builds the scalar loss from the current parameter values;
    ``params`` are the trainable tensors. One random unit direction d over
    all parameters is probed, and the gap
    |g.d - (L(p + eps d) - L(p - eps d)) / 2 eps| is returned as a share of
    |g|, the largest directional derivative (a random d in many dimensions
    makes g.d itself small). A small eps keeps relu and max-pool kinks
    crossed by the probe rare and their effect small. The two probes run
    inside ``no_grad()`` so they record no tape.
    """
    for p in params:
        p.zero_grad()
    loss_fn().backward()
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    directions = [rng.standard_normal(p.data.shape) for p in params]
    norm = math.sqrt(sum(float(np.sum(d * d)) for d in directions))
    directions = [d / norm for d in directions]
    analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, directions))
    grad_norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    originals = [p.data.copy() for p in params]
    try:
        values = []
        for sign in (1.0, -1.0):
            for p, d, orig in zip(params, directions, originals):
                p.data[...] = orig + sign * eps * d
            with no_grad():
                values.append(loss_fn().item())
    finally:
        for p, orig in zip(params, originals):
            p.data[...] = orig
    numeric = (values[0] - values[1]) / (2.0 * eps)
    return abs(analytic - numeric) / max(grad_norm, 1e-12)

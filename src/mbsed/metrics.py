"""Event-based and segment-based macro F1 for sound event detection.

Event protocol: greedy one-to-one matching per clip and class, references
taken in onset order, each matched to the first unmatched prediction whose
onset lies within a collar and whose offset lies within a tolerance that
grows with the reference duration. Segment protocol: the timeline is cut
into fixed segments and a class counts as active in a segment when any of
its events overlaps it with positive measure.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .events import EventAnnotation

ONSET_COLLAR = 0.2
OFFSET_TOLERANCE = 0.2
OFFSET_DURATION_FRACTION = 0.2
SEGMENT_LENGTH = 1.0


@dataclass(frozen=True)
class ClassScore:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int


@dataclass
class EvalReport:
    protocol: str
    per_class: dict[str, ClassScore]
    macro_f1: float


def _score(tp: int, fp: int, fn: int) -> ClassScore:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ClassScore(precision, recall, f1, tp, fp, fn)


def macro_average(f1_values) -> float:
    values = list(f1_values)
    if not values:
        raise ValueError("macro average of an empty class list is undefined")
    return float(np.mean(values))


def _build_report(protocol: str, counts: dict[str, list[int]]) -> EvalReport:
    per_class = {label: _score(*counts[label]) for label in sorted(counts)}
    # no classes anywhere means nothing to detect and nothing detected
    macro = macro_average(s.f1 for s in per_class.values()) if per_class else 1.0
    return EvalReport(protocol, per_class, macro)


def _group(events) -> dict[tuple[str, str], list[EventAnnotation]]:
    groups = defaultdict(list)
    for e in events:
        groups[(e.clip_id, e.label)].append(e)
    return groups


def match_events(
    refs: list[EventAnnotation],
    preds: list[EventAnnotation],
    onset_collar: float = ONSET_COLLAR,
    offset_tolerance: float = OFFSET_TOLERANCE,
) -> list[tuple[int, int]]:
    """Greedy matching inside one clip/class group; returns index pairs."""
    refs_order = sorted(range(len(refs)), key=lambda i: (refs[i].onset, refs[i].offset))
    preds_order = sorted(range(len(preds)), key=lambda j: (preds[j].onset, preds[j].offset))
    taken = set()
    pairs = []
    for i in refs_order:
        ref = refs[i]
        tolerance = max(offset_tolerance, OFFSET_DURATION_FRACTION * ref.duration)
        for j in preds_order:
            if j in taken:
                continue
            if (
                abs(preds[j].onset - ref.onset) <= onset_collar
                and abs(preds[j].offset - ref.offset) <= tolerance
            ):
                taken.add(j)
                pairs.append((i, j))
                break
    return pairs


def event_based_f1(
    refs,
    preds,
    onset_collar: float = ONSET_COLLAR,
    offset_tolerance: float = OFFSET_TOLERANCE,
) -> EvalReport:
    ref_groups = _group(refs)
    pred_groups = _group(preds)
    counts: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for key in set(ref_groups) | set(pred_groups):
        _, label = key
        group_refs = ref_groups.get(key, [])
        group_preds = pred_groups.get(key, [])
        matched = len(match_events(group_refs, group_preds, onset_collar, offset_tolerance))
        counts[label][0] += matched
        counts[label][1] += len(group_preds) - matched
        counts[label][2] += len(group_refs) - matched
    return _build_report("event", dict(counts))


def active_segments(events, segment_length: float, n_segments: int) -> np.ndarray:
    """Boolean activity per segment; activation needs positive overlap."""
    mask = np.zeros(n_segments, dtype=bool)
    for e in events:
        first = int(np.floor(e.onset / segment_length))
        last = int(np.ceil(e.offset / segment_length))
        for k in range(max(first, 0), min(last, n_segments)):
            lo = k * segment_length
            hi = lo + segment_length
            if min(e.offset, hi) - max(e.onset, lo) > 0.0:
                mask[k] = True
    return mask


def segment_based_f1(
    refs,
    preds,
    segment_length: float = SEGMENT_LENGTH,
    clip_duration: float = 10.0,
) -> EvalReport:
    if segment_length <= 0.0:
        raise ValueError(f"segment length must be positive, got {segment_length}")
    n_segments = int(np.ceil(clip_duration / segment_length))
    ref_groups = _group(refs)
    pred_groups = _group(preds)
    counts: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for key in set(ref_groups) | set(pred_groups):
        _, label = key
        ref_mask = active_segments(ref_groups.get(key, []), segment_length, n_segments)
        pred_mask = active_segments(pred_groups.get(key, []), segment_length, n_segments)
        counts[label][0] += int(np.sum(ref_mask & pred_mask))
        counts[label][1] += int(np.sum(~ref_mask & pred_mask))
        counts[label][2] += int(np.sum(ref_mask & ~pred_mask))
    return _build_report("segment", dict(counts))


def format_report(report: EvalReport) -> str:
    lines = []
    for label in sorted(report.per_class):
        s = report.per_class[label]
        lines.append(
            f"{label}\t{s.precision:.6f}\t{s.recall:.6f}\t{s.f1:.6f}\t{s.tp}\t{s.fp}\t{s.fn}"
        )
    lines.append(f"macro_f1\t{report.macro_f1:.6f}")
    return "\n".join(lines) + "\n"

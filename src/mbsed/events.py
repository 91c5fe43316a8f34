"""Event annotations and the TSV formats used for labels and predictions.

Strong labels: one event per line, `clip_id<TAB>onset<TAB>offset<TAB>label`
with times in seconds (written with 6 decimals). Weak labels: one clip per
line, `clip_id<TAB>comma-separated-labels`, empty second column allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class AnnotationError(ValueError):
    """Malformed annotation line or impossible event times."""


@dataclass(frozen=True)
class EventAnnotation:
    clip_id: str
    label: str
    onset: float
    offset: float

    def __post_init__(self):
        if not (math.isfinite(self.onset) and math.isfinite(self.offset)):
            raise AnnotationError(f"non-finite event times ({self.onset}, {self.offset})")
        if self.onset < 0.0:
            raise AnnotationError(f"negative onset {self.onset}")
        if self.offset <= self.onset:
            raise AnnotationError(
                f"offset {self.offset} must be greater than onset {self.onset}"
            )

    @property
    def duration(self) -> float:
        return self.offset - self.onset


def sort_events(events) -> list[EventAnnotation]:
    return sorted(events, key=lambda e: (e.clip_id, e.onset, e.offset, e.label))


def write_events_tsv(path, events) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in sort_events(events):
            fh.write(f"{e.clip_id}\t{e.onset:.6f}\t{e.offset:.6f}\t{e.label}\n")


def _lines(path) -> list[tuple[int, str]]:
    """(line number, text) of each non-empty line of a UTF-8 text file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise AnnotationError(f"cannot read {path}: {exc}") from None
    return [(lineno, line) for lineno, line in enumerate(text.split("\n"), start=1) if line]


def read_events_tsv(path) -> list[EventAnnotation]:
    events = []
    for lineno, line in _lines(path):
        parts = line.split("\t")
        if len(parts) != 4:
            raise AnnotationError(
                f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}"
            )
        clip_id, onset, offset, label = parts
        try:
            event = EventAnnotation(clip_id, label, float(onset), float(offset))
        except ValueError as exc:
            raise AnnotationError(f"{path}:{lineno}: {exc}") from None
        events.append(event)
    return events


def write_weak_labels_tsv(path, weak: dict[str, list[str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for clip_id in sorted(weak):
            fh.write(f"{clip_id}\t{','.join(sorted(weak[clip_id]))}\n")


def read_weak_labels_tsv(path) -> dict[str, list[str]]:
    weak = {}
    for lineno, line in _lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise AnnotationError(
                f"{path}:{lineno}: expected 2 tab-separated fields, got {len(parts)}"
            )
        clip_id, labels = parts
        if clip_id in weak:
            raise AnnotationError(f"{path}:{lineno}: duplicate clip id {clip_id!r}")
        weak[clip_id] = [l for l in labels.split(",") if l]
    return weak

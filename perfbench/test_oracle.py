"""Tests of the benchmark's own checks, on hand-worked cases.

    python3 -m pytest -q perfbench/test_oracle.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from oracle import (
    CheckFailed,
    check_events,
    check_tags,
    directional_fd_error,
    event_f1,
    parse_events_tsv,
    parse_tags_tsv,
    segment_f1,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def ev(onset, offset, label="a", clip="c1"):
    return (clip, label, onset, offset)


# ---------------------------------------------------------------------------
# event-based F1


def test_event_match_inside_collar():
    assert event_f1([ev(1.0, 2.0)], [ev(1.1, 2.1)]) == 1.0


def test_event_onset_outside_collar():
    # tp 0, fp 1, fn 1
    assert event_f1([ev(1.0, 2.0)], [ev(1.3, 2.0)]) == 0.0


def test_event_offset_tolerance_grows_with_duration():
    # a 3 s reference tolerates 0.2 * 3 = 0.6 s of offset error, a 1 s one 0.2 s
    assert event_f1([ev(0.0, 3.0)], [ev(0.1, 3.5)]) == 1.0
    assert event_f1([ev(0.0, 1.0)], [ev(0.1, 1.5)]) == 0.0


def test_event_greedy_in_onset_order():
    # the earlier reference takes the only prediction: tp 1, fp 0, fn 1 -> 2/3
    refs = [ev(0.15, 1.1), ev(0.0, 1.0)]
    assert event_f1(refs, [ev(0.1, 1.05)]) == pytest.approx(2 / 3, abs=1e-15)


def test_event_classes_and_clips_kept_apart():
    refs = [ev(0.0, 1.0, "a"), ev(0.0, 1.0, "b", clip="c2")]
    preds = [ev(0.0, 1.0, "a"), ev(0.0, 1.0, "b", clip="c1")]
    # a: tp 1 -> 1; b: fp 1, fn 1 -> 0; macro 0.5
    assert event_f1(refs, preds) == 0.5


def test_empty_scores_one():
    assert event_f1([], []) == 1.0
    assert segment_f1([], [], 10.0) == 1.0


# ---------------------------------------------------------------------------
# segment-based F1


def test_segment_counts():
    # ref active in segments {0, 1}, prediction in {1}: tp 1, fn 1 -> 2/3
    assert segment_f1([ev(0.5, 1.5)], [ev(1.0, 2.0)], 3.0) == pytest.approx(2 / 3, abs=1e-15)


def test_segment_touching_boundary_is_not_overlap():
    # [0, 1] touches segment 1 only at a point
    assert segment_f1([ev(0.0, 1.0)], [ev(1.0, 2.0)], 3.0) == 0.0


def test_segment_clip_duration_limits_segments():
    # the prediction past the 2 s clip end falls in no segment
    assert segment_f1([ev(0.0, 1.0)], [ev(0.0, 1.0), ev(2.0, 3.0, "b")], 2.0) == 0.5


def test_segment_length():
    # 0.5 s segments: ref {0, 1}, pred {1, 2}: tp 1, fp 1, fn 1 -> 0.5
    assert segment_f1([ev(0.0, 1.0)], [ev(0.5, 1.5)], 2.0, segment_length=0.5) == 0.5


def test_scorer_agrees_with_program_on_random_cases():
    from mbsed.events import EventAnnotation
    from mbsed.metrics import event_based_f1, segment_based_f1

    rng = np.random.default_rng(0)
    for _ in range(200):
        events = []
        for _ in range(int(rng.integers(0, 12))):
            onset = float(rng.uniform(0.0, 9.0))
            events.append(ev(onset, onset + float(rng.uniform(0.05, 2.0)),
                             str(rng.choice(["a", "b", "c"])), str(rng.choice(["c1", "c2"]))))
        split = int(rng.integers(0, len(events) + 1))
        refs, preds = events[:split], events[split:]
        # jittered copies give near-misses around the collar and tolerance
        for clip, lab, on, off in refs:
            if rng.random() < 0.7:
                on2 = max(0.0, on + float(rng.normal(0, 0.15)))
                preds.append(ev(on2, max(on2 + 0.01, off + float(rng.normal(0, 0.3))), lab, clip))
        to_program = lambda es: [EventAnnotation(c, lab, on, off) for c, lab, on, off in es]
        assert event_f1(refs, preds) == pytest.approx(
            event_based_f1(to_program(refs), to_program(preds)).macro_f1, abs=1e-12)
        assert segment_f1(refs, preds, 12.0) == pytest.approx(
            segment_based_f1(to_program(refs), to_program(preds), 1.0, 12.0).macro_f1, abs=1e-12)


# ---------------------------------------------------------------------------
# TSV parsing and event properties


def test_parse_tsv():
    assert parse_events_tsv("c1\t0.500000\t1.250000\ttone\n\n") == [("c1", "tone", 0.5, 1.25)]
    assert parse_tags_tsv("c1\ttone\t0.25\nc1\tchirp\t0.75\n") == {"c1": {"tone": 0.25, "chirp": 0.75}}
    with pytest.raises(CheckFailed):
        parse_tags_tsv("c1\ttone\t0.25\nc1\ttone\t0.75\n")


@pytest.mark.parametrize("event", [
    ev(-0.1, 1.0), ev(9.5, 10.5), ev(2.0, 2.0), ev(3.0, 2.0), ev(1.0, 2.0, "z"), ev(1.0, 2.0, clip="c9"),
])
def test_check_events_rejects(event):
    with pytest.raises(CheckFailed):
        check_events([event], ["c1"], ["a", "b"], 10.0)


def test_check_events_accepts_full_clip():
    check_events([ev(0.0, 10.0)], ["c1"], ["a", "b"], 10.0)


TAGS = {"c1": {"a": 0.9, "b": 0.2}}


def test_check_tags_accepts():
    check_tags(TAGS, [ev(1.0, 2.0, "a")], ["c1"], ["a", "b"], 0.5)
    # a value written as 0.500000 may have passed a gate at 0.5 before rounding
    check_tags({"c1": {"a": 0.9, "b": 0.5}}, [ev(1.0, 2.0, "b")], ["c1"], ["a", "b"], 0.5)


@pytest.mark.parametrize("tags, events", [
    (TAGS, [ev(1.0, 2.0, "b")]),                  # gated-out class has an event
    ({"c1": {"a": 1.0, "b": 0.2}}, []),           # probability not inside (0, 1)
    ({"c1": {"a": 0.0, "b": 0.2}}, []),
    ({"c1": {"a": 0.9}}, []),                     # missing class row
    ({"c1": TAGS["c1"], "c2": TAGS["c1"]}, []),   # clip not predicted
])
def test_check_tags_rejects(tags, events):
    with pytest.raises(CheckFailed):
        check_tags(tags, events, ["c1"], ["a", "b"], 0.5)


# ---------------------------------------------------------------------------
# directional finite differences


class Param:
    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None

    def zero_grad(self):
        self.grad = None


class Loss:
    """sum(x^3) + x.y, with the gradient of x scaled by ``skew`` to plant a fault."""

    def __init__(self, x, y, skew=1.0):
        self.x, self.y, self.skew = x, y, skew

    def item(self):
        return float(np.sum(self.x.data**3) + np.sum(self.x.data * self.y.data))

    def backward(self):
        self.x.grad = self.skew * (3 * self.x.data**2 + self.y.data)
        self.y.grad = self.x.data.copy()


def test_fd_accepts_true_gradient_and_restores_params():
    x, y = Param([0.3, -1.2, 2.0]), Param([0.5, 1.5, -0.7])
    before = [x.data.copy(), y.data.copy()]
    err = directional_fd_error(lambda: Loss(x, y), [x, y], np.random.default_rng(1))
    assert err < 1e-9
    assert np.array_equal(x.data, before[0]) and np.array_equal(y.data, before[1])


def test_fd_rejects_wrong_gradient():
    x, y = Param([0.3, -1.2, 2.0]), Param([0.5, 1.5, -0.7])
    err = directional_fd_error(lambda: Loss(x, y, skew=1.001), [x, y], np.random.default_rng(1))
    assert err > 1e-5

"""Tests for event-based and segment-based macro F1 against brute oracles."""

import numpy as np
import pytest

from mbsed.events import EventAnnotation
from mbsed.metrics import (
    EvalReport,
    active_segments,
    event_based_f1,
    format_report,
    macro_average,
    match_events,
    segment_based_f1,
)


def ev(clip, label, onset, offset):
    return EventAnnotation(clip, label, onset, offset)


# ---------------------------------------------------------------------------
# oracles


def edge_ok(ref, pred):
    """Collar rule, restated independently of the implementation."""
    tolerance = max(0.2, 0.2 * (ref.offset - ref.onset))
    return abs(pred.onset - ref.onset) <= 0.2 and abs(pred.offset - ref.offset) <= tolerance


def max_matching_oracle(refs, preds):
    """Exhaustive maximum one-to-one matching size."""

    def rec(i, used):
        if i == len(refs):
            return 0
        best = rec(i + 1, used)
        for j in range(len(preds)):
            if not used & (1 << j) and edge_ok(refs[i], preds[j]):
                best = max(best, 1 + rec(i + 1, used | (1 << j)))
        return best

    return rec(0, 0)


def segment_counts_oracle(refs, preds, segment_length, clip_duration):
    """Per-segment interval-intersection rasterization, nested loops."""
    clips = sorted({e.clip_id for e in refs} | {e.clip_id for e in preds})
    labels = sorted({e.label for e in refs} | {e.label for e in preds})
    n_seg = int(np.ceil(clip_duration / segment_length))
    counts = {label: [0, 0, 0] for label in labels}
    for clip in clips:
        for label in labels:
            for k in range(n_seg):
                lo, hi = k * segment_length, (k + 1) * segment_length

                def covered(events):
                    for e in events:
                        if e.clip_id == clip and e.label == label:
                            if min(e.offset, hi) - max(e.onset, lo) > 0:
                                return True
                    return False

                r, p = covered(refs), covered(preds)
                if r and p:
                    counts[label][0] += 1
                elif p:
                    counts[label][1] += 1
                elif r:
                    counts[label][2] += 1
    return counts


def random_case(rng, classes=("A", "B"), clips=("c0",), max_events=6):
    refs, preds = [], []
    for clip in clips:
        for label in classes:
            for _ in range(int(rng.integers(0, max_events + 1))):
                onset = float(rng.uniform(0.0, 8.5))
                dur = float(rng.uniform(0.2, 3.0))
                refs.append(ev(clip, label, onset, min(onset + dur, 10.0)))
            # predictions: perturbed copies of some refs plus spurious extras
    for r in refs:
        if rng.random() < 0.7:
            on = max(0.0, r.onset + float(rng.uniform(-0.3, 0.3)))
            off = max(on + 0.05, r.offset + float(rng.uniform(-0.4, 0.4)))
            preds.append(ev(r.clip_id, r.label, on, min(off, 10.0)))
    for clip in clips:
        for label in classes:
            for _ in range(int(rng.integers(0, 3))):
                onset = float(rng.uniform(0.0, 9.0))
                preds.append(ev(clip, label, onset, min(onset + float(rng.uniform(0.2, 2.0)), 10.0)))
    return refs, preds


# ---------------------------------------------------------------------------


class TestMacroAverage:
    def test_mean(self):
        assert macro_average([1.0, 0.0]) == 0.5

    def test_single(self):
        assert macro_average([0.7]) == pytest.approx(0.7)

    def test_permutation_invariant(self):
        assert macro_average([0.1, 0.5, 0.9]) == macro_average([0.9, 0.1, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            macro_average([])


class TestEventBased:
    def test_match_within_collar(self):
        report = event_based_f1([ev("c", "A", 0.0, 1.0)], [ev("c", "A", 0.15, 1.05)])
        assert report.per_class["A"].f1 == 1.0
        assert report.macro_f1 == 1.0

    def test_onset_outside_collar(self):
        report = event_based_f1([ev("c", "A", 0.0, 1.0)], [ev("c", "A", 0.25, 1.0)])
        s = report.per_class["A"]
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)
        assert (s.tp, s.fp, s.fn) == (0, 1, 1)

    def test_offset_tolerance_scales_with_duration(self):
        # 5 s event: tolerance max(0.2, 1.0) = 1.0, so offset off by 0.9 still matches
        report = event_based_f1([ev("c", "A", 0.0, 5.0)], [ev("c", "A", 0.1, 5.9)])
        assert report.per_class["A"].tp == 1

    def test_no_cross_class_match(self):
        report = event_based_f1([ev("c", "A", 0.0, 1.0)], [ev("c", "B", 0.0, 1.0)])
        assert report.per_class["A"].fn == 1
        assert report.per_class["B"].fp == 1
        assert report.macro_f1 == 0.0

    def test_no_cross_clip_match(self):
        report = event_based_f1([ev("c1", "A", 0.0, 1.0)], [ev("c2", "A", 0.0, 1.0)])
        assert report.per_class["A"].tp == 0

    def test_one_to_one_matching(self):
        refs = [ev("c", "A", 0.0, 1.0)]
        preds = [ev("c", "A", 0.05, 1.0), ev("c", "A", 0.1, 1.05)]
        report = event_based_f1(refs, preds)
        assert (report.per_class["A"].tp, report.per_class["A"].fp) == (1, 1)

    def test_perfect_macro(self):
        refs = [ev("c", "A", 1.0, 2.0), ev("c", "B", 3.0, 4.5)]
        assert event_based_f1(refs, list(refs)).macro_f1 == 1.0

    def test_empty_predictions_zero(self):
        refs = [ev("c", "A", 1.0, 2.0), ev("c", "B", 3.0, 4.0)]
        report = event_based_f1(refs, [])
        assert report.macro_f1 == 0.0

    def test_both_empty_is_perfect(self):
        assert event_based_f1([], []).macro_f1 == 1.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        refs, preds = random_case(rng)
        base = event_based_f1(refs, preds)
        shift = 3.7
        refs2 = [ev(e.clip_id, e.label, e.onset + shift, e.offset + shift) for e in refs]
        preds2 = [ev(e.clip_id, e.label, e.onset + shift, e.offset + shift) for e in preds]
        shifted = event_based_f1(refs2, preds2)
        assert base.macro_f1 == pytest.approx(shifted.macro_f1, abs=1e-12)
        for label in base.per_class:
            assert base.per_class[label].tp == shifted.per_class[label].tp

    def test_greedy_never_beats_oracle_and_mostly_agrees(self):
        rng = np.random.default_rng(7)
        agree = 0
        cases = 200
        for _ in range(cases):
            refs, preds = random_case(rng)
            report = event_based_f1(refs, preds)
            greedy_tp = sum(s.tp for s in report.per_class.values())
            oracle_tp = 0
            for clip in {e.clip_id for e in refs} | {e.clip_id for e in preds}:
                for label in {e.label for e in refs} | {e.label for e in preds}:
                    r = [e for e in refs if e.clip_id == clip and e.label == label]
                    p = [e for e in preds if e.clip_id == clip and e.label == label]
                    oracle_tp += max_matching_oracle(r, p)
            assert greedy_tp <= oracle_tp
            if greedy_tp == oracle_tp:
                agree += 1
        assert agree >= 0.95 * cases, f"greedy agreed on {agree}/{cases}"

    def test_unmatchable_prediction_leaves_recall_alone(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            refs, preds = random_case(rng)
            if not refs:
                continue
            base = event_based_f1(refs, preds)
            # far beyond every reference onset, so no collar can reach it
            horizon = max(e.offset for e in refs) + 5.0
            extra = preds + [ev(refs[0].clip_id, refs[0].label, horizon, horizon + 1.0)]
            more = event_based_f1(refs, extra)
            for label in base.per_class:
                assert more.per_class[label].recall == base.per_class[label].recall
                assert more.per_class[label].precision <= base.per_class[label].precision

    def test_removing_prediction_never_raises_tp(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            refs, preds = random_case(rng)
            if not preds:
                continue
            base_tp = sum(s.tp for s in event_based_f1(refs, preds).per_class.values())
            drop = int(rng.integers(0, len(preds)))
            fewer = preds[:drop] + preds[drop + 1 :]
            after_tp = sum(s.tp for s in event_based_f1(refs, fewer).per_class.values())
            assert after_tp <= base_tp


class TestSegmentBased:
    def test_identical_is_one(self):
        refs = [ev("c", "A", 0.0, 3.0), ev("c", "B", 2.0, 7.0)]
        assert segment_based_f1(refs, list(refs)).macro_f1 == 1.0

    def test_counting_example(self):
        # ref active segments 0..4, pred 1..5: TP 4, FP 1, FN 1
        report = segment_based_f1([ev("c", "A", 0.0, 5.0)], [ev("c", "A", 1.0, 6.0)])
        s = report.per_class["A"]
        assert (s.tp, s.fp, s.fn) == (4, 1, 1)
        assert s.precision == pytest.approx(0.8)
        assert s.recall == pytest.approx(0.8)
        assert s.f1 == pytest.approx(0.8)

    def test_zero_measure_touch_does_not_activate(self):
        mask = active_segments([ev("c", "A", 2.0, 3.0)], 1.0, 10)
        assert mask[2] and not mask[1] and not mask[3]

    def test_split_at_boundary_invariant(self):
        whole = [ev("c", "A", 1.3, 4.0)]
        split = [ev("c", "A", 1.3, 3.0), ev("c", "A", 3.0, 4.0)]
        preds = [ev("c", "A", 0.9, 3.6)]
        a = segment_based_f1(whole, preds)
        b = segment_based_f1(split, preds)
        assert a.per_class["A"] == b.per_class["A"]

    def test_rejects_bad_segment_length(self):
        with pytest.raises(ValueError):
            segment_based_f1([], [], segment_length=0.0)

    def test_matches_rasterization_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            refs, preds = random_case(rng, clips=("c0", "c1"))
            report = segment_based_f1(refs, preds, 1.0, 10.0)
            oracle = segment_counts_oracle(refs, preds, 1.0, 10.0)
            got = {label: [s.tp, s.fp, s.fn] for label, s in report.per_class.items()}
            assert got == {k: v for k, v in oracle.items() if k in got}
            assert set(got) == set(oracle)

    def test_event_past_clip_end_is_clipped(self):
        report = segment_based_f1(
            [ev("c", "A", 9.5, 12.0)], [ev("c", "A", 9.4, 10.0)], 1.0, 10.0
        )
        assert report.per_class["A"].tp == 1
        assert report.per_class["A"].fp == 0


class TestReportFormat:
    def test_layout_and_values(self):
        report = segment_based_f1([ev("c", "A", 0.0, 5.0)], [ev("c", "A", 1.0, 6.0)])
        text = format_report(report)
        lines = text.strip().split("\n")
        assert lines[0] == "A\t0.800000\t0.800000\t0.800000\t4\t1\t1"
        assert lines[-1] == "macro_f1\t0.800000"

    def test_classes_sorted(self):
        refs = [ev("c", "B", 0.0, 1.0), ev("c", "A", 2.0, 3.0)]
        text = format_report(event_based_f1(refs, refs))
        first_cols = [line.split("\t")[0] for line in text.strip().split("\n")]
        assert first_cols == ["A", "B", "macro_f1"]

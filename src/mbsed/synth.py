"""Deterministic synthetic soundscape generator with strong annotations.

Each clip is pink-noise background plus a handful of synthetic events
drawn from four spectrally disjoint template classes. Placement, class
choice, frequencies, and SNR all come from a per-clip random stream
derived from (master seed, clip index), so datasets are reproducible
byte for byte and clips could be generated in parallel.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .audio import PIPELINE_RATE, AudioClip, write_wav
from .events import EventAnnotation, write_events_tsv, write_weak_labels_tsv

BG_RMS = 0.02
EVENT_KINDS = ("tone", "chirp", "noise_burst", "am_tone")
MANIFEST_NAME = "manifest.json"
STRONG_NAME = "strong.tsv"
WEAK_NAME = "weak.tsv"
PLACEMENT_ATTEMPTS = 200


class SynthesisError(RuntimeError):
    """Dataset constraints could not be satisfied."""


@dataclass(frozen=True)
class EventTemplate:
    """One synthetic event class confined to its own frequency band."""

    label: str
    kind: str
    freq_lo: float
    freq_hi: float
    dur_lo: float
    dur_hi: float
    attack: float = 0.02
    release: float = 0.02

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}, expected one of {EVENT_KINDS}")
        if not 0.0 < self.freq_lo < self.freq_hi:
            raise ValueError(f"bad frequency band [{self.freq_lo}, {self.freq_hi}]")
        if not 0.25 < self.dur_lo <= self.dur_hi < 4.0:
            raise ValueError(
                f"duration range [{self.dur_lo}, {self.dur_hi}] must lie within (0.25, 4)"
            )


DEFAULT_TEMPLATES = (
    EventTemplate("tone", "tone", 300.0, 600.0, 0.6, 2.0),
    EventTemplate("chirp", "chirp", 800.0, 1600.0, 0.6, 2.5),
    EventTemplate("burst", "noise_burst", 2500.0, 4000.0, 0.4, 1.5),
    EventTemplate("warble", "am_tone", 5000.0, 8000.0, 0.6, 2.0),
)


@dataclass(frozen=True)
class SynthConfig:
    n_clips: int
    clip_seconds: float = 10.0
    templates: tuple[EventTemplate, ...] = DEFAULT_TEMPLATES
    max_polyphony: int = 2
    events_min: int = 1
    events_max: int = 3
    snr_db_lo: float = 6.0
    snr_db_hi: float = 20.0
    sample_rate: int = PIPELINE_RATE
    seed: int = 0

    def __post_init__(self):
        if self.n_clips < 1:
            raise ValueError("n_clips must be positive")
        if not math.isfinite(self.clip_seconds):
            raise ValueError(f"clip_seconds must be finite, got {self.clip_seconds}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.max_polyphony < 1:
            raise ValueError("max_polyphony must be at least 1")
        if not 0 <= self.events_min <= self.events_max:
            raise ValueError(
                f"bad events range [{self.events_min}, {self.events_max}]"
            )
        if not self.templates:
            raise ValueError("at least one event template required")
        labels = [t.label for t in self.templates]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate template labels in {labels}")
        bands = sorted((t.freq_lo, t.freq_hi, t.label) for t in self.templates)
        for (lo1, hi1, l1), (lo2, hi2, l2) in zip(bands, bands[1:]):
            if lo2 < hi1:
                raise ValueError(
                    f"templates {l1!r} and {l2!r} have overlapping frequency bands"
                )
        nyquist = self.sample_rate / 2.0
        for t in self.templates:
            if t.freq_hi > nyquist:
                raise ValueError(
                    f"template {t.label!r} band exceeds the Nyquist frequency {nyquist}"
                )
        if self.templates and max(t.dur_lo for t in self.templates) >= self.clip_seconds:
            raise ValueError("clip too short for the shortest possible event")

    @property
    def class_labels(self) -> list[str]:
        return [t.label for t in self.templates]

    def to_dict(self) -> dict:
        """JSON-ready fields, templates as a list of their fields."""
        d = asdict(self)
        d["templates"] = list(d["templates"])
        return d


def _envelope(n: int, attack: float, release: float, rate: int) -> np.ndarray:
    env = np.ones(n)
    a = min(int(round(attack * rate)), n // 2)
    r = min(int(round(release * rate)), n // 2)
    if a > 0:
        env[:a] = np.linspace(0.0, 1.0, a, endpoint=False)
    if r > 0:
        env[n - r :] = np.linspace(1.0, 0.0, r + 1)[1:]
    return env


def _bandlimited_noise(rng: np.random.Generator, n: int, lo: float, hi: float, rate: int) -> np.ndarray:
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    spectrum[(freqs < lo) | (freqs > hi)] = 0.0
    return np.fft.irfft(spectrum, n=n)


def render_event(template: EventTemplate, duration: float, rng: np.random.Generator, rate: int) -> np.ndarray:
    """Unit-RMS waveform for one event; draws synthesis parameters from rng."""
    n = max(int(round(duration * rate)), 8)
    t = np.arange(n) / rate
    if template.kind == "tone":
        f = rng.uniform(template.freq_lo, template.freq_hi)
        wave = np.sin(2.0 * np.pi * f * t)
    elif template.kind == "chirp":
        f0 = rng.uniform(template.freq_lo, template.freq_hi)
        f1 = rng.uniform(template.freq_lo, template.freq_hi)
        wave = np.sin(2.0 * np.pi * (f0 * t + (f1 - f0) * t * t / (2.0 * duration)))
    elif template.kind == "noise_burst":
        wave = _bandlimited_noise(rng, n, template.freq_lo, template.freq_hi, rate)
    elif template.kind == "am_tone":
        f = rng.uniform(template.freq_lo, template.freq_hi)
        mod_rate = rng.uniform(3.0, 8.0)
        carrier = np.sin(2.0 * np.pi * f * t)
        wave = carrier * (0.6 + 0.4 * np.sin(2.0 * np.pi * mod_rate * t))
    else:  # pragma: no cover - template validation forbids this
        raise ValueError(template.kind)
    wave = wave * _envelope(n, template.attack, template.release, rate)
    rms = np.sqrt(np.mean(wave**2))
    return wave / rms if rms > 0 else wave


def _pink_noise(rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    scale = np.ones_like(freqs)
    nonzero = freqs > 0
    scale[nonzero] = 1.0 / np.sqrt(freqs[nonzero])
    scale[0] = 0.0
    pink = np.fft.irfft(spectrum * scale, n=n)
    return pink / np.sqrt(np.mean(pink**2))


def _max_polyphony(intervals: list[tuple[float, float]]) -> int:
    if not intervals:
        return 0
    points = sorted({on for on, _ in intervals})
    return max(sum(1 for on, off in intervals if on <= p < off) for p in points)


def synthesize_clip(config: SynthConfig, index: int) -> tuple[np.ndarray, list[EventAnnotation]]:
    """Render one clip and its strong annotations from stream (seed, index)."""
    rng = np.random.default_rng([config.seed, index])
    rate = config.sample_rate
    n = int(round(config.clip_seconds * rate))
    clip_id = f"clip_{index:04d}"
    mix = BG_RMS * _pink_noise(rng, n, rate)

    n_events = int(rng.integers(config.events_min, config.events_max + 1))
    placed: list[tuple[float, float]] = []
    annotations: list[EventAnnotation] = []
    for k in range(n_events):
        template = config.templates[int(rng.integers(len(config.templates)))]
        duration = float(rng.uniform(template.dur_lo, min(template.dur_hi, config.clip_seconds)))
        onset = None
        for _ in range(PLACEMENT_ATTEMPTS):
            candidate = float(rng.uniform(0.0, config.clip_seconds - duration))
            if _max_polyphony(placed + [(candidate, candidate + duration)]) <= config.max_polyphony:
                onset = candidate
                break
        if onset is None:
            raise SynthesisError(
                f"clip {clip_id}: could not place event {k + 1} of {n_events} "
                f"(duration {duration:.2f} s) within polyphony cap "
                f"{config.max_polyphony}; lower events_max, shorten durations, "
                f"or raise max_polyphony"
            )
        snr_db = float(rng.uniform(config.snr_db_lo, config.snr_db_hi))
        wave = render_event(template, duration, rng, rate) * (BG_RMS * 10.0 ** (snr_db / 20.0))
        start = int(round(onset * rate))
        stop = min(start + len(wave), n)
        mix[start:stop] += wave[: stop - start]
        placed.append((onset, onset + duration))
        annotations.append(EventAnnotation(clip_id, template.label, onset, onset + duration))

    # soft limiter: tanh is transparent at these levels but guarantees |x| < 1
    return np.tanh(mix), sorted(annotations, key=lambda e: (e.onset, e.offset, e.label))


@dataclass
class Manifest:
    config: SynthConfig
    clip_ids: list[str]
    out_dir: Path
    strong_path: Path = field(init=False)
    weak_path: Path = field(init=False)

    def __post_init__(self):
        self.strong_path = self.out_dir / STRONG_NAME
        self.weak_path = self.out_dir / WEAK_NAME

    def wav_path(self, clip_id: str) -> Path:
        return self.out_dir / f"{clip_id}.wav"


def generate_dataset(config: SynthConfig, out_dir) -> Manifest:
    """Write WAVs, strong/weak label TSVs, and a JSON manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_events: list[EventAnnotation] = []
    weak: dict[str, list[str]] = {}
    clip_ids = []
    for index in range(config.n_clips):
        samples, annotations = synthesize_clip(config, index)
        clip_id = f"clip_{index:04d}"
        write_wav(out_dir / f"{clip_id}.wav", AudioClip(samples, config.sample_rate))
        all_events.extend(annotations)
        weak[clip_id] = sorted({e.label for e in annotations})
        clip_ids.append(clip_id)
    write_events_tsv(out_dir / STRONG_NAME, all_events)
    write_weak_labels_tsv(out_dir / WEAK_NAME, weak)
    manifest = {
        "config": config.to_dict(),
        "clips": [{"clip_id": cid, "wav": f"{cid}.wav"} for cid in clip_ids],
        "strong_labels": STRONG_NAME,
        "weak_labels": WEAK_NAME,
    }
    with open(out_dir / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return Manifest(config, clip_ids, out_dir)

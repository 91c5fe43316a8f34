"""Tests for the deterministic soundscape generator."""

import filecmp
import json

import numpy as np
import pytest

from mbsed.audio import load_wav
from mbsed.events import read_events_tsv, read_weak_labels_tsv
from mbsed.synth import (
    DEFAULT_TEMPLATES,
    EventTemplate,
    SynthConfig,
    SynthesisError,
    generate_dataset,
    render_event,
    synthesize_clip,
)


def small_config(**kw):
    defaults = dict(n_clips=4, seed=7)
    defaults.update(kw)
    return SynthConfig(**defaults)


class TestTemplates:
    def test_default_bands_disjoint_and_valid(self):
        assert len(DEFAULT_TEMPLATES) == 4
        SynthConfig(n_clips=1)  # validation happens in the constructor

    def test_rejects_overlapping_bands(self):
        templates = (
            EventTemplate("a", "tone", 300.0, 900.0, 0.5, 1.0),
            EventTemplate("b", "tone", 800.0, 1600.0, 0.5, 1.0),
        )
        with pytest.raises(ValueError, match="overlapping"):
            SynthConfig(n_clips=1, templates=templates)

    def test_rejects_duration_outside_bounds(self):
        with pytest.raises(ValueError, match="0.25"):
            EventTemplate("a", "tone", 300.0, 600.0, 0.1, 1.0)
        with pytest.raises(ValueError, match="0.25"):
            EventTemplate("a", "tone", 300.0, 600.0, 0.5, 4.5)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            EventTemplate("a", "square", 300.0, 600.0, 0.5, 1.0)

    def test_rejects_band_beyond_nyquist(self):
        t = EventTemplate("a", "tone", 9000.0, 12000.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="Nyquist"):
            SynthConfig(n_clips=1, templates=(t,))

    def test_dict_json_pinned(self):
        # the manifest's "config" entry, as generate_dataset writes it
        text = json.dumps(SynthConfig(n_clips=1).to_dict(), sort_keys=True)
        assert text == (
            '{"clip_seconds": 10.0, "events_max": 3, "events_min": 1, "max_polyphony": 2, '
            '"n_clips": 1, "sample_rate": 22050, "seed": 0, "snr_db_hi": 20.0, "snr_db_lo": 6.0, '
            '"templates": ['
            '{"attack": 0.02, "dur_hi": 2.0, "dur_lo": 0.6, "freq_hi": 600.0, '
            '"freq_lo": 300.0, "kind": "tone", "label": "tone", "release": 0.02}, '
            '{"attack": 0.02, "dur_hi": 2.5, "dur_lo": 0.6, "freq_hi": 1600.0, '
            '"freq_lo": 800.0, "kind": "chirp", "label": "chirp", "release": 0.02}, '
            '{"attack": 0.02, "dur_hi": 1.5, "dur_lo": 0.4, "freq_hi": 4000.0, '
            '"freq_lo": 2500.0, "kind": "noise_burst", "label": "burst", "release": 0.02}, '
            '{"attack": 0.02, "dur_hi": 2.0, "dur_lo": 0.6, "freq_hi": 8000.0, '
            '"freq_lo": 5000.0, "kind": "am_tone", "label": "warble", "release": 0.02}]}'
        )


class TestRenderEvent:
    @pytest.mark.parametrize("template", DEFAULT_TEMPLATES, ids=lambda t: t.label)
    def test_unit_rms_and_band_confinement(self, template):
        rng = np.random.default_rng(0)
        wave = render_event(template, 1.0, rng, 22050)
        assert np.sqrt(np.mean(wave**2)) == pytest.approx(1.0, rel=1e-9)
        spectrum = np.abs(np.fft.rfft(wave))
        freqs = np.fft.rfftfreq(len(wave), d=1.0 / 22050)
        peak = freqs[np.argmax(spectrum)]
        # modulation and envelope leak a little; allow a small margin
        assert template.freq_lo - 50 <= peak <= template.freq_hi + 50

    def test_envelope_starts_and_ends_quiet(self):
        rng = np.random.default_rng(1)
        wave = render_event(DEFAULT_TEMPLATES[0], 1.0, rng, 22050)
        assert abs(wave[0]) < 0.05 * np.max(np.abs(wave))
        assert abs(wave[-1]) < 0.05 * np.max(np.abs(wave))


class TestSynthesizeClip:
    def test_samples_below_one(self):
        for index in range(5):
            samples, _ = synthesize_clip(small_config(), index)
            assert np.max(np.abs(samples)) < 1.0

    def test_annotations_inside_clip(self):
        cfg = small_config(n_clips=20, events_max=4)
        for index in range(cfg.n_clips):
            _, events = synthesize_clip(cfg, index)
            for e in events:
                assert e.onset >= 0.0
                assert e.offset <= cfg.clip_seconds + 1e-9
                assert e.clip_id == f"clip_{index:04d}"

    def test_polyphony_cap_respected(self):
        cfg = small_config(n_clips=30, events_max=5, max_polyphony=2)
        for index in range(cfg.n_clips):
            _, events = synthesize_clip(cfg, index)
            for e in events:
                overlapping = sum(
                    1 for o in events if o.onset <= e.onset < o.offset
                )
                assert overlapping <= cfg.max_polyphony

    def test_deterministic_per_clip(self):
        a, ea = synthesize_clip(small_config(), 3)
        b, eb = synthesize_clip(small_config(), 3)
        assert np.array_equal(a, b)
        assert ea == eb

    def test_clip_independent_of_n_clips(self):
        a, ea = synthesize_clip(small_config(n_clips=4), 2)
        b, eb = synthesize_clip(small_config(n_clips=100), 2)
        assert np.array_equal(a, b)
        assert ea == eb

    def test_zero_events(self):
        cfg = small_config(events_min=0, events_max=0)
        samples, events = synthesize_clip(cfg, 0)
        assert events == []
        assert len(samples) == int(cfg.clip_seconds * cfg.sample_rate)

    def test_unsatisfiable_polyphony_diagnosed(self):
        templates = (EventTemplate("long", "tone", 300.0, 600.0, 3.8, 3.9),)
        cfg = SynthConfig(
            n_clips=1,
            templates=templates,
            events_min=6,
            events_max=6,
            max_polyphony=1,
            seed=0,
        )
        with pytest.raises(SynthesisError, match="polyphony"):
            synthesize_clip(cfg, 0)

    def test_event_energy_lands_in_band(self):
        # with one template the event band must dominate the spectrum
        templates = (EventTemplate("tone", "tone", 300.0, 600.0, 1.0, 2.0),)
        cfg = SynthConfig(n_clips=1, templates=templates, events_min=3, events_max=3, seed=1)
        samples, events = synthesize_clip(cfg, 0)
        assert len(events) == 3
        spectrum = np.abs(np.fft.rfft(samples)) ** 2
        freqs = np.fft.rfftfreq(len(samples), d=1.0 / cfg.sample_rate)
        in_band = spectrum[(freqs >= 250) & (freqs <= 650)].sum()
        assert in_band > 0.5 * spectrum.sum()


class TestGenerateDataset:
    def test_layout_and_consistency(self, tmp_path):
        cfg = small_config(n_clips=6)
        manifest = generate_dataset(cfg, tmp_path / "data")
        assert manifest.clip_ids == [f"clip_{i:04d}" for i in range(6)]
        strong = read_events_tsv(manifest.strong_path)
        weak = read_weak_labels_tsv(manifest.weak_path)
        assert set(weak) == set(manifest.clip_ids)
        for clip_id in manifest.clip_ids:
            wav = load_wav(manifest.wav_path(clip_id))
            assert wav.sample_rate == cfg.sample_rate
            assert len(wav.samples) == int(cfg.clip_seconds * cfg.sample_rate)
            # weak labels are exactly the classes present in strong refs
            present = sorted({e.label for e in strong if e.clip_id == clip_id})
            assert weak[clip_id] == present

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = small_config(n_clips=5)
        m1 = generate_dataset(cfg, tmp_path / "a")
        m2 = generate_dataset(cfg, tmp_path / "b")
        for clip_id in m1.clip_ids:
            assert filecmp.cmp(m1.wav_path(clip_id), m2.wav_path(clip_id), shallow=False)
        for name in ("strong.tsv", "weak.tsv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        m1 = generate_dataset(small_config(seed=1, n_clips=2), tmp_path / "a")
        m2 = generate_dataset(small_config(seed=2, n_clips=2), tmp_path / "b")
        a = (tmp_path / "a" / "clip_0000.wav").read_bytes()
        b = (tmp_path / "b" / "clip_0000.wav").read_bytes()
        assert a != b

    def test_manifest_echoes_config(self, tmp_path):
        cfg = small_config(n_clips=2)
        generate_dataset(cfg, tmp_path / "d")
        data = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert data["config"] == cfg.to_dict()
        assert [c["clip_id"] for c in data["clips"]] == ["clip_0000", "clip_0001"]

    def test_zero_event_dataset(self, tmp_path):
        cfg = small_config(n_clips=3, events_min=0, events_max=0)
        manifest = generate_dataset(cfg, tmp_path / "d")
        assert read_events_tsv(manifest.strong_path) == []
        weak = read_weak_labels_tsv(manifest.weak_path)
        assert all(labels == [] for labels in weak.values())

"""Tests for WAV I/O, resampling, and the log-mel frontend."""

import hashlib
import math
import struct

import numpy as np
import pytest

from mbsed import audio
from mbsed.audio import (
    LOG_FLOOR,
    MIN_SAMPLE_RATE,
    PIPELINE_RATE,
    AudioClip,
    AudioIOError,
    feature_stamp,
    frame_hop_seconds,
    hz_to_mel,
    load_audio,
    load_wav,
    logmel,
    mel_filterbank,
    mel_to_hz,
    read_features,
    resample,
    write_features,
    write_wav,
)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def tone(freq, seconds=1.0, rate=PIPELINE_RATE, amp=0.5):
    t = np.arange(int(round(seconds * rate))) / rate
    return AudioClip(amp * np.sin(2.0 * np.pi * freq * t), rate)


class TestWavIO:
    def test_scaling_definition(self, tmp_path):
        samples = np.array([0, 32767, -32768], dtype=np.int16)
        path = tmp_path / "raw.wav"
        import wave

        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(samples.tobytes())
        clip = load_wav(path)
        assert clip.sample_rate == 8000
        np.testing.assert_allclose(clip.samples, [0.0, 32767 / 32768, -1.0], atol=0)

    def test_stereo_averaged(self, tmp_path):
        left = np.array([16384], dtype=np.int16)  # 0.5
        right = np.array([-16384], dtype=np.int16)  # -0.5
        interleaved = np.stack([left, right], axis=1).ravel()
        path = tmp_path / "st.wav"
        import wave

        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(interleaved.tobytes())
        clip = load_wav(path)
        assert clip.samples[0] == 0.0

    def test_round_trip_quantization_bound(self, tmp_path):
        clip = tone(440.0, seconds=0.2, rate=16000, amp=0.8)
        path = tmp_path / "t.wav"
        write_wav(path, clip)
        back = load_wav(path)
        assert back.sample_rate == 16000
        assert np.max(np.abs(back.samples - clip.samples)) <= 1.0 / 32768

    def test_full_scale_survives_write(self, tmp_path):
        clip = AudioClip(np.array([1.0, -1.0]), 8000)
        path = tmp_path / "f.wav"
        write_wav(path, clip)
        back = load_wav(path)
        assert abs(back.samples[0] - 1.0) <= 1.0 / 32768
        assert back.samples[1] == -1.0

    def test_rejects_non_wav(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"definitely not a wav file")
        with pytest.raises(AudioIOError):
            load_wav(path)

    def test_rejects_wrong_width(self, tmp_path):
        import wave

        path = tmp_path / "w8.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(8000)
            fh.writeframes(b"\x00\x10\x20\x30")
        with pytest.raises(AudioIOError, match="16-bit"):
            load_wav(path)

    def test_rejects_empty(self, tmp_path):
        import wave

        path = tmp_path / "e.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(8000)
        with pytest.raises(AudioIOError, match="no samples"):
            load_wav(path)

    def test_floor_rate_gives_full_frames(self, tmp_path):
        # a lower header rate is refused (see test_rejects_malformed_chunks)
        path = tmp_path / "r.wav"
        write_wav(path, AudioClip(np.full(10 * MIN_SAMPLE_RATE, 0.1), MIN_SAMPLE_RATE))
        assert logmel(load_wav(path)).shape == (500, 64)

    def test_rejects_malformed_chunks(self, tmp_path):
        path = tmp_path / "ok.wav"
        write_wav(path, AudioClip(np.full(100, 0.1), 22050))
        blob = path.read_bytes()
        stray = b"LIST" + struct.pack("<I", 10**6) + b"abcd"
        for bad, match in (
            (blob[:-1], "mid-frame"),  # data chunk cut inside a sample
            (blob[:36] + stray + blob[36:], "RIFF"),  # chunk size past the file
            (blob[:24] + struct.pack("<I", 0) + blob[28:], "sample rate"),
            # 1 Hz would resample to 22050 times as many samples
            (blob[:24] + struct.pack("<I", 1) + blob[28:], "sample rate"),
            (blob[:24] + struct.pack("<I", MIN_SAMPLE_RATE - 1) + blob[28:], "sample rate"),
        ):
            path.write_bytes(bad)
            with pytest.raises(AudioIOError, match=match):
                load_wav(path)


class TestResample:
    def test_identity_when_rates_match(self):
        clip = tone(100.0, seconds=0.1)
        assert resample(clip, PIPELINE_RATE) is clip

    def test_preserves_duration(self):
        clip = tone(440.0, seconds=0.5, rate=44100)
        out = resample(clip, 22050)
        assert len(out.samples) == 11025
        assert out.sample_rate == 22050

    def test_downsample_tracks_slow_sine(self):
        # a 50 Hz sine is essentially linear between 44.1 kHz samples
        clip = tone(50.0, seconds=0.2, rate=44100, amp=1.0)
        out = resample(clip, 22050)
        t = np.arange(len(out.samples)) / 22050
        np.testing.assert_allclose(out.samples, np.sin(2 * np.pi * 50.0 * t), atol=1e-4)

    def test_load_audio_resamples(self, tmp_path):
        path = tmp_path / "hi.wav"
        write_wav(path, tone(440.0, seconds=0.25, rate=44100))
        clip = load_audio(path)
        assert clip.sample_rate == PIPELINE_RATE
        assert len(clip.samples) == int(0.25 * PIPELINE_RATE)


class TestMelScale:
    def test_known_values(self):
        assert hz_to_mel(0.0) == 0.0
        # 2595 * log10(1 + 1000/700) = 999.9855...
        assert abs(hz_to_mel(1000.0) - 999.9855371) < 1e-6
        assert abs(mel_to_hz(hz_to_mel(4321.0)) - 4321.0) < 1e-9

    def test_filterbank_shape_and_range(self):
        fb = mel_filterbank(PIPELINE_RATE, 1024, 64)
        assert fb.shape == (64, 513)
        assert np.all(fb >= 0.0)
        assert np.all(fb <= 1.0)

    def test_per_bin_partition_bound(self):
        fb = mel_filterbank(PIPELINE_RATE, 1024, 64)
        assert np.all(fb.sum(axis=0) <= 1.0 + 1e-9)

    def test_interior_bins_partition_to_one(self):
        fb = mel_filterbank(PIPELINE_RATE, 1024, 64)
        sums = fb.sum(axis=0)
        centers = mel_to_hz(np.linspace(0, hz_to_mel(PIPELINE_RATE / 2), 66))
        bin_freqs = np.arange(513) * (PIPELINE_RATE / 1024)
        interior = (bin_freqs > centers[1]) & (bin_freqs < centers[-2])
        np.testing.assert_allclose(sums[interior], 1.0, atol=1e-9)

    def test_every_band_nonempty(self):
        fb = mel_filterbank(PIPELINE_RATE, 1024, 64)
        assert np.all(fb.sum(axis=1) > 0.0)

    def test_cached_filterbank_is_shared_and_read_only(self):
        fb = mel_filterbank(PIPELINE_RATE, 1024, 64)
        assert mel_filterbank(PIPELINE_RATE, 1024, 64) is fb
        assert same_bits(fb, mel_filterbank.__wrapped__(PIPELINE_RATE, 1024, 64))
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0
        # other arguments get a filterbank of their own
        assert mel_filterbank(PIPELINE_RATE, 1024, 40).shape == (40, 513)
        assert mel_filterbank(16000, 1024, 64) is not fb

    def test_features_match_an_uncached_filterbank(self, monkeypatch):
        rng = np.random.default_rng(3)
        clip = AudioClip(rng.uniform(-1, 1, 22050), PIPELINE_RATE)
        cached = logmel(clip)
        monkeypatch.setattr(audio, "mel_filterbank", mel_filterbank.__wrapped__)
        assert same_bits(cached, logmel(clip))


class TestLogmel:
    def test_ten_second_clip_is_500_by_64(self):
        clip = tone(1000.0, seconds=10.0)
        assert logmel(clip).shape == (500, 64)
        assert frame_hop_seconds(PIPELINE_RATE) == pytest.approx(0.02)

    def test_frame_count_is_ceil(self):
        for n in (441, 442, 881, 882, 1000, 22050):
            clip = AudioClip(np.zeros(n), PIPELINE_RATE)
            assert logmel(clip).shape[0] == math.ceil(n / 441), n

    def test_silence_hits_log_floor_everywhere(self):
        clip = AudioClip(np.zeros(22050), PIPELINE_RATE)
        np.testing.assert_array_equal(logmel(clip), math.log(LOG_FLOOR))

    def test_all_values_finite(self):
        rng = np.random.default_rng(0)
        clip = AudioClip(rng.uniform(-1, 1, 22050), PIPELINE_RATE)
        assert np.all(np.isfinite(logmel(clip)))

    def test_rejects_sub_hop_clip(self):
        with pytest.raises(ValueError, match="shorter than one hop"):
            logmel(AudioClip(np.zeros(440), PIPELINE_RATE))

    def test_tone_peaks_in_band_containing_frequency(self):
        clip = tone(1000.0, seconds=2.0)
        feats = logmel(clip)
        fb = mel_filterbank(PIPELINE_RATE, 1024, 64)
        nearest_bin = int(round(1000.0 / (PIPELINE_RATE / 1024)))
        expected_band = int(np.argmax(fb[:, nearest_bin]))
        interior = feats[2:-2]
        assert np.all(np.argmax(interior, axis=1) == expected_band)

    def test_doubling_waveform_adds_ln4_above_floor(self):
        rng = np.random.default_rng(1)
        base = 0.25 * rng.standard_normal(22050)
        a = logmel(AudioClip(base, PIPELINE_RATE))
        b = logmel(AudioClip(2.0 * base, PIPELINE_RATE))
        above = a > math.log(LOG_FLOOR)
        np.testing.assert_allclose(
            (b - a)[above], math.log(4.0), atol=1e-12, rtol=0
        )

    def test_floor_cells_stay_at_floor_under_scaling(self):
        # near-silence with one loud region: floored cells must not move
        samples = np.zeros(22050)
        samples[5000:6000] = 0.5
        a = logmel(AudioClip(samples, PIPELINE_RATE))
        b = logmel(AudioClip(2.0 * samples, PIPELINE_RATE))
        floored = a == math.log(LOG_FLOOR)
        assert floored.any()
        assert np.array_equal(b[floored], a[floored])

    def test_deterministic(self):
        clip = tone(523.25, seconds=1.0)
        x = logmel(clip)
        y = logmel(clip)
        assert np.array_equal(x, y)

    @pytest.mark.parametrize("rate", [PIPELINE_RATE, 44100])
    def test_same_bits_at_any_blas_thread_count(self, blas_threads, rate):
        # 513 and 1025 frequency bins: more than 384, and not a multiple of
        # 32, so OpenBLAS would round the filterbank product's sum one way
        # at one thread and another at several; logmel runs it at one
        rng = np.random.default_rng(9)
        clip = AudioClip(rng.uniform(-1, 1, 10 * rate), rate)
        feats = []
        for threads in (1, 2, 4):
            blas_threads(threads)
            feats.append(logmel(clip))
        assert same_bits(feats[0], feats[1]) and same_bits(feats[0], feats[2])


def stamp_of(wav: bytes, rate: int = 22050) -> bytes:
    """The stamp of a cache file of the features at ``rate`` of a WAV file
    whose bytes are ``wav``."""
    return feature_stamp(rate) + hashlib.sha256(wav).digest()


STAMP = stamp_of(b"wav")


class TestFeatureCache:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((17, 64))
        path = tmp_path / "c.mel"
        write_features(path, feats, STAMP)
        for stamp in (STAMP, feature_stamp(22050), b""):
            assert np.array_equal(feats, read_features(path, stamp))

    def test_stamp_digests_the_wav_file(self, tmp_path):
        wav = tmp_path / "a.wav"
        wav.write_bytes(b"wav")
        assert feature_stamp(22050, wav) == STAMP

    def test_header_layout(self, tmp_path):
        feats = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "c.mel"
        write_features(path, feats, STAMP)
        blob = path.read_bytes()
        # magic; format, rate, FFT size, hop, bands, log-mel version; SHA-256 of the WAV
        fields = struct.unpack("<8s6I32s", blob[:64])
        assert fields == (
            b"MBSEDMEL", 1, 22050, 1024, 441, 64, audio.LOGMEL_VERSION,
            hashlib.sha256(b"wav").digest(),
        )
        assert blob[64:72] == (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
        assert len(blob) == 72 + 6 * 8
        assert np.frombuffer(blob[72:], dtype="<f8")[3] == 3.0

    @pytest.mark.parametrize(
        "other",
        ["wav", "rate", "logmel_version", "format", "headerless", "cut_in_stamp"],
    )
    def test_other_source_is_stale(self, tmp_path, monkeypatch, other):
        # a file whose stamp names other audio, another frontend or another
        # format reads as None under this stamp, never as features
        path = tmp_path / "c.mel"
        feats = np.zeros((4, 64))
        if other == "wav":
            write_features(path, feats, stamp_of(b"other wav"))
        elif other == "rate":
            write_features(path, feats, stamp_of(b"wav", 16000))
        elif other == "logmel_version":
            monkeypatch.setattr(audio, "LOGMEL_VERSION", audio.LOGMEL_VERSION + 1)
            write_features(path, feats, stamp_of(b"wav"))
            monkeypatch.undo()
        elif other == "format":
            write_features(path, feats, STAMP)
            blob = bytearray(path.read_bytes())
            blob[8:12] = (2).to_bytes(4, "little")
            path.write_bytes(bytes(blob))
        elif other == "headerless":
            # the format before the stamp: uint32 T and F, then the values
            path.write_bytes(struct.pack("<II", 4, 64) + feats.tobytes())
        else:
            write_features(path, feats, STAMP)
            path.write_bytes(path.read_bytes()[:40])
        assert read_features(path, STAMP) is None
        if other == "wav":
            # a file of this frontend, from any WAV
            assert np.array_equal(read_features(path, feature_stamp(22050)), feats)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "c.mel"
        write_features(path, np.zeros((4, 4)), STAMP)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(AudioIOError, match="shorter"):
            read_features(path, STAMP)
        # a header claiming (2**32 - 1) x (2**32 - 1) values over 8 bytes of data
        path.write_bytes(STAMP + b"\xff" * 8 + bytes(8))
        with pytest.raises(AudioIOError, match="shorter"):
            read_features(path, STAMP)
        # the stamp, and no matrix shape
        path.write_bytes(STAMP + bytes(4))
        with pytest.raises(AudioIOError, match="truncated feature cache header"):
            read_features(path, STAMP)

    def test_longer_payload_rejected(self, tmp_path):
        # a header rewritten from (4, 64) to (4, 32) leaves twice the values it claims
        path = tmp_path / "c.mel"
        write_features(path, np.zeros((4, 64)), STAMP)
        blob = bytearray(path.read_bytes())
        blob[68:72] = (32).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(AudioIOError, match="longer"):
            read_features(path, STAMP)

    @pytest.mark.parametrize("shape", [(0, 64), (4, 0), (0, 0)])
    def test_empty_header_rejected(self, tmp_path, shape):
        # an empty matrix with an exact (empty) payload; logmel never writes one
        path = tmp_path / "c.mel"
        path.write_bytes(STAMP + struct.pack("<II", *shape))
        with pytest.raises(AudioIOError, match=f"empty {shape[0]}x{shape[1]} matrix"):
            read_features(path, STAMP)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_features(tmp_path / "x.mel", np.zeros(5), STAMP)

"""WAV I/O and the log-mel feature frontend.

The pipeline operates at 22050 Hz; files at other rates are resampled by
linear interpolation on load. Features are 64 log-mel bands from 40 ms
Hann-windowed frames with 50% overlap, so a 10 second clip maps to a
500x64 matrix with one frame every 20 ms.
"""

from __future__ import annotations

import functools
import hashlib
import struct
import wave
from dataclasses import dataclass

import numpy as np

PIPELINE_RATE = 22050
# sample rates a run config or a WAV header may give; at the floor a 10 s
# clip still makes 500 frames, and a WAV resampled to 22050 Hz grows at most 22x
MIN_SAMPLE_RATE = 1000
MAX_SAMPLE_RATE = 192000
N_BANDS = 64
FRAME_MS = 40.0
FRAME_OVERLAP = 0.5
LOG_FLOOR = 1e-10


def frame_samples(rate: int) -> int:
    """Frontend frame length in samples."""
    return int(round(FRAME_MS / 1000.0 * rate))


def hop_samples(rate: int) -> int:
    """Frontend hop in samples: the frame length times one minus the overlap."""
    return int(round(FRAME_MS / 1000.0 * (1.0 - FRAME_OVERLAP) * rate))


def fft_size(rate: int) -> int:
    """FFT length of a frontend frame: the frame's samples, rounded up to a power of two."""
    return 1 << (frame_samples(rate) - 1).bit_length()


def frame_hop_seconds(rate: int) -> float:
    """Seconds between consecutive feature frames, 441/22050 at 22050 Hz."""
    return hop_samples(rate) / rate


class AudioIOError(RuntimeError):
    """WAV file could not be read or has an unsupported encoding."""


@dataclass
class AudioClip:
    """Mono waveform with samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class LogMelClip:
    """T x F log-mel matrix plus the hop that maps frames to seconds."""

    features: np.ndarray
    frame_hop_seconds: float
    clip_id: str = ""


def load_wav(path) -> AudioClip:
    """Read a PCM-16 RIFF/WAVE file; stereo is averaged to mono.

    Integer samples are scaled by 1/32768 so the result lies in [-1, 1].
    """
    try:
        with wave.open(str(path), "rb") as fh:
            channels = fh.getnchannels()
            width = fh.getsampwidth()
            rate = fh.getframerate()
            raw = fh.readframes(fh.getnframes())
    except wave.Error as exc:
        raise AudioIOError(f"{path}: not a readable PCM WAV file: {exc}") from None
    except EOFError:
        raise AudioIOError(f"{path}: truncated WAV file") from None
    except RuntimeError:
        # wave's chunk reader seeking past the end of the RIFF chunk
        raise AudioIOError(f"{path}: a chunk runs past the end of the RIFF chunk") from None
    if width != 2:
        raise AudioIOError(
            f"{path}: only PCM 16-bit WAV is supported, got {8 * width}-bit samples"
        )
    if channels not in (1, 2):
        raise AudioIOError(f"{path}: expected mono or stereo, got {channels} channels")
    if rate < MIN_SAMPLE_RATE:
        raise AudioIOError(f"{path}: sample rate {rate} Hz is below {MIN_SAMPLE_RATE} Hz")
    if len(raw) % (2 * channels):
        raise AudioIOError(f"{path}: data chunk ends mid-frame")
    data = np.frombuffer(raw, dtype="<i2")
    if channels == 2:
        data = data.reshape(-1, 2).mean(axis=1)
    samples = np.asarray(data, dtype=np.float64) / 32768.0
    if len(samples) == 0:
        raise AudioIOError(f"{path}: contains no samples")
    return AudioClip(samples, rate)


def write_wav(path, clip: AudioClip) -> None:
    """Write mono PCM-16; samples are rounded and clipped to int16 range."""
    q = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(clip.sample_rate)
        fh.writeframes(q.tobytes())


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Linear-interpolation resampling preserving clip duration."""
    if clip.sample_rate == target_rate:
        return clip
    n = len(clip.samples)
    n_out = int(round(n * target_rate / clip.sample_rate))
    positions = np.arange(n_out) * (clip.sample_rate / target_rate)
    samples = np.interp(positions, np.arange(n), clip.samples)
    return AudioClip(samples, target_rate)


def load_audio(path, rate: int = PIPELINE_RATE) -> AudioClip:
    return resample(load_wav(path), rate)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=None)
def mel_filterbank(sample_rate: int, n_fft: int, n_bands: int = N_BANDS) -> np.ndarray:
    """Triangular filters (n_bands, n_fft//2 + 1), peak 1, spanning 0-Nyquist.

    Band centers are equally spaced on the mel scale; on any interval
    between adjacent centers the two overlapping triangles sum to 1, so
    per-bin weights across bands never exceed 1. Built once per arguments
    and returned read-only, since every caller shares it.
    """
    nyquist = sample_rate / 2.0
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), n_bands + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    fb = np.zeros((n_bands, len(bin_freqs)))
    for b in range(n_bands):
        lo, center, hi = hz_points[b], hz_points[b + 1], hz_points[b + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        fb[b] = np.clip(np.minimum(rising, falling), 0.0, None)
    fb.flags.writeable = False
    return fb


def logmel(clip: AudioClip, clip_id: str = "") -> LogMelClip:
    """Log-power mel features: T = ceil(n_samples / hop) frames, one row each.

    Frames are centered by reflect padding of half a frame, Hann windowed,
    zero padded to the next power of two for the FFT, and projected onto
    the mel filterbank at one BLAS thread, as every product is once mbsed
    is imported (``mbsed.blas``), so the bits do not depend on the thread
    count. Cells are ln(max(power, 1e-10)); the clamp keeps the exact
    +ln(4) shift under waveform doubling for above-floor cells.
    """
    sr = clip.sample_rate
    frame = frame_samples(sr)
    hop = hop_samples(sr)
    samples = np.asarray(clip.samples, dtype=np.float64)
    n = len(samples)
    if n < hop:
        raise ValueError(f"clip of {n} samples is shorter than one hop ({hop} samples)")
    t_frames = -(-n // hop)  # ceil
    padded = np.pad(samples, frame // 2, mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, frame)[::hop][:t_frames]
    n_fft = fft_size(sr)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)
    spectrum = np.fft.rfft(windows * hann, n=n_fft, axis=1)
    # squaring into one buffer keeps one temporary, which keeps glibc from
    # returning the heap's top to the system, and faulting it in again, on
    # every clip of a dataset
    power = np.square(spectrum.real)
    power += np.square(spectrum.imag)
    mel_power = power @ mel_filterbank(sr, n_fft).T
    features = np.log(np.maximum(mel_power, LOG_FLOOR))
    return LogMelClip(features, frame_hop_seconds=hop / sr, clip_id=clip_id)


# ---------------------------------------------------------------------------
# feature cache: a 64-byte stamp (magic, format version, the frontend's
# definition and the SHA-256 of the source WAV's bytes), uint32-LE T and F,
# then T*F float64-LE row-major

FEATURE_MAGIC = b"MBSEDMEL"
FEATURE_FORMAT = 1
# bumped whenever log-mel's bits move, so that every cache file goes stale
LOGMEL_VERSION = 1
# magic; format, sample rate, FFT size, hop, bands, log-mel version; then
# the 32-byte SHA-256 of the WAV's bytes
_FRONTEND = struct.Struct("<8s6I")
_STAMP_BYTES = _FRONTEND.size + 32


def feature_stamp(rate: int, wav_path=None) -> bytes:
    """The stamp that opens a cache file of the log-mel features at ``rate``
    of the WAV file at ``wav_path``, whose bytes it digests in blocks.
    Without a path it stops before the digest: the part that a file of this
    frontend made from any WAV starts with."""
    frontend = _FRONTEND.pack(
        FEATURE_MAGIC, FEATURE_FORMAT, rate, fft_size(rate), hop_samples(rate), N_BANDS,
        LOGMEL_VERSION,
    )
    if wav_path is None:
        return frontend
    digest = hashlib.sha256()
    with open(wav_path, "rb") as fh:
        # in blocks, so that no WAV is held whole
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return frontend + digest.digest()


def write_features(path, features: np.ndarray, stamp: bytes) -> None:
    """Write a cache file of ``features`` under ``stamp`` (``feature_stamp``)."""
    features = np.ascontiguousarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {features.shape}")
    if len(stamp) != _STAMP_BYTES or not stamp.startswith(FEATURE_MAGIC):
        raise ValueError("a feature cache stamp is what feature_stamp returns for a WAV")
    with open(path, "wb") as fh:
        fh.write(stamp)
        fh.write(struct.pack("<II", features.shape[0], features.shape[1]))
        fh.write(features.astype("<f8").tobytes())


def read_features(path, stamp: bytes = b"") -> np.ndarray | None:
    """The features of a cache file, or None when the file does not start
    with ``stamp``, a prefix of a ``feature_stamp``: a file of another
    frontend, of other audio or in another format is stale, and so is a
    file cut short inside the stamp. A file that starts with ``stamp`` but
    is not a well-formed cache file raises AudioIOError."""
    with open(path, "rb") as fh:
        head = fh.read(_STAMP_BYTES + 8)
        if not head.startswith(stamp):
            return None
        if len(head) != _STAMP_BYTES + 8:
            raise AudioIOError(f"{path}: truncated feature cache header")
        magic, version = struct.unpack_from("<8sI", head)
        if magic != FEATURE_MAGIC:
            raise AudioIOError(f"{path}: not an mbsed feature cache")
        if version != FEATURE_FORMAT:
            raise AudioIOError(f"{path}: feature cache format {version}, expected {FEATURE_FORMAT}")
        t, f = struct.unpack_from("<II", head, _STAMP_BYTES)
        if t == 0 or f == 0:
            # logmel writes at least one frame of N_BANDS bands
            raise AudioIOError(f"{path}: feature cache header claims an empty {t}x{f} matrix")
        raw = fh.read()
    # compare before allocating: a corrupt header can claim ~2**64 values
    if len(raw) != t * f * 8:
        relation = "shorter" if len(raw) < t * f * 8 else "longer"
        raise AudioIOError(f"{path}: feature cache {relation} than header claims")
    return np.frombuffer(raw, dtype="<f8", count=t * f).reshape(t, f).copy()

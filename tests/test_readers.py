"""Every file reader turns malformed bytes into its own typed error.

Each test mutates a valid file a few bytes at a time, mostly in its
header, and checks that the reader either loads it or raises its typed
error, never another exception. The examples are derandomized and their
number is fixed, so a run is repeatable and takes a few seconds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsed.audio import (
    AudioClip,
    AudioIOError,
    feature_stamp,
    load_wav,
    read_features,
    write_features,
    write_wav,
)
from mbsed.config import ConfigError, RunConfig, load_run_config, resolved_text
from mbsed.events import (
    AnnotationError,
    EventAnnotation,
    read_events_tsv,
    read_weak_labels_tsv,
    write_events_tsv,
    write_weak_labels_tsv,
)
from mbsed.model import CheckpointError, Model, load_checkpoint, save_checkpoint

from test_model import tiny_config

BOUNDED = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
)


@st.composite
def mutated(draw, blob: bytes, head: int):
    """``blob`` with one to four bytes replaced, inserted or deleted, each
    within the first ``head`` bytes or anywhere, and then maybe cut short."""
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        if not data:
            break
        at = draw(st.integers(0, min(head, len(data)) - 1) | st.integers(0, len(data) - 1))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "delete":
            del data[at]
        else:
            byte = draw(st.integers(0, 255))
            if op == "replace":
                data[at] = byte
            else:
                data.insert(at, byte)
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))) :]
    return bytes(data)


def _write(tmp_path, name, writer):
    path = tmp_path / name
    writer(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("originals")
    rng = np.random.default_rng(0)
    events = [
        EventAnnotation("clip_0000", "tone", 0.5, 1.25),
        EventAnnotation("clip_0001", "chirp", 2.0, 3.5),
    ]
    return {
        "checkpoint": _write(tmp, "m.ckpt", lambda p: save_checkpoint(Model(tiny_config()), p)),
        "features": _write(
            tmp, "f.mel",
            lambda p: write_features(p, rng.standard_normal((6, 4)), feature_stamp(22050) + bytes(32)),
        ),
        "wav": _write(
            tmp, "a.wav", lambda p: write_wav(p, AudioClip(0.1 * rng.standard_normal(64), 22050))
        ),
        "strong": _write(tmp, "s.tsv", lambda p: write_events_tsv(p, events)),
        "weak": _write(
            tmp, "w.tsv", lambda p: write_weak_labels_tsv(p, {"clip_0000": ["tone"], "clip_0001": []})
        ),
        "ini": resolved_text(RunConfig()).encode(),
    }


@pytest.mark.parametrize(
    "key, head, reader, error",
    [
        ("checkpoint", 400, load_checkpoint, CheckpointError),
        ("features", 72, read_features, AudioIOError),
        ("wav", 44, load_wav, AudioIOError),
        ("strong", 64, read_events_tsv, AnnotationError),
        ("weak", 32, read_weak_labels_tsv, AnnotationError),
        ("ini", 512, load_run_config, ConfigError),
    ],
)
def test_mutated_file_raises_only_typed_error(originals, tmp_path, key, head, reader, error):
    path = tmp_path / key

    @BOUNDED
    @given(blob=mutated(originals[key], head))
    def check(blob):
        path.write_bytes(blob)
        try:
            reader(path)
        except error:
            pass

    check()

"""Run configuration: strict INI-style files with typed, validated sections.

The fields of RunConfig name the sections, and each section dataclass's
fields, in order and with their annotated types, are that section's keys:
both the parser and ``resolved_text`` read them from there. Unknown
sections or keys are fatal so a typo cannot silently fall back to a
default in the middle of an ablation run.
"""

import configparser
import io
import math
from dataclasses import dataclass, field, fields
from typing import get_origin

from .audio import MAX_SAMPLE_RATE, MIN_SAMPLE_RATE
from .model import PRESETS, BranchSpec
from .pooling import MilStrategy


class ConfigError(ValueError):
    """Configuration file rejected: unknown key, bad value, or bad type."""


@dataclass
class DataSection:
    train_dir: str = ""
    test_dir: str = ""
    sample_rate: int = 22050
    cache_features: bool = True


@dataclass
class ModelSection:
    preset: str = "small"
    branches: tuple[str, ...] = ("E-ATP", "I-GAP", "I-GMP")


@dataclass
class TrainingSection:
    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 60
    seed: int = 0
    repeats: int = 1


@dataclass
class PostprocessSection:
    threshold: float = 0.5
    tag_threshold: float = 0.5  # clip-level gate; 0 disables
    window: str = "adaptive"  # "adaptive" or an odd frame count


@dataclass
class EvalSection:
    protocol: str = "segment"
    onset_collar: float = 0.2
    offset_tolerance: float = 0.2
    segment_length: float = 1.0


@dataclass
class RunConfig:
    data: DataSection = field(default_factory=DataSection)
    model: ModelSection = field(default_factory=ModelSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    postprocess: PostprocessSection = field(default_factory=PostprocessSection)
    eval: EvalSection = field(default_factory=EvalSection)

    def branch_specs(self) -> tuple[BranchSpec, ...]:
        return parse_branches(self.model.branches)

    def validate(self) -> "RunConfig":
        # the float checks are written so that NaN fails them
        if not MIN_SAMPLE_RATE <= self.data.sample_rate <= MAX_SAMPLE_RATE:
            raise ConfigError(f"sample_rate must lie in [{MIN_SAMPLE_RATE}, {MAX_SAMPLE_RATE}] Hz")
        if self.model.preset not in PRESETS:
            raise ConfigError(
                f"model preset must be one of {', '.join(PRESETS)}, got {self.model.preset!r}"
            )
        self.branch_specs()
        if self.training.batch_size < 1 or self.training.epochs < 1:
            raise ConfigError("batch_size and epochs must be positive")
        if not 0.0 < self.training.learning_rate < math.inf:
            raise ConfigError("learning_rate must be positive and finite")
        if self.training.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if self.training.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not 0.0 < self.postprocess.threshold < 1.0:
            raise ConfigError("postprocess threshold must lie in (0, 1)")
        if not 0.0 <= self.postprocess.tag_threshold < 1.0:
            raise ConfigError("postprocess tag_threshold must lie in [0, 1)")
        if self.postprocess.window != "adaptive":
            try:
                w = int(self.postprocess.window)
            except ValueError:
                raise ConfigError(
                    f"postprocess window must be 'adaptive' or an odd integer, "
                    f"got {self.postprocess.window!r}"
                ) from None
            if w < 1 or w % 2 == 0:
                raise ConfigError(f"postprocess window must be odd and positive, got {w}")
        if self.eval.protocol not in ("event", "segment", "both"):
            raise ConfigError(
                f"eval protocol must be event, segment, or both, got {self.eval.protocol!r}"
            )
        if not 0.0 < self.eval.segment_length < math.inf:
            raise ConfigError("segment_length must be positive and finite")
        for name in ("onset_collar", "offset_tolerance"):
            if not 0.0 <= getattr(self.eval, name) < math.inf:
                raise ConfigError(f"{name} must be non-negative and finite")
        return self


def parse_branches(names) -> tuple[BranchSpec, ...]:
    """Branch strings like "E-ATP" into specs; exactly one main branch."""
    try:
        specs = tuple(BranchSpec.parse(name) for name in names)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not specs:
        raise ConfigError("branch list is empty")
    mains = [s for s in specs if s.strategy is MilStrategy.EMBEDDING]
    if len(mains) != 1:
        raise ConfigError(
            f"branch list must contain exactly one embedding-level (E-*) entry, "
            f"got {len(mains)} in {list(names)}"
        )
    return specs


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _convert(section: str, key: str, raw: str, kind: type):
    """One INI value as the type its section's field declares."""
    if kind is tuple:
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    try:
        if kind is bool:
            return _BOOL_VALUES[raw.strip().lower()]
        return kind(raw)
    except (ValueError, KeyError):
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {kind.__name__}"
        ) from None


def _render(value) -> str:
    """A field's INI text, which ``_convert`` reads back to the same value."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(value)
    return str(value)


def parse_run_config(text: str, source: str = "<config>") -> RunConfig:
    """Sections and keys are the fields of RunConfig and of its section dataclasses.

    A key's type is its field's annotation, read as a type object: this
    module does not postpone the evaluation of annotations.
    """
    # [DEFAULT], whose keys configparser copies into every section, is unknown here
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from None
    config = RunConfig()
    sections = [f.name for f in fields(config)]
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(
                f"{source}: unknown section [{section}]; expected one of {sorted(sections)}"
            )
        target = getattr(config, section)
        kinds = {f.name: get_origin(f.type) or f.type for f in fields(target)}
        for key, raw in parser.items(section):
            if key not in kinds:
                raise ConfigError(
                    f"{source}: unknown key {key!r} in [{section}]; "
                    f"expected one of {sorted(kinds)}"
                )
            setattr(target, key, _convert(section, key, raw, kinds[key]))
    return config.validate()


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_run_config(text, source=str(path))


def resolved_text(config: RunConfig) -> str:
    """Render every key explicitly so the file alone reproduces the run."""
    parser = configparser.ConfigParser(interpolation=None)
    for section in fields(config):
        values = getattr(config, section.name)
        parser[section.name] = {f.name: _render(getattr(values, f.name)) for f in fields(values)}
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()

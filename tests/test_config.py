"""Run-config parsing: strict keys, typed values, branch validation."""

import configparser
import dataclasses

import pytest

from mbsed.config import (
    ConfigError,
    RunConfig,
    load_run_config,
    parse_branches,
    parse_run_config,
    resolved_text,
)
from mbsed.pooling import MilStrategy, PoolMethod

FULL = """
[data]
train_dir = /tmp/train
test_dir = /tmp/test
sample_rate = 44100
cache_features = no

[model]
preset = large
branches = E-GMP, I-GAP

[training]
learning_rate = 0.005
batch_size = 8
epochs = 12
seed = 3
repeats = 5

[postprocess]
threshold = 0.4
window = 11

[eval]
protocol = both
onset_collar = 0.25
offset_tolerance = 0.3
segment_length = 0.5
"""

# config_resolved.ini of a run with every default; the empty paths end in a space
DEFAULTS_TEXT = (
    "[data]\ntrain_dir = \ntest_dir = \nsample_rate = 22050\ncache_features = true\n\n"
    "[model]\npreset = small\nbranches = E-ATP, I-GAP, I-GMP\n\n"
    "[training]\nlearning_rate = 0.001\nbatch_size = 16\nepochs = 60\nseed = 0\nrepeats = 1\n\n"
    "[postprocess]\nthreshold = 0.5\ntag_threshold = 0.5\nwindow = adaptive\n\n"
    "[eval]\nprotocol = segment\nonset_collar = 0.2\noffset_tolerance = 0.2\nsegment_length = 1.0\n\n"
)


class TestParsing:
    def test_empty_text_gives_defaults(self):
        config = parse_run_config("")
        assert config == RunConfig()
        assert config.model.branches == ("E-ATP", "I-GAP", "I-GMP")
        assert config.training.epochs == 60

    def test_full_file(self):
        config = parse_run_config(FULL)
        assert config.data.train_dir == "/tmp/train"
        assert config.data.sample_rate == 44100
        assert config.data.cache_features is False
        assert config.model.preset == "large"
        assert config.model.branches == ("E-GMP", "I-GAP")
        assert config.training.learning_rate == 0.005
        assert config.training.repeats == 5
        assert config.postprocess.window == "11"
        assert config.eval.protocol == "both"
        assert config.eval.segment_length == 0.5

    def test_partial_file_keeps_other_defaults(self):
        config = parse_run_config("[training]\nepochs = 2\n")
        assert config.training.epochs == 2
        assert config.training.batch_size == 16
        assert config.data.sample_rate == 22050

    def test_unknown_section_fatal(self):
        with pytest.raises(ConfigError, match=r"unknown section \[network\]"):
            parse_run_config("[network]\nwidth = 3\n")

    def test_unknown_key_fatal(self):
        with pytest.raises(ConfigError, match="unknown key 'epoch'"):
            parse_run_config("[training]\nepoch = 2\n")
        # the error names the section's real keys
        with pytest.raises(ConfigError, match="epochs"):
            parse_run_config("[training]\nepoch = 2\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="cannot parse 'soon' as int"):
            parse_run_config("[training]\nepochs = soon\n")

    def test_bad_float(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_run_config("[training]\nlearning_rate = fast\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="cannot parse 'maybe' as bool"):
            parse_run_config("[data]\ncache_features = maybe\n")

    def test_malformed_ini(self):
        with pytest.raises(ConfigError):
            parse_run_config("no section header here\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(FULL, encoding="utf-8")
        assert load_run_config(path) == parse_run_config(FULL)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_run_config(tmp_path / "absent.ini")


class TestValidation:
    def test_bad_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_run_config("[model]\npreset = tiny\n")

    def test_threshold_bounds(self):
        for bad in ("0", "1", "-0.2", "1.5"):
            with pytest.raises(ConfigError, match="threshold"):
                parse_run_config(f"[postprocess]\nthreshold = {bad}\n")
        assert parse_run_config("[postprocess]\nthreshold = 0.35\n").postprocess.threshold == 0.35

    def test_tag_threshold(self):
        config = parse_run_config("[postprocess]\ntag_threshold = 0\n")
        assert config.postprocess.tag_threshold == 0.0
        with pytest.raises(ConfigError, match="tag_threshold"):
            parse_run_config("[postprocess]\ntag_threshold = 1.0\n")

    def test_window_values(self):
        assert parse_run_config("[postprocess]\nwindow = adaptive\n").postprocess.window == "adaptive"
        assert parse_run_config("[postprocess]\nwindow = 27\n").postprocess.window == "27"
        with pytest.raises(ConfigError, match="odd"):
            parse_run_config("[postprocess]\nwindow = 4\n")
        with pytest.raises(ConfigError, match="window"):
            parse_run_config("[postprocess]\nwindow = wide\n")

    def test_bad_protocol(self):
        with pytest.raises(ConfigError, match="protocol"):
            parse_run_config("[eval]\nprotocol = frame\n")

    def test_positive_numerics(self):
        with pytest.raises(ConfigError):
            parse_run_config("[training]\nepochs = 0\n")
        with pytest.raises(ConfigError):
            parse_run_config("[training]\nlearning_rate = -1\n")
        with pytest.raises(ConfigError):
            parse_run_config("[training]\nrepeats = 0\n")
        with pytest.raises(ConfigError):
            parse_run_config("[eval]\nsegment_length = 0\n")


class TestBranches:
    def test_weights_by_level(self):
        specs = parse_branches(("E-ATP", "I-GAP", "I-GMP"))
        assert [s.loss_weight for s in specs] == [1.0, 0.5, 0.5]
        assert specs[0].strategy is MilStrategy.EMBEDDING
        assert specs[0].method is PoolMethod.ATP
        assert specs[1].strategy is MilStrategy.INSTANCE

    def test_exactly_one_main(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_branches(("I-GAP", "I-GMP"))
        with pytest.raises(ConfigError, match="exactly one"):
            parse_branches(("E-ATP", "E-GMP"))
        with pytest.raises(ConfigError, match="empty"):
            parse_branches(())

    def test_config_branch_specs(self):
        config = parse_run_config("[model]\nbranches = E-GAP\n")
        specs = config.branch_specs()
        assert len(specs) == 1
        assert specs[0].method is PoolMethod.GAP

    def test_no_main_in_config_fatal(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_run_config("[model]\nbranches = I-GAP\n")

    def test_unknown_branch_name_fatal(self):
        for name in ("E-FOO", "EATP"):
            with pytest.raises(ConfigError, match="branch name"):
                parse_run_config(f"[model]\nbranches = {name}\n")


class TestResolvedText:
    def test_round_trip(self):
        config = parse_run_config(FULL)
        again = parse_run_config(resolved_text(config))
        assert again == config

    def test_defaults_round_trip(self):
        config = RunConfig()
        assert parse_run_config(resolved_text(config)) == config

    def test_every_key_present(self):
        config = RunConfig()
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(resolved_text(config))
        for section in dataclasses.fields(config):
            keys = [key.name for key in dataclasses.fields(getattr(config, section.name))]
            assert list(parser[section.name]) == keys

    def test_defaults_text_pinned(self):
        assert resolved_text(RunConfig()) == DEFAULTS_TEXT

    def test_float_precision_survives(self):
        config = parse_run_config("[training]\nlearning_rate = 0.0007\n")
        again = parse_run_config(resolved_text(config))
        assert again.training.learning_rate == 0.0007

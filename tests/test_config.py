import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tabflow import cli
from tabflow.config import _TABLE, MAX_BASE_CHANNELS, load_config
from tabflow.errors import DataError, TabflowError, UsageError
from tabflow.odesolve import Dopri5, Euler, RK4


def test_defaults_match_pipeline_settings():
    cfg = load_config()
    assert cfg.chunk_seconds == 4.0
    assert cfg.batch_size == 64
    assert cfg.lr == pytest.approx(1e-4)
    assert cfg.epochs == 50
    assert cfg.steps == 100
    assert cfg.sample_rate == 44100
    assert isinstance(cfg.solver(), Dopri5)
    expected = {
        "scores_dir": Path("scores"), "audio_dir": Path("audio"), "workdir": Path("work"),
        "chunk_seconds": 4.0,
        "batch_size": 64, "lr": 0.0001, "epochs": 50, "base_channels": 32,
        "solver_name": "dopri5", "steps": 100, "rtol": 0.0001, "atol": 0.0001,
        "max_steps": 10000, "sample_rate": 44100, "kad_max_frames": 2048,
        "n_scores": 10, "score_seconds": 60.0, "seed": 0, "train_split": 0.9,
    }
    assert len(expected) == len(_TABLE) == 19
    for name, value in expected.items():
        got = getattr(cfg, name)
        assert type(got) is type(value) and got == value, name


def test_config_file_overlays_defaults(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[flowmatch]\nepochs = 7\n\n[odesolve]\nsolver = euler\nsteps = 12\n")
    cfg = load_config(ini)
    assert cfg.epochs == 7
    assert cfg.solver() == Euler(12)
    assert cfg.batch_size == 64  # untouched default


def test_percent_in_a_value_reads_as_itself(tmp_path):
    """A flat key = value format: no %-interpolation, so neither a lone '%'
    nor a %(key)s reference is special."""
    ini = tmp_path / "cfg.ini"
    ini.write_text("[paths]\nworkdir = /tmp/50%run\n")
    assert load_config(ini).workdir == Path("/tmp/50%run")
    ini.write_text("[paths]\nworkdir = /tmp/%(x)s%%\n")
    assert load_config(ini).workdir == Path("/tmp/%(x)s%%")


def test_unknown_keys_rejected(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[flowmatch]\nlearning = 1\n")
    with pytest.raises(UsageError, match="unknown config key"):
        load_config(ini)
    ini.write_text("[nosuch]\nx = 1\n")
    with pytest.raises(UsageError, match="unknown config section"):
        load_config(ini)
    ini.write_text("[latentcodec]\ndims = 64\n")  # the latent width is a constant
    with pytest.raises(UsageError, match="unknown config key"):
        load_config(ini)


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nepochs = 3\n",  # was dropped: epochs stayed 50
    "[DEFAULT]\nepochs = 3\n[flowmatch]\nbatch_size = 8\n",  # was read as epochs = 3
    "[DEFAULT]\nseed = 5\n[flowmatch]\nbatch_size = 8\n",  # was blamed on [flowmatch]
], ids=["alone", "beside_flowmatch", "foreign_key"])
def test_default_section_is_unknown(tmp_path, capsys, text):
    """configparser copies [DEFAULT] keys into every section, so one key did
    three different things; the section is refused like any unknown one."""
    ini = tmp_path / "cfg.ini"
    ini.write_text(text)
    with pytest.raises(UsageError, match=r"^unknown config section \[DEFAULT\]$"):
        load_config(ini)
    assert cli.main(["--config", str(ini), "stats", "ratings.csv", "--m", "1"]) == 1
    assert "unknown config section [DEFAULT]" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["amp_drive", "amp_tone_cutoff", "normalize_db"])
def test_amp_condition_is_not_configurable(tmp_path, capsys, key):
    """The amp condition is cli's constants: an INI that sets one is exit 1."""
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[stringsynth]\n{key} = 1.0\n")
    with pytest.raises(UsageError, match=f"unknown config key '{key}' in \\[stringsynth\\]"):
        load_config(ini)
    assert cli.main(["--config", str(ini), "stats", "ratings.csv", "--m", "1"]) == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["257", "100000"])
def test_base_channels_ceiling(value):
    """A UNet wider than MAX_BASE_CHANNELS is refused before numpy is asked
    for its weights (100000 channels ask for 447 GiB)."""
    with pytest.raises(DataError, match=re.escape(
            f"[flowmatch] base_channels must be in [1, {MAX_BASE_CHANNELS}], got '{value}'")):
        load_config(None, {"flowmatch": {"base_channels": value}})
    assert load_config(None, {"flowmatch": {"base_channels": "256"}}).base_channels == 256


def test_missing_file_rejected(tmp_path):
    with pytest.raises(UsageError, match="cannot read"):
        load_config(tmp_path / "absent.ini")


def test_bad_values_rejected(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[flowmatch]\nepochs = many\n")
    with pytest.raises(UsageError, match="bad config value"):
        load_config(ini)
    ini.write_text("[odesolve]\nsolver = leapfrog\n")
    with pytest.raises(UsageError, match="unknown solver"):
        load_config(ini)


def test_solver_construction():
    cfg = load_config(None, {"odesolve": {"solver": "rk4", "steps": "25"}})
    assert cfg.solver() == RK4(25)


def test_hash_stable_and_sensitive():
    a = load_config()
    b = load_config()
    assert a.hash() == b.hash()
    c = load_config(None, {"flowmatch": {"epochs": "49"}})
    assert c.hash() != a.hash()
    assert len(a.hash()) == 16
    assert load_config().hash() == "20cb366f3d9f55a1"


def with_updates(cfg, **sections):
    """cfg with some keys replaced, e.g. with_updates(cfg, cli={'seed': 7}),
    re-derived through load_config, which rejects an unknown section or key."""
    raw = {s: dict(kv) for s, kv in cfg.raw.items()}
    for section, kv in sections.items():
        raw.setdefault(section, {}).update({k: str(v) for k, v in kv.items()})
    return load_config(None, raw)


def test_with_updates_rederives():
    cfg = load_config()
    cfg2 = with_updates(cfg, cli={"seed": 7})
    assert cfg2.seed == 7
    assert cfg2.hash() != cfg.hash()



# one value outside the rule of each row that has one
_OUT_OF_RANGE = {
    "scores_dir": "sc\0ores", "audio_dir": "au\0dio", "workdir": "wo\0rk",
    "chunk_seconds": "0", "batch_size": "0", "lr": "-0.0001",
    "epochs": "0", "base_channels": "-8", "steps": "0", "rtol": "nan", "atol": "-1",
    "max_steps": "0", "sample_rate": "7999", "kad_max_frames": "1", "n_scores": "0",
    "score_seconds": "inf", "seed": "-1", "train_split": "1.5",
}


@pytest.mark.parametrize("section, key, typ, default, rule", _TABLE,
                         ids=[row[1] for row in _TABLE])
def test_each_row_loads_its_default_and_rejects_out_of_range(
        tmp_path, monkeypatch, capsys, section, key, typ, default, rule):
    assert load_config(None, {section: {key: default}}).raw[section][key] == default
    if rule is None:  # an unknown solver is a UsageError: test_bad_values_rejected
        assert key == "solver"
        return
    assert rule[0](typ(default))
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{key} = {_OUT_OF_RANGE[key]}\n")
    message = f"[{section}] {key} must be {rule[1]}, got {_OUT_OF_RANGE[key]!r}"
    with pytest.raises(DataError, match=re.escape(message)):
        load_config(ini)
    monkeypatch.chdir(tmp_path)  # the default workdir is relative
    assert cli.main(["--config", str(ini), "stats", "ratings.csv", "--m", "1"]) == 2
    assert f"data error: {message}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.ini"]


_SECTIONS = st.sampled_from(sorted({row[0] for row in _TABLE})) | st.text(max_size=8)
_KEYS = st.sampled_from([row[1] for row in _TABLE]) | st.text(max_size=8)
_VALUES = (st.text(max_size=12) | st.integers().map(str) | st.floats().map(repr)
           | st.sampled_from(["nan", "-inf", "inf", "-1", "1e999", "a\0b", "\0"]))


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(st.tuples(_SECTIONS, _KEYS, _VALUES), max_size=6))
@example(entries=[("cli", "seed", "-1")])
@example(entries=[("paths", "workdir", "a\0b")])
@example(entries=[("synthdata", "score_seconds", "inf")])
@example(entries=[("flowmatch", "lr", "nan")])
def test_load_config_returns_valid_config_or_raises_tabflow_error(tmp_path_factory, entries):
    sections: dict[str, dict[str, str]] = {}
    for section, key, value in entries:
        sections.setdefault(section, {})[key] = value
    ini = tmp_path_factory.getbasetemp() / "hostile.ini"
    ini.write_text("".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                           for section, kv in sections.items()), encoding="utf-8")
    try:
        cfg = load_config(ini)
    except TabflowError:
        return
    for _, key, typ, _, rule in _TABLE:
        value = getattr(cfg, "solver_name" if key == "solver" else key)
        assert isinstance(value, typ), key
        assert rule is None or rule[0](value), (key, value)
    cfg.solver()

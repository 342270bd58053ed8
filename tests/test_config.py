from pathlib import Path

import pytest

from tabflow.config import load_config
from tabflow.errors import UsageError
from tabflow.odesolve import Dopri5, Euler, RK4


def test_defaults_match_pipeline_settings():
    cfg = load_config()
    assert cfg.chunk_seconds == 4.0
    assert cfg.batch_size == 64
    assert cfg.lr == pytest.approx(1e-4)
    assert cfg.epochs == 50
    assert cfg.steps == 100
    assert cfg.dims == 64
    assert cfg.sample_rate == 44100
    assert cfg.normalize_db == -9.0
    assert isinstance(cfg.solver(), Dopri5)
    expected = {
        "scores_dir": Path("scores"), "audio_dir": Path("audio"), "workdir": Path("work"),
        "dims": 64, "chunk_seconds": 4.0,
        "batch_size": 64, "lr": 0.0001, "epochs": 50, "base_channels": 32,
        "solver_name": "dopri5", "steps": 100, "rtol": 0.0001, "atol": 0.0001,
        "max_steps": 10000, "sample_rate": 44100, "amp_drive": 6.0,
        "amp_tone_cutoff": 5000.0, "normalize_db": -9.0, "kad_max_frames": 2048,
        "n_scores": 10, "score_seconds": 60.0, "seed": 0, "train_split": 0.9,
    }
    assert len(expected) == 23
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


def test_unknown_keys_rejected(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[flowmatch]\nlearning = 1\n")
    with pytest.raises(UsageError, match="unknown config key"):
        load_config(ini)
    ini.write_text("[nosuch]\nx = 1\n")
    with pytest.raises(UsageError, match="unknown config section"):
        load_config(ini)


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
    assert load_config().hash() == "454bd2fc9f41682b"


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


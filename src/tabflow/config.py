"""Pipeline configuration: flat INI-style key = value file, one section per
module, every key defaulted to the pipeline's standard settings. The config
hash (sha256 of the canonical text) is embedded in every output artifact.

_TABLE is the one listing of the 23 keys: each row is (section, key, type,
default text), the type being Path, int, float or str, applied to the text
as typ(text). The defaults, the PipelineConfig fields and the parsing in
load_config all derive from it. Defaults stay text exactly as written (for
example "0.0001"), because the canonical text, and so the hash, is built
from the raw strings.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import field, make_dataclass
from pathlib import Path

from . import odesolve
from .errors import DataError, UsageError

_TABLE: tuple[tuple[str, str, type, str], ...] = (
    ("paths", "scores_dir", Path, "scores"),
    ("paths", "audio_dir", Path, "audio"),
    ("paths", "workdir", Path, "work"),
    ("latentcodec", "dims", int, "64"),
    ("latentcodec", "chunk_seconds", float, "4.0"),
    ("flowmatch", "batch_size", int, "64"),
    ("flowmatch", "lr", float, "0.0001"),
    ("flowmatch", "epochs", int, "50"),
    ("flowmatch", "base_channels", int, "32"),
    ("odesolve", "solver", str, "dopri5"),
    ("odesolve", "steps", int, "100"),
    ("odesolve", "rtol", float, "0.0001"),
    ("odesolve", "atol", float, "0.0001"),
    ("odesolve", "max_steps", int, "10000"),
    ("stringsynth", "sample_rate", int, "44100"),
    ("stringsynth", "amp_drive", float, "6.0"),
    ("stringsynth", "amp_tone_cutoff", float, "5000.0"),
    ("stringsynth", "normalize_db", float, "-9.0"),
    ("audiodist", "kad_max_frames", int, "2048"),
    ("synthdata", "n_scores", int, "10"),
    ("synthdata", "score_seconds", float, "60.0"),
    ("cli", "seed", int, "0"),
    ("cli", "train_split", float, "0.9"),
)

_DEFAULTS: dict[str, dict[str, str]] = {
    section: {key: default for s, key, _, default in _TABLE if s == section}
    for section in dict.fromkeys(row[0] for row in _TABLE)
}


def _field_name(key: str) -> str:
    # the `solver` key would shadow the PipelineConfig.solver() method
    return "solver_name" if key == "solver" else key


# each solver's [odesolve] keys, every one of which must be finite and > 0
_SOLVERS = {
    "euler": (("steps",), lambda cfg: odesolve.Euler(cfg.steps)),
    "rk4": (("steps",), lambda cfg: odesolve.RK4(cfg.steps)),
    "dopri5": (("rtol", "atol", "max_steps"),
               lambda cfg: odesolve.Dopri5(cfg.rtol, cfg.atol, cfg.max_steps)),
}


class _PipelineMethods:
    """Methods of PipelineConfig, whose fields come from _TABLE."""

    def solver(self) -> odesolve.SolverKind:
        """The configured ODE solver; DataError names the first of its
        [odesolve] keys whose value it cannot run with."""
        keys, make = _SOLVERS[self.solver_name]  # load_config checked the name
        for key in keys:
            value = getattr(self, key)
            if not 0 < value < float("inf"):  # NaN fails too
                raise DataError(f"[odesolve] {key} must be finite and > 0 for solver "
                                f"{self.solver_name}, got {value}")
        return make(self)

    def canonical_text(self) -> str:
        lines = []
        for section in sorted(self.raw):
            lines.append(f"[{section}]")
            for key in sorted(self.raw[section]):
                lines.append(f"{key} = {self.raw[section][key]}")
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()[:16]


PipelineConfig = make_dataclass(
    "PipelineConfig",
    [(_field_name(key), typ) for _, key, typ, _ in _TABLE]
    + [("raw", dict, field(default_factory=dict, compare=False))],
    bases=(_PipelineMethods,), frozen=True)


def _merge(base: dict[str, dict[str, str]], override: dict[str, dict[str, str]]):
    merged = {s: dict(kv) for s, kv in base.items()}
    for section, kv in override.items():
        if section not in merged:
            raise UsageError(f"unknown config section [{section}]")
        for key, value in kv.items():
            if key not in merged[section]:
                raise UsageError(f"unknown config key {key!r} in [{section}]")
            merged[section][key] = value
    return merged


def load_config(path: str | Path | None = None,
                overrides: dict[str, dict[str, str]] | None = None) -> PipelineConfig:
    """Defaults, optionally overlaid with an INI file and explicit overrides."""
    raw = {s: dict(kv) for s, kv in _DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(str(path), encoding="utf-8")
            file_dict = {s: dict(parser.items(s)) for s in parser.sections()}
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise UsageError(f"malformed config file {path}: {exc}") from None
        if not read:
            raise UsageError(f"cannot read config file {path}")
        raw = _merge(raw, file_dict)
    if overrides:
        raw = _merge(raw, overrides)

    try:
        cfg = PipelineConfig(**{_field_name(key): typ(raw[section][key])
                                for section, key, typ, _ in _TABLE}, raw=raw)
    except ValueError as exc:
        raise UsageError(f"bad config value: {exc}") from None
    if cfg.solver_name not in _SOLVERS:
        raise UsageError(f"unknown solver {cfg.solver_name!r}")
    return cfg

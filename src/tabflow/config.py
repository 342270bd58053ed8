"""Pipeline configuration: flat INI-style key = value file, one section per
module, every key defaulted to the pipeline's standard settings. The config
hash (sha256 of the canonical text) is embedded in every output artifact.

_TABLE is the one listing of the 19 keys: each row is (section, key, type,
default text, rule), the type being Path, int, float or str, applied to the
text as typ(text), and the rule a (predicate, condition) pair. The defaults,
the PipelineConfig fields, the parsing and the checks all derive from it.
load_config is the one place a value is checked; one that breaks its rule is
a DataError "[section] key must be <condition>, got <text>". Defaults stay
text exactly as written (for example "0.0001"), because the canonical text,
and so the hash, is built from the raw strings.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import field, make_dataclass
from pathlib import Path

from . import odesolve
from .errors import DataError, UsageError
from .stringsynth import MAX_RENDER_SECONDS, MAX_SAMPLE_RATE, MIN_SAMPLE_RATE

# rules shared by several keys; NaN fails every comparison
_POSITIVE = (lambda v: 0 < v < math.inf, "finite and > 0")
_SECONDS = (lambda v: 0 < v <= MAX_RENDER_SECONDS, f"in (0, {MAX_RENDER_SECONDS:g}]")
_PATH = (lambda v: "\0" not in str(v), "free of NUL characters")
# Widest UNet: eight times the default, 25.2M parameters (101 MB of float32
# weights); the weights grow with the square of the width.
MAX_BASE_CHANNELS = 256

_TABLE: tuple[tuple[str, str, type, str, tuple | None], ...] = (
    ("paths", "scores_dir", Path, "scores", _PATH),
    ("paths", "audio_dir", Path, "audio", _PATH),
    ("paths", "workdir", Path, "work", _PATH),
    ("latentcodec", "chunk_seconds", float, "4.0", _SECONDS),
    ("flowmatch", "batch_size", int, "64", _POSITIVE),
    ("flowmatch", "lr", float, "0.0001", _POSITIVE),
    ("flowmatch", "epochs", int, "50", _POSITIVE),
    ("flowmatch", "base_channels", int, "32",
     (lambda v: 0 < v <= MAX_BASE_CHANNELS, f"in [1, {MAX_BASE_CHANNELS}]")),
    ("odesolve", "solver", str, "dopri5", None),  # load_config checks the name
    ("odesolve", "steps", int, "100", _POSITIVE),
    ("odesolve", "rtol", float, "0.0001", _POSITIVE),
    ("odesolve", "atol", float, "0.0001", _POSITIVE),
    ("odesolve", "max_steps", int, "10000", _POSITIVE),
    ("stringsynth", "sample_rate", int, "44100",
     (lambda v: MIN_SAMPLE_RATE <= v <= MAX_SAMPLE_RATE,
      f"in [{MIN_SAMPLE_RATE}, {MAX_SAMPLE_RATE}]")),
    ("audiodist", "kad_max_frames", int, "2048", (lambda v: v >= 2, ">= 2")),
    ("synthdata", "n_scores", int, "10", _POSITIVE),
    ("synthdata", "score_seconds", float, "60.0", _SECONDS),
    ("cli", "seed", int, "0", (lambda v: v >= 0, ">= 0")),
    ("cli", "train_split", float, "0.9", (lambda v: 0 < v <= 1, "in (0, 1]")),
)

_DEFAULTS: dict[str, dict[str, str]] = {
    section: {key: default for s, key, _, default, _ in _TABLE if s == section}
    for section in dict.fromkeys(row[0] for row in _TABLE)
}


def _field_name(key: str) -> str:
    # the `solver` key would shadow the PipelineConfig.solver() method
    return "solver_name" if key == "solver" else key


_SOLVERS = {
    "euler": lambda cfg: odesolve.Euler(cfg.steps),
    "rk4": lambda cfg: odesolve.RK4(cfg.steps),
    "dopri5": lambda cfg: odesolve.Dopri5(cfg.rtol, cfg.atol, cfg.max_steps),
}


class _PipelineMethods:
    """Methods of PipelineConfig, whose fields come from _TABLE."""

    def solver(self) -> odesolve.SolverKind:
        """The configured ODE solver."""
        return _SOLVERS[self.solver_name](self)

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
    [(_field_name(key), typ) for _, key, typ, _, _ in _TABLE]
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
    file_dict = {}
    if path is not None:
        if not _PATH[0](path):  # open() would raise ValueError
            raise UsageError(f"config file path must be {_PATH[1]}, got {str(path)!r}")
        parser = configparser.ConfigParser(interpolation=None)  # '%' reads as itself
        try:
            read = parser.read(str(path), encoding="utf-8-sig")  # a leading BOM is skipped
            file_dict = {s: dict(parser.items(s)) for s in parser.sections()}
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise UsageError(f"malformed config file {path}: {exc}") from None
        if not read:
            raise UsageError(f"cannot read config file {path}")
        if parser.defaults():  # configparser would copy its keys into every section
            raise UsageError("unknown config section [DEFAULT]")
    raw = _merge(_merge(_DEFAULTS, file_dict), overrides or {})

    try:
        cfg = PipelineConfig(**{_field_name(key): typ(raw[section][key])
                                for section, key, typ, _, _ in _TABLE}, raw=raw)
    except ValueError as exc:
        raise UsageError(f"bad config value: {exc}") from None
    if cfg.solver_name not in _SOLVERS:
        raise UsageError(f"unknown solver {cfg.solver_name!r}")
    for section, key, _, _, rule in _TABLE:
        if rule and not rule[0](getattr(cfg, _field_name(key))):
            raise DataError(f"[{section}] {key} must be {rule[1]}, "
                            f"got {raw[section][key]!r}")
    return cfg

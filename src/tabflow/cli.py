"""Pipeline command-line interface.

Subcommands: synthdata, render, train, transfer, eval, stats. Global flags
--config/--seed/--workdir; synthdata's --n sets [synthdata] n_scores. Exit
codes: 0 success, 1 usage, 2 data error (a config value out of range exits 2
naming its [section] key, before any file is read or written), 3 numeric
failure. Every written artifact embeds the config hash (WAV comment chunk,
CSV comment line, checkpoint config echo).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
import time
from pathlib import Path

import numpy as np

from . import audiodist, flowmatch, latentcodec, mosstats, wavio
from . import neuralnet as nn
from .config import PipelineConfig, load_config
from .errors import DataError, NumericError, UsageError
from .fixtures import toy_corpus
from .stringsynth import (STYLE_PRESETS, AudioBuffer, amp_process,
                          normalize_rms, render)
from .tabscore import Score, parse_score, serialize_score

SOURCE_STYLE = "synthetic"
TARGET_STYLE = "pseudo_real"


def _resolve(cfg: PipelineConfig, p: Path) -> Path:
    return p if p.is_absolute() else cfg.workdir / p


def _scores_dir(cfg) -> Path:
    return _resolve(cfg, cfg.scores_dir)


def _audio_dir(cfg, style: str) -> Path:
    return _resolve(cfg, cfg.audio_dir) / style


def _read_score(path: Path) -> Score:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: score is not UTF-8 text") from None
    return parse_score(text)


def _load_audio(cfg: PipelineConfig, path: Path) -> AudioBuffer:
    samples, rate = wavio.read_wav(path)
    if rate != cfg.sample_rate:
        raise DataError(f"{path}: sample rate {rate} Hz does not match "
                        f"config sample_rate {cfg.sample_rate} Hz")
    return AudioBuffer(samples, rate)


# ---------------------------------------------------------------- synthdata

def cmd_synthdata(cfg: PipelineConfig) -> list[str]:
    """Generate scores and render both styles; returns the stems written."""
    scores_dir = _scores_dir(cfg)
    scores_dir.mkdir(parents=True, exist_ok=True)
    for style in (SOURCE_STYLE, TARGET_STYLE):
        _audio_dir(cfg, style).mkdir(parents=True, exist_ok=True)

    stems = []
    scores = toy_corpus(cfg.n_scores, seed=cfg.seed, target_seconds=cfg.score_seconds)
    for i, score in enumerate(scores):
        stem = f"score_{i:03d}"
        (scores_dir / f"{stem}.gftab").write_text(serialize_score(score))
        for style in (SOURCE_STYLE, TARGET_STYLE):
            audio = render(score, STYLE_PRESETS[style], cfg.sample_rate)
            wavio.write_wav(_audio_dir(cfg, style) / f"{stem}.wav", audio.samples,
                            audio.sample_rate, comment=f"cfg={cfg.hash()}")
        stems.append(stem)
    return stems


# ------------------------------------------------------------------- render

def cmd_render(cfg: PipelineConfig, style: str) -> list[Path]:
    """Render every score in the scores dir with one style preset."""
    if style not in STYLE_PRESETS:
        raise UsageError(f"unknown style {style!r}; presets: {sorted(STYLE_PRESETS)}")
    scores_dir = _scores_dir(cfg)
    if not scores_dir.is_dir():
        raise DataError(f"scores directory not found: {scores_dir}")
    paths = sorted(scores_dir.glob("*.gftab"))
    if not paths:
        raise DataError(f"no .gftab scores in {scores_dir}")
    out_dir = _audio_dir(cfg, style)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for path in paths:
        score = _read_score(path)
        audio = render(score, STYLE_PRESETS[style], cfg.sample_rate)
        out = out_dir / f"{path.stem}.wav"
        wavio.write_wav(out, audio.samples, audio.sample_rate, comment=f"cfg={cfg.hash()}")
        written.append(out)
    return written


# -------------------------------------------------------------------- train

def _paired_stems(dirs: dict[str, Path]) -> list[str]:
    """Sorted WAV stems of the first directory, each checked present in every
    directory; dirs maps a label for the error messages to a directory."""
    for label, d in dirs.items():
        if not d.is_dir():
            raise DataError(f"{label} directory not found: {d}")
    first_label, first = next(iter(dirs.items()))
    stems = sorted(p.stem for p in first.glob("*.wav"))
    if not stems:
        raise DataError(f"no WAV files in {first_label} directory {first}")
    for label, d in dirs.items():
        for path in (d / f"{s}.wav" for s in stems):
            if path.exists() and not path.is_file():
                raise DataError(f"{path} is not a file")
        missing = [s for s in stems if not (d / f"{s}.wav").exists()]
        if missing:
            raise DataError(f"stems missing in {label} directory {d}: {', '.join(missing)}")
    return stems


def _encode_stem(cfg: PipelineConfig, style: str, stem: str) -> np.ndarray:
    """[chunks, dims, frames] latents of one stem, in the UNet's channel layout."""
    audio = _load_audio(cfg, _audio_dir(cfg, style) / f"{stem}.wav")
    return latentcodec.encode(latentcodec.chunk(audio, cfg.chunk_seconds), cfg.dims)


def _train_test_split(cfg: PipelineConfig, stems: list[str]) -> tuple[list[str], list[str]]:
    order = list(np.random.default_rng(cfg.seed).permutation(len(stems)))
    n_train = max(1, int(round(cfg.train_split * len(stems))))
    train = sorted(stems[i] for i in order[:n_train])
    test = sorted(stems[i] for i in order[n_train:])
    return train, test


def cmd_train(cfg: PipelineConfig, out_checkpoint: Path | None = None):
    """Chunk, encode, and train; writes checkpoint plus loss history CSV."""
    stems = _paired_stems({style: _audio_dir(cfg, style)
                           for style in (SOURCE_STYLE, TARGET_STYLE)})
    train_stems, test_stems = _train_test_split(cfg, stems)
    sources, targets = [], []
    for stem in train_stems:
        src = _encode_stem(cfg, SOURCE_STYLE, stem)
        tgt = _encode_stem(cfg, TARGET_STYLE, stem)
        if len(src) != len(tgt):
            raise DataError(f"chunk count mismatch for {stem}: {len(src)} vs {len(tgt)}")
        sources.append(src)
        targets.append(tgt)

    t0 = time.perf_counter()
    net, state, history = flowmatch.train(np.concatenate(sources),
                                          np.concatenate(targets), cfg)
    elapsed = time.perf_counter() - t0

    cfg.workdir.mkdir(parents=True, exist_ok=True)
    ckpt = out_checkpoint or cfg.workdir / "model.ckpt"
    echo = {"config_hash": cfg.hash(), "dims": cfg.dims,
            "base_channels": cfg.base_channels, "seed": cfg.seed,
            "input_gain": net.input_gain,
            "train_stems": train_stems, "test_stems": test_stems,
            "config": cfg.raw}
    nn.save_checkpoint(ckpt, net.params, state, echo)

    loss_csv = cfg.workdir / "loss_history.csv"
    with open(loss_csv, "w", newline="") as fh:
        fh.write(f"# config {cfg.hash()}\n")
        writer = csv.writer(fh)
        writer.writerow(["step", "epoch", "loss"])
        for step, epoch, loss in history:
            writer.writerow([step, epoch, repr(loss)])

    steps = len(history)
    rate = steps / elapsed if elapsed > 0 else float("inf")
    print(f"trained {steps} steps in {elapsed:.1f} s ({rate:.2f} steps/s); "
          f"checkpoint: {ckpt}")
    return ckpt, history


# ----------------------------------------------------------------- transfer

def _load_net(checkpoint: Path) -> tuple[nn.VelocityNet, dict]:
    params, _, echo = nn.load_checkpoint(checkpoint)
    for key in ("dims", "base_channels", "input_gain"):
        value = echo.get(key)
        if type(value) not in (int, float) or not 0 < value < np.inf:  # NaN fails too
            raise DataError(f"{checkpoint}: config echo needs a positive number for "
                            f"{key!r}, got {value!r}")
    # every weight is overwritten below, so the init seed does not matter
    net = nn.VelocityNet(int(echo["dims"]), base_channels=int(echo["base_channels"]),
                         input_gain=echo["input_gain"])
    missing = [name for name in net.params if name not in params]
    if missing:
        raise DataError(f"{checkpoint}: checkpoint lacks parameters {', '.join(missing)}")
    for name, arr in params.items():
        if name not in net.params:
            raise DataError(f"checkpoint parameter {name} not in model")
        if net.params[name].data.shape != arr.shape:
            raise DataError(f"checkpoint shape mismatch for {name}: "
                            f"{arr.shape} vs {net.params[name].data.shape}")
        net.params[name].data[...] = arr
    return net, echo


def cmd_transfer(cfg: PipelineConfig, checkpoint: Path, input_path: Path,
                 output_path: Path) -> Path:
    """Encode, transport each chunk through the flow ODE, decode, write WAV."""
    checkpoint = Path(checkpoint)
    input_path = Path(input_path)
    if not checkpoint.is_file():
        raise DataError(f"checkpoint not found: {checkpoint}")
    net, echo = _load_net(checkpoint)
    if net.dims != cfg.dims:
        raise DataError(f"checkpoint dims {net.dims} do not match config dims {cfg.dims}")

    if input_path.suffix == ".gftab":
        audio = render(_read_score(input_path),
                       STYLE_PRESETS[SOURCE_STYLE], cfg.sample_rate)
    else:
        audio = _load_audio(cfg, input_path)

    chunks = latentcodec.chunk(audio, cfg.chunk_seconds)
    # full-band analysis; the flow transports the first cfg.dims coefficients
    # and the remaining high bands pass through from the source unchanged
    full = latentcodec.encode(chunks, 1024)
    full[:, :cfg.dims] = flowmatch.transfer_batch(net, full[:, :cfg.dims], cfg.solver())
    decoded = latentcodec.decode(full)
    # a decoded chunk falls short of its chunk by less than a hop; zeros fill it
    pieces = np.zeros(chunks.shape, dtype=np.float32)
    pieces[:, :decoded.shape[-1]] = decoded
    out = AudioBuffer(pieces.reshape(-1)[:len(audio.samples)], audio.sample_rate)

    output_path = Path(output_path)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    wavio.write_wav(output_path, out.samples, out.sample_rate, comment=f"cfg={cfg.hash()}")
    return output_path


# --------------------------------------------------------------------- eval

_CONDITIONS = ("di", "amp")
_SYSTEMS = ("render", "guitarflow")


def _condition_audio(cfg: PipelineConfig, audio: AudioBuffer, condition: str) -> AudioBuffer:
    """condition is one of _CONDITIONS, which cmd_eval checks."""
    if condition == "di":
        return audio
    normalized = normalize_rms(audio, cfg.normalize_db)
    return amp_process(normalized, cfg.amp_drive, cfg.amp_tone_cutoff)


def _subsample(e: np.ndarray, limit: int, seed_key: int) -> np.ndarray:
    if len(e) <= limit:
        return e
    rng = np.random.default_rng([seed_key, limit])
    return e[np.sort(rng.choice(len(e), size=limit, replace=False))]


def cmd_eval(cfg: PipelineConfig, real_dir: Path, render_dir: Path,
             guitarflow_dir: Path, conditions=("di", "amp")):
    """FAD/KAD/reconstruction metrics of both systems against the real corpus."""
    conditions = tuple(conditions)
    if not conditions or len(set(conditions)) < len(conditions) or any(
            c not in _CONDITIONS for c in conditions):
        raise UsageError(f"conditions must be distinct names from {', '.join(_CONDITIONS)}; "
                         f"got {','.join(conditions)!r}")
    dirs = {"real": Path(real_dir), "render": Path(render_dir),
            "guitarflow": Path(guitarflow_dir)}
    stems = _paired_stems(dirs)

    # embeds[label][condition] lists the [F, E] embedding of every stem; each
    # WAV is read once and conditioned as many ways as asked. real comes
    # first, so each system stem is checked against its real frames at once.
    embeds = {label: {c: [] for c in conditions} for label in dirs}
    for label, d in dirs.items():
        for k, stem in enumerate(stems):
            audio = _load_audio(cfg, d / f"{stem}.wav")
            for c in conditions:
                embeds[label][c].append(audiodist.embed(_condition_audio(cfg, audio, c)))
            a, b = embeds[label][c][k].shape, embeds["real"][c][k].shape
            if a != b:
                raise DataError(f"stem {stem}: embeddings not frame-aligned ({a} vs {b})")

    rows = []  # (condition, metric, system, value)
    for condition in conditions:
        pooled = {label: np.vstack(embeds[label][condition]) for label in dirs}
        real = pooled["real"]
        # one real subsample (seed cfg.seed) serves both systems
        real_kad = _subsample(real, cfg.kad_max_frames, cfg.seed)
        for j, system in enumerate(_SYSTEMS):
            rows.append((condition, "fad", system, audiodist.fad(real, pooled[system])))
            system_kad = _subsample(pooled[system], cfg.kad_max_frames, cfg.seed + 1 + j)
            # kad's own default bandwidth, taken here so that it is reported
            sigma = audiodist.median_bandwidth(real_kad, system_kad)
            print(f"kad {condition} {system}: sigma {sigma!r} over {len(real_kad)} real "
                  f"+ {len(system_kad)} {system} frames")
            rows.append((condition, "kad", system,
                         audiodist.kad(real_kad, system_kad, bandwidth=sigma)))
        for system in _SYSTEMS:
            # pooled frames, so each stem weighs by its frame count
            rows.append((condition, "recon", system,
                         audiodist.recon_distance(real, pooled[system])))

    cfg.workdir.mkdir(parents=True, exist_ok=True)
    out_csv = cfg.workdir / "metrics.csv"
    with open(out_csv, "w", newline="") as fh:
        fh.write(f"# config {cfg.hash()}\n")
        writer = csv.writer(fh)
        writer.writerow(["condition", "metric", "system", "value"])
        for row in rows:
            writer.writerow([row[0], row[1], row[2], repr(row[3])])

    print(f"{'condition':<10} {'metric':<7} {'render':>14} {'guitarflow':>14}")
    table = {(c, m): {} for c, m, _, _ in rows}
    for c, m, s, v in rows:
        table[(c, m)][s] = v
    for (c, m), vals in table.items():
        print(f"{c:<10} {m:<7} {vals['render']:>14.6f} {vals['guitarflow']:>14.6f}")
    return rows


# -------------------------------------------------------------------- stats

def cmd_stats(cfg: PipelineConfig, ratings_csv: Path, m: int, alpha: float = 0.05):
    """Friedman + pairwise Wilcoxon at the Bonferroni-corrected threshold."""
    ratings_csv = Path(ratings_csv)
    if not ratings_csv.is_file():
        raise DataError(f"ratings file not found: {ratings_csv}")
    with open(ratings_csv, newline="") as fh:
        reader = csv.DictReader(row for row in fh if not row.startswith("#"))
        if reader.fieldnames is None:
            raise DataError(f"{ratings_csv}: empty ratings CSV")
        required = {"rater", "item", "system", "score"}
        if not required.issubset(set(reader.fieldnames)):
            raise DataError(f"{ratings_csv}: header must contain {sorted(required)}")
        has_condition = "condition" in reader.fieldnames
        labels = ("rater", "item", "system") + (("condition",) if has_condition else ())
        by_condition: dict[str, list] = {}
        for k, row in enumerate(reader, 1):
            try:
                score = float(row["score"])
            except (TypeError, ValueError):
                raise DataError(f"{ratings_csv}: rating row {k} has no numeric score: "
                                f"{row['score']!r}") from None
            # DictReader fills a short row's fields with None, a long row's extras under None
            missing = [f for f in labels if row[f] is None]
            if missing:
                raise DataError(f"{ratings_csv}: rating row {k} lacks {', '.join(missing)}")
            if None in row:
                raise DataError(f"{ratings_csv}: rating row {k} has more fields than the "
                                f"header: {row[None]!r}")
            cond = row["condition"] if has_condition else "all"
            by_condition.setdefault(cond, []).append(
                (row["rater"], row["item"], row["system"], score))
    if not by_condition:
        raise DataError(f"{ratings_csv}: no rating rows")

    alpha_corr = mosstats.bonferroni(alpha, m)
    tables = {cond: mosstats.RatingTable.from_rows(by_condition[cond])
              for cond in sorted(by_condition)}
    results = []  # (condition, comparison, TestResult)
    for cond, table in tables.items():
        results.append((cond, "all-systems", mosstats.friedman(table)))
        for a, b in itertools.combinations(table.systems, 2):
            res = mosstats.wilcoxon_signed_rank(table.column(a), table.column(b))
            res = mosstats.TestResult(res.statistic, res.p_value, res.method,
                                      df=res.df, alpha_corrected=alpha_corr,
                                      zeros_dropped=res.zeros_dropped)
            results.append((cond, f"{a}-vs-{b}", res))

    cfg.workdir.mkdir(parents=True, exist_ok=True)
    tests_csv = cfg.workdir / "stats_tests.csv"
    with open(tests_csv, "w", newline="") as fh:
        fh.write(f"# config {cfg.hash()}\n")
        writer = csv.writer(fh)
        writer.writerow(["condition", "comparison", "method", "statistic", "df",
                         "p_value", "alpha_corrected", "zeros_dropped", "significant"])
        for cond, comp, r in results:
            threshold = r.alpha_corrected if r.alpha_corrected is not None else alpha
            writer.writerow([cond, comp, r.method, repr(r.statistic),
                             "" if r.df is None else r.df, repr(r.p_value),
                             "" if r.alpha_corrected is None else f"{r.alpha_corrected:.4f}",
                             r.zeros_dropped, str(r.p_value < threshold).lower()])
    (cfg.workdir / "mos_summary.csv").write_text(
        f"# config {cfg.hash()}\n" + mosstats.mos_summary_csv(tables))

    print(f"bonferroni: alpha {alpha} / m {m} -> {alpha_corr:.4f}")
    for cond, comp, r in results:
        print(f"{cond:<8} {comp:<24} {r.method:<36} stat={r.statistic:.4f} "
              f"p={r.p_value:.6f}")
    return results


# --------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    parser = Parser(prog="tabflow", description=__doc__)
    parser.add_argument("--config", type=Path, default=None, help="INI config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--workdir", type=Path, default=None, help="override workdir")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthdata", help="generate paired toy scores and renders")
    p.add_argument("--n", type=int, default=None, help="number of scores")

    p = sub.add_parser("render", help="render scores with one style preset")
    p.add_argument("--style", default=SOURCE_STYLE, choices=sorted(STYLE_PRESETS))

    p = sub.add_parser("train", help="train the flow on paired renders")
    p.add_argument("--out", type=Path, default=None, help="checkpoint path")

    p = sub.add_parser("transfer", help="style-transfer one WAV or score")
    p.add_argument("checkpoint", type=Path)
    p.add_argument("input", type=Path)
    p.add_argument("output", type=Path)

    p = sub.add_parser("eval", help="FAD/KAD/recon metrics against a real corpus")
    p.add_argument("--real", type=Path, required=True)
    p.add_argument("--render", type=Path, required=True)
    p.add_argument("--guitarflow", type=Path, required=True)
    p.add_argument("--conditions", default="di,amp")

    p = sub.add_parser("stats", help="Friedman/Wilcoxon analysis of a ratings CSV")
    p.add_argument("ratings", type=Path)
    p.add_argument("--m", type=int, required=True, help="Bonferroni divisor")
    p.add_argument("--alpha", type=float, default=0.05)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        overrides = {}
        for section, key, value in (("cli", "seed", args.seed),
                                    ("paths", "workdir", args.workdir),
                                    ("synthdata", "n_scores", getattr(args, "n", None))):
            if value is not None:
                overrides.setdefault(section, {})[key] = str(value)
        cfg = load_config(args.config, overrides)

        if args.command == "synthdata":
            stems = cmd_synthdata(cfg)
            print(f"wrote {len(stems)} scores with 2 renders each under {cfg.workdir}")
        elif args.command == "render":
            written = cmd_render(cfg, args.style)
            print(f"rendered {len(written)} files to {written[0].parent}")
        elif args.command == "train":
            cmd_train(cfg, args.out)
        elif args.command == "transfer":
            out = cmd_transfer(cfg, args.checkpoint, args.input, args.output)
            print(f"wrote {out}")
        elif args.command == "eval":
            conditions = tuple(c.strip() for c in args.conditions.split(","))
            cmd_eval(cfg, args.real, args.render, args.guitarflow, conditions)
        elif args.command == "stats":
            cmd_stats(cfg, args.ratings, args.m, args.alpha)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:  # an OSError's message names its path
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Pipeline command-line interface.

Subcommands: synthdata, render, train, transfer, eval, stats. Global flags
--config/--seed/--workdir. Exit codes: 0 success, 1 usage, 2 data error (a
config value out of range exits 2 naming its [section] key, before any file
is read or written), 3 numeric failure. Every written artifact embeds the
config hash (WAV comment chunk, CSV comment line, checkpoint config echo).

eval scores each system in a DI condition (the audio as it is) and an amp
condition: RMS-normalized to AMP_LEVEL_DB dBFS, driven into tanh with gain
AMP_DRIVE, then through a one-pole tone filter at AMP_TONE_CUTOFF_HZ. KAD
scores seeded subsamples of at most KAD_MAX_FRAMES frames of each set.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import audiodist, flowmatch, latentcodec, mosstats, wavio
from . import neuralnet as nn
from .config import PipelineConfig, load_config
from .errors import DataError, NumericError, UsageError
from .fixtures import toy_corpus
from .stringsynth import (SAMPLE_RATE, STYLE_PRESETS, AudioBuffer, amp_process,
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
        text = path.read_text(encoding="utf-8-sig")  # a leading BOM is skipped
    except UnicodeDecodeError:
        raise DataError(f"{path}: score is not UTF-8 text") from None
    return parse_score(text)


def _load_audio(path: Path) -> AudioBuffer:
    samples, rate = wavio.read_wav(path)
    if rate != SAMPLE_RATE:
        raise DataError(f"{path}: sample rate {rate} Hz is not the pipeline's "
                        f"{SAMPLE_RATE} Hz")
    try:
        return AudioBuffer(samples)
    except DataError as exc:  # a NaN sample, say: name the file
        raise DataError(f"{path}: {exc}") from None


def _write_table(cfg: PipelineConfig, name: str, header: list[str], rows,
                 note: str | None = None) -> None:
    """Write <workdir>/<name>: the line '# config <hash>', then '# <note>' if
    given, then the header and rows as CSV, every line ending in LF."""
    cfg.workdir.mkdir(parents=True, exist_ok=True)
    with open(cfg.workdir / name, "w", newline="") as fh:
        fh.write(f"# config {cfg.hash()}\n")
        if note is not None:
            fh.write(f"# {note}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------- synthdata

def cmd_synthdata(cfg: PipelineConfig) -> list[str]:
    """Generate scores and render both styles; returns the stems written.

    Both styles are rendered from the written .gftab files by render's own
    loop, so the audio is what `render` makes of them; other scores already
    in the directory are not rendered."""
    scores_dir = _scores_dir(cfg)
    scores_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    scores = toy_corpus(cfg.n_scores, seed=cfg.seed, target_seconds=cfg.score_seconds)
    for i, score in enumerate(scores):
        path = scores_dir / f"score_{i:03d}.gftab"
        path.write_text(serialize_score(score))
        paths.append(path)
    for style in (SOURCE_STYLE, TARGET_STYLE):
        _render_scores(cfg, style, paths)
    return [path.stem for path in paths]


# ------------------------------------------------------------------- render

def _render_scores(cfg: PipelineConfig, style: str, paths: list[Path]) -> list[Path]:
    """Render each .gftab score in paths to <audio_dir>/<style>/<stem>.wav."""
    out_dir = _audio_dir(cfg, style)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for path in paths:
        audio = render(_read_score(path), STYLE_PRESETS[style])
        out = out_dir / f"{path.stem}.wav"
        wavio.write_wav(out, audio.samples, SAMPLE_RATE, comment=f"cfg={cfg.hash()}")
        written.append(out)
    return written


def cmd_render(cfg: PipelineConfig, style: str) -> list[Path]:
    """Render every score in the scores dir with a STYLE_PRESETS style."""
    scores_dir = _scores_dir(cfg)
    if not scores_dir.is_dir():
        raise DataError(f"scores directory not found: {scores_dir}")
    paths = sorted(scores_dir.glob("*.gftab"))
    if not paths:
        raise DataError(f"no .gftab scores in {scores_dir}")
    return _render_scores(cfg, style, paths)


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
    """[chunks, DIMS, frames] latents of one stem, in the UNet's channel layout."""
    audio = _load_audio(_audio_dir(cfg, style) / f"{stem}.wav")
    return latentcodec.encode(latentcodec.chunk(audio))


def _train_test_split(cfg: PipelineConfig, stems: list[str]) -> tuple[list[str], list[str]]:
    order = list(np.random.default_rng(cfg.seed).permutation(len(stems)))
    n_train = max(1, int(round(cfg.train_split * len(stems))))
    train = sorted(stems[i] for i in order[:n_train])
    test = sorted(stems[i] for i in order[n_train:])
    return train, test


def _drain_concat(arrays: list[np.ndarray]) -> np.ndarray:
    """np.concatenate(arrays), emptying the list so its pieces can be freed."""
    out = np.concatenate(arrays)
    arrays.clear()
    return out


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
    del src, tgt

    t0 = time.perf_counter()
    # the concatenations are passed as temporaries, which train drops once
    # it has cast them, so no float64 latents live through training
    net, state, history = flowmatch.train(_drain_concat(sources),
                                          _drain_concat(targets), cfg)
    elapsed = time.perf_counter() - t0

    cfg.workdir.mkdir(parents=True, exist_ok=True)
    ckpt = out_checkpoint or cfg.workdir / "model.ckpt"
    echo = {"config_hash": cfg.hash(), "input_gain": net.input_gain,
            "train_stems": train_stems, "test_stems": test_stems,
            "config": cfg.raw}
    nn.save_checkpoint(ckpt, net.params, state, echo)

    _write_table(cfg, "loss_history.csv", ["step", "epoch", "loss"],
                 ([step, epoch, repr(loss)] for step, epoch, loss in history))

    steps = len(history)
    rate = steps / elapsed if elapsed > 0 else float("inf")
    print(f"trained {steps} steps in {elapsed:.1f} s ({rate:.2f} steps/s); "
          f"checkpoint: {ckpt}")
    return ckpt, history


# ----------------------------------------------------------------- transfer

def _load_net(checkpoint: Path) -> nn.VelocityNet:
    params, _, echo = nn.load_checkpoint(checkpoint)
    gain = echo.get("input_gain")
    if type(gain) not in (int, float) or not 0 < gain < np.inf:  # NaN fails too
        raise DataError(f"{checkpoint}: config echo needs a positive number for "
                        f"'input_gain', got {gain!r}")
    # the net's width is enc0.w's output channels, and every array is held to
    # the shapes it implies before a net is built
    enc0 = params.get("enc0.w")
    if enc0 is None or enc0.ndim != 3 or enc0.shape[0] < 1:
        raise DataError(f"{checkpoint}: enc0.w must have shape (width >= 1, "
                        f"{latentcodec.DIMS + 1}, 3), got {getattr(enc0, 'shape', None)}")
    width = enc0.shape[0]
    shapes = nn.param_shapes(latentcodec.DIMS, width)
    missing = [name for name in shapes if name not in params]
    if missing:
        raise DataError(f"{checkpoint}: checkpoint lacks parameters {', '.join(missing)}")
    for name, arr in params.items():
        if name not in shapes:
            raise DataError(f"{checkpoint}: checkpoint parameter {name} not in model")
        if shapes[name] != arr.shape:
            raise DataError(f"{checkpoint}: parameter {name} has shape {arr.shape}, but "
                            f"latent width {latentcodec.DIMS} and net width {width} "
                            f"imply {shapes[name]}")
        if not np.isfinite(arr).all():
            raise DataError(f"{checkpoint}: parameter {name} holds NaN or Inf values")
    return nn.VelocityNet.from_arrays({name: params[name] for name in shapes}, gain)


def cmd_transfer(cfg: PipelineConfig, checkpoint: Path, input_path: Path,
                 output_path: Path) -> Path:
    """Encode, transport each chunk through the flow ODE, decode, write WAV.

    Prints the solver's counts once the WAV is written: network calls (NFE),
    accepted and rejected steps."""
    checkpoint = Path(checkpoint)
    input_path = Path(input_path)
    if not checkpoint.is_file():
        raise DataError(f"checkpoint not found: {checkpoint}")
    net = _load_net(checkpoint)

    if input_path.suffix == ".gftab":
        audio = render(_read_score(input_path), STYLE_PRESETS[SOURCE_STYLE])
    else:
        audio = _load_audio(input_path)

    chunks = latentcodec.chunk(audio)
    # the flow moves the first latentcodec.DIMS coefficients of each frame;
    # decode passes the source's other bands through unchanged
    z = latentcodec.encode(chunks)
    moved, trace = flowmatch.transfer_batch(net, z, cfg.solver, cfg.steps)
    pieces = latentcodec.decode(moved - z, chunks)
    out = AudioBuffer(pieces.reshape(-1)[:len(audio.samples)])

    output_path = Path(output_path)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    wavio.write_wav(output_path, out.samples, SAMPLE_RATE, comment=f"cfg={cfg.hash()}")
    print(f"ode {cfg.solver}: {trace.f_evals} network calls, "
          f"{trace.accepted_steps} accepted and {trace.rejected_steps} rejected steps")
    return output_path


# --------------------------------------------------------------------- eval

_CONDITIONS = ("di", "amp")
AMP_LEVEL_DB = -9.0
AMP_DRIVE = 6.0
AMP_TONE_CUTOFF_HZ = 5000.0
KAD_MAX_FRAMES = 2048
_SYSTEMS = ("render", "guitarflow")


def _condition_audio(audio: AudioBuffer, condition: str) -> AudioBuffer:
    """condition is one of _CONDITIONS, which cmd_eval checks."""
    if condition == "di":
        return audio
    normalized = normalize_rms(audio, AMP_LEVEL_DB)
    return amp_process(normalized, AMP_DRIVE, AMP_TONE_CUTOFF_HZ)


def _subsample(e: np.ndarray, seed_key: int) -> np.ndarray:
    if len(e) <= KAD_MAX_FRAMES:
        return e
    rng = np.random.default_rng([seed_key, KAD_MAX_FRAMES])
    return e[np.sort(rng.choice(len(e), size=KAD_MAX_FRAMES, replace=False))]


def cmd_eval(cfg: PipelineConfig, real_dir: Path, render_dir: Path,
             guitarflow_dir: Path, conditions: tuple[str, ...]):
    """FAD/KAD/reconstruction metrics of both systems against the real corpus.

    Writes metrics.csv before it prints anything: each KAD bandwidth, then
    the table."""
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
            path = d / f"{stem}.wav"
            audio = _load_audio(path)
            for c in conditions:
                # a silent stem, which has no RMS level to set, is named
                try:
                    embeds[label][c].append(audiodist.embed(_condition_audio(audio, c)))
                except DataError as exc:
                    raise DataError(f"{label} stem {path}, {c} condition: {exc}") from None
            a, b = embeds[label][c][k].shape, embeds["real"][c][k].shape
            if a != b:
                raise DataError(f"stem {stem}: embeddings not frame-aligned ({a} vs {b})")

    rows = []  # (condition, metric, system, value)
    sigma_lines = []
    for condition in conditions:
        # each list goes once it is stacked: the stack copies its rows
        pooled = {label: np.vstack(embeds[label].pop(condition)) for label in dirs}
        real = pooled["real"]
        # one real subsample (seed cfg.seed) serves both systems
        real_kad = _subsample(real, cfg.seed)
        for j, system in enumerate(_SYSTEMS):
            try:  # too few frames pooled (one-frame stems, say): name the sets
                rows.append((condition, "fad", system, audiodist.fad(real, pooled[system])))
                system_kad = _subsample(pooled[system], cfg.seed + 1 + j)
                # kad's bandwidth: the median heuristic over the two sets it scores
                sigma = audiodist.median_bandwidth(real_kad, system_kad)
                sigma_lines.append(f"kad {condition} {system}: sigma {sigma!r} over "
                                   f"{len(real_kad)} real + {len(system_kad)} {system} frames")
                rows.append((condition, "kad", system,
                             audiodist.kad(real_kad, system_kad, sigma)))
            except DataError as exc:
                raise DataError(f"{system} vs real, {condition} condition: {exc}") from None
        for system in _SYSTEMS:
            # pooled frames, so each stem weighs by its frame count
            rows.append((condition, "recon", system,
                         audiodist.recon_distance(real, pooled[system])))

    _write_table(cfg, "metrics.csv", ["condition", "metric", "system", "value"],
                 ([c, m, s, repr(v)] for c, m, s, v in rows))

    print(*sigma_lines, sep="\n")
    print(f"{'condition':<10} {'metric':<7} {'render':>14} {'guitarflow':>14}")
    table = {(c, m): {} for c, m, _, _ in rows}
    for c, m, s, v in rows:
        table[(c, m)][s] = v
    for (c, m), vals in table.items():
        print(f"{c:<10} {m:<7} {vals['render']:>14.6f} {vals['guitarflow']:>14.6f}")
    return rows


# -------------------------------------------------------------------- stats

def cmd_stats(cfg: PipelineConfig, ratings_csv: Path, m: int, alpha: float):
    """Friedman + pairwise Wilcoxon at the Bonferroni-corrected threshold."""
    ratings_csv = Path(ratings_csv)
    if not ratings_csv.is_file():
        raise DataError(f"ratings file not found: {ratings_csv}")
    try:
        text = ratings_csv.read_bytes().decode("utf-8-sig")  # a leading BOM is skipped
    except UnicodeDecodeError:
        raise DataError(f"{ratings_csv}: ratings file is not UTF-8 text") from None
    # newline="" hands csv each line with its ending, as a file opened so would
    reader = csv.DictReader(row for row in io.StringIO(text, newline="")
                            if not row.startswith("#"))
    if reader.fieldnames is None:
        raise DataError(f"{ratings_csv}: empty ratings CSV")
    twice = [f for f in reader.fieldnames if reader.fieldnames.count(f) > 1]
    if twice:  # DictReader would keep the last column of the name
        raise DataError(f"{ratings_csv}: header names column {twice[0]!r} twice")
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
            score = math.nan
        if not math.isfinite(score):
            raise DataError(f"{ratings_csv}: rating row {k} has no numeric score: "
                            f"{row['score']!r}")
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
            results.append((cond, f"{a}-vs-{b}", res))

    test_rows = []
    for cond, comp, r in results:
        # the omnibus Friedman test runs at alpha, each pairwise test at the
        # Bonferroni-corrected alpha
        pairwise = comp != "all-systems"
        threshold = alpha_corr if pairwise else alpha
        test_rows.append([cond, comp, r.method, repr(r.statistic),
                          "" if r.df is None else r.df, repr(r.p_value),
                          f"{alpha_corr:.4f}" if pairwise else "",
                          r.zeros_dropped, str(r.p_value < threshold).lower()])
    _write_table(cfg, "stats_tests.csv",
                 ["condition", "comparison", "method", "statistic", "df", "p_value",
                  "alpha_corrected", "zeros_dropped", "significant"], test_rows)
    # one row per condition and system, for boxplots
    _write_table(cfg, "mos_summary.csv",
                 ["condition", "system", "mean", "median", "q1", "q3", "min", "max", "n"],
                 ([cond, s, q["mean"], q["median"], q["q1"], q["q3"], q["min"], q["max"],
                   int(q["n"])]
                  for cond, table in tables.items()
                  for s, q in mosstats.mos_summary(table).items()),
                 note="quartiles: inclusive (Tukey hinges)")

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

    sub.add_parser("synthdata", help="generate paired toy scores and renders")

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
    p.add_argument("--conditions", default=",".join(_CONDITIONS))

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
                                    ("paths", "workdir", args.workdir)):
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
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return 0
    except BrokenPipeError:
        # the reader of stdout left early (`| head`) after the command's files
        # were written; stdout goes to devnull so the exit-time flush of what
        # is still buffered cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
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

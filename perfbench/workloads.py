"""The three workloads: set-up, one timed iteration, and its output checks.

Every command goes through `tabflow.cli.main` in this process (one client,
closed loop, workers = 1) with the default model, codec and solver settings;
only corpus size, epoch counts and train_split are set here. An iteration repeats the
same commands on the same inputs, so its outputs must match the first
iteration's bit for bit, and at REFERENCE_SEED they must match
reference.json.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from tabflow import cli, neuralnet, wavio

import corpus

REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
# Relative tolerances against reference.json. Summation order inside conv1d
# may change (ROADMAP direction 2b), which moves float32 losses and the
# transported audio by far less than this; renders must stay byte-identical.
LOSS_RTOL = 1e-3
EVAL_RTOL = 1e-3
EVAL_ATOL = 1e-6
PEAK_LIMIT = 0.995
SCORE_SECONDS = 12.5  # every render is 13.25-14.75 s long: exactly 4 chunks
CHUNK_SECONDS = 4.0   # the default codec chunk
SAMPLE_RATE = 44100   # the default render rate
BATCH = 64            # the default flowmatch batch_size

# Sizes per workload. "default" is the benchmark; "tiny" is for smoke tests.
SIZES = {
    "default": {
        "render": {"scores": 1, "seconds": SCORE_SECONDS},
        # 16 scores, all of them training stems -> 64 chunks: one full batch
        # of 64 per epoch
        "train": {"scores": 16, "seconds": SCORE_SECONDS, "epochs": 4},
        "transfer_eval": {"scores": 6, "seconds": SCORE_SECONDS, "split": 0.5,
                          "ckpt_epochs": 20},
    },
    "tiny": {
        "render": {"scores": 1, "seconds": 3.0},
        "train": {"scores": 2, "seconds": 3.0, "epochs": 1},
        "transfer_eval": {"scores": 2, "seconds": 3.0, "split": 0.5, "ckpt_epochs": 1},
    },
}


class CommandFailed(RuntimeError):
    pass


@dataclass
class Iteration:
    wall_s: float
    stages: dict[str, float]   # wall seconds per CLI stage
    throughput_s: float        # wall seconds of the throughput stage
    workdir: Path
    audio_s: float = 0.0       # audio seconds through the throughput stage
    attempted: int = 0
    bad: set = field(default_factory=set)        # operations that failed a check
    problems: list[str] = field(default_factory=list)
    outputs: object = None     # what reference.json records for this workload
    slowdown: float = 1.0      # machine slowdown probed around the timed commands

    @property
    def failed(self) -> int:
        """A problem no single operation owns fails every operation."""
        return self.attempted if self.problems and not self.bad else len(self.bad)


class Context:
    """What a workload needs from the runner: seed, size, tracer, references."""

    def __init__(self, seed: int, size: str, tracer=None):
        self.seed = seed
        self.size = size
        self.tracer = tracer
        self.tracing = False  # set per iteration by the runner
        reference = json.loads(REFERENCE_FILE.read_text())
        self.reference = (reference if size == "default" and seed == REFERENCE_SEED
                          else None)

    def tabflow(self, *argv) -> float:
        """Run one CLI command; returns its wall seconds, raises on nonzero exit."""
        argv = [str(a) for a in argv]
        name = next(a for a in argv if a in ("render", "train", "transfer", "eval"))
        out = io.StringIO()
        t0 = time.perf_counter()
        span = self.tracer.begin(f"cli.{name}") if self.tracing else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(argv)
        finally:
            if span is not None:
                self.tracer.end(span)
            dt = time.perf_counter() - t0
        if code != 0:
            raise CommandFailed(f"tabflow {' '.join(argv)} exited {code}: "
                                f"{out.getvalue().strip()}")
        return dt


def _write_ini(path: Path, sections: dict[str, dict[str, object]]) -> Path:
    lines = []
    for section, kv in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in kv.items())
    path.write_text("\n".join(lines) + "\n")
    return path


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _read(path: Path) -> np.ndarray:
    samples, _ = wavio.read_wav(path)
    return samples


def _render_both(ctx: Context, workdir: Path, config: Path | None = None) -> float:
    cfg = ["--config", config] if config else []
    return sum(ctx.tabflow(*cfg, "--seed", ctx.seed, "--workdir", workdir,
                           "render", "--style", style)
               for style in ("synthetic", "pseudo_real"))


class Workload:
    """Subclasses build inputs in setup(), run the timed commands in run()
    and verify that iteration's outputs in check(), outside the timing."""

    name = ""
    setup_repeats = 3

    def __init__(self, ctx: Context, root: Path):
        self.ctx = ctx
        self.root = root
        self.size = SIZES[ctx.size][self.name]
        self.first_outputs = None

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, k: int) -> Iteration:
        raise NotImplementedError

    def check(self, it: Iteration) -> None:
        raise NotImplementedError

    def _repeats(self, it: Iteration) -> None:
        """Same inputs, same commands: outputs must repeat bit for bit."""
        if self.first_outputs is None:
            self.first_outputs = it.outputs
        elif it.outputs != self.first_outputs:
            it.problems.append("outputs differ from the first iteration")


class Render(Workload):
    """`tabflow render` of both styles over seeded scores."""

    name = "render"
    setup_repeats = 5

    def setup(self) -> None:
        d = _fresh(self.root / "setup")
        scores = d / "scores"
        self.stems = corpus.write_scores(scores, self.size["scores"],
                                         self.size["seconds"], self.ctx.seed)
        self.config = _write_ini(d / "bench.ini", {"paths": {"scores_dir": scores}})
        # warm-up: the first score through both styles
        corpus.write_scores(d / "warm" / "scores", 1, self.size["seconds"], self.ctx.seed)
        _render_both(self.ctx, d / "warm")

    def run(self, k: int) -> Iteration:
        wd = _fresh(self.root / f"iter{k}")
        render_s = _render_both(self.ctx, wd, self.config)
        return Iteration(render_s, {"render": render_s}, render_s, wd,
                         attempted=len(self.stems))

    def check(self, it: Iteration) -> None:
        digest = hashlib.sha256()
        for stem in self.stems:
            pair = [_read(it.workdir / "audio" / style / f"{stem}.wav")
                    for style in ("synthetic", "pseudo_real")]
            for x in pair:
                digest.update(x.tobytes())
                it.audio_s += len(x) / SAMPLE_RATE
                if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > PEAK_LIMIT \
                        or not np.any(x):
                    it.bad.add(stem)
                    it.problems.append(f"{stem}: non-finite, silent or peak over {PEAK_LIMIT}")
            if len(pair[0]) != len(pair[1]):
                it.bad.add(stem)
                it.problems.append(f"{stem}: the two styles differ in length")
        it.outputs = digest.hexdigest()
        self._repeats(it)
        if self.ctx.reference and it.outputs != self.ctx.reference["render"]["sha256"]:
            it.problems.append("render sha256 differs from reference.json")


class Train(Workload):
    """`tabflow train` at B=64 from an empty workdir on a rendered corpus."""

    name = "train"
    setup_repeats = 2

    def setup(self) -> None:
        d = _fresh(self.root / "setup")
        corpus.write_scores(d / "scores", self.size["scores"], self.size["seconds"],
                            self.ctx.seed)
        _render_both(self.ctx, d)
        audio = d / "audio"
        sections = {"paths": {"audio_dir": audio}, "cli": {"train_split": 1.0}}
        self.config = _write_ini(d / "bench.ini", {
            **sections, "flowmatch": {"epochs": self.size["epochs"]}})
        # warm-up: one epoch, so the timed runs skip first-step costs
        warm = _write_ini(d / "warm.ini", {**sections, "flowmatch": {"epochs": 1}})
        self.ctx.tabflow("--config", warm, "--seed", self.ctx.seed,
                         "--workdir", d / "warm", "train")
        _, _, echo = neuralnet.load_checkpoint(d / "warm" / "model.ckpt")
        chunk = int(CHUNK_SECONDS * SAMPLE_RATE)
        self.train_chunks = sum(
            math.ceil(len(_read(audio / "synthetic" / f"{s}.wav")) / chunk)
            for s in echo["train_stems"])
        self.steps = self.size["epochs"] * math.ceil(self.train_chunks / BATCH)

    def run(self, k: int) -> Iteration:
        wd = self.root / f"iter{k}"
        shutil.rmtree(wd, ignore_errors=True)  # empty workdir: no latent cache
        train_s = self.ctx.tabflow("--config", self.config, "--seed", self.ctx.seed,
                                   "--workdir", wd, "train")
        samples = self.size["epochs"] * self.train_chunks
        return Iteration(train_s, {"train": train_s}, train_s, wd,
                         audio_s=samples * CHUNK_SECONDS, attempted=self.steps)

    def check(self, it: Iteration) -> None:
        with open(it.workdir / "loss_history.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        losses = [float(r["loss"]) for r in rows]
        it.outputs = losses
        it.bad |= {i for i, x in enumerate(losses) if not (math.isfinite(x) and x > 0)}
        if len(losses) != self.steps:
            it.problems.append(f"{len(losses)} loss rows, expected {self.steps}")
        if self.ctx.reference:
            ref = self.ctx.reference["train"]["loss"]
            if len(ref) != len(losses):
                it.problems.append("loss history length differs from reference.json")
            it.bad |= {i for i, (x, r) in enumerate(zip(losses, ref))
                       if abs(x - r) > LOSS_RTOL * abs(r)}
        if it.bad:
            it.problems.append(f"train steps {sorted(it.bad)} fail the loss checks")
        self._repeats(it)


class TransferEval(Workload):
    """`tabflow transfer` of held-out renders, then `tabflow eval`."""

    name = "transfer_eval"
    setup_repeats = 2

    def setup(self) -> None:
        d = _fresh(self.root / "setup")
        corpus.write_scores(d / "scores", self.size["scores"], self.size["seconds"],
                            self.ctx.seed)
        _render_both(self.ctx, d)
        config = _write_ini(d / "ckpt.ini", {
            "flowmatch": {"epochs": self.size["ckpt_epochs"]},
            "cli": {"train_split": self.size["split"]}})
        self.ckpt = d / "model.ckpt"
        self.ctx.tabflow("--config", config, "--seed", self.ctx.seed, "--workdir", d,
                         "train", "--out", self.ckpt)
        _, _, echo = neuralnet.load_checkpoint(self.ckpt)
        self.stems = echo["test_stems"]
        self.real = _fresh(d / "eval" / "real")
        self.render = _fresh(d / "eval" / "render")
        for stem in self.stems:
            shutil.copy(d / "audio" / "pseudo_real" / f"{stem}.wav", self.real)
            shutil.copy(d / "audio" / "synthetic" / f"{stem}.wav", self.render)
        # warm-up: one transfer
        self.ctx.tabflow("--seed", self.ctx.seed, "--workdir", d, "transfer", self.ckpt,
                         self.render / f"{self.stems[0]}.wav", d / "warm.wav")

    def run(self, k: int) -> Iteration:
        wd = _fresh(self.root / f"iter{k}")
        out = wd / "guitarflow"
        transfer_s = sum(
            self.ctx.tabflow("--seed", self.ctx.seed, "--workdir", wd, "transfer",
                             self.ckpt, self.render / f"{s}.wav", out / f"{s}.wav")
            for s in self.stems)
        eval_s = self.ctx.tabflow("--seed", self.ctx.seed, "--workdir", wd, "eval",
                                  "--real", self.real, "--render", self.render,
                                  "--guitarflow", out, "--conditions", "di,amp")
        return Iteration(transfer_s + eval_s, {"transfer": transfer_s, "eval": eval_s},
                         transfer_s, wd, attempted=len(self.stems))

    def check(self, it: Iteration) -> None:
        digest = hashlib.sha256()
        for stem in self.stems:
            x = _read(self.render / f"{stem}.wav")
            y = _read(it.workdir / "guitarflow" / f"{stem}.wav")
            it.audio_s += len(x) / SAMPLE_RATE
            digest.update(y.tobytes())
            if len(y) != len(x) or not np.all(np.isfinite(y)):
                it.bad.add(stem)
                it.problems.append(f"{stem}: transfer output not finite or wrong length")
        with open(it.workdir / "metrics.csv", newline="") as fh:
            rows = [[r["condition"], r["metric"], r["system"], float(r["value"])]
                    for r in csv.DictReader(line for line in fh if not line.startswith("#"))]
        it.attempted += len(rows)
        it.outputs = {"sha256": digest.hexdigest(), "rows": rows}
        if len(rows) != 12:
            it.problems.append(f"{len(rows)} eval rows, expected 12")
        ref = ({tuple(r[:3]): r[3] for r in self.ctx.reference["transfer_eval"]["rows"]}
               if self.ctx.reference else None)
        for row in rows:
            key, value = tuple(row[:3]), row[3]
            if not math.isfinite(value) or (ref is not None and (
                    key not in ref or abs(value - ref[key]) > EVAL_ATOL + EVAL_RTOL * abs(ref[key]))):
                it.bad.add(key)
                it.problems.append(f"eval row {row} fails the checks")
        self._repeats(it)


WORKLOADS = {w.name: w for w in (Render, Train, TransferEval)}

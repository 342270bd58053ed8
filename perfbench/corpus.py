"""Seeded GFTab scores whose render cost does not depend on the seed.

Each score is a sequence of groups (one note or a chord, held for a
duration, sometimes followed by a rest). The groups are drawn once from a
fixed base seed; the run's seed only shuffles their order inside each score.
Every seed therefore asks for the same notes (same strings, frets, lengths
and techniques) at different times, so the rendered audio differs while the
amount of synthesis work stays the same. With independent random scores the
render cost of ten seeds spread by 9-16% (quartile distance over median),
more than any bound this benchmark can hold.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

BASE_SEED = 2510
TICKS_PER_SECOND = 1920  # 120 bpm at 960 ticks per quarter
DURATIONS = (240, 480, 480, 960, 960, 1920)
REST = 480
DEFAULT_VELOCITY = 96


def _technique(rng: np.random.Generator, fret: int) -> str | None:
    r = rng.uniform()
    if r < 0.12:
        return f"bend:{float(rng.choice([0.5, 1.0, 2.0]))}"
    if r < 0.22:
        return "mute"
    if r < 0.30:
        return "hammer"
    if r < 0.36:
        return "pull"
    if r < 0.44:
        return f"slide:{int(np.clip(fret + rng.integers(-4, 5), 0, 24))}"
    if r < 0.52:
        return "vibrato"
    return None


def _groups(rng: np.random.Generator, seconds: float) -> list[tuple[int, int, list[str]]]:
    """(duration, gap to the next group, event tokens after the onset) per group."""
    groups = []
    onset = 0
    while onset < seconds * TICKS_PER_SECOND:
        duration = int(rng.choice(DURATIONS))
        velocity = int(rng.integers(70, 115)) if rng.uniform() < 0.3 else DEFAULT_VELOCITY
        vel = [] if velocity == DEFAULT_VELOCITY else [f"vel:{velocity}"]
        if rng.uniform() < 0.25:
            strings = rng.choice(6, size=int(rng.integers(2, 5)), replace=False) + 1
            base_fret = int(rng.integers(0, 9))
            events = [" ".join([str(s), str(base_fret + int(rng.integers(0, 3))),
                                str(duration)] + vel) for s in strings]
        else:
            string = int(rng.integers(1, 7))
            fret = int(rng.integers(0, 13))
            tech = _technique(rng, fret)
            events = [" ".join([str(string), str(fret), str(duration)] + vel
                               + ([tech] if tech else []))]
        gap = duration + (REST if rng.uniform() >= 0.8 else 0)
        groups.append((duration, gap, events))
        onset += gap
    return groups


def write_scores(out_dir: Path, n_scores: int, seconds: float, seed: int) -> list[str]:
    """Write n_scores GFTab files of about `seconds` each; returns their stems.

    Score k holds the k-th group list drawn from BASE_SEED, in an order drawn
    from (seed, k). The last note ends in [seconds - 0.25, seconds + 1.25) s.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    base = np.random.default_rng(BASE_SEED)
    stems = []
    for k in range(n_scores):
        groups = _groups(base, seconds)
        order = np.random.default_rng([seed, k]).permutation(len(groups))
        lines = ["gftab 1", "tempo 120", "tuning 40 45 50 55 59 64"]
        onset = 0
        for g in order:
            _, gap, events = groups[g]
            lines.extend(f"{onset} {e}" for e in events)
            onset += gap
        stem = f"score_{k:03d}"
        (out_dir / f"{stem}.gftab").write_text("\n".join(lines) + "\n")
        stems.append(stem)
    return stems

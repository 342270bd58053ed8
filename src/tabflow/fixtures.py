"""The seeded toy corpus that `tabflow synthdata` renders.

toy_corpus draws a list of random valid scores (single notes, chords and
every technique) from one seed, so the same seed gives the same scores.
"""

from __future__ import annotations

import numpy as np

from .tabscore import DEFAULT_VELOCITY, NoteEvent, Score, Technique, TechniqueKind


_TOY_DURATIONS = (240, 480, 480, 960, 960, 1920)


def random_score(rng: np.random.Generator, target_seconds: float) -> Score:
    """Random valid score at 120 bpm mixing single notes, chords, and techniques."""
    spt = Score().seconds_per_tick()
    events: list[NoteEvent] = []
    onset = 0
    while onset * spt < target_seconds:
        duration = int(rng.choice(_TOY_DURATIONS))
        velocity = int(rng.integers(70, 115)) if rng.uniform() < 0.3 else DEFAULT_VELOCITY
        if rng.uniform() < 0.25:
            strings = rng.choice(6, size=int(rng.integers(2, 5)), replace=False) + 1
            base_fret = int(rng.integers(0, 9))
            for s in strings:
                events.append(NoteEvent(onset, duration, int(s),
                                        base_fret + int(rng.integers(0, 3)),
                                        velocity))
        else:
            string = int(rng.integers(1, 7))
            fret = int(rng.integers(0, 13))
            technique = Technique()
            r = rng.uniform()
            if r < 0.12:
                technique = Technique(TechniqueKind.BEND,
                                      bend_semitones=float(rng.choice([0.5, 1.0, 2.0])))
            elif r < 0.22:
                technique = Technique(TechniqueKind.PALM_MUTE)
            elif r < 0.30:
                technique = Technique(TechniqueKind.HAMMER_ON)
            elif r < 0.36:
                technique = Technique(TechniqueKind.PULL_OFF)
            elif r < 0.44:
                technique = Technique(TechniqueKind.SLIDE,
                                      slide_to_fret=int(np.clip(fret + rng.integers(-4, 5),
                                                                0, 24)))
            elif r < 0.52:
                technique = Technique(TechniqueKind.VIBRATO)
            events.append(NoteEvent(onset, duration, string, fret, velocity, technique))
        onset += duration if rng.uniform() < 0.8 else duration + 480
    return Score(events=tuple(events))


def toy_corpus(n_scores: int, seed: int, target_seconds: float) -> list[Score]:
    """Seed-fixed list of generated scores; same seed, same scores."""
    rng = np.random.default_rng(seed)
    return [random_score(rng, target_seconds=target_seconds) for _ in range(n_scores)]

"""Guitar tablature data model and the GFTab plain-text event format.

GFTab is line based, UTF-8, one note event per line:

    gftab 1
    tempo 120
    tuning 40 45 50 55 59 64
    # onset string fret duration [modifiers]
    0 6 0 960
    960 3 7 480 bend:1.0

Modifiers are ``bend:<semitones>``, ``hammer``, ``pull``, ``slide:<fret>``,
``mute``, ``vibrato`` and the optional ``vel:<1-127>`` velocity override
(default 96). ``#`` starts a comment.

parse_score checks values by building the model objects (Technique,
NoteEvent, Score), so the rules live once, in the model; a ParseError names
the line and column of the failing model check. Score.__post_init__ is the
one place that sorts the events and checks them for overlap; parse_score
names the line of the event it rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DataError

TICKS_PER_QUARTER = 960
STANDARD_TUNING = (40, 45, 50, 55, 59, 64)  # string 6 (low E2) .. string 1 (high E4)
DEFAULT_VELOCITY = 96

MAX_FRET = 24
MAX_MIDI = 127
MAX_BEND_SEMITONES = 4.0


class TechniqueKind(Enum):
    NONE = "none"
    BEND = "bend"
    HAMMER_ON = "hammer"
    PULL_OFF = "pull"
    SLIDE = "slide"
    PALM_MUTE = "mute"
    VIBRATO = "vibrato"


@dataclass(frozen=True)
class Technique:
    kind: TechniqueKind = TechniqueKind.NONE
    bend_semitones: float = 0.0  # set for BEND, in (0, 4]
    slide_to_fret: int = 0      # set for SLIDE, in [0, 24]

    def __post_init__(self):
        if self.kind is TechniqueKind.BEND:
            if not (0.0 < self.bend_semitones <= MAX_BEND_SEMITONES):
                raise DataError(
                    f"bend semitones must be in (0, {MAX_BEND_SEMITONES}], "
                    f"got {self.bend_semitones}"
                )
        if self.kind is TechniqueKind.SLIDE:
            if not (0 <= self.slide_to_fret <= MAX_FRET):
                raise DataError(
                    f"slide target fret must be in [0, {MAX_FRET}], got {self.slide_to_fret}"
                )


NO_TECHNIQUE = Technique()


@dataclass(frozen=True)
class NoteEvent:
    onset_ticks: int
    duration_ticks: int
    string: int  # 1 (high) .. 6 (low)
    fret: int    # 0 .. 24
    velocity: int = DEFAULT_VELOCITY
    technique: Technique = NO_TECHNIQUE

    def __post_init__(self):
        if self.onset_ticks < 0:
            raise DataError(f"onset must be >= 0, got {self.onset_ticks}")
        if self.duration_ticks <= 0:
            raise DataError(f"duration must be > 0, got {self.duration_ticks}")
        if not (1 <= self.string <= 6):
            raise DataError(f"string out of range: {self.string}")
        if not (0 <= self.fret <= MAX_FRET):
            raise DataError(f"fret out of range: {self.fret}")
        if not (1 <= self.velocity <= 127):
            raise DataError(f"velocity out of range: {self.velocity}")

    @property
    def offset_ticks(self) -> int:
        return self.onset_ticks + self.duration_ticks


@dataclass(frozen=True)
class Score:
    tempo_bpm: float = 120.0
    tuning: tuple[int, ...] = STANDARD_TUNING
    events: tuple[NoteEvent, ...] = ()

    def __post_init__(self):
        if not 0 < self.tempo_bpm < math.inf:  # NaN fails too
            raise DataError(f"tempo must be finite and > 0, got {self.tempo_bpm}")
        if len(self.tuning) != 6:
            raise DataError("tuning must list 6 MIDI pitches, string 6 to string 1")
        for pitch in self.tuning:
            if not 0 <= pitch <= MAX_MIDI:
                raise DataError(f"tuning pitch {pitch} is outside MIDI 0-{MAX_MIDI}")
        if any(b <= a for a, b in zip(self.tuning, self.tuning[1:])):
            raise DataError("tuning pitches must strictly increase from string 6 to 1")
        events = tuple(sorted(self.events, key=lambda e: (e.onset_ticks, e.string)))
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "tuning", tuple(self.tuning))
        _check_no_overlap(events)

    def string_pitch(self, string: int) -> int:
        """MIDI pitch of the open string (string 1 = high E)."""
        return self.tuning[6 - string]

    @property
    def last_offset_ticks(self) -> int:
        return max((e.offset_ticks for e in self.events), default=0)

    def seconds_per_tick(self) -> float:
        return 60.0 / (self.tempo_bpm * TICKS_PER_QUARTER)


def _check_no_overlap(events) -> None:
    """Reject a note that starts before the previous note on its string ends.

    events must be in (onset, string) order. The DataError carries the
    offending event as its .event.
    """
    last_offset: dict[int, int] = {}
    for ev in events:
        prev = last_offset.get(ev.string, -1)
        if ev.onset_ticks < prev:
            exc = DataError(f"overlapping events on string {ev.string}: "
                            f"onset {ev.onset_ticks} < previous offset {prev}")
            exc.event = ev
            raise exc
        last_offset[ev.string] = max(prev, ev.offset_ticks)


def midi_hz(midi: int) -> float:
    """Equal-tempered frequency in Hz of a MIDI pitch: 440 * 2**((midi - 69) / 12)."""
    return 440.0 * 2.0 ** ((midi - 69) / 12.0)


def event_pitch(score: Score, ev: NoteEvent) -> float:
    """Fundamental frequency in Hz of the fretted note."""
    return midi_hz(score.string_pitch(ev.string) + ev.fret)


class ParseError(DataError):
    """GFTab syntax or domain error, tagged with line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _fmt_number(x: float) -> str:
    """Shortest decimal that round-trips; integral floats keep a trailing .0."""
    return repr(float(x))


def _build_at(line: int, column: int, model, *args, **kwargs):
    """model(*args, **kwargs), with a DataError from the model's checks
    raised as a ParseError at line and column."""
    try:
        return model(*args, **kwargs)
    except DataError as exc:
        raise ParseError(str(exc), line, column) from None


def _parse_int(token: str, what: str, line: int, column: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected integer {what}, got {token!r}", line, column) from None


def _parse_technique(tokens: list[str], line: int, first_column: int) -> tuple[Technique, int]:
    """The technique and velocity of an event's modifier tokens, the first at
    first_column; an error names its own token's column."""
    technique = NO_TECHNIQUE
    velocity = DEFAULT_VELOCITY
    seen_tech = seen_vel = False
    for column, tok in enumerate(tokens, first_column):
        name, _, arg = tok.partition(":")
        if name == "vel":
            if seen_vel:
                raise ParseError(f"multiple velocities on one event: {tok!r}", line, column)
            seen_vel = True
            velocity = _parse_int(arg, "velocity", line, column)
            continue
        if seen_tech:
            raise ParseError(f"multiple techniques on one event: {tok!r}", line, column)
        seen_tech = True
        if name == "bend":
            try:
                semis = float(arg)
            except ValueError:
                raise ParseError(f"bad bend amount {arg!r}", line, column) from None
            technique = _build_at(line, column, Technique, TechniqueKind.BEND,
                                  bend_semitones=semis)
        elif name == "slide":
            to_fret = _parse_int(arg, "slide fret", line, column)
            technique = _build_at(line, column, Technique, TechniqueKind.SLIDE,
                                  slide_to_fret=to_fret)
        elif name in ("hammer", "pull", "mute", "vibrato"):
            if arg:
                raise ParseError(f"technique {name!r} takes no argument", line, column)
            kind = {"hammer": TechniqueKind.HAMMER_ON, "pull": TechniqueKind.PULL_OFF,
                    "mute": TechniqueKind.PALM_MUTE, "vibrato": TechniqueKind.VIBRATO}[name]
            technique = Technique(kind)
        else:
            raise ParseError(f"unknown technique {tok!r}", line, column)
    return technique, velocity


def parse_score(text: str) -> Score:
    """Parse GFTab text into a Score; rejects invalid input with ParseError."""
    # (line number, tokens) of every line that is not blank or a comment
    lines = [(i, line.split("#", 1)[0].split()) for i, line in enumerate(text.splitlines(), 1)]
    lines = [(i, toks) for i, toks in lines if toks]
    if len(lines) < 3:
        raise ParseError("missing header (need 'gftab 1', 'tempo', 'tuning' lines)", 1)

    (ln0, head), (ln1, tempo_toks), (ln2, tuning_toks) = lines[0], lines[1], lines[2]
    if head != ["gftab", "1"]:
        raise ParseError(f"expected 'gftab 1' header, got {' '.join(head)!r}", ln0)
    if len(tempo_toks) != 2 or tempo_toks[0] != "tempo":
        raise ParseError("expected 'tempo <bpm>'", ln1)
    try:
        tempo = float(tempo_toks[1])
    except ValueError:
        raise ParseError(f"bad tempo {tempo_toks[1]!r}", ln1, 2) from None
    _build_at(ln1, 2, Score, tempo_bpm=tempo)
    if len(tuning_toks) != 7 or tuning_toks[0] != "tuning":
        raise ParseError("expected 'tuning <6 MIDI ints, string 6 to 1>'", ln2)
    tuning = tuple(_parse_int(t, "tuning pitch", ln2, k + 2) for k, t in enumerate(tuning_toks[1:]))
    _build_at(ln2, 1, Score, tempo_bpm=tempo, tuning=tuning)

    tagged: list[tuple[int, NoteEvent]] = []
    for ln, toks in lines[3:]:
        if len(toks) < 4:
            raise ParseError("event line needs '<onset> <string> <fret> <duration>'", ln)
        onset = _parse_int(toks[0], "onset", ln, 1)
        string = _parse_int(toks[1], "string", ln, 2)
        fret = _parse_int(toks[2], "fret", ln, 3)
        duration = _parse_int(toks[3], "duration", ln, 4)
        technique, velocity = _parse_technique(toks[4:], ln, 5)
        tagged.append((ln, _build_at(ln, 1, NoteEvent, onset, duration, string, fret,
                                     velocity, technique)))

    # Score sorts the events and checks them for overlap; tempo and tuning
    # have passed, so an error here names the event it rejects
    try:
        return Score(tempo_bpm=tempo, tuning=tuning, events=tuple(ev for _, ev in tagged))
    except DataError as exc:
        raise ParseError(str(exc), next(ln for ln, ev in tagged if ev is exc.event)) from None


def serialize_score(score: Score) -> str:
    """Serialize to GFTab text; parse_score(serialize_score(s)) == s."""
    out = ["gftab 1", f"tempo {_fmt_number(score.tempo_bpm)}",
           "tuning " + " ".join(str(p) for p in score.tuning)]
    for ev in score.events:
        toks = [str(ev.onset_ticks), str(ev.string), str(ev.fret), str(ev.duration_ticks)]
        if ev.velocity != DEFAULT_VELOCITY:
            toks.append(f"vel:{ev.velocity}")
        t = ev.technique
        if t.kind is TechniqueKind.BEND:
            toks.append(f"bend:{_fmt_number(t.bend_semitones)}")
        elif t.kind is TechniqueKind.SLIDE:
            toks.append(f"slide:{t.slide_to_fret}")
        elif t.kind is not TechniqueKind.NONE:
            toks.append(t.kind.value)
        out.append(" ".join(toks))
    return "\n".join(out) + "\n"

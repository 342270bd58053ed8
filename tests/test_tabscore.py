import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tabflow.errors import DataError, TabflowError
from tabflow.tabscore import (DEFAULT_VELOCITY, NoteEvent, ParseError, Score,
                              Technique, TechniqueKind, event_pitch,
                              parse_score, serialize_score)

HEADER = "gftab 1\ntempo 120\ntuning 40 45 50 55 59 64\n"


def test_minimal_valid_input():
    score = parse_score(HEADER + "0 6 0 960\n")
    assert len(score.events) == 1
    ev = score.events[0]
    assert (ev.onset_ticks, ev.string, ev.fret, ev.duration_ticks) == (0, 6, 0, 960)
    assert ev.velocity == DEFAULT_VELOCITY
    assert ev.technique.kind is TechniqueKind.NONE


def test_fret_out_of_range_rejected():
    with pytest.raises(ParseError, match="fret out of range"):
        parse_score(HEADER + "0 6 25 960\n")


def test_bend_event_parses_to_expected_score():
    score = parse_score(HEADER + "0 3 7 480 bend:1.0\n")
    expected = Score(
        tempo_bpm=120.0,
        events=(NoteEvent(0, 480, 3, 7, DEFAULT_VELOCITY,
                          Technique(TechniqueKind.BEND, bend_semitones=1.0)),),
    )
    assert score == expected


def test_bend_line_serializes_to_original_tokens():
    line = "0 3 7 480 bend:1.0"
    score = parse_score(HEADER + line + "\n")
    out_lines = serialize_score(score).strip().splitlines()
    assert out_lines[-1].split() == line.split()


def test_empty_score_serializes_header_only():
    text = serialize_score(Score())
    assert parse_score(text) == Score()
    assert len(text.strip().splitlines()) == 3


@pytest.mark.parametrize("line,msg", [
    ("0 0 3 960", "string out of range"),
    ("0 7 3 960", "string out of range"),
    ("-1 6 3 960", "onset"),
    ("0 6 3 0", "duration"),
    ("0 6 3 960 bend:5.0", "bend"),
    ("0 6 3 960 slide:25", "slide"),
    ("0 6 3 960 wobble", "unknown technique"),
    ("0 6 3", "event line"),
    ("x 6 3 960", "expected integer"),
    ("0 6 3 960 vel:90 bend:9", "bend"),
    ("0 6 3 960 mute vibrato", "multiple techniques"),
    ("0 6 3 960 vel:90 vel:100", "multiple velocities"),
    ("0 6 3 960 vel:x", "expected integer velocity"),
    ("0 6 3 960 mute vel:300", "velocity out of range"),
])
def test_bad_event_lines_rejected(line, msg):
    with pytest.raises(ParseError, match=msg) as info:
        parse_score(HEADER + line + "\n")
    # the event is on line 4; a modifier's own error points at its token (the
    # last on each of these lines), a NoteEvent range check at the event
    # (column 1)
    toks = line.split()
    assert info.value.line == 4
    modifier_error = len(toks) > 4 and "out of range" not in msg
    assert info.value.column == (len(toks) if modifier_error else 1)


def test_error_carries_line_number():
    with pytest.raises(ParseError, match="line 5"):
        parse_score(HEADER + "0 6 0 960\n0 5 25 960\n")


def test_missing_header_rejected():
    with pytest.raises(ParseError, match="header"):
        parse_score("0 6 0 960\n")
    with pytest.raises(ParseError, match="tempo"):
        parse_score("gftab 1\nbpm 120\ntuning 40 45 50 55 59 64\n")


@pytest.mark.parametrize("tempo", ["nan", "1e999", "inf", "0", "-3"])
def test_non_finite_or_nonpositive_tempo_rejected_on_line_2(tempo):
    with pytest.raises(ParseError, match="tempo must be finite and > 0") as info:
        parse_score(f"gftab 1\ntempo {tempo}\ntuning 40 45 50 55 59 64\n0 6 0 960\n")
    assert info.value.line == 2
    with pytest.raises(DataError, match="tempo"):
        Score(tempo_bpm=float(tempo))


def test_non_increasing_tuning_names_its_line():
    text = "gftab 1\ntempo 120\ntuning 40 45 50 50 59 64\n0 6 0 960\n960 6 2 960\n# end\n"
    with pytest.raises(ParseError, match="strictly increase") as info:
        parse_score(text)
    assert info.value.line == 3


def test_same_string_overlap_rejected():
    with pytest.raises(ParseError, match="overlap") as info:
        parse_score(HEADER + "0 6 0 960\n480 6 2 960\n")
    assert info.value.line == 5
    with pytest.raises(ParseError, match="overlap") as info:  # line order is not time order
        parse_score(HEADER + "480 6 2 960\n0 6 0 960\n")
    assert info.value.line == 4


def test_adjacent_events_on_same_string_ok():
    score = parse_score(HEADER + "0 6 0 960\n960 6 2 960\n")
    assert len(score.events) == 2


def test_different_strings_may_overlap():
    score = parse_score(HEADER + "0 6 0 960\n0 5 2 960\n")
    assert len(score.events) == 2


def test_comments_and_blank_lines_skipped():
    text = HEADER + "# a comment\n\n0 6 0 960  # trailing\n"
    assert len(parse_score(text).events) == 1


def test_velocity_token_round_trips():
    score = parse_score(HEADER + "0 6 0 960 vel:80\n")
    assert score.events[0].velocity == 80
    assert parse_score(serialize_score(score)) == score


def test_events_sorted_by_onset_then_string():
    score = parse_score(HEADER + "960 6 0 960\n0 5 2 960\n0 6 0 960\n")
    keys = [(e.onset_ticks, e.string) for e in score.events]
    assert keys == sorted(keys)


def test_event_pitch_values():
    score = parse_score(HEADER + "0 6 0 960\n")
    assert event_pitch(score, score.events[0]) == pytest.approx(82.4069, abs=1e-3)
    fret12 = NoteEvent(0, 960, 6, 12)
    assert event_pitch(score, fret12) == pytest.approx(
        2 * event_pitch(score, score.events[0]), rel=1e-12)
    a440 = NoteEvent(0, 960, 1, 5)
    assert event_pitch(score, a440) == pytest.approx(440.0, rel=1e-12)


def test_event_pitch_monotone_in_fret():
    score = Score()
    for string in range(1, 7):
        pitches = [event_pitch(score, NoteEvent(0, 1, string, f)) for f in range(25)]
        assert all(b > a for a, b in zip(pitches, pitches[1:]))


_techniques = st.one_of(
    st.just(Technique()),
    st.builds(Technique, st.just(TechniqueKind.BEND),
              bend_semitones=st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.0])),
    st.just(Technique(TechniqueKind.HAMMER_ON)),
    st.just(Technique(TechniqueKind.PULL_OFF)),
    st.builds(Technique, st.just(TechniqueKind.SLIDE), st.just(0.0),
              st.integers(0, 24)),
    st.just(Technique(TechniqueKind.PALM_MUTE)),
    st.just(Technique(TechniqueKind.VIBRATO)),
)


@st.composite
def scores(draw):
    tempo = draw(st.sampled_from([60.0, 90.5, 120.0, 173.25]))
    events = []
    next_onset = {s: 0 for s in range(1, 7)}
    for _ in range(draw(st.integers(0, 12))):
        string = draw(st.integers(1, 6))
        onset = next_onset[string] + draw(st.integers(0, 2)) * 480
        duration = draw(st.sampled_from([240, 480, 960, 1920]))
        events.append(NoteEvent(onset, duration, string, draw(st.integers(0, 24)),
                                draw(st.integers(1, 127)), draw(_techniques)))
        next_onset[string] = onset + duration
    return Score(tempo_bpm=tempo, events=tuple(events))


@given(scores())
@settings(max_examples=60, deadline=None)
def test_round_trip_identity(score):
    assert parse_score(serialize_score(score)) == score


@given(scores())
@settings(max_examples=20, deadline=None)
def test_serialized_form_is_stable(score):
    text = serialize_score(score)
    assert serialize_score(parse_score(text)) == text


# Tokens near each field's bounds, integers no float can hold, spellings that
# int() and float() accept, every modifier, and free text.
_BIG = ["1" + "0" * 21, "-1" + "0" * 21, "1" + "0" * 400]
_INT = st.integers(-2, 130).map(str) | st.sampled_from(_BIG + ["+5", "-0", "1_0", "\u0663"])
_MODIFIER = st.sampled_from(["hammer", "pull", "mute", "vibrato", "bend:1.5", "bend:0",
                             "bend:nan", "slide:3", "slide:25", "vel:0", "vel:100",
                             "hammer:1", "bogus"])
_TOKEN = _INT | _MODIFIER | st.text(max_size=6)
_LINE = st.lists(_TOKEN, max_size=7).map(" ".join)
_TUNING = st.lists(st.integers(-2, 130) | st.sampled_from([10 ** 21, -10 ** 21]),
                   min_size=6, max_size=6, unique=True).map(
    lambda pitches: "tuning " + " ".join(map(str, sorted(pitches))))
_EVENT = st.builds(lambda fields, mods: " ".join(fields + mods),
                   st.lists(_INT, min_size=4, max_size=4), st.lists(_MODIFIER, max_size=2))


@st.composite
def _gftab_texts(draw):
    """Header and event lines, each either well formed or noise."""
    lines = [draw(st.just("gftab 1") | _LINE),
             draw(st.sampled_from(["tempo 120", "tempo 1e-320", "tempo nan"]) | _LINE),
             draw(_TUNING | _LINE)]
    lines += draw(st.lists(_EVENT | _LINE, max_size=6))
    return draw(st.sampled_from(["\n", "\r\n", "\u2028"])).join(lines)


@settings(max_examples=300, deadline=None)
@given(text=st.text() | _gftab_texts())
@example(text=HEADER.replace("64", "1" + "0" * 21) + "0 1 0 960\n")
@example(text=HEADER.replace("40", "-1" + "0" * 21) + "0 6 0 960\n")
@example(text=HEADER + "1" + "0" * 400 + " 6 0 960\n")
def test_parse_score_of_arbitrary_text(text):
    """Any text parses to a Score with MIDI tuning pitches, which serializes
    and parses back to itself, or raises a TabflowError. Nothing is rendered."""
    try:
        score = parse_score(text)
    except TabflowError:
        return
    assert all(0 <= pitch <= 127 for pitch in score.tuning)
    assert parse_score(serialize_score(score)) == score

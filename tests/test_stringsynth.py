import dataclasses
import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabflow import stringsynth
from tabflow.errors import DataError
from tabflow.stringsynth import (PSEUDO_REAL, SYNTHETIC, AudioBuffer,
                                 RenderStyle, STYLE_PRESETS, amp_process,
                                 normalize_rms, render)
from tabflow.tabscore import (NoteEvent, Score, Technique, TechniqueKind,
                              event_pitch)

from oracles import cents_between, count_onsets, oracle_pitch, rms_db

FS = 44100


def one_note_score(string=6, fret=0, technique=Technique(), duration=1920):
    return Score(events=(NoteEvent(0, duration, string, fret, technique=technique),))


def steady(samples, start=0.15, end=0.45):
    return samples[int(start * FS):int(end * FS)]


def test_presets_exist_with_required_properties():
    assert set(STYLE_PRESETS) == {"synthetic", "pseudo_real"}
    assert PSEUDO_REAL.brightness != SYNTHETIC.brightness
    assert PSEUDO_REAL.decay_scale != SYNTHETIC.decay_scale


def test_every_style_field_differs_between_the_presets():
    """A value both presets share is not a style: it belongs in a constant,
    as the excitation seed does (stringsynth.EXCITATION_SEED)."""
    shared = [f.name for f in dataclasses.fields(RenderStyle)
              if getattr(SYNTHETIC, f.name) == getattr(PSEUDO_REAL, f.name)]
    assert shared == []


def test_open_low_e_fundamental_within_10_cents():
    score = one_note_score(6, 0)
    audio = render(score, SYNTHETIC, FS)
    f = oracle_pitch(steady(audio.samples), FS)
    assert abs(cents_between(f, event_pitch(score, score.events[0]))) < 10.0
    assert f == pytest.approx(82.4069, rel=0.01)


def test_fret_12_doubles_fundamental():
    f_open = oracle_pitch(steady(render(one_note_score(6, 0), SYNTHETIC, FS).samples), FS)
    f_12 = oracle_pitch(steady(render(one_note_score(6, 12), SYNTHETIC, FS).samples), FS)
    assert f_12 / f_open == pytest.approx(2.0, abs=0.02)


@pytest.mark.parametrize("string", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("fret", [0, 12])
def test_all_strings_in_tune_for_both_styles(string, fret):
    score = one_note_score(string, fret)
    reference = event_pitch(score, score.events[0])
    for style in (SYNTHETIC, PSEUDO_REAL):
        audio = render(score, style, FS)
        f = oracle_pitch(steady(audio.samples), FS)
        assert abs(cents_between(f, reference)) < 10.0


def test_palm_mute_decays_at_least_6_db_faster():
    plain = render(one_note_score(6, 0), SYNTHETIC, FS).samples
    muted = render(one_note_score(6, 0, Technique(TechniqueKind.PALM_MUTE)),
                   SYNTHETIC, FS).samples
    window = slice(int(0.4 * FS), int(0.6 * FS))
    assert rms_db(muted[window]) <= rms_db(plain[window]) - 6.0


def test_render_is_deterministic():
    score = one_note_score(4, 7)
    a = render(score, PSEUDO_REAL, FS).samples
    b = render(score, PSEUDO_REAL, FS).samples
    assert np.array_equal(a, b)


def test_render_length_is_last_offset_plus_tail_for_both_styles():
    score = Score(events=(NoteEvent(0, 960, 6, 0), NoteEvent(960, 960, 5, 2)))
    n_expected = int(round((1920 * score.seconds_per_tick() + 1.0) * FS))
    for style in (SYNTHETIC, PSEUDO_REAL):
        assert len(render(score, style, FS).samples) == n_expected


def test_content_pairing_equal_onset_counts():
    score = Score(events=tuple(NoteEvent(3840 * i, 960, 6, i) for i in range(4)))
    a = render(score, SYNTHETIC, FS)
    b = render(score, PSEUDO_REAL, FS)
    assert count_onsets(a.samples, FS) == count_onsets(b.samples, FS) == 4


def test_chord_stagger_is_8ms_per_ascending_string():
    score = Score(events=(NoteEvent(0, 1920, 6, 0), NoteEvent(0, 1920, 5, 0),
                          NoteEvent(0, 1920, 4, 0)))
    samples = render(score, SYNTHETIC, FS).samples
    # strings start at 0 / 8 / 16 ms; energy before 8 ms comes from string 6 only
    first = np.flatnonzero(np.abs(samples) > 1e-6)[0]
    assert first < int(0.002 * FS)


def test_bend_glides_pitch_to_target():
    technique = Technique(TechniqueKind.BEND, bend_semitones=2.0)
    score = one_note_score(6, 5, technique, duration=3840)  # 2 s at 120 bpm
    samples = render(score, SYNTHETIC, FS).samples
    f_ref = event_pitch(score, score.events[0])
    f_start = oracle_pitch(samples[int(0.05 * FS):int(0.35 * FS)], FS)
    f_end = oracle_pitch(samples[int(1.75 * FS):int(2.0 * FS)], FS)
    assert abs(cents_between(f_start, f_ref)) < 60.0  # still gliding upward
    assert abs(cents_between(f_end, f_ref * 2 ** (2 / 12))) < 25.0


def test_slide_reaches_target_fret():
    technique = Technique(TechniqueKind.SLIDE, slide_to_fret=7)
    score = one_note_score(6, 3, technique, duration=3840)
    samples = render(score, SYNTHETIC, FS).samples
    target = event_pitch(score, NoteEvent(0, 1, 6, 7))
    f_end = oracle_pitch(samples[int(1.8 * FS):int(2.05 * FS)], FS)
    assert abs(cents_between(f_end, target)) < 25.0


def test_legato_reexcites_quieter():
    plain = render(one_note_score(5, 5), SYNTHETIC, FS).samples
    hammered = render(one_note_score(5, 5, Technique(TechniqueKind.HAMMER_ON)),
                      SYNTHETIC, FS).samples
    early = slice(0, int(0.1 * FS))
    assert rms_db(hammered[early]) == pytest.approx(rms_db(plain[early]) - 6.0, abs=1.5)


def test_empty_score_rejected():
    with pytest.raises(DataError, match="empty"):
        render(Score(), SYNTHETIC, FS)


def test_pitch_above_quarter_rate_rejected():
    high_tuning = tuple(p + 14 for p in Score().tuning)  # open string 1 at MIDI 78
    score = Score(tuning=high_tuning,
                  events=(NoteEvent(0, 1920, 1, 24),))  # MIDI 102 ~ 2960 Hz
    with pytest.raises(DataError, match="exceeds"):
        render(score, SYNTHETIC, 8000)  # limit is 2 kHz at 8 kHz rate


def test_bend_past_quarter_rate_rejected():
    """A note that starts under the fs/4 bound but bends past it fails on
    its per-sample pitch."""
    high_tuning = tuple(p + 14 for p in Score().tuning)
    plain = Score(tuning=high_tuning, events=(NoteEvent(0, 1920, 1, 17),))  # MIDI 95 ~ 1976 Hz
    render(plain, SYNTHETIC, 8000)
    bent = Score(tuning=high_tuning, events=(
        NoteEvent(0, 1920, 1, 17, technique=Technique(TechniqueKind.BEND, bend_semitones=1.0)),))
    with pytest.raises(DataError, match="event pitch 2093.0 Hz exceeds 2000 Hz"):
        render(bent, SYNTHETIC, 8000)


def test_low_sample_rate_bound():
    with pytest.raises(DataError, match="8000"):
        render(one_note_score(), SYNTHETIC, 4000)


def test_high_sample_rate_bound():
    with pytest.raises(DataError, match="192000"):
        render(one_note_score(), SYNTHETIC, 10 ** 12)


def test_render_stays_in_unit_range():
    events = tuple(NoteEvent(0, 1920, s, 0, velocity=127) for s in range(1, 7))
    audio = render(Score(events=events), PSEUDO_REAL, FS)
    assert np.abs(audio.samples).max() <= 1.0


# --- golden digests ------------------------------------------------------------

# Every technique, a four-string chord (8 ms stagger), notes shorter than one
# synthesis block (3, 5 and 1 ticks) and overlapping notes and tails.
GOLDEN_SCORE = Score(tempo_bpm=150.0, events=(
    NoteEvent(0, 480, 6, 0),
    NoteEvent(0, 480, 5, 2, velocity=110),
    NoteEvent(0, 480, 4, 2),
    NoteEvent(0, 480, 3, 1),
    NoteEvent(480, 960, 2, 5, technique=Technique(TechniqueKind.BEND, bend_semitones=1.5)),
    NoteEvent(480, 240, 6, 3, technique=Technique(TechniqueKind.PALM_MUTE)),
    NoteEvent(720, 240, 6, 5, technique=Technique(TechniqueKind.HAMMER_ON)),
    NoteEvent(960, 240, 5, 7, technique=Technique(TechniqueKind.PULL_OFF)),
    NoteEvent(1200, 960, 4, 3, technique=Technique(TechniqueKind.SLIDE, slide_to_fret=9)),
    NoteEvent(1440, 720, 1, 12, velocity=70, technique=Technique(TechniqueKind.VIBRATO)),
    NoteEvent(2160, 3, 1, 24),
    NoteEvent(2170, 5, 3, 0),
    NoteEvent(2200, 1, 6, 0),
))
CUSTOM = RenderStyle("custom", brightness=0.4, decay_scale=0.8, pick_noise_gain=0.5,
                     excitation_cutoff=3000.0)
# sha256 of render(GOLDEN_SCORE, style, rate).samples as a loop over one note
# at a time (one_note_loop below) renders them.
GOLDEN_DIGESTS = {
    ("synthetic", 22050): "78a381c2ca133a97915d33088eed470fba7a54df8854cf109b1b69bcccca226e",
    ("synthetic", 44100): "f925796b3183dd557142c5c82400c3768672472f9354c3b936091c9a60484a0c",
    ("synthetic", 48000): "cca556e0e47c2767211f2dddb5a8bf99a90f1512a399decd3cb244c085eb907c",
    ("pseudo_real", 22050): "9e9a448775cebd4f7f9120b3c22672fe34e6d2fdf19f2fb8157fef8365776b2b",
    ("pseudo_real", 44100): "2364a9d9f512619c2897f5e40fef45242fdc667007e9a1964283f0688925ec65",
    ("pseudo_real", 48000): "ef35de783463743b19f8a3fabef7fd69b8ba1616021c6ec978b60c595b7d9923",
    ("custom", 22050): "333ca4fc1e0c4b70a3418e034b892957e3dd3bfe3044a61de35de7b5cd6da828",
    ("custom", 44100): "13da20ab8aa5b2d75accec778280748408d4dcd82d12632f74b7f58ef748aab6",
    ("custom", 48000): "b5c8f26c720050598f59522c203c1f70a914476f8067c21b58ddd7964527f561",
}


def test_render_golden_digests():
    got = {}
    for style in (SYNTHETIC, PSEUDO_REAL, CUSTOM):
        for rate in (22050, 44100, 48000):
            samples = render(GOLDEN_SCORE, style, rate).samples
            got[style.name, rate] = hashlib.sha256(samples.tobytes()).hexdigest()
    assert got == GOLDEN_DIGESTS


@pytest.mark.parametrize("cutoff, rate", [(PSEUDO_REAL.excitation_cutoff, FS),
                                          (500.0, 22050), (8000.0, 48000), (150.0, 8000)])
def test_pluck_lowpass_equals_lfilter_byte_for_byte(cutoff, rate):
    """The scalar recurrence is lfilter's own arithmetic, so a render's bytes
    do not depend on whether scipy filters the burst."""
    from scipy.signal import lfilter
    a = 1.0 - np.exp(-2.0 * np.pi * cutoff / rate)
    rng = np.random.default_rng(int(cutoff) + rate)
    bursts = [rng.uniform(-1.0, 1.0, n) for n in (1, 2, *rng.integers(1, 601, 300))]
    signed_zeros = rng.uniform(-1.0, 1.0, 64)
    signed_zeros[::3], signed_zeros[1::4] = 0.0, -0.0
    for x in (*bursts, signed_zeros, np.full(8, -0.0)):
        want = lfilter([a], [1.0, -(1.0 - a)], x)
        assert stringsynth._one_pole_lowpass(x, a).tobytes() == want.tobytes()


# --- lockstep synthesis against the one-note loop -------------------------------

def one_note_loop(delay, a1, a2, rho, excitation):
    """Reference oracle: the per-note delay-line loop that the lockstep
    synthesis replaced, as it was."""
    n = len(delay)
    guard = int(np.ceil(delay.max())) + 4
    y = np.zeros(guard + n)
    y[guard:guard + len(excitation)] = excitation
    block = max(1, int(delay.min()) - 4)
    start = 0
    while start < n:
        end = min(n, start + block)
        pos = np.arange(start, end) - delay[start:end] + guard
        idx = pos.astype(np.int64)
        frac = pos - idx
        d1 = y[idx] * (1.0 - frac) + y[idx + 1] * frac
        d2 = y[idx - 1] * (1.0 - frac) + y[idx] * frac
        y[guard + start:guard + end] += rho * (a1 * d1 + a2 * d2)
        start = end
    return y[guard:]


def random_notes(seed, count, brightness):
    """(rho, excitation, delay) of notes with random lengths; the delays are
    constant, gliding up in pitch or wobbling, down to the fs/4 pitch bound."""
    rng = np.random.default_rng(seed)
    floor = 4.0 - (1.0 - brightness) / 2.0  # the delay at pitch fs/4
    notes = []
    for _ in range(count):
        n = int(rng.integers(1, 1500))
        t = np.arange(n) / n
        d0 = floor * (400.0 / floor) ** rng.uniform()
        shape = rng.integers(3)
        if shape == 0:
            delay = np.full(n, d0)
        elif shape == 1:
            delay = np.maximum(d0 * 2.0 ** (-rng.uniform(0.0, 3.0) * t), floor)
        else:
            delay = np.maximum(d0 * (1.0 + 0.05 * np.sin(2 * np.pi * rng.uniform(1, 8) * t)),
                               floor)
        excitation = rng.uniform(-1.0, 1.0, int(rng.integers(1, min(n, 400) + 1)))
        notes.append((rng.uniform(0.9, 0.9999), excitation, delay))
    return notes


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 6),
       brightness=st.floats(0.0, 1.0), fill=st.floats(0.05, 1.5),
       window=st.integers(1, 1200))
@example(seed=7, count=6, brightness=0.0, fill=0.3, window=1024)
@example(seed=3, count=5, brightness=1.0, fill=1.5, window=1)
def test_lockstep_matches_one_note_loop(seed, count, brightness, fill, window):
    """Groups of random notes match the one-note loop sample for sample; a
    buffer smaller than the notes splits them into several groups. Read
    windows from 1 sample up to a few blocks end between block ends and row
    ends, and a constant delay gives the same samples as one float as it
    does as an array."""
    a1, a2 = (1.0 + brightness) / 2.0, (1.0 - brightness) / 2.0
    notes = random_notes(seed, count, brightness)
    sizes = [int(np.ceil(delay.max())) + 4 + len(delay) for _, _, delay in notes]
    budget = max(1, int(fill * sum(sizes)))
    for scalar in (False, True):
        pairs = [(stringsynth._Note(k, len(delay), rho, excitation, None),
                  float(delay[0]) if scalar and np.all(delay == delay[0]) else delay)
                 for k, (rho, excitation, delay) in enumerate(notes)]
        with mock.patch.object(stringsynth, "GROUP_SAMPLES", budget), \
                mock.patch.object(stringsynth, "READ_WINDOW", window), \
                mock.patch.object(stringsynth, "_synth_group",
                                  wraps=stringsynth._synth_group) as group:
            synthesized = [(note.s0, samples.copy())
                           for note, samples in stringsynth._synth_notes(pairs, a1, a2)]
        assert [k for k, _ in synthesized] == list(range(count))
        for (_, samples), (rho, excitation, delay) in zip(synthesized, notes):
            np.testing.assert_array_equal(samples,
                                          one_note_loop(delay, a1, a2, rho, excitation))
        if budget < sum(sizes) and count > 1:
            assert group.call_count >= 2


# --- amplifier ---------------------------------------------------------------

def test_amp_zero_in_zero_out():
    out = amp_process(AudioBuffer(np.zeros(256), FS), drive=6.0, tone_cutoff=5000.0)
    assert np.array_equal(out.samples, np.zeros(256, dtype=np.float32))


def test_amp_small_signal_linearity():
    rng = np.random.default_rng(0)
    x = (0.1 * rng.uniform(-1, 1, 4096))
    drive = 1e-2
    out = amp_process(AudioBuffer(x, FS), drive=drive, tone_cutoff=FS / 2).samples
    assert np.max(np.abs(out - drive * x)) < 1e-4


def test_amp_constant_one_drive_two_is_tanh_two():
    x = np.ones(64)
    out = amp_process(AudioBuffer(x, FS), drive=2.0, tone_cutoff=FS / 2).samples
    assert out[0] == pytest.approx(np.tanh(2.0), abs=1e-6)
    assert out[0] == pytest.approx(0.9640, abs=1e-4)


def test_amp_never_exceeds_unit_range():
    rng = np.random.default_rng(1)
    x = rng.uniform(-3, 3, 8192)
    out = amp_process(AudioBuffer(x, FS), drive=10.0, tone_cutoff=2000.0).samples
    assert np.abs(out).max() <= 1.0
    assert len(out) == len(x)


def test_amp_is_monotone_memoryless_before_filter():
    x = np.linspace(-1, 1, 101)
    out = amp_process(AudioBuffer(x, FS), drive=4.0, tone_cutoff=FS / 2).samples
    assert np.all(np.diff(out) > 0)


_SCAN_CASES = [(cutoff, rate) for rate in (8000, 44100, 192000)
               for cutoff in (20.0, 200.0, 5000.0, 20000.0) if cutoff < rate / 2]


@pytest.mark.parametrize("cutoff, rate", _SCAN_CASES)
def test_one_pole_scan_matches_lfilter(cutoff, rate):
    """The blocked scan is the tone filter's recurrence to within 1e-15, at
    lengths around one block and one block of blocks, and over 14 s."""
    from scipy.signal import lfilter
    a = 1.0 - np.exp(-2.0 * np.pi * cutoff / rate)
    block = stringsynth.SCAN_BLOCK
    rng = np.random.default_rng([int(cutoff), rate])
    for n in (0, 1, block - 1, block, block + 1, block * block + 1, 14 * rate):
        x = np.tanh(6.0 * rng.standard_normal(n))
        got = stringsynth._one_pole_scan(x, a, 1.0 - a)
        want = lfilter([a], [1.0, -(1.0 - a)], x)
        assert got.shape == (n,)
        assert n == 0 or np.max(np.abs(got - want)) <= 1e-15, n


def test_one_pole_scan_into_its_input_is_the_same_bytes():
    """Written to out=x, the scan gives the bytes of a new array."""
    rng = np.random.default_rng(8)
    block = stringsynth.SCAN_BLOCK
    for n in (0, 1, block - 1, block + 1, block * block + 1, 40000):
        x = np.tanh(6.0 * rng.standard_normal(n))
        want = stringsynth._one_pole_scan(x, 0.3, 0.7)
        assert stringsynth._one_pole_scan(x, 0.3, 0.7, out=x) is x
        assert np.array_equal(x, want), n


def test_amp_condition_peak_memory():
    """normalize_rms then amp_process hold the float32 input and output and
    one float64 copy, plus the scan's blocks: about 21 bytes per sample,
    where a new float64 array per step took 36."""
    x = 0.3 * np.random.default_rng(9).standard_normal(30 * FS)
    audio = AudioBuffer(x.astype(np.float32), FS)
    tracemalloc.start()
    try:
        amp_process(normalize_rms(audio, -18.0), drive=4.0, tone_cutoff=5000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * len(x)


def test_amp_process_within_one_float32_ulp_of_lfilter():
    """At eval's amp condition, a rendered 6-s stem comes out as amp_process
    with scipy's lfilter made it, or 1 float32 ulp off."""
    from scipy.signal import lfilter
    from tabflow.cli import AMP_DRIVE, AMP_LEVEL_DB, AMP_TONE_CUTOFF_HZ
    from tabflow.fixtures import toy_corpus
    score = toy_corpus(1, seed=0, target_seconds=6.0)[0]
    audio = normalize_rms(render(score, PSEUDO_REAL, FS), AMP_LEVEL_DB)
    got = amp_process(audio, AMP_DRIVE, AMP_TONE_CUTOFF_HZ).samples

    a = 1.0 - np.exp(-2.0 * np.pi * AMP_TONE_CUTOFF_HZ / FS)
    y = lfilter([a], [1.0, -(1.0 - a)], np.tanh(AMP_DRIVE * audio.samples.astype(np.float64)))
    want = (y / max(1.0, np.max(np.abs(y)))).astype(np.float32)
    ulp = np.spacing(np.maximum(np.abs(got), np.abs(want)))
    assert len(got) >= 6 * FS
    assert np.all(np.abs(got - want) <= ulp)


# --- RMS normalization --------------------------------------------------------

def test_normalize_sine_to_minus_9_db():
    t = np.arange(FS) / FS
    sine = AudioBuffer(np.sin(2 * np.pi * 220.0 * t), FS)
    out = normalize_rms(sine, -9.0)
    gain = out.samples[1000] / sine.samples[1000]
    assert gain == pytest.approx(10 ** (-9 / 20) * np.sqrt(2), abs=1e-4)
    assert gain == pytest.approx(0.5012, abs=2e-3)
    rms = np.sqrt(np.mean(out.samples.astype(np.float64) ** 2))
    assert rms == pytest.approx(10 ** (-9 / 20), rel=1e-6)


def test_normalize_fixed_point():
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.5, 0.5, 10000)
    once = normalize_rms(AudioBuffer(x, FS), -9.0)
    twice = normalize_rms(once, -9.0)
    np.testing.assert_allclose(twice.samples, once.samples, rtol=1e-6)


def test_normalize_silence_rejected():
    with pytest.raises(DataError, match="silence"):
        normalize_rms(AudioBuffer(np.zeros(100), FS), -9.0)


def test_normalize_preserves_shape():
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.2, 0.2, 5000)
    out = normalize_rms(AudioBuffer(x, FS), -9.0).samples.astype(np.float64)
    ratio = out[np.abs(x) > 0.01] / x[np.abs(x) > 0.01]
    assert ratio.std() / ratio.mean() < 1e-6


def test_style_validation():
    with pytest.raises(DataError):
        RenderStyle("bad", brightness=1.5, decay_scale=1.0, pick_noise_gain=0)
    with pytest.raises(DataError):
        RenderStyle("bad", brightness=0.5, decay_scale=0.0, pick_noise_gain=0)


@pytest.mark.parametrize("field, value", [
    ("decay_scale", float("nan")),
    ("decay_scale", float("inf")),
    ("pick_noise_gain", float("nan")),
    ("pick_noise_gain", float("inf")),
    ("excitation_cutoff", float("nan")),
])
def test_style_rejects_non_finite_values(field, value):
    kwargs = {"brightness": 0.5, "decay_scale": 1.0, "pick_noise_gain": 0.0,
              "excitation_cutoff": None, field: value}
    with pytest.raises(DataError, match=f"{field} must be finite"):
        RenderStyle("x", **kwargs)

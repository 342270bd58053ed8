"""Deterministic plucked-string instrument, amplifier waveshaper, and RMS tools.

The instrument is a Karplus-Strong string: a seeded noise burst feeds a
fractional delay line whose loop filter blends a direct tap with a two-point
average. Brightness b sets the blend (y = ((1+b)/2) d1 + ((1-b)/2) d2 around
a per-trip loss), so b=1 rings bright and b=0 damps highs quickly. Two named
style presets render the same score with identical musical content but a
different sound, which is what the flow model trains on.

All audio is mono at the pipeline's one rate, SAMPLE_RATE (44.1 kHz):
render writes it, amp_process filters at it, and AudioBuffer holds only the
samples.

render runs the string loops of consecutive events together: the notes of a
group advance in lockstep over note-local time as rows of one float64
buffer, whose size GROUP_SAMPLES bounds the working set (8 MB), so the
Python loop runs a few thousand times per score, not once per block of
every note. Every sample is computed exactly as a loop over one note
computes it, and the notes are mixed in event order, so the rendered bytes
do not depend on the grouping.

Where a note reads its delay line depends only on its delay, never on its
output. So the read positions (write front, tap index, fraction and one
minus it) are computed ahead for a window of READ_WINDOW note-local samples
at a time, and the loop over blocks is left with the three tap gathers, the
interpolation and loop-filter arithmetic, the pluck and the write. Only a
bend, slide or vibrato builds a per-sample pitch curve; every other note
carries its delay as one float, which fills its stretch of the buffer.

The pluck lowpass runs scipy.signal.lfilter's own recurrence as a scalar
loop over each note's short burst, so rendering needs no scipy and its
bytes do not depend on whether scipy is installed. amp_process filters
whole files with the same one-pole recurrence as a blocked scan
(_one_pole_scan), a fixed number of vector operations whatever the file's
length. No command loads scipy: numpy is the package's only run-time
dependency.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .tabscore import Score, TechniqueKind, event_pitch, midi_hz

# The pipeline's one audio rate: every render, WAV and embedding runs at it.
SAMPLE_RATE = 44100
RELEASE_TAIL_SEC = 1.0
CHORD_STAGGER_SEC = 0.008
VIBRATO_RATE_HZ = 5.5
VIBRATO_CENTS = 20.0
PALM_MUTE_DECAY_FACTOR = 0.25
BASE_T60_SEC = 3.0  # ring time at decay_scale 1.0
# Longest render in seconds; ten minutes at 44.1 kHz is a 212 MB float64 mix.
MAX_RENDER_SECONDS = 600.0
# Samples of the one float64 buffer (8 MB) that holds each lockstep group of
# consecutive events: every note's guard zeros, delay and output.
GROUP_SAMPLES = 1 << 20
# Note-local samples per read-ahead window of _synth_group: a window is the
# most whole blocks that fit, or one block where a block is longer.
READ_WINDOW = 1024
# Samples per block of _one_pole_scan: each level of the scan runs this many
# vector operations, over one element per block. Fewer, longer operations
# cost more in the transposes: on a fresh 14-s input (2-core Xeon), blocks
# of 128 took 6.3 ms and blocks of 32 took 3.9 ms, as long as lfilter.
SCAN_BLOCK = 32


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio: 1-D float samples at SAMPLE_RATE. The one rule kept is
    finite samples, since a WAV file may hold NaN or Inf."""

    samples: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.samples)):
            raise DataError("audio contains non-finite samples")

    @property
    def duration(self) -> float:
        return len(self.samples) / SAMPLE_RATE


@dataclass(frozen=True)
class RenderStyle:
    name: str
    brightness: float       # 0 dark .. 1 bright (loop-filter blend)
    decay_scale: float      # multiplies the base ring time
    pick_noise_gain: float  # attack transient level relative to the pluck
    excitation_cutoff: float | None = None  # one-pole lowpass on the pluck noise


# Every style draws its per-note random values from this one seed, so both
# presets pluck the same noise burst per note at the same onset: a pair
# differs by loop filtering, decay, excitation color and pick noise (the
# style), not by the excitation realization or the timing (the content), and
# stays sample-aligned. The brightness gap is kept small because the loop
# filter's dispersion differs with its blend, and strongly different blends
# drift partial phases apart mid-note; the audible contrast comes mostly from
# the phase-neutral knobs (decay, excitation color, pick noise).
EXCITATION_SEED = 11
SYNTHETIC = RenderStyle("synthetic", brightness=0.82, decay_scale=1.0,
                        pick_noise_gain=0.0)
PSEUDO_REAL = RenderStyle("pseudo_real", brightness=0.70, decay_scale=0.55,
                          pick_noise_gain=0.3, excitation_cutoff=2200.0)
STYLE_PRESETS = {s.name: s for s in (SYNTHETIC, PSEUDO_REAL)}


# the techniques whose pitch moves within the note
_PITCH_CURVES = (TechniqueKind.BEND, TechniqueKind.SLIDE, TechniqueKind.VIBRATO)


def _pitch_curve(f0: float, n: int, dur_samples: int, technique,
                 target_f: float | None) -> np.ndarray:
    """Per-sample fundamental over the note buffer of a bend, slide or
    vibrato (a bend or slide holds its end value through the tail)."""
    if technique.kind is TechniqueKind.VIBRATO:
        t = np.arange(n, dtype=np.float64) / SAMPLE_RATE
        return f0 * 2.0 ** ((VIBRATO_CENTS / 1200.0) * np.sin(2 * np.pi * VIBRATO_RATE_HZ * t))
    # t_frac = min(i / d, 1) reaches 1 at i = d: the samples after it repeat
    # that sample's value
    d = max(dur_samples, 1)
    t_frac = np.arange(min(n, d + 1), dtype=np.float64) / d
    if technique.kind is TechniqueKind.BEND:
        head = f0 * 2.0 ** (technique.bend_semitones * t_frac / 12.0)
    else:
        head = f0 * (target_f / f0) ** t_frac
    return np.pad(head, (0, n - len(head)), mode="edge")


class _Note(NamedTuple):
    """One event ready for the delay loop, apart from its delay: where it
    starts in the score, its sample count, loop gain, excitation and pick
    noise."""

    s0: int
    length: int
    rho: float
    excitation: np.ndarray
    pick: np.ndarray | None


class _Row(NamedTuple):
    """Where one note of a lockstep group sits in the group's buffer."""

    note: _Note
    first: int   # buffer index of the note's first sample
    guard: int   # zeros before it: the delay line's reach, plus margin
    block: int   # longest block the note's smallest delay allows


def _synth_group(buf: np.ndarray, rows: list[_Row], a1: float, a2: float
                 ) -> list[tuple[_Note, np.ndarray]]:
    """Run the delay-line feedback loops of a group of notes in lockstep over
    note-local time; returns each note with its samples (views of buf), in
    the order of rows.

    From row.first on, buf holds the note's output behind the write front
    and its delay ahead of it. Rows run longest first, so the rows still
    sounding are a prefix. A block stays under the smallest delay of those
    rows, so it only reads samples that earlier blocks finished. Each note
    adds its own guard to the read position, since a shared one would round
    the fractional delay differently: every sample is computed exactly as a
    loop over that note alone computes it (past the excitation a zero may
    come out as -0.0 where that loop gives +0.0; mixing into the score
    turns both into +0.0).

    The read positions of a read-ahead window are laid out [block, row,
    sample], so that each block's slice is contiguous.
    """
    by_length = sorted(rows, key=lambda row: -row.note.length)
    first = np.array([row.first for row in by_length])[:, None]
    guard = np.array([row.guard for row in by_length])[:, None]
    lengths = [row.note.length for row in by_length]
    # the block the first k rows allow is block[k - 1]
    block = np.minimum.accumulate([row.block for row in by_length])
    rho = np.array([row.note.rho for row in by_length])[:, None]
    excitation = np.zeros((len(rows), max(len(row.note.excitation) for row in rows)))
    for r, row in enumerate(by_length):
        excitation[r, :len(row.note.excitation)] = row.note.excitation
    # gathering at delay-line index i - 1 from buf, buf[1:] and buf[2:]
    # reads the taps at i - 1, i and i + 1
    base = first - guard - 1
    mid, high = buf[1:], buf[2:]
    guard = guard.astype(np.float64)

    start, k = 0, len(rows)
    while True:
        while k and lengths[k - 1] <= start:
            k -= 1
        if not k:
            break
        # a window is whole blocks of one size and ends no later than the
        # shortest sounding row; a shorter last block has a window to itself
        size = min(int(block[k - 1]), lengths[k - 1] - start)
        count = max(1, min(READ_WINDOW, lengths[k - 1] - start) // size)
        t = np.arange(start, start + count * size).reshape(count, 1, size)
        fronts = first[:k] + t
        pos = np.subtract(t.astype(np.float64), buf[fronts])
        pos += guard[:k]
        idxs = pos.astype(np.int64)
        fracs = np.subtract(pos, idxs, out=pos)
        idxs += base[:k]
        rests = 1.0 - fracs
        rho_k = rho[:k]
        for front, idx, frac, rest in zip(fronts, idxs, fracs, rests):
            y0, y1, y2 = buf[idx], mid[idx], high[idx]
            d1 = y1 * rest + y2 * frac
            d2 = y0 * rest + y1 * frac
            y = rho_k * (a1 * d1 + a2 * d2)
            if start < excitation.shape[1]:
                burst = excitation[:k, start:start + size]
                y[:, :burst.shape[1]] += burst
            buf[front] = y
            start += size
    return [(row.note, buf[row.first:row.first + row.note.length]) for row in rows]


def _synth_notes(notes: Iterable[tuple[_Note, float | np.ndarray]], a1: float, a2: float
                 ) -> Iterator[tuple[_Note, np.ndarray]]:
    """Synthesize (note, delay) pairs in groups of consecutive notes that fit
    one buffer of GROUP_SAMPLES samples (a longer note forms a group alone);
    yields each note with its samples, in input order. A delay is one float
    for a note of constant pitch, else one per sample of the note.

    The samples are a view of the buffer, which the next group reuses: use
    them before asking for the next note.
    """
    buf = np.empty(GROUP_SAMPLES)
    rows: list[_Row] = []
    used = 0
    for note, delay in notes:
        guard, n = int(np.ceil(np.max(delay))) + 4, note.length
        if rows and used + guard + n > GROUP_SAMPLES:
            yield from _synth_group(buf, rows, a1, a2)
            rows, used = [], 0
        if guard + n > len(buf):
            buf = np.empty(guard + n)
        buf[used:used + guard] = 0.0
        buf[used + guard:used + guard + n] = delay
        rows.append(_Row(note, used + guard, guard, max(1, int(np.min(delay)) - 4)))
        used += guard + n
    if rows:
        yield from _synth_group(buf, rows, a1, a2)


def _one_pole_lowpass(x: np.ndarray, a: float) -> np.ndarray:
    """lfilter([a], [1.0, -(1.0 - a)], x) in lfilter's own arithmetic, for
    the few hundred samples of a pluck burst.

    lfilter pads b to [a, 0.0] and runs transposed direct form II: each
    sample is y = z + a*x, then z = 0.0*x - a1*y with a1 = -(1.0 - a). The
    0.0*x term is kept so that signed zeros come out as lfilter's do.
    """
    a1 = -(1.0 - a)
    y = []
    z = 0.0
    for v in x.tolist():
        out = z + a * v
        z = v * 0.0 - out * a1
        y.append(out)
    return np.array(y)


def _one_pole_scan(x: np.ndarray, b: float, c: float,
                   out: np.ndarray | None = None) -> np.ndarray:
    """y[n] = c*y[n-1] + b*x[n] from zero state, as a blocked scan, written
    to out (which may be x) or to a new array.

    x is cut into m blocks of SCAN_BLOCK samples, laid out as SCAN_BLOCK
    rows of m columns, and the recurrence runs down the rows, one vector
    operation over all blocks per step. Each block then lacks only the state
    carried in from the blocks before it: the block ends obey the same
    recurrence with coefficient c**SCAN_BLOCK, which this function solves
    for them in turn, and block k gains c**(i+1) times the end state of
    block k-1 at its sample i. Within 1e-15 of lfilter([b], [1, -c], x) on
    unit-range input.
    """
    n = len(x)
    m = max(1, -(-n // SCAN_BLOCK))
    full = SCAN_BLOCK * (m - 1)
    t = np.empty((SCAN_BLOCK, m))
    blocks = t.T  # blocks[k] is block k, in sample order
    np.multiply(x[:full].reshape(m - 1, SCAN_BLOCK), b, out=blocks[:m - 1])
    np.multiply(x[full:], b, out=blocks[m - 1, :n - full])
    blocks[m - 1, n - full:] = 0.0
    step = np.empty(m)
    for i in range(1, SCAN_BLOCK):
        np.multiply(t[i - 1], c, out=step)
        t[i] += step
    if m > 1:
        carry = _one_pole_scan(t[-1, :-1], 1.0, c ** SCAN_BLOCK)
        # row by row, so the products take one row of memory, not all of t
        for i, gain in enumerate(np.power(c, np.arange(1, SCAN_BLOCK + 1))):
            np.multiply(carry, gain, out=step[1:])
            t[i, 1:] += step[1:]
    y = np.empty(n) if out is None else out
    y[:full].reshape(m - 1, SCAN_BLOCK)[:] = blocks[:m - 1]
    y[full:] = blocks[m - 1, :n - full]
    return y


def _notes(score: Score, style: RenderStyle,
           total: int) -> Iterator[tuple[_Note, float | np.ndarray]]:
    """Each event's note and loop delay, in event order: one float for a
    note of constant pitch, else one per sample.

    A note draws its random values from its own generator in a fixed order:
    one unused value, excitation, pick noise. Events starting at or after
    sample `total` are skipped.
    """
    fs = float(SAMPLE_RATE)
    spt = score.seconds_per_tick()
    seeds = np.random.SeedSequence(EXCITATION_SEED).spawn(len(score.events))
    events = list(score.events)

    # same-onset events strum low string first, 8 ms apart
    stagger: dict[int, float] = {}
    by_onset: dict[int, list] = {}
    for k, ev in enumerate(events):
        by_onset.setdefault(ev.onset_ticks, []).append((ev.string, k))
    for group in by_onset.values():
        for rank, (_, k) in enumerate(sorted(group, reverse=True)):
            stagger[k] = rank * CHORD_STAGGER_SEC

    for k, ev in enumerate(events):
        rng = np.random.default_rng(seeds[k])
        f0 = event_pitch(score, ev)
        # one discarded draw: the excitation starts at the generator's second
        # value, which the recorded render digests pin
        rng.uniform(-1.0, 1.0)
        s0 = int(round((ev.onset_ticks * spt + stagger[k]) * fs))
        if s0 >= total:
            continue

        dur_samples = max(1, int(round(ev.duration_ticks * spt * fs)))
        n = min(dur_samples + int(RELEASE_TAIL_SEC * fs), total - s0)

        if ev.technique.kind in _PITCH_CURVES:
            target_f = None
            if ev.technique.kind is TechniqueKind.SLIDE:
                target_f = midi_hz(score.string_pitch(ev.string) + ev.technique.slide_to_fret)
            freq = _pitch_curve(f0, n, dur_samples, ev.technique, target_f)
            top = freq.max()
        else:
            freq = top = f0
        if top > fs / 4.0:
            raise DataError(
                f"event pitch {top:.1f} Hz exceeds {fs / 4:.0f} Hz "
                f"(string {ev.string}, fret {ev.fret})"
            )
        b = style.brightness
        delay = fs / freq - (1.0 - b) / 2.0  # loop filter adds (1-b)/2 samples

        t60 = BASE_T60_SEC * style.decay_scale
        if ev.technique.kind is TechniqueKind.PALM_MUTE:
            t60 *= PALM_MUTE_DECAY_FACTOR
        rho = 10.0 ** (-3.0 * (fs / f0) / (t60 * fs))

        amp = 0.22 * (ev.velocity / 127.0)
        if ev.technique.kind in (TechniqueKind.HAMMER_ON, TechniqueKind.PULL_OFF):
            amp *= 0.5  # legato re-excitation at -6 dB
        burst = min(n, max(2, int(round(fs / f0))))
        excitation = rng.uniform(-1.0, 1.0, burst)
        if style.excitation_cutoff is not None:
            a_lp = 1.0 - np.exp(-2.0 * np.pi * style.excitation_cutoff / fs)
            excitation = _one_pole_lowpass(excitation, a_lp)
        excitation = (excitation - excitation.mean()) * amp

        pick = None
        if style.pick_noise_gain:
            m = min(n, int(0.003 * fs))
            fade = np.linspace(1.0, 0.0, m) ** 2
            pick = style.pick_noise_gain * amp * rng.uniform(-1.0, 1.0, m) * fade
        yield _Note(s0, n, rho, excitation, pick), delay


def render(score: Score, style: RenderStyle) -> AudioBuffer:
    """Render a score deterministically; same length for every style so that
    two renders of one score stay sample-aligned.

    Consecutive events are synthesized together in lockstep groups of at
    most GROUP_SAMPLES buffer samples, then mixed into the score in event
    order, so the overlapping notes sum in the same order as one note at a
    time would.
    """
    if not score.events:
        raise DataError("cannot render an empty score")

    # in seconds first, so an overflow to inf is caught before the int cast
    try:
        seconds = score.last_offset_ticks * score.seconds_per_tick() + RELEASE_TAIL_SEC
    except OverflowError:  # more ticks than a float can hold
        seconds = np.inf
    if not seconds <= MAX_RENDER_SECONDS:
        raise DataError(f"score renders to {seconds:.6g} s, longer than the "
                        f"{MAX_RENDER_SECONDS:g} s limit")
    total = int(round(seconds * SAMPLE_RATE))
    out = np.zeros(total)
    b = style.brightness
    a1, a2 = (1.0 + b) / 2.0, (1.0 - b) / 2.0
    for note, samples in _synth_notes(_notes(score, style, total), a1, a2):
        if note.pick is not None:
            samples[:len(note.pick)] += note.pick
        out[note.s0:note.s0 + len(samples)] += samples

    peak = np.max(np.abs(out))
    if peak > 0.995:
        out *= 0.995 / peak
    return AudioBuffer(out.astype(np.float32))


def amp_process(audio: AudioBuffer, drive: float, tone_cutoff: float) -> AudioBuffer:
    """Memoryless tanh drive followed by a one-pole lowpass; peak kept <= 1."""
    # drive, tanh and the tone filter in place on the one float64 copy
    y = audio.samples.astype(np.float64)
    y *= drive
    np.tanh(y, out=y)
    a = 1.0 - np.exp(-2.0 * np.pi * tone_cutoff / SAMPLE_RATE)
    _one_pole_scan(y, a, 1.0 - a, out=y)
    # max |y| without an array of |y|
    peak = max(y.max(), -y.min()) if len(y) else 0.0
    if peak > 1.0:
        y /= peak
    return AudioBuffer(y.astype(np.float32))


def normalize_rms(audio: AudioBuffer, target_db: float) -> AudioBuffer:
    """Scale so the RMS level hits target_db (dB re full scale)."""
    # the squares of the float64 samples, then those samples scaled, in one buffer
    x = np.square(audio.samples, dtype=np.float64)
    rms = float(np.sqrt(np.mean(x)))
    if rms == 0.0:
        raise DataError("cannot normalize silence")
    gain = 10.0 ** (target_db / 20.0) / rms
    np.multiply(audio.samples, gain, out=x, dtype=np.float64)
    return AudioBuffer(x.astype(np.float32))

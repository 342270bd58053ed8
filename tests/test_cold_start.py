"""Rendering, training and a 64-dim transfer load no heavy scipy module.

scipy.signal, scipy.stats and scipy.fft cost over a second and about 70 MB
to import, so only amp_process, the rating statistics and the 1024-dim codec
import them, on first use. A fresh interpreter shows what a command loads.
"""

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"

_PROGRAM = """
import sys
import numpy as np
import tabflow.cli
from tabflow import decode, encode, render
from tabflow.config import load_config
from tabflow.stringsynth import STYLE_PRESETS
from tabflow.tabscore import NoteEvent, Score

score = Score(events=(NoteEvent(0, 960, 6, 0), NoteEvent(480, 960, 2, 5)))
rate = load_config().sample_rate
for style in STYLE_PRESETS.values():
    x = render(score, style, rate).samples[None]
    z = encode(x, 64)
    decode(np.zeros_like(z), x)
print(" ".join(m for m in ("scipy.signal", "scipy.stats", "scipy.fft") if m in sys.modules))
"""


def test_render_and_64_dim_codec_load_no_heavy_scipy_module():
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run([sys.executable, "-c", _PROGRAM], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""

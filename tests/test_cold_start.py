"""The pipeline commands load no heavy scipy module.

scipy.signal, scipy.stats and scipy.fft cost over a second and about 70 MB
to import, so only the rating statistics import scipy.stats, on first use,
and nothing imports the other two. A fresh interpreter shows what a command
loads: here synthdata renders both styles, train encodes them, transfer
encodes and decodes, and eval scores both conditions, the amp condition's
tone filter included, at test_cli.py's tiny config.
"""

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"

_TINY_INI = """\
[synthdata]
n_scores = 2
score_seconds = 6.0
[flowmatch]
epochs = 2
batch_size = 4
base_channels = 8
[odesolve]
solver = euler
steps = 8
"""

_PROGRAM = """
import sys
from pathlib import Path
from tabflow.cli import main

ini, work = sys.argv[1], Path(sys.argv[2])
common = ["--config", ini, "--workdir", str(work)]
assert main(common + ["synthdata"]) == 0
assert main(common + ["train"]) == 0
stem = work / "audio" / "synthetic" / "score_000.wav"
assert main(common + ["transfer", str(work / "model.ckpt"), str(stem),
                      str(work / "out.wav")]) == 0
audio = work / "audio"
assert main(common + ["eval", "--real", str(audio / "pseudo_real"),
                      "--render", str(audio / "synthetic"),
                      "--guitarflow", str(audio / "synthetic")]) == 0
print("loaded:", *(m for m in ("scipy.signal", "scipy.stats", "scipy.fft")
                   if m in sys.modules))
"""


def test_pipeline_commands_load_no_heavy_scipy_module(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(_TINY_INI)
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run([sys.executable, "-c", _PROGRAM, str(ini), str(tmp_path / "work")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "work" / "out.wav").is_file()
    assert (tmp_path / "work" / "metrics.csv").is_file()
    assert done.stdout.splitlines()[-1] == "loaded:"

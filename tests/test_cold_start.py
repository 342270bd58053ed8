"""No command loads scipy: numpy is the only run-time dependency.

scipy.signal, scipy.stats and scipy.fft cost over a second and about 70 MB
to import, and the package does not depend on scipy at all. A fresh
interpreter shows what the commands load: here synthdata renders both
styles, train encodes them, transfer encodes and decodes, eval scores both
conditions, the amp condition's tone filter included, at test_cli.py's tiny
config, and stats ranks the committed three-system ratings file and
computes its Friedman and Wilcoxon p-values.
"""

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
_RATINGS = Path(__file__).resolve().parent / "data" / "ratings_3systems.csv"

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
assert main(common + ["stats", sys.argv[3], "--m", "3"]) == 0
print("loaded:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_pipeline_commands_load_no_heavy_scipy_module(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(_TINY_INI)
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run([sys.executable, "-c", _PROGRAM, str(ini), str(tmp_path / "work"),
                           str(_RATINGS)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "work" / "out.wav").is_file()
    assert (tmp_path / "work" / "metrics.csv").is_file()
    assert (tmp_path / "work" / "stats_tests.csv").is_file()
    assert done.stdout.splitlines()[-1] == "loaded:"


_BLOCKED = """
import sys
sys.modules["scipy"] = None  # any import of scipy or scipy.* raises ImportError
from tabflow.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_stats_runs_where_scipy_cannot_be_imported(tmp_path):
    """The CI's no-extras install, locally: stats on the committed ratings
    file exits 0 and writes both CSVs with every scipy import blocked."""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run([sys.executable, "-c", _BLOCKED, "--workdir", str(tmp_path),
                           "stats", str(_RATINGS), "--m", "3"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    for name in ("stats_tests.csv", "mos_summary.csv"):
        assert (tmp_path / name).stat().st_size > 0

"""Golden metrics of a tiny eval: both conditions, KAD subsampling active.

Two 6-s seed-0 scores give 580 + 666 = 1246 pooled frames per system, above
kad_max_frames = 300, so both KAD rows are taken on random subsamples. The
guitarflow directory holds the mean of the real and render samples, so the
two systems score apart. Every row of metrics.csv below its config-hash line
is pinned by its exact repr; the KAD rows are those of audiodist's float32
distance tiles.
"""

import pytest

from tabflow import cli, wavio
from tabflow.config import load_config

ROWS = [
    ("di", "fad", "render", 255.75468727023554),
    ("di", "kad", "render", 0.04249304623753103),
    ("di", "fad", "guitarflow", 154.62532637130062),
    ("di", "kad", "guitarflow", 0.03504021358183884),
    ("di", "recon", "render", 14.757818411699544),
    ("di", "recon", "guitarflow", 11.080646511878516),
    ("amp", "fad", "render", 219.5096010017844),
    ("amp", "kad", "render", 0.023967549377626574),
    ("amp", "fad", "guitarflow", 169.991291994716),
    ("amp", "kad", "guitarflow", 0.01950214234232428),
    ("amp", "recon", "render", 11.242150691125184),
    ("amp", "recon", "guitarflow", 9.352639432947099),
]


@pytest.fixture(scope="module")
def eval_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_eval")
    cfg = load_config(None, {
        "paths": {"workdir": str(root / "work")},
        "synthdata": {"n_scores": "2", "score_seconds": "6.0"},
        "audiodist": {"kad_max_frames": "300"},
    })
    cli.cmd_synthdata(cfg)
    real = cli._audio_dir(cfg, "pseudo_real")
    render = cli._audio_dir(cfg, "synthetic")
    flow = root / "flow"
    flow.mkdir()
    for path in sorted(real.glob("*.wav")):
        a, _ = wavio.read_wav(path)
        b, _ = wavio.read_wav(render / path.name)
        wavio.write_wav(flow / path.name, 0.5 * a + 0.5 * b, cfg.sample_rate, comment="")
    rows = cli.cmd_eval(cfg, real, render, flow, ("di", "amp"))
    return cfg, rows


def test_eval_rows_match_golden(eval_run):
    _, rows = eval_run
    assert rows == ROWS


def test_eval_metrics_csv_matches_golden(eval_run):
    cfg, _ = eval_run
    lines = (cfg.workdir / "metrics.csv").read_text().splitlines()
    assert lines[0] == f"# config {cfg.hash()}"
    assert lines[1:] == ["condition,metric,system,value"] + [
        f"{c},{m},{s},{v!r}" for c, m, s, v in ROWS]

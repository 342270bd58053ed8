"""Golden outputs of a tiny end-to-end run: synthdata, 4 train steps, one transfer.

Rendering is pinned exactly. The network's summation order is not part of
its contract, so the loss history and the transferred samples are pinned
within a tolerance (rel 1e-5 on losses, abs 1e-6 on samples). The values
were recorded with the im2col convolution, under which the transferred
float32 samples hashed to
d08231d4e00a65d17fa6fba7eddadb1159f56530a5f6c51f4a4f4083379974f9; the
shifted-GEMM convolution keeps the losses and moves the samples by at most
about 1.5e-8.
"""

import hashlib

import numpy as np
import pytest

from tabflow import cli, wavio
from tabflow.config import load_config

SYNTHDATA_SHA256 = "a445cd652614c6f48adb9883ece860b169fa8efc6028709882d48af19a002b5d"
LOSSES = [0.00016480017802678049, 0.00016422697808593512,
          0.0001635059597902, 0.0001628581085242331]
N_SAMPLES = 297675
# sum, sum of |y|, sum of y^2, max, min over all transferred samples
SUMMARY = [1.9353102162532045, 4118.401107229142, 186.57868758358677,
           0.32027485966682434, -0.3500370681285858]
# y[np.linspace(0, N_SAMPLES - 1, 48).astype(int)]
PROBES = [
    0.0, -0.015403241850435734, 0.006970209535211325, 0.0025272502098232508,
    -0.0015745569253340364, 0.004417218267917633, 0.006019517779350281,
    0.034710340201854706, -0.038550812751054764, 0.019027749076485634,
    0.009882912039756775, -0.02654152363538742, 0.008218205533921719,
    -0.010808601044118404, -0.012385500594973564, -0.006280253175646067,
    -0.003478777129203081, -0.002865174785256386, 0.0036051336210221052,
    0.005398789420723915, 0.010279405862092972, -0.06846686452627182,
    0.01016315072774887, -0.024437522515654564, -0.013697128742933273,
    0.028085732832551003, -0.01487346738576889, 0.00669475132599473,
    0.0026367155369371176, 0.007830426096916199, -0.004202309064567089,
    -0.02211403287947178, -0.0493084080517292, 0.02366619184613228,
    -0.020518573001027107, -0.00981003139168024, 0.0006512738182209432,
    0.11661528795957565, 0.005049244966357946, -0.0008760420023463666,
    0.0028471408877521753, 0.018781613558530807, -0.0055204047821462154,
    0.0036600041203200817, 0.002581587992608547, 0.0009452294325456023,
    -4.491458457778208e-05, 1.8140666725230403e-05,
]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """The `tiny_cfg` settings of test_cli.py with 4 epochs (one step each)."""
    root = tmp_path_factory.mktemp("golden")
    cfg = load_config(None, {
        "paths": {"workdir": str(root / "work")},
        "synthdata": {"n_scores": "2", "score_seconds": "6.0"},
        "flowmatch": {"epochs": "4", "batch_size": "4", "base_channels": "8"},
        "odesolve": {"solver": "euler", "steps": "8"},
    })
    cli.cmd_synthdata(cfg)
    ckpt, _ = cli.cmd_train(cfg)
    src = cli._audio_dir(cfg, "synthetic") / "score_000.wav"
    out = cli.cmd_transfer(cfg, ckpt, src, root / "out.wav")
    return cfg, out


def test_synthdata_golden_digest(tiny_run):
    # samples and score text only: the WAV comment carries the config hash,
    # which covers the (temporary) workdir
    cfg, _ = tiny_run
    h = hashlib.sha256()
    for p in sorted(cfg.workdir.rglob("*")):
        if p.suffix == ".gftab":
            h.update(p.name.encode())
            h.update(p.read_bytes())
        elif p.suffix == ".wav":
            h.update(p.relative_to(cfg.workdir).as_posix().encode())
            h.update(wavio.read_wav(p)[0].tobytes())
    assert h.hexdigest() == SYNTHDATA_SHA256


def test_loss_history_matches_golden(tiny_run):
    cfg, _ = tiny_run
    rows = (cfg.workdir / "loss_history.csv").read_text().splitlines()[2:]
    losses = [float(r.split(",")[2]) for r in rows]
    np.testing.assert_allclose(losses, LOSSES, rtol=1e-5, atol=0)


def test_transfer_samples_match_golden(tiny_run):
    _, out = tiny_run
    y, _ = wavio.read_wav(out)
    assert len(y) == N_SAMPLES
    y = y.astype(np.float64)
    np.testing.assert_allclose(y[np.linspace(0, N_SAMPLES - 1, 48).astype(int)],
                               PROBES, rtol=0, atol=1e-6)
    np.testing.assert_allclose(y.max(), SUMMARY[3], rtol=0, atol=1e-6)
    np.testing.assert_allclose(y.min(), SUMMARY[4], rtol=0, atol=1e-6)
    # the sums allow every sample its 1e-6
    np.testing.assert_allclose(y.sum(), SUMMARY[0], rtol=0, atol=1e-6 * N_SAMPLES)
    np.testing.assert_allclose(np.abs(y).sum(), SUMMARY[1], rtol=0, atol=1e-6 * N_SAMPLES)
    np.testing.assert_allclose(np.sqrt((y ** 2).sum()), np.sqrt(SUMMARY[2]),
                               rtol=0, atol=1e-6 * np.sqrt(N_SAMPLES))

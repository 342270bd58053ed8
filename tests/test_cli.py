import csv
import shutil
import struct

import numpy as np
import pytest

from tabflow import audiodist, cli, wavio
from tabflow.config import load_config, with_updates
from tabflow.neuralnet import VelocityNet, AdamState, save_checkpoint
from tabflow.tabscore import parse_score


@pytest.fixture()
def tiny_cfg(tmp_path):
    return load_config(None, {
        "paths": {"workdir": str(tmp_path / "work")},
        "synthdata": {"n_scores": "2", "score_seconds": "6.0"},
        "flowmatch": {"epochs": "2", "batch_size": "4", "base_channels": "8"},
        "odesolve": {"solver": "euler", "steps": "8"},
    })


def _zero_checkpoint(cfg, path):
    net = VelocityNet(cfg.dims, base_channels=cfg.base_channels, seed=0)
    echo = {"config_hash": cfg.hash(), "dims": cfg.dims,
            "base_channels": cfg.base_channels, "seed": 0, "input_gain": 1.0}
    save_checkpoint(path, net.params, AdamState(), echo)
    return path


def test_synthdata_writes_scores_and_paired_wavs(tiny_cfg):
    stems = cli.cmd_synthdata(tiny_cfg)
    assert len(stems) == 2
    for stem in stems:
        score_path = cli._scores_dir(tiny_cfg) / f"{stem}.gftab"
        assert score_path.is_file()
        parse_score(score_path.read_text())  # generator output must parse
        for style in ("synthetic", "pseudo_real"):
            assert (cli._audio_dir(tiny_cfg, style) / f"{stem}.wav").is_file()


def test_synthdata_deterministic_bytes(tmp_path):
    import shutil
    cfg = load_config(None, {
        "paths": {"workdir": str(tmp_path / "w")},
        "synthdata": {"n_scores": "1", "score_seconds": "4.0"},
    })
    digests = []
    for _ in range(2):
        if cfg.workdir.exists():
            shutil.rmtree(cfg.workdir)
        cli.cmd_synthdata(cfg)
        digests.append(b"".join(
            p.read_bytes() for p in sorted(cfg.workdir.rglob("*")) if p.is_file()))
    assert digests[0] == digests[1]


def test_synthdata_rejects_zero(tiny_cfg):
    from tabflow.errors import DataError
    with pytest.raises(DataError):
        cli.cmd_synthdata(tiny_cfg, 0)


def test_render_command(tiny_cfg):
    cli.cmd_synthdata(tiny_cfg)
    written = cli.cmd_render(tiny_cfg, "synthetic")
    assert len(written) == 2
    samples, rate = wavio.read_wav(written[0])
    assert rate == tiny_cfg.sample_rate and len(samples) > 0


def test_train_writes_checkpoint_cache_and_loss_history(tiny_cfg, capsys):
    cli.cmd_synthdata(tiny_cfg)
    ckpt, history = cli.cmd_train(tiny_cfg)
    assert ckpt.is_file()
    assert ckpt.read_bytes()[:7] == b"GFCKPT1"
    assert not (tiny_cfg.workdir / "cache").exists()
    loss_csv = tiny_cfg.workdir / "loss_history.csv"
    lines = loss_csv.read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "step,epoch,loss"
    assert len(lines) == 2 + len(history)
    out = capsys.readouterr().out
    assert "steps/s" in out


def test_train_after_chunk_length_change_matches_fresh_workdir(tiny_cfg):
    cli.cmd_synthdata(tiny_cfg)
    cli.cmd_train(tiny_cfg)
    eight = with_updates(tiny_cfg, latentcodec={"chunk_seconds": "8.0"})
    cli.cmd_train(eight)
    reused = (eight.workdir / "loss_history.csv").read_bytes()
    shutil.rmtree(eight.workdir)
    cli.cmd_synthdata(eight)
    cli.cmd_train(eight)
    assert (eight.workdir / "loss_history.csv").read_bytes() == reused


def test_train_missing_audio_dir_names_it(tiny_cfg):
    from tabflow.errors import DataError
    with pytest.raises(DataError, match="synthetic"):
        cli.cmd_train(tiny_cfg)


def test_transfer_zero_checkpoint_is_near_identity(tiny_cfg, tmp_path):
    cli.cmd_synthdata(tiny_cfg)
    ckpt = _zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt")
    src = cli._audio_dir(tiny_cfg, "synthetic") / "score_000.wav"
    out_path = tmp_path / "out.wav"
    cli.cmd_transfer(tiny_cfg, ckpt, src, out_path)
    x, _ = wavio.read_wav(src)
    y, _ = wavio.read_wav(out_path)
    assert len(y) == len(x)  # within one hop, here exact by construction
    # interior of each chunk reconstructs; compare overall energy of the error
    err = y[512:-512].astype(np.float64) - x[512:-512].astype(np.float64)
    rms_in = np.sqrt(np.mean(x.astype(np.float64) ** 2))
    assert np.sqrt(np.mean(err ** 2)) < 0.05 * rms_in


def test_transfer_accepts_score_input(tiny_cfg, tmp_path):
    cli.cmd_synthdata(tiny_cfg)
    ckpt = _zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt")
    score_path = cli._scores_dir(tiny_cfg) / "score_000.gftab"
    out_path = tmp_path / "from_score.wav"
    cli.cmd_transfer(tiny_cfg, ckpt, score_path, out_path)
    rendered = cli._audio_dir(tiny_cfg, "synthetic") / "score_000.wav"
    x, _ = wavio.read_wav(rendered)
    y, _ = wavio.read_wav(out_path)
    assert len(y) == len(x)


def test_transfer_deterministic_bytes(tiny_cfg, tmp_path):
    cli.cmd_synthdata(tiny_cfg)
    ckpt = _zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt")
    src = cli._audio_dir(tiny_cfg, "synthetic") / "score_000.wav"
    outs = []
    for k in range(2):
        out_path = tmp_path / f"o{k}.wav"
        cli.cmd_transfer(tiny_cfg, ckpt, src, out_path)
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]


def test_transfer_dim_mismatch_rejected(tiny_cfg, tmp_path):
    from tabflow.errors import DataError
    cli.cmd_synthdata(tiny_cfg)
    net = VelocityNet(1024, base_channels=4, seed=0)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, net.params, None,
                    {"dims": 1024, "base_channels": 4, "input_gain": 1.0})
    with pytest.raises(DataError, match="dims"):
        cli.cmd_transfer(tiny_cfg, bad, cli._audio_dir(tiny_cfg, "synthetic") / "score_000.wav",
                         tmp_path / "x.wav")


def test_eval_self_distance_zero(tiny_cfg, capsys):
    cli.cmd_synthdata(tiny_cfg)
    real = cli._audio_dir(tiny_cfg, "pseudo_real")
    rows = cli.cmd_eval(tiny_cfg, real, cli._audio_dir(tiny_cfg, "synthetic"), real,
                        conditions=("di",))
    by_key = {(c, m, s): v for c, m, s, v in rows}
    assert by_key[("di", "fad", "guitarflow")] < 1e-6
    assert by_key[("di", "recon", "guitarflow")] == 0.0
    assert by_key[("di", "fad", "render")] > by_key[("di", "fad", "guitarflow")]
    csv_path = tiny_cfg.workdir / "metrics.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "condition,metric,system,value"
    table = capsys.readouterr().out
    assert "guitarflow" in table and "fad" in table


def test_eval_recon_weighs_stems_by_frame_count(tiny_cfg, tmp_path):
    rng = np.random.default_rng(12)
    dirs = {label: tmp_path / label for label in ("real", "render", "guitarflow")}
    for d in dirs.values():
        d.mkdir()
    for stem, seconds, noise in (("short", 0.5, 0.5), ("long", 2.0, 0.01)):
        x = rng.uniform(-0.5, 0.5, int(seconds * 44100)).astype(np.float32)
        wavio.write_wav(dirs["real"] / f"{stem}.wav", x, 44100)
        for label in ("render", "guitarflow"):
            y = x + noise * rng.standard_normal(len(x)).astype(np.float32)
            wavio.write_wav(dirs[label] / f"{stem}.wav", y, 44100)
    rows = cli.cmd_eval(tiny_cfg, dirs["real"], dirs["render"], dirs["guitarflow"],
                        conditions=("di",))
    recon = {s: v for c, m, s, v in rows if m == "recon"}

    def norms(label, stem):
        a = audiodist.embed(cli._load_audio(tiny_cfg, dirs["real"] / f"{stem}.wav")).vectors
        b = audiodist.embed(cli._load_audio(tiny_cfg, dirs[label] / f"{stem}.wav")).vectors
        return np.linalg.norm(a - b, axis=1)

    for label in ("render", "guitarflow"):
        per_stem = [norms(label, stem) for stem in ("long", "short")]
        assert recon[label] == np.mean(np.concatenate(per_stem))
        assert abs(recon[label] - np.mean([n.mean() for n in per_stem])) > 0.1
    assert recon["render"] == pytest.approx(1.5033360427318092, rel=1e-9)


def test_eval_missing_stem_listed(tiny_cfg, tmp_path):
    from tabflow.errors import DataError
    cli.cmd_synthdata(tiny_cfg)
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "score_000.wav").write_bytes(
        (cli._audio_dir(tiny_cfg, "synthetic") / "score_000.wav").read_bytes())
    with pytest.raises(DataError, match="score_001"):
        cli.cmd_eval(tiny_cfg, cli._audio_dir(tiny_cfg, "pseudo_real"),
                     cli._audio_dir(tiny_cfg, "synthetic"), empty)


def _ratings_csv(path, with_condition=False):
    rows = ["rater,item,system,score" + (",condition" if with_condition else "")]
    rng = np.random.default_rng(0)
    for rater in range(8):
        for item in range(3):
            base = {"real": 5, "guitarflow": 3, "render": 1}
            for system, mu in base.items():
                score = int(np.clip(mu + rng.integers(-1, 2), 1, 5))
                row = f"r{rater},i{item},{system},{score}"
                if with_condition:
                    row += ",di"
                rows.append(row)
    path.write_text("\n".join(rows) + "\n")
    return path


def test_stats_dominant_system_significant(tiny_cfg, tmp_path, capsys):
    ratings = _ratings_csv(tmp_path / "ratings.csv")
    results = cli.cmd_stats(tiny_cfg, ratings, m=3, alpha=0.05)
    by_comp = {(c, comp): r for c, comp, r in results}
    assert by_comp[("all", "all-systems")].p_value < 0.001
    wil = by_comp[("all", "real-vs-render")]
    assert wil.p_value < wil.alpha_corrected
    out = capsys.readouterr().out
    assert "0.0167" in out
    tests_csv = (tiny_cfg.workdir / "stats_tests.csv").read_text()
    assert "friedman" in tests_csv and "wilcoxon" in tests_csv
    assert (tiny_cfg.workdir / "mos_summary.csv").read_text().count("Tukey") == 1


def test_stats_condition_column_split(tiny_cfg, tmp_path):
    ratings = _ratings_csv(tmp_path / "r2.csv", with_condition=True)
    results = cli.cmd_stats(tiny_cfg, ratings, m=3)
    assert all(cond == "di" for cond, _, _ in results)
    lines = (tiny_cfg.workdir / "mos_summary.csv").read_text().split("\n")
    assert lines[0] == f"# config {tiny_cfg.hash()}"
    assert "\n".join(lines[1:]) == (
        "# quartiles: inclusive (Tukey hinges)\n"
        "condition,system,mean,median,q1,q3,min,max,n\n"
        "di,guitarflow,3.125,3.0,2.5,4.0,2.0,4.0,24\n"
        "di,real,4.75,5.0,4.5,5.0,4.0,5.0,24\n"
        "di,render,1.2916666666666667,1.0,1.0,2.0,1.0,2.0,24\n")


def test_stats_empty_csv_rejected(tiny_cfg, tmp_path):
    from tabflow.errors import DataError
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        cli.cmd_stats(tiny_cfg, empty, m=3)


# --- exit codes ----------------------------------------------------------------

def test_main_usage_error_is_exit_1(tmp_path):
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["--config", str(tmp_path / "nope.ini"), "synthdata"]) == 1


def test_main_data_error_is_exit_2(tmp_path):
    assert cli.main(["--workdir", str(tmp_path), "train"]) == 2


@pytest.mark.parametrize("key, value", [("epochs", "0"), ("lr", "0")])
def test_main_train_nonpositive_setting_is_exit_2(tiny_cfg, tmp_path, capsys, key, value):
    cli.cmd_synthdata(tiny_cfg)
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[flowmatch]\n{key} = {value}\n")
    argv = ["--config", str(ini), "--workdir", str(tiny_cfg.workdir), "train"]
    assert cli.main(argv) == 2
    assert "must be positive" in capsys.readouterr().err


def _short_fmt_wav(path):
    body = (b"WAVE" + b"fmt " + struct.pack("<I", 4) + b"\x03\x00\x01\x00"
            + b"data" + struct.pack("<I", 8) + bytes(8))
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    return path


def _transfer_argv(cfg, ckpt, src, out):
    return ["--workdir", str(cfg.workdir), "transfer", str(ckpt), str(src), str(out)]


def test_main_transfer_malformed_wav_is_exit_2(tiny_cfg, tmp_path, capsys):
    ckpt = _zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt")
    bad = _short_fmt_wav(tmp_path / "short_fmt.wav")
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, bad, tmp_path / "o.wav")) == 2
    assert "fmt chunk" in capsys.readouterr().err


def _noise_wav(path):
    x = np.random.default_rng(3).uniform(-0.5, 0.5, 44100).astype(np.float32)
    wavio.write_wav(path, x, 44100)
    return path


def _wav_22050(path):
    x = np.random.default_rng(4).uniform(-0.5, 0.5, 22050).astype(np.float32)
    wavio.write_wav(path, x, 22050)
    return path


def test_main_transfer_wrong_sample_rate_is_exit_2(tiny_cfg, tmp_path, capsys):
    ckpt = _zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt")
    src = _wav_22050(tmp_path / "in.wav")
    out = tmp_path / "o.wav"
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, src, out)) == 2
    err = capsys.readouterr().err
    assert f"{src}: sample rate 22050 Hz does not match config sample_rate 44100 Hz" in err
    assert not out.exists()


def test_main_eval_wrong_sample_rate_is_exit_2(tmp_path, capsys):
    dirs = {label: tmp_path / label for label in ("real", "render", "guitarflow")}
    for d in dirs.values():
        d.mkdir()
        _noise_wav(d / "a.wav")
    bad = _wav_22050(dirs["guitarflow"] / "a.wav")
    argv = ["--workdir", str(tmp_path / "work"), "eval", "--real", str(dirs["real"]),
            "--render", str(dirs["render"]), "--guitarflow", str(dirs["guitarflow"])]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: sample rate 22050 Hz does not match config sample_rate 44100 Hz" in err


def test_main_transfer_checkpoint_missing_parameter_is_exit_2(tiny_cfg, tmp_path, capsys):
    net = VelocityNet(tiny_cfg.dims, base_channels=tiny_cfg.base_channels, seed=0)
    ckpt = tmp_path / "headless.ckpt"
    params = {name: p for name, p in net.params.items() if name != "out.w"}
    save_checkpoint(ckpt, params, None, {"dims": tiny_cfg.dims, "input_gain": 1.0,
                                         "base_channels": tiny_cfg.base_channels})
    src = _noise_wav(tmp_path / "in.wav")
    out = tmp_path / "o.wav"
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, src, out)) == 2
    err = capsys.readouterr().err
    assert "lacks parameters out.w" in err and str(ckpt) in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("dims", "x"), ("base_channels", None),
                                        ("input_gain", None), ("input_gain", True)])
def test_main_transfer_bad_checkpoint_echo_is_exit_2(tiny_cfg, tmp_path, capsys,
                                                     key, value):
    net = VelocityNet(tiny_cfg.dims, base_channels=tiny_cfg.base_channels, seed=0)
    echo = {"dims": tiny_cfg.dims, "base_channels": tiny_cfg.base_channels,
            "input_gain": 1.0}
    if value is None:
        del echo[key]
    else:
        echo[key] = value
    ckpt = tmp_path / "echo.ckpt"
    save_checkpoint(ckpt, net.params, None, echo)
    out = tmp_path / "o.wav"
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, _noise_wav(tmp_path / "in.wav"), out)) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and str(ckpt) in err
    assert not out.exists()


def test_main_transfer_truncated_checkpoint_is_exit_2(tiny_cfg, tmp_path, capsys):
    ckpt = _zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt")
    ckpt.write_bytes(ckpt.read_bytes()[:20])
    src = _noise_wav(tmp_path / "in.wav")
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, src, tmp_path / "o.wav")) == 2
    err = capsys.readouterr().err
    assert "truncated or corrupt checkpoint" in err and str(ckpt) in err


def test_main_success_is_exit_0(tmp_path, capsys):
    code = cli.main(["--workdir", str(tmp_path), "--seed", "3", "synthdata", "--n", "1"])
    assert code == 0
    assert "1 scores" in capsys.readouterr().out
    assert (tmp_path / "scores" / "score_000.gftab").is_file()


def test_main_stats_exit_0_even_when_not_significant(tmp_path):
    ratings = tmp_path / "flat.csv"
    lines = ["rater,item,system,score"]
    rng = np.random.default_rng(1)
    for rater in range(6):
        for system in ("a", "b"):
            lines.append(f"r{rater},i0,{system},{1 + int(rng.integers(0, 5))}")
    ratings.write_text("\n".join(lines) + "\n")
    assert cli.main(["--workdir", str(tmp_path), "stats", str(ratings), "--m", "1"]) == 0

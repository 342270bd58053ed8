import csv
import re
import shutil
import struct

import numpy as np
import pytest

from tabflow import audiodist, cli, wavio
from tabflow.config import load_config
from tabflow.neuralnet import VelocityNet, AdamState, save_checkpoint
from tabflow.tabscore import parse_score

from test_config import with_updates


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


def test_synthdata_rejects_zero(tmp_path, capsys):
    from tabflow.errors import DataError
    with pytest.raises(DataError, match=r"\[synthdata\] n_scores must be finite and > 0"):
        load_config(None, {"synthdata": {"n_scores": "0"}})
    assert cli.main(["--workdir", str(tmp_path / "w"), "synthdata", "--n", "0"]) == 2
    assert "[synthdata] n_scores must be finite and > 0, got '0'" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_synthdata_n_is_the_n_scores_override(tmp_path):
    """--n reaches cmd_synthdata through the config, so the WAV comment's
    config hash records the count."""
    work = tmp_path / "w"
    argv = ["--config", str(_short_scores_ini(tmp_path)), "--workdir", str(work),
            "synthdata", "--n", "1"]
    assert cli.main(argv) == 0
    cfg = load_config(tmp_path / "short.ini", {"paths": {"workdir": str(work)},
                                               "synthdata": {"n_scores": "1"}})
    wav = cli._audio_dir(cfg, "synthetic") / "score_000.wav"
    assert wavio.read_wav_with_comment(wav)[2] == f"cfg={cfg.hash()}"
    assert [p.name for p in cli._scores_dir(cfg).iterdir()] == ["score_000.gftab"]


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


def test_transfer_crops_chunk_padding_to_input_length(tiny_cfg, tmp_path):
    # 9.7 s: two full 4-s chunks and a third zero-padded one, cropped off again
    x = np.random.default_rng(2).uniform(-0.5, 0.5, int(9.7 * 44100)).astype(np.float32)
    src = tmp_path / "in.wav"
    wavio.write_wav(src, x, 44100)
    out = cli.cmd_transfer(tiny_cfg, _zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt"),
                           src, tmp_path / "out.wav")
    y, _ = wavio.read_wav(out)
    assert len(y) == len(x)
    # a zero field transports exactly, so every chunk reconstructs its
    # interior in place, the final partial chunk up to the last input sample
    size = 4 * 44100
    for k in range(3):
        lo, hi = k * size + 512, min((k + 1) * size - 1024, len(x))
        np.testing.assert_allclose(y[lo:hi], x[lo:hi], rtol=0, atol=1e-5)


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


def test_eval_prints_kad_bandwidth_and_subsample_sizes(tiny_cfg, capsys, monkeypatch):
    """Each printed sigma is median_bandwidth of the two sets that kad
    scores, and kad is given that sigma."""
    cli.cmd_synthdata(tiny_cfg)
    calls = []
    kad = audiodist.kad

    def spy(a, b, bandwidth=None):
        calls.append((a, b, bandwidth))
        return kad(a, b, bandwidth)

    monkeypatch.setattr(audiodist, "kad", spy)
    render = cli._audio_dir(tiny_cfg, "synthetic")
    cli.cmd_eval(tiny_cfg, cli._audio_dir(tiny_cfg, "pseudo_real"), render, render)
    out = capsys.readouterr().out
    printed = re.findall(r"^kad (\w+) (\w+): sigma (\S+) over (\d+) real \+ (\d+) \2 frames$",
                         out, flags=re.M)
    assert [(c, s) for c, s, *_ in printed] == [(c, s) for c in ("di", "amp")
                                               for s in ("render", "guitarflow")]
    for (_, _, sigma, m, n), (a, b, bandwidth) in zip(printed, calls, strict=True):
        assert float(sigma) == bandwidth == audiodist.median_bandwidth(a, b)
        assert (int(m), int(n)) == (len(a), len(b))


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
        a = audiodist.embed(cli._load_audio(tiny_cfg, dirs["real"] / f"{stem}.wav"))
        b = audiodist.embed(cli._load_audio(tiny_cfg, dirs[label] / f"{stem}.wav"))
        return np.linalg.norm(a - b, axis=1)

    for label in ("render", "guitarflow"):
        per_stem = [norms(label, stem) for stem in ("long", "short")]
        assert recon[label] == np.mean(np.concatenate(per_stem))
        assert abs(recon[label] - np.mean([n.mean() for n in per_stem])) > 0.1
    assert recon["render"] == pytest.approx(1.5033360427318092, rel=1e-9)


def test_eval_reads_each_wav_once(tiny_cfg, monkeypatch):
    cli.cmd_synthdata(tiny_cfg)
    real = cli._audio_dir(tiny_cfg, "pseudo_real")
    render = cli._audio_dir(tiny_cfg, "synthetic")
    reads = []
    load = cli._load_audio

    def counting_load(cfg, path):
        reads.append(path)
        return load(cfg, path)

    monkeypatch.setattr(cli, "_load_audio", counting_load)
    cli.cmd_eval(tiny_cfg, real, render, render, conditions=("di", "amp"))
    # one read per (label, stem), whatever the number of conditions
    assert sorted(reads) == sorted([real / "score_000.wav", real / "score_001.wav"]
                                   + 2 * [render / "score_000.wav", render / "score_001.wav"])


@pytest.mark.parametrize("conditions", ["", "di,di", "di,bogus", "di,"])
def test_main_eval_bad_conditions_is_exit_1_before_reading(tiny_cfg, capsys, monkeypatch,
                                                           conditions):
    cli.cmd_synthdata(tiny_cfg)
    real = cli._audio_dir(tiny_cfg, "pseudo_real")
    render = cli._audio_dir(tiny_cfg, "synthetic")

    def no_read(cfg, path):
        raise AssertionError(f"read {path} before checking the conditions")

    monkeypatch.setattr(cli, "_load_audio", no_read)
    argv = ["--workdir", str(tiny_cfg.workdir), "eval", "--real", str(real),
            "--render", str(render), "--guitarflow", str(render),
            "--conditions", conditions]
    assert cli.main(argv) == 1
    assert "conditions must be distinct names from di, amp" in capsys.readouterr().err
    assert not (tiny_cfg.workdir / "metrics.csv").exists()


def test_eval_misaligned_stem_named(tiny_cfg, tmp_path):
    from tabflow.errors import DataError
    rng = np.random.default_rng(5)
    dirs = {label: tmp_path / label for label in ("real", "render", "guitarflow")}
    for label, d in dirs.items():
        d.mkdir()
        for stem in ("a", "b"):
            seconds = 0.5 if (label, stem) == ("guitarflow", "b") else 1.0
            x = rng.uniform(-0.5, 0.5, int(seconds * 44100)).astype(np.float32)
            wavio.write_wav(d / f"{stem}.wav", x, 44100)
    with pytest.raises(DataError, match=r"stem b: embeddings not frame-aligned"):
        cli.cmd_eval(tiny_cfg, dirs["real"], dirs["render"], dirs["guitarflow"])


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
    assert f"[flowmatch] {key} must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, command, code", [
    ("cli", "train_split", "nan", "train", 2),
    ("cli", "train_split", "-1", "train", 2),
    ("latentcodec", "chunk_seconds", "nan", "train", 2),
    ("latentcodec", "chunk_seconds", "inf", "train", 2),
    ("latentcodec", "chunk_seconds", "1e9", "train", 2),
    ("audiodist", "kad_max_frames", "-5", "eval", 2),
    ("flowmatch", "base_channels", "0", "train", 2),
    ("flowmatch", "lr", "nan", "train", 2),
])
def test_main_bad_config_value_names_key(tiny_cfg, tmp_path, capsys,
                                         section, key, value, command, code):
    cli.cmd_synthdata(tiny_cfg)
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    argv = ["--config", str(ini), "--workdir", str(tiny_cfg.workdir), command]
    if command == "eval":
        real = str(cli._audio_dir(tiny_cfg, "pseudo_real"))
        argv += ["--real", real, "--render", real, "--guitarflow", real]
    assert cli.main(argv) == code
    assert key in capsys.readouterr().err
    assert not (tiny_cfg.workdir / "model.ckpt").exists()
    assert not (tiny_cfg.workdir / "metrics.csv").exists()


def _score_file(cfg, events, tempo):
    scores = cli._scores_dir(cfg)
    scores.mkdir(parents=True)
    path = scores / "long.gftab"
    path.write_text(f"gftab 1\ntempo {tempo}\ntuning 40 45 50 55 59 64\n{events}\n")
    return path


@pytest.mark.parametrize("events, tempo", [
    ("0 6 0 99999999999999", "120"),     # huge duration
    ("99999999999999 6 0 960", "120"),   # huge onset
    ("0 6 0 960", "1e-320"),             # tiny tempo: the length overflows to inf
])
def test_main_render_too_long_score_is_exit_2(tiny_cfg, capsys, events, tempo):
    _score_file(tiny_cfg, events, tempo)
    assert cli.main(["--workdir", str(tiny_cfg.workdir), "render"]) == 2
    assert "longer than the 600 s limit" in capsys.readouterr().err
    assert not list(cli._audio_dir(tiny_cfg, "synthetic").glob("*.wav"))


@pytest.mark.parametrize("tempo", ["nan", "1e999"])
def test_main_render_non_finite_tempo_is_exit_2(tiny_cfg, capsys, tempo):
    _score_file(tiny_cfg, "0 6 0 960", tempo)
    assert cli.main(["--workdir", str(tiny_cfg.workdir), "render"]) == 2
    assert "line 2, column 2: tempo must be finite and > 0" in capsys.readouterr().err


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


@pytest.mark.parametrize("settings, key", [
    ({"rtol": "nan"}, "rtol"),
    ({"atol": "inf"}, "atol"),
    ({"max_steps": "0"}, "max_steps"),
    ({"solver": "euler", "steps": "0"}, "steps"),
    ({"rtol": "-1"}, "rtol"),
])
def test_main_transfer_bad_odesolve_value_names_key(tiny_cfg, tmp_path, capsys,
                                                    settings, key):
    """Checked before the checkpoint is read: this one is not a checkpoint."""
    ini = tmp_path / "bad.ini"
    ini.write_text("[odesolve]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items()))
    ckpt = tmp_path / "junk.ckpt"
    ckpt.write_bytes(b"not a checkpoint")
    out = tmp_path / "o.wav"
    argv = ["--config", str(ini)] + _transfer_argv(tiny_cfg, ckpt,
                                                   _noise_wav(tmp_path / "in.wav"), out)
    assert cli.main(argv) == 2
    assert f"[odesolve] {key} must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_main_transfer_truncated_checkpoint_is_exit_2(tiny_cfg, tmp_path, capsys):
    ckpt = _zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt")
    ckpt.write_bytes(ckpt.read_bytes()[:20])
    src = _noise_wav(tmp_path / "in.wav")
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, src, tmp_path / "o.wav")) == 2
    err = capsys.readouterr().err
    assert "truncated or corrupt checkpoint" in err and str(ckpt) in err


def test_main_transfer_checkpoint_declaring_8_tib_is_exit_2(tiny_cfg, tmp_path, capsys):
    """A 44-byte checkpoint whose one parameter declares shape (2**31, 2**10)."""
    ckpt = tmp_path / "huge.ckpt"
    ckpt.write_bytes(b"GFCKPT1" + struct.pack("<I", 2) + b"{}" + struct.pack("<IH", 1, 1)
                     + b"w" + struct.pack("<B2I", 2, 2**31, 2**10) + bytes(15))
    src = _noise_wav(tmp_path / "in.wav")
    out = tmp_path / "o.wav"
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, src, out)) == 2
    err = capsys.readouterr().err
    assert "truncated or corrupt checkpoint" in err and str(ckpt) in err
    assert "needs 8796093022208 bytes, 15 left" in err
    assert not out.exists()


def test_main_transfer_checkpoint_echo_nested_too_deep_is_exit_2(tiny_cfg, tmp_path,
                                                                  capsys):
    """A config echo of 100000 nested lists, past the recursion limit."""
    ckpt = tmp_path / "nested.ckpt"
    ckpt.write_bytes(b"GFCKPT1" + struct.pack("<I", 200000) + b"[" * 100000 + b"]" * 100000)
    out = tmp_path / "o.wav"
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, _noise_wav(tmp_path / "in.wav"), out)) == 2
    err = capsys.readouterr().err
    assert "truncated or corrupt checkpoint" in err and str(ckpt) in err
    assert not out.exists()


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


@pytest.mark.parametrize("last_row, shown", [("r1,i0,b,good", "'good'"),
                                             ("r1,i0,b", "None")])
def test_main_stats_non_numeric_score_is_exit_2(tmp_path, capsys, last_row, shown):
    ratings = tmp_path / "bad.csv"
    ratings.write_text(f"# note\nrater,item,system,score\nr0,i0,a,3\nr0,i0,b,4\nr1,i0,a,2\n"
                       f"{last_row}\n")
    assert cli.main(["--workdir", str(tmp_path), "stats", str(ratings), "--m", "1"]) == 2
    err = capsys.readouterr().err
    assert f"{ratings}: rating row 4 has no numeric score: {shown}" in err


def test_main_stats_long_row_is_exit_2(tmp_path, capsys):
    """A fifth field (a decimal comma, say) is not read as score 3."""
    ratings = tmp_path / "long.csv"
    ratings.write_text("rater,item,system,score\nr0,i0,b,4\nr0,i0,a,3,9\nr1,i0,a,2\n"
                       "r1,i0,b,5\n")
    assert cli.main(["--workdir", str(tmp_path), "stats", str(ratings), "--m", "1"]) == 2
    assert f"{ratings}: rating row 2 has more fields than the header: ['9']" in \
        capsys.readouterr().err
    assert not (tmp_path / "stats_tests.csv").exists()


@pytest.mark.parametrize("text, lacks", [
    ("score,rater,item,system\n3,r0,i0,a\n4,r0,i0,b\n5,r1\n", "item, system"),
    ("rater,item,system,score,condition\nr0,i0,a,3,di\nr0,i0,b,4,di\nr1,i0,b,2\n",
     "condition")], ids=["no-item-system", "no-condition"])
def test_main_stats_short_row_is_exit_2(tmp_path, capsys, text, lacks):
    ratings = tmp_path / "short.csv"
    ratings.write_text(text)
    assert cli.main(["--workdir", str(tmp_path), "stats", str(ratings), "--m", "1"]) == 2
    assert f"{ratings}: rating row 3 lacks {lacks}" in capsys.readouterr().err


def _short_scores_ini(tmp_path):
    ini = tmp_path / "short.ini"
    ini.write_text("[synthdata]\nscore_seconds = 2.0\n")
    return ini


def test_main_workdir_under_a_file_is_exit_2(tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    argv = ["--config", str(_short_scores_ini(tmp_path)), "--workdir", str(blocker / "sub"),
            "synthdata", "--n", "1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(blocker / "sub" / "scores") in err


def test_main_stem_that_is_a_directory_is_exit_2(tmp_path, capsys):
    """score_000.wav is a directory in both style directories."""
    work = tmp_path / "work"
    for style in (cli.SOURCE_STYLE, cli.TARGET_STYLE):
        (work / "audio" / style / "score_000.wav").mkdir(parents=True)
    argv = ["--config", str(_short_scores_ini(tmp_path)), "--workdir", str(work),
            "synthdata", "--n", "1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert str(work / "audio" / cli.SOURCE_STYLE / "score_000.wav") in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_main_stem_wav_that_is_a_directory_names_the_path(tmp_path, capsys, command):
    """score_000.wav is a directory in every directory the command pairs."""
    work = tmp_path / "work"
    dirs = [work / "audio" / style for style in (cli.SOURCE_STYLE, cli.TARGET_STYLE)]
    argv = ["--workdir", str(work), command]
    if command == "eval":
        dirs = [tmp_path / name for name in ("real", "render", "guitarflow")]
        argv += [f"--{d.name}={d}" for d in dirs]
    for d in dirs:
        (d / "score_000.wav").mkdir(parents=True)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{dirs[0] / 'score_000.wav'} is not a file" in err
    assert "missing" not in err


@pytest.mark.parametrize("command", ["render", "transfer"])
def test_main_non_utf8_score_is_exit_2(tiny_cfg, tmp_path, capsys, command):
    scores = cli._scores_dir(tiny_cfg)
    scores.mkdir(parents=True)
    bad = scores / "latin1.gftab"
    bad.write_bytes("gftab 1\n# café\n".encode("latin-1"))
    if command == "render":
        argv = ["--workdir", str(tiny_cfg.workdir), "render"]
    else:
        ckpt = _zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt")
        argv = _transfer_argv(tiny_cfg, ckpt, bad, tmp_path / "o.wav")
    assert cli.main(argv) == 2
    assert f"{bad}: score is not UTF-8 text" in capsys.readouterr().err


def test_main_config_without_section_header_is_exit_1(tmp_path, capsys):
    ini = tmp_path / "headless.ini"
    ini.write_text("seed = 3\n")
    assert cli.main(["--config", str(ini), "--workdir", str(tmp_path), "synthdata"]) == 1
    err = capsys.readouterr().err
    assert f"malformed config file {ini}" in err and "no section headers" in err


def test_main_huge_sample_rate_is_exit_2(tmp_path, capsys):
    ini = tmp_path / "rate.ini"
    ini.write_text("[stringsynth]\nsample_rate = 1000000000000\n")
    work = tmp_path / "work"
    assert cli.main(["--config", str(ini), "--workdir", str(work), "synthdata", "--n", "1"]) == 2
    assert "[stringsynth] sample_rate must be in [8000, 192000]" in capsys.readouterr().err
    assert not work.exists()


def test_main_config_path_with_nul_is_exit_1(tmp_path, capsys):
    assert cli.main(["--config", "a\x00b", "--workdir", str(tmp_path), "synthdata"]) == 1
    assert "config file path must be free of NUL characters, got 'a\\x00b'" in \
        capsys.readouterr().err


def test_main_transfer_partial_sample_wav_is_exit_2(tiny_cfg, tmp_path, capsys):
    ckpt = _zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt")
    src = _noise_wav(tmp_path / "in.wav")
    blob = bytearray(src.read_bytes())
    data_at = blob.index(b"data")
    size = struct.unpack_from("<I", blob, data_at + 4)[0]
    struct.pack_into("<I", blob, data_at + 4, size - 2)  # half a float32 sample short
    src.write_bytes(bytes(blob[:-2]))
    out = tmp_path / "o.wav"
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, src, out)) == 2
    err = capsys.readouterr().err
    assert f"{src}: data chunk of {size - 2} bytes is not a whole number of 32-bit samples" in err
    assert not out.exists()

import csv
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tabflow import audiodist, cli, flowmatch, latentcodec, wavio
from tabflow.config import load_config
from tabflow.neuralnet import VelocityNet, AdamState, Tensor, save_checkpoint
from tabflow.stringsynth import SAMPLE_RATE
from tabflow.tabscore import parse_score


_SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def tiny_cfg(tmp_path):
    return load_config(None, {
        "paths": {"workdir": str(tmp_path / "work")},
        "synthdata": {"n_scores": "2", "score_seconds": "6.0"},
        "flowmatch": {"epochs": "2", "batch_size": "4", "base_channels": "8"},
        "odesolve": {"solver": "euler", "steps": "8"},
    })


@pytest.fixture()
def no_net_built(monkeypatch):
    """Fails the test when a command builds a VelocityNet."""
    def forbidden(*args, **kwargs):
        raise AssertionError("net built for a rejected checkpoint")

    monkeypatch.setattr(cli.nn, "VelocityNet", forbidden)


def _zero_checkpoint(cfg, path):
    net = VelocityNet(latentcodec.DIMS, base_channels=cfg.base_channels, seed=0)
    echo = {"config_hash": cfg.hash(), "input_gain": 1.0}
    save_checkpoint(path, net.params, AdamState(lr=cfg.lr), echo)
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
    ini = tmp_path / "zero.ini"
    ini.write_text("[synthdata]\nn_scores = 0\n")
    assert cli.main(["--config", str(ini), "--workdir", str(tmp_path / "w"), "synthdata"]) == 2
    assert "[synthdata] n_scores must be finite and > 0, got '0'" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_synthdata_n_is_the_n_scores_override(tmp_path):
    """[synthdata] n_scores reaches cmd_synthdata through the config, so the
    config hash in the WAV's ICMT comment chunk records the count."""
    work = tmp_path / "w"
    argv = ["--config", str(_one_short_score_ini(tmp_path)), "--workdir", str(work),
            "synthdata"]
    assert cli.main(argv) == 0
    cfg = load_config(tmp_path / "short.ini", {"paths": {"workdir": str(work)}})
    wav = cli._audio_dir(cfg, "synthetic") / "score_000.wav"
    text = f"cfg={cfg.hash()}\x00".encode()
    assert b"ICMT" + struct.pack("<I", len(text)) + text in wav.read_bytes()
    assert [p.name for p in cli._scores_dir(cfg).iterdir()] == ["score_000.gftab"]


def test_synthdata_audio_is_render_of_the_scores_it_wrote(tiny_cfg):
    """synthdata's WAVs equal, byte for byte, `render` of its .gftab files,
    and a score already in the directory is left unrendered."""
    scores_dir = cli._scores_dir(tiny_cfg)
    scores_dir.mkdir(parents=True)
    stale = scores_dir / "old.gftab"
    stale.write_text("gftab 1\ntempo 120\ntuning 40 45 50 55 59 64\n0 6 0 960\n")
    stems = cli.cmd_synthdata(tiny_cfg)
    styles = ("synthetic", "pseudo_real")
    wavs = {style: sorted(cli._audio_dir(tiny_cfg, style).iterdir()) for style in styles}
    assert all([p.stem for p in paths] == stems for paths in wavs.values())
    synthdata_bytes = {p: p.read_bytes() for paths in wavs.values() for p in paths}

    stale.unlink()
    for style in styles:
        shutil.rmtree(cli._audio_dir(tiny_cfg, style))
        assert cli.cmd_render(tiny_cfg, style) == wavs[style]
    assert {p: p.read_bytes() for p in synthdata_bytes} == synthdata_bytes


def test_render_command(tiny_cfg):
    cli.cmd_synthdata(tiny_cfg)
    written = cli.cmd_render(tiny_cfg, "synthetic")
    assert len(written) == 2
    samples, rate = wavio.read_wav(written[0])
    assert rate == SAMPLE_RATE and len(samples) > 0


def test_main_render_unknown_style_is_exit_1(tiny_cfg, capsys):
    """The parser's choices are the one check of a style name."""
    cli.cmd_synthdata(tiny_cfg)
    argv = ["--workdir", str(tiny_cfg.workdir), "render", "--style", "bright"]
    assert cli.main(argv) == 1
    assert "invalid choice: 'bright'" in capsys.readouterr().err


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


def test_transfer_prints_ode_counts(tiny_cfg, tmp_path, capsys):
    cli.cmd_synthdata(tiny_cfg)
    ckpt = _zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt")
    src = cli._audio_dir(tiny_cfg, "synthetic") / "score_000.wav"
    capsys.readouterr()
    cli.cmd_transfer(tiny_cfg, ckpt, src, tmp_path / "out.wav")
    assert capsys.readouterr().out == (
        "ode euler: 8 network calls, 8 accepted and 0 rejected steps\n")


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
    wavio.write_wav(src, x, 44100, comment="")
    out = cli.cmd_transfer(tiny_cfg, _zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt"),
                           src, tmp_path / "out.wav")
    y, _ = wavio.read_wav(out)
    assert len(y) == len(x)
    # a zero field transports exactly, so every chunk gives its interior back
    # bit for bit, the final partial chunk up to the last input sample
    size = 4 * 44100
    for k in range(3):
        lo, hi = k * size + 512, min((k + 1) * size - 1024, len(x))
        assert y[lo:hi].tobytes() == x[lo:hi].tobytes()


def test_transfer_moves_the_latents_train_encodes(tiny_cfg, tmp_path, monkeypatch):
    """The flow starts from the bytes _encode_stem trains on."""
    stem = cli.cmd_synthdata(tiny_cfg)[0]
    seen = []
    real = flowmatch.transfer_batch

    def spy(net, states, solver, steps):
        seen.append(states.copy())
        return real(net, states, solver, steps)

    monkeypatch.setattr(flowmatch, "transfer_batch", spy)
    cli.cmd_transfer(tiny_cfg, _zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt"),
                     cli._audio_dir(tiny_cfg, "synthetic") / f"{stem}.wav", tmp_path / "out.wav")
    want = cli._encode_stem(tiny_cfg, "synthetic", stem)
    assert len(seen) == 1
    assert seen[0].dtype == want.dtype and seen[0].tobytes() == want.tobytes()


def test_default_transfer_codes_once_without_full_dct(tmp_path, monkeypatch):
    """One encode and one decode per file: perfbench's encode_calls and
    decode_calls count these."""
    cfg = load_config(None, {"paths": {"workdir": str(tmp_path / "work")}})
    x = np.random.default_rng(3).uniform(-0.5, 0.5, int(5.5 * SAMPLE_RATE))
    src = tmp_path / "in.wav"
    wavio.write_wav(src, x.astype(np.float32), SAMPLE_RATE, comment="")
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(latentcodec, "encode", counting("encode", latentcodec.encode))
    monkeypatch.setattr(latentcodec, "decode", counting("decode", latentcodec.decode))
    cli.cmd_transfer(cfg, _zero_checkpoint(cfg, tmp_path / "zero.ckpt"), src, tmp_path / "out.wav")
    assert calls == ["encode", "decode"]


def test_transfer_dim_mismatch_rejected(tiny_cfg, tmp_path, capsys, no_net_built):
    """A checkpoint of another latent width is refused before a net is built."""
    from tabflow.errors import DataError
    net = VelocityNet(32, base_channels=4, seed=0)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, net.params, None, {"input_gain": 1.0})
    src, out = _noise_wav(tmp_path / "in.wav"), tmp_path / "x.wav"
    with pytest.raises(DataError, match="latent width 64"):
        cli.cmd_transfer(tiny_cfg, bad, src, out)
    assert cli.main(_transfer_argv(tiny_cfg, bad, src, out)) == 2
    err = capsys.readouterr().err
    assert f"{bad}: parameter enc0.w has shape (4, 33, 3), but latent width 64 " \
        "and net width 4 imply (4, 65, 3)" in err
    assert not out.exists()


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

    def spy(a, b, sigma):
        calls.append((a, b, sigma))
        return kad(a, b, sigma)

    monkeypatch.setattr(audiodist, "kad", spy)
    render = cli._audio_dir(tiny_cfg, "synthetic")
    cli.cmd_eval(tiny_cfg, cli._audio_dir(tiny_cfg, "pseudo_real"), render, render,
                 ("di", "amp"))
    out = capsys.readouterr().out
    printed = re.findall(r"^kad (\w+) (\w+): sigma (\S+) over (\d+) real \+ (\d+) \2 frames$",
                         out, flags=re.M)
    assert [(c, s) for c, s, *_ in printed] == [(c, s) for c in ("di", "amp")
                                               for s in ("render", "guitarflow")]
    for (_, _, printed_sigma, m, n), (a, b, sigma) in zip(printed, calls, strict=True):
        assert float(printed_sigma) == sigma == audiodist.median_bandwidth(a, b)
        assert (int(m), int(n)) == (len(a), len(b))


def test_eval_recon_weighs_stems_by_frame_count(tiny_cfg, tmp_path):
    rng = np.random.default_rng(12)
    dirs = {label: tmp_path / label for label in ("real", "render", "guitarflow")}
    for d in dirs.values():
        d.mkdir()
    for stem, seconds, noise in (("short", 0.5, 0.5), ("long", 2.0, 0.01)):
        x = rng.uniform(-0.5, 0.5, int(seconds * 44100)).astype(np.float32)
        wavio.write_wav(dirs["real"] / f"{stem}.wav", x, 44100, comment="")
        for label in ("render", "guitarflow"):
            y = x + noise * rng.standard_normal(len(x)).astype(np.float32)
            wavio.write_wav(dirs[label] / f"{stem}.wav", y, 44100, comment="")
    rows = cli.cmd_eval(tiny_cfg, dirs["real"], dirs["render"], dirs["guitarflow"],
                        conditions=("di",))
    recon = {s: v for c, m, s, v in rows if m == "recon"}

    def norms(label, stem):
        a = audiodist.embed(cli._load_audio(dirs["real"] / f"{stem}.wav"))
        b = audiodist.embed(cli._load_audio(dirs[label] / f"{stem}.wav"))
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

    def counting_load(path):
        reads.append(path)
        return load(path)

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

    def no_read(path):
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
            wavio.write_wav(d / f"{stem}.wav", x, 44100, comment="")
    with pytest.raises(DataError, match=r"stem b: embeddings not frame-aligned"):
        cli.cmd_eval(tiny_cfg, dirs["real"], dirs["render"], dirs["guitarflow"],
                     ("di", "amp"))


def test_eval_missing_stem_listed(tiny_cfg, tmp_path):
    from tabflow.errors import DataError
    cli.cmd_synthdata(tiny_cfg)
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "score_000.wav").write_bytes(
        (cli._audio_dir(tiny_cfg, "synthetic") / "score_000.wav").read_bytes())
    with pytest.raises(DataError, match="score_001"):
        cli.cmd_eval(tiny_cfg, cli._audio_dir(tiny_cfg, "pseudo_real"),
                     cli._audio_dir(tiny_cfg, "synthetic"), empty, ("di", "amp"))


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
    assert wil.p_value < 0.05 / 3
    out = capsys.readouterr().out
    assert "0.0167" in out
    tests_csv = (tiny_cfg.workdir / "stats_tests.csv").read_text()
    assert "friedman" in tests_csv and "wilcoxon" in tests_csv
    assert (tiny_cfg.workdir / "mos_summary.csv").read_text().count("Tukey") == 1


def test_stats_condition_column_split(tiny_cfg, tmp_path):
    ratings = _ratings_csv(tmp_path / "r2.csv", with_condition=True)
    results = cli.cmd_stats(tiny_cfg, ratings, m=3, alpha=0.05)
    assert all(cond == "di" for cond, _, _ in results)
    lines = (tiny_cfg.workdir / "mos_summary.csv").read_text().split("\n")
    assert lines[0] == f"# config {tiny_cfg.hash()}"
    assert "\n".join(lines[1:]) == (
        "# quartiles: inclusive (Tukey hinges)\n"
        "condition,system,mean,median,q1,q3,min,max,n\n"
        "di,guitarflow,3.125,3.0,2.5,4.0,2.0,4.0,24\n"
        "di,real,4.75,5.0,4.5,5.0,4.0,5.0,24\n"
        "di,render,1.2916666666666667,1.0,1.0,2.0,1.0,2.0,24\n")


def test_stamped_tables_are_lf_only(tiny_cfg, tmp_path):
    """Each of the four tables the pipeline writes starts with its config
    stamp, and every line ends in LF alone."""
    cli.cmd_synthdata(tiny_cfg)
    cli.cmd_train(tiny_cfg)
    render = cli._audio_dir(tiny_cfg, "synthetic")
    cli.cmd_eval(tiny_cfg, cli._audio_dir(tiny_cfg, "pseudo_real"), render, render, ("di",))
    cli.cmd_stats(tiny_cfg, _ratings_csv(tmp_path / "r.csv"), m=3, alpha=0.05)
    for name in ("loss_history.csv", "metrics.csv", "stats_tests.csv", "mos_summary.csv"):
        blob = (tiny_cfg.workdir / name).read_bytes()
        assert b"\r" not in blob, name
        assert blob.split(b"\n", 1)[0] == f"# config {tiny_cfg.hash()}".encode(), name


@pytest.mark.parametrize("bom_file", ["config", "score", "ratings"])
def test_utf8_byte_order_mark_is_skipped(tmp_path, bom_file):
    """Spreadsheet and Windows editors often start a UTF-8 file with a BOM;
    the config, a score and a ratings file each read as without it."""
    work = tmp_path / "w"
    files = {"config": (tmp_path / "c.ini", "[cli]\nseed = 3\n"),
             "score": (work / "scores" / "s.gftab",
                       "gftab 1\ntempo 120\ntuning 40 45 50 55 59 64\n0 6 0 960\n"),
             "ratings": (tmp_path / "r.csv", _ratings_csv(tmp_path / "r.csv").read_text())}
    for name, (path, text) in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(("\ufeff" if name == bom_file else "").encode() + text.encode())
    common = ["--config", str(files["config"][0]), "--workdir", str(work)]
    assert cli.main(common + ["render"]) == 0
    assert cli.main(common + ["stats", str(files["ratings"][0]), "--m", "3"]) == 0


def test_stats_empty_csv_rejected(tiny_cfg, tmp_path):
    from tabflow.errors import DataError
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        cli.cmd_stats(tiny_cfg, empty, m=3, alpha=0.05)


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
    ("flowmatch", "base_channels", "0", "train", 2),
    ("flowmatch", "lr", "nan", "train", 2),
])
def test_main_bad_config_value_names_key(tiny_cfg, tmp_path, capsys,
                                         section, key, value, command, code):
    cli.cmd_synthdata(tiny_cfg)
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    argv = ["--config", str(ini), "--workdir", str(tiny_cfg.workdir), command]
    assert cli.main(argv) == code
    assert key in capsys.readouterr().err
    assert not (tiny_cfg.workdir / "model.ckpt").exists()


def _score_file(cfg, events, tempo, tuning="40 45 50 55 59 64"):
    scores = cli._scores_dir(cfg)
    scores.mkdir(parents=True)
    path = scores / "long.gftab"
    path.write_text(f"gftab 1\ntempo {tempo}\ntuning {tuning}\n{events}\n")
    return path


@pytest.mark.parametrize("events, tempo", [
    ("0 6 0 99999999999999", "120"),     # huge duration
    ("99999999999999 6 0 960", "120"),   # huge onset
    ("0 6 0 960", "1e-320"),             # tiny tempo: the length overflows to inf
    # more ticks than a float can hold
    pytest.param("1" + "0" * 400 + " 6 0 960", "120", id="onset-1e400"),
    pytest.param("0 6 0 1" + "0" * 400, "120", id="duration-1e400"),
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


@pytest.mark.parametrize("command", ["render", "transfer"])
@pytest.mark.parametrize("tuning, pitch", [
    pytest.param("40 45 50 55 59 1" + "0" * 21, 10 ** 21, id="1e21"),
    pytest.param("-1" + "0" * 21 + " 45 50 55 59 64", -10 ** 21, id="-1e21"),
])
def test_main_tuning_outside_midi_is_exit_2(tiny_cfg, tmp_path, capsys, command, tuning,
                                            pitch):
    path = _score_file(tiny_cfg, "0 6 0 960\n0 1 0 960", "120", tuning)
    if command == "render":
        argv = ["--workdir", str(tiny_cfg.workdir), "render"]
    else:
        ckpt = _zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt")
        argv = _transfer_argv(tiny_cfg, ckpt, path, tmp_path / "o.wav")
    assert cli.main(argv) == 2
    assert f"line 3, column 1: tuning pitch {pitch} is outside MIDI 0-127" in \
        capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()
    assert not list(cli._audio_dir(tiny_cfg, "synthetic").glob("*.wav"))


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
    wavio.write_wav(path, x, 44100, comment="")
    return path


def _wav_22050(path):
    x = np.random.default_rng(4).uniform(-0.5, 0.5, 22050).astype(np.float32)
    wavio.write_wav(path, x, 22050, comment="")
    return path


def test_main_transfer_stereo_wav_is_exit_2(tiny_cfg, tmp_path, capsys):
    """read_wav refuses a second channel, so every AudioBuffer is mono."""
    data = np.zeros((100, 2), "<f4").tobytes()
    body = (b"WAVE" + b"fmt " + struct.pack("<I", 16)
            + struct.pack("<HHIIHH", 3, 2, 44100, 44100 * 8, 8, 32)
            + b"data" + struct.pack("<I", len(data)) + data)
    src = tmp_path / "stereo.wav"
    src.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    ckpt = _zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt")
    out = tmp_path / "o.wav"
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, src, out)) == 2
    assert f"data error: {src}: expected mono, got 2 channels" in capsys.readouterr().err
    assert not out.exists()


def test_main_transfer_wrong_sample_rate_is_exit_2(tiny_cfg, tmp_path, capsys):
    ckpt = _zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt")
    src = _wav_22050(tmp_path / "in.wav")
    out = tmp_path / "o.wav"
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, src, out)) == 2
    err = capsys.readouterr().err
    assert f"{src}: sample rate 22050 Hz is not the pipeline's 44100 Hz" in err
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
    assert f"{bad}: sample rate 22050 Hz is not the pipeline's 44100 Hz" in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_main_non_finite_sample_names_the_wav(tmp_path, capsys, command):
    """A WAV holding a NaN sample exits 2 with its path in the message."""
    cfg = load_config(None, {"paths": {"workdir": str(tmp_path / "work")}})
    dirs = [cli._audio_dir(cfg, style) for style in ("synthetic", "pseudo_real")]
    dirs.append(tmp_path / "guitarflow")
    for d in dirs:
        d.mkdir(parents=True)
        _noise_wav(d / "a.wav")
    bad = dirs[1] / "a.wav"
    x = np.full(44100, 0.1, np.float32)
    x[1000] = np.nan
    wavio.write_wav(bad, x, 44100, comment="")
    argv = {"train": ["train"],
            "eval": ["eval", "--real", str(dirs[1]), "--render", str(dirs[0]),
                     "--guitarflow", str(dirs[2])]}[command]
    assert cli.main(["--workdir", str(cfg.workdir)] + argv) == 2
    assert f"data error: {bad}: audio contains non-finite samples" in capsys.readouterr().err


def test_main_eval_silent_stem_names_it(tmp_path, capsys):
    """The amp condition cannot set a silent stem's level; the error says
    which system's WAV it is."""
    dirs = {label: tmp_path / label for label in ("real", "render", "guitarflow")}
    for d in dirs.values():
        d.mkdir()
        _noise_wav(d / "a.wav")
    silent = dirs["render"] / "a.wav"
    wavio.write_wav(silent, np.zeros(44100, np.float32), 44100, comment="")
    argv = ["--workdir", str(tmp_path / "work"), "eval", "--real", str(dirs["real"]),
            "--render", str(dirs["render"]), "--guitarflow", str(dirs["guitarflow"])]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"data error: render stem {silent}, amp condition: cannot normalize silence" in err
    assert not (tmp_path / "work" / "metrics.csv").exists()


def test_main_eval_one_frame_stems_name_the_sets(tmp_path, capsys):
    """Stems of one frame pool too few vectors for FAD; the error says which
    system and condition it was scoring."""
    dirs = {label: tmp_path / label for label in ("real", "render", "guitarflow")}
    for d in dirs.values():
        d.mkdir()
        x = np.random.default_rng(5).uniform(-0.5, 0.5, 1024).astype(np.float32)
        wavio.write_wav(d / "a.wav", x, 44100, comment="")
    argv = ["--workdir", str(tmp_path / "work"), "eval", "--real", str(dirs["real"]),
            "--render", str(dirs["render"]), "--guitarflow", str(dirs["guitarflow"])]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == ("data error: render vs real, di condition: "
                                       "need at least 2 vectors per set, got 1\n")
    assert not (tmp_path / "work" / "metrics.csv").exists()


def test_load_net_builds_an_untracked_net(tiny_cfg, tmp_path):
    """transfer's net has no gradient buffers, and its forward pass records
    no graph."""
    net = cli._load_net(_zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt"))
    assert net.params["out.w"].shape[0] == latentcodec.DIMS
    assert all(p.grad is None and not p.requires_grad for p in net.params.values())
    assert all(p.dtype == np.float32 for p in net.params.values())
    x = Tensor(np.ones((2, latentcodec.DIMS, 16), dtype=np.float32))
    out = net(x, Tensor(np.array([0.25, 0.5], dtype=np.float32)))
    assert out.shape == (2, latentcodec.DIMS, 16) and not out.requires_grad


def test_main_transfer_checkpoint_missing_parameter_is_exit_2(tiny_cfg, tmp_path, capsys):
    net = VelocityNet(latentcodec.DIMS, base_channels=tiny_cfg.base_channels, seed=0)
    ckpt = tmp_path / "headless.ckpt"
    params = {name: p for name, p in net.params.items() if name != "out.w"}
    save_checkpoint(ckpt, params, None, {"input_gain": 1.0})
    src = _noise_wav(tmp_path / "in.wav")
    out = tmp_path / "o.wav"
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, src, out)) == 2
    err = capsys.readouterr().err
    assert "lacks parameters out.w" in err and str(ckpt) in err
    assert not out.exists()


def test_main_transfer_checkpoint_extra_parameter_is_exit_2(tiny_cfg, tmp_path, capsys):
    net = VelocityNet(latentcodec.DIMS, base_channels=tiny_cfg.base_channels, seed=0)
    ckpt = tmp_path / "extra.ckpt"
    params = {**net.params, "stray.w": net.params["out.w"]}
    save_checkpoint(ckpt, params, None, {"input_gain": 1.0})
    out = tmp_path / "o.wav"
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, _noise_wav(tmp_path / "in.wav"), out)) == 2
    assert f"{ckpt}: checkpoint parameter stray.w not in model" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("input_gain", None), ("input_gain", True),
                                        ("input_gain", "1.0"), ("input_gain", 0.0)])
def test_main_transfer_bad_checkpoint_echo_is_exit_2(tiny_cfg, tmp_path, capsys,
                                                     key, value):
    """input_gain is the one echo field transfer reads; the net's shape
    comes from the checkpoint's arrays."""
    net = VelocityNet(latentcodec.DIMS, base_channels=tiny_cfg.base_channels, seed=0)
    echo = {} if value is None else {key: value}
    ckpt = tmp_path / "echo.ckpt"
    save_checkpoint(ckpt, net.params, None, echo)
    out = tmp_path / "o.wav"
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, _noise_wav(tmp_path / "in.wav"), out)) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and str(ckpt) in err
    assert not out.exists()


@pytest.mark.parametrize("shape, shown", [(None, "None"), ((8, 65), "(8, 65)"),
                                          ((0, 65, 3), "(0, 65, 3)")],
                         ids=["missing", "2-D", "no-channels"])
def test_main_transfer_bad_enc0_is_exit_2(tiny_cfg, tmp_path, capsys, no_net_built,
                                          shape, shown):
    """The net's width comes from enc0.w, which must be there, 3-D and of at
    least one channel; no net is built for a checkpoint without it."""
    net = VelocityNet(latentcodec.DIMS, base_channels=tiny_cfg.base_channels, seed=0)
    params = {name: p for name, p in net.params.items() if name != "enc0.w"}
    if shape is not None:
        params["enc0.w"] = Tensor(np.zeros(shape, np.float32))
    ckpt = tmp_path / "enc0.ckpt"
    save_checkpoint(ckpt, params, None, {"input_gain": 1.0})
    out = tmp_path / "o.wav"
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, _noise_wav(tmp_path / "in.wav"), out)) == 2
    assert f"{ckpt}: enc0.w must have shape (width >= 1, 65, 3), got {shown}" in \
        capsys.readouterr().err
    assert not out.exists()


def test_main_transfer_other_net_width_is_exit_2(tiny_cfg, tmp_path, capsys, no_net_built):
    """enc0.w sets the width; a later array of another width is named."""
    net = VelocityNet(latentcodec.DIMS, base_channels=tiny_cfg.base_channels, seed=0)
    wide = VelocityNet(latentcodec.DIMS, base_channels=2 * tiny_cfg.base_channels, seed=0)
    ckpt = tmp_path / "mixed.ckpt"
    save_checkpoint(ckpt, {**net.params, "enc1.w": wide.params["enc1.w"]}, None,
                    {"input_gain": 1.0})
    out = tmp_path / "o.wav"
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, _noise_wav(tmp_path / "in.wav"), out)) == 2
    assert (f"{ckpt}: parameter enc1.w has shape (32, 16, 3), but latent width 64 and "
            f"net width 8 imply (16, 8, 3)") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_main_transfer_non_finite_weight_is_exit_2(tiny_cfg, tmp_path, capsys, no_net_built,
                                                    value):
    """A weight that is NaN or Inf is a bad checkpoint, named with its
    parameter before a net is built, not a numeric error in the first conv."""
    net = VelocityNet(latentcodec.DIMS, base_channels=tiny_cfg.base_channels, seed=0)
    net.params["enc1.w"].data[0, 0, 0] = value
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(ckpt, net.params, None, {"input_gain": 1.0})
    out = tmp_path / "o.wav"
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, _noise_wav(tmp_path / "in.wav"), out)) == 2
    assert f"{ckpt}: parameter enc1.w holds NaN or Inf values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lr, epochs, message", [
    # the one step's update overflows float32: no forward pass reads it
    ("1e39", 1, "parameter enc0.w holds NaN or Inf values after training"),
    # the second epoch's forward pass meets the diverged weights
    ("1e30", 3, "non-finite values produced by op 'mse' (epoch 1, batch 0)"),
], ids=["last_step", "mid_fit"])
def test_main_train_diverging_fit_is_exit_3(tiny_cfg, capsys, lr, epochs, message):
    """A fit that leaves non-finite weights ends in exit 3 with one line and
    no numpy warning, and writes neither the checkpoint nor the history."""
    cli.cmd_synthdata(tiny_cfg)
    ini = tiny_cfg.workdir / "diverge.ini"
    ini.write_text(f"[flowmatch]\nbatch_size = 4\nbase_channels = 8\n"
                   f"epochs = {epochs}\nlr = {lr}\n")
    capsys.readouterr()
    argv = ["--config", str(ini), "--workdir", str(tiny_cfg.workdir), "train"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == f"numeric error: {message}\n"
    assert not (tiny_cfg.workdir / "model.ckpt").exists()
    assert not (tiny_cfg.workdir / "loss_history.csv").exists()


@pytest.mark.filterwarnings("error")
def test_main_transfer_overflowing_weights_is_exit_3(tiny_cfg, tmp_path, capsys):
    """Finite weights whose velocity overflows float32 end in exit 3 with the
    engine's one line naming the op, and with no numpy warning first."""
    net = VelocityNet(latentcodec.DIMS, base_channels=tiny_cfg.base_channels, seed=0)
    for name, p in net.params.items():
        if name.endswith(".w"):
            p.data *= np.float32(1e30)
    ckpt = tmp_path / "huge.ckpt"
    save_checkpoint(ckpt, net.params, None, {"input_gain": 1.0})
    out = tmp_path / "o.wav"
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, _noise_wav(tmp_path / "in.wav"), out)) == 3
    assert capsys.readouterr().err == (
        "numeric error: non-finite values produced by op 'conv1d'\n")
    assert not out.exists()


def test_main_transfer_bad_odesolve_value_names_key(tiny_cfg, tmp_path, capsys):
    """Checked before the checkpoint is read: this one is not a checkpoint."""
    ini = tmp_path / "bad.ini"
    ini.write_text("[odesolve]\nsolver = euler\nsteps = 0\n")
    ckpt = tmp_path / "junk.ckpt"
    ckpt.write_bytes(b"not a checkpoint")
    out = tmp_path / "o.wav"
    argv = ["--config", str(ini)] + _transfer_argv(tiny_cfg, ckpt,
                                                   _noise_wav(tmp_path / "in.wav"), out)
    assert cli.main(argv) == 2
    assert "[odesolve] steps must be finite and > 0" in capsys.readouterr().err
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
    ini = tmp_path / "one.ini"
    ini.write_text("[synthdata]\nn_scores = 1\n")
    code = cli.main(["--config", str(ini), "--workdir", str(tmp_path), "--seed", "3",
                     "synthdata"])
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
                                             ("r1,i0,b", "None"),
                                             ("r1,i0,b,nan", "'nan'"),
                                             ("r1,i0,b,inf", "'inf'")])
def test_main_stats_non_numeric_score_is_exit_2(tmp_path, capsys, last_row, shown):
    ratings = tmp_path / "bad.csv"
    ratings.write_text(f"# note\nrater,item,system,score\nr0,i0,a,3\nr0,i0,b,4\nr1,i0,a,2\n"
                       f"{last_row}\n")
    assert cli.main(["--workdir", str(tmp_path), "stats", str(ratings), "--m", "1"]) == 2
    err = capsys.readouterr().err
    assert f"{ratings}: rating row 4 has no numeric score: {shown}" in err


def test_main_stats_incomplete_block_is_exit_2(tmp_path, capsys):
    """A rater and item that lack a system's rating leave no full grid to test."""
    ratings = tmp_path / "gap.csv"
    ratings.write_text("rater,item,system,score\nr0,i0,A,1\nr0,i0,B,2\nr1,i0,A,2\n")
    assert cli.main(["--workdir", str(tmp_path), "stats", str(ratings), "--m", "1"]) == 2
    assert "data error: incomplete blocks (rater/item): r1/i0" in capsys.readouterr().err
    assert not (tmp_path / "stats_tests.csv").exists()


def test_main_stats_duplicate_rating_is_exit_2(tmp_path, capsys):
    """The 1 is not dropped for the 5: a repeated rating is a data error."""
    ratings = tmp_path / "dup.csv"
    ratings.write_text("rater,item,system,score\nr0,i0,A,1\nr0,i0,B,2\nr0,i0,A,5\n"
                       "r1,i0,A,2\nr1,i0,B,3\n")
    assert cli.main(["--workdir", str(tmp_path), "stats", str(ratings), "--m", "1"]) == 2
    assert "duplicate rating of rater 'r0', item 'i0', system 'A'" in \
        capsys.readouterr().err
    assert not (tmp_path / "mos_summary.csv").exists()


def test_main_stats_repeated_header_column_is_exit_2(tmp_path, capsys):
    """The first score column is not dropped for the second: a header that
    names a column twice is refused before any row is read."""
    ratings = tmp_path / "dup.csv"
    ratings.write_text("rater,item,system,score,score\nr0,i0,a,1,5\nr0,i0,b,2,4\n"
                       "r1,i0,a,1,5\nr1,i0,b,2,4\n")
    assert cli.main(["--workdir", str(tmp_path), "stats", str(ratings), "--m", "1"]) == 2
    assert f"{ratings}: header names column 'score' twice" in capsys.readouterr().err
    assert not (tmp_path / "mos_summary.csv").exists()


def test_main_stats_non_utf8_ratings_is_exit_2(tmp_path, capsys):
    ratings = tmp_path / "latin1.csv"
    ratings.write_bytes("rater,item,system,score\nRen\u00e9,i0,a,3\n".encode("latin-1"))
    assert cli.main(["--workdir", str(tmp_path), "stats", str(ratings), "--m", "1"]) == 2
    assert f"{ratings}: ratings file is not UTF-8 text" in capsys.readouterr().err


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


def _one_short_score_ini(tmp_path):
    ini = tmp_path / "short.ini"
    ini.write_text("[synthdata]\nn_scores = 1\nscore_seconds = 2.0\n")
    return ini


def test_main_workdir_under_a_file_is_exit_2(tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    argv = ["--config", str(_one_short_score_ini(tmp_path)), "--workdir", str(blocker / "sub"),
            "synthdata"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(blocker / "sub" / "scores") in err


def test_main_stem_that_is_a_directory_is_exit_2(tmp_path, capsys):
    """score_000.wav is a directory in both style directories."""
    work = tmp_path / "work"
    for style in (cli.SOURCE_STYLE, cli.TARGET_STYLE):
        (work / "audio" / style / "score_000.wav").mkdir(parents=True)
    argv = ["--config", str(_one_short_score_ini(tmp_path)), "--workdir", str(work),
            "synthdata"]
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


def test_main_transfer_truncated_wav_is_exit_2(tiny_cfg, tmp_path, capsys):
    ckpt = _zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt")
    src = _noise_wav(tmp_path / "in.wav")
    src.write_bytes(src.read_bytes()[:-400])
    out = tmp_path / "o.wav"
    assert cli.main(_transfer_argv(tiny_cfg, ckpt, src, out)) == 2
    assert f"{src}: b'data' chunk declares 176400 bytes, but only 176000 remain" in \
        capsys.readouterr().err
    assert not out.exists()


_TINY_INI = """\
[odesolve]
solver = euler
steps = 8
"""


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["eval", "transfer"])
def test_main_stdout_closed_early_writes_files_and_exits_0(tiny_cfg, tmp_path, command,
                                                           buffered):
    """`tabflow eval ... | head -1`, at its extreme: the reader of stdout is
    gone before the command prints. The command's file is still written,
    and it exits 0 with nothing on stderr (no "data error", and no
    "Exception ignored" from the exit-time flush of a buffered stdout)."""
    cli.cmd_synthdata(tiny_cfg)
    audio = tiny_cfg.workdir / "audio"
    ini = tmp_path / "tiny.ini"
    ini.write_text(_TINY_INI)
    argv = ["--config", str(ini), "--workdir", str(tiny_cfg.workdir)]
    if command == "eval":
        written = tiny_cfg.workdir / "metrics.csv"
        argv += ["eval", "--real", str(audio / "pseudo_real"), "--render",
                 str(audio / "synthetic"), "--guitarflow", str(audio / "synthetic")]
    else:
        written = tmp_path / "out.wav"
        argv += ["transfer", str(_zero_checkpoint(tiny_cfg, tmp_path / "zero.ckpt")),
                 str(audio / "synthetic" / "score_000.wav"), str(written)]
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, *([] if buffered else ["-u"]), "-c",
             "import sys; from tabflow.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")
    assert written.is_file()

"""The benchmark's own tests: tiny smoke runs of every workload, metric names,
self-time accounting, repeatable counts, and the no-sources failure.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import tracer as tr  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("odesolve.nfe", "stringsynth.notes", "latentcodec.encode_calls",
          "neuralnet.tensor.conv1d_calls")


def _run(workload, trace, seed=0, cwd=ROOT, size="tiny"):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--size", size],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


@pytest.fixture(scope="module")
def traced():
    """Two traced tiny runs per workload."""
    return {w: [_result(_run(w, 1)) for _ in range(2)] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    result = _result(_run(workload, 0))
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_metric_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_per_layer_spec_matches_the_tracer():
    spec = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    emitted = {name: (unit, better) for name, (unit, better, _) in tr.LAYER_METRICS.items()}
    emitted.update({n: ("s", "lower") for n in
                    ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s")})
    assert spec == emitted


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(traced, workload):
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in traced[workload]:
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_fit_in_the_traced_wall(traced, workload):
    record = json.loads((ROOT / ".perfbench_out" /
                         f"{workload}-seed0-trace1.json").read_text())
    spans = json.loads((ROOT / ".perfbench_out" /
                        f"{workload}-seed0-trace1.spans.json").read_text())
    t = tr.Tracer()
    t.spans = [[s["name"], s["start"], s["end"], s["parent"], s["request"], s["attrs"]]
               for s in spans]
    own = t.self_times()
    assert min(own) >= -1e-6
    for k, it in enumerate(record["iterations"]):
        in_k = sum(o for s, o in zip(t.spans, own) if s[tr.REQUEST] == k)
        assert in_k <= it["wall_s"] + 1e-6


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_between_traced_runs(traced, workload):
    first, second = ({k: v["value"] for k, v in r["metrics"].items()
                      if v["unit"] == "count"} for r in traced[workload])
    assert first == second
    assert set(COUNTS) <= set(first)


def test_each_workload_exercises_its_layers(traced):
    value = {w: {k: v["value"] for k, v in traced[w][0]["metrics"].items()}
             for w in WORKLOADS}
    assert value["render"]["stringsynth.notes"] > 0
    assert value["render"]["neuralnet.tensor.conv1d_calls"] == 0
    assert value["train"]["flowmatch.steps"] > 0
    assert value["train"]["neuralnet.tensor.conv1d_calls"] > 0
    assert value["train"]["odesolve.nfe"] == 0
    assert value["transfer_eval"]["odesolve.nfe"] > 0
    assert value["transfer_eval"]["audiodist.kad_frames"] > 0


def test_tracer_restores_the_program():
    from tabflow import cli, stringsynth
    from tabflow.neuralnet import tensor
    before = (cli.render, stringsynth.render, tensor.conv1d, tensor.Tensor.backward)
    with tr.Tracer().installed():
        assert cli.render is not before[0] and cli.render is stringsynth.render
    assert (cli.render, stringsynth.render, tensor.conv1d, tensor.Tensor.backward) == before


def test_corpus_seed_changes_order_not_notes(tmp_path):
    from tabflow.tabscore import parse_score

    def notes(seed):
        stems = corpus.write_scores(tmp_path / str(seed), 2, 12.5, seed)
        texts = [(tmp_path / str(seed) / f"{s}.gftab").read_text() for s in stems]
        scores = [parse_score(t) for t in texts]
        for s in scores:
            assert 12.25 <= s.last_offset_ticks / corpus.TICKS_PER_SECOND < 13.75
        return texts, [sorted((e.string, e.fret, e.duration_ticks, e.velocity,
                               repr(e.technique)) for e in s.events) for s in scores]

    a_text, a = notes(1)
    assert notes(1)[0] == a_text
    b_text, b = notes(2)
    assert b_text != a_text and b == a


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "render",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

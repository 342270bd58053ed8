"""The benchmark's `render` workload, shrunk to a test.

perfbench/workloads.py renders one 12.5 s seed-0 score from
perfbench/corpus.py with both styles and compares the sha256 of the samples
with perfbench/reference.json. This test does the same in a temporary
workdir, so a change to the synthesis that alters the renders fails here in
about a second instead of in a full benchmark run.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from tabflow import cli, wavio

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _corpus():
    spec = importlib.util.spec_from_file_location("perfbench_corpus",
                                                  PERFBENCH / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_render_matches_benchmark_reference(tmp_path):
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    stems = _corpus().write_scores(tmp_path / "scores", 1, 12.5, 0)
    digest = hashlib.sha256()
    for style in ("synthetic", "pseudo_real"):
        assert cli.main(["--seed", "0", "--workdir", str(tmp_path),
                         "render", "--style", style]) == 0
    for stem in stems:
        for style in ("synthetic", "pseudo_real"):
            samples, _ = wavio.read_wav(tmp_path / "audio" / style / f"{stem}.wav")
            digest.update(samples.tobytes())
    assert digest.hexdigest() == reference["render"]["sha256"]

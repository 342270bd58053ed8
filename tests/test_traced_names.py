"""Every function the benchmark tracer wraps must still exist in tabflow.

perfbench/tracer.py looks each (module, attribute) of TRACED up by name when
a traced run starts; a refactor that deletes or renames one of them would
break every traced benchmark run, so the fast suite checks the names.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from tabflow.config import load_config
from tabflow.latentcodec import DIMS
from tabflow.neuralnet import VelocityNet, no_grad
from tabflow.neuralnet import tensor as T

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced():
    return _tracer().TRACED


def test_every_traced_function_resolves():
    traced = _traced()
    assert traced
    for module_name, attr, _ in traced:
        assert module_name.startswith("tabflow."), module_name
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


def test_unet_conv_keys_match_benchmark_metrics(monkeypatch):
    """The tracer keys each conv1d timer on its [B, Cin, L] input and weight
    shape. If the default UNet's conv calls stopped producing the nine keys
    BENCHMARK.json names, those per-layer metrics would silently read 0."""
    conv_key = _tracer().conv_key
    keys = []
    conv1d = T.conv1d

    def recording(x, w, b=None):
        keys.append(conv_key(x.data.shape, w.data.shape))
        return conv1d(x, w, b)

    monkeypatch.setattr(T, "conv1d", recording)
    cfg = load_config()
    x = T.Tensor(np.zeros((2, DIMS, 352), dtype=np.float32))
    with no_grad():
        net = VelocityNet(DIMS, cfg.base_channels, cfg.seed)
        net(x, T.Tensor(np.full(2, 0.5, dtype=np.float32)))
    prefix = "neuralnet.tensor.conv1d_fwd_s."
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    suffixes = [m["name"][len(prefix):] for m in metrics if m["name"].startswith(prefix)]
    assert len(suffixes) == 9
    assert sorted(keys) == sorted(suffixes)

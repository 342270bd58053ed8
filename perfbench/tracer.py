"""Span tracer that wraps tabflow's public functions from outside.

Nothing under src/ changes: `Tracer.installed()` rebinds each traced
function in every loaded tabflow module namespace that holds it (so the
`from .x import f` copies in cli.py are covered too) and restores the
originals on exit. Spans are kept in memory as (name, start, end, parent,
request, attrs) and written out by the caller at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

# (module, attribute, span name). Span names are "<layer>.<what>"; the first
# component is the layer that self time is charged to.
TRACED = (
    ("tabflow.tabscore", "parse_score", "tabscore.parse"),
    ("tabflow.stringsynth", "render", "stringsynth.render"),
    ("tabflow.stringsynth", "amp_process", "stringsynth.amp"),
    ("tabflow.wavio", "write_wav", "wavio.write"),
    ("tabflow.wavio", "read_wav", "wavio.read"),
    ("tabflow.latentcodec", "encode", "latentcodec.encode"),
    ("tabflow.latentcodec", "decode", "latentcodec.decode"),
    ("tabflow.latentcodec", "chunk", "latentcodec.chunk"),
    ("tabflow.latentcodec", "save_latent", "latentcodec.cache_write"),
    ("tabflow.flowmatch", "make_sample", "flowmatch.sample"),
    ("tabflow.flowmatch", "cfm_loss", "flowmatch.loss_fwd"),
    ("tabflow.flowmatch", "transfer_batch", "flowmatch.transfer_batch"),
    ("tabflow.neuralnet.tensor", "Tensor.backward", "flowmatch.backward"),
    ("tabflow.neuralnet.optim", "adam_step", "neuralnet.optim.adam"),
    ("tabflow.neuralnet.unet", "VelocityNet.forward", "neuralnet.unet.forward"),
    ("tabflow.neuralnet.tensor", "conv1d", "neuralnet.tensor.conv1d_fwd"),
    ("tabflow.neuralnet.tensor", "relu", "neuralnet.tensor.other"),
    ("tabflow.neuralnet.tensor", "concat", "neuralnet.tensor.other"),
    ("tabflow.neuralnet.tensor", "upsample2", "neuralnet.tensor.other"),
    ("tabflow.neuralnet.tensor", "downsample2", "neuralnet.tensor.other"),
    ("tabflow.neuralnet.tensor", "scale", "neuralnet.tensor.other"),
    ("tabflow.neuralnet.tensor", "mse", "neuralnet.tensor.other"),
    ("tabflow.neuralnet.checkpoint", "save_checkpoint", "neuralnet.checkpoint.save"),
    ("tabflow.neuralnet.checkpoint", "load_checkpoint", "neuralnet.checkpoint.load"),
    ("tabflow.odesolve", "integrate", "odesolve.integrate"),
    ("tabflow.audiodist", "embed", "audiodist.embed"),
    ("tabflow.audiodist", "fad", "audiodist.fad"),
    ("tabflow.audiodist", "kad", "audiodist.kad"),
    ("tabflow.audiodist", "median_bandwidth", "audiodist.median_bandwidth"),
)

# name, start, end, parent index (-1 for a root), request id, attrs
NAME, START, END, PARENT, REQUEST, ATTRS = range(6)


def conv_key(x_shape, w_shape) -> str:
    """`<cin>-<cout>-<len>-k<k>` for input [B, Cin, L] and weight [Cout, Cin, K]."""
    _, c_in, length = x_shape
    c_out, _, k = w_shape
    return f"{c_in}-{c_out}-{length}-k{k}"


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _attrs_for(name: str, args, result) -> dict | None:
    """Counts read off a traced call's arguments and result."""
    if name == "stringsynth.render":
        return {"notes": len(args[0].events), "audio_s": result.duration}
    if name == "wavio.write":
        return {"bytes": _file_size(args[0])}
    if name == "wavio.read":
        return {"bytes": _file_size(args[0])}
    if name == "odesolve.integrate":
        return {"nfe": result.f_evals, "accepted": result.accepted_steps,
                "rejected": result.rejected_steps}
    if name == "audiodist.embed":
        return {"frames": len(result)}
    if name == "audiodist.kad":
        return {"frames": len(args[0]) + len(args[1])}
    return None


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._open: list[int] = []

    # ------------------------------------------------------------ recording

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request, None])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[ATTRS] = attrs
        self._open.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(i)
            tracer.spans[i][ATTRS] = _attrs_for(name, args, result)
            return result
        return traced

    def _wrap_conv1d(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(x, w, b=None):
            key = conv_key(x.data.shape, w.data.shape)
            flops = 2 * x.data.shape[0] * x.data.shape[2] * w.data.size
            i = tracer.begin(f"neuralnet.tensor.conv1d_fwd.{key}")
            try:
                out = fn(x, w, b)
            finally:
                tracer.end(i, {"flops": flops})
            if out._backward is not None:
                out._backward = tracer._wrap_backward(
                    f"neuralnet.tensor.conv1d_bwd.{key}", out._backward, 2 * flops)
            return out
        return traced

    def _wrap_backward(self, name: str, closure, flops: int):
        tracer = self

        def traced(g):
            i = tracer.begin(name)
            try:
                return closure(g)
            finally:
                tracer.end(i, {"flops": flops})
        return traced

    # ------------------------------------------------------------- patching

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED function for the duration of the block."""
        undo: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "tabflow" or n.startswith("tabflow.")]
        try:
            for module_name, attr, name in TRACED:
                owner = sys.modules[module_name]
                cls_name, _, meth = attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    undo.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(name, original))
                    continue
                original = getattr(owner, attr)
                wrapped = (self._wrap_conv1d(original) if attr == "conv1d"
                           else self._wrap(name, original))
                for module in modules:
                    for key in [k for k, v in vars(module).items() if v is original]:
                        undo.append((module, key, original))
                        setattr(module, key, wrapped)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def totals(self, requests) -> dict[str, dict[str, float]]:
        """Per span name, mean per request over the given requests: calls,
        busy and self seconds, and each recorded count."""
        requests = set(requests)
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for s, self_s in zip(self.spans, own):
            if s[REQUEST] not in requests:
                continue
            row = out.setdefault(s[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += s[END] - s[START]
            row["self_s"] += self_s
            for k, v in (s[ATTRS] or {}).items():
                row[k] = row.get(k, 0) + v
        for row in out.values():
            for k in row:
                row[k] /= len(requests)
        return out

    def dump(self) -> list[dict]:
        return [{"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
                 "request": s[REQUEST], "attrs": s[ATTRS]} for s in self.spans]


# Conv shapes of the default VelocityNet (64 latent dims, base_channels 32,
# 4-s chunks = 343 frames padded to 352): four encoder levels, four decoder
# levels, and the 1x1 output head.
CONV_KEYS = (
    "65-32-352-k3", "32-64-176-k3", "64-128-88-k3", "128-256-44-k3",
    "512-128-44-k3", "256-64-88-k3", "128-32-176-k3", "64-32-352-k3",
    "32-64-352-k1",
)


def _busy(name):
    return lambda t: t.get(name, {}).get("busy_s", 0.0)


def _self(name):
    return lambda t: t.get(name, {}).get("self_s", 0.0)


def _calls(name):
    return lambda t: t.get(name, {}).get("calls", 0)


def _count(name, key):
    return lambda t: t.get(name, {}).get(key, 0)


def _prefix(prefix, field):
    return lambda t: sum(row.get(field, 0) for n, row in t.items() if n.startswith(prefix))


def _gflops(prefix):
    def rate(t):
        busy = _prefix(prefix, "busy_s")(t)
        return _prefix(prefix, "flops")(t) / busy / 1e9 if busy > 0 else 0.0
    return rate


def _ms_per_note(t):
    notes = _count("stringsynth.render", "notes")(t)
    return 1000.0 * _busy("stringsynth.render")(t) / notes if notes else 0.0


# name -> (unit, better, value from the per-name totals of traced requests)
LAYER_METRICS = {
    "tabscore.parse_s": ("s", "lower", _busy("tabscore.parse")),
    "stringsynth.render_s": ("s", "lower", _busy("stringsynth.render")),
    "stringsynth.notes": ("count", "higher", _count("stringsynth.render", "notes")),
    "stringsynth.audio_s": ("audio-s", "higher", _count("stringsynth.render", "audio_s")),
    "stringsynth.ms_per_note": ("ms", "lower", _ms_per_note),
    "stringsynth.amp_s": ("s", "lower", _busy("stringsynth.amp")),
    "wavio.write_s": ("s", "lower", _busy("wavio.write")),
    "wavio.read_s": ("s", "lower", _busy("wavio.read")),
    "wavio.bytes_written": ("bytes", "higher", _count("wavio.write", "bytes")),
    "wavio.bytes_read": ("bytes", "higher", _count("wavio.read", "bytes")),
    "latentcodec.encode_s": ("s", "lower", _busy("latentcodec.encode")),
    "latentcodec.encode_calls": ("count", "lower", _calls("latentcodec.encode")),
    "latentcodec.decode_s": ("s", "lower", _busy("latentcodec.decode")),
    "latentcodec.decode_calls": ("count", "lower", _calls("latentcodec.decode")),
    "latentcodec.chunk_s": ("s", "lower", _busy("latentcodec.chunk")),
    "latentcodec.cache_write_s": ("s", "lower", _busy("latentcodec.cache_write")),
    "flowmatch.sample_s": ("s", "lower", _busy("flowmatch.sample")),
    "flowmatch.loss_fwd_s": ("s", "lower", _busy("flowmatch.loss_fwd")),
    "flowmatch.backward_s": ("s", "lower", _busy("flowmatch.backward")),
    "flowmatch.steps": ("count", "higher", _calls("neuralnet.optim.adam")),
    "flowmatch.transfer_batch_s": ("s", "lower", _busy("flowmatch.transfer_batch")),
    "flowmatch.self_s": ("s", "lower", _prefix("flowmatch.", "self_s")),
    "neuralnet.optim.adam_s": ("s", "lower", _busy("neuralnet.optim.adam")),
    "neuralnet.unet.forward_s": ("s", "lower", _busy("neuralnet.unet.forward")),
    "neuralnet.unet.forward_calls": ("count", "lower", _calls("neuralnet.unet.forward")),
    **{f"neuralnet.tensor.conv1d_fwd_s.{k}": ("s", "lower",
                                              _busy(f"neuralnet.tensor.conv1d_fwd.{k}"))
       for k in CONV_KEYS},
    **{f"neuralnet.tensor.conv1d_bwd_s.{k}": ("s", "lower",
                                              _busy(f"neuralnet.tensor.conv1d_bwd.{k}"))
       for k in CONV_KEYS},
    "neuralnet.tensor.conv1d_calls": ("count", "lower",
                                      _prefix("neuralnet.tensor.conv1d_fwd.", "calls")),
    "neuralnet.tensor.conv1d_fwd_gflops": ("GFLOP/s", "higher",
                                           _gflops("neuralnet.tensor.conv1d_fwd.")),
    "neuralnet.tensor.conv1d_bwd_gflops": ("GFLOP/s", "higher",
                                           _gflops("neuralnet.tensor.conv1d_bwd.")),
    "neuralnet.tensor.other_s": ("s", "lower", _busy("neuralnet.tensor.other")),
    "neuralnet.checkpoint.save_s": ("s", "lower", _busy("neuralnet.checkpoint.save")),
    "neuralnet.checkpoint.load_s": ("s", "lower", _busy("neuralnet.checkpoint.load")),
    "neuralnet.self_s": ("s", "lower", _prefix("neuralnet.", "self_s")),
    "odesolve.integrate_s": ("s", "lower", _busy("odesolve.integrate")),
    "odesolve.self_s": ("s", "lower", _self("odesolve.integrate")),
    "odesolve.nfe": ("count", "lower", _count("odesolve.integrate", "nfe")),
    "odesolve.accepted_steps": ("count", "lower", _count("odesolve.integrate", "accepted")),
    "odesolve.rejected_steps": ("count", "lower", _count("odesolve.integrate", "rejected")),
    "audiodist.embed_s": ("s", "lower", _busy("audiodist.embed")),
    "audiodist.embed_frames": ("count", "higher", _count("audiodist.embed", "frames")),
    "audiodist.fad_s": ("s", "lower", _busy("audiodist.fad")),
    "audiodist.kad_s": ("s", "lower", _busy("audiodist.kad")),
    "audiodist.median_bandwidth_s": ("s", "lower", _busy("audiodist.median_bandwidth")),
    "audiodist.kad_frames": ("count", "higher", _count("audiodist.kad", "frames")),
    "audiodist.self_s": ("s", "lower", _prefix("audiodist.", "self_s")),
    "cli.self_s": ("s", "lower", _prefix("cli.", "self_s")),
}

"""Tablature rendering, latent rectified-flow style transfer, and evaluation.

The pipeline: parse a GFTab score, render it with a deterministic
plucked-string instrument in two styles, encode 4-second chunks into an
invertible frame-transform latent space, train a UNet velocity field by
rectified flow matching between the styles, transport new renders through
the learned ODE, and score the results with FAD / KAD / reconstruction
distances plus nonparametric rating statistics.

Latents and embeddings are plain arrays. encode maps an [N, size] chunk
stack to [N, 64, F] (64 transform coefficients by F frames), the layout the
velocity net reads, and decode maps it back to samples. embed maps audio to
[F, 64] float64 filterbank rows, one per frame, and fad, kad and
recon_distance compare two such [M, E] arrays.
"""

from .errors import DataError, NumericError, TabflowError, UsageError
from .tabscore import (NoteEvent, Score, Technique, TechniqueKind, event_pitch,
                       parse_score, serialize_score)
from .stringsynth import (AudioBuffer, RenderStyle, STYLE_PRESETS, amp_process,
                          normalize_rms, render)
from .latentcodec import chunk, decode, encode
from .flowmatch import FlowSample, cfm_loss, make_sample, train
from .odesolve import Dopri5, Euler, OdeTrace, RK4, integrate
from .audiodist import embed, fad, kad, recon_distance
from .mosstats import (RatingTable, TestResult, bonferroni, friedman,
                       mos_summary, wilcoxon_signed_rank)

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer", "DataError", "Dopri5", "Euler",
    "FlowSample", "NoteEvent", "NumericError", "OdeTrace",
    "RatingTable", "RenderStyle", "RK4", "Score", "STYLE_PRESETS",
    "TabflowError", "Technique", "TechniqueKind", "TestResult", "UsageError",
    "amp_process", "bonferroni", "cfm_loss", "chunk", "decode", "embed",
    "encode", "event_pitch", "fad", "friedman", "integrate", "kad",
    "make_sample", "mos_summary", "normalize_rms", "parse_score",
    "recon_distance", "render", "serialize_score", "train",
    "wilcoxon_signed_rank",
]

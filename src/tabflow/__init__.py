"""Tablature rendering, latent rectified-flow style transfer, and evaluation.

The pipeline: parse a GFTab score, render it with a deterministic
plucked-string instrument in two styles, encode 4-second chunks into an
invertible frame-transform latent space, train a UNet velocity field by
rectified flow matching between the styles, transport new renders through
the learned ODE, and score the results with FAD / KAD / reconstruction
distances plus nonparametric rating statistics.
"""

from .errors import DataError, NumericError, TabflowError, UsageError
from .tabscore import (NoteEvent, Score, Technique, TechniqueKind, event_pitch,
                       parse_score, serialize_score)
from .stringsynth import (AudioBuffer, RenderStyle, STYLE_PRESETS, amp_process,
                          normalize_rms, render)
from .latentcodec import LatentSeq, chunk, dechunk, decode, encode
from .flowmatch import FlowSample, cfm_loss, make_sample, train
from .odesolve import Dopri5, Euler, OdeTrace, RK4, convergence_order, integrate
from .audiodist import EmbeddingSet, embed, fad, kad, recon_distance
from .mosstats import (RatingTable, TestResult, bonferroni, friedman,
                       mos_summary, wilcoxon_signed_rank)

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer", "DataError", "Dopri5", "EmbeddingSet", "Euler",
    "FlowSample", "LatentSeq", "NoteEvent", "NumericError", "OdeTrace",
    "RatingTable", "RenderStyle", "RK4", "Score", "STYLE_PRESETS",
    "TabflowError", "Technique", "TechniqueKind", "TestResult", "UsageError",
    "amp_process", "bonferroni", "cfm_loss", "chunk", "convergence_order",
    "dechunk", "decode", "embed", "encode", "event_pitch", "fad", "friedman",
    "integrate", "kad", "make_sample", "mos_summary", "normalize_rms",
    "parse_score", "recon_distance", "render", "serialize_score", "train",
    "wilcoxon_signed_rank",
]

"""Deployment utilities for resource-constrained targets.

The paper's robustness study (Fig. 8) runs DistHD with class memories stored
at 1–8-bit precision; this package makes that a first-class deployment mode:

- :class:`~repro.deploy.staged.StagedModel` — the encode/score protocol
  every servable HDC artifact implements; ``decision_scores``,
  ``predict`` and ``score`` are defined once on top of it;
- :class:`~repro.deploy.quantized.QuantizedHDCModel` — freeze any fitted HDC
  classifier into a fixed-point inference model (1/2/4/8-bit class memory),
  with a memory-footprint report and optional fault injection.

Streaming (online) training is the estimator protocol's own
``partial_fit`` (e.g. ``make_model("disthd-stream")``).
"""

from repro.deploy.quantized import QuantizedHDCModel
from repro.deploy.staged import StagedModel

__all__ = ["QuantizedHDCModel", "StagedModel"]

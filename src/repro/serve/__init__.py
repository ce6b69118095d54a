"""Serving subsystem: micro-batched inference, hot-swap, online adaptation.

The request-path counterpart of the training engine.  A
:class:`~repro.serve.server.ModelServer` fronts any fitted model (or a
persisted archive) behind a :class:`~repro.serve.batcher.MicroBatcher`
that serves whatever requests are queued as one batch, keeps a
versioned model pool with atomic hot-swap, and reports request-level
metrics.  An :class:`~repro.serve.adapter.OnlineAdapter` layers drift
detection over labeled feedback and promotes ``partial_fit``-adapted,
re-quantized versions in the background.

Quick start::

    from repro import DistHDClassifier
    from repro.serve import ModelServer, OnlineAdapter

    server = ModelServer(fitted_model, max_batch_size=64)
    labels = server.predict(rows)          # micro-batched under the hood
    server.deploy("model-v2.npz")          # atomic hot-swap from disk
    print(server.stats())                  # throughput, p50/p95/p99, swaps
    server.close()

or, via the facade, ``repro.api.serve_model(...)`` and the ``repro
serve`` CLI subcommand.  See ``docs/serving.md`` for the architecture.

For fault-tolerant multi-process serving — N supervised worker processes
mapping one shared-memory artifact behind admission control, with
heartbeat watchdog, supervised restart and a crash-loop circuit breaker —
see :mod:`repro.serve.fleet` (:class:`~repro.serve.fleet.server.
FleetServer`), the chaos harness in :mod:`repro.serve.chaos`, and the
graceful-shutdown registry in :mod:`repro.serve.shutdown`.
"""

from repro.serve.adapter import DriftDetector, DriftReport, OnlineAdapter
from repro.serve.batcher import MicroBatcher
from repro.serve.fleet import FleetServer, Overloaded
from repro.serve.loadgen import LoadReport, run_load
from repro.serve.metrics import ServerMetrics
from repro.serve.server import ModelServer, ModelVersion

__all__ = [
    "DriftDetector",
    "DriftReport",
    "FleetServer",
    "LoadReport",
    "MicroBatcher",
    "ModelServer",
    "ModelVersion",
    "OnlineAdapter",
    "Overloaded",
    "ServerMetrics",
    "run_load",
]

"""Typed failure surface of the serving fleet.

Callers branch on these: an :class:`Overloaded` rejection is *shed load*
(retry later, count it, never treat it as a model failure), a
:class:`DeadlineExceeded` is a request that aged out before a worker could
score it, and a :class:`WorkerCrashed` is a request lost with its worker
after retries were exhausted (or disabled).  Everything inherits
:class:`FleetError` so "any fleet-side failure" is one except clause.
"""

from __future__ import annotations


class FleetError(RuntimeError):
    """Base class for fleet-side request failures."""


class FleetClosed(FleetError):
    """The fleet is shut down; no new requests are accepted."""


class Overloaded(FleetError):
    """Admission control rejected the request: every worker already holds
    ``queue_depth`` unanswered requests (or no worker is up).  Explicit shed instead of unbounded queueing —
    the caller sees backpressure immediately rather than a deadline
    timeout after sitting in a queue that could never drain in time."""


class DeadlineExceeded(FleetError):
    """The request's deadline passed before a worker scored it."""


class WorkerCrashed(FleetError):
    """The worker handling the request died and the request could not be
    retried on a survivor within its deadline."""


class RequestFailed(FleetError):
    """The worker raised while scoring this request (bad input reaching
    the model, not a fleet fault)."""

"""The model server: a versioned model pool behind a micro-batcher.

:class:`ModelServer` fronts any fitted model that exposes ``predict`` /
``decision_scores`` (every library classifier, and every
:class:`~repro.deploy.staged.StagedModel` artifact: quantized deploys and
loaded HDC archives alike) with:

- **micro-batched inference** — concurrent :meth:`~ModelServer.predict` /
  :meth:`~ModelServer.decision_scores` calls that queue up behind a
  running batch are served together as the next batch (see
  :mod:`repro.serve.batcher`), so the fused, chunked kernels see real
  batches instead of single rows;
- **versioned hot-swap** — :meth:`~ModelServer.deploy` loads the next
  model (an object or a :mod:`repro.persistence` archive path), warms it
  with a representative batch, then atomically flips the active pointer.
  In-flight batches finish against the version they started on and each
  retired version can be awaited until drained, so a swap drops zero
  requests;
- **request-level metrics** — throughput, latency percentiles, the
  batch-size histogram, the swap count and (for ``StagedModel``
  artifacts) the cumulative encode-vs-score stage timings via
  :meth:`~ModelServer.stats`.

Requests are admitted at submit time, and each drained batch, whatever
its mix of request kinds, is scored by one call into the serving core
(:mod:`repro.serve.core`) that the fleet workers share.

The hot-swap protocol in detail (the invariant later replication work
builds on): ``deploy`` prepares v(N+1) entirely off the request path
(load, validate, warm), takes the swap lock, publishes v(N+1) as the
active version, and releases the lock.  The batch handler reads the
active version exactly once per batch, so every request is scored by one
coherent model; after the flip, v(N)'s in-flight counter drains to zero
and :meth:`~ModelServer.wait_drained` returns — only then may v(N)'s
state be mutated or released.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.annotations import guarded_by, make_lock
from repro.obs.ids import wall_now
from repro.obs.trace import TraceContext, span_record
from repro.serve.batcher import MicroBatcher
from repro.serve.core import PREDICT, SCORES, admit, score_requests
from repro.serve.metrics import ServerMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability


# ``model`` is deliberately NOT a guarded field: writes happen under the
# lock (release_model), but reads are protected by the enter/drain
# protocol (_try_enter registers the reader before the pointer can be
# released), which the linter cannot express — the threaded swap stress
# suite pins it instead.
@guarded_by("_lock", "_in_flight", aliases=("_drained",))
class ModelVersion:
    """One entry of the server's version pool.

    Tracks the model object, where it came from, when it went live, and
    how many batches are currently executing against it (the drain
    counter behind the zero-dropped-requests swap guarantee).
    """

    def __init__(
        self,
        version: int,
        model: Any,
        source: Optional[str],
    ) -> None:
        self.version = int(version)
        self.model = model
        self.source = source
        self.deployed_unix = time.time()
        self.retired_unix: Optional[float] = None
        self._in_flight = 0
        self._lock = make_lock("ModelVersion._lock")
        self._drained = threading.Condition(self._lock)

    # -------------------------------------------------------- drain tracking

    def _try_enter(self) -> bool:
        """Register a batch against this version — unless it was already
        drained *and released*.

        The check and the increment share the version lock with
        :meth:`release_model`'s drain-check-and-release, so a releaser can
        never observe ``in_flight == 0`` while a handler sits between
        reading the active pointer and registering itself.
        """
        with self._lock:
            if self.model is None:
                return False
            self._in_flight += 1
            return True

    def _exit(self) -> None:
        with self._lock:
            self._in_flight -= 1
            if self._in_flight <= 0:
                self._drained.notify_all()

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until no batch is executing against this version."""
        with self._lock:
            return self._drained.wait_for(
                lambda: self._in_flight <= 0, timeout=timeout
            )

    def release_model(self, timeout: Optional[float] = None) -> bool:
        """Drop the model reference once drained; atomic with the drain check.

        Returns ``False`` (and leaves the reference in place) when the
        version did not drain within ``timeout`` — leaking a retired model
        for a while is recoverable, serving a ``None`` model is not.
        """
        with self._lock:
            if not self._drained.wait_for(
                lambda: self._in_flight <= 0, timeout=timeout
            ):
                return False
            self.model = None
            return True

    def as_record(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "source": self.source,
            "model": type(self.model).__name__ if self.model is not None
            else None,
            "deployed_unix": self.deployed_unix,
            "retired_unix": self.retired_unix,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "retired" if self.retired_unix is not None else "active"
        return f"ModelVersion(v{self.version}, {state})"


def _check_servable(model: Any) -> None:
    for attr in ("predict", "decision_scores"):
        if not callable(getattr(model, attr, None)):
            raise TypeError(
                f"model {type(model).__name__} is not servable: "
                f"missing {attr}()"
            )


def _model_n_features(model: Any) -> Optional[int]:
    value = getattr(model, "n_features_", None)
    return int(value) if value is not None else None


@guarded_by("_swap_lock", "_versions")
class ModelServer:
    """Serve a fitted model behind micro-batching with atomic hot-swap.

    Parameters
    ----------
    model:
        The initial fitted model, or a :mod:`repro.persistence` archive
        path (``str`` / ``Path``) to load it from.
    max_batch_size:
        Row cap of one batch (see :class:`~repro.serve.batcher.MicroBatcher`).
    retain_retired:
        Keep retired versions' model objects alive.  Off by default —
        retiring releases the reference once the adapter (or any caller
        holding it) is done; the version *record* is always kept.
    obs:
        Optional :class:`repro.obs.Observability` bundle.  Metrics
        publish into its registry, sampled requests get server-side
        spans (``serve`` / ``batch`` / ``encode`` / ``score``), and
        :meth:`close` dumps its flight recorder with reason
        ``"shutdown"``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import DistHDClassifier
    >>> from repro.serve import ModelServer
    >>> rng = np.random.default_rng(0)
    >>> X = rng.normal(size=(64, 6)); y = np.arange(64) % 2
    >>> clf = DistHDClassifier(dim=64, iterations=2, seed=0).fit(X, y)
    >>> with ModelServer(clf) as server:
    ...     preds = server.predict(X[:4])
    >>> preds.shape
    (4,)
    """

    # ``_active`` is an atomic pointer read by design (one coherent
    # version per batch — see _handle); only the version *pool* needs the
    # swap lock.

    def __init__(
        self,
        model: Any,
        *,
        max_batch_size: int = 64,
        retain_retired: bool = False,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.obs = obs
        self.metrics = ServerMetrics(obs=obs)
        self.retain_retired = bool(retain_retired)
        self._swap_lock = make_lock("ModelServer._swap_lock")
        self._versions: List[ModelVersion] = []
        self._active: Optional[ModelVersion] = None
        self._warm_rows: Optional[np.ndarray] = None
        self._closed = False
        self._batcher = MicroBatcher(
            self._handle,
            max_batch_size=max_batch_size,
            on_group_done=self._on_group_done,
            on_batch=self.metrics.record_batch,
            tracer=obs.tracer if obs is not None else None,
            pass_context=obs is not None,
        )
        try:
            self.deploy(model, warm=False)
        except BaseException:
            self._batcher.close()
            raise
        from repro.serve import shutdown as shutdown_registry

        shutdown_registry.register(self)

    # ---------------------------------------------------------------- handler

    def _handle(
        self,
        requests: List[Tuple[str, np.ndarray]],
        ctx: Optional[TraceContext] = None,
    ) -> List[np.ndarray]:
        # One coherent version per batch.  A deploy can flip the active
        # pointer (and drain + release the old version) between our read
        # and our registration; _try_enter refuses a released version, in
        # which case we re-read — the fresh pointer is always enterable.
        while True:
            active = self._active
            if active._try_enter():
                break
        try:
            results, encode_s, score_s = score_requests(
                active.model, requests
            )
        finally:
            active._exit()
        if encode_s is not None and score_s is not None:
            # The stats endpoint's encode-vs-score split, and for a
            # sampled batch its encode / score spans under the batch span.
            self.metrics.record_stage_times(encode_s, score_s)
            if ctx is not None and ctx.sampled and self.obs is not None:
                now = wall_now()
                self.obs.tracer.ingest([
                    span_record("encode", "server", ctx,
                                now - encode_s - score_s, encode_s),
                    span_record("score", "server", ctx,
                                now - score_s, score_s),
                ])
        return results

    def _on_group_done(self, latencies_s: List[float], ok: bool) -> None:
        self.metrics.record_requests(latencies_s)
        if not ok:
            for _ in latencies_s:
                self.metrics.record_error()

    # ----------------------------------------------------------------- intake

    def _prepare(self, X: Any) -> np.ndarray:
        """Admit a request up front (see :func:`repro.serve.core.admit`)
        so one bad request cannot poison a batch shared with well-formed
        ones."""
        if self._closed:
            raise RuntimeError("ModelServer is closed")
        X = admit(X, _model_n_features(self._active.model))
        if self._warm_rows is None:
            self._warm_rows = X[:1].copy()
        return X

    def submit_predict(
        self, X: Any, ctx: Optional[TraceContext] = None
    ) -> Future:
        """Micro-batched ``predict``; resolves to the label rows for ``X``."""
        return self._batcher.submit(PREDICT, self._prepare(X), ctx)

    def submit_decision_scores(
        self, X: Any, ctx: Optional[TraceContext] = None
    ) -> Future:
        """Micro-batched ``decision_scores``; resolves to ``(n, k)`` scores."""
        return self._batcher.submit(SCORES, self._prepare(X), ctx)

    def predict(self, X: Any, timeout: Optional[float] = None) -> np.ndarray:
        """Synchronous micro-batched prediction (submit + wait)."""
        return self.submit_predict(X).result(timeout=timeout)

    def decision_scores(
        self,
        X: Any,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Synchronous micro-batched per-class scores (submit + wait)."""
        return self.submit_decision_scores(X).result(timeout=timeout)

    # --------------------------------------------------------------- hot-swap

    def deploy(
        self,
        model: Any,
        *,
        warm: bool = True,
        source: Optional[str] = None,
    ) -> ModelVersion:
        """Publish ``model`` (object or archive path) as the next version.

        Load + validation + warm-up all happen before the flip, off the
        request path; the flip itself is one pointer swap under the swap
        lock.  Returns the new active :class:`ModelVersion`; the previous
        version keeps serving its in-flight batches until drained (see
        :meth:`wait_drained`).
        """
        if isinstance(model, (str, Path)):
            from repro.persistence import load_model as _load

            source = source or str(model)
            model = _load(model)
        _check_servable(model)
        incoming = _model_n_features(model)

        def check_compatible(previous: Optional[ModelVersion]) -> None:
            if previous is None:
                return
            expected = _model_n_features(previous.model)
            if (
                expected is not None
                and incoming is not None
                and expected != incoming
            ):
                raise ValueError(
                    f"cannot hot-swap: active version expects {expected} "
                    f"features, incoming model has {incoming}"
                )

        # Advisory pre-check so an incompatible deploy fails with the
        # guarded message instead of a shape error from the warm-up call;
        # the authoritative check re-runs under the swap lock.
        check_compatible(self._active)
        if warm and self._warm_rows is not None:
            # Populate lazy state (norm caches, encoder buffers) before
            # the model sees traffic.
            model.decision_scores(self._warm_rows)
        # Previous-read, compatibility check and flip are one atomic
        # step: with them separated, two concurrent deploys could both
        # capture the same previous version, double-retire it, and leave
        # the losing intermediate version unretired (and unreleased).
        with self._swap_lock:
            previous = self._active
            check_compatible(previous)
            version = ModelVersion(
                len(self._versions) + 1, model, source
            )
            self._versions.append(version)
            self._active = version
        if previous is not None:
            previous.retired_unix = time.time()
            self.metrics.record_swap()
            if not self.retain_retired:
                # Release the model reference once retired *and* drained
                # (atomically — see ModelVersion.release_model); callers
                # that need the object longer hold their own ref.  On
                # timeout the reference stays put: leaking a retired
                # model briefly beats serving a None one.
                previous.release_model(timeout=30.0)
        return version

    @property
    def active_version(self) -> ModelVersion:
        return self._active

    @property
    def model(self) -> Any:
        """The currently active model object."""
        return self._active.model

    def wait_drained(
        self, version: ModelVersion, timeout: Optional[float] = None
    ) -> bool:
        """Block until ``version`` has no in-flight batches."""
        return version.wait_drained(timeout=timeout)

    # ------------------------------------------------------------------ stats

    def stats(self) -> Dict[str, object]:
        """The stats-endpoint snapshot: metrics + version-pool state."""
        snapshot = self.metrics.snapshot()
        snapshot["active_version"] = self._active.version
        # Snapshot the pool under the swap lock: iterating the live list
        # while a concurrent deploy appends is a torn read (the first
        # unguarded access `repro lint` flagged on this tree).
        with self._swap_lock:
            versions = tuple(self._versions)
        snapshot["versions"] = [v.as_record() for v in versions]
        return snapshot

    # --------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Stop intake, flush pending requests, release the worker.

        Idempotent, and registered with :mod:`repro.serve.shutdown` so a
        SIGTERM/SIGINT drains the batcher before the process exits.
        When an obs bundle with a ``flight_dir`` is attached, the first
        close dumps the flight recorder (reason ``"shutdown"``)."""
        first_close = not self._closed
        self._closed = True
        self._batcher.close()
        from repro.serve import shutdown as shutdown_registry

        shutdown_registry.unregister(self)
        if first_close and self.obs is not None:
            self.obs.dump_flight("shutdown")

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModelServer(v{self._active.version}, "
            f"model={type(self._active.model).__name__}, "
            f"n_requests={self.metrics.n_requests})"
        )

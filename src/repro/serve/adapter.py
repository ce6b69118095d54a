"""Drift-aware online adaptation for a served model.

DistHD's first-class ``partial_fit`` protocol makes the served model a
*learner*, not a frozen artifact: when the traffic distribution moves, the
server can keep adapting while it serves.  This module provides the two
pieces:

- :class:`DriftDetector` — windowed accuracy / score-margin shift
  detection over labeled feedback.  A reference window (the first
  ``window`` observations after each baseline) is compared against a
  rolling recent window; a significant accuracy drop or margin collapse
  flags drift.
- :class:`OnlineAdapter` — consumes ``(x, y_true)`` feedback, feeds the
  detector, and on drift runs a background adaptation cycle:
  ``partial_fit`` the base classifier on the buffered feedback, rebuild
  the deploy artifact (re-quantize via
  :meth:`~repro.deploy.quantized.QuantizedHDCModel.refresh` for quantized
  deployments, snapshot copy otherwise), and hot-swap it into the
  :class:`~repro.serve.server.ModelServer`.

Adaptation runs through an :class:`~repro.engine.executor.Executor` on a
dedicated background thread, so the request path never blocks on
training; because adaptation mutates the live base classifier it must run
in-process (a :class:`~repro.engine.executor.SerialExecutor` — the
default; process pools are rejected).

**Locking contract.**  The *served* artifact is never trained in place:
the adapter mutates only its private base classifier and a standby deploy
artifact that is off rotation (and drained — see
:meth:`~repro.serve.server.ModelVersion.wait_drained`) before being
refreshed, so request threads never race a ``partial_fit``.  Concurrent
``predict`` against a model *while another thread runs ``partial_fit`` on
the same object* is still memory-safe — the versioned norm caches of
:class:`~repro.hdc.memory.AssociativeMemory` guarantee no stale cache
survives a mutation — but individual in-progress calls may mix pre- and
post-update values, which is exactly why the serving path swaps artifacts
instead.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

import numpy as np

from repro.analysis.annotations import guarded_by, make_lock
from repro.deploy.quantized import QuantizedHDCModel
from repro.engine.executor import Executor, SerialExecutor
from repro.serve.server import ModelServer
from repro.utils.validation import check_positive_int, check_probability


class DriftReport:
    """Outcome of one drift check (truthy when drift was flagged)."""

    def __init__(
        self,
        drifted: bool,
        reason: Optional[str] = None,
        reference: Optional[Dict[str, float]] = None,
        current: Optional[Dict[str, float]] = None,
    ) -> None:
        self.drifted = bool(drifted)
        self.reason = reason
        self.reference = reference
        self.current = current

    def __bool__(self) -> bool:
        return self.drifted

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DriftReport(drifted={self.drifted}, reason={self.reason!r})"


class DriftDetector:
    """Windowed accuracy / score-margin drift detection.

    Parameters
    ----------
    window:
        Observations per window.  The first ``window`` observations after
        a (re)baseline form the frozen reference; the newest ``window``
        observations form the rolling current window.
    min_samples:
        Observations required in the current window before drift can be
        declared (also the floor for the reference window).
    acc_drop:
        Absolute accuracy drop (reference − current) that flags drift.
    margin_shrink:
        Relative mean-margin shrink that flags drift: current mean margin
        below ``(1 − margin_shrink) ×`` reference mean margin.  The margin
        of one observation is ``top1 − top2`` decision score — how
        decisively the model ranked its winner — so a collapse signals the
        inputs moving off the trained manifold even while labels still
        come back right.
    """

    def __init__(
        self,
        window: int = 256,
        min_samples: int = 64,
        acc_drop: float = 0.10,
        margin_shrink: float = 0.35,
    ) -> None:
        self.window = check_positive_int(window, "window")
        self.min_samples = check_positive_int(min_samples, "min_samples")
        if self.min_samples > self.window:
            raise ValueError(
                f"min_samples ({min_samples}) cannot exceed window ({window})"
            )
        self.acc_drop = check_probability(acc_drop, "acc_drop")
        self.margin_shrink = check_probability(margin_shrink, "margin_shrink")
        self._ref_correct: list = []
        self._ref_margins: list = []
        self._recent: Deque[Tuple[bool, float]] = deque(maxlen=self.window)
        self.n_observed = 0

    # -------------------------------------------------------------- feeding

    def observe(self, correct: bool, margin: float) -> None:
        """Record one labeled observation."""
        self.n_observed += 1
        if len(self._ref_correct) < self.window:
            self._ref_correct.append(bool(correct))
            self._ref_margins.append(float(margin))
        self._recent.append((bool(correct), float(margin)))

    def rebaseline(self) -> None:
        """Forget everything; the next observations form a new reference.

        Called after each adaptation so the detector measures drift against
        the *adapted* model's behaviour, not the pre-adaptation one.
        """
        self._ref_correct.clear()
        self._ref_margins.clear()
        self._recent.clear()

    # ------------------------------------------------------------- checking

    def _stats(self, correct: Any, margins: Any) -> Dict[str, float]:
        return {
            "n": float(len(correct)),
            "accuracy": float(np.mean(correct)) if correct else float("nan"),
            "mean_margin": float(np.mean(margins)) if margins else float("nan"),
        }

    def check(self) -> DriftReport:
        """Compare the rolling window against the reference."""
        if (
            len(self._ref_correct) < self.min_samples
            or len(self._recent) < self.min_samples
        ):
            return DriftReport(False, reason="insufficient samples")
        recent_correct = [c for c, _ in self._recent]
        recent_margins = [m for _, m in self._recent]
        reference = self._stats(self._ref_correct, self._ref_margins)
        current = self._stats(recent_correct, recent_margins)
        if current["accuracy"] < reference["accuracy"] - self.acc_drop:
            return DriftReport(True, "accuracy drop", reference, current)
        ref_margin = reference["mean_margin"]
        if (
            ref_margin > 0
            and current["mean_margin"]
            < (1.0 - self.margin_shrink) * ref_margin
        ):
            return DriftReport(True, "margin collapse", reference, current)
        return DriftReport(False, None, reference, current)


@guarded_by(
    "_lock",
    "_feedback_x",
    "_feedback_y",
    "detector",
    "n_adaptations",
    "n_failed_cycles",
)
class OnlineAdapter:
    """Feed labeled feedback to a served model; adapt and hot-swap on drift.

    Parameters
    ----------
    server:
        The :class:`~repro.serve.server.ModelServer` to promote adapted
        versions into.
    base_model:
        The trainable classifier behind the served artifact (must expose
        ``partial_fit``; see ``supports_streaming``).  The adapter owns
        this object: nothing else may train it concurrently.
    detector:
        Drift detector (default: :class:`DriftDetector` defaults).
    executor:
        Engine executor the adaptation cycle runs under, on the adapter's
        background thread.  Must be in-process (serial): adaptation
        mutates the live base classifier, which cannot cross a process
        boundary.
    feedback_buffer:
        Max labeled samples buffered for the next adaptation (newest
        kept).
    min_adapt_samples:
        Feedback samples required before an adaptation can run.
    bits:
        Re-quantization precision for quantized deployments.  ``None``
        auto-detects from the initially served artifact.
    """

    def __init__(
        self,
        server: ModelServer,
        base_model: Any,
        *,
        detector: Optional[DriftDetector] = None,
        executor: Optional[Executor] = None,
        feedback_buffer: int = 1024,
        min_adapt_samples: int = 32,
        bits: Optional[int] = None,
    ) -> None:
        if not callable(getattr(base_model, "partial_fit", None)):
            raise TypeError(
                f"base_model {type(base_model).__name__} does not support "
                "incremental training (no partial_fit)"
            )
        executor = executor if executor is not None else SerialExecutor()
        if executor.n_jobs > 1:
            raise ValueError(
                "adaptation mutates the live base classifier and must run "
                f"in-process; got a {type(executor).__name__} with "
                f"n_jobs={executor.n_jobs} (use SerialExecutor)"
            )
        self.server = server
        self.base_model = base_model
        self.detector = detector if detector is not None else DriftDetector()
        self.executor = executor
        self.feedback_buffer = check_positive_int(
            feedback_buffer, "feedback_buffer"
        )
        self.min_adapt_samples = check_positive_int(
            min_adapt_samples, "min_adapt_samples"
        )
        self._feedback_x: Deque[np.ndarray] = deque(maxlen=self.feedback_buffer)
        self._feedback_y: Deque[int] = deque(maxlen=self.feedback_buffer)
        self._lock = make_lock("OnlineAdapter._lock")
        self._adapting = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.n_adaptations = 0
        self.n_failed_cycles = 0
        self.last_drift: Optional[DriftReport] = None
        self.last_error: Optional[BaseException] = None
        # Publish adaptation health into the server's obs registry (when
        # the server was built with one): cycle/failure counters plus the
        # hot-swap latency distribution, so drift response shows up on
        # the same scrape endpoint as request latency.
        obs = getattr(server, "obs", None)
        if obs is not None:
            reg = obs.registry
            self._m_cycles = reg.counter(
                "repro_adapt_cycles_total", "Completed adaptation cycles."
            )
            self._m_failures = reg.counter(
                "repro_adapt_failures_total", "Failed adaptation cycles."
            )
            self._m_swap_latency = reg.histogram(
                "repro_adapt_swap_seconds",
                "Deploy (hot-swap) latency of adapted artifacts.",
            )
        else:
            self._m_cycles = self._m_failures = self._m_swap_latency = None
        if server.model is base_model:
            # The served object must never be the trainee: partial_fit on
            # it would race live predict batches (the exact hazard the
            # swap protocol exists to prevent).  Promote an immutable
            # snapshot before accepting any feedback.
            import copy

            server.deploy(
                copy.deepcopy(base_model), warm=False,
                source="adapter-snapshot",
            )
        served = server.model
        if bits is None and isinstance(served, QuantizedHDCModel):
            bits = served.bits
        self.bits = bits
        # Packed storage mode propagates onto every promoted artifact,
        # including rebuilds after a standby loss: a served bit-packed
        # artifact re-quantizes *and re-packs* on every promotion, so the
        # caller keeps seeing packed artifacts across hot-swaps.
        self._packed = bool(getattr(served, "packed", False))
        # Double-buffered deploy artifacts for quantized serving: the
        # standby (off rotation, drained) is refresh()ed in place and
        # promoted; the retired artifact becomes the next standby.
        self._standby: Optional[QuantizedHDCModel] = (
            QuantizedHDCModel(base_model, bits=self.bits, packed=self._packed)
            if isinstance(served, QuantizedHDCModel) else None
        )

    # ---------------------------------------------------------------- feedback

    def feedback(
        self,
        x: Any,
        y_true: Any,
        scores: Any = None,
    ) -> Optional[DriftReport]:
        """Record labeled feedback for one sample (or a small block).

        ``scores`` — the per-class decision scores the server returned
        for these rows, if the caller kept them; otherwise they are
        recomputed against the active version (off the batcher, so
        feedback never competes with request traffic for batch slots).

        Returns the drift report when this feedback *triggered* an
        adaptation, else ``None``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        y_true = np.atleast_1d(np.asarray(y_true))
        if y_true.shape[0] != x.shape[0]:
            raise ValueError(
                f"x and y_true disagree on sample count: "
                f"{x.shape[0]} vs {y_true.shape[0]}"
            )
        model = self.server.model
        if scores is None:
            scores = model.decision_scores(x)
        scores = np.asarray(scores, dtype=np.float64)
        classes = np.asarray(model.classes_)
        predicted = classes[np.argmax(scores, axis=1)]
        if scores.shape[1] >= 2:
            part = np.partition(scores, -2, axis=1)
            margins = part[:, -1] - part[:, -2]
        else:  # pragma: no cover - single-class scores are degenerate
            margins = scores[:, -1]
        with self._lock:
            for i in range(x.shape[0]):
                self._feedback_x.append(x[i])
                self._feedback_y.append(y_true[i])
                self.detector.observe(
                    bool(predicted[i] == y_true[i]), float(margins[i])
                )
        return self.maybe_adapt()

    # -------------------------------------------------------------- adaptation

    def maybe_adapt(self) -> Optional[DriftReport]:
        """Run the drift check; schedule a background adaptation on drift."""
        if self._adapting.is_set():
            return None
        with self._lock:
            if len(self._feedback_x) < self.min_adapt_samples:
                return None
            report = self.detector.check()
        if not report:
            return None
        if not self._try_begin():
            return None  # lost the race to a concurrent feedback thread
        self.last_drift = report
        self._launch()
        return report

    def adapt_now(self, wait: bool = True) -> None:
        """Force one adaptation cycle regardless of drift state.

        With ``wait`` the call blocks until the new version is live —
        the deterministic entry point for tests and the load harness.
        """
        with self._lock:
            if not self._feedback_x:
                raise RuntimeError("no buffered feedback to adapt on")
        if not self._try_begin():
            if wait:
                self.join()
            return
        self.last_drift = DriftReport(True, reason="forced")
        self._launch()
        if wait:
            self.join()

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for an in-progress adaptation to finish."""
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)

    def _try_begin(self) -> bool:
        """Claim the single adaptation slot (test-and-set under the lock).

        An unlocked ``_adapting.is_set()`` check followed by ``set()``
        would let two feedback threads both observe "idle" and launch
        overlapping cycles — two concurrent ``partial_fit`` writers on
        the same base model, which the memory's locking contract forbids.
        """
        with self._lock:
            if self._adapting.is_set():
                return False
            self._adapting.set()
            return True

    def _launch(self) -> None:
        """Spawn the cycle thread; the caller must hold the slot
        (:meth:`_try_begin`)."""
        previous = self._thread
        if previous is not None and previous.is_alive():
            # The prior cycle has cleared _adapting and is in its final
            # instructions; reap it so join() tracks one live thread.
            previous.join(timeout=5.0)
        self._thread = threading.Thread(
            target=self._run_cycle, name="repro-online-adapter", daemon=True
        )
        self._thread.start()

    def _run_cycle(self) -> None:
        try:
            # One adaptation is one executor task: the seam future
            # multi-worker serving schedules through.
            self.executor.map(self._adapt_task, [None])
        except BaseException as exc:  # noqa: BLE001 - background thread
            # A daemon thread's traceback is easy to miss; record the
            # failure so stats()/callers can see the cycle died (the
            # drained feedback was re-buffered by _adapt_task), and file
            # a structured problem event on the server's metrics sink so
            # silent adaptation failures reach the stats() surface.
            self.last_error = exc
            with self._lock:
                self.n_failed_cycles += 1
            if self._m_failures is not None:
                self._m_failures.inc()
            self.server.metrics.record_problem(
                "adaptation-failure", repr(exc)
            )
        finally:
            self._adapting.clear()

    def _adapt_task(self, _: Any = None) -> None:
        with self._lock:
            if not self._feedback_x:
                return  # drained by a cycle that raced our launch
            X = np.vstack(list(self._feedback_x))
            y = np.asarray(list(self._feedback_y))
            self._feedback_x.clear()
            self._feedback_y.clear()
        try:
            self._promote(X, y)
        except BaseException:
            # Don't lose the drained feedback with the failed cycle.  The
            # drained rows are *older* than anything that arrived during
            # the cycle, so they go in first and the fresh rows re-append
            # behind them — on ring overflow the newest samples win.
            with self._lock:
                fresh = list(zip(self._feedback_x, self._feedback_y))
                self._feedback_x.clear()
                self._feedback_y.clear()
                for row, label in [*zip(X, y), *fresh]:
                    self._feedback_x.append(row)
                    self._feedback_y.append(label)
            raise

    def _promote(self, X: np.ndarray, y: np.ndarray) -> None:
        self.base_model.partial_fit(X, y)
        artifact = self._next_artifact()
        retired = self.server.active_version
        retired_artifact = retired.model
        swap_start = time.perf_counter()
        self.server.deploy(artifact, warm=True, source="online-adapter")
        if self._m_swap_latency is not None:
            self._m_swap_latency.observe(time.perf_counter() - swap_start)
        if self._standby is not None:
            # The retired artifact becomes the next standby once no
            # in-flight batch still reads it — but only when it actually
            # re-quantizes from our base classifier (a v1 served from a
            # disk archive wraps a static LoadedHDCModel and would
            # refresh() back to stale state).  A version that failed to
            # drain is never reused: refreshing it could tear a batch
            # still scoring against it.
            drained = self.server.wait_drained(retired, timeout=30.0)
            self._standby = (
                retired_artifact
                if drained
                and isinstance(retired_artifact, QuantizedHDCModel)
                and retired_artifact.classifier is self.base_model
                else None
            )
        with self._lock:
            self.detector.rebaseline()
            self.n_adaptations += 1
        if self._m_cycles is not None:
            self._m_cycles.inc()

    def _next_artifact(self) -> Any:
        """The v(N+1) deploy artifact for the adapted base classifier."""
        if self._standby is not None:
            return self._standby.refresh()
        if self.bits is not None:
            return QuantizedHDCModel(
                self.base_model, bits=self.bits, packed=self._packed,
            )
        # Raw serving: snapshot the adapted learner so the served object
        # is never trained in place.
        import copy

        return copy.deepcopy(self.base_model)

    # ------------------------------------------------------------------ stats

    def stats(self) -> Dict[str, object]:
        # Everything the adaptation cycle writes is read under the lock:
        # the pre-lint revision read n_adaptations and the detector
        # outside it, racing _promote's rebaseline/bump (the unguarded
        # accesses `repro lint` flagged on this tree).
        with self._lock:
            buffered = len(self._feedback_x)
            n_adaptations = self.n_adaptations
            n_failed_cycles = self.n_failed_cycles
            observed = self.detector.n_observed
        return {
            "n_adaptations": n_adaptations,
            "n_failed_cycles": n_failed_cycles,
            "adapting": self._adapting.is_set(),
            "buffered_feedback": buffered,
            "observed": observed,
            "last_drift_reason": (
                self.last_drift.reason if self.last_drift else None
            ),
            "last_error": repr(self.last_error) if self.last_error else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OnlineAdapter(n_adaptations={self.n_adaptations}, "
            f"bits={self.bits})"
        )

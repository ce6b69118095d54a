"""Callback protocol for the training engine.

The engine drives the iteration schedule; everything cross-cutting a fit
used to hand-roll — history recording, convergence tracking, wall-clock
timing, periodic checkpoints — is a :class:`Callback` observing the loop.

Callbacks see an :class:`EngineState`, the single mutable record of a run.
Setting ``state.stop = True`` ends training after the current iteration
(that is how :class:`ConvergenceCallback` implements early stopping).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.convergence import ConvergenceTracker
from repro.core.history import IterationRecord, TrainingHistory


@dataclass
class EngineState:
    """Mutable run record shared by the engine and its callbacks.

    Attributes
    ----------
    max_iterations:
        The iteration budget of this run.
    iteration:
        Zero-based index of the iteration currently executing.
    n_iterations:
        Iterations fully completed so far (``iteration + 1`` after a step).
    converged:
        Set by :class:`ConvergenceCallback` once the monitored metric
        plateaus.  Step functions read it (via the iteration context) to
        gate work that is pointless on a converged model (regeneration).
    stop:
        Any callback may set this; the engine ends the run after the
        current iteration's callbacks finish.
    failed:
        Set by the engine when the run is ending because a step or
        callback raised.  ``on_fit_end`` still fires so teardown can
        release resources, but snapshot-style callbacks must not treat
        the (possibly half-mutated) model state as a completed iteration.
    history:
        The run's :class:`~repro.core.history.TrainingHistory` when a
        :class:`HistoryCallback` is attached, else ``None``.
    iteration_seconds:
        Per-iteration wall-clock seconds when a :class:`TimingCallback`
        is attached.
    """

    max_iterations: int = 0
    iteration: int = 0
    n_iterations: int = 0
    converged: bool = False
    stop: bool = False
    failed: bool = False
    history: Optional[TrainingHistory] = None
    iteration_seconds: List[float] = field(default_factory=list)


class Callback:
    """Base class: all hooks are no-ops, subclasses override what they need."""

    def on_fit_begin(self, state: EngineState) -> None:
        """Called once before the first iteration."""

    def on_iteration_begin(self, state: EngineState) -> None:
        """Called before each iteration's step function runs."""

    def on_iteration_end(self, state: EngineState, record: IterationRecord) -> None:
        """Called after each iteration with the step's metric record."""

    def on_fit_end(self, state: EngineState) -> None:
        """Called once after the loop ends (exhausted or stopped)."""


class HistoryCallback(Callback):
    """Record every :class:`IterationRecord` into a ``TrainingHistory``.

    Pass an existing history to append to it (the models pass the fresh
    ``history_`` they expose as a fitted attribute); otherwise one is
    created at fit begin and published on ``state.history``.
    """

    def __init__(self, history: Optional[TrainingHistory] = None) -> None:
        self.history = history

    def on_fit_begin(self, state: EngineState) -> None:
        if self.history is None:
            self.history = TrainingHistory()
        state.history = self.history

    def on_iteration_end(self, state: EngineState, record: IterationRecord) -> None:
        self.history.append(record)


class ConvergenceCallback(Callback):
    """Patience-based early stopping on per-iteration training accuracy.

    Wraps a :class:`~repro.core.convergence.ConvergenceTracker`; once the
    tracked accuracy plateaus, sets both ``state.converged`` and
    ``state.stop``.  ``patience=None`` disables early stopping (the
    tracker never converges), matching the models' historical contract.
    """

    def __init__(self, patience: Optional[int] = 5, tol: float = 1e-3) -> None:
        self.tracker = ConvergenceTracker(patience, tol)

    def on_fit_begin(self, state: EngineState) -> None:
        self.tracker.reset()

    def on_iteration_end(self, state: EngineState, record: IterationRecord) -> None:
        if self.tracker.update(record.train_accuracy):
            state.converged = True
            state.stop = True


class TimingCallback(Callback):
    """Record per-iteration wall-clock seconds on ``state.iteration_seconds``."""

    def __init__(self) -> None:
        self._started: Optional[float] = None

    def on_iteration_begin(self, state: EngineState) -> None:
        self._started = time.perf_counter()

    def on_iteration_end(self, state: EngineState, record: IterationRecord) -> None:
        if self._started is not None:
            state.iteration_seconds.append(time.perf_counter() - self._started)
            self._started = None


class CheckpointCallback(Callback):
    """Call ``snapshot()`` every ``every`` iterations (and at fit end).

    ``snapshot`` is any zero-argument callable returning a picklable or
    copyable view of the model (the HDC models pass
    ``memory_.numpy_vectors().copy``); captured snapshots are kept on
    :attr:`checkpoints` as ``(iteration, snapshot)`` pairs.  No final
    snapshot is taken when the run ends on an exception (``state.failed``)
    — the model may hold half-applied mutations.
    """

    def __init__(self, snapshot: Callable[[], object], every: int = 1) -> None:
        if every <= 0:
            raise ValueError(f"every must be positive, got {every}")
        self.snapshot = snapshot
        self.every = int(every)
        self.checkpoints: List[tuple] = []

    def on_iteration_end(self, state: EngineState, record: IterationRecord) -> None:
        if state.n_iterations % self.every == 0:
            self.checkpoints.append((state.iteration, self.snapshot()))

    def on_fit_end(self, state: EngineState) -> None:
        if state.failed:
            # The model may hold half-applied mutations from the raising
            # iteration; snapshotting them as the "last completed"
            # iteration would hand restore paths corrupt state.
            return
        last = self.checkpoints[-1][0] if self.checkpoints else None
        if state.n_iterations and last != state.n_iterations - 1:
            self.checkpoints.append((state.n_iterations - 1, self.snapshot()))

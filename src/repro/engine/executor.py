"""Executor abstraction: where parallel work runs.

Everything in the library that fans independent work units out — sharded
fitting, grid-search candidates, cross-validation folds — goes through an
:class:`Executor` so the call sites never touch ``multiprocessing``
directly:

- :class:`SerialExecutor` runs tasks in-process, in order (the reference
  semantics every parallel path must reproduce);
- :class:`ProcessExecutor` fans tasks across a ``ProcessPoolExecutor``
  worker pool, preserving input order in the results.

``n_jobs`` follows the sklearn/joblib convention: ``None``/``1`` mean
serial, ``-1`` means one worker per visible core, any other positive
integer is an explicit worker count.  Tasks and their arguments must be
picklable to cross a process boundary; :func:`get_executor` therefore
falls back to serial execution when asked for workers the platform cannot
deliver (``n_jobs`` resolving to 1).
"""

from __future__ import annotations

import abc
import ctypes
import functools
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Sequence, TypeVar

import numpy as np

from repro.utils.validation import check_n_jobs

T = TypeVar("T")
R = TypeVar("R")


def _visible_cores() -> int:
    """Cores this process may schedule on (affinity-aware where possible)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


#: Exported thread-count setters of the OpenBLAS builds numpy and scipy
#: load: the plain name, its 64-bit-integer (ILP64) variant, and the
#: prefixed copies bundled in the ``scipy-openblas`` wheels.
_OPENBLAS_SET_THREADS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)

#: OpenBLAS's own thread-pool teardown, the function it runs before a
#: ``fork``; the prefixed ``scipy-openblas`` builds export it unprefixed.
_OPENBLAS_SHUTDOWN = "blas_thread_shutdown_"


def pin_blas_threads() -> bool:
    """Set every OpenBLAS loaded in this process to one thread.

    The libraries are found by path in ``/proc/self/maps`` and set through
    their exported ``*set_num_threads*`` entry point via ``ctypes``.
    Processes that parallelise by forking call this at start-up, before
    they run BLAS on more than one thread: a forked child inherits
    OpenBLAS's thread count and rebuilds its thread pool, which spins on
    multi-row GEMMs and competes with the sibling processes for the same
    cores.  The setter itself rebuilds the pool, and a new pool thread
    spins for about 0.1 s of a core before it parks, so the pool is shut
    down again right after: at one thread OpenBLAS never uses it.
    Returns True when at least one library was set, and is a no-op
    returning False where there is no ``/proc`` or no OpenBLAS is loaded.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                fields[5].strip()
                for fields in (line.split(None, 5) for line in maps)
                if len(fields) == 6 and "openblas" in fields[5].lower()
            }
    except OSError:
        return False
    pinned = False
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SET_THREADS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                shutdown = getattr(library, _OPENBLAS_SHUTDOWN, None)
                if shutdown is not None:
                    shutdown.argtypes = []
                    shutdown.restype = ctypes.c_int
                    shutdown()
                pinned = True
                break
    return pinned


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Resolve an ``n_jobs`` spec to an actual worker count (>= 1).

    ``None`` → 1 (serial), ``-1`` → all visible cores, positive integers
    pass through.  Worker counts beyond the visible cores are honoured as
    requested — oversubscription is occasionally useful (I/O-bound tasks)
    and harmless for determinism.
    """
    n_jobs = check_n_jobs(n_jobs)
    if n_jobs is None:
        return 1
    if n_jobs == -1:
        return _visible_cores()
    return int(n_jobs)


def is_picklable(obj: Any) -> bool:
    """Whether ``obj`` survives pickling (process-pool transport check)."""
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def _fn_probably_picklable(fn: Any) -> bool:
    """Cheap transport probe for the map function.

    ``functools.partial`` objects (how grid search and cross-validation
    bind their shared data arrays) are probed piecewise — the wrapped
    callable plus every bound argument — skipping non-object ndarrays:
    those always pickle, and serializing a full training set just to
    prove it would cost the extra data pass the partial exists to avoid.
    Anything this heuristic lets through that still fails to pickle is
    caught by :func:`executor_map`'s mid-run fallback.
    """
    if isinstance(fn, functools.partial):
        return _fn_probably_picklable(fn.func) and all(
            (isinstance(arg, np.ndarray) and arg.dtype != object)
            or is_picklable(arg)
            for arg in (*fn.args, *fn.keywords.values())
        )
    return is_picklable(fn)


class Executor(abc.ABC):
    """Minimal executor protocol: ordered ``map`` plus lifecycle hooks."""

    #: Worker count this executor was built for (1 for serial).
    n_jobs: int = 1

    @abc.abstractmethod
    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item; results in input order."""

    def close(self) -> None:
        """Release worker resources (no-op for serial)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process, in-order execution — the reference semantics."""

    n_jobs = 1

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        return [fn(item) for item in items]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


class ProcessExecutor(Executor):
    """Process-pool execution over ``n_jobs`` workers.

    The pool is created lazily on first :meth:`map` and reused until
    :meth:`close` (or context-manager exit).  ``fn`` and every item must
    be picklable; chunked submission keeps per-task IPC overhead small
    when there are many more items than workers.
    """

    def __init__(self, n_jobs: int) -> None:
        n_jobs = resolve_n_jobs(n_jobs)
        if n_jobs < 2:
            raise ValueError(
                f"ProcessExecutor needs at least 2 workers, got {n_jobs}; "
                "use SerialExecutor (or get_executor) for serial runs"
            )
        self.n_jobs = n_jobs
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.n_jobs)
        return self._pool

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        if not items:
            return []
        chunksize = max(1, len(items) // (self.n_jobs * 4))
        return list(self._ensure_pool().map(fn, items, chunksize=chunksize))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessExecutor(n_jobs={self.n_jobs})"


def get_executor(
    n_jobs: Optional[int] = None, *, executor: Optional[Executor] = None
) -> Executor:
    """Build the executor for an ``n_jobs`` spec.

    An explicit ``executor`` wins (callers thread one through to reuse a
    warm pool); otherwise ``n_jobs`` resolving to 1 gives a
    :class:`SerialExecutor` and anything larger a :class:`ProcessExecutor`.
    """
    if executor is not None:
        return executor
    resolved = resolve_n_jobs(n_jobs)
    return SerialExecutor() if resolved < 2 else ProcessExecutor(resolved)


def executor_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    n_jobs: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> List[R]:
    """One-shot ordered map under an executor.

    Convenience wrapper used by grid search and cross-validation: builds
    the executor for ``n_jobs``, runs the map, and tears the pool down
    (unless the caller supplied a long-lived ``executor``).  Falls back to
    serial execution when ``fn`` or the items cannot cross a process
    boundary (unpicklable closures), so parallel knobs never change which
    inputs are accepted — probed cheaply up front on the first item, and
    if a *later* item of a heterogeneous list fails to pickle mid-run the
    whole batch is rerun serially.  The rerun re-executes tasks that
    already completed in workers (they cannot have mutated driver state,
    but external side effects would repeat), so tasks must be pure or
    idempotent — everything this library dispatches is.
    """
    own = executor is None
    pool = get_executor(n_jobs, executor=executor)
    # Probe fn plus one representative item only: call sites pass
    # homogeneous task tuples, and pickling every item here would
    # serialise the (potentially large) shared arrays once per task
    # before the pool serialises them again.
    if pool.n_jobs > 1 and not (
        _fn_probably_picklable(fn) and (not items or is_picklable(items[0]))
    ):
        if own:
            pool.close()
        pool = SerialExecutor()
        own = False
    try:
        try:
            return pool.map(fn, items)
        except (pickle.PicklingError, TypeError, AttributeError):
            # Unpicklable objects surface as any of these three depending
            # on the object; only fall back when the transport genuinely
            # failed (fn or a later item of a heterogeneous list slipped
            # past the cheap probes) — errors raised by the tasks
            # themselves must propagate.  The full-fidelity re-probe is
            # fine here: this is a rare error path.
            if pool.n_jobs <= 1 or (
                is_picklable(fn) and all(is_picklable(item) for item in items)
            ):
                raise
            return SerialExecutor().map(fn, items)
    finally:
        if own:
            pool.close()

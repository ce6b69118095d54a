"""The ``train`` workload: warm ``DistHDClassifier.fit`` calls, back to back.

One request is one fit at the regen-heavy point, from a single caller, so
``rps`` is fits per second and the ungated ``p50_ms``, ``solo_p50_ms``
and ``p99_ms`` are fit latencies.  No serving layer runs.

The traced run wraps the entry points ``repro.core.disthd`` calls, for
the traced fits only, and removes the wrappers afterwards.  Each wrapper
keeps its layer's self time: its own duration minus that of the wrapped
calls nested inside it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from typing import Dict, Iterator, List, Tuple

from closedloop import ceiling_rps
from common import (
    LOADED_WINDOW,
    N_SETUPS,
    Outcome,
    inputs_sha256,
    load_inputs,
    median,
    nearest_rank,
    new_classifier,
    peak_rss_mb,
)

#: A fit below this held-out accuracy is broken, not slow (5 classes;
#: this operating point scores about 0.885 across model seeds).
MIN_TEST_ACC = 0.75
#: Largest share of a traced fit the wrapped entry points may leave
#: uncovered before the per-layer table stops describing the fit.  It is
#: reported, not enforced: work moved out of the wrapped calls is a change
#: to show, not a wrong output.
UNATTRIBUTED_TOLERANCE = 0.02

#: Layer names, in the order the table prints them.
LAYERS = (
    "encoders.encode",
    "encoders.encode_dims",
    "adaptive.fit_iteration",
    "topk.partition",
    "backend.set_columns",
    "regeneration.step",
    "memory.bundle",
    "engine.self",
)


class LayerClock:
    """Self time per layer for nested wrapped calls, kept in memory."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.covered_s = 0.0  # time inside outermost wrapped calls
        self._child_s: List[float] = []

    def wrap(self, layer: str, fn):
        @wraps(fn)
        def timed(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = self._child_s.pop()
                self.self_s[layer] += duration - children
                self.calls[layer] += 1
                if self._child_s:
                    self._child_s[-1] += duration
                else:
                    self.covered_s += duration

        return timed


def _defining_class(cls: type, name: str) -> type:
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {name}")


def _entry_points(clf) -> List[Tuple[object, str, str]]:
    """``(owner, attribute, layer)`` for each call ``_fit`` makes into a
    layer."""
    import repro.core.disthd as disthd
    from repro.backend import get_backend
    from repro.engine.training import TrainingEngine
    from repro.hdc.memory import AssociativeMemory

    encoder = type(clf.encoder_)
    backend = type(get_backend(clf.config.backend))
    return [
        (_defining_class(encoder, "encode"), "encode", "encoders.encode"),
        (_defining_class(encoder, "encode_dims"), "encode_dims",
         "encoders.encode_dims"),
        (disthd, "adaptive_fit_iteration", "adaptive.fit_iteration"),
        (disthd, "partition_outcomes", "topk.partition"),
        (disthd, "regenerate_step", "regeneration.step"),
        (_defining_class(backend, "set_columns"), "set_columns",
         "backend.set_columns"),
        (AssociativeMemory, "accumulate", "memory.bundle"),
        (AssociativeMemory, "bundle_columns", "memory.bundle"),
        (TrainingEngine, "run", "engine.self"),
    ]


@contextmanager
def wrapped(
    points: List[Tuple[object, str, str]], clock: LayerClock
) -> Iterator[None]:
    """Install ``clock``'s wrappers at ``points``; restore the originals."""
    originals = [(owner, name, vars(owner)[name]) for owner, name, _ in points]
    try:
        for owner, name, layer in points:
            setattr(owner, name, clock.wrap(layer, vars(owner)[name]))
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
        for owner, name, original in originals:
            if vars(owner)[name] is not original:
                raise RuntimeError(f"could not restore {owner}.{name}")


def _timed_fit(data, seed: int):
    clf = new_classifier(seed)
    start = time.perf_counter()
    clf.fit(data.train_x, data.train_y)
    return time.perf_counter() - start, clf


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    setups: List[float] = []
    for _ in range(1 if trace else N_SETUPS):
        start = time.perf_counter()
        data = load_inputs()
        warm = new_classifier(seed).fit(data.train_x, data.train_y)
        setups.append(time.perf_counter() - start)
    out.lines.append(f"inputs sha256 {inputs_sha256(data)}")

    # A traced run alternates untraced and traced fits, so both see the
    # same machine and their ratio is the tracing cost.
    points = _entry_points(warm) if trace else []
    fits: List[float] = []
    traced: List[Tuple[float, LayerClock]] = []
    begin = time.perf_counter()
    while not fits or time.perf_counter() < begin + seconds:
        duration, clf = _timed_fit(data, seed)
        fits.append(duration)
        if trace:
            clock = LayerClock()
            with wrapped(points, clock):
                duration, traced_clf = _timed_fit(data, seed)
            traced.append((duration, clock))
    wall = time.perf_counter() - begin
    out.attempted = len(fits) + len(traced)

    acc = float(clf.score(data.test_x, data.test_y))
    regenerated = clf.history_.total_regenerated
    out.check(
        "deterministic fit",
        regenerated == warm.history_.total_regenerated
        and acc == float(warm.score(data.test_x, data.test_y)),
        "warm-up and timed fits at one seed must agree",
    )
    out.check(
        "accuracy floor", acc >= MIN_TEST_ACC,
        f"held-out accuracy {acc:.4f} (floor {MIN_TEST_ACC})",
    )
    out.lines.append(
        f"fits {len(fits)} untraced, {len(traced)} traced; regenerated "
        f"dims/fit {regenerated}; test rows {len(data.test_y)}"
    )
    latency_ms = {
        "p50_ms": 1e3 * median(fits),
        "solo_p50_ms": 1e3 * median(fits),
        "p99_ms": 1e3 * nearest_rank(fits, 99),
    }
    if not trace:
        out.metric("setup_s", median(setups), "s")
        out.metric("fit_s", median(fits), "s")
        out.metric("test_acc", acc, "frac")
        out.metric("rps", len(fits) / wall, "1/s")
        out.metric("ok_frac", len(fits) / out.attempted, "frac")
        out.metric("rss_mb", peak_rss_mb(), "MB")
        out.lines.append(
            "ungated (per-layer) fit latencies: "
            + ", ".join(f"{k} {v!r}" for k, v in latency_ms.items())
        )
        out.lines.append(
            f"samples: fit_s and latencies n={len(fits)}; "
            f"setup_s n={len(setups)}"
        )
        return out

    out.check(
        "traced fit matches",
        traced_clf.history_.total_regenerated == regenerated,
        "timing wrappers must not change the arithmetic",
    )
    traced_fit = median([d for d, _ in traced])
    per_layer = {
        layer: median([c.self_s.get(layer, 0.0) for _, c in traced])
        for layer in LAYERS
    }
    unattributed = median([(d - c.covered_s) / d for d, c in traced])
    for layer in LAYERS:
        out.metric(f"{layer}_s", per_layer[layer], "s")
    out.metric("regeneration.dims", regenerated, "count")
    for name, value in latency_ms.items():
        out.metric(name, value, "ms")
    out.metric("client.ceiling_rps", ceiling_rps(0.5, LOADED_WINDOW), "1/s")
    out.metric("unattributed_frac", unattributed, "frac")
    out.metric("trace_overhead", traced_fit / median(fits), "ratio")

    calls = traced[-1][1].calls
    out.lines.append(
        f"per-layer self time per fit, train: median of {len(traced)} "
        f"traced fits of {traced_fit:.4f} s (untraced {median(fits):.4f} s)"
    )
    out.lines.append(f"  {'layer':<26}{'self_s':>10}{'calls':>8}{'share':>8}")
    for layer in LAYERS:
        out.lines.append(
            f"  {layer:<26}{per_layer[layer]:>10.4f}{calls[layer]:>8}"
            f"{per_layer[layer] / traced_fit:>8.1%}"
        )
    out.lines.append(
        f"  {'unattributed':<26}{'':>10}{'':>8}{unattributed:>8.1%}"
        f"  ({'within' if unattributed <= UNATTRIBUTED_TOLERANCE else 'OVER'}"
        f" the {UNATTRIBUTED_TOLERANCE:.0%} tolerance)"
    )
    return out

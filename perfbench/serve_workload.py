"""The ``serve`` and ``fleet`` workloads: single-row predicts under load.

Both train the regen-heavy model, freeze it into a packed 1-bit
``QuantizedHDCModel`` and send the held-out rows, one row per request,
through the closed-loop generator in two phases:

- ``solo``: 1 request in flight (the batcher's idle-flush regime);
- ``loaded``: 32 in flight (its coalescing regime; for the fleet, 32 is
  its admission capacity of 2 workers x queue depth 16).

The phases alternate over several rounds, so each samples the whole run,
and the loaded figures are medians over the rounds.  ``serve`` goes
through ``ModelServer`` with default batching and, at fixed request
indices of each loaded round, hot-swaps in an identically built artifact
with ``deploy()``.  ``fleet`` goes through ``FleetServer(n_workers=2)``
with no service floor.

The traced run keeps an untraced server and one built with
``Observability(sample_rate=1.0)`` open side by side and alternates
rounds between them (ABBA), so both see the same machine.  It joins the
program's spans (``serve``/``batch``/``encode``/``score`` or
``dispatch``/``worker``/``encode``/``score``) with the generator's own
per-request times into a per-request ledger.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from closedloop import PhaseResult, ceiling_rps, drive
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
    process_peak_rss_mb,
)

#: Rounds of ``solo`` then ``loaded`` per run (fewer when a round would
#: be shorter than a second), and the share of each round spent in
#: ``solo``.  ``rps``, ``p99_ms`` and ``trace_overhead`` are medians over
#: the rounds, so stalls of a shared machine that hit a minority of
#: rounds do not set a run's figure.
ROUNDS = 10
SOLO_SHARE = 0.25
#: ``serve`` deploys the other artifact before each loaded-round request
#: whose index within the round is a multiple of this, the first
#: included, so every round swaps at least once at any throughput.
SWAP_EVERY = 2000
WARMUP_REQUESTS = 512
N_WORKERS = 2
#: Tracer ring size: large enough to keep every span of a traced run.
MAX_SPANS = 1 << 21


class Rig:
    """What one set-up builds: inputs, artifacts and the request stream."""

    def __init__(self, seed: int) -> None:
        from repro.deploy import QuantizedHDCModel

        self.data = load_inputs()
        clf = new_classifier(seed)
        start = time.perf_counter()
        clf.fit(self.data.train_x, self.data.train_y)
        self.fit_s = time.perf_counter() - start
        self.artifacts = tuple(
            QuantizedHDCModel(clf, bits=1, packed=True) for _ in range(2)
        )
        order = np.random.default_rng(seed).permutation(len(self.data.test_y))
        self.rows = self.data.test_x[order]
        self.truth = self.data.test_y[order]
        self.expected = self.artifacts[0].predict(self.rows)


def _open(kind: str, rig: Rig, obs=None):
    """Start the server on the first artifact and warm it up; the warm-up
    requests are part of set-up.  Returns ``(server, warm-up result)``."""
    if kind == "serve":
        from repro.serve import ModelServer

        server = ModelServer(rig.artifacts[0], obs=obs)
    else:
        from repro.serve.fleet import FleetServer

        # Forked workers inherit unflushed output buffers and would print
        # them again when they exit.
        sys.stdout.flush()
        sys.stderr.flush()
        server = FleetServer(rig.artifacts[0], n_workers=N_WORKERS, obs=obs)
    try:
        warm = drive(
            server.submit_predict, rig.rows, window=LOADED_WINDOW,
            n_requests=WARMUP_REQUESTS, expected=rig.expected,
        )
        drive(
            server.submit_predict, rig.rows, window=1,
            n_requests=WARMUP_REQUESTS // 8, expected=rig.expected, into=warm,
        )
    except BaseException:
        server.close()
        raise
    return server, warm


class Swapper:
    """Hot-swap between two identically built artifacts at fixed indices
    of each round; ``first`` is the round's first request index."""

    def __init__(self, server, artifacts: Sequence) -> None:
        self.server = server
        self.artifacts = artifacts
        self.active = 0
        self.first = 0
        self.deploy_s: List[float] = []

    def __call__(self, index: int) -> None:
        if (index - self.first) % SWAP_EVERY:
            return
        self.active ^= 1
        start = time.perf_counter()
        self.server.deploy(self.artifacts[self.active])
        self.deploy_s.append(time.perf_counter() - start)


class Measurement:
    """Both phases on one server, round by round, and its hot-swaps."""

    def __init__(self, kind: str, server, rig: Rig, tracer=None) -> None:
        if tracer is None:
            self.submit = server.submit_predict
        else:
            def submit(row, ctx):
                return server.submit_predict(row, ctx=ctx)

            self.submit = submit
        self.rig = rig
        self.tracer = tracer
        self.solo = PhaseResult()
        self.loaded = PhaseResult()
        self.swapper = (
            Swapper(server, rig.artifacts) if kind == "serve" else None
        )

    def round(self, seconds: float) -> None:
        """One ``solo`` then one ``loaded`` round, ``seconds`` in all."""
        rig = self.rig
        drive(
            self.submit, rig.rows, window=1,
            seconds=seconds * SOLO_SHARE, expected=rig.expected,
            tracer=self.tracer, into=self.solo,
        )
        if self.swapper is not None:
            self.swapper.first = self.loaded.attempted
        drive(
            self.submit, rig.rows, window=LOADED_WINDOW,
            seconds=seconds * (1.0 - SOLO_SHARE),
            expected=rig.expected, tracer=self.tracer,
            before_submit=self.swapper, into=self.loaded,
        )

    @property
    def rps(self) -> float:
        return median(self.loaded.round_rps())

    def latency_ms(self) -> Dict[str, float]:
        """The ungated latencies: ``loaded`` p50 over all its replies and
        the median of each round's p99, and ``solo`` p50.  A run with no
        successful reply in a phase fails its checks; 0 keeps the report
        printable."""
        def p50(phase: PhaseResult) -> float:
            if not phase.succeeded:
                return 0.0
            return nearest_rank(phase.latency_s, 50)

        p99s = [nearest_rank(r, 99) for r in self.loaded.round_latencies()]
        return {
            "p50_ms": 1e3 * p50(self.loaded),
            "solo_p50_ms": 1e3 * p50(self.solo),
            "p99_ms": 1e3 * median(p99s) if p99s else 0.0,
        }

    def check(self, out: Outcome, label: str, server, rig: Rig) -> None:
        for name, phase in (("solo", self.solo), ("loaded", self.loaded)):
            out.attempted += phase.attempted
            out.failed += phase.failed
            out.check(
                f"{label}{name}: every reply equals the artifact's predict",
                phase.failed == 0 and phase.mismatched == 0,
                f"{phase.succeeded}/{phase.attempted} ok, "
                f"{phase.mismatched} mismatched, errors {phase.errors}",
            )
        if self.swapper is not None:
            out.check(
                f"{label}hot-swaps ran and the last deployed artifact is "
                "active",
                len(self.swapper.deploy_s) > 0
                and server.model is rig.artifacts[self.swapper.active],
                f"{len(self.swapper.deploy_s)} swaps",
            )


def _check_warm(out: Outcome, label: str, warm: PhaseResult) -> None:
    out.check(
        f"{label}: warm-up replies equal the artifact's predict",
        warm.failed == 0,
        f"{warm.attempted} requests, errors {warm.errors}",
    )


def run(kind: str, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    setups: List[float] = []
    fits: List[float] = []
    server = traced_server = None
    try:
        for i in range(1 if trace else N_SETUPS):
            if server is not None:
                server.close()
                server = None
            start = time.perf_counter()
            rig = Rig(seed)
            server, warm = _open(kind, rig)
            setups.append(time.perf_counter() - start)
            fits.append(rig.fit_s)
            _check_warm(out, f"set-up {i + 1}", warm)
        out.check(
            "the two artifacts predict alike",
            np.array_equal(rig.artifacts[1].predict(rig.rows), rig.expected),
            "the swap target must serve the same labels",
        )
        out.lines.append(f"inputs sha256 {inputs_sha256(rig.data)}")

        rounds = max(1, min(ROUNDS, int(seconds)))
        plain = Measurement(kind, server, rig)
        if not trace:
            for _ in range(rounds):
                plain.round(seconds / rounds)
            plain.check(out, "", server, rig)
            rss = peak_rss_mb()
            if kind == "fleet":
                for pid in server.worker_pids():
                    rss += process_peak_rss_mb(pid) or 0.0
            _report_e2e(out, rig, setups, fits, plain, rss)
            return out

        from repro.obs import Observability

        obs = Observability(sample_rate=1.0, max_spans=MAX_SPANS)
        traced_server, warm = _open(kind, rig, obs=obs)
        _check_warm(out, "traced set-up", warm)
        traced = Measurement(kind, traced_server, rig, tracer=obs.tracer)
        # ABBA: the untraced server goes first in even rounds and second
        # in odd ones, so slow drift of the machine cancels in the ratio.
        for i in range(rounds):
            pair = (plain, traced) if i % 2 == 0 else (traced, plain)
            for measurement in pair:
                measurement.round(seconds / rounds / 2)
        plain.check(out, "", server, rig)
        traced.check(out, "traced ", traced_server, rig)
        stats = traced_server.stats()
        spans = obs.tracer.finished()
    finally:
        for opened in (server, traced_server):
            if opened is not None:
                opened.close()
    _report_layers(out, kind, plain, traced, stats, spans)
    return out


def _report_e2e(out: Outcome, rig: Rig, setups, fits, m: Measurement,
                rss: float) -> None:
    served = np.concatenate([
        np.asarray(phase.indices, dtype=np.int64) % len(rig.truth)
        for phase in (m.solo, m.loaded)
    ])
    acc = float(np.mean(rig.expected[served] == rig.truth[served]))
    attempted = m.solo.attempted + m.loaded.attempted
    out.metric("setup_s", median(setups), "s")
    out.metric("fit_s", median(fits), "s")
    out.metric("test_acc", acc, "frac")
    out.metric("rps", m.rps, "1/s")
    out.metric(
        "ok_frac", (m.solo.succeeded + m.loaded.succeeded) / attempted, "frac"
    )
    out.metric("rss_mb", rss, "MB")
    out.lines.append(
        "ungated (per-layer) latencies: "
        + ", ".join(f"{k} {v!r}" for k, v in m.latency_ms().items())
    )
    out.lines.append(
        f"samples: p50_ms n={m.loaded.succeeded}; rps, p99_ms medians over "
        f"{len(m.loaded.rounds)} rounds; solo_p50_ms n={m.solo.succeeded}; "
        f"fit_s, setup_s n={len(setups)}; test_acc over {len(served)} "
        f"served replies"
    )
    out.lines.append(
        "loaded rps per round: "
        + " ".join(f"{rate:.0f}" for rate in m.loaded.round_rps())
    )
    if m.swapper is not None:
        out.lines.append(
            f"hot-swaps {len(m.swapper.deploy_s)}, deploy median "
            f"{1e3 * median(m.swapper.deploy_s):.3f} ms"
        )


def _report_layers(out: Outcome, kind: str, plain: Measurement,
                   traced: Measurement, stats, spans) -> None:
    build = _serve_ledger if kind == "serve" else _fleet_ledger
    ledgers = {
        name: build(phase, spans)
        for name, phase in (("solo", traced.solo), ("loaded", traced.loaded))
    }
    for name, ledger in ledgers.items():
        out.check(
            f"traced {name}: every request has its spans",
            ledger.missing == 0,
            f"{ledger.missing} of {ledger.n} requests without spans",
        )
        out.lines.extend(ledger.table(f"{kind}, {name} phase"))
    ledger = ledgers["loaded"]
    # The whole submit call blocks the generator thread, so the metric is
    # the call; the ledger row is its part before the program's span.
    submit_us = 1e6 * float(np.mean(traced.loaded.submit_s))
    out.lines.append(f"loaded submit call {submit_us:.1f} us per request")
    layer = "server" if kind == "serve" else "fleet"
    out.metric(f"{layer}.submit_us", submit_us, "us")
    for metric, row in LEDGER_METRICS[kind]:
        out.metric(metric, ledger.us(row), "us")
    out.metric("unattributed_frac", ledger.unattributed_frac, "frac")
    if kind == "serve":
        out.metric("batcher.rows_per_batch", ledger.rows_per_batch, "count")
        out.metric("encoders.encode_us", ledger.per_batch_us["encode"], "us")
        out.metric("quantized.score_us", ledger.per_batch_us["score"], "us")
        out.metric(
            "server.deploy_ms", 1e3 * median(traced.swapper.deploy_s), "ms"
        )
    else:
        out.metric("fleet.shed", stats["n_shed"], "count")
        out.metric("fleet.retries", stats["n_retries"], "count")
        out.metric(
            "fleet.restarts",
            sum(int(w["restarts"]) for w in stats["fleet"]["workers"]),
            "count",
        )
        out.metric(
            "worker.busy_frac",
            ledger.worker_busy_s / (N_WORKERS * traced.loaded.elapsed_s),
            "frac",
        )
    for name, value in plain.latency_ms().items():
        out.metric(name, value, "ms")
    out.metric("client.ceiling_rps", ceiling_rps(0.5, LOADED_WINDOW), "1/s")
    ratios = [
        untraced / traced_rps for untraced, traced_rps in
        zip(plain.loaded.round_rps(), traced.loaded.round_rps())
    ]
    out.metric("trace_overhead", median(ratios), "ratio")
    out.lines.append(
        f"loaded rps untraced {plain.rps:.1f} (n={plain.loaded.succeeded}), "
        f"traced {traced.rps:.1f} (n={traced.loaded.succeeded}); "
        f"trace_overhead median over {len(ratios)} ABBA round pairs"
    )


#: ``(metric, ledger row)`` pairs reported in microseconds per request.
LEDGER_METRICS = {
    "serve": (
        ("batcher.wait_us", "batcher.wait"),
        ("server.resolve_us", "server.resolve"),
    ),
    "fleet": (
        ("fleet.ipc_us", "fleet.ipc"),
        ("worker.encode_us", "worker.encode"),
        ("worker.score_us", "worker.score"),
        ("fleet.collect_us", "fleet.collect"),
    ),
}


class Ledger:
    """Mean time per successful request, split by layer, for one phase.

    Each row is a layer's self time on the request's blocking path.  The
    rows split each request at the boundaries of its spans, from submit to
    callback, so they cover the whole latency by construction: what they
    leave, ``unattributed_frac``, is only the error of mixing the wall
    clock of the spans with the generator's clocks.  A request without its
    spans is counted in ``missing`` instead.
    """

    def __init__(self, phase: PhaseResult) -> None:
        self.n = phase.succeeded
        self.latency_s = float(np.mean(phase.latency_s))
        self.rows: List[Tuple[str, float, int]] = []
        self.missing = 0
        self.rows_per_batch = 1.0
        self.per_batch_us: Dict[str, float] = {}
        self.worker_busy_s = 0.0

    def add(self, layer: str, seconds: float, count: int) -> None:
        self.rows.append((layer, float(seconds), int(count)))

    def us(self, layer: str) -> float:
        return 1e6 * next(s for name, s, _ in self.rows if name == layer)

    @property
    def unattributed_frac(self) -> float:
        covered = sum(s for _, s, _ in self.rows)
        return (self.latency_s - covered) / self.latency_s

    def table(self, title: str) -> List[str]:
        lines = [
            f"per-layer self time per request, {title}: mean latency "
            f"{1e6 * self.latency_s:.1f} us over {self.n} requests",
            f"  {'layer':<22}{'self_us':>10}{'count':>9}{'share':>8}",
        ]
        for layer, seconds, count in self.rows:
            lines.append(
                f"  {layer:<22}{1e6 * seconds:>10.1f}{count:>9}"
                f"{seconds / self.latency_s:>8.1%}"
            )
        lines.append(
            f"  {'unattributed':<22}{'':>10}{'':>9}"
            f"{self.unattributed_frac:>8.1%}"
        )
        return lines


def _by_trace(phase: PhaseResult, spans) -> Dict[str, List[dict]]:
    wanted = set(phase.trace_ids)
    grouped: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        if span["trace_id"] in wanted:
            grouped[span["trace_id"]].append(span)
    return grouped


def _end_unix(span) -> float:
    return span["start_unix"] + span["duration_s"]


def _serve_ledger(phase: PhaseResult, spans) -> Ledger:
    """``serve`` span: queue wait plus batch, per request.  ``batch`` span:
    one per coalesced batch, on its lead request's trace, parent of that
    batch's ``encode`` and ``score`` spans."""
    ledger = Ledger(phase)
    grouped = _by_trace(phase, spans)
    submit_s, serve_s, resolve_s = [], [], []
    batches: List[dict] = []
    stages: Dict[str, Dict[str, float]] = defaultdict(dict)
    for trace_id, submit_unix, callback_unix in zip(
        phase.trace_ids, phase.submit_unix, phase.callback_unix
    ):
        serve = None
        for span in grouped.get(trace_id, ()):
            if span["name"] == "serve":
                serve = span
            elif span["name"] == "batch":
                batches.append(span)
            elif span["name"] in ("encode", "score"):
                stages[span["parent_id"]][span["name"]] = span["duration_s"]
        if serve is None:
            ledger.missing += 1
            continue
        submit_s.append(serve["start_unix"] - submit_unix)
        serve_s.append(serve["duration_s"])
        resolve_s.append(callback_unix - _end_unix(serve))
    weights = np.array([b["attrs"]["n_requests"] for b in batches], float)
    if weights.sum() != phase.succeeded:
        ledger.missing += abs(int(weights.sum()) - phase.succeeded)

    def per_request(values: Sequence[float]) -> float:
        # A request waits for its whole batch: weight batches by requests.
        return float(np.dot(weights, values) / weights.sum())

    batch_s = [b["duration_s"] for b in batches]
    encode_s = [stages[b["span_id"]].get("encode", 0.0) for b in batches]
    score_s = [stages[b["span_id"]].get("score", 0.0) for b in batches]
    n = len(serve_s)
    ledger.add("server.submit", np.mean(submit_s), n)
    ledger.add("batcher.wait", np.mean(serve_s) - per_request(batch_s), n)
    ledger.add("encoders.encode", per_request(encode_s), len(batches))
    ledger.add("quantized.score", per_request(score_s), len(batches))
    ledger.add(
        "batcher.batch_self",
        per_request(batch_s) - per_request(encode_s) - per_request(score_s),
        len(batches),
    )
    ledger.add("server.resolve", np.mean(resolve_s), n)
    ledger.rows_per_batch = float(
        np.mean([b["attrs"]["n_rows"] for b in batches])
    )
    ledger.per_batch_us = {
        "encode": 1e6 * float(np.mean(encode_s)),
        "score": 1e6 * float(np.mean(score_s)),
    }
    return ledger


def _fleet_ledger(phase: PhaseResult, spans) -> Ledger:
    """``dispatch`` span: admission to reply, per attempt; its ``worker``
    span covers the worker's handling, parent of ``encode`` and ``score``."""
    ledger = Ledger(phase)
    grouped = _by_trace(phase, spans)
    rows: Dict[str, List[float]] = defaultdict(list)
    for trace_id, submit_unix, callback_unix in zip(
        phase.trace_ids, phase.submit_unix, phase.callback_unix
    ):
        trace = grouped.get(trace_id, ())
        dispatches = [
            s for s in trace if s["name"] == "dispatch" and s["status"] == "ok"
        ]
        children: Dict[str, Dict[str, dict]] = defaultdict(dict)
        for span in trace:
            children[span["parent_id"]][span["name"]] = span
        # A retried request has one dispatch per attempt; none are expected.
        dispatch = dispatches[0] if len(dispatches) == 1 else None
        worker = (
            children[dispatch["span_id"]].get("worker")
            if dispatch is not None else None
        )
        if worker is None:
            ledger.missing += 1
            continue
        stages = children[worker["span_id"]]
        encode = stages["encode"]["duration_s"] if "encode" in stages else 0.0
        score = stages["score"]["duration_s"] if "score" in stages else 0.0
        rows["fleet.submit"].append(dispatch["start_unix"] - submit_unix)
        rows["fleet.ipc"].append(dispatch["duration_s"] - worker["duration_s"])
        rows["worker.encode"].append(encode)
        rows["worker.score"].append(score)
        rows["worker.self"].append(worker["duration_s"] - encode - score)
        rows["fleet.collect"].append(callback_unix - _end_unix(dispatch))
        ledger.worker_busy_s += worker["duration_s"]
    for layer in (
        "fleet.submit", "fleet.ipc", "worker.encode", "worker.score",
        "worker.self", "fleet.collect",
    ):
        ledger.add(layer, np.mean(rows[layer]), len(rows[layer]))
    return ledger

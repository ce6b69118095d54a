"""Performance harness behind ``repro bench``: models and scenarios.

:func:`run_bench` times encode/fit/predict per model on one dataset
(best-of-``repeats`` wall-clock seconds) and runs six scenarios, each of
which the CLI can skip:

- ``sharded_fit`` — single-process ``fit`` vs data-parallel
  ``shard_fit`` at the regen-heavy operating point;
- ``serving`` — a micro-batched ``ModelServer`` vs per-request
  ``predict``, driven by client threads that each block on their
  request, with an adaptation hot-swap mid-run;
- ``packed_vs_int8`` — bit-packed vs unpacked 1-bit and 8-bit artifacts:
  footprints, scorer-stage time, and exact parity with an unpacked
  reference of the binary scorer;
- ``fleet_resilience`` — steady-state ``FleetServer`` throughput at 1 vs
  ``n_workers`` worker processes;
- ``encode_latency`` — dense RBF vs structured Fastfood encode latency,
  FWHT exactness and DistHD accuracy parity;
- ``obs_overhead`` — fully traced vs untraced ``ModelServer`` throughput
  and p95, in paired rounds.

``benchmarks/check_regression.py`` diffs a ``--smoke`` payload against
the committed baseline.  The regen-heavy fit itself is timed by
perfbench ``train``; the packed hot-swap and the fleet chaos drills run
as tier-1 tests and in CI's ``repro chaos`` step.
``docs/performance.md`` documents the payload and its schema history.
"""

from __future__ import annotations

import json
import platform
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.backend import get_backend, list_backends
from repro.datasets.loaders import Dataset, load_dataset
from repro.models.registry import get_model_spec, make_model
from repro.version import __version__

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None

#: Models the default bench sweep covers (HDC family: encode is separable).
DEFAULT_MODELS = ("disthd", "onlinehd", "baselinehd")

#: The synthetic default the acceptance trajectory is recorded on.
DEFAULT_DATASET = "ucihar"
DEFAULT_SCALE = 0.12
DEFAULT_DIM = 1024
DEFAULT_ITERATIONS = 10


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _peak_rss_mb() -> Optional[float]:
    """Process peak RSS in MiB (a lifetime high-watermark; POSIX only)."""
    if resource is None:
        return None
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak_kb / 1024.0, 2)


#: The regen-heavy operating point the scenarios train at: many samples,
#: few features (so encoding does not swamp the loop), large D and
#: aggressive regeneration.  perfbench ``train`` times this fit.
REGEN_HEAVY = {
    "dataset": "pamap2",
    "scale": 0.012,
    "dim": 4096,
    "iterations": 10,
    "regen_rate": 0.30,
    "selection": "union",
}


#: The committed sharded-fit scenario: the same regen-heavy operating point,
#: fit single-process versus data-parallel ``shard_fit`` at ``n_jobs``
#: workers.  The shard phase trains per-shard class memories with
#: regeneration disabled (cheap, parallel), the merge bundles them, and a
#: short refinement pass runs the full regen-heavy loop — so the speedup
#: comes from both worker parallelism and the smaller full-data budget,
#: and survives even single-core machines.
SHARDED_FIT = dict(REGEN_HEAVY, n_jobs=4)


def bench_sharded_fit(
    *,
    dataset: str = SHARDED_FIT["dataset"],
    scale: float = SHARDED_FIT["scale"],
    dim: int = SHARDED_FIT["dim"],
    iterations: int = SHARDED_FIT["iterations"],
    regen_rate: float = SHARDED_FIT["regen_rate"],
    selection: str = SHARDED_FIT["selection"],
    n_jobs: int = SHARDED_FIT["n_jobs"],
    seed: int = 0,
    repeats: int = 3,
) -> Dict[str, object]:
    """Time DistHD single-process ``fit`` vs ``shard_fit(n_jobs=...)``.

    Both paths run at the same seed and hyper-parameters; the record keeps
    both test accuracies so a speedup that silently costs quality is
    visible, plus the shard/worker counts the payload schema tracks.
    """
    data = load_dataset(dataset, scale=scale, seed=seed)

    def build():
        return make_model(
            "disthd", dim=dim, iterations=iterations, seed=seed,
            regen_rate=regen_rate, selection=selection,
            convergence_patience=None,
        )

    single_s = _best_of(
        lambda: build().fit(data.train_x, data.train_y), repeats
    )
    single_model = build().fit(data.train_x, data.train_y)
    single_acc = float(single_model.score(data.test_x, data.test_y))

    sharded_s = _best_of(
        lambda: build().shard_fit(data.train_x, data.train_y, n_jobs=n_jobs),
        repeats,
    )
    sharded_model = build()
    sharded_model.shard_fit(data.train_x, data.train_y, n_jobs=n_jobs)
    sharded_acc = float(sharded_model.score(data.test_x, data.test_y))

    return {
        "scenario": "sharded_fit",
        "dataset": dataset,
        "n_train": int(data.train_x.shape[0]),
        "n_features": int(data.train_x.shape[1]),
        "dim": dim,
        "iterations": iterations,
        "regen_rate": regen_rate,
        "selection": selection,
        "seed": seed,
        "n_jobs": n_jobs,
        "n_shards": int(sharded_model.n_shards_),
        "single_fit_s": single_s,
        "single_test_acc": single_acc,
        "sharded_fit_s": sharded_s,
        "sharded_test_acc": sharded_acc,
        "fit_speedup_vs_single": (
            single_s / sharded_s if sharded_s > 0 else None
        ),
        "acc_delta": sharded_acc - single_acc,
    }


#: The committed serving scenario: the regen-heavy model behind a
#: micro-batching server, loaded at concurrency 32 — the operating point
#: the ROADMAP's "serves heavy traffic" north star is tracked at.
SERVING = dict(
    REGEN_HEAVY,
    bits=8,
    n_requests=2048,
    concurrency=32,
    max_batch_size=64,
)


def bench_serving(
    *,
    dataset: str = SERVING["dataset"],
    scale: float = SERVING["scale"],
    dim: int = SERVING["dim"],
    iterations: int = SERVING["iterations"],
    regen_rate: float = SERVING["regen_rate"],
    selection: str = SERVING["selection"],
    bits: int = SERVING["bits"],
    n_requests: int = SERVING["n_requests"],
    concurrency: int = SERVING["concurrency"],
    max_batch_size: int = SERVING["max_batch_size"],
    seed: int = 0,
    swap: bool = True,
    packed: bool = False,
    encoder: str = "rbf",
    obs: Optional[object] = None,
) -> Dict[str, object]:
    """Benchmark micro-batched serving against per-request inference.

    Trains DistHD at the regen-heavy operating point, freezes it into a
    ``bits``-wide :class:`~repro.deploy.quantized.QuantizedHDCModel`, and:

    1. times ``n_requests`` single-row ``predict`` calls from
       ``concurrency`` closed-loop workers *directly* against the
       artifact (the no-server baseline);
    2. repeats the run through a :class:`~repro.serve.server.ModelServer`
       so concurrent requests coalesce into micro-batches;
    3. with ``swap``, half-way through the batched run an
       :class:`~repro.serve.adapter.OnlineAdapter` promotes a
       ``partial_fit``-adapted, re-quantized version under load, and the
       record keeps the failure count (must be zero) plus a post-swap
       parity check: micro-batched predictions equal the active
       artifact's direct predictions, element for element.

    ``packed=True`` (requires ``bits=1``) serves the bit-packed artifact
    instead; promotions re-quantize and re-pack.

    ``obs`` — an optional :class:`repro.obs.Observability` bundle wired
    into the server and (when its tracer is enabled) the batched load,
    so ``repro serve`` sessions carry live metrics and traces.  The
    direct baseline stays untraced: it measures the artifact, not the
    observability stack.
    """
    from repro.deploy.quantized import QuantizedHDCModel
    from repro.serve.adapter import DriftDetector, OnlineAdapter
    from repro.serve.loadgen import run_load
    from repro.serve.server import ModelServer

    data = load_dataset(dataset, scale=scale, seed=seed)
    model = make_model(
        "disthd", dim=dim, iterations=iterations, seed=seed,
        regen_rate=regen_rate, selection=selection,
        convergence_patience=None, encoder=encoder,
    )
    model.fit(data.train_x, data.train_y)
    artifact = QuantizedHDCModel(model, bits=bits, packed=packed)

    # Per-request baseline: same artifact, no batching, same concurrency.
    direct = run_load(
        lambda row: artifact.predict(row),
        data.test_x,
        n_requests=n_requests,
        concurrency=concurrency,
    )

    record: Dict[str, object] = {
        "scenario": "serving",
        "dataset": dataset,
        "n_train": int(data.train_x.shape[0]),
        "n_features": int(data.train_x.shape[1]),
        "dim": dim,
        "iterations": iterations,
        "regen_rate": regen_rate,
        "selection": selection,
        "bits": bits,
        "packed": bool(packed),
        "encoder": str(encoder),
        "seed": seed,
        "n_requests": n_requests,
        "concurrency": concurrency,
        "max_batch_size": max_batch_size,
        "test_acc": float(artifact.score(data.test_x, data.test_y)),
        "direct": direct.as_record(),
    }

    tracer = getattr(obs, "tracer", None)
    if tracer is not None and not tracer.enabled:
        tracer = None
    with ModelServer(
        artifact, max_batch_size=max_batch_size,
        obs=obs,  # type: ignore[arg-type]
    ) as server:
        adapter = None
        swap_fired = threading.Event()
        if swap:
            adapter = OnlineAdapter(
                server, model,
                detector=DriftDetector(window=64, min_samples=32),
                bits=bits,
            )
            # Buffer labeled feedback up front so the mid-run promotion
            # has something to adapt on.
            n_fb = min(128, data.train_x.shape[0])
            fb_x, fb_y = data.train_x[:n_fb], data.train_y[:n_fb]
            fb_scores = artifact.decision_scores(fb_x)
            adapter.feedback(fb_x, fb_y, scores=fb_scores)
            swap_at = n_requests // 2
            swap_gate = threading.Lock()

            def on_request(i: int) -> None:
                if i < swap_at or swap_fired.is_set():
                    return
                # First worker past the swap point wins, exactly once
                # (check-then-set on the bare Event would let two workers
                # race into adapt_now and drain the buffer twice).
                with swap_gate:
                    if swap_fired.is_set():
                        return
                    swap_fired.set()
                # A drift-triggered cycle during priming may already have
                # consumed the buffer; re-arm so the forced mid-load swap
                # always has material.
                if (
                    adapter.stats()["buffered_feedback"]
                    < adapter.min_adapt_samples
                ):
                    adapter.feedback(fb_x, fb_y, scores=fb_scores)
                try:
                    adapter.adapt_now(wait=False)
                except RuntimeError:
                    pass  # lost the race to a concurrent drift cycle

        else:
            on_request = None

        batched = run_load(
            server, data.test_x,
            n_requests=n_requests,
            concurrency=concurrency,
            on_request=on_request,
            tracer=tracer,
        )
        if adapter is not None:
            adapter.join(timeout=60.0)

        stats = server.stats()
        record["batched"] = batched.as_record()
        record["mean_batch_size"] = stats["mean_batch_size"]
        speedup = (
            batched.throughput_rps / direct.throughput_rps
            if direct.throughput_rps > 0 else None
        )
        record["throughput_speedup_vs_direct"] = speedup
        if swap:
            # Post-swap parity: the micro-batched path must agree with
            # the (adapted, re-quantized) active artifact exactly.
            n_check = min(64, data.test_x.shape[0])
            served = server.predict(data.test_x[:n_check])
            reference = server.model.predict(data.test_x[:n_check])
            record["swap"] = {
                "n_swaps": int(stats["n_swaps"]),
                "n_adaptations": int(adapter.n_adaptations),
                "failed_requests": int(batched.n_failed),
                "parity_ok": bool(np.array_equal(served, reference)),
            }
    return record


PACKED_VS_INT8 = dict(REGEN_HEAVY, n_score_rows=4096, score_repeats=5)


def _binary_reference_scores(
    encoded: np.ndarray, codes: np.ndarray, dim: int
) -> np.ndarray:
    """Unpacked reference of the packed binary scorer (exact arithmetic).

    Binarises the float encoding with the same ``>= 0`` convention, counts
    disagreements against the ``{0, 1}`` code rows through an exact int64
    matmul (``|q != m| = Σq + Σm − 2·q·m`` on binary cells) and applies the
    identical ``(D − 2·hamming) / D`` float64 expression — so the packed
    kernels, which compute the same integer counts via XOR + popcount,
    must match it bit for bit.
    """
    q = (np.asarray(encoded) >= 0).astype(np.int64)
    m = np.asarray(codes, dtype=np.int64)
    counts = (
        q.sum(axis=1, dtype=np.int64)[:, None]
        + m.sum(axis=1, dtype=np.int64)[None, :]
        - 2 * (q @ m.T)
    )
    scale = np.float64(dim)
    return (scale - 2.0 * counts.astype(np.float64)) / scale


def bench_packed_deploy(
    *,
    dataset: str = PACKED_VS_INT8["dataset"],
    scale: float = PACKED_VS_INT8["scale"],
    dim: int = PACKED_VS_INT8["dim"],
    iterations: int = PACKED_VS_INT8["iterations"],
    regen_rate: float = PACKED_VS_INT8["regen_rate"],
    selection: str = PACKED_VS_INT8["selection"],
    n_score_rows: int = PACKED_VS_INT8["n_score_rows"],
    score_repeats: int = PACKED_VS_INT8["score_repeats"],
    seed: int = 0,
) -> Dict[str, object]:
    """Benchmark the bit-packed 1-bit deploy path against int artifacts.

    Trains DistHD at the regen-heavy operating point and freezes three
    deploy artifacts — ``bits=8``, unpacked ``bits=1`` and packed
    ``bits=1`` — then records:

    1. **footprints**: bytes per artifact plus the packed compression
       ratios from :meth:`~repro.deploy.quantized.QuantizedHDCModel.
       footprint_report`;
    2. **scorer-stage timings**: best-of-``score_repeats`` wall time of
       ``score_encoded`` on a pre-encoded ``n_score_rows`` query block for
       the packed XOR + popcount kernel vs the unpacked 1-bit cosine
       scorer (``score_speedup_vs_int``) — the scorer stage is timed in
       isolation because encoding, common to both paths, dominates end to
       end and would mask the kernel difference;
    3. **exact parity**: packed predictions vs an unpacked reference
       implementation of the same binary scorer over the full test set —
       scores bit-identical, predictions element-for-element equal,
       accuracy delta exactly 0.

    The packed hot-swap under load is
    ``tests/test_serve_concurrency.py::TestPackedHotSwap``.
    """
    from repro.deploy.quantized import QuantizedHDCModel
    from repro.hdc.packed import unpack_rows

    data = load_dataset(dataset, scale=scale, seed=seed)
    model = make_model(
        "disthd", dim=dim, iterations=iterations, seed=seed,
        regen_rate=regen_rate, selection=selection,
        convergence_patience=None,
    )
    model.fit(data.train_x, data.train_y)

    int8 = QuantizedHDCModel(model, bits=8)
    int1 = QuantizedHDCModel(model, bits=1)
    packed = QuantizedHDCModel(model, bits=1, packed=True)

    packed_report = packed.footprint_report()
    record: Dict[str, object] = {
        "scenario": "packed_vs_int8",
        "dataset": dataset,
        "n_train": int(data.train_x.shape[0]),
        "n_features": int(data.train_x.shape[1]),
        "dim": dim,
        "iterations": iterations,
        "regen_rate": regen_rate,
        "selection": selection,
        "seed": seed,
        "footprints": {
            "int8_bytes": int(int8.memory_bytes),
            "int1_bytes": int(int1.memory_bytes),
            "packed_bytes": int(packed.memory_bytes),
            "words_per_class": int(packed_report["words_per_class"]),
            "unpacked_1bit_serving_bytes": int(
                packed_report["unpacked_1bit_serving_bytes"]
            ),
            "compression_vs_unpacked": float(
                packed_report["compression_vs_unpacked"]
            ),
            "compression_vs_float": float(packed_report["compression"]),
        },
    }

    # Scorer-stage timing on one pre-encoded query block (queries are
    # resampled with replacement when the test split is smaller than
    # n_score_rows, so the block size — and the timing — is stable
    # across dataset scales).
    rng = np.random.default_rng(seed)
    idx = (
        np.arange(data.test_x.shape[0], dtype=np.int64)
        if data.test_x.shape[0] >= n_score_rows
        else rng.choice(data.test_x.shape[0], size=n_score_rows, replace=True)
    )[:n_score_rows]
    block = data.test_x[idx]
    enc = packed.encoder  # frozen deploy encoder, shared state across artifacts
    encoded = enc.encode(block)
    packed_s = _best_of(lambda: packed.score_encoded(encoded), score_repeats)
    int1_s = _best_of(lambda: int1.score_encoded(encoded), score_repeats)
    record["scoring"] = {
        "n_score_rows": int(block.shape[0]),
        "packed_score_s": packed_s,
        "int1_score_s": int1_s,
        "score_speedup_vs_int": (
            int1_s / packed_s if packed_s > 0 else None
        ),
    }

    # Exact parity: packed kernels vs the unpacked binary reference.
    test_encoded = enc.encode(data.test_x)
    backend = getattr(enc, "backend", None)
    test_np = (
        backend.to_numpy(test_encoded)
        if backend is not None else np.asarray(test_encoded)
    )
    codes = unpack_rows(packed.packed_words, dim)
    reference_scores = _binary_reference_scores(test_np, codes, dim)
    packed_scores = packed.score_encoded(test_encoded)
    reference_pred = packed.classes_[np.argmax(reference_scores, axis=1)]
    packed_pred = packed.predict(data.test_x)
    y = np.asarray(data.test_y).ravel()
    packed_acc = float(np.mean(packed_pred == y))
    reference_acc = float(np.mean(reference_pred == y))
    record["parity"] = {
        "scores_bit_identical": bool(
            np.array_equal(packed_scores, reference_scores)
        ),
        "predictions_equal": bool(np.array_equal(packed_pred, reference_pred)),
        "packed_acc": packed_acc,
        "unpacked_reference_acc": reference_acc,
        "accuracy_delta": packed_acc - reference_acc,
        "int8_acc": float(int8.score(data.test_x, data.test_y)),
    }
    return record


#: The committed fleet scenario: the packed artifact in shared memory
#: behind a 4-worker supervised fleet under closed-loop load, with a
#: per-request service floor so worker scaling is measured as process
#: concurrency (the floor is wall-clock the workers sleep through in
#: heartbeat-preserving slices, identical for every fleet size).
FLEET_RESILIENCE = dict(
    REGEN_HEAVY,
    bits=1,
    packed=True,
    n_requests=1024,
    concurrency=32,
    n_workers=4,
    queue_depth=48,
    service_floor_ms=2.0,
)


def bench_fleet_resilience(
    *,
    dataset: str = FLEET_RESILIENCE["dataset"],
    scale: float = FLEET_RESILIENCE["scale"],
    dim: int = FLEET_RESILIENCE["dim"],
    iterations: int = FLEET_RESILIENCE["iterations"],
    regen_rate: float = FLEET_RESILIENCE["regen_rate"],
    selection: str = FLEET_RESILIENCE["selection"],
    bits: int = FLEET_RESILIENCE["bits"],
    packed: bool = FLEET_RESILIENCE["packed"],
    n_requests: int = FLEET_RESILIENCE["n_requests"],
    concurrency: int = FLEET_RESILIENCE["concurrency"],
    n_workers: int = FLEET_RESILIENCE["n_workers"],
    queue_depth: int = FLEET_RESILIENCE["queue_depth"],
    service_floor_ms: float = FLEET_RESILIENCE["service_floor_ms"],
    seed: int = 0,
) -> Dict[str, object]:
    """Benchmark multi-process fleet scaling.

    Trains DistHD at the regen-heavy operating point, freezes the packed
    artifact, and runs the same closed-loop load against a 1-worker and
    an ``n_workers`` fleet (fresh fleet each, same shared-memory
    artifact, same ``service_floor_ms`` per request).  The
    ``steady_state`` record keeps ``throughput_scaling`` (n-worker rps /
    1-worker rps) and the p95 ratio (a healthy fleet's p95 must not
    degrade as workers are added — queueing delay shrinks).

    The SIGKILL and crash-loop drills are ``repro chaos`` (CI
    fleet-smoke) and ``tests/test_serve_chaos.py``.
    """
    from repro.deploy.quantized import QuantizedHDCModel
    from repro.serve.fleet import FleetServer
    from repro.serve.loadgen import run_load

    data = load_dataset(dataset, scale=scale, seed=seed)
    model = make_model(
        "disthd", dim=dim, iterations=iterations, seed=seed,
        regen_rate=regen_rate, selection=selection,
        convergence_patience=None,
    )
    model.fit(data.train_x, data.train_y)
    artifact = QuantizedHDCModel(model, bits=bits, packed=packed)
    floor_s = service_floor_ms / 1e3

    record: Dict[str, object] = {
        "scenario": "fleet_resilience",
        "dataset": dataset,
        "n_train": int(data.train_x.shape[0]),
        "n_features": int(data.train_x.shape[1]),
        "dim": dim,
        "iterations": iterations,
        "regen_rate": regen_rate,
        "selection": selection,
        "bits": bits,
        "packed": bool(packed),
        "seed": seed,
        "n_requests": n_requests,
        "concurrency": concurrency,
        "n_workers": n_workers,
        "queue_depth": queue_depth,
        "service_floor_ms": float(service_floor_ms),
        "test_acc": float(artifact.score(data.test_x, data.test_y)),
    }

    steady: Dict[str, object] = {}
    throughputs: Dict[int, float] = {}
    p95s: Dict[int, float] = {}
    for workers in (1, n_workers):
        with FleetServer(
            artifact, n_workers=workers, queue_depth=queue_depth,
            service_floor_s=floor_s,
        ) as fleet:
            report = run_load(
                fleet, data.test_x,
                n_requests=n_requests, concurrency=concurrency,
            )
            latency = report.latency_ms() or {}
            throughputs[workers] = report.throughput_rps
            p95s[workers] = float(latency.get("p95", float("nan")))
            steady[f"workers_{workers}"] = dict(
                report.as_record(), n_workers=workers
            )
    scaling = (
        throughputs[n_workers] / throughputs[1]
        if throughputs[1] > 0 else None
    )
    p95_ratio = (
        p95s[n_workers] / p95s[1]
        if p95s.get(1) and p95s[1] > 0 else None
    )
    steady["throughput_scaling"] = scaling
    steady["p95_ratio_vs_single"] = p95_ratio
    record["steady_state"] = steady
    return record


#: The committed encode-latency scenario: dense RBF vs structured Fastfood
#: encoding on the default dataset's feature width, swept over dimensions
#: and (small) batch sizes.  Single-sample encode is the operating point
#: that dominates serving latency — at large batches the dense path turns
#: into a peak-rate GEMM and the structured advantage narrows, which the
#: sweep records rather than hides.
ENCODE_LATENCY = {
    "dataset": DEFAULT_DATASET,
    "scale": DEFAULT_SCALE,
    "dims": (2048, 4096, 8192),
    "batch_sizes": (1, 4, 16, 256),
    "gate_dim": 4096,
    "gate_batch": 1,
    "acc_dim": 4096,
    "acc_iterations": DEFAULT_ITERATIONS,
    "acc_seeds": 3,
}

#: Committed single-sample encode speedup floor at the headline dimension.
ENCODE_SPEEDUP_FLOOR = 4.0

#: Maximum |mean accuracy(fastfood) − accuracy(rbf)| the parity check
#: allows, averaged over ``acc_seeds`` seeds.
ENCODE_ACC_TOLERANCE = 0.01

#: Parity and speedup gates only bind at headline dimensions.  Below this
#: the single-seed accuracy noise between two random projections of the
#: *same* family already exceeds the tolerance, so smoke-scale runs report
#: the delta informationally (``passed: None``) instead of gating on it.
ENCODE_ACC_GATE_DIM = 4096


def _time_per_call(fn, repeats: int, inner: int) -> float:
    """Best-of-``repeats`` mean seconds per call over ``inner`` calls.

    Microsecond-scale encodes are timed through an inner loop so each
    measurement spans well past the clock's resolution.
    """
    inner = max(1, int(inner))

    def run():
        for _ in range(inner):
            fn()

    return _best_of(run, repeats) / inner


def bench_encode_latency(
    *,
    dataset: str = ENCODE_LATENCY["dataset"],
    scale: float = ENCODE_LATENCY["scale"],
    dims: Sequence[int] = ENCODE_LATENCY["dims"],
    batch_sizes: Sequence[int] = ENCODE_LATENCY["batch_sizes"],
    gate_dim: int = ENCODE_LATENCY["gate_dim"],
    gate_batch: int = ENCODE_LATENCY["gate_batch"],
    acc_dim: int = ENCODE_LATENCY["acc_dim"],
    acc_iterations: int = ENCODE_LATENCY["acc_iterations"],
    acc_seeds: int = ENCODE_LATENCY["acc_seeds"],
    seed: int = 0,
    repeats: int = 5,
) -> Dict[str, object]:
    """Benchmark dense-RBF vs structured-Fastfood encoding latency.

    Three kinds of evidence go into the record:

    1. **FWHT exactness** — the backend's fast transform against the naive
       ``O(m²)`` Hadamard matmul: *bit-identical* at float64 on
       integer-valued inputs (the transform is integer-exact, see
       :mod:`repro.hdc.fwht`) and within a scale-aware float32 bound on
       Gaussian inputs;
    2. **latency sweep** — per-call ``encode`` seconds for
       :class:`~repro.hdc.encoders.rbf.RBFEncoder` (dense ``O(q·D)``) and
       :class:`~repro.hdc.encoders.structured.FastfoodRBFEncoder`
       (``O(D log D)``) across ``dims × batch_sizes``, plus the parameter
       footprints (the structured encoder stores ``O(D)`` floats, not
       ``O(q·D)``); the committed gate is the single-sample speedup at
       ``gate_dim`` against :data:`ENCODE_SPEEDUP_FLOOR`;
    3. **accuracy parity** — DistHD trained with each encoder at the same
       seeds and dimension must land within :data:`ENCODE_ACC_TOLERANCE`
       mean test accuracy over ``acc_seeds`` paired runs, so the speedup
       cannot silently cost quality.  The gate only binds at
       ``acc_dim >= ENCODE_ACC_GATE_DIM``; smaller (smoke) runs report the
       delta with ``passed: None``.
    """
    from repro.hdc.encoders import FastfoodRBFEncoder, RBFEncoder
    from repro.hdc.fwht import fwht_rows, hadamard_matrix, next_pow2

    data = load_dataset(dataset, scale=scale, seed=seed)
    X = np.ascontiguousarray(data.train_x, dtype=np.float32)
    q = int(X.shape[1])
    block = next_pow2(q)

    # 1. Exactness proof, at the block order the sweep actually exercises
    # plus two smaller orders (multi-factor and single-GEMM code paths).
    rng = np.random.default_rng(seed)
    exactness: List[Dict[str, object]] = []
    for m in sorted({8, 64, block}):
        H = hadamard_matrix(m)
        ints = rng.integers(-4, 5, size=(32, m)).astype(np.float64)
        bit_identical = bool(np.array_equal(fwht_rows(ints), ints @ H))
        xf = rng.normal(size=(32, m)).astype(np.float32)
        ref = xf.astype(np.float64) @ H
        err = float(
            np.max(np.abs(fwht_rows(xf).astype(np.float64) - ref))
        )
        tol = float(
            np.finfo(np.float32).eps * m * max(1.0, float(np.max(np.abs(ref))))
        )
        exactness.append({
            "m": int(m),
            "float64_bit_identical": bit_identical,
            "float32_max_abs_err": err,
            "float32_tol": tol,
            "float32_ok": bool(err <= tol),
        })

    # 2. Latency sweep.
    timings: List[Dict[str, object]] = []
    gate_speedup: Optional[float] = None
    for dim in dims:
        dense = RBFEncoder(q, int(dim), seed=seed, dtype="float32")
        fast = FastfoodRBFEncoder(q, int(dim), seed=seed, dtype="float32")
        rows: List[Dict[str, object]] = []
        for n in batch_sizes:
            n = int(n)
            reps = -(-n // X.shape[0])
            batch = (X[:n] if reps == 1
                     else np.ascontiguousarray(np.tile(X, (reps, 1))[:n]))
            dense.encode(batch)  # warm caches / BLAS threads
            fast.encode(batch)
            inner = max(1, 512 // n)
            dense_s = _time_per_call(
                lambda: dense.encode(batch), repeats, inner
            )
            fast_s = _time_per_call(
                lambda: fast.encode(batch), repeats, inner
            )
            speedup = dense_s / fast_s if fast_s > 0 else None
            rows.append({
                "batch": n,
                "dense_rbf_s": dense_s,
                "fastfood_s": fast_s,
                "speedup": speedup,
            })
            if int(dim) == int(gate_dim) and n == int(gate_batch):
                gate_speedup = speedup
        timings.append({
            "dim": int(dim),
            "block": int(fast.block),
            "n_blocks": int(fast.n_blocks),
            "dense_param_floats": int(q * dim + dim),
            "structured_param_floats": int(
                fast.n_blocks * 3 * fast.block + 2 * dim
            ),
            "batches": rows,
        })

    # 3. Accuracy parity, averaged over seeds: a single draw of either
    # projection family moves test accuracy by more than the tolerance at
    # any dimension, so the honest comparison is the mean paired delta.
    per_seed: List[Dict[str, float]] = []
    for s in range(seed, seed + max(1, int(acc_seeds))):
        run_data = (data if s == seed
                    else load_dataset(dataset, scale=scale, seed=s))
        accs: Dict[str, float] = {}
        for enc in ("rbf", "fastfood-rbf"):
            model = make_model(
                "disthd", dim=acc_dim, iterations=acc_iterations, seed=s,
                convergence_patience=None, encoder=enc,
            )
            model.fit(run_data.train_x, run_data.train_y)
            accs[enc] = float(model.score(run_data.test_x, run_data.test_y))
        per_seed.append({
            "seed": int(s),
            "rbf_acc": accs["rbf"],
            "fastfood_acc": accs["fastfood-rbf"],
            "delta": accs["fastfood-rbf"] - accs["rbf"],
        })
    acc_delta = float(np.mean([r["delta"] for r in per_seed]))
    acc_gated = int(acc_dim) >= ENCODE_ACC_GATE_DIM

    return {
        "scenario": "encode_latency",
        "dataset": dataset,
        "n_features": q,
        "block": int(block),
        "seed": seed,
        "repeats": repeats,
        "dims": [int(d) for d in dims],
        "batch_sizes": [int(n) for n in batch_sizes],
        "fwht_exactness": exactness,
        "timings": timings,
        "gate": {
            "dim": int(gate_dim),
            "batch": int(gate_batch),
            "speedup": gate_speedup,
            "floor": float(ENCODE_SPEEDUP_FLOOR),
            "passed": (
                gate_speedup is not None
                and gate_speedup >= ENCODE_SPEEDUP_FLOOR
            ),
        },
        "accuracy": {
            "dim": int(acc_dim),
            "iterations": int(acc_iterations),
            "seeds": [r["seed"] for r in per_seed],
            "per_seed": per_seed,
            "rbf_acc": float(np.mean([r["rbf_acc"] for r in per_seed])),
            "fastfood_acc": float(
                np.mean([r["fastfood_acc"] for r in per_seed])
            ),
            "delta": acc_delta,
            "tolerance": float(ENCODE_ACC_TOLERANCE),
            # Only binding at headline dimensions; see ENCODE_ACC_GATE_DIM.
            "passed": (
                bool(abs(acc_delta) <= ENCODE_ACC_TOLERANCE)
                if acc_gated else None
            ),
        },
    }


# ------------------------------------------------------------------- bench


def bench_model(
    name: str,
    dataset: Dataset,
    *,
    dim: int = DEFAULT_DIM,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
    repeats: int = 3,
    dtype: Optional[str] = None,
    model_params: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Time one registered model on one dataset.

    Returns a flat record: best-of-``repeats`` ``encode_s`` (HDC models
    only), ``fit_s`` and ``predict_s``, plus test accuracy and the
    effective configuration.
    """
    declared = get_model_spec(name).param_names()
    params: Dict[str, object] = dict(model_params or {})
    for key, value in (
        ("dim", dim),
        ("iterations", iterations),
        ("seed", seed),
        ("convergence_patience", None),
        ("dtype", dtype),
    ):
        if key == "dtype" and value is None:
            continue
        if key in declared or key in ("convergence_patience",):
            params.setdefault(key, value)
    try:
        model = make_model(name, **params)
    except TypeError:
        params.pop("convergence_patience", None)
        model = make_model(name, **params)

    fit_s = _best_of(
        lambda: make_model(name, **params).fit(dataset.train_x, dataset.train_y),
        repeats,
    )
    model.fit(dataset.train_x, dataset.train_y)
    predict_s = _best_of(lambda: model.predict(dataset.test_x), repeats)

    record: Dict[str, object] = {
        "model": name,
        "dataset": dataset.name,
        "n_train": int(dataset.train_x.shape[0]),
        "n_test": int(dataset.test_x.shape[0]),
        "n_features": int(dataset.train_x.shape[1]),
        "params": {k: repr(v) if not isinstance(v, (int, float, str, type(None), bool)) else v
                   for k, v in params.items()},
        "fit_s": fit_s,
        "predict_s": predict_s,
        "test_acc": float(model.score(dataset.test_x, dataset.test_y)),
    }
    encoder = getattr(model, "encoder_", None)
    if encoder is not None and hasattr(encoder, "encode"):
        record["encode_s"] = _best_of(
            lambda: encoder.encode(dataset.train_x), repeats
        )
        if hasattr(encoder, "dtype"):
            record["dtype"] = np.dtype(encoder.dtype).name
        if hasattr(encoder, "backend"):
            record["backend"] = encoder.backend.name
    return record


#: The committed observability-overhead scenario: the serving operating
#: point traced at sample rate 1.0 versus no obs bundle at all.
OBS_OVERHEAD = dict(
    REGEN_HEAVY,
    bits=8,
    n_requests=1024,
    concurrency=16,
    rows_per_request=8,
    max_batch_size=64,
)

#: Minimum fully-traced / untraced throughput ratio the scenario gates on.
OBS_THROUGHPUT_FLOOR = 0.95

#: Maximum relative p95 growth tracing at sample rate 1.0 may add.
OBS_P95_DELTA_CEILING = 0.10

#: The overhead gates only bind at (or above) this request count.  Below
#: it (smoke-scale runs) single-digit-microsecond jitter on a ~1 ms p95
#: swings the delta by tens of percent and a few slow batches dominate
#: the throughput ratio, so the record reports both informationally
#: instead of gating on noise — same policy as the encode scenario's
#: ``ENCODE_ACC_GATE_DIM``.  ``benchmarks/check_regression.py`` still
#: enforces its looser ``MIN_OBS_THROUGHPUT_RATIO`` floor at any scale.
OBS_GATE_MIN_REQUESTS = 512


def bench_obs_overhead(
    *,
    dataset: str = OBS_OVERHEAD["dataset"],
    scale: float = OBS_OVERHEAD["scale"],
    dim: int = OBS_OVERHEAD["dim"],
    iterations: int = OBS_OVERHEAD["iterations"],
    regen_rate: float = OBS_OVERHEAD["regen_rate"],
    selection: str = OBS_OVERHEAD["selection"],
    bits: int = OBS_OVERHEAD["bits"],
    n_requests: int = OBS_OVERHEAD["n_requests"],
    concurrency: int = OBS_OVERHEAD["concurrency"],
    rows_per_request: int = OBS_OVERHEAD["rows_per_request"],
    max_batch_size: int = OBS_OVERHEAD["max_batch_size"],
    seed: int = 0,
    repeats: int = 5,
) -> Dict[str, object]:
    """Benchmark what full tracing costs.

    The same closed-loop ``ModelServer`` load (requests carrying a
    ``rows_per_request`` client burst) runs with no obs bundle and again
    fully traced (``sample_rate=1.0``, every request a client span with
    serve/batch/encode/score children published into the metrics
    registry).  Measurement is *paired*: each of ``repeats`` rounds runs
    untraced/traced/traced/untraced back-to-back (best of each side
    within the round) and yields one throughput ratio and one p95 delta;
    the record reports the **medians** across rounds.  Sequential
    best-of-N on a busy or single-core host confounds the comparison
    with machine drift — the paired-round null experiment (off vs off)
    spans ±10% per round, so only a cross-round median isolates the
    tracing cost.  The record gates the median ratio against
    ``OBS_THROUGHPUT_FLOOR`` and the median relative p95 growth against
    ``OBS_P95_DELTA_CEILING`` (both gates bind only at
    ``OBS_GATE_MIN_REQUESTS`` and above — below that the ratios are
    recorded informationally, since smoke-scale runs are jitter-bound).

    The traced fleet kill drill (flight dumps, complete retried traces)
    is ``tests/test_obs_integration.py::TestFleetTracingAcrossWorkerDeath``.
    """
    import gc
    import statistics

    from repro.deploy.quantized import QuantizedHDCModel
    from repro.obs import Observability
    from repro.serve.loadgen import LoadReport, run_load
    from repro.serve.server import ModelServer

    data = load_dataset(dataset, scale=scale, seed=seed)
    model = make_model(
        "disthd", dim=dim, iterations=iterations, seed=seed,
        regen_rate=regen_rate, selection=selection,
        convergence_patience=None,
    )
    model.fit(data.train_x, data.train_y)
    artifact = QuantizedHDCModel(model, bits=bits)

    def run_once(obs: Optional[object]) -> LoadReport:
        tracer = obs.tracer if obs is not None else None  # type: ignore[attr-defined]
        # A clean collector state per run: otherwise garbage piled up by
        # one side's run is paid for by the other side's timing.
        gc.collect()
        with ModelServer(
            artifact, max_batch_size=max_batch_size,
            obs=obs,  # type: ignore[arg-type]
        ) as server:
            return run_load(
                server, data.test_x,
                n_requests=n_requests, concurrency=concurrency,
                rows_per_request=rows_per_request,
                tracer=tracer,
            )

    def best_p95(reports: List[LoadReport]) -> Optional[float]:
        vals = [
            (r.latency_ms() or {}).get("p95") for r in reports
        ]
        cleaned = [float(v) for v in vals if v is not None]
        return min(cleaned) if cleaned else None

    def traced_run() -> LoadReport:
        nonlocal spans_recorded
        obs = Observability(
            sample_rate=1.0, max_spans=max(2048, 8 * n_requests)
        )
        report = run_once(obs)
        spans_recorded = len(obs.tracer.finished())
        return report

    n_rounds = max(1, repeats)
    spans_recorded = 0
    disabled_reports: List[LoadReport] = []
    sampled_reports: List[LoadReport] = []
    pair_ratios: List[float] = []
    pair_p95_deltas: List[float] = []
    for _ in range(n_rounds):
        # Paired round, traced runs boxed inside untraced ones (ABBA):
        # slow drift within the round biases both sides equally.
        a1 = run_once(None)
        b1 = traced_run()
        b2 = traced_run()
        a2 = run_once(None)
        disabled_reports += [a1, a2]
        sampled_reports += [b1, b2]
        round_off = max(a1.throughput_rps, a2.throughput_rps)
        round_on = max(b1.throughput_rps, b2.throughput_rps)
        if round_off > 0:
            pair_ratios.append(round_on / round_off)
        round_off_p95 = best_p95([a1, a2])
        round_on_p95 = best_p95([b1, b2])
        if round_off_p95 and round_on_p95 is not None:
            pair_p95_deltas.append(
                (round_on_p95 - round_off_p95) / round_off_p95
            )

    disabled_rps = max(r.throughput_rps for r in disabled_reports)
    sampled_rps = max(r.throughput_rps for r in sampled_reports)
    disabled_p95 = best_p95(disabled_reports)
    sampled_p95 = best_p95(sampled_reports)
    ratio = statistics.median(pair_ratios) if pair_ratios else None
    p95_delta = (
        statistics.median(pair_p95_deltas) if pair_p95_deltas else None
    )
    overhead = {
        "disabled": {
            "throughput_rps": float(disabled_rps),
            "p95_ms": disabled_p95,
        },
        "sampled": {
            "throughput_rps": float(sampled_rps),
            "p95_ms": sampled_p95,
            "spans_recorded": int(spans_recorded),
        },
        "throughput_ratio": ratio,
        "p95_delta": p95_delta,
        "round_ratios": [round(r, 4) for r in pair_ratios],
        "round_p95_deltas": [round(d, 4) for d in pair_p95_deltas],
        "gate": {
            "throughput_floor": OBS_THROUGHPUT_FLOOR,
            "p95_delta_ceiling": OBS_P95_DELTA_CEILING,
            "gated": n_requests >= OBS_GATE_MIN_REQUESTS,
            "passed": bool(
                n_requests < OBS_GATE_MIN_REQUESTS
                or (
                    ratio is not None
                    and ratio >= OBS_THROUGHPUT_FLOOR
                    and (
                        p95_delta is None
                        or p95_delta <= OBS_P95_DELTA_CEILING
                    )
                )
            ),
        },
    }

    return {
        "scenario": "obs_overhead",
        "dataset": dataset,
        "n_train": int(data.train_x.shape[0]),
        "n_features": int(data.train_x.shape[1]),
        "dim": dim,
        "iterations": iterations,
        "bits": bits,
        "seed": seed,
        "n_requests": n_requests,
        "concurrency": concurrency,
        "rows_per_request": rows_per_request,
        "max_batch_size": max_batch_size,
        "repeats": n_rounds,
        "overhead": overhead,
    }


def run_bench(
    *,
    models: Sequence[str] = DEFAULT_MODELS,
    dataset: str = DEFAULT_DATASET,
    scale: float = DEFAULT_SCALE,
    dim: int = DEFAULT_DIM,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
    repeats: int = 3,
    dtype: Optional[str] = None,
    smoke: bool = False,
    include_sharded: bool = True,
    include_serving: bool = True,
    include_packed: bool = True,
    include_fleet: bool = True,
    include_encode: bool = True,
    include_obs: bool = True,
) -> Dict[str, object]:
    """Run the full bench sweep and return the ``BENCH_*.json`` payload.

    ``smoke=True`` shrinks everything (tiny synthetic dataset, one repeat,
    miniature scenarios) so CI can exercise the harness in seconds.
    """
    if smoke:
        scale, dim, iterations, repeats = 0.02, 64, 3, 1
    data = load_dataset(dataset, scale=scale, seed=seed)
    results: List[Dict[str, object]] = [
        bench_model(
            name, data, dim=dim, iterations=iterations, seed=seed,
            repeats=repeats, dtype=dtype,
        )
        for name in models
    ]
    payload: Dict[str, object] = {
        "schema": 10,
        "created_unix": time.time(),
        "repro_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "backends_available": list(list_backends()),
        "config": {
            "dataset": dataset,
            "scale": scale,
            "dim": dim,
            "iterations": iterations,
            "seed": seed,
            "repeats": repeats,
            "smoke": bool(smoke),
            "backend": get_backend(None).name,
            "dtype": dtype or "float32",
        },
        "results": results,
    }
    scenarios: Dict[str, object] = {}
    if include_sharded:
        if smoke:
            scenarios["sharded_fit"] = bench_sharded_fit(
                scale=0.004, dim=256, iterations=4, n_jobs=2,
                seed=seed, repeats=1,
            )
        else:
            scenarios["sharded_fit"] = bench_sharded_fit(
                seed=seed, repeats=repeats
            )
    if include_serving:
        if smoke:
            scenarios["serving"] = bench_serving(
                scale=0.004, dim=256, iterations=3,
                n_requests=192, concurrency=8, seed=seed,
            )
        else:
            scenarios["serving"] = bench_serving(seed=seed)
    if include_packed:
        if smoke:
            scenarios["packed_vs_int8"] = bench_packed_deploy(
                scale=0.004, dim=256, iterations=3,
                n_score_rows=512, score_repeats=1, seed=seed,
            )
        else:
            scenarios["packed_vs_int8"] = bench_packed_deploy(seed=seed)
    if include_fleet:
        if smoke:
            scenarios["fleet_resilience"] = bench_fleet_resilience(
                scale=0.004, dim=256, iterations=3,
                n_requests=256, concurrency=16, queue_depth=32,
                seed=seed,
            )
        else:
            scenarios["fleet_resilience"] = bench_fleet_resilience(seed=seed)
    if include_encode:
        if smoke:
            # The latency sweep itself is microseconds-cheap, so smoke keeps
            # the committed gate point (D=4096, n=1); only the accuracy-
            # parity training shrinks.
            scenarios["encode_latency"] = bench_encode_latency(
                scale=0.02, dims=(2048, 4096), batch_sizes=(1, 8),
                acc_dim=256, acc_iterations=3, seed=seed, repeats=3,
            )
        else:
            scenarios["encode_latency"] = bench_encode_latency(
                seed=seed, repeats=max(repeats, 5)
            )
    if include_obs:
        if smoke:
            scenarios["obs_overhead"] = bench_obs_overhead(
                scale=0.004, dim=256, iterations=3,
                n_requests=192, concurrency=8, seed=seed, repeats=1,
            )
        else:
            # The paired-median overhead gate needs enough rounds for the
            # median to shrug off scheduler outliers (see the scenario
            # docstring) — never fewer than 5 at full scale.
            scenarios["obs_overhead"] = bench_obs_overhead(
                seed=seed, repeats=max(repeats, 5)
            )
    if scenarios:
        payload["scenarios"] = scenarios
    payload["peak_rss_mb"] = _peak_rss_mb()
    return payload


def write_bench(payload: Dict[str, object], path: Union[str, Path]) -> Path:
    """Write a bench payload as indented JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


def format_bench_table(payload: Dict[str, object]) -> str:
    """A compact human-readable summary of a bench payload."""
    lines = [
        f"{'model':<14} {'dataset':<10} {'fit_s':>9} {'predict_s':>10} "
        f"{'encode_s':>9} {'test_acc':>9}"
    ]
    for row in payload["results"]:
        lines.append(
            f"{row['model']:<14} {row['dataset']:<10} "
            f"{row['fit_s']:>9.4f} {row['predict_s']:>10.4f} "
            f"{row.get('encode_s', float('nan')):>9.4f} "
            f"{row['test_acc']:>9.3f}"
        )
    scenarios = payload.get("scenarios") or {}
    sharded = scenarios.get("sharded_fit")
    if sharded is not None:
        speedup = sharded["fit_speedup_vs_single"]
        lines.append(
            f"sharded fit ({sharded['dataset']}, D={sharded['dim']}, "
            f"n_jobs={sharded['n_jobs']}, shards={sharded['n_shards']}): "
            f"{sharded['sharded_fit_s']:.4f}s vs single "
            f"{sharded['single_fit_s']:.4f}s "
            # None when the sharded fit timed at 0s (clock too coarse).
            f"→ speedup {'n/a' if speedup is None else f'{speedup:.2f}x'}  "
            f"(acc {sharded['sharded_test_acc']:.3f} / "
            f"{sharded['single_test_acc']:.3f})"
        )
    serving = scenarios.get("serving")
    if serving is not None:
        speedup = serving["throughput_speedup_vs_direct"]
        batched = serving["batched"]
        latency = batched.get("latency_ms") or {}
        lines.append(
            f"serving ({serving['dataset']}, D={serving['dim']}, "
            f"c={serving['concurrency']}, batch<={serving['max_batch_size']}):"
            f" {batched['throughput_rps']:.0f} rps vs direct "
            f"{serving['direct']['throughput_rps']:.0f} rps "
            f"→ speedup {'n/a' if speedup is None else f'{speedup:.2f}x'}  "
            f"(p95 {latency.get('p95', float('nan')):.2f} ms, "
            f"mean batch {serving.get('mean_batch_size') or float('nan'):.1f})"
        )
        swap = serving.get("swap")
        if swap is not None:
            lines.append(
                f"hot-swap under load: {swap['n_swaps']} swap(s), "
                f"{swap['failed_requests']} failed request(s), "
                f"parity {'ok' if swap['parity_ok'] else 'MISMATCH'}"
            )
    packed = scenarios.get("packed_vs_int8")
    if packed is not None:
        fp = packed["footprints"]
        scoring = packed["scoring"]
        parity = packed["parity"]
        speedup = scoring["score_speedup_vs_int"]
        lines.append(
            f"packed deploy ({packed['dataset']}, D={packed['dim']}): "
            f"{fp['packed_bytes']} B vs int8 {fp['int8_bytes']} B "
            f"({fp['compression_vs_unpacked']:.0f}x vs unpacked 1-bit "
            f"serving)"
        )
        lines.append(
            f"packed scorer: {scoring['packed_score_s']:.4f}s vs "
            f"unpacked 1-bit {scoring['int1_score_s']:.4f}s → speedup "
            f"{'n/a' if speedup is None else f'{speedup:.2f}x'}  "
            f"(parity {'exact' if parity['scores_bit_identical'] else 'MISMATCH'}, "
            f"acc delta {parity['accuracy_delta']:+.4f})"
        )
    fleet = scenarios.get("fleet_resilience")
    if fleet is not None:
        steady = fleet["steady_state"]
        scaling = steady["throughput_scaling"]
        one = steady["workers_1"]
        many = steady[f"workers_{fleet['n_workers']}"]
        lines.append(
            f"fleet ({fleet['dataset']}, D={fleet['dim']}, "
            f"c={fleet['concurrency']}, floor="
            f"{fleet['service_floor_ms']:g} ms): "
            f"{many['throughput_rps']:.0f} rps @ {fleet['n_workers']} "
            f"workers vs {one['throughput_rps']:.0f} rps @ 1 "
            f"→ scaling {'n/a' if scaling is None else f'{scaling:.2f}x'}"
        )
    encode = scenarios.get("encode_latency")
    if encode is not None:
        gate = encode["gate"]
        acc = encode["accuracy"]
        speedup = gate["speedup"]
        exact = all(
            e["float64_bit_identical"] and e["float32_ok"]
            for e in encode["fwht_exactness"]
        )
        lines.append(
            f"encode latency ({encode['dataset']}, q={encode['n_features']}"
            f"→block {encode['block']}): fastfood vs dense RBF @ "
            f"D={gate['dim']}, n={gate['batch']} → speedup "
            f"{'n/a' if speedup is None else f'{speedup:.2f}x'} "
            f"(floor {gate['floor']:.1f}x, "
            f"{'pass' if gate['passed'] else 'FAIL'}); "
            f"FWHT {'exact' if exact else 'INEXACT'} vs naive H"
        )
        verdict = ("not gated" if acc["passed"] is None
                   else "pass" if acc["passed"] else "FAIL")
        lines.append(
            f"encode accuracy parity @ D={acc['dim']} "
            f"({len(acc['per_seed'])} seeds): fastfood "
            f"{acc['fastfood_acc']:.3f} vs rbf {acc['rbf_acc']:.3f} "
            f"(mean delta {acc['delta']:+.4f}, tol {acc['tolerance']:.2f}, "
            f"{verdict})"
        )
    obs = scenarios.get("obs_overhead")
    if obs is not None:
        over = obs["overhead"]
        ratio = over["throughput_ratio"]
        delta = over["p95_delta"]
        gate = over["gate"]
        lines.append(
            f"obs overhead ({obs['dataset']}, D={obs['dim']}, "
            f"c={obs['concurrency']}, sample 1.0 vs off): throughput "
            f"{'n/a' if ratio is None else f'{ratio:.3f}x'} "
            f"(floor {gate['throughput_floor']:.2f}), p95 "
            f"{'n/a' if delta is None else f'{delta:+.1%}'} "
            f"(ceiling +{gate['p95_delta_ceiling']:.0%}"
            f"{'' if gate['gated'] else ', not gated at smoke scale'}) "
            f"→ {'pass' if gate['passed'] else 'FAIL'}"
        )
    return "\n".join(lines)

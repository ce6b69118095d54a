"""Perf-smoke regression gate — ``python benchmarks/check_regression.py``.

Compares a freshly generated ``repro bench --smoke`` payload against the
committed baseline (``benchmarks/baselines/bench-smoke-baseline.json``)::

    PYTHONPATH=src python -m repro.cli bench --smoke --output bench-smoke.json
    python benchmarks/check_regression.py bench-smoke.json

``--factor`` (default 2.0) is a deliberately generous margin: CI runners
are noisy and heterogeneous, and the gate exists to catch order-of-
magnitude hot-path regressions, not 10% drift.  Baseline-relative checks
apply only when both payloads carry the record.  One comparator per
section:

- ``models`` — each model's ``fit_s`` and ``predict_s`` against the
  baseline;
- ``serving`` — batched p95 growth and throughput collapse against the
  baseline; zero failed requests across the hot-swap and exact
  post-swap parity;
- ``packed_vs_int8`` — packed scores bit-identical to the unpacked
  binary reference (accuracy delta exactly 0); packed scorer-stage time
  against the baseline;
- ``fleet_resilience`` — steady-state scaling of at least
  ``MIN_FLEET_SCALING`` at >= 4 workers with flat p95; n-worker
  throughput against the baseline;
- ``encode_latency`` — FWHT exactness, dense/structured accuracy parity
  and the ``MIN_ENCODE_SPEEDUP`` single-sample floor at
  ``D >= ENCODE_GATE_DIM``; structured encode time against the baseline;
- ``obs_overhead`` — traced/untraced throughput ratio of at least
  ``MIN_OBS_THROUGHPUT_RATIO``; traced throughput against the baseline.

Every comparator section is isolated: a malformed section reports itself
as a failure and the remaining sections still run, so one bad record
cannot mask other regressions.

Exit codes: 0 ok, 1 regression detected, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = (
    Path(__file__).resolve().parent / "baselines" / "bench-smoke-baseline.json"
)

#: Timing fields gated per model record.
TIMING_FIELDS = ("fit_s", "predict_s")

#: Noise floor in seconds.  Smoke timings can be sub-millisecond, where
#: scheduler jitter on a shared runner routinely exceeds any fixed ratio;
#: ratios are therefore taken against max(baseline, floor) and a slowdown
#: only counts when the current time itself clears the floor.  This keeps
#: the gate sensitive to order-of-magnitude hot-path regressions (the
#: thing it exists to catch) while immune to microbenchmark noise.
MIN_GATED_SECONDS = 5e-3


#: Noise floor for serving p95 latency (milliseconds): micro-batched smoke
#: latencies are a few batch computes long, where jitter dominates ratios.
MIN_GATED_LATENCY_MS = 5.0

#: Minimum multi-worker throughput scaling the fleet scenario must show
#: at >= 4 workers (the committed scenario runs 4): anything below means
#: the shared-memory fan-out stopped overlapping service time.
MIN_FLEET_SCALING = 3.0

#: Minimum single-sample structured-encode speedup over the dense RBF
#: path, enforced when the scenario's gate point sits at (or above) the
#: headline dimension.  Speedups are same-process ratios of back-to-back
#: measurements, so they stay meaningful even where the absolute
#: microsecond timings sit below MIN_GATED_SECONDS.
MIN_ENCODE_SPEEDUP = 4.0

#: Headline dimension the encode speedup floor is committed at; smaller
#: gate points (ad-hoc runs) record their speedup but are not floored.
ENCODE_GATE_DIM = 4096

#: Minimum fully-traced / untraced throughput ratio the obs scenario must
#: keep in CI.  The committed scenario gate is 0.95 (recorded in the
#: payload, binding only at full scale); this floor is deliberately much
#: looser because smoke-scale runs serve ~microsecond requests where a
#: handful of slow batches swings the ratio by tens of percent — it
#: exists to catch tracing becoming *order-of-magnitude* expensive, not
#: to re-litigate drift.
MIN_OBS_THROUGHPUT_RATIO = 0.5


def _serving_scenario(payload: dict) -> dict:
    return (payload.get("scenarios") or {}).get("serving") or {}


def compare_serving(current: dict, baseline: dict, factor: float) -> list:
    """Gate the serving scenario: p95 latency growth + throughput collapse."""
    problems = []
    now, then = _serving_scenario(current), _serving_scenario(baseline)
    if not now or not then:
        return problems  # scenario absent on either side: nothing to gate
    now_batched, then_batched = now.get("batched", {}), then.get("batched", {})
    now_p95 = ((now_batched.get("latency_ms") or {}).get("p95"))
    then_p95 = ((then_batched.get("latency_ms") or {}).get("p95"))
    # None-checks, not truthiness: a measured 0.0 (e.g. every request
    # failed instantly) is exactly the collapse this gate exists to catch.
    if now_p95 is not None and then_p95 is not None:
        now_p95, then_p95 = float(now_p95), float(then_p95)
        ratio = now_p95 / max(then_p95, MIN_GATED_LATENCY_MS)
        if now_p95 > MIN_GATED_LATENCY_MS and ratio > factor:
            # Report the true growth; the gate ratio is computed against
            # the noise-floored baseline and would understate it.
            growth = now_p95 / max(then_p95, 1e-9)
            problems.append(
                f"serving.batched.p95: {now_p95:.2f}ms vs baseline "
                f"{then_p95:.2f}ms ({growth:.2f}x growth; floored gate "
                f"ratio {ratio:.2f}x > {factor:.1f}x allowed)"
            )
    now_rps = now_batched.get("throughput_rps")
    then_rps = then_batched.get("throughput_rps")
    if (
        now_rps is not None
        and then_rps is not None
        and float(now_rps) < float(then_rps) / factor
    ):
        problems.append(
            f"serving.batched.throughput: {float(now_rps):.0f} rps vs "
            f"baseline {float(then_rps):.0f} rps "
            f"(> {factor:.1f}x slower)"
        )
    swap = now.get("swap")
    if swap is not None:
        if swap.get("failed_requests"):
            problems.append(
                f"serving.swap dropped {swap['failed_requests']} request(s)"
            )
        if swap.get("parity_ok") is False:
            problems.append("serving.swap post-swap parity mismatch")
    return problems


def _packed_scenario(payload: dict) -> dict:
    return (payload.get("scenarios") or {}).get("packed_vs_int8") or {}


def compare_packed(current: dict, baseline: dict, factor: float) -> list:
    """Gate the packed-deploy scenario: exact parity + scorer timing."""
    problems = []
    now = _packed_scenario(current)
    if not now:
        return problems  # scenario absent: nothing to gate
    parity = now.get("parity") or {}
    # Parity is an absolute property of the packed kernels — gated on the
    # current payload alone, no baseline needed.
    if parity.get("scores_bit_identical") is False:
        problems.append(
            "packed_vs_int8.parity: packed scores diverge from the "
            "unpacked binary reference"
        )
    if parity.get("accuracy_delta") not in (None, 0, 0.0):
        problems.append(
            f"packed_vs_int8.parity: accuracy delta "
            f"{parity['accuracy_delta']} != 0"
        )
    then = _packed_scenario(baseline)
    now_s = (now.get("scoring") or {}).get("packed_score_s")
    then_s = (then.get("scoring") or {}).get("packed_score_s")
    if now_s is not None and then_s is not None:
        now_s, then_s = float(now_s), float(then_s)
        ratio = now_s / max(then_s, MIN_GATED_SECONDS)
        if now_s > MIN_GATED_SECONDS and ratio > factor:
            problems.append(
                f"packed_vs_int8.scoring.packed_score_s: {now_s:.4f}s vs "
                f"baseline {then_s:.4f}s ({ratio:.2f}x > {factor:.1f}x "
                f"allowed)"
            )
    return problems


def _fleet_scenario(payload: dict) -> dict:
    return (payload.get("scenarios") or {}).get("fleet_resilience") or {}


def compare_fleet(current: dict, baseline: dict, factor: float) -> list:
    """Gate the fleet scenario: worker scaling at flat p95."""
    problems = []
    now = _fleet_scenario(current)
    if not now:
        return problems  # scenario absent: nothing to gate
    # Scaling is an absolute property of the fleet — gated on the current
    # payload alone, no baseline needed.
    steady = now.get("steady_state") or {}
    scaling = steady.get("throughput_scaling")
    n_workers = int(now.get("n_workers") or 0)
    if scaling is not None and n_workers >= 4 and (
        float(scaling) < MIN_FLEET_SCALING
    ):
        problems.append(
            f"fleet_resilience.steady_state.throughput_scaling: "
            f"{float(scaling):.2f}x at {n_workers} workers "
            f"(< {MIN_FLEET_SCALING:.1f}x required)"
        )
    p95_ratio = steady.get("p95_ratio_vs_single")
    if p95_ratio is not None and float(p95_ratio) > factor:
        problems.append(
            f"fleet_resilience.steady_state.p95_ratio_vs_single: "
            f"{float(p95_ratio):.2f}x (> {factor:.1f}x allowed — p95 must "
            f"stay flat as workers are added)"
        )
    # Baseline-relative: n-worker steady-state throughput collapse.
    then = _fleet_scenario(baseline)
    now_rps = ((steady.get(f"workers_{n_workers}") or {})
               .get("throughput_rps"))
    then_steady = then.get("steady_state") or {}
    then_rps = ((then_steady.get(f"workers_{n_workers}") or {})
                .get("throughput_rps"))
    if (
        now_rps is not None
        and then_rps is not None
        and float(now_rps) < float(then_rps) / factor
    ):
        problems.append(
            f"fleet_resilience.steady_state.workers_{n_workers}."
            f"throughput: {float(now_rps):.0f} rps vs baseline "
            f"{float(then_rps):.0f} rps (> {factor:.1f}x slower)"
        )
    return problems


def _encode_scenario(payload: dict) -> dict:
    return (payload.get("scenarios") or {}).get("encode_latency") or {}


def compare_encode(current: dict, baseline: dict, factor: float) -> list:
    """Gate the encode-latency scenario: exactness, parity, speedup floor."""
    problems = []
    now = _encode_scenario(current)
    if not now:
        return problems  # scenario absent: nothing to gate
    # Exactness and accuracy parity are absolute properties of the FWHT
    # kernel and the structured encoder — gated on the current payload
    # alone, no baseline needed.
    for entry in now.get("fwht_exactness") or []:
        if entry.get("float64_bit_identical") is False:
            problems.append(
                f"encode_latency.fwht_exactness: m={entry.get('m')} float64 "
                f"transform diverges from the naive Hadamard matmul"
            )
        if entry.get("float32_ok") is False:
            problems.append(
                f"encode_latency.fwht_exactness: m={entry.get('m')} float32 "
                f"error {entry.get('float32_max_abs_err')} exceeds bound "
                f"{entry.get('float32_tol')}"
            )
    acc = now.get("accuracy") or {}
    if acc.get("passed") is False:
        problems.append(
            f"encode_latency.accuracy: fastfood vs rbf delta "
            f"{acc.get('delta')} outside ±{acc.get('tolerance')} at "
            f"D={acc.get('dim')}"
        )
    gate = now.get("gate") or {}
    speedup = gate.get("speedup")
    gate_dim = gate.get("dim")
    if (
        speedup is not None
        and gate_dim is not None
        and int(gate_dim) >= ENCODE_GATE_DIM
        and float(speedup) < MIN_ENCODE_SPEEDUP
    ):
        problems.append(
            f"encode_latency.gate: single-sample speedup "
            f"{float(speedup):.2f}x at D={gate_dim} "
            f"(< {MIN_ENCODE_SPEEDUP:.1f}x floor)"
        )
    # Baseline-relative: the structured encode time at the gate point.
    then = _encode_scenario(baseline)

    def _gate_point_fastfood_s(payload_scenario: dict):
        g = payload_scenario.get("gate") or {}
        for entry in payload_scenario.get("timings") or []:
            if entry.get("dim") != g.get("dim"):
                continue
            for row in entry.get("batches") or []:
                if row.get("batch") == g.get("batch"):
                    return row.get("fastfood_s")
        return None

    now_s = _gate_point_fastfood_s(now)
    then_s = _gate_point_fastfood_s(then)
    if now_s is not None and then_s is not None:
        now_s, then_s = float(now_s), float(then_s)
        ratio = now_s / max(then_s, MIN_GATED_SECONDS)
        if now_s > MIN_GATED_SECONDS and ratio > factor:
            problems.append(
                f"encode_latency.fastfood_s: {now_s:.4f}s vs baseline "
                f"{then_s:.4f}s ({ratio:.2f}x > {factor:.1f}x allowed)"
            )
    return problems


def _obs_scenario(payload: dict) -> dict:
    return (payload.get("scenarios") or {}).get("obs_overhead") or {}


def compare_obs(current: dict, baseline: dict, factor: float) -> list:
    """Gate the obs scenario: tracing overhead."""
    problems = []
    now = _obs_scenario(current)
    if not now:
        return problems  # scenario absent: nothing to gate
    overhead = now.get("overhead") or {}
    ratio = overhead.get("throughput_ratio")
    if ratio is not None and float(ratio) < MIN_OBS_THROUGHPUT_RATIO:
        problems.append(
            f"obs_overhead.throughput_ratio: {float(ratio):.3f}x traced vs "
            f"untraced (< {MIN_OBS_THROUGHPUT_RATIO:.2f}x floor — full "
            f"tracing became expensive)"
        )
    # Baseline-relative: traced throughput collapse.
    then = _obs_scenario(baseline)
    now_rps = (overhead.get("sampled") or {}).get("throughput_rps")
    then_rps = (
        ((then.get("overhead") or {}).get("sampled") or {})
        .get("throughput_rps")
    )
    if (
        now_rps is not None
        and then_rps is not None
        and float(now_rps) < float(then_rps) / factor
    ):
        problems.append(
            f"obs_overhead.sampled.throughput: {float(now_rps):.0f} rps vs "
            f"baseline {float(then_rps):.0f} rps (> {factor:.1f}x slower)"
        )
    return problems


def compare_models(current: dict, baseline: dict, factor: float,
                   floor: float = MIN_GATED_SECONDS) -> list:
    """Gate per-model fit/predict timings against the baseline records."""
    problems = []
    base_by_model = {r["model"]: r for r in baseline.get("results", [])}
    for record in current.get("results", []):
        name = record["model"]
        base = base_by_model.get(name)
        if base is None:
            continue  # new model: nothing to gate against yet
        for field in TIMING_FIELDS:
            now, then = record.get(field), base.get(field)
            if not now or not then:
                continue
            now, then = float(now), float(then)
            ratio = now / max(then, floor)
            if now > floor and ratio > factor:
                problems.append(
                    f"{name}.{field}: {now:.4f}s vs baseline {then:.4f}s "
                    f"({ratio:.2f}x > {factor:.1f}x allowed)"
                )
    return problems


#: Comparator sections, run in order.  Each is isolated so a malformed
#: record in one section cannot abort the run and mask failures in the
#: others — all gate failures surface in a single invocation.
SECTIONS = (
    ("models", compare_models),
    ("serving", compare_serving),
    ("packed_vs_int8", compare_packed),
    ("fleet_resilience", compare_fleet),
    ("encode_latency", compare_encode),
    ("obs_overhead", compare_obs),
)


def compare(current: dict, baseline: dict, factor: float) -> list:
    """Return a list of human-readable regression messages (empty = ok)."""
    problems = []
    for section, comparator in SECTIONS:
        try:
            problems.extend(comparator(current, baseline, factor))
        except Exception as exc:  # noqa: BLE001 - a broken section is itself
            # a gate failure; keep checking the remaining sections.
            problems.append(
                f"{section}: comparator crashed on malformed payload "
                f"({type(exc).__name__}: {exc})"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly generated smoke JSON")
    parser.add_argument(
        "baseline", nargs="?", default=str(DEFAULT_BASELINE),
        help="committed baseline JSON (default: benchmarks/baselines/)",
    )
    parser.add_argument(
        "--factor", type=float, default=2.0,
        help="max allowed slowdown ratio per timing field (default 2.0)",
    )
    args = parser.parse_args(argv)
    try:
        current = json.loads(Path(args.current).read_text())
        baseline = json.loads(Path(args.baseline).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_regression: cannot read payloads: {exc}", file=sys.stderr)
        return 2
    # Scenario-only payloads (e.g. a standalone fleet_resilience bench)
    # are valid input; a payload with *neither* results nor scenarios is
    # malformed.
    for label, payload in (("current", current), ("baseline", baseline)):
        if not payload.get("results") and not payload.get("scenarios"):
            print(
                f"check_regression: {label} payload has neither 'results' "
                f"nor 'scenarios'",
                file=sys.stderr,
            )
            return 2
    problems = compare(current, baseline, args.factor)
    if problems:
        print("perf-smoke regression detected:")
        for p in problems:
            print(f"  - {p}")
        return 1
    compared = sum(
        1 for r in current.get("results", [])
        if r["model"] in {b["model"] for b in baseline.get("results", [])}
    )
    gated_scenarios = sorted(
        s for s in (current.get("scenarios") or {})
        if any(s == name for name, _ in SECTIONS)
    )
    print(
        f"perf-smoke ok: {compared} model(s) within {args.factor:.1f}x "
        f"of the committed baseline"
        + (f"; scenarios gated: {', '.join(gated_scenarios)}"
           if gated_scenarios else "")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

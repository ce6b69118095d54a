"""Tests for repro.perf and the ``repro bench`` CLI subcommand."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.datasets.loaders import load_dataset
from repro.perf import (
    bench_model,
    format_bench_table,
    run_bench,
    write_bench,
)


@pytest.fixture(scope="module")
def tiny_dataset():
    return load_dataset("diabetes", scale=0.01, seed=0)


@pytest.fixture(scope="module")
def compare():
    """``compare`` from ``benchmarks/check_regression.py``, a script."""
    path = (
        Path(__file__).resolve().parents[1] / "benchmarks"
        / "check_regression.py"
    )
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare


class TestBenchModel:
    def test_record_fields(self, tiny_dataset):
        record = bench_model(
            "disthd", tiny_dataset, dim=32, iterations=2, repeats=1
        )
        for key in ("fit_s", "predict_s", "encode_s", "test_acc"):
            assert key in record, key
            assert record[key] >= 0.0
        assert record["model"] == "disthd"
        assert record["dtype"] == "float32"
        assert record["backend"] == "numpy"

    def test_dtype_override(self, tiny_dataset):
        record = bench_model(
            "disthd", tiny_dataset, dim=32, iterations=2, repeats=1,
            dtype="float64",
        )
        assert record["dtype"] == "float64"


class TestRunBench:
    def test_smoke_payload(self):
        payload = run_bench(models=("disthd",), smoke=True)
        assert payload["schema"] == 10
        assert payload["config"]["smoke"] is True
        assert [r["model"] for r in payload["results"]] == ["disthd"]
        scenarios = payload["scenarios"]
        assert set(scenarios) == {
            "sharded_fit", "serving", "packed_vs_int8",
            "fleet_resilience", "encode_latency", "obs_overhead",
        }
        # The retired drills run as tier-1 tests and in CI's repro chaos
        # step, not here.
        assert "serving" not in scenarios["packed_vs_int8"]
        assert "chaos_kill" not in scenarios["fleet_resilience"]
        assert "crash_loop" not in scenarios["fleet_resilience"]
        assert "chaos" not in scenarios["obs_overhead"]
        sharded = scenarios["sharded_fit"]
        assert sharded["single_fit_s"] > 0.0
        assert sharded["sharded_fit_s"] > 0.0
        assert sharded["n_jobs"] == 2 and sharded["n_shards"] == 2
        serving = scenarios["serving"]
        assert serving["batched"]["n_failed"] == 0
        assert serving["direct"]["throughput_rps"] > 0
        assert serving["swap"]["n_swaps"] >= 1
        assert serving["swap"]["parity_ok"] is True
        packed = scenarios["packed_vs_int8"]
        assert packed["parity"]["scores_bit_identical"] is True
        assert packed["parity"]["accuracy_delta"] == 0.0
        assert packed["footprints"]["compression_vs_unpacked"] >= 32
        fleet = scenarios["fleet_resilience"]
        assert fleet["steady_state"]["throughput_scaling"] > 0
        encode = scenarios["encode_latency"]
        assert all(e["float64_bit_identical"] for e in encode["fwht_exactness"])
        assert encode["gate"]["speedup"] > 0
        # Smoke trains parity at D=256 < the gate dim, so the delta is
        # informational only.
        assert encode["accuracy"]["passed"] is None
        assert isinstance(encode["accuracy"]["delta"], float)
        obs = scenarios["obs_overhead"]
        assert obs["overhead"]["throughput_ratio"] > 0
        # Smoke request counts sit below OBS_GATE_MIN_REQUESTS, so the
        # overhead ratios are informational and the gate always passes.
        assert obs["overhead"]["gate"]["gated"] is False
        assert obs["overhead"]["gate"]["passed"] is True
        table = format_bench_table(payload)
        assert "obs overhead" in table
        # The payload must be JSON-serialisable as-is.
        json.dumps(payload)

    def test_no_fleet(self):
        payload = run_bench(
            models=("disthd",), smoke=True, include_fleet=False,
            include_obs=False,
        )
        assert "fleet_resilience" not in payload["scenarios"]
        assert "obs_overhead" not in payload["scenarios"]

    def test_format_table(self):
        payload = run_bench(
            models=("disthd",), smoke=True, include_fleet=False,
            include_obs=False,
        )
        table = format_bench_table(payload)
        assert "disthd" in table
        assert "speedup" in table

    def test_write_bench(self, tmp_path):
        payload = run_bench(models=("disthd",), smoke=True,
                            include_fleet=False, include_obs=False)
        path = write_bench(payload, tmp_path / "bench.json")
        restored = json.loads(path.read_text())
        assert restored["results"][0]["model"] == "disthd"


class TestBenchCLI:
    def test_bench_smoke_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_test.json"
        code = main(
            ["bench", "--smoke", "--models", "disthd", "--no-fleet",
             "--no-obs", "--output", str(out)]
        )
        assert code == 0
        assert out.exists()
        payload = json.loads(out.read_text())
        assert payload["config"]["smoke"] is True
        captured = capsys.readouterr().out
        assert "disthd" in captured and "wrote" in captured


class TestTrackedBaseline:
    def test_bench_pr2_json_is_committed_and_meets_target(self):
        """The acceptance artifact: ≥1.5x fit speedup vs the float64 path."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "BENCH_pr2.json"
        assert path.exists(), "BENCH_pr2.json missing from repo root"
        payload = json.loads(path.read_text())
        assert payload["fit_speedup_vs_legacy"] >= 1.5
        models = {r["model"] for r in payload["results"]}
        assert "disthd" in models


class TestTrackedBaselinePr3:
    def test_bench_pr3_json_is_committed_and_meets_target(self):
        """PR-3 acceptance artifact: ≥1.3x regen-heavy fit speedup over the
        PR-2 path at equal accuracy, with the fused Algorithm-2 scoring peak
        far below one dense (n, D) distance matrix."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "BENCH_pr3.json"
        assert path.exists(), "BENCH_pr3.json missing from repo root"
        payload = json.loads(path.read_text())
        assert payload["schema"] == 2  # committed before schema 3
        scenario = payload["scenarios"]["regen_heavy"]
        assert scenario["dim"] >= 4096
        assert scenario["fit_speedup_vs_pr2"] >= 1.3
        assert abs(
            scenario["test_acc"] - scenario["pr2_reference"]["test_acc"]
        ) <= 0.02
        scoring = scenario["fused_scoring"]
        assert scoring["peak_bytes"] < 0.5 * scoring["dense_matrix_bytes"]


class TestTrackedBaselinePr4:
    def test_bench_pr4_json_is_committed_and_meets_target(self):
        """PR-4 acceptance artifact: ≥1.5x fit wall-clock speedup at
        n_jobs=4 on the regen-heavy scenario, accuracy within 1 point of
        the single-process fit at the same seed."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "BENCH_pr4.json"
        assert path.exists(), "BENCH_pr4.json missing from repo root"
        payload = json.loads(path.read_text())
        assert payload["schema"] == 3
        scenario = payload["scenarios"]["sharded_fit"]
        assert scenario["dim"] >= 4096
        assert scenario["n_jobs"] >= 4
        assert scenario["fit_speedup_vs_single"] >= 1.5
        assert abs(
            scenario["sharded_test_acc"] - scenario["single_test_acc"]
        ) <= 0.01


class TestTrackedBaselinePr5:
    def test_bench_pr5_json_is_committed_and_meets_target(self):
        """PR-5 acceptance artifact: ≥3x micro-batched throughput vs
        per-request predict at concurrency 32 on the regen-heavy serving
        scenario, with a hot-swap under load dropping zero requests and
        exact post-swap parity."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "BENCH_pr5.json"
        assert path.exists(), "BENCH_pr5.json missing from repo root"
        payload = json.loads(path.read_text())
        assert payload["schema"] == 4
        scenario = payload["scenarios"]["serving"]
        assert scenario["dim"] >= 4096
        assert scenario["concurrency"] >= 32
        assert scenario["throughput_speedup_vs_direct"] >= 3.0
        assert scenario["batched"]["n_failed"] == 0
        swap = scenario["swap"]
        assert swap["n_swaps"] >= 1
        assert swap["failed_requests"] == 0
        assert swap["parity_ok"] is True


class TestTrackedBaselinePr7:
    def test_bench_pr7_json_is_committed_and_meets_target(self):
        """PR-7 acceptance artifact: the packed scorer stage ≥4x faster
        than the unpacked 1-bit scorer at D=4096, bit-identical to the
        unpacked binary reference (accuracy delta exactly 0), the packed
        artifact ≤1/32 the bytes of the unpacked 1-bit serving image, and
        the packed hot-swap under load dropping zero requests."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "BENCH_pr7.json"
        assert path.exists(), "BENCH_pr7.json missing from repo root"
        payload = json.loads(path.read_text())
        assert payload["schema"] == 5
        scenario = payload["scenarios"]["packed_vs_int8"]
        assert scenario["dim"] >= 4096
        assert scenario["scoring"]["score_speedup_vs_int"] >= 4.0
        parity = scenario["parity"]
        assert parity["scores_bit_identical"] is True
        assert parity["predictions_equal"] is True
        assert parity["accuracy_delta"] == 0.0
        footprints = scenario["footprints"]
        assert footprints["compression_vs_unpacked"] >= 32.0
        assert (
            footprints["packed_bytes"]
            <= footprints["unpacked_1bit_serving_bytes"] / 32
        )
        serving = scenario["serving"]
        assert serving["n_swaps"] >= 1
        assert serving["failed_requests"] == 0
        assert serving["served_packed_after_swap"] is True
        assert serving["parity_ok"] is True


class TestTrackedBaselinePr8:
    def test_bench_pr8_json_is_committed_and_meets_target(self):
        """PR-8 acceptance artifact: ≥3x steady-state throughput at 4
        workers vs 1 at flat p95, the SIGKILL drill survived with zero
        failed (non-shed) requests and sub-2s recovery, and the
        crash-loop circuit breaker tripped."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "BENCH_pr8.json"
        assert path.exists(), "BENCH_pr8.json missing from repo root"
        payload = json.loads(path.read_text())
        assert payload["schema"] == 6
        scenario = payload["scenarios"]["fleet_resilience"]
        assert scenario["n_workers"] >= 4
        steady = scenario["steady_state"]
        assert steady["throughput_scaling"] >= 3.0
        assert steady["p95_ratio_vs_single"] <= 1.5
        kill = scenario["chaos_kill"]
        assert kill["outcomes"]["failed"] == 0
        assert kill["survived"] is True
        assert kill["recovery_s"] is not None
        assert kill["recovery_s"] <= 2.0
        assert sum(kill["restarts"]) >= 1
        assert scenario["crash_loop"]["tripped"] is True


class TestPackedDeployScenario:
    def test_miniature_scenario_record(self):
        from repro.perf import bench_packed_deploy

        rec = bench_packed_deploy(
            scale=0.003, dim=100, iterations=2,
            n_score_rows=64, score_repeats=1,
        )
        assert rec["scenario"] == "packed_vs_int8"
        fp = rec["footprints"]
        # D=100 pads to two uint64 words per class.
        assert fp["words_per_class"] == 2
        assert fp["packed_bytes"] < fp["int8_bytes"]
        assert rec["scoring"]["packed_score_s"] > 0
        assert rec["parity"]["scores_bit_identical"] is True
        assert rec["parity"]["predictions_equal"] is True
        assert rec["parity"]["accuracy_delta"] == 0.0
        json.dumps(rec)


class TestServingScenario:
    def test_miniature_scenario_record(self):
        from repro.perf import bench_serving

        rec = bench_serving(
            scale=0.003, dim=96, iterations=2,
            n_requests=64, concurrency=4,
        )
        assert rec["scenario"] == "serving"
        assert rec["direct"]["throughput_rps"] > 0
        assert rec["batched"]["throughput_rps"] > 0
        assert rec["batched"]["n_failed"] == 0
        assert rec["throughput_speedup_vs_direct"] > 0
        assert rec["mean_batch_size"] >= 1
        assert rec["swap"]["n_swaps"] >= 1
        assert rec["swap"]["parity_ok"] is True
        json.dumps(rec)

    def test_no_swap_mode(self):
        from repro.perf import bench_serving

        rec = bench_serving(
            scale=0.003, dim=96, iterations=2,
            n_requests=48, concurrency=4, swap=False,
        )
        assert "swap" not in rec
        assert rec["batched"]["n_failed"] == 0


class TestFleetResilienceScenario:
    def test_miniature_scenario_record(self):
        from repro.perf import bench_fleet_resilience

        rec = bench_fleet_resilience(
            scale=0.003, dim=96, iterations=2,
            n_requests=48, concurrency=4,
            n_workers=2, queue_depth=16, service_floor_ms=1.0,
        )
        assert rec["scenario"] == "fleet_resilience"
        steady = rec["steady_state"]
        assert steady["workers_1"]["throughput_rps"] > 0
        assert steady["workers_2"]["throughput_rps"] > 0
        assert steady["throughput_scaling"] > 0
        json.dumps(rec)


class TestShardedFitScenario:
    def test_miniature_scenario_record(self):
        from repro.perf import bench_sharded_fit

        rec = bench_sharded_fit(
            scale=0.002, dim=128, iterations=2, n_jobs=2, repeats=1
        )
        assert rec["scenario"] == "sharded_fit"
        assert rec["single_fit_s"] > 0 and rec["sharded_fit_s"] > 0
        assert rec["fit_speedup_vs_single"] > 0
        assert rec["n_jobs"] == 2 and rec["n_shards"] == 2
        assert -1.0 <= rec["acc_delta"] <= 1.0
        json.dumps(rec)


class TestEncodeLatencyScenario:
    def test_miniature_scenario_record(self):
        from repro.perf import bench_encode_latency

        rec = bench_encode_latency(
            scale=0.003, dims=(512, 1024), batch_sizes=(1, 4),
            gate_dim=1024, acc_dim=128, acc_iterations=2, acc_seeds=2,
            repeats=2,
        )
        assert rec["scenario"] == "encode_latency"
        assert all(e["float64_bit_identical"] for e in rec["fwht_exactness"])
        assert all(e["float32_ok"] for e in rec["fwht_exactness"])
        assert [t["dim"] for t in rec["timings"]] == [512, 1024]
        for timing in rec["timings"]:
            for point in timing["batches"]:
                assert point["dense_rbf_s"] > 0
                assert point["fastfood_s"] > 0
                assert point["speedup"] > 0
            # O(D) structured parameters vs O(F·D) dense projection.
            assert (
                timing["structured_param_floats"]
                < timing["dense_param_floats"]
            )
        assert rec["gate"]["dim"] == 1024
        acc = rec["accuracy"]
        assert acc["passed"] is None  # below the gate dim: informational
        assert len(acc["per_seed"]) == 2
        assert acc["delta"] == pytest.approx(
            sum(r["delta"] for r in acc["per_seed"]) / 2
        )
        json.dumps(rec)


class TestCheckRegression:
    def _payload(self, fit, predict):
        return {
            "results": [
                {"model": "disthd", "fit_s": fit, "predict_s": predict}
            ]
        }

    def test_within_margin_passes(self, compare):
        base = self._payload(0.1, 0.01)
        assert compare(self._payload(0.19, 0.019), base, 2.0) == []
        problems = compare(self._payload(0.21, 0.01), base, 2.0)
        assert len(problems) == 1 and "fit_s" in problems[0]
        # a model absent from the baseline is not gated
        assert compare(
            {"results": [{"model": "new", "fit_s": 9, "predict_s": 9}]},
            base, 2.0,
        ) == []

    @staticmethod
    def _serving_payload(p95_ms, rps, failed=0, parity=True):
        return {
            "results": [{"model": "disthd", "fit_s": 0.1, "predict_s": 0.01}],
            "scenarios": {
                "serving": {
                    "batched": {
                        "latency_ms": {"p95": p95_ms},
                        "throughput_rps": rps,
                    },
                    "swap": {"failed_requests": failed, "parity_ok": parity},
                }
            },
        }

    def test_serving_scenario_gated(self, compare):
        base = self._serving_payload(10.0, 5000.0)
        # within margin
        assert compare(self._serving_payload(15.0, 4000.0), base, 2.0) == []
        # p95 blow-up
        problems = compare(self._serving_payload(30.0, 5000.0), base, 2.0)
        assert any("p95" in p for p in problems)
        # throughput collapse
        problems = compare(self._serving_payload(10.0, 1000.0), base, 2.0)
        assert any("throughput" in p for p in problems)
        # dropped requests / parity failures always gate
        problems = compare(
            self._serving_payload(10.0, 5000.0, failed=3), base, 2.0
        )
        assert any("dropped" in p for p in problems)
        problems = compare(
            self._serving_payload(10.0, 5000.0, parity=False), base, 2.0
        )
        assert any("parity" in p for p in problems)
        # serving absent from the baseline is not gated
        assert compare(
            self._serving_payload(99.0, 1.0),
            {"results": base["results"]}, 2.0,
        ) == []
        # a measured zero (total collapse) still gates — falsy values are
        # not "absent"
        problems = compare(self._serving_payload(10.0, 0.0), base, 2.0)
        assert any("throughput" in p for p in problems)

    @staticmethod
    def _packed_payload(score_s=0.01, delta=0.0, identical=True):
        return {
            "results": [{"model": "disthd", "fit_s": 0.1, "predict_s": 0.01}],
            "scenarios": {
                "packed_vs_int8": {
                    "scoring": {"packed_score_s": score_s},
                    "parity": {
                        "scores_bit_identical": identical,
                        "accuracy_delta": delta,
                    },
                }
            },
        }

    def test_packed_scenario_gated(self, compare):
        base = self._packed_payload(score_s=0.02)
        # within margin
        assert compare(self._packed_payload(score_s=0.03), base, 2.0) == []
        # packed scorer slowdown beyond the factor
        problems = compare(self._packed_payload(score_s=0.05), base, 2.0)
        assert any("packed_score_s" in p for p in problems)
        # parity violations gate on the current payload alone
        problems = compare(
            self._packed_payload(identical=False), base, 2.0
        )
        assert any("diverge" in p for p in problems)
        problems = compare(self._packed_payload(delta=0.01), base, 2.0)
        assert any("accuracy delta" in p for p in problems)
        # scenario absent from the current payload: nothing to gate
        assert compare({"results": base["results"]}, base, 2.0) == []
        # absent from the baseline: invariants still gate, timing doesn't
        assert compare(
            self._packed_payload(score_s=99.0),
            {"results": base["results"]}, 2.0,
        ) == []

    @staticmethod
    def _fleet_payload(scaling=3.5, p95_ratio=0.5, rps=500.0):
        return {
            "scenarios": {
                "fleet_resilience": {
                    "n_workers": 4,
                    "steady_state": {
                        "throughput_scaling": scaling,
                        "p95_ratio_vs_single": p95_ratio,
                        "workers_4": {"throughput_rps": rps},
                    },
                }
            },
        }

    def test_fleet_scenario_gated(self, compare):
        base = self._fleet_payload()
        # a healthy fleet record passes (scenario-only payloads are valid)
        assert compare(self._fleet_payload(), base, 2.0) == []
        # scaling below the floor at 4 workers
        problems = compare(self._fleet_payload(scaling=1.5), base, 2.0)
        assert any("throughput_scaling" in p for p in problems)
        # p95 no longer flat
        problems = compare(self._fleet_payload(p95_ratio=3.0), base, 2.0)
        assert any("p95_ratio" in p for p in problems)
        # throughput collapse vs baseline
        problems = compare(self._fleet_payload(rps=100.0), base, 2.0)
        assert any("workers_4" in p for p in problems)
        # scenario absent on both sides: nothing to gate
        assert compare({"scenarios": {}}, base, 2.0) == []

    @staticmethod
    def _encode_payload(
        speedup=5.0, gate_dim=4096, fastfood_s=0.001,
        exact=True, f32_ok=True, acc_passed=True,
    ):
        return {
            "scenarios": {
                "encode_latency": {
                    "fwht_exactness": [
                        {"m": 1024, "float64_bit_identical": exact,
                         "float32_ok": f32_ok,
                         "float32_max_abs_err": 0.0, "float32_tol": 1.0},
                    ],
                    "timings": [
                        {"dim": gate_dim, "batches": [
                            {"batch": 1, "fastfood_s": fastfood_s},
                        ]},
                    ],
                    "gate": {"dim": gate_dim, "batch": 1,
                             "speedup": speedup, "floor": 4.0},
                    "accuracy": {"passed": acc_passed, "delta": 0.0,
                                 "tolerance": 0.01, "dim": 4096},
                }
            },
        }

    def test_encode_scenario_gated(self, compare):
        base = self._encode_payload()
        # healthy record passes
        assert compare(self._encode_payload(), base, 2.0) == []
        # speedup below the 4x floor at the committed gate dim
        problems = compare(self._encode_payload(speedup=2.0), base, 2.0)
        assert any("speedup" in p for p in problems)
        # the floor is only enforced at gate dims >= 4096 (smoke runs
        # at smaller dims stay meaningful without tripping it)
        assert compare(
            self._encode_payload(speedup=2.0, gate_dim=1024), base, 2.0
        ) == []
        # exactness violations always gate on the current payload
        problems = compare(self._encode_payload(exact=False), base, 2.0)
        assert any("float64" in p for p in problems)
        problems = compare(self._encode_payload(f32_ok=False), base, 2.0)
        assert any("float32" in p for p in problems)
        # accuracy parity failure gates
        problems = compare(
            self._encode_payload(acc_passed=False), base, 2.0
        )
        assert any("accuracy" in p for p in problems)
        # baseline-relative slowdown of the structured encode at the
        # gate point (above the absolute noise floor)
        problems = compare(
            self._encode_payload(fastfood_s=0.02), base, 2.0
        )
        assert any("fastfood_s" in p for p in problems)
        # scenario absent from the current payload: nothing to gate
        assert compare({"scenarios": {}}, base, 2.0) == []

    @staticmethod
    def _obs_payload(ratio=0.9, rps=4000.0):
        return {
            "scenarios": {
                "obs_overhead": {
                    "overhead": {
                        "throughput_ratio": ratio,
                        "sampled": {"throughput_rps": rps},
                    },
                }
            },
        }

    def test_obs_scenario_gated(self, compare):
        base = self._obs_payload()
        # healthy record passes
        assert compare(self._obs_payload(), base, 2.0) == []
        # the traced/untraced floor (0.5) reads the current payload alone
        problems = compare(self._obs_payload(ratio=0.4), base, 2.0)
        assert any("throughput_ratio" in p for p in problems)
        assert compare(self._obs_payload(ratio=0.6), base, 2.0) == []
        problems = compare(
            self._obs_payload(ratio=0.4), {"scenarios": {}}, 2.0
        )
        assert any("throughput_ratio" in p for p in problems)
        # traced throughput below baseline / factor
        problems = compare(self._obs_payload(rps=1900.0), base, 2.0)
        assert any("sampled.throughput" in p for p in problems)
        assert compare(self._obs_payload(rps=2100.0), base, 2.0) == []
        # scenario absent from the current payload: nothing to gate
        assert compare({"scenarios": {}}, base, 2.0) == []

    def test_sections_isolated_on_malformed_payload(self, compare):
        base = self._fleet_payload()
        # A malformed results section reports itself as a failure but
        # does not stop the fleet section from gating.
        mangled = dict(self._fleet_payload(scaling=1.5))
        mangled["results"] = "not-a-list"
        problems = compare(mangled, base, 2.0)
        assert any("comparator crashed" in p for p in problems)
        assert any("throughput_scaling" in p for p in problems)

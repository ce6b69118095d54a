"""End-to-end observability tests: trace propagation through the
ModelServer pipeline and across a FleetServer worker SIGKILL + retry,
plus the flight dumps the serving classes write on notable exits.

The kill-drill test is the satellite acceptance check for tracing: a
request whose first attempt died with the killed worker must keep its
trace id across the re-dispatch and gain a ``retry`` span, ending in a
complete client → supervisor → worker span tree."""

import numpy as np
import pytest

from repro.deploy.quantized import QuantizedHDCModel
from repro.models.registry import make_model
from repro.obs import Observability, complete_retried_traces
from repro.obs.recorder import find_dumps, validate_dump
from repro.serve.chaos import run_chaos_drill
from repro.serve.fleet import FleetServer
from repro.serve.server import ModelServer


@pytest.fixture(scope="module")
def fitted(small_problem):
    train_x, train_y, test_x, _ = small_problem
    model = make_model("disthd", dim=128, iterations=2, seed=3)
    model.fit(train_x, train_y)
    return model, test_x


@pytest.fixture(scope="module")
def artifact(fitted):
    model, _ = fitted
    return QuantizedHDCModel(model, bits=1, packed=True)


class TestModelServerTracing:
    def test_request_pipeline_spans(self, fitted):
        # A quantized artifact has the clean encode/score split that the
        # staged scorer times (a raw model without one falls back to a
        # single opaque predict and records no stage spans).
        model, test_x = fitted
        obs = Observability(sample_rate=1.0)
        artifact = QuantizedHDCModel(model, bits=8)
        with ModelServer(artifact, obs=obs) as server:
            root = obs.tracer.start("request", role="client")
            prediction = server.submit_predict(
                test_x[:4], ctx=root.context
            ).result(timeout=10.0)
            root.end()
        assert prediction.shape == (4,)
        spans = obs.tracer.spans_for(root.trace_id)
        names = {s["name"] for s in spans}
        # The whole pipeline landed on the client's trace: queue+batch
        # (serve), then the model stages.
        assert {"request", "serve", "encode", "score"} <= names
        assert all(s["trace_id"] == root.trace_id for s in spans)

    def test_disabled_sampling_records_nothing(self, fitted):
        model, test_x = fitted
        obs = Observability(sample_rate=0.0)
        with ModelServer(model, obs=obs) as server:
            span = obs.tracer.start("request", role="client")
            server.submit_predict(test_x[:2], ctx=span.context).result(
                timeout=10.0
            )
            span.end()
        assert obs.tracer.finished() == []

    def test_close_dumps_flight_once(self, fitted, tmp_path):
        model, test_x = fitted
        obs = Observability(sample_rate=1.0, flight_dir=tmp_path)
        server = ModelServer(model, obs=obs)
        try:
            span = obs.tracer.start("request", role="client")
            server.submit_predict(test_x[:2], ctx=span.context).result(
                timeout=10.0
            )
            span.end()
        finally:
            server.close()
            server.close()  # idempotent: must not write a second dump
        (dump,) = find_dumps(tmp_path)
        parsed = validate_dump(dump)
        assert parsed["header"]["reason"] == "shutdown"
        assert parsed["spans"], "shutdown dump should carry recent spans"


class TestFleetTracingAcrossWorkerDeath:
    def test_retried_request_keeps_trace_and_gains_retry_span(
        self, artifact, fitted, tmp_path
    ):
        _, test_x = fitted
        obs = Observability(
            sample_rate=1.0, flight_dir=tmp_path, role="supervisor",
            max_spans=8192,
        )
        with FleetServer(
            artifact, n_workers=2, queue_depth=32, obs=obs
        ) as fleet:
            # A mid-load SIGKILL does not always catch a request in
            # flight on the victim; drill until one retried (bounded).
            complete = []
            for _ in range(3):
                report = run_chaos_drill(
                    fleet, np.asarray(test_x),
                    n_requests=96, concurrency=8, fault="kill",
                    recovery_timeout_s=20.0, tracer=obs.tracer,
                )
                assert report["outcomes"]["failed"] == 0
                assert report["flight_dumps"], (
                    "disruptive drill must leave a schema-valid dump"
                )
                complete = complete_retried_traces(obs.tracer.finished())
                if complete:
                    break
            assert complete, "no request was retried across three drills"

            spans = obs.tracer.spans_for(complete[0])
            names = [s["name"] for s in spans]
            roles = {s["role"] for s in spans}
            # Same trace id end to end (spans_for guarantees it), one
            # client root, a dispatch per attempt, the retry marker, and
            # the surviving attempt's worker stages.
            assert {"client", "supervisor", "worker"} <= roles
            assert "retry" in names
            assert names.count("dispatch") >= 2
            assert "score" in names
            client_roots = [
                s for s in spans
                if s["role"] == "client" and s["parent_id"] is None
            ]
            assert len(client_roots) == 1

        # Closing wrote the supervisor's shutdown dump next to the
        # worker-death dumps; every artifact must satisfy the schema.
        dumps = find_dumps(tmp_path)
        reasons = set()
        for dump in dumps:
            reasons.add(str(validate_dump(dump)["header"]["reason"]))
        assert any(r.startswith("worker-") for r in reasons)
        assert "shutdown" in reasons

    def test_worker_stage_spans_report_stage_stats(self, artifact, fitted):
        _, test_x = fitted
        obs = Observability(sample_rate=1.0)
        with FleetServer(artifact, n_workers=1, obs=obs) as fleet:
            root = obs.tracer.start("request", role="client")
            fleet.submit_predict(
                np.asarray(test_x[:4]), ctx=root.context
            ).result(timeout=10.0)
            root.end()
            stages = fleet.stats()["stages"]
        spans = obs.tracer.spans_for(root.trace_id)
        names = {s["name"] for s in spans}
        assert {"request", "dispatch", "worker", "score"} <= names
        # The worker-reported stage times feed the supervisor's stats.
        assert stages is not None
        assert stages["n_batches"] >= 1
        assert stages["score_s"] > 0.0

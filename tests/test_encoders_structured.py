"""Tests for the structured O(D log D) encoders and the encoder registry."""

import numpy as np
import pytest

from repro.hdc.encoders import (
    DEFAULT_ENCODER,
    FastfoodRBFEncoder,
    RBFEncoder,
    StructuredProjectionEncoder,
    list_encoders,
    make_encoder,
    register_encoder,
)
from repro.hdc.fwht import next_pow2

#: Padding / block-stacking edge widths: below, at and above a power of
#: two, plus the degenerate single-feature case.
EDGE_WIDTHS = (1, 63, 64, 65)


@pytest.fixture
def features(rng):
    return rng.normal(size=(12, 20))


class TestStructuredProjectionEncoder:
    def test_shape_and_determinism(self, features):
        a = StructuredProjectionEncoder(20, 96, seed=3).encode(features)
        b = StructuredProjectionEncoder(20, 96, seed=3).encode(features)
        assert a.shape == (12, 96)
        assert np.array_equal(a, b)
        c = StructuredProjectionEncoder(20, 96, seed=4).encode(features)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("q", EDGE_WIDTHS)
    @pytest.mark.parametrize("dim", [100, 4096])
    def test_padding_and_block_stacking_edges(self, q, dim, rng):
        """Feature widths straddling a power of two, output dims that do
        not divide the block size."""
        X = rng.normal(size=(5, q))
        enc = StructuredProjectionEncoder(q, dim, seed=0)
        assert enc.block == next_pow2(q)
        assert enc.n_blocks == -(-dim // enc.block)
        out = enc.encode(X)
        assert out.shape == (5, dim)
        assert np.all(np.isfinite(out))

    def test_matches_dense_projection_distribution(self, rng):
        """Output statistics mimic the dense 1/sqrt(q) Gaussian projection."""
        q, dim = 48, 8192
        X = rng.normal(size=(20, q))
        structured = StructuredProjectionEncoder(q, dim, seed=1).encode(X)
        row_norms = np.linalg.norm(X, axis=1)
        # Per-row std of a dense projection row is ‖x‖/√q.
        expected = row_norms / np.sqrt(q)
        observed = structured.std(axis=1)
        assert np.allclose(observed, expected, rtol=0.15)

    def test_activations(self, features):
        sign = StructuredProjectionEncoder(
            20, 64, activation="sign", seed=0
        ).encode(features)
        assert set(np.unique(sign)) <= {-1.0, 1.0}
        tanh = StructuredProjectionEncoder(
            20, 64, activation="tanh", seed=0
        ).encode(features)
        assert np.all(np.abs(tanh) <= 1.0)
        with pytest.raises(ValueError, match="activation"):
            StructuredProjectionEncoder(20, 64, activation="relu")

    def test_chunked_encode_is_bit_identical(self, rng):
        X = rng.normal(size=(11, 37))
        enc = StructuredProjectionEncoder(37, 100, seed=2)
        whole = enc.encode(X)
        for chunk in (1, 2, 3, 5, 11):
            windows = [enc.encode(X[i:i + chunk]) for i in range(0, 11, chunk)]
            assert np.array_equal(np.concatenate(windows), whole)

    def test_encode_dims_matches_full_columns(self, features):
        enc = StructuredProjectionEncoder(20, 96, seed=5)
        full = enc.encode(features)
        dims = np.array([0, 17, 63, 64, 95])
        assert np.array_equal(enc.encode_dims(features, dims), full[:, dims])

    def test_encode_dims_after_regeneration(self, features):
        enc = StructuredProjectionEncoder(20, 96, seed=5)
        dims = np.array([3, 64, 90])
        enc.regenerate(dims)
        full = enc.encode(features)
        probe = np.array([2, 3, 64, 91])
        assert np.array_equal(enc.encode_dims(features, probe), full[:, probe])

    def test_regenerate_changes_only_selected(self, features):
        enc = StructuredProjectionEncoder(20, 96, seed=6)
        before = enc.encode(features)
        dims = np.array([1, 40, 95])
        enc.regenerate(dims)
        after = enc.encode(features)
        unchanged = np.setdiff1d(np.arange(96), dims)
        assert np.array_equal(before[:, unchanged], after[:, unchanged])
        assert not np.allclose(before[:, dims], after[:, dims])
        assert enc.regenerated_count == 3
        assert enc.effective_dim() == 99

    def test_regenerate_is_seed_deterministic(self, features):
        outs = []
        for _ in range(2):
            enc = StructuredProjectionEncoder(20, 96, seed=7)
            enc.regenerate(np.array([2, 30]))
            enc.regenerate(np.array([64]))
            outs.append(enc.encode(features))
        assert np.array_equal(outs[0], outs[1])

    def test_rejects_non_integer_dims(self, features):
        enc = StructuredProjectionEncoder(20, 96, seed=0)
        with pytest.raises(ValueError, match="integer"):
            enc.regenerate(np.array([1.5, 2.0]))
        with pytest.raises(ValueError, match="integer"):
            enc.encode_dims(features, np.array([0.0, 1.0]))

    def test_parameter_memory_is_linear_in_dim(self):
        q, dim = 561, 8192
        enc = StructuredProjectionEncoder(q, dim, seed=0)
        n_floats = enc.signs.size + enc.scales.size
        assert n_floats < q * dim / 10  # O(D), nowhere near O(q·D)


class TestFastfoodRBFEncoder:
    def test_output_range_and_determinism(self, features):
        a = FastfoodRBFEncoder(20, 128, seed=1).encode(features)
        b = FastfoodRBFEncoder(20, 128, seed=1).encode(features)
        assert np.array_equal(a, b)
        # cos(y+c)·sin(y) ∈ [-1, 1]
        assert np.all(np.abs(a) <= 1.0)

    def test_activation_identity(self, features):
        """encode == cos(proj + phase) · sin(proj), the RBF form the
        sin-difference implementation must reproduce."""
        enc = FastfoodRBFEncoder(20, 64, seed=2, dtype="float64")
        proj = np.asarray(enc._project(enc._check_input(features)))
        expected = np.cos(proj + enc.phases) * np.sin(proj)
        assert np.allclose(enc.encode(features), expected, atol=1e-12)

    def test_distribution_matches_dense_rbf(self, rng):
        """Same feature scale → same output dispersion as the dense RBF
        encoder, so bandwidth transfers between the two families."""
        q, dim = 64, 8192
        X = rng.normal(size=(64, q))
        dense = RBFEncoder(q, dim, seed=3, dtype="float64").encode(X)
        fast = FastfoodRBFEncoder(q, dim, seed=3, dtype="float64").encode(X)
        assert abs(dense.std() - fast.std()) < 0.05

    def test_regenerate_redraws_phases(self, features):
        enc = FastfoodRBFEncoder(20, 96, seed=4)
        dims = np.array([0, 50])
        phases_before = np.asarray(enc.phases).copy()
        enc.regenerate(dims)
        phases_after = np.asarray(enc.phases)
        assert not np.allclose(phases_before[dims], phases_after[dims])
        unchanged = np.setdiff1d(np.arange(96), dims)
        assert np.array_equal(phases_before[unchanged], phases_after[unchanged])

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            FastfoodRBFEncoder(20, 64, bandwidth=0.0)

    @pytest.mark.parametrize("q", EDGE_WIDTHS)
    def test_edge_feature_widths(self, q, rng):
        X = rng.normal(size=(4, q))
        out = FastfoodRBFEncoder(q, 100, seed=0).encode(X)
        assert out.shape == (4, 100)
        assert np.all(np.isfinite(out))


class TestRegistry:
    def test_default_and_listing(self):
        specs = list_encoders()
        assert DEFAULT_ENCODER == "rbf"
        for spec in ("rbf", "fastfood-rbf", "projection-sign",
                     "structured-cos", "projection", "structured"):
            assert spec in specs

    def test_make_encoder_kinds(self):
        assert isinstance(make_encoder("rbf", 8, 32, seed=0), RBFEncoder)
        assert isinstance(
            make_encoder("fastfood-rbf", 8, 32, seed=0), FastfoodRBFEncoder
        )
        structured = make_encoder("structured-sign", 8, 32, seed=0)
        assert isinstance(structured, StructuredProjectionEncoder)
        assert structured.activation == "sign"

    def test_spec_is_case_insensitive(self):
        enc = make_encoder("Fastfood-RBF", 8, 32, seed=0)
        assert isinstance(enc, FastfoodRBFEncoder)

    def test_unknown_spec_lists_registered(self):
        with pytest.raises(ValueError, match="rbf"):
            make_encoder("no-such-encoder", 8, 32)

    def test_register_rejects_empty_name(self):
        with pytest.raises(ValueError):
            register_encoder("", lambda *a, **k: None)

    def test_bandwidth_threads_to_rbf_families(self):
        rbf = make_encoder("rbf", 8, 32, bandwidth=2.0, seed=0)
        fast = make_encoder("fastfood-rbf", 8, 32, bandwidth=2.0, seed=0)
        assert rbf.bandwidth == 2.0
        assert fast.bandwidth == 2.0
        # projection families accept and ignore it
        make_encoder("projection-linear", 8, 32, bandwidth=2.0, seed=0)


class TestModelThreading:
    def test_disthd_config_validates_encoder(self):
        from repro.core.config import DistHDConfig

        cfg = DistHDConfig(encoder="fastfood-rbf")
        assert cfg.encoder == "fastfood-rbf"
        with pytest.raises(ValueError, match="encoder"):
            DistHDConfig(encoder="bogus")

    def test_disthd_trains_with_structured_encoder(self, small_problem):
        from repro.core.config import DistHDConfig
        from repro.core.disthd import DistHDClassifier

        train_x, train_y, test_x, test_y = small_problem
        cfg = DistHDConfig(
            dim=256, iterations=5, seed=0, encoder="fastfood-rbf"
        )
        model = DistHDClassifier(cfg).fit(train_x, train_y)
        assert isinstance(model.encoder_, FastfoodRBFEncoder)
        assert model.score(test_x, test_y) > 0.6

    @pytest.mark.parametrize("name", ["onlinehd", "neuralhd", "baselinehd"])
    def test_baselines_accept_registry_specs(self, name, small_problem):
        from repro.models.registry import make_model

        train_x, train_y, test_x, test_y = small_problem
        model = make_model(
            name, dim=128, encoder="fastfood-rbf", seed=0
        )
        model.fit(train_x, train_y)
        assert model.score(test_x, test_y) > 0.5

    def test_catalog_declares_encoder(self):
        from repro.models.registry import get_model_spec

        for name in ("disthd", "onlinehd", "neuralhd", "baselinehd"):
            assert "encoder" in get_model_spec(name).param_names()

    def test_api_spec_threads_encoder(self):
        from repro.api import run_experiment

        result = run_experiment(
            model="disthd", dataset="diabetes", scale=0.005,
            encoder="fastfood-rbf",
            model_params={"dim": 64, "iterations": 2},
        )
        assert result.test_accuracy >= 0.0  # ran end to end with the knob applied
        # The knob must not apply to models without an encoder parameter.
        run_experiment(
            model="knn", dataset="diabetes", scale=0.005,
            encoder="fastfood-rbf",
        )

    def test_shard_fit_deterministic_with_structured_encoder(
        self, small_problem
    ):
        """Pool and serial shard_fit must agree bit for bit — the
        identical-encoder invariant extended to the SORF family."""
        from repro.core.config import DistHDConfig
        from repro.core.disthd import DistHDClassifier
        from repro.engine import SerialExecutor

        train_x, train_y, _, _ = small_problem
        cfg = DistHDConfig(
            dim=128, iterations=4, seed=13, encoder="fastfood-rbf",
            convergence_patience=None,
        )
        serial = DistHDClassifier(cfg)
        serial.shard_fit(train_x, train_y, n_jobs=2, executor=SerialExecutor())
        pooled = DistHDClassifier(cfg)
        pooled.shard_fit(train_x, train_y, n_jobs=2)
        assert np.array_equal(
            serial.memory_.numpy_vectors(), pooled.memory_.numpy_vectors()
        )


class TestPersistenceFormat5:
    @pytest.mark.parametrize("encoder", ["fastfood-rbf", "structured-tanh"])
    def test_round_trip_structured_model(self, encoder, small_problem, tmp_path):
        from repro.core.config import DistHDConfig
        from repro.core.disthd import DistHDClassifier
        from repro.persistence import load_model, save_model

        train_x, train_y, test_x, _ = small_problem
        cfg = DistHDConfig(dim=128, iterations=3, seed=2, encoder=encoder)
        model = DistHDClassifier(cfg).fit(train_x, train_y)
        path = save_model(model, tmp_path / "m.npz")
        loaded = load_model(path)
        assert np.array_equal(model.predict(test_x), loaded.predict(test_x))
        assert np.allclose(
            model.decision_scores(test_x),
            loaded.decision_scores(test_x),
            atol=1e-6,
        )

    def test_round_trip_preserves_regenerated_slots(self, small_problem, tmp_path):
        from repro.core.config import DistHDConfig
        from repro.core.disthd import DistHDClassifier
        from repro.persistence import load_model, save_model

        train_x, train_y, test_x, _ = small_problem
        cfg = DistHDConfig(
            dim=128, iterations=6, seed=3, encoder="fastfood-rbf",
            regen_rate=0.2, convergence_patience=None,
        )
        model = DistHDClassifier(cfg).fit(train_x, train_y)
        assert model.encoder_.regenerated_count > 0  # regeneration happened
        loaded = load_model(save_model(model, tmp_path / "m.npz"))
        restored = loaded.encoder_
        assert restored.regenerated_count == model.encoder_.regenerated_count
        assert np.array_equal(restored.src_slots, model.encoder_.src_slots)
        assert restored._identity_slots is False
        assert np.array_equal(
            np.asarray(restored.encode(test_x[:8])),
            np.asarray(model.encoder_.encode(test_x[:8])),
        )

    def test_structured_archive_is_servable(self, small_problem, tmp_path):
        from repro.core.config import DistHDConfig
        from repro.core.disthd import DistHDClassifier
        from repro.persistence import save_model
        from repro.serve.server import ModelServer

        train_x, train_y, test_x, _ = small_problem
        cfg = DistHDConfig(dim=128, iterations=3, seed=4, encoder="fastfood-rbf")
        model = DistHDClassifier(cfg).fit(train_x, train_y)
        path = save_model(model, tmp_path / "m.npz")
        with ModelServer(str(path)) as server:
            served = server.predict(test_x[:16])
            assert np.array_equal(served, model.predict(test_x[:16]))
            stats = server.stats()
        # LoadedHDCModel takes the staged encode/score path, so the
        # stats endpoint reports the per-stage split.
        stages = stats["stages"]
        assert stages is not None
        assert stages["n_batches"] >= 1
        assert stages["encode_s"] >= 0.0 and stages["score_s"] >= 0.0
        assert 0.0 <= stages["encode_fraction"] <= 1.0


class TestStageMetrics:
    def test_record_stage_times_snapshot(self):
        from repro.serve.metrics import ServerMetrics

        metrics = ServerMetrics()
        assert metrics.snapshot()["stages"] is None
        metrics.record_stage_times(0.002, 0.001)
        metrics.record_stage_times(0.004, 0.001)
        stages = metrics.snapshot()["stages"]
        assert stages["n_batches"] == 2
        assert stages["encode_s"] == pytest.approx(0.006)
        assert stages["score_s"] == pytest.approx(0.002)
        assert stages["encode_fraction"] == pytest.approx(0.75)

"""Concurrent predict-while-adapt: the versioned-cache invariant under threads.

The PR 3 norm caches are stamped per mutation version; the locking
contract (see :mod:`repro.hdc.memory`) promises that **no stale cache
survives a mutation** even when readers race a writer.  These tests pin
that contract:

- a deterministic unit test of the stamping order (a mutation landing
  *during* a cached compute must leave the entry stale, not file the
  pre-mutation value under the post-mutation version);
- a threaded stress test interleaving ``partial_fit`` mutation with
  concurrent ``predict`` / ``decision_scores`` readers, then verifying
  the settled caches against fresh recomputation;
- the serving-level variant: a ModelServer under concurrent load while an
  OnlineAdapter promotes adapted versions — zero failed requests, exact
  post-swap parity.
"""

import threading

import numpy as np

from repro.core.disthd import DistHDClassifier
from repro.hdc.memory import AssociativeMemory
from repro.serve.adapter import OnlineAdapter
from repro.serve.server import ModelServer


class TestCacheStampOrder:
    def test_mutation_during_compute_leaves_entry_stale(self):
        memory = AssociativeMemory(3, 8)
        calls = []

        def compute_with_interleaved_mutation():
            calls.append("first")
            # A writer lands mid-compute: version bumps under our feet.
            memory.invalidate_caches()
            return "computed-from-pre-mutation-state"

        value = memory._cached("k", compute_with_interleaved_mutation)
        assert value == "computed-from-pre-mutation-state"
        # The entry must be stamped with the *pre*-compute version, so the
        # next query at the current version recomputes instead of serving
        # the torn value.
        value = memory._cached("k", lambda: calls.append("second") or "fresh")
        assert value == "fresh"
        assert calls == ["first", "second"]

    def test_unchanged_version_still_caches(self):
        memory = AssociativeMemory(3, 8)
        calls = []
        memory._cached("k", lambda: calls.append(1) or "v")
        assert memory._cached("k", lambda: calls.append(2) or "v2") == "v"
        assert calls == [1]

    def test_every_mutator_invalidates_norms(self, rng):
        memory = AssociativeMemory(4, 16)
        memory.set_vectors(rng.normal(size=(4, 16)))
        before = memory.class_norms().copy()
        memory.add_to_class(0, np.ones(16))
        after = memory.class_norms()
        assert not np.allclose(before[0], after[0])


class TestPredictWhileAdaptStress:
    def test_interleaved_partial_fit_and_predict(self, small_problem):
        """Reader threads hammer predict/decision_scores while one writer
        streams partial_fit batches; afterwards the caches must equal
        fresh recomputation (no stale entry survived)."""
        train_x, train_y, test_x, _ = small_problem
        model = DistHDClassifier(dim=64, iterations=3, seed=0)
        model.fit(train_x, train_y)

        stop = threading.Event()
        errors = []

        def writer():
            rng = np.random.default_rng(1)
            while not stop.is_set():
                idx = rng.choice(train_x.shape[0], size=16, replace=False)
                try:
                    model.partial_fit(train_x[idx], train_y[idx])
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return

        def reader():
            rng = np.random.default_rng(2)
            while not stop.is_set():
                idx = rng.choice(test_x.shape[0], size=4, replace=False)
                try:
                    scores = model.decision_scores(test_x[idx])
                    assert scores.shape == (4, model.classes_.size)
                    model.predict(test_x[idx])
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        import time

        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(timeout=10)
        assert errors == [], errors

        # Settled state: every cached entry at the current version must
        # equal fresh recomputation — the no-stale-cache invariant.
        memory = model.memory_
        version = memory.version
        cached_norms = memory.class_norms()
        fresh_norms = memory.backend.norm(
            memory.vectors, axis=1, keepdims=True
        )
        np.testing.assert_allclose(cached_norms, fresh_norms)
        for key, (stamp, _) in memory._cache.items():
            assert stamp <= version, (key, stamp, version)
        # And inference agrees with a cache-free pass.
        scores_cached = model.decision_scores(test_x[:8])
        memory.invalidate_caches()
        scores_fresh = model.decision_scores(test_x[:8])
        np.testing.assert_allclose(scores_cached, scores_fresh)

    def test_server_load_with_adaptation_swaps(self, small_problem):
        """Serving-level stress: concurrent load + background promotions
        must drop zero requests and end in exact parity."""
        import copy

        train_x, train_y, test_x, _ = small_problem
        base = DistHDClassifier(dim=64, iterations=3, seed=0)
        base.fit(train_x, train_y)
        served = copy.deepcopy(base)

        with ModelServer(served, max_batch_size=8) as server:
            adapter = OnlineAdapter(server, base, min_adapt_samples=16)
            adapter.feedback(train_x[:32], train_y[:32])
            errors = []

            def fire(i):
                try:
                    server.predict(test_x[i % test_x.shape[0]])
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                if i == 30:
                    adapter.adapt_now(wait=False)

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(80)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            adapter.join(timeout=30)
            assert errors == []
            assert server.metrics.n_errors == 0
            assert adapter.n_adaptations == 1
            np.testing.assert_array_equal(
                server.predict(test_x[:16]),
                server.model.predict(test_x[:16]),
            )


class TestPackedHotSwap:
    def test_packed_artifact_swaps_under_load(self, small_problem):
        """A bit-packed 1-bit artifact served under concurrent load: the
        mid-run promotion re-quantizes *and re-packs*, drops zero
        requests, and the post-swap artifact is still packed."""
        from repro.deploy.quantized import QuantizedHDCModel

        train_x, train_y, test_x, _ = small_problem
        base = DistHDClassifier(dim=128, iterations=3, seed=0)
        base.fit(train_x, train_y)
        served = QuantizedHDCModel(base, bits=1, packed=True)
        pristine = served.packed_words.copy()

        with ModelServer(served, max_batch_size=8) as server:
            adapter = OnlineAdapter(server, base, min_adapt_samples=16)
            adapter.feedback(train_x[:32], train_y[:32])
            errors = []

            def fire(i):
                try:
                    server.predict(test_x[i % test_x.shape[0]])
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                if i == 30:
                    adapter.adapt_now(wait=False)

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(80)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            adapter.join(timeout=30)
            assert errors == []
            assert server.metrics.n_errors == 0
            assert adapter.n_adaptations == 1
            assert server.stats()["n_swaps"] >= 1
            # Promotion produced a *packed* artifact again (re-quantized
            # and re-packed, not a float or unpacked fallback) whose words
            # reflect the adaptation, and batched serving agrees with it
            # exactly.
            active = server.model
            assert isinstance(active, QuantizedHDCModel)
            assert active.packed is True
            assert active.bits == 1
            assert active.packed_words.shape == pristine.shape
            np.testing.assert_array_equal(
                server.predict(test_x[:16]),
                active.predict(test_x[:16]),
            )

"""Tests for repro.serve.fleet.shm — shared-memory artifact publication.

Everything runs in-process: publish on the "supervisor" side, attach a
second mapping to stand in for a worker, and exercise the CRC integrity
and pristine-repair paths without spawning any fleet.
"""

from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro.deploy.quantized import QuantizedHDCModel
from repro.models.registry import make_model
from repro.serve.fleet.shm import EXIT_CORRUPT, SharedArtifact


@pytest.fixture(scope="module")
def fitted(small_problem):
    train_x, train_y, test_x, test_y = small_problem
    model = make_model("disthd", dim=128, iterations=2, seed=3)
    model.fit(train_x, train_y)
    return model, test_x


def _published(fitted, *, packed, bits=1, epoch=1):
    model, test_x = fitted
    artifact = QuantizedHDCModel(model, bits=bits, packed=packed)
    shared = SharedArtifact.publish(artifact, epoch=epoch)
    return artifact, shared, test_x


class TestPublishAttach:
    @pytest.mark.parametrize("packed,bits", [(True, 1), (False, 8)])
    def test_rebuild_parity(self, fitted, packed, bits):
        artifact, shared, test_x = _published(fitted, packed=packed, bits=bits)
        try:
            attached = SharedArtifact.attach(shared.name)
            try:
                rebuilt = attached.rebuild_model()
                np.testing.assert_array_equal(
                    rebuilt.predict(test_x), artifact.predict(test_x)
                )
                np.testing.assert_allclose(
                    rebuilt.decision_scores(test_x),
                    artifact.decision_scores(test_x),
                )
            finally:
                attached.close()
        finally:
            shared.close()
            shared.unlink()

    def test_rebuild_is_zero_copy_for_packed_words(self, fitted):
        artifact, shared, _ = _published(fitted, packed=True)
        try:
            rebuilt = shared.rebuild_model()
            words = rebuilt.packed_words
            assert words is not None
            # The class memory aliases the segment, not a copy.
            assert words.base is not None
            del rebuilt, words
        finally:
            shared.close()
            shared.unlink()

    def test_header_metadata(self, fitted):
        artifact, shared, _ = _published(fitted, packed=True, epoch=7)
        try:
            assert shared.epoch == 7
            header = shared.header
            assert header["format"] == "repro-fleet-artifact-1"
            assert header["model"]["packed"] is True
            assert {e["name"] for e in header["arrays"]} >= {
                "classes", "words",
            }
            assert shared.nbytes > 0
        finally:
            shared.close()
            shared.unlink()

    def test_publish_rejects_non_artifact(self, fitted):
        model, _ = fitted
        with pytest.raises(TypeError, match="QuantizedHDCModel"):
            SharedArtifact.publish(model, epoch=1)

    def test_unlink_idempotent(self, fitted):
        _, shared, _ = _published(fitted, packed=True)
        shared.close()
        shared.unlink()
        shared.unlink()  # second call is a no-op, not an error


class TestResourceTracker:
    """Only the publisher talks to multiprocessing's resource tracker.
    Forked workers share the supervisor's tracker, so a message from an
    attaching worker could interleave with another process's."""

    @pytest.fixture
    def sent(self, monkeypatch):
        """Every ``(command, name)`` this process sends the tracker."""
        tracker = resource_tracker._resource_tracker
        send = tracker._send
        messages = []

        def spy(cmd, name, rtype):
            messages.append((cmd, name.lstrip("/")))
            send(cmd, name, rtype)

        monkeypatch.setattr(tracker, "_send", spy)
        return messages

    def test_attach_sends_nothing(self, fitted, sent):
        _, shared, _ = _published(fitted, packed=True)
        try:
            del sent[:]
            attached = SharedArtifact.attach(shared.name)
            attached.close()
            assert sent == []
        finally:
            shared.close()
            shared.unlink()

    def test_publish_and_unlink_send_one_register_and_unregister(
        self, fitted, sent
    ):
        _, shared, _ = _published(fitted, packed=True)
        attached = SharedArtifact.attach(shared.name)
        attached.close()
        shared.close()
        shared.unlink()
        assert [cmd for cmd, name in sent if name == shared.name] == [
            "REGISTER", "UNREGISTER",
        ]


class TestIntegrity:
    def test_fresh_segment_verifies(self, fitted):
        _, shared, _ = _published(fitted, packed=True)
        try:
            assert shared.verify()
        finally:
            shared.close()
            shared.unlink()

    def test_corruption_detected_and_repaired(self, fitted):
        artifact, shared, test_x = _published(fitted, packed=True)
        try:
            reference = artifact.predict(test_x)
            view = shared.array_view("words")
            view[0] ^= np.uint64(1)
            assert not shared.verify()
            shared.restore_pristine()
            assert shared.verify()
            rebuilt = shared.rebuild_model()
            np.testing.assert_array_equal(rebuilt.predict(test_x), reference)
            del view, rebuilt
        finally:
            shared.close()
            shared.unlink()

    def test_attached_side_cannot_repair(self, fitted):
        _, shared, _ = _published(fitted, packed=True)
        try:
            attached = SharedArtifact.attach(shared.name)
            try:
                with pytest.raises(RuntimeError, match="publishing side"):
                    attached.restore_pristine()
            finally:
                attached.close()
        finally:
            shared.close()
            shared.unlink()

    def test_unknown_array_view_raises(self, fitted):
        _, shared, _ = _published(fitted, packed=True)
        try:
            with pytest.raises(KeyError, match="nonsense"):
                shared.array_view("nonsense")
        finally:
            shared.close()
            shared.unlink()

    def test_exit_corrupt_is_distinct_status(self):
        # The supervisor keys corruption repair off this exact status; it
        # must stay clear of the shell/signal exit-code ranges.
        assert EXIT_CORRUPT == 64

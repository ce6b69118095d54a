"""Tests for repro.serve.fleet.ring.Ring — the fleet's worker transport.

The ring is driven here as a pure state machine, in one process: a
supervisor side that publishes requests into slots, numbers pipe items
(control messages and requests that do not fit a slot) and reads
replies, and a worker side that takes items and writes replies.  Pipe
items are delivered in any order, as concurrent senders may deliver
them.  The model checks that every item is acted on exactly once and in
sequence order, that a full ring refuses without overwriting a slot,
and that the doorbell never lets the reader sleep while an item is
there to take.
"""

import multiprocessing as mp

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.obs.trace import TraceContext
from repro.serve.fleet.ring import SLOT_ROWS, Ring

N_FEATURES = 3
REPLY_COLS = 2
_CTX = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)


def _same(taken, expected):
    """``taken`` (as :meth:`Ring.take` returned it) is ``expected``."""
    assert len(taken) == len(expected)
    for got, want in zip(taken, expected):
        if isinstance(want, np.ndarray):
            np.testing.assert_array_equal(got, want)
        else:
            assert got == want


class RingMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.depth = None

    @rule(depth=st.integers(1, 4))
    @precondition(lambda self: self.depth is None)
    def open_ring(self, depth):
        self.depth = depth
        self.ring = Ring(depth, N_FEATURES, REPLY_COLS, ctx=_CTX)
        self.sup_end, self.worker_end = _CTX.Pipe()
        self.numbered = []       # every inbound item, in sequence order
        self.inline = {}         # seq -> slot, for items published in slots
        self.in_transit = []     # (seq, message) numbered, not yet sent
        self.delivered = set()   # seqs written to the pipe
        self.taken = 0           # items the worker has acted on
        self.held = {}           # slot -> seq, slots not yet released
        self.awaiting = {}       # slot -> seq, taken, reply not written
        self.replied = {}        # slot -> result written, not yet read
        self.next_rid = 0

    def teardown(self):
        if self.depth is not None:
            self.sup_end.close()
            self.worker_end.close()

    # ----------------------------------------------------------- supervisor

    def _request(self, n_rows, trace):
        rid = self.next_rid
        self.next_rid += 1
        rows = np.arange(n_rows * N_FEATURES, dtype=np.float64).reshape(
            n_rows, N_FEATURES
        ) + 1000.0 * rid
        return rid, rows, trace

    @rule(
        n_rows=st.integers(1, SLOT_ROWS + 2),
        trace=st.sampled_from([
            None,
            TraceContext("%032x" % 7, "%016x" % 9, True),
            TraceContext("%032x" % (1 << 100), None, False),
            TraceContext("not-hex", None, True),
        ]),
    )
    @precondition(lambda self: self.depth is not None)
    def push_request(self, n_rows, trace):
        rid, rows, trace = self._request(n_rows, trace)
        head = self.ring._head % self.depth
        before = (self.ring._rows[head].tobytes(), int(self.ring._seqs[head]))
        slot = self.ring.push(rid, "predict", rows, 5.0 + rid, 1.0, trace)
        fits = (
            n_rows <= SLOT_ROWS
            and head not in self.held
            and (trace is None or trace.trace_id != "not-hex")
        )
        if not fits:
            # Refused: the slot it would have used is untouched.
            assert slot == -1
            assert (
                self.ring._rows[head].tobytes(), int(self.ring._seqs[head])
            ) == before
            item = self.ring.pipe_item(
                ("req", rid, "predict", rows, 5.0 + rid, 1.0, trace, -1)
            )
            self.numbered.append(item[1])
            self.in_transit.append(item)
            return
        assert slot == head
        seq = len(self.numbered)
        self.numbered.append(
            ("req", rid, "predict", rows, 5.0 + rid, 1.0, trace, slot)
        )
        self.inline[seq] = slot
        self.held[slot] = seq

    @rule(kind=st.sampled_from(["chaos", "reload", "stop"]))
    @precondition(lambda self: self.depth is not None)
    def send_control(self, kind):
        message = (kind, {"n": len(self.numbered)})
        seq, numbered = self.ring.pipe_item(message)
        assert seq == len(self.numbered)
        self.numbered.append(numbered)
        self.in_transit.append((seq, numbered))

    @rule(pick=st.integers(0, 7))
    @precondition(lambda self: self.depth is not None and self.in_transit)
    def deliver(self, pick):
        seq, message = self.in_transit.pop(pick % len(self.in_transit))
        self.sup_end.send((seq, message))
        self.delivered.add(seq)

    @rule(pick=st.integers(0, 7))
    @precondition(lambda self: self.depth is not None and self.replied)
    def read_reply(self, pick):
        slots = sorted(self.replied)
        slot = slots[pick % len(slots)]
        want = self.replied.pop(slot)
        got = self.ring.read_reply(slot)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        self.ring.release(slot)
        del self.held[slot]

    # --------------------------------------------------------------- worker

    def _available(self):
        """Whether the next item in order is there to take now."""
        seq = self.taken
        if seq >= len(self.numbered):
            return False
        return seq in self.inline or seq in self.delivered

    @rule()
    @precondition(lambda self: self.depth is not None)
    def take(self):
        available = self._available()
        message = self.ring.take(self.worker_end, 0)
        if not available:
            assert message is None
            return
        # The doorbell never lets the reader miss a published item.
        assert message is not None
        seq = self.taken
        _same(message, self.numbered[seq])
        self.taken += 1
        if seq in self.inline:
            self.awaiting[message[7]] = seq

    @rule(pick=st.integers(0, 7), scores=st.booleans())
    @precondition(lambda self: self.depth is not None and self.awaiting)
    def write_reply(self, pick, scores):
        slots = sorted(self.awaiting)
        slot = slots[pick % len(slots)]
        seq = self.awaiting.pop(slot)
        n_rows = self.numbered[seq][3].shape[0]
        if scores:
            result = np.full((n_rows, REPLY_COLS), seq, dtype=np.float32)
        else:
            result = np.full(n_rows, seq, dtype=np.int64)
        assert self.ring.write_reply(slot, result)
        # What does not fit, or is not numeric, rides in the message.
        too_wide = np.zeros((SLOT_ROWS + 1, REPLY_COLS), dtype=np.float64)
        assert not self.ring.write_reply(slot, too_wide)
        assert not self.ring.write_reply(slot, np.array(["a"] * n_rows))
        assert not self.ring.write_reply(-1, result)
        self.replied[slot] = result

    @rule(timeout=st.sampled_from([0.0, 0.001]))
    @precondition(lambda self: self.depth is not None)
    def wait_idle(self, timeout):
        """A doorbell wait with nothing to take returns empty-handed
        after its timeout and keeps nothing."""
        if self._available():
            return
        assert self.ring.take(self.worker_end, timeout) is None

    # ----------------------------------------------------------- invariants

    @invariant()
    def doorbell_counts_untaken_items(self):
        if self.depth is None:
            return
        permits = self.ring._doorbell.get_value() + int(self.ring._armed)
        assert permits == len(self.numbered) - self.taken

    @invariant()
    def held_slots_match(self):
        if self.depth is None:
            return
        held = [slot for slot, held in enumerate(self.ring._held) if held]
        assert held == sorted(self.held)

    @invariant()
    def acted_on_at_most_what_was_sent(self):
        if self.depth is not None:
            assert self.taken <= len(self.numbered)

    @rule(order=st.randoms(use_true_random=False))
    @precondition(lambda self: self.depth is not None)
    def drain(self, order):
        """Deliver every pipe item in transit, in any order, and take to
        empty: every numbered item comes out once, in sequence order."""
        order.shuffle(self.in_transit)
        while self.in_transit:
            self.deliver(0)
        while self.taken < len(self.numbered):
            self.take()
        assert self.ring.take(self.worker_end, 0) is None


TestRingSchedule = RingMachine.TestCase
TestRingSchedule.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


class TestRingLayout:
    def test_request_round_trips_through_a_slot(self):
        ring = Ring(2, N_FEATURES, REPLY_COLS)
        rows = np.arange(6, dtype=np.float64).reshape(2, 3)
        trace = TraceContext("%032x" % 123, "%016x" % 45, True)
        assert ring.push(7, "scores", rows, 9.5, 8.5, trace) == 0
        a, b = _CTX.Pipe()
        try:
            message = ring.take(b, 0)
        finally:
            a.close()
            b.close()
        _same(message, ("req", 7, "scores", rows, 9.5, 8.5, trace, 0))

    def test_pipe_only_when_rows_exceed_a_slot(self):
        ring = Ring(2, N_FEATURES, REPLY_COLS)
        rows = np.zeros((SLOT_ROWS + 1, N_FEATURES))
        assert ring.push(0, "predict", rows, 1.0, 0.0) == -1
        assert ring.push(0, "predict", rows[:SLOT_ROWS], 1.0, 0.0) == 0

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32,
                                       np.float64, np.uint8, np.bool_])
    def test_numeric_replies_round_trip(self, dtype):
        ring = Ring(1, N_FEATURES, REPLY_COLS)
        result = np.arange(6).reshape(3, 2).astype(dtype)
        assert ring.write_reply(0, result)
        got = ring.read_reply(0)
        assert got.dtype == result.dtype
        np.testing.assert_array_equal(got, result)
        assert ring.write_reply(0, result[:, 0])
        np.testing.assert_array_equal(ring.read_reply(0), result[:, 0])

"""Tests for the event-heap kernel of the DES oracle.

``tests/simulate/heap_oracle.py`` keeps the heap replay that
``simulate_trace`` is checked against; its same-instant ordering is the
rule the one-pass engine reproduces, so the kernel stays pinned here.
"""

import pytest

from tests.simulate.heap_oracle import EventKind, EventQueue


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(3.0, EventKind.ARRIVAL, "c")
        q.push(1.0, EventKind.ARRIVAL, "a")
        q.push(2.0, EventKind.ARRIVAL, "b")
        assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_completion_before_arrival_at_same_time(self):
        """A core freeing up must be visible to a same-instant arrival."""
        q = EventQueue()
        q.push(5.0, EventKind.ARRIVAL, "task")
        q.push(5.0, EventKind.COMPLETION, "done")
        assert q.pop().kind is EventKind.COMPLETION

    def test_fifo_within_same_time_and_kind(self):
        q = EventQueue()
        q.push(1.0, EventKind.ARRIVAL, "first")
        q.push(1.0, EventKind.ARRIVAL, "second")
        assert q.pop().payload == "first"
        assert q.pop().payload == "second"

    def test_same_instant_kind_order_is_deterministic(self):
        """At equal timestamps: completions land first (frees cores),
        then faults, then recoveries, then arrivals — so an arrival
        coinciding with a crash sees the post-crash inventory."""
        q = EventQueue()
        q.push(5.0, EventKind.ARRIVAL, "arrival")
        q.push(5.0, EventKind.RECOVERY, "recovery")
        q.push(5.0, EventKind.FAULT, "fault")
        q.push(5.0, EventKind.COMPLETION, "completion")
        popped = [q.pop().payload for _ in range(4)]
        assert popped == ["completion", "fault", "recovery", "arrival"]

    def test_kind_order_stable_under_insertion_order(self):
        import itertools

        kinds = [EventKind.COMPLETION, EventKind.FAULT,
                 EventKind.RECOVERY, EventKind.ARRIVAL]
        for perm in itertools.permutations(kinds):
            q = EventQueue()
            for kind in perm:
                q.push(1.0, kind, kind.name)
            assert [q.pop().payload for _ in range(4)] == \
                [k.name for k in kinds]


class TestQueueBehavior:
    def test_len_and_bool(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(1.0, EventKind.ARRIVAL)
        assert q and len(q) == 1

    def test_peek(self):
        q = EventQueue()
        q.push(4.0, EventKind.ARRIVAL)
        q.push(2.0, EventKind.ARRIVAL)
        assert q.peek_time() == 2.0
        assert len(q) == 2  # peek does not pop

    def test_empty_pop_raises(self):
        with pytest.raises(IndexError, match="empty"):
            EventQueue().pop()

    def test_empty_peek_raises(self):
        with pytest.raises(IndexError):
            EventQueue().peek_time()

    def test_payload_not_compared(self):
        """Events with uncomparable payloads still order fine."""
        q = EventQueue()
        q.push(1.0, EventKind.ARRIVAL, {"dict": 1})
        q.push(1.0, EventKind.ARRIVAL, {"dict": 2})
        assert q.pop().payload == {"dict": 1}

"""PacketQueue byte accounting and statistics."""

import pytest
from hypothesis import given, strategies as st

from repro.net.queue import PacketQueue
from tests.helpers import data_pkt


class TestBasics:
    def test_starts_empty(self):
        q = PacketQueue(0)
        assert len(q) == 0 and q.bytes == 0 and not q

    def test_push_accounts_wire_bytes(self):
        q = PacketQueue(0)
        q.push(data_pkt(payload=1460))
        assert q.bytes == 1500
        assert len(q) == 1

    def test_fifo_order(self):
        q = PacketQueue(0)
        for i in range(5):
            q.push(data_pkt(seq=i))
        assert [q.pop().seq for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            PacketQueue(0).pop()


class TestStats:
    def test_counters(self):
        q = PacketQueue(0)
        for i in range(3):
            q.push(data_pkt(seq=i))
        q.pop()
        assert q.enqueued_pkts == 3
        assert q.dequeued_pkts == 1
        assert q.dequeued_bytes == 1500

    def test_max_bytes_seen_high_water(self):
        q = PacketQueue(0)
        for i in range(4):
            q.push(data_pkt(seq=i))
        for _ in range(4):
            q.pop()
        assert q.max_bytes_seen == 4 * 1500
        assert q.bytes == 0


@given(st.lists(st.integers(min_value=1, max_value=1460), min_size=1, max_size=100))
def test_property_bytes_always_consistent(payloads):
    """bytes == sum of wire sizes of buffered packets, at every step."""
    q = PacketQueue(0)
    for i, p in enumerate(payloads):
        q.push(data_pkt(seq=i, payload=p))
    expected = sum(p + 40 for p in payloads)
    assert q.bytes == expected
    while q:
        pkt = q.pop()
        expected -= pkt.wire_size
        assert q.bytes == expected
    assert q.bytes == 0

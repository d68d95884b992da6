"""Unit conversions: the arithmetic everything else leans on."""

import pytest

from repro.units import (
    GBPS,
    MSEC,
    MSS,
    MTU,
    SEC,
    USEC,
    bytes_in_flight,
    fmt_rate,
    fmt_time,
    tx_time_ns,
)


class TestTxTime:
    def test_full_mtu_at_10g(self):
        assert tx_time_ns(1500, 10 * GBPS) == 1200

    def test_full_mtu_at_1g(self):
        assert tx_time_ns(1500, GBPS) == 12_000

    def test_rounds_up(self):
        # 1 byte at 3 bps: 8/3 s -> must round up, not truncate
        assert tx_time_ns(1, 3) == -(-8 * SEC // 3)

    def test_zero_size_is_zero(self):
        assert tx_time_ns(0, GBPS) == 0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            tx_time_ns(1500, 0)

    def test_back_to_back_never_overlap(self):
        # serialization times must sum to >= the exact fluid time
        rate = 7_777_777  # awkward rate
        exact = 100 * 1500 * 8 * SEC / rate
        total = sum(tx_time_ns(1500, rate) for _ in range(100))
        assert total >= exact


class TestBdp:
    def test_paper_standard_threshold(self):
        # 10 Gbps x 100 us = 125 KB (the paper's Fig. 3 setup)
        assert bytes_in_flight(10 * GBPS, 100 * USEC) == 125_000

    def test_testbed_bdp(self):
        # 1 Gbps x 250 us ~ 31.25 KB (the testbed's 32 KB threshold)
        assert bytes_in_flight(GBPS, 250 * USEC) == 31_250


class TestFraming:
    def test_mtu_is_mss_plus_header(self):
        assert MTU == MSS + 40


class TestFormatting:
    def test_fmt_time_scales(self):
        assert fmt_time(5) == "5ns"
        assert fmt_time(1500) == "1.500us"
        assert fmt_time(2 * MSEC) == "2.000ms"
        assert fmt_time(3 * SEC) == "3.000s"

    def test_fmt_rate_scales(self):
        assert fmt_rate(5e9) == "5.00Gbps"
        assert fmt_rate(250e6) == "250.00Mbps"
        assert fmt_rate(9_500) == "9.50Kbps"
        assert fmt_rate(12) == "12bps"

"""Unit conversions: the arithmetic everything else leans on."""

from repro.core.thresholds import standard_red_threshold_bytes
from repro.units import GBPS, MSS, MTU, USEC


class TestBdp:
    def test_paper_standard_threshold(self):
        # 10 Gbps x 100 us = 125 KB (the paper's Fig. 3 setup)
        assert standard_red_threshold_bytes(10 * GBPS, 100 * USEC) == 125_000

    def test_testbed_bdp(self):
        # 1 Gbps x 250 us ~ 31.25 KB (the testbed's 32 KB threshold)
        assert standard_red_threshold_bytes(GBPS, 250 * USEC) == 31_250


class TestFraming:
    def test_mtu_is_mss_plus_header(self):
        assert MTU == MSS + 40

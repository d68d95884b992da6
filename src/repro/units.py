"""Units and conversions used throughout the simulator.

Conventions (see DESIGN.md):

* **Time** is an integer number of nanoseconds.  Integer time makes event
  ordering exact and reproducible (no floating-point ties).
* **Rates** are bits per second (plain ints such as ``1 * GBPS``).
* **Sizes** are bytes.  ``KB = 1000`` bytes, matching the paper's usage
  (a 1.5 KB DWRR quantum is exactly one 1500 B MTU).

The helpers below are deliberately tiny, pure functions so the hot packet
path can also inline the arithmetic directly where profiling demands it.
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------

NSEC = 1
USEC = 1_000
MSEC = 1_000_000
SEC = 1_000_000_000

# --- size ------------------------------------------------------------------

BYTE = 1
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

# --- rate (bits per second) ------------------------------------------------

BPS = 1
KBPS = 1_000
MBPS = 1_000_000
GBPS = 1_000_000_000

# --- packet framing --------------------------------------------------------

MTU = 1_500          # bytes on the wire for a full-size data packet
HEADER = 40          # TCP/IP header bytes
MSS = MTU - HEADER   # maximum segment payload
ACK_SIZE = 40        # wire size of a pure ACK
PROBE_SIZE = 64      # wire size of an RTT probe (ping)

# --- leaf-spine fabric -----------------------------------------------------

#: one leaf<->spine link (§6.2: 8 of these hops per cross-leaf round trip)
FABRIC_LINK_DELAY_NS = 650


def tx_time_ns(size_bytes: int, rate_bps: int) -> int:
    """Serialization delay of ``size_bytes`` on a ``rate_bps`` link, in ns.

    Rounds up so that back-to-back transmissions never overlap.

    >>> tx_time_ns(1500, 10 * GBPS)
    1200
    >>> tx_time_ns(1500, GBPS)
    12000
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    bits = size_bytes * 8
    return -(-bits * SEC // rate_bps)  # ceil division


def bytes_in_flight(rate_bps: int, duration_ns: int) -> int:
    """Number of bytes a ``rate_bps`` link carries in ``duration_ns``.

    Useful for bandwidth-delay products:

    >>> bytes_in_flight(10 * GBPS, 100 * USEC)
    125000
    """
    return rate_bps * duration_ns // (8 * SEC)


def fmt_time(t_ns: int) -> str:
    """Human-readable time, e.g. ``fmt_time(1500) == '1.500us'``."""
    if t_ns >= SEC:
        return f"{t_ns / SEC:.3f}s"
    if t_ns >= MSEC:
        return f"{t_ns / MSEC:.3f}ms"
    if t_ns >= USEC:
        return f"{t_ns / USEC:.3f}us"
    return f"{t_ns}ns"


def fmt_rate(rate_bps: float) -> str:
    """Human-readable rate, e.g. ``fmt_rate(5e9) == '5.00Gbps'``."""
    if rate_bps >= GBPS:
        return f"{rate_bps / GBPS:.2f}Gbps"
    if rate_bps >= MBPS:
        return f"{rate_bps / MBPS:.2f}Mbps"
    if rate_bps >= KBPS:
        return f"{rate_bps / KBPS:.2f}Kbps"
    return f"{rate_bps:.0f}bps"

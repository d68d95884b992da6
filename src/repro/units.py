"""Units and conversions used throughout the simulator.

Conventions (see DESIGN.md):

* **Time** is an integer number of nanoseconds.  Integer time makes event
  ordering exact and reproducible (no floating-point ties).
* **Rates** are bits per second (plain ints such as ``1 * GBPS``).
* **Sizes** are bytes.  ``KB = 1000`` bytes, matching the paper's usage
  (a 1.5 KB DWRR quantum is exactly one 1500 B MTU).
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


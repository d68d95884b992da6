"""Marking-threshold arithmetic from the paper (Equations 1-3).

* Equation 1: the *standard* queue-length threshold ``K = C x RTT x lambda``
  for a queue that owns the whole link.
* Equation 2: the *ideal* per-queue threshold ``K_i = C_i x RTT x lambda``
  where ``C_i`` is the (dynamic) per-queue capacity (computed per packet
  by :class:`repro.aqm.ideal.IdealRed` from its measured rates).
* Equation 3: TCN's sojourn-time threshold ``T = RTT x lambda`` — capacity
  cancels out, which is the whole point.

``lambda`` captures the transport's sensitivity to marks: 1.0 for ECN*
(plain ECN TCP that halves on a mark, per Wu et al.), and the DCTCP
guideline of ~0.17 x C x RTT corresponds to passing a smaller lambda.  The
paper's setups always quote concrete K values, which these helpers
reproduce exactly (125 KB for 10 Gbps x 100 us x 1.0, etc.).
"""

from __future__ import annotations

from repro.units import SEC


def standard_red_threshold_bytes(
    rate_bps: int, rtt_ns: int, lam: float = 1.0
) -> int:
    """Equation 1: ``K = C x RTT x lambda`` in bytes.

    >>> from repro.units import GBPS, USEC
    >>> standard_red_threshold_bytes(10 * GBPS, 100 * USEC)
    125000
    """
    return int(rate_bps * rtt_ns * lam / (8 * SEC))


def standard_tcn_threshold_ns(rtt_ns: int, lam: float = 1.0) -> int:
    """Equation 3: TCN's sojourn threshold ``T = RTT x lambda`` in ns.

    >>> from repro.units import USEC
    >>> standard_tcn_threshold_ns(100 * USEC)
    100000
    """
    return int(rtt_ns * lam)

"""The four production workloads of Figure 4.

The paper's Figure 4 plots flow-size CDFs measured in production
datacenters: a web search workload (DCTCP, Alizadeh et al.), a data mining
workload (VL2, Greenberg et al.), and Hadoop and cache workloads from
Facebook (Roy et al.).  The original figure is an image; the knot tables
below are the widely-circulated reconstructions used by the ns-2 scripts of
this research line (PIAS / MQ-ECN / TCN), and they preserve the properties
the paper text relies on:

* all four are heavy-tailed (most flows small, most bytes in large flows);
* web search is the least skewed — roughly 60% of its bytes come from
  flows smaller than 10 MB, so many flows are concurrently active
  (``tests/test_workloads.py`` pins these properties down).

Sizes are bytes; the web search table is the classic packet-denominated
table multiplied out at 1460 B per packet.
"""

from __future__ import annotations

from typing import Dict, List

from repro.units import KB, MB
from repro.workloads.cdf import EmpiricalCdf

_PKT = 1460  # the web-search table is denominated in full segments

#: Web search (DCTCP): query/response traffic, least skewed of the four.
WEB_SEARCH = EmpiricalCdf(
    "websearch",
    [
        (1 * _PKT, 0.0),
        (2 * _PKT, 0.15),
        (3 * _PKT, 0.20),
        (5 * _PKT, 0.30),
        (7 * _PKT, 0.40),
        (40 * _PKT, 0.53),
        (72 * _PKT, 0.60),
        (137 * _PKT, 0.70),
        (667 * _PKT, 0.80),
        (1462 * _PKT, 0.90),
        (3255 * _PKT, 0.95),
        (6849 * _PKT, 0.98),
        (20000 * _PKT, 1.0),
    ],
)

#: Data mining (VL2): extremely skewed — tiny control messages plus a
#: gigabyte-scale tail.
DATA_MINING = EmpiricalCdf(
    "datamining",
    [
        (100, 0.0),
        (180, 0.10),
        (250, 0.20),
        (560, 0.30),
        (900, 0.40),
        (1100, 0.50),
        (1870, 0.60),
        (3160, 0.70),
        (10 * KB, 0.80),
        (400 * KB, 0.90),
        (3160 * KB, 0.95),
        (100 * MB, 0.98),
        (1000 * MB, 1.0),
    ],
)

#: Hadoop (Facebook): bimodal shuffle traffic.
HADOOP = EmpiricalCdf(
    "hadoop",
    [
        (150, 0.0),
        (300, 0.20),
        (1 * KB, 0.40),
        (10 * KB, 0.60),
        (100 * KB, 0.75),
        (1 * MB, 0.85),
        (10 * MB, 0.95),
        (100 * MB, 0.99),
        (1000 * MB, 1.0),
    ],
)

#: Cache (Facebook): key-value traffic, almost all flows small with a
#: moderate tail.
CACHE = EmpiricalCdf(
    "cache",
    [
        (100, 0.0),
        (300, 0.10),
        (500, 0.20),
        (700, 0.30),
        (1 * KB, 0.40),
        (2 * KB, 0.55),
        (5 * KB, 0.70),
        (10 * KB, 0.80),
        (20 * KB, 0.90),
        (50 * KB, 0.95),
        (100 * KB, 0.975),
        (500 * KB, 0.99),
        (10 * MB, 1.0),
    ],
)

#: Bulk transfer: a synthetic two-point mix for hybrid mode —
#: 30% short request/response messages (30 KB) and 70% long bulk
#: transfers (25 MB), so most *flows above any reasonable promotion
#: threshold are identical long transfers* whose steady state the fluid
#: model describes exactly.  Not a paper workload; built for the
#: hybrid-mode ledger workload and the fluid accuracy harness,
#: where a controlled long-flow population keeps the packet-vs-fluid
#: comparison free of heavy-tail sampling noise.
BULK = EmpiricalCdf(
    "bulk",
    [
        (30 * KB, 0.0),
        (30 * KB, 0.3),
        (25 * MB, 0.3),
        (25 * MB, 1.0),
    ],
)

#: All four, in the order the paper lists them (Fig. 4).
ALL_WORKLOADS: List[EmpiricalCdf] = [WEB_SEARCH, DATA_MINING, HADOOP, CACHE]

_BY_NAME: Dict[str, EmpiricalCdf] = {w.name: w for w in ALL_WORKLOADS}
_BY_NAME[BULK.name] = BULK


def workload_by_name(name: str) -> EmpiricalCdf:
    """Look a workload up by its canonical name.

    >>> workload_by_name("websearch").name
    'websearch'
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choose from {sorted(_BY_NAME)}"
        ) from None

"""``halved``: any number of idle measurement ticks at once, bit for bit.

``FluidNetwork.on_tick`` no longer visits a link that sent nothing; its
rate is brought forward by ``halved(rate, n)`` when something reads it.
That is only sound if the helper lands on the very double that ``n``
rounds of the per-tick EWMA update would have — through the exact
range (one ``ldexp``), across the edge of the normals, down the
subnormal tail where every step rounds, and onto 0.0.
"""

from math import ldexp

import pytest

from repro.sim.fluid.network import (
    _BITS_NS,
    _PKT_EWMA_G,
    _PKT_EWMA_KEEP,
    halved,
)

_RATES = [1e9, 9.48e8, 1.0, 2.0**-1021, 1e-300, 5e-324, 0.0]
_TICKS = [0, 1, 2, 52, 53, 64, 65, 1074, 1100, 10**5]


def _eager(rate, n, tick_ns=340_800):
    """``n`` updates the way ``on_tick`` writes one, no byte sent."""
    for _ in range(n):
        rate = _PKT_EWMA_KEEP * rate + _PKT_EWMA_G * (0 * _BITS_NS / tick_ns)
    return rate


@pytest.mark.parametrize("n", _TICKS)
@pytest.mark.parametrize("rate", _RATES, ids=float.hex)
def test_halved_is_n_eager_updates(rate, n):
    assert halved(rate, n).hex() == _eager(rate, n).hex()


def test_halved_composes_across_the_subnormal_edge():
    """Stopping anywhere and going on from there changes nothing: the
    network brings a rate forward to a solve, then further to a tick."""
    for rate in (1e9, 9.48e8, 1e-300):
        for n in (1000, 1040, 1060, 1074, 1110):
            for split in (0, 1, n // 2, n - 53, n - 1, n):
                assert (
                    halved(halved(rate, split), n - split).hex()
                    == halved(rate, n).hex()
                ), (rate, n, split)


def test_the_tail_rounds_where_one_ldexp_would_not():
    """Why the tail is stepped: 5 units in the last place halve to 2
    (2.5, ties to even), 1, then 0 (0.5, ties to even) — one scaling
    by 2**-3 rounds 0.625 up to 1 unit instead."""
    unit = 5e-324
    assert halved(5 * unit, 1) == 2 * unit
    assert halved(5 * unit, 2) == unit
    assert halved(5 * unit, 3) == 0.0
    assert ldexp(5 * unit, -3) == unit

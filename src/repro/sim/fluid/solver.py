"""Max-min fair share solver: progressive water-filling.

The classical fluid abstraction of long-lived TCP: every flow gets the
largest rate such that no flow can be increased without decreasing a
smaller one.  DCTCP converges to exactly this allocation (its marking
law equalises windows among flows sharing a bottleneck), which is why
the fluid engine can state a flow's steady-state goodput in closed form
instead of simulating 17k packets to discover it.

The solver is deliberately pure: plain sequences in, plain containers
out, no simulator state — so it is unit-testable against analytic
shares and trivially deterministic (ties pick the lowest link index;
all arithmetic is IEEE-754 double, identical on every platform).

Two entry points share one loop.  :func:`water_fill` takes the
link→flows incidence ready-made — :class:`~repro.sim.fluid.network.
FluidNetwork` maintains it incrementally across epochs — and
:func:`max_min_shares` is the self-contained form that builds the
incidence from the paths.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

_INF = float("inf")


def check_path(path: Sequence[int], n_links: int, who: str) -> None:
    """Raise ``ValueError`` unless ``path`` is a usable fluid path.

    A path crosses at least one link (every real flow crosses its
    sender's NIC), names only links that exist, and names each once:
    the per-link accounting walks paths, so a repeated link would be
    charged twice.
    """
    if not path:
        raise ValueError(f"{who} has an empty path")
    for li in path:
        if not 0 <= li < n_links:
            raise ValueError(
                f"{who} crosses link {li}, outside 0..{n_links - 1}"
            )
    if len(set(path)) != len(path):
        raise ValueError(f"{who} crosses a link twice: {list(path)}")


def water_fill(
    cap_left: List[float],
    link_flows: Sequence[Sequence[int]],
    paths: Sequence[Sequence[int]],
    n_flows: int,
) -> Tuple[Dict[int, float], Set[int], int]:
    """Water-fill the ``n_flows`` flows listed in ``link_flows``.

    ``link_flows[li]`` lists the ids of the flows crossing link ``li``
    and ``paths[f]`` the links flow ``f`` crosses (the two must agree;
    ids need not be dense).  ``cap_left`` holds the link capacities and
    is consumed: on return it holds what the allocation left over.

    Returns ``(rate of each flow id, bottleneck links, rounds)``.

    Each round freezes the flows of the link with the smallest equal
    share ``cap_left / unfrozen flows``.  ``shares`` keeps that quotient
    per link (infinite once a link has no unfrozen flow), refreshed
    only for the links a frozen flow crosses, so a round costs one
    ``min`` and one ``index`` over the list — both loops in C, and
    ``index`` returns the lowest link among equal shares — plus the
    path lengths of the flows it freezes.
    """
    rates: Dict[int, float] = {}
    counts = list(map(len, link_flows))
    shares = [
        cap_left[li] / c if c else _INF for li, c in enumerate(counts)
    ]
    bottlenecks: Set[int] = set()
    iterations = 0
    while n_flows:
        iterations += 1
        fair = min(shares)
        best = shares.index(fair)
        if not counts[best]:
            # every live link has infinite capacity, so an idle link's
            # placeholder tied with them: take the first live one
            best = next(li for li, c in enumerate(counts) if c)
        if fair < 0.0:
            fair = 0.0
        bottlenecks.add(best)
        for f in link_flows[best]:
            if f in rates:
                continue
            rates[f] = fair
            n_flows -= 1
            for li in paths[f]:
                cap_left[li] = left = cap_left[li] - fair
                counts[li] = c = counts[li] - 1
                shares[li] = left / c if c else _INF
    return rates, bottlenecks, iterations


def max_min_shares(
    capacities: Sequence[float],
    paths: Sequence[Sequence[int]],
) -> Tuple[List[float], Set[int], int]:
    """Water-fill ``len(paths)`` flows over ``len(capacities)`` links.

    ``capacities`` are link rates in bits/s; ``paths`` give, per flow,
    the link indices it crosses (see :func:`check_path`).

    Returns ``(rates_bps, bottleneck_links, iterations)``:

    * ``rates_bps`` — the max-min fair rate of each flow;
    * ``bottleneck_links`` — the links whose capacity the allocation
      exhausts (each water-filling round freezes one);
    * ``iterations`` — water-filling rounds executed (at most the
      number of distinct bottleneck links), reported up into
      ``fluid_stats`` so epoch cost stays observable.

    >>> max_min_shares([10.0], [[0], [0]])[0]
    [5.0, 5.0]
    >>> rates, bn, _ = max_min_shares([10.0, 4.0], [[0], [0, 1]])
    >>> rates
    [6.0, 4.0]
    >>> sorted(bn)
    [0, 1]
    """
    n_links = len(capacities)
    link_flows: List[List[int]] = [[] for _ in range(n_links)]
    for f, path in enumerate(paths):
        check_path(path, n_links, f"flow {f}")
        for li in path:
            link_flows[li].append(f)
    rates, bottlenecks, iterations = water_fill(
        [float(c) for c in capacities], link_flows, paths, len(paths)
    )
    return [rates[f] for f in range(len(paths))], bottlenecks, iterations

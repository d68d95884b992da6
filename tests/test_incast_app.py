"""The partition-aggregate (incast) application."""

import pytest

from repro.apps.incast import IncastApp
from repro.core.tcn import Tcn
from repro.sched.fifo import FifoScheduler
from repro.sim.engine import Simulator
from repro.topo.star import StarTopology
from repro.units import GBPS, KB, MSEC, SEC, USEC


def _setup(n_workers=8, buffer_kb=300, rate=10 * GBPS):
    sim = Simulator()
    topo = StarTopology(
        sim, n_workers + 1, rate,
        sched_factory=FifoScheduler,
        aqm_factory=lambda: Tcn(100 * USEC),
        buffer_bytes=buffer_kb * KB,
        link_delay_ns=25_000,
    )
    return sim, topo


class TestIncastApp:
    def test_queries_complete(self):
        sim, topo = _setup()
        app = IncastApp(
            sim, topo.hosts[0], topo.hosts[1:], response_bytes=20 * KB,
            interval_ns=10 * MSEC, n_queries=5,
        )
        sim.schedule(0, app.start)
        sim.run(until=1 * SEC)
        assert app.completed == 5
        assert all(q > 0 for q in app.qcts_ns())

    def test_qct_is_tail_bound(self):
        """QCT equals the slowest response, not the fastest."""
        sim, topo = _setup()
        app = IncastApp(
            sim, topo.hosts[0], topo.hosts[1:], response_bytes=50 * KB,
            interval_ns=50 * MSEC, n_queries=1,
        )
        sim.schedule(0, app.start)
        sim.run(until=1 * SEC)
        query = app.queries[0]
        assert query.qct_ns >= max(f.fct_ns for f in query.flows)

    def test_interval_spacing(self):
        sim, topo = _setup()
        app = IncastApp(
            sim, topo.hosts[0], topo.hosts[1:], response_bytes=10 * KB,
            interval_ns=7 * MSEC, n_queries=3,
        )
        sim.schedule(0, app.start)
        sim.run(until=1 * SEC)
        starts = [q.start_ns for q in app.queries]
        assert starts == [0, 7 * MSEC, 14 * MSEC]

    def test_flow_count_and_ids_unique(self):
        sim, topo = _setup(n_workers=4)
        app = IncastApp(
            sim, topo.hosts[0], topo.hosts[1:], response_bytes=10 * KB,
            interval_ns=5 * MSEC, n_queries=3,
        )
        sim.schedule(0, app.start)
        sim.run(until=1 * SEC)
        ids = [f.id for q in app.queries for f in q.flows]
        assert len(ids) == 12 and len(set(ids)) == 12

    def test_heavy_incast_survives_tight_buffer(self):
        """32-way incast into a 100 KB buffer: timeouts happen, but every
        query eventually completes (reliability under pressure)."""
        sim, topo = _setup(n_workers=32, buffer_kb=100)
        app = IncastApp(
            sim, topo.hosts[0], topo.hosts[1:], response_bytes=64 * KB,
            interval_ns=50 * MSEC, n_queries=3, min_rto_ns=10 * MSEC,
        )
        sim.schedule(0, app.start)
        sim.run(until=5 * SEC)
        assert app.completed == 3

    def test_validation(self):
        sim, topo = _setup()
        with pytest.raises(ValueError):
            IncastApp(sim, topo.hosts[0], [], response_bytes=10 * KB,
                      interval_ns=1, n_queries=1)
        with pytest.raises(ValueError):
            IncastApp(sim, topo.hosts[0], topo.hosts[1:], response_bytes=0,
                      interval_ns=1, n_queries=1)

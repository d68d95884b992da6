"""Partition-aggregate query generation (the web-search pattern of §1).

An aggregator fans a query out to ``n_workers`` servers; every worker
answers with a fixed-size response *simultaneously* — the classic incast
microburst that motivates low-latency AQM in the first place.  The query
completes when the **last** response finishes, so query completion time
(QCT) is a tail-sensitive metric: one timed-out response ruins the query.

Used by the incast example (``examples/incast_queries.py``).
"""

from __future__ import annotations

from typing import List, Optional, Type

from repro.sim.engine import Simulator
from repro.transport.base import SenderBase
from repro.transport.dctcp import DctcpSender
from repro.transport.flow import Flow
from repro.transport.receiver import Receiver


class IncastQuery:
    """One fan-out/fan-in round."""

    __slots__ = ("query_id", "start_ns", "done_ns", "pending", "flows")

    def __init__(self, query_id: int, start_ns: int, flows: List[Flow]) -> None:
        self.query_id = query_id
        self.start_ns = start_ns
        self.done_ns: Optional[int] = None
        self.pending = len(flows)
        self.flows = flows

    @property
    def qct_ns(self) -> Optional[int]:
        """Query completion time: last response in minus query out."""
        if self.done_ns is None:
            return None
        return self.done_ns - self.start_ns


class IncastApp:
    """Issues periodic partition-aggregate queries.

    Parameters
    ----------
    aggregator:
        Host object receiving all responses.
    workers:
        Host objects that answer (each contributes one response flow).
    response_bytes:
        Size of each worker's answer.
    interval_ns:
        Gap between consecutive queries (new queries are issued even if an
        old one is still outstanding — as real aggregators do).
    sender_cls / sender_kwargs:
        Transport used for the responses (DCTCP by default).
    """

    def __init__(
        self,
        sim: Simulator,
        aggregator,
        workers: List,
        response_bytes: int,
        interval_ns: int,
        n_queries: int,
        sender_cls: Type[SenderBase] = DctcpSender,
        **sender_kwargs,
    ) -> None:
        if not workers:
            raise ValueError("incast needs at least one worker")
        if response_bytes <= 0:
            raise ValueError(f"response size must be positive, got {response_bytes}")
        self.sim = sim
        self.aggregator = aggregator
        self.workers = workers
        self.response_bytes = response_bytes
        self.interval_ns = interval_ns
        self.n_queries = n_queries
        self.sender_cls = sender_cls
        self.sender_kwargs = sender_kwargs
        self.queries: List[IncastQuery] = []
        #: response flow ids count up from here, clear of a workload's ids
        self._next_flow_id = 1_000_000
        self._issued = 0

    def start(self) -> None:
        """Issue the first query now; the rest follow every interval."""
        self._issue()

    def _issue(self) -> None:
        if self._issued >= self.n_queries:
            return
        self._issued += 1
        now = self.sim.now
        flows = []
        for worker in self.workers:
            flow = Flow(
                self._next_flow_id,
                worker.id,
                self.aggregator.id,
                self.response_bytes,
            )
            self._next_flow_id += 1
            flows.append(flow)
        query = IncastQuery(self._issued, now, flows)
        self.queries.append(query)
        for worker, flow in zip(self.workers, flows):
            Receiver(
                self.sim, self.aggregator, flow,
                on_complete=lambda fl, q=query: self._on_response(q),
            )
            sender = self.sender_cls(
                self.sim, worker, flow, **self.sender_kwargs
            )
            self.sim.schedule(0, sender.start)
        if self._issued < self.n_queries:
            self.sim.schedule(self.interval_ns, self._issue)

    def _on_response(self, query: IncastQuery) -> None:
        query.pending -= 1
        if query.pending == 0:
            query.done_ns = self.sim.now

    # -- results ------------------------------------------------------------

    def qcts_ns(self) -> List[int]:
        """Completion times of all finished queries."""
        return [q.qct_ns for q in self.queries if q.qct_ns is not None]

    @property
    def completed(self) -> int:
        return len(self.qcts_ns())

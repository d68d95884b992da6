"""Per-queue ECN/RED — the paper's "current practice" baseline (§3.2.1).

Each queue compares its own instantaneous backlog against a static
threshold at enqueue: the simplified RED (``K_min = K_max = K``, no
averaging) that, per §2.1, production datacenters run.  Operators set the
*standard* threshold ``K = C x RTT x lambda`` on every queue; when several
queues are busy the per-queue capacity is far below C, so the static K
admits excess backlog — Remark 1's latency and burst-tolerance penalty,
which the FCT experiments quantify.

Per-queue thresholds may also be set individually, which doubles as the
"ideal ECN/RED with prior knowledge of queue capacities" oracle used in the
static-flow experiment (Fig. 5b): pass the pre-computed ``C_i x RTT x
lambda`` of each queue.
"""

from __future__ import annotations

from typing import Dict, Sequence, TYPE_CHECKING, Tuple, Union

from repro.aqm.base import Aqm
from repro.net.packet import Packet
from repro.net.queue import PacketQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.port import EgressPort


class PerQueueThresholds:
    """One static K per queue, for the queue-length schemes that compare a
    queue's own backlog against it (mixed in ahead of :class:`Aqm`, which
    supplies the one marking hook each scheme overrides).

    ``threshold_bytes`` is a single K applied to every queue, or one K per
    queue (by queue position in the scheduler's bank).
    """

    __slots__ = ("_thresholds", "_K")

    def __init__(self, threshold_bytes: Union[int, Sequence[int]]) -> None:
        uniform = isinstance(threshold_bytes, int)
        each = (threshold_bytes,) if uniform else tuple(threshold_bytes)
        for k in each:
            if k < 0:
                raise ValueError(f"threshold_bytes must be >= 0, got {k}")
        self._thresholds: Union[int, Tuple[int, ...]] = (
            threshold_bytes if uniform else each
        )
        self._K: Dict[int, int] = {}

    def setup(self, port: "EgressPort") -> None:
        queues = port.scheduler.queues
        spec = self._thresholds
        thresholds = [spec] * len(queues) if isinstance(spec, int) else spec
        if len(thresholds) != len(queues):
            raise ValueError(f"{len(thresholds)} thresholds for {len(queues)} queues")
        for queue, k in zip(queues, thresholds):
            self._K[id(queue)] = k


class PerQueueRed(PerQueueThresholds, Aqm):
    """Static per-queue threshold marking at enqueue."""

    __slots__ = ()

    def on_enqueue(
        self, port: "EgressPort", queue: PacketQueue, pkt: Packet, now: int
    ) -> bool:
        return queue.bytes > self._K[id(queue)]

"""The runtime sanitizer: freelist ownership and event order, checked as a run goes.

``Simulator(sanitize=True)`` — or ``REPRO_SANITIZE=1`` in the
environment, or ``--sanitize`` on the ``run`` CLI (its only home) — arms a
:class:`Sanitizer` that enforces, while the simulation runs, what no
source check can see (``tests/test_source_invariants.py`` confines who
may touch the heap and the freelist; this checks how they are used):

* **freelist discipline** — released frames are *poisoned*
  (``ts``/``enq_ts`` stamped with an impossible sentinel), so a double
  ``release()`` is caught at the second call and a frame found
  un-poisoned on the freelist exposes direct ``_free`` tampering.  The
  ``make_*`` constructors rewrite every field of a recycled frame, so
  poisoning is invisible to a correct simulation — bit-identical
  results, asserted by ``tests/test_sanitize.py``.
* **event-queue order** — :meth:`Sanitizer.push` and :meth:`Sanitizer.pop`,
  drop-in twins of ``heapq.heappush``/``heappop``, check every heap
  transition: no push behind the clock, no duplicate live ``seq``,
  ``(time, seq)`` pop order, and no pop behind the clock.

Everything is **zero overhead when off**: the engine binds the checked
primitives in place of ``heapq``'s only when sanitizing, and the
freelist hooks are one module-global ``None`` check per call.
Violations raise :class:`SanitizeError` by default
(``raise_on_violation=False`` collects them instead) and are recorded
with simulated-time context — pass a
:class:`repro.obs.spans.SpanRecorder` to also land each violation on the
flight-recorder timeline.

The freelist hook is process-global (the freelist itself is), attached
by the most recently constructed sanitizing ``Simulator``; use
:func:`detach` for explicit cleanup in tests.
"""

from __future__ import annotations

import heapq
import os
from typing import TYPE_CHECKING, Any, List, NamedTuple, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.spans import SpanRecorder
    from repro.sim.engine import Simulator

__all__ = [
    "POISON",
    "SanitizeError",
    "Sanitizer",
    "Violation",
    "detach",
    "env_enabled",
]

#: the poison stamp written into released frames' ``ts``/``enq_ts`` —
#: legitimate values are non-negative nanosecond counts, so the sentinel
#: can never collide with live data
POISON = -(2**62)


class SanitizeError(RuntimeError):
    """A sanitizer invariant was violated (the default reaction)."""


class Violation(NamedTuple):
    """One recorded invariant violation."""

    kind: str
    message: str
    time_ns: int


def env_enabled() -> bool:
    """The ``REPRO_SANITIZE`` environment switch (unset/``0`` = off)."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


class Sanitizer:
    """Violation collector, checked heap primitives, freelist poisoning.

    One instance per sanitizing :class:`~repro.sim.engine.Simulator`;
    the engine binds :meth:`push`/:meth:`pop` as its heap primitives and
    (via :meth:`attach_freelist`) installs the packet freelist hooks.
    """

    __slots__ = (
        "sim", "violations", "raise_on_violation", "spans", "_bar", "_live",
    )

    def __init__(
        self,
        sim: Optional["Simulator"] = None,
        raise_on_violation: bool = True,
        spans: Optional["SpanRecorder"] = None,
    ) -> None:
        self.sim = sim
        self.violations: List[Violation] = []
        self.raise_on_violation = raise_on_violation
        self.spans = spans
        #: the least ``(time, seq)`` the next pop may surface: the last
        #: popped key, lowered by any later push below it
        self._bar: Tuple[int, int] = (-1, -1)
        #: seqs of entries in the heap (tombstones included)
        self._live: Set[int] = set()

    # -- reporting --------------------------------------------------------

    def record(self, kind: str, message: str) -> None:
        """Record one violation; raise unless configured to collect."""
        now = self.sim.now if self.sim is not None else -1
        violation = Violation(kind, message, now)
        self.violations.append(violation)
        spans = self.spans
        if spans is not None:
            from repro.obs.spans import wall_ns

            spans.add(
                "sanitize",
                kind,
                wall_ns(),
                0,
                tid="sanitize",
                args={"message": message, "sim_ns": now},
            )
        if self.raise_on_violation:
            raise SanitizeError(f"[{kind}] t={now}ns: {message}")

    # -- heap primitives ----------------------------------------------------

    def push(self, heap: List[Any], entry: Any) -> None:
        """Checked ``heapq.heappush``: nothing behind the clock, no live
        duplicate ``seq`` (it would break cancel bookkeeping and the
        totality of the ``(time, seq)`` order)."""
        t = entry[0]
        s = entry[1]
        sim = self.sim
        if sim is not None and t < sim.now:
            self.record(
                "push-into-past",
                f"entry (t={t}, seq={s}) pushed behind the clock "
                f"(now={sim.now})",
            )
        if s in self._live:
            self.record(
                "duplicate-seq",
                f"seq {s} pushed while already live (t={t}) — cancel "
                "bookkeeping and tie-order totality are broken",
            )
        else:
            self._live.add(s)
        if (t, s) < self._bar:
            # lawful: the run loop returning an entry it popped past its
            # bound, or a push after a tombstone past the bound was dropped
            self._bar = (t, s)
        heapq.heappush(heap, entry)

    def pop(self, heap: List[Any]) -> Any:
        """Checked ``heapq.heappop``: entries surface in non-decreasing
        ``(time, seq)`` order and never behind the clock.  An empty heap
        raises ``IndexError``, as ``heappop`` does."""
        entry = heapq.heappop(heap)
        t = entry[0]
        s = entry[1]
        bar = self._bar
        if (t, s) < bar:
            self.record(
                "pop-order",
                f"entry (t={t}, seq={s}) surfaced after "
                f"(t={bar[0]}, seq={bar[1]}) — (time, seq) pop order "
                "violated",
            )
        sim = self.sim
        if sim is not None and t < sim.now:
            self.record(
                "time-regression",
                f"entry (t={t}, seq={s}) popped behind the clock "
                f"(now={sim.now})",
            )
        self._bar = (t, s)
        self._live.discard(s)
        return entry

    # -- freelist protocol ------------------------------------------------

    def attach_freelist(self) -> None:
        """Install this sanitizer as the process-wide freelist hook.

        Clears retained frames so the "everything on the freelist is
        poisoned" invariant holds from here on (counters are preserved).
        """
        from repro.net import packet

        packet.set_sanitizer(self)

    def on_release(self, pkt: Any) -> bool:
        """``release()`` hook: catch double-release, then poison.

        Returns ``False`` when the frame must *not* rejoin the freelist
        (it is already there — appending again would hand one frame to
        two owners).
        """
        if pkt.ts == POISON and pkt.enq_ts == POISON:
            self.record(
                "double-release",
                f"frame released twice (flow={pkt.flow_id} "
                f"seq={pkt.seq} kind={int(pkt.kind)})",
            )
            return False
        pkt.ts = POISON
        pkt.enq_ts = POISON
        return True

    def on_reuse(self, pkt: Any) -> None:
        """``make_*`` hook: every recycled frame must carry the poison."""
        if pkt.ts != POISON or pkt.enq_ts != POISON:
            self.record(
                "freelist-corruption",
                "un-poisoned frame found on the freelist — something "
                "bypassed release() (direct _free access?)",
            )


def detach() -> None:
    """Remove any installed freelist sanitizer (test cleanup)."""
    from repro.net import packet

    packet.set_sanitizer(None)

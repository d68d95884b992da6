"""SIM017: confined subsystem APIs smuggled outside their owning packages."""

import gc  # expect: SIM017
import repro.net.packet as packet

from repro.net.packet import freelist_stats
from repro.sim.engine import heappush  # expect: SIM017


def pause_collector():
    # near miss for the call pass: the `import gc` above already reported,
    # so the acquisition path fires exactly once per module
    gc.disable()


def rank(heap, item):
    heappush(heap, item)  # same: reported at the from-import line


def recycle(frame):
    # the import line was innocent (module alias, not a confined name);
    # the call graph still resolves this to repro.net.packet.release
    packet.release(frame)  # expect: SIM017


def audit():
    # near miss: freelist_stats is observability, not a confined API
    return freelist_stats()

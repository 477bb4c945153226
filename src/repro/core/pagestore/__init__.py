"""Page stores: where page payloads live (Sections 4.2 and 4.3).

Three implementations behind one interface:

- :class:`~repro.core.pagestore.memory.MemoryPageStore` -- dict-backed;
  fast, used in tests and for metadata caching.
- :class:`~repro.core.pagestore.local.LocalFilePageStore` -- *real files*
  laid out in the paper's multi-level directory hierarchy (Figure 4), with
  checksums, crash recovery by directory walk, and bucketed fan-out.
- :class:`~repro.core.pagestore.simulated.SimulatedSsdPageStore` -- payloads
  in memory, *timing* on the virtual clock via an SSD device model, plus
  failure injection (read hangs, corruption, ENOSPC) for the Section 8
  failure case studies.
"""

from repro.core.pagestore.base import PageStore
from repro.core.pagestore.local import LocalFilePageStore
from repro.core.pagestore.memory import MemoryPageStore

# The simulated store is the one pagestore that depends on the virtual-time
# kernel; it is loaded lazily so importing repro.core (and CacheEngine in
# particular) never pulls in repro.sim (DESIGN.md §14).
_SIMULATED = {"FaultPlan", "SimulatedSsdPageStore"}


def __getattr__(name: str):
    if name in _SIMULATED:
        from repro.core.pagestore import simulated

        return getattr(simulated, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SIMULATED)


__all__ = [
    "PageStore",
    "MemoryPageStore",
    "LocalFilePageStore",
    "SimulatedSsdPageStore",
    "FaultPlan",
]

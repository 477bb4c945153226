"""Hexagonal ports: the leaf vocabulary both transports plug into.

The cache core (:mod:`repro.core`) is transport-agnostic: it never decides
*how* time passes or *where* randomness comes from.  Those arrive through
the small interfaces in this package -- the "ports" of a
ports-and-adapters architecture (DESIGN.md §14).  Two adapters exist:

- the virtual-time kernel (:mod:`repro.sim`, adapted through
  :mod:`repro.service.sim_transport`), which injects a
  :class:`~repro.ports.clock.SimClock`; and
- the real asyncio cache service (:mod:`repro.service.server`), which
  injects a :class:`~repro.ports.clock.WallClock` and sweeps TTLs on its
  own loop.

``repro.ports`` is a strict leaf (enforced by the ``ports-leaf``
architecture contract): it imports nothing from ``repro``, so every layer
-- including ``repro.sim`` itself -- may depend on it without coupling.
"""

from repro.ports.clock import Clock, SimClock, WallClock
from repro.ports.rng import RngStream

__all__ = [
    "Clock",
    "SimClock",
    "WallClock",
    "RngStream",
]

"""Admission-controlled query server over one :class:`~repro.Database`.

The service shape of the engine: worker pools shared across queries
(:mod:`repro.server.pools`), bounded admission with configurable overload
policy (:mod:`repro.server.admission`), and the long-lived
:class:`DatabaseServer` façade tying them together
(:mod:`repro.server.server`).

Quickstart::

    from repro import Database
    from repro.server import DatabaseServer, ServerConfig

    with DatabaseServer(db, ServerConfig(max_concurrent=2)) as server:
        print(server.count(query))
"""

from .admission import POLICIES, ServerConfig, ServerStats, ServerTicket
from .pools import CircuitBreaker, PoolLease, PoolSupervisor
from .server import DatabaseServer

__all__ = [
    "CircuitBreaker",
    "DatabaseServer",
    "POLICIES",
    "PoolLease",
    "PoolSupervisor",
    "ServerConfig",
    "ServerStats",
    "ServerTicket",
]

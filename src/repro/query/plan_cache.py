"""An LRU plan cache keyed on (query fingerprint, store generation, knobs).

``Database`` re-planned every :class:`~repro.query.pattern.QueryGraph` it was
handed, even when the same pattern had just been planned against the same
store state — the regime the paper's serving story assumes (a fixed set of
hot patterns re-executed against an evolving store) pays that planning tax on
every request.  :class:`PlanCache` memoizes the optimizer:

* **Key** — ``(query.fingerprint(), store generation, planning knobs)``.
  The fingerprint is the canonical label of the pattern
  (:meth:`~repro.query.pattern.QueryGraph.fingerprint`), so structurally
  identical queries share an entry regardless of variable names or insertion
  order.  The generation component makes invalidation free: every
  ``install_state`` — maintenance flush, primary reconfiguration, index
  DDL — bumps :attr:`~repro.index.index_store.StoreState.generation`, so a
  submission after any store change misses and re-plans against the new
  state.  The superseded entries can never be hit again, yet each pins its
  generation's graph and indexes, so the store drops them as it installs
  the new state (:meth:`PlanCache.retire_before`, wired up by ``Database``)
  instead of letting them age out of the LRU bound.  ``knobs`` is an
  opaque tuple for anything else that changes what the planner would emit
  (empty today; the extension point for e.g. a LIMIT-aware planner).
* **Value** — the *same* :class:`~repro.query.plan.QueryPlan` object every
  hit, pinned snapshot included.  Identity matters: the persistent pools'
  payload registry (:mod:`repro.server.pools`) is keyed on
  ``(id(plan), generation, ...)``, so cache hits compound into zero
  re-pickling of the plan/graph payload to pool workers.
* **Determinism** — the optimizer is deterministic given a store state, and
  a generation uniquely identifies one immutable state, so a cache-hit
  execution is byte-identical to a fresh-planned one on every backend.

Thread safety: all bookkeeping happens under one lock; planning itself (the
``planner`` callback of :meth:`PlanCache.get_or_plan`) runs *outside* it, so
concurrent misses never serialize on the optimizer — two racing planners of
the same key both produce valid identical-semantics plans and the last
insert wins.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..errors import ExecutionError
from .pattern import QueryGraph
from .plan import QueryPlan

#: Default capacity of a :class:`Database`'s plan cache: comfortably above
#: any realistic hot-pattern working set while bounding worst-case retention
#: (each entry pins its generation's snapshot — graph and indexes — alive).
DEFAULT_PLAN_CACHE_CAPACITY = 64


@dataclass
class PlanCacheStats:
    """Monotonic cache counters (guarded by the cache's lock)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class PlanCache:
    """A bounded LRU of planned queries; see the module docstring.

    ``capacity=0`` disables caching (every lookup misses, nothing is
    retained) — the planner still runs, so behaviour is identical minus the
    memoization.
    """

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_CAPACITY) -> None:
        if capacity < 0:
            raise ExecutionError(
                f"plan cache capacity must be >= 0, got {capacity} "
                "(0 disables caching)"
            )
        self.capacity = capacity
        self.stats = PlanCacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, QueryPlan]" = OrderedDict()
        #: Oldest generation still worth caching (see :meth:`retire_before`).
        self._live_from = 0

    # ------------------------------------------------------------------
    # keying
    # ------------------------------------------------------------------
    @staticmethod
    def key_for(query: QueryGraph, generation: int, knobs: Tuple = ()) -> Tuple:
        return (query.fingerprint(), generation, knobs)

    # ------------------------------------------------------------------
    # lookup / insert
    # ------------------------------------------------------------------
    def lookup(
        self, query: QueryGraph, generation: int, knobs: Tuple = ()
    ) -> Optional[QueryPlan]:
        """The cached plan for this key, or None; counts a hit or a miss."""
        key = self.key_for(query, generation, knobs)
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return plan

    def insert(
        self,
        query: QueryGraph,
        generation: int,
        plan: QueryPlan,
        knobs: Tuple = (),
    ) -> None:
        """Remember a freshly planned query; evicts LRU entries over capacity."""
        if self.capacity == 0:
            return
        key = self.key_for(query, generation, knobs)
        with self._lock:
            if generation < self._live_from:
                # Planned against a snapshot a concurrent flush has since
                # superseded: the entry would be dead on arrival.
                return
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def get_or_plan(
        self,
        query: QueryGraph,
        generation: int,
        planner: Callable[[], QueryPlan],
        knobs: Tuple = (),
    ) -> Tuple[QueryPlan, bool]:
        """Resolve ``(plan, cache_hit)``; plans via ``planner()`` on a miss.

        The planner runs outside the lock (see the module docstring on
        racing misses).  The planner's result must already carry its pinned
        ``store_snapshot`` — the cache stores it verbatim and hands the same
        object back on every hit.
        """
        plan = self.lookup(query, generation, knobs)
        if plan is not None:
            return plan, True
        plan = planner()
        self.insert(query, generation, plan, knobs)
        return plan, False

    # ------------------------------------------------------------------
    # introspection / maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def retire_before(self, generation: int) -> None:
        """Drop every entry planned against a generation older than this one.

        Called by the store as it installs ``generation``: lookups only
        ever ask for the current generation, so older entries are
        unreachable and only keep their pinned graph and indexes alive.
        Plans already handed out are untouched — a pre-built
        :class:`QueryPlan` replays against its own pinned snapshot without
        going through the cache.
        """
        with self._lock:
            self._live_from = max(self._live_from, generation)
            for key in [key for key in self._entries if key[1] < self._live_from]:
                del self._entries[key]

    def describe(self) -> str:
        with self._lock:
            entries = len(self._entries)
            counters = self.stats.snapshot()
        counter_text = ", ".join(f"{k}={v}" for k, v in counters.items())
        return (
            f"Plan cache: {entries}/{self.capacity} entries "
            f"(LRU; keyed on (fingerprint, generation, knobs)); "
            f"{counter_text}"
        )

"""An LRU plan cache keyed on (query fingerprint, plan epoch, knobs).

``Database`` re-planned every :class:`~repro.query.pattern.QueryGraph` it was
handed, even when the same pattern had just been planned against the same
store state — the regime the paper's serving story assumes (a fixed set of
hot patterns re-executed against an evolving store) pays that planning tax on
every request.  :class:`PlanCache` memoizes the optimizer:

* **Key** — ``(query.fingerprint(), plan epoch, planning knobs)``.  The
  fingerprint is the canonical label of the pattern
  (:meth:`~repro.query.pattern.QueryGraph.fingerprint`), so structurally
  identical queries share an entry regardless of variable names or insertion
  order.  The plan epoch (:class:`~repro.index.index_store.StoreState`) is a
  run of store generations with one frozen set of planner statistics: index
  DDL, DROP and a primary reconfiguration start a new one, and so does a
  flush that takes the edges changed since the epoch began past
  :data:`~repro.index.index_store.ANALYZE_SCALE_FACTOR` of its edge count.
  The optimizer reads nothing else that a flush changes, so one epoch plans
  a pattern once.  ``knobs`` is an opaque tuple for anything else that
  changes what the planner would emit (empty today; the extension point for
  e.g. a LIMIT-aware planner).
* **Value** — the epoch's plan as a *template*
  (:meth:`~repro.query.plan.QueryPlan.template`: every access path names its
  index instead of holding it), plus at most one plan bound to the live
  generation.  A lookup that finds the bound plan on an older generation of
  the epoch — the first read after a flush — rebinds the template to the
  caller's snapshot (:meth:`~repro.query.plan.QueryPlan.bind`) instead of
  running the optimizer: a hit, also counted in ``stats.rebinds``.  Every
  other hit returns the *same* bound plan object.  Identity matters: the
  persistent pools' payload registry (:mod:`repro.server.pools`) is keyed on
  ``(id(plan), generation, ...)``, so cache hits compound into zero
  re-pickling of the plan/graph payload to pool workers.
* **Retention** — nothing here pins a superseded generation: as the store
  installs a state (:meth:`PlanCache.retire_before`, wired up by
  ``Database``) the entries of older epochs are dropped and the bound plans
  of older generations released; a template holds no graph or index.
* **Determinism** — the optimizer is deterministic given its inputs, and a
  rebound plan equals the one a fresh optimizer run against the same
  snapshot returns (same operators, same indexes, same i-cost), so a
  cache-hit execution is byte-identical to a fresh-planned one on every
  backend.

Thread safety: all bookkeeping (rebinding included, a few object copies)
happens under one lock; planning itself (the ``planner`` callback of
:meth:`PlanCache.get_or_plan`) runs *outside* it, so concurrent misses never
serialize on the optimizer — two racing planners of the same key both
produce valid identical-semantics plans and the last insert wins.
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
#: (each entry pins at most the live generation's snapshot).
DEFAULT_PLAN_CACHE_CAPACITY = 64


@dataclass
class PlanCacheStats:
    """Monotonic cache counters (guarded by the cache's lock)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Hits that rebound the epoch's plan to a newer generation (each is
    #: also counted in ``hits``).
    rebinds: int = 0

    def snapshot(self) -> Dict[str, int]:
        """The lookup outcomes every consumer reconciles (``hits + misses``
        is the number of lookups) and the LRU's evictions."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class _Entry:
    """One epoch's plan: the template, and the plan bound to the live
    generation (``None`` once that generation is superseded)."""

    __slots__ = ("template", "bound")

    def __init__(self, template: QueryPlan, bound: Optional[QueryPlan]) -> None:
        self.template = template
        self.bound = bound


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
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        #: Oldest epoch and generation still worth keeping (see
        #: :meth:`retire_before`).
        self._live_epoch = 0
        self._live_generation = 0

    # ------------------------------------------------------------------
    # keying
    # ------------------------------------------------------------------
    @staticmethod
    def key_for(query: QueryGraph, epoch: int, knobs: Tuple = ()) -> Tuple:
        return (query.fingerprint(), epoch, knobs)

    # ------------------------------------------------------------------
    # lookup / insert
    # ------------------------------------------------------------------
    def lookup(
        self,
        query: QueryGraph,
        epoch: int,
        knobs: Tuple = (),
        snapshot=None,
    ) -> Optional[QueryPlan]:
        """The epoch's plan bound to ``snapshot``, or None; counts a hit or
        a miss.

        A plan bound to another generation than ``snapshot``'s is rebound to
        ``snapshot`` (a hit and a rebind); the rebound plan replaces the
        bound one unless ``snapshot`` is already superseded.  Without a
        ``snapshot`` the bound plan is returned as it is.
        """
        key = self.key_for(query, epoch, knobs)
        with self._lock:
            entry = self._entries.get(key)
            plan = None if entry is None else entry.bound
            if entry is not None and snapshot is not None:
                generation = snapshot.state.generation
                if plan is None or plan.pinned_generation != generation:
                    plan = entry.template.bind(snapshot)
                    self.stats.rebinds += 1
                    if generation >= self._live_generation:
                        entry.bound = plan
            if plan is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return plan

    def insert(
        self,
        query: QueryGraph,
        epoch: int,
        plan: QueryPlan,
        knobs: Tuple = (),
    ) -> None:
        """Remember a freshly planned query; evicts LRU entries over capacity."""
        if self.capacity == 0:
            return
        key = self.key_for(query, epoch, knobs)
        template = plan.template()
        with self._lock:
            if epoch < self._live_epoch:
                # Planned against a snapshot a concurrent DDL or flush has
                # moved to a new epoch: the entry would be dead on arrival.
                return
            live = plan.pinned_generation >= self._live_generation
            self._entries[key] = _Entry(template, plan if live else None)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def get_or_plan(
        self,
        query: QueryGraph,
        epoch: int,
        planner: Callable[[], QueryPlan],
        knobs: Tuple = (),
        snapshot=None,
    ) -> Tuple[QueryPlan, bool]:
        """Resolve ``(plan, cache_hit)``; plans via ``planner()`` on a miss.

        The planner runs outside the lock (see the module docstring on
        racing misses).  The planner's result must already carry its pinned
        ``store_snapshot``; a hit is bound to ``snapshot`` (see
        :meth:`lookup`).
        """
        plan = self.lookup(query, epoch, knobs, snapshot)
        if plan is not None:
            return plan, True
        plan = planner()
        self.insert(query, epoch, plan, knobs)
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

    def retire_before(self, epoch: int, generation: Optional[int] = None) -> None:
        """Drop every entry of an epoch older than ``epoch``, and release
        every bound plan of a generation older than ``generation``.

        Called by the store as it installs a state: lookups only ever ask
        for the current epoch and bind to the current generation, so older
        entries are unreachable and older bound plans would only keep their
        graph and indexes alive.  Plans already handed out are untouched —
        a pre-built :class:`QueryPlan` replays against its own pinned
        snapshot without going through the cache.
        """
        with self._lock:
            self._live_epoch = max(self._live_epoch, epoch)
            if generation is not None:
                self._live_generation = max(self._live_generation, generation)
            for key, entry in list(self._entries.items()):
                if key[1] < self._live_epoch:
                    del self._entries[key]
                elif (
                    entry.bound is not None
                    and entry.bound.pinned_generation < self._live_generation
                ):
                    entry.bound = None

    def describe(self) -> str:
        with self._lock:
            entries = len(self._entries)
            counters = {**self.stats.snapshot(), "rebinds": self.stats.rebinds}
        counter_text = ", ".join(f"{k}={v}" for k, v in counters.items())
        return (
            f"Plan cache: {entries}/{self.capacity} entries "
            f"(LRU; keyed on (fingerprint, plan epoch, knobs); a flush within "
            f"the epoch rebinds); {counter_text}"
        )

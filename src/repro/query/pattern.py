"""Subgraph query patterns.

A :class:`QueryGraph` is the logical representation of the subgraph-pattern
component of a query: query vertices (with optional labels), query edges
(with optional labels and direction), and a conjunctive predicate over the
properties of those variables.  It corresponds to the MATCH/WHERE fragment of
openCypher that the paper's workloads use.

The same structure is used by the optimizer (to enumerate plans), the
executor (variable bookkeeping), and the naive backtracking matcher used as a
correctness oracle in tests.

Canonical fingerprints
----------------------

:meth:`QueryGraph.fingerprint` is a canonical label of the pattern:
structurally identical queries — same vertices, edges, labels, directions,
and predicate, regardless of variable *names* or *insertion order* — produce
the same fingerprint, and structurally different queries produce different
ones.  It is computed by a colour-refinement + individualization canonical
labeling over the variables (vertex and edge variables together, so parallel
edges distinguished only by their predicates still canonicalize exactly),
with the predicate re-expressed over the canonical variable names and its
conjuncts sorted.  ``QueryGraph.__eq__``/``__hash__`` are built on it, which
is what makes query graphs usable as cache keys
(:mod:`repro.query.plan_cache`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import QueryParseError
from ..predicates import Comparison, Constant, Predicate, PropertyRef


@dataclass(frozen=True)
class QueryVertex:
    """A query vertex variable.

    Attributes:
        name: variable name (e.g. ``"a1"``).
        label: optional vertex label the matched vertex must carry.
    """

    name: str
    label: Optional[str] = None


@dataclass(frozen=True)
class QueryEdge:
    """A directed query edge variable between two query vertices.

    Attributes:
        name: variable name (e.g. ``"e1"``); auto-generated if not supplied in
            the builder API.
        src: name of the source query vertex.
        dst: name of the destination query vertex.
        label: optional edge label the matched edge must carry.
    """

    name: str
    src: str
    dst: str
    label: Optional[str] = None

    def other_endpoint(self, vertex: str) -> str:
        if vertex == self.src:
            return self.dst
        if vertex == self.dst:
            return self.src
        raise QueryParseError(f"{vertex!r} is not an endpoint of edge {self.name!r}")

    def touches(self, vertex: str) -> bool:
        return vertex == self.src or vertex == self.dst


# ----------------------------------------------------------------------
# canonical labeling
# ----------------------------------------------------------------------
#: Backstop on the individualization search tree.  Colour refinement makes
#: the tree collapse to a handful of leaves for every realistic pattern (the
#: leaf count is bounded by the pattern's automorphism count); only large,
#: highly symmetric patterns — e.g. a 9-clique of unlabeled vertices — can
#: explode, and those are far beyond what the DP optimizer plans anyway.
_MAX_CANONICAL_LEAVES = 100_000


def _canon_offset(offset: float) -> str:
    """Offset as a stable string; collapses ``-0.0`` (from op flips) to 0."""
    return repr(0.0 if offset == 0 else float(offset))


def _label_key(label: Optional[str]) -> Tuple[bool, str]:
    """A sortable key for an optional label (None sorts before any label)."""
    return (label is not None, label or "")


def _operand_key(operand):
    """Encode one (already canonically renamed) comparison operand."""
    if isinstance(operand, PropertyRef):
        return ("p", operand.var, operand.prop)
    return ("c", type(operand.value).__name__, repr(operand.value))


def _conjunct_key(comparison: Comparison, mapping: Dict[str, str]):
    """Canonical encoding of one conjunct under canonical variable names.

    Renaming happens *before* ``normalized()`` so the constant-left /
    lexicographic-reference ordering is decided on the canonical names —
    i.e. identically for every structurally identical query.  ``mapping``
    must cover every variable the conjunct references.
    """
    renamed = comparison.renamed(mapping).normalized()
    return (
        _operand_key(renamed.left),
        renamed.op.value,
        _operand_key(renamed.right),
        _canon_offset(renamed.offset),
    )


def _predicate_signature(var: str, conjuncts: List[Comparison], colors):
    """Renaming-invariant refinement signature of ``var``'s predicate uses.

    Every conjunct touching ``var`` is re-oriented so ``var`` reads as the
    left operand (flipping the operator and negating the offset when it sat
    on the right — ``x op (var + off)`` is ``var op.flipped (x - off)``), so
    the signature does not depend on which way the caller happened to write
    the comparison.  The other side is described by its current refinement
    colour, never its name.
    """
    entries = []
    for comp in conjuncts:
        for mine, other, op, offset in (
            (comp.left, comp.right, comp.op, comp.offset),
            (comp.right, comp.left, comp.op.flipped, -comp.offset),
        ):
            if not (isinstance(mine, PropertyRef) and mine.var == var):
                continue
            if isinstance(other, PropertyRef):
                other_key = (
                    "p",
                    colors.get(other.var, -1),
                    other.prop,
                    other.var == var,
                )
            else:
                other_key = ("c", type(other.value).__name__, repr(other.value))
            entries.append((mine.prop, op.value, other_key, _canon_offset(offset)))
    entries.sort()
    return tuple(entries)


def _canonical_form(
    vertices: List[QueryVertex],
    edges: List[QueryEdge],
    conjuncts: List[Comparison],
):
    """The canonical encoding (a nested tuple of primitives) of a pattern.

    Classic individualization-refinement canonical labeling, run over vertex
    *and* edge variables together (an edge variable's identity can rest
    solely on its predicates — e.g. parallel edges ``e1.amt < e2.amt``):

    1. colour variables by kind + label, refine by incidence structure and
       per-variable predicate signatures until stable;
    2. while any colour class holds several variables, individualize each
       member of the first such class in turn and recurse;
    3. every discrete colouring yields one complete encoding; the
       lexicographically smallest is the canonical form.

    Two patterns are structurally identical iff their canonical forms are
    equal; every step is driven by colours (never by variable names), so the
    result is invariant under renaming and insertion order.
    """
    vertex_names = [v.name for v in vertices]
    out_edges: Dict[str, List[str]] = {name: [] for name in vertex_names}
    in_edges: Dict[str, List[str]] = {name: [] for name in vertex_names}
    for edge in edges:
        out_edges[edge.src].append(edge.name)
        in_edges[edge.dst].append(edge.name)

    def refine(colors: Dict[str, int]) -> Dict[str, int]:
        while True:
            signatures = {}
            for vertex in vertices:
                signatures[vertex.name] = (
                    0,
                    colors[vertex.name],
                    tuple(sorted(colors[e] for e in out_edges[vertex.name])),
                    tuple(sorted(colors[e] for e in in_edges[vertex.name])),
                    _predicate_signature(vertex.name, conjuncts, colors),
                )
            for edge in edges:
                signatures[edge.name] = (
                    1,
                    colors[edge.name],
                    colors[edge.src],
                    colors[edge.dst],
                    _predicate_signature(edge.name, conjuncts, colors),
                )
            ranks = {sig: i for i, sig in enumerate(sorted(set(signatures.values())))}
            refined = {name: ranks[sig] for name, sig in signatures.items()}
            if refined == colors:
                return refined
            colors = refined

    def encode(colors: Dict[str, int]):
        ordered = sorted(colors, key=lambda name: colors[name])
        mapping: Dict[str, str] = {}
        vertex_index: Dict[str, int] = {}
        edge_order: List[str] = []
        for name in ordered:
            if name in out_edges:  # a vertex variable
                vertex_index[name] = len(vertex_index)
                mapping[name] = f"v{vertex_index[name]}"
            else:
                mapping[name] = f"e{len(edge_order)}"
                edge_order.append(name)
        for conjunct in conjuncts:
            for var in conjunct.variables():
                # Predicates referencing names outside the pattern (invalid
                # but constructible) keep a marked literal name, so they
                # still fingerprint deterministically instead of raising.
                mapping.setdefault(var, "?" + var)
        edge_by_name = {e.name: e for e in edges}
        vertex_by_name = {v.name: v for v in vertices}
        return (
            tuple(
                _label_key(vertex_by_name[name].label)
                for name in ordered
                if name in vertex_index
            ),
            tuple(
                (
                    vertex_index[edge_by_name[name].src],
                    vertex_index[edge_by_name[name].dst],
                )
                + _label_key(edge_by_name[name].label)
                for name in edge_order
            ),
            tuple(sorted(_conjunct_key(c, mapping) for c in conjuncts)),
        )

    initial_keys = {}
    for vertex in vertices:
        initial_keys[vertex.name] = (0,) + _label_key(vertex.label)
    for edge in edges:
        initial_keys[edge.name] = (1,) + _label_key(edge.label)
    ranks = {key: i for i, key in enumerate(sorted(set(initial_keys.values())))}
    colors = {name: ranks[key] for name, key in initial_keys.items()}

    best = None
    leaves = 0
    stack = [colors]
    while stack:
        colors = refine(stack.pop())
        classes: Dict[int, List[str]] = {}
        for name, color in colors.items():
            classes.setdefault(color, []).append(name)
        split = min(
            (c for c, members in classes.items() if len(members) > 1),
            default=None,
        )
        if split is None:
            leaves += 1
            if leaves > _MAX_CANONICAL_LEAVES:
                raise QueryParseError(
                    "query pattern is too symmetric to canonicalize "
                    f"(> {_MAX_CANONICAL_LEAVES} candidate labelings)"
                )
            encoding = encode(colors)
            if best is None or encoding < best:
                best = encoding
            continue
        for name in classes[split]:
            branched = dict(colors)
            branched[name] = -1  # individualize: a colour below all ranks
            stack.append(branched)
    return best if best is not None else ((), (), ())


class QueryGraph:
    """A subgraph pattern: query vertices, query edges, and a predicate.

    Example:
        >>> q = QueryGraph("two-hop")
        >>> q.add_vertex("c1", label="Customer")
        >>> q.add_vertex("a1", label="Account")
        >>> q.add_vertex("a2", label="Account")
        >>> q.add_edge("c1", "a1", label="Owns", name="r1")
        >>> q.add_edge("a1", "a2", label="Wire", name="r2")
        >>> q.add_predicate(cmp(prop("c1", "name"), "=", "Alice"))
    """

    def __init__(self, name: str = "query") -> None:
        self.name = name
        self._vertices: Dict[str, QueryVertex] = {}
        self._edges: Dict[str, QueryEdge] = {}
        self.predicate: Predicate = Predicate.true()
        self._canonical = None
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _invalidate_fingerprint(self) -> None:
        self._canonical = None
        self._fingerprint = None

    def add_vertex(self, name: str, label: Optional[str] = None) -> QueryVertex:
        if name in self._vertices:
            raise QueryParseError(f"duplicate query vertex {name!r}")
        if name in self._edges:
            raise QueryParseError(f"{name!r} already names a query edge")
        vertex = QueryVertex(name=name, label=label)
        self._vertices[name] = vertex
        self._invalidate_fingerprint()
        return vertex

    def add_edge(
        self,
        src: str,
        dst: str,
        label: Optional[str] = None,
        name: Optional[str] = None,
    ) -> QueryEdge:
        if src not in self._vertices or dst not in self._vertices:
            raise QueryParseError(
                f"edge endpoints ({src!r}, {dst!r}) must be declared query vertices"
            )
        if name is None:
            name = f"_e{len(self._edges)}"
        if name in self._edges or name in self._vertices:
            raise QueryParseError(f"duplicate query variable {name!r}")
        edge = QueryEdge(name=name, src=src, dst=dst, label=label)
        self._edges[name] = edge
        self._invalidate_fingerprint()
        return edge

    def add_predicate(self, *comparisons: Comparison) -> None:
        """Conjoin additional comparisons to the query predicate."""
        self.predicate = self.predicate.and_also(Predicate(comparisons))
        self._invalidate_fingerprint()

    def where(self, predicate: Predicate) -> "QueryGraph":
        """Conjoin a whole predicate (fluent style); returns self."""
        self.predicate = self.predicate.and_also(predicate)
        self._invalidate_fingerprint()
        return self

    # ------------------------------------------------------------------
    # canonical identity
    # ------------------------------------------------------------------
    def canonical_form(self):
        """The canonical encoding of this pattern (a nested tuple).

        Invariant under variable renaming and vertex/edge/predicate
        insertion order; different for structurally different patterns.
        The query's display ``name`` is *not* part of it.  Cached; the
        builder methods invalidate the cache, so hold off hashing a graph
        until it is fully built (mutating a graph that already sits in a
        hash container leaves that container's bucketing stale, exactly as
        with any mutable key).
        """
        if self._canonical is None:
            self._canonical = _canonical_form(
                list(self._vertices.values()),
                list(self._edges.values()),
                self.predicate.conjuncts(),
            )
        return self._canonical

    def fingerprint(self) -> str:
        """Canonical fingerprint: a hex digest of :meth:`canonical_form`.

        Structurally identical queries (same vertices, edges, labels,
        directions, and predicate — regardless of variable names or
        insertion order) produce the same fingerprint.  This is the query
        component of the :class:`~repro.query.plan_cache.PlanCache` key.
        """
        if self._fingerprint is None:
            encoded = repr(self.canonical_form()).encode("utf-8")
            self._fingerprint = hashlib.sha256(encoded).hexdigest()
        return self._fingerprint

    def __eq__(self, other) -> bool:
        """Structural equality via the canonical form (``name`` excluded)."""
        if not isinstance(other, QueryGraph):
            return NotImplemented
        if self is other:
            return True
        return self.canonical_form() == other.canonical_form()

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> Dict[str, QueryVertex]:
        return dict(self._vertices)

    @property
    def edges(self) -> Dict[str, QueryEdge]:
        return dict(self._edges)

    @property
    def vertex_names(self) -> List[str]:
        return list(self._vertices)

    @property
    def edge_names(self) -> List[str]:
        return list(self._edges)

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def vertex(self, name: str) -> QueryVertex:
        try:
            return self._vertices[name]
        except KeyError as exc:
            raise QueryParseError(f"unknown query vertex {name!r}") from exc

    def edge(self, name: str) -> QueryEdge:
        try:
            return self._edges[name]
        except KeyError as exc:
            raise QueryParseError(f"unknown query edge {name!r}") from exc

    def variable_kind(self, name: str) -> str:
        """Return ``"vertex"`` or ``"edge"`` for a query variable."""
        if name in self._vertices:
            return "vertex"
        if name in self._edges:
            return "edge"
        raise QueryParseError(f"unknown query variable {name!r}")

    def edges_between(self, matched: Set[str], new_vertex: str) -> List[QueryEdge]:
        """Query edges connecting ``new_vertex`` to any vertex in ``matched``."""
        connecting = []
        for edge in self._edges.values():
            if edge.touches(new_vertex):
                other = edge.other_endpoint(new_vertex)
                if other in matched:
                    connecting.append(edge)
        return connecting

    def neighbours_of(self, vertex: str) -> Set[str]:
        names = set()
        for edge in self._edges.values():
            if edge.touches(vertex):
                names.add(edge.other_endpoint(vertex))
        return names

    def is_connected(self) -> bool:
        """True if the pattern is connected (required for plan enumeration)."""
        if not self._vertices:
            return True
        seen: Set[str] = set()
        frontier = [next(iter(self._vertices))]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.neighbours_of(current) - seen)
        return seen == set(self._vertices)

    # ------------------------------------------------------------------
    # predicate helpers used by the optimizer
    # ------------------------------------------------------------------
    def label_predicate(self) -> Predicate:
        """Label constraints of vertices and edges expressed as comparisons."""
        from ..predicates import cmp, prop

        comparisons = []
        for vertex in self._vertices.values():
            if vertex.label is not None:
                comparisons.append(cmp(prop(vertex.name, "label"), "=", vertex.label))
        for edge in self._edges.values():
            if edge.label is not None:
                comparisons.append(cmp(prop(edge.name, "label"), "=", edge.label))
        return Predicate(comparisons)

    def full_predicate(self) -> Predicate:
        """The WHERE predicate conjoined with all label constraints."""
        return self.label_predicate().and_also(self.predicate)

    def tracked_edges(self) -> Set[str]:
        """Query edges whose matched edge ID must be carried in partial matches.

        An edge binding is needed whenever a predicate references the edge
        together with *another* variable (e.g. ``e1.date < e2.date``), because
        that predicate can only be evaluated after both are matched.
        """
        tracked: Set[str] = set()
        for comparison in self.predicate.conjuncts():
            variables = comparison.variables()
            edge_vars = {v for v in variables if v in self._edges}
            if edge_vars and len(variables) > 1:
                tracked |= edge_vars
        return tracked

    def describe(self) -> str:
        lines = [f"QueryGraph {self.name!r}:"]
        for vertex in self._vertices.values():
            label = f":{vertex.label}" if vertex.label else ""
            lines.append(f"  ({vertex.name}{label})")
        for edge in self._edges.values():
            label = f":{edge.label}" if edge.label else ""
            lines.append(f"  ({edge.src})-[{edge.name}{label}]->({edge.dst})")
        if not self.predicate.is_true:
            lines.append(f"  WHERE {self.predicate.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()

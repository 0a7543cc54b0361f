"""Incremental directed-graph maintenance with cycle extraction.

The engine maintains, for a growing directed graph, (a) a topological
order of its condensation (Pearce–Kelly style incremental topological
sort) and (b) the strongly connected components themselves (union-find
contraction).  The payoff is the cost profile the online analyses
need:

* ``add_edge`` is O(1) when the new edge already respects the current
  order — the overwhelmingly common case for dependence graphs, whose
  edges point from older to newer transactions;
* when an edge *violates* the order, only the **affected region** —
  nodes whose position lies between the edge's endpoints — is
  searched, instead of the whole graph;
* when an edge creates a cycle, the members of the new strongly
  connected component are identified (the forward/backward search
  frontiers intersected) and contracted, so every later membership
  query is a near-O(1) union-find lookup.

Clients use the component structure as a *certificate*: two nodes in
different components provably have no cycle through them, so the
per-edge cycle checks of the PDG and the Velodrome checker — and the
transaction-end Tarjan pass of ICD — can skip or restrict their
traversals without changing any report (see ``repro.core.pdg``,
``repro.core.scc`` and ``repro.graph.dirty`` for the equivalence
arguments).

The reordering step follows Pearce & Kelly ("A Dynamic Topological
Sort Algorithm for Directed Acyclic Graphs", JEA 2006): the visited
forward set is placed after the visited backward set, reusing the
sorted pool of their old positions.  Contraction places the merged
component between the surviving backward and forward nodes, which
preserves validity because an edge between an untouched node and a
moved node either leaves the affected index window (and is unaffected)
or would have put the untouched node into one of the search frontiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.obs.registry import publish_stats

#: outcomes of :meth:`IncrementalSccDigraph.add_edge`
EDGE_FAST = "fast"  # respected the current order: O(1) accept
EDGE_REORDERED = "reordered"  # affected region searched, no cycle
EDGE_CYCLE = "cycle"  # closed a cycle: components merged
EDGE_SELF = "self"  # endpoints already share a component
EDGE_DUPLICATE = "duplicate"  # component-level duplicate


@dataclass
class GraphEngineStats:
    """Work counters for the incremental engine.

    ``search_visits`` is the engine's total traversal work — the
    analysis stats expose it so the cost model keeps charging for the
    graph maintenance that actually happens (instead of the
    whole-graph traversals it replaced).
    """

    nodes: int = 0
    edges: int = 0
    fast_edges: int = 0
    duplicate_edges: int = 0
    self_edges: int = 0
    reorders: int = 0
    search_visits: int = 0
    cycle_edges: int = 0
    merges: int = 0
    merged_nodes: int = 0
    forgotten_nodes: int = 0

    def publish(self, target, prefix: str) -> None:
        """Publish the counters onto a registry under ``prefix`` (the
        owning analysis namespaces them, e.g. ``icd.engine``)."""
        publish_stats(target, prefix, self)


class IncrementalSccDigraph:
    """Incremental topological order + SCC maintenance over hashables."""

    __slots__ = ("_ord", "_next_ord", "_parent", "_members", "_out", "_in", "stats")

    def __init__(self) -> None:
        #: representative -> topological index (unique, sparse)
        self._ord: Dict[object, int] = {}
        self._next_ord = 0
        #: union-find parent links (roots are absent)
        self._parent: Dict[object, object] = {}
        #: representative -> member set (only for multi-node components)
        self._members: Dict[object, Set[object]] = {}
        #: representative -> successor/predecessor representative sets
        #: (entries may be stale after merges; resolved lazily)
        self._out: Dict[object, Set[object]] = {}
        self._in: Dict[object, Set[object]] = {}
        self.stats = GraphEngineStats()

    # ------------------------------------------------------------------
    # union-find
    # ------------------------------------------------------------------
    def find(self, node: object) -> object:
        """Representative of ``node``'s component (path-halving)."""
        parent = self._parent
        while node in parent:
            grand = parent.get(parent[node], parent[node])
            parent[node] = grand
            node = grand
        return node

    def contains(self, node: object) -> bool:
        return node in self._ord or node in self._parent

    def add_node(self, node: object) -> None:
        """Register ``node`` (appended at the end of the order)."""
        if node in self._ord or node in self._parent:
            return
        self._ord[node] = self._next_ord
        self._next_ord += 1
        self.stats.nodes += 1

    # ------------------------------------------------------------------
    # component queries
    # ------------------------------------------------------------------
    def same_component(self, a: object, b: object) -> bool:
        return self.find(a) is self.find(b) or self.find(a) == self.find(b)

    def component_members(self, node: object) -> Set[object]:
        """Members of ``node``'s component (do not mutate)."""
        rep = self.find(node)
        members = self._members.get(rep)
        if members is None:
            return {rep}
        return members

    def component_size(self, node: object) -> int:
        rep = self.find(node)
        members = self._members.get(rep)
        return 1 if members is None else len(members)

    def cyclic_members(self, node: object) -> Optional[Set[object]]:
        """Member set when the component is cyclic, else ``None``.

        One ``find`` resolves both questions the scheduler asks per
        ending transaction — is the component cyclic, and who is in it
        — so the hot path pays a single lookup (do not mutate).
        """
        return self._members.get(self.find(node))

    def in_cycle(self, node: object) -> bool:
        """True when the node's component contains a cycle.

        Clients never insert self-edges, so a component is cyclic
        exactly when it has more than one member — the same convention
        as :func:`repro.core.scc.is_cyclic_component`.
        """
        return self.component_size(node) > 1

    # ------------------------------------------------------------------
    # edge insertion
    # ------------------------------------------------------------------
    def add_edge(self, src: object, dst: object) -> str:
        """Insert ``src -> dst``; returns one of the ``EDGE_*`` outcomes."""
        # ~3 of 4 insertions respect the current order, so endpoint
        # resolution and the accept path are inlined (no add_node/find
        # calls, single dict probe per endpoint for known roots)
        ordd = self._ord
        parent = self._parent
        stats = self.stats
        if src in parent:
            ru = self.find(src)
        elif src in ordd:
            ru = src
        else:
            ordd[src] = self._next_ord
            self._next_ord += 1
            stats.nodes += 1
            ru = src
        if dst in parent:
            rv = self.find(dst)
        elif dst in ordd:
            rv = dst
        else:
            ordd[dst] = self._next_ord
            self._next_ord += 1
            stats.nodes += 1
            rv = dst
        stats.edges += 1
        if ru is rv or ru == rv:
            # both endpoints already inside one SCC: the edge closes
            # (another) cycle through the existing component
            stats.self_edges += 1
            stats.cycle_edges += 1
            return EDGE_SELF
        out = self._out.get(ru)
        if out is not None and rv in out:
            stats.duplicate_edges += 1
            return EDGE_DUPLICATE
        ord_u = ordd[ru]
        ord_v = ordd[rv]
        if ord_u < ord_v:
            if out is None:
                self._out[ru] = {rv}
            else:
                out.add(rv)
            into = self._in.get(rv)
            if into is None:
                self._in[rv] = {ru}
            else:
                into.add(ru)
            stats.fast_edges += 1
            return EDGE_FAST
        # the edge goes against the current order: search the affected
        # region [ord_v, ord_u] only
        forward, hit = self._forward(rv, ord_u)
        backward = self._backward(ru, ord_v)
        self.stats.search_visits += len(forward) + len(backward)
        if hit:
            self.stats.cycle_edges += 1
            merged = self._contract(forward & backward, backward, forward)
            self._link(self.find(src), self.find(dst))
            del merged
            return EDGE_CYCLE
        self._reorder(
            sorted(backward, key=self._ord.__getitem__),
            sorted(forward, key=self._ord.__getitem__),
            backward | forward,
        )
        self._link(ru, rv)
        self.stats.reorders += 1
        return EDGE_REORDERED

    # ------------------------------------------------------------------
    def _link(self, ru: object, rv: object) -> None:
        if ru is rv or ru == rv:
            return
        self._out.setdefault(ru, set()).add(rv)
        self._in.setdefault(rv, set()).add(ru)

    def _neighbours(self, rep: object, table: Dict[object, Set[object]]) -> List[object]:
        """Resolved neighbour representatives, cleaning stale entries."""
        raw = table.get(rep)
        if not raw:
            return []
        resolved: List[object] = []
        stale = False
        for target in raw:
            actual = self.find(target)
            if actual not in self._ord:
                stale = True  # forgotten node
                continue
            if actual is not target:
                stale = True
            if actual is rep or actual == rep:
                stale = True  # became intra-component after a merge
                continue
            resolved.append(actual)
        if stale:
            table[rep] = set(resolved)
        return resolved

    def _forward(self, start: object, upper: int) -> tuple[Set[object], bool]:
        """Reps reachable from ``start`` with order <= ``upper``.

        Returns the visited set and whether the node *at* ``upper``
        (the violating edge's source) was reached — i.e. a cycle.
        """
        ordd = self._ord
        seen = {start}
        stack = [start]
        hit = False
        while stack:
            node = stack.pop()
            for succ in self._neighbours(node, self._out):
                if succ in seen:
                    continue
                o = ordd[succ]
                if o > upper:
                    continue
                seen.add(succ)
                if o == upper:
                    hit = True  # reached the edge's source: cycle
                    continue
                stack.append(succ)
        return seen, hit

    def _backward(self, start: object, lower: int) -> Set[object]:
        """Reps reaching ``start`` with order >= ``lower``."""
        ordd = self._ord
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for pred in self._neighbours(node, self._in):
                if pred in seen or ordd[pred] < lower:
                    continue
                seen.add(pred)
                if ordd[pred] > lower:
                    stack.append(pred)
        return seen

    def _contract(
        self, scc: Set[object], backward: Set[object], forward: Set[object]
    ) -> object:
        """Merge ``scc`` into one component and restore the order."""
        assert len(scc) >= 2, "contraction needs at least two components"
        # union by member count
        rep = max(scc, key=self.component_size)
        members = self._members.setdefault(rep, {rep})
        new_out: Set[object] = self._out.pop(rep, set())
        new_in: Set[object] = self._in.pop(rep, set())
        for node in scc:
            if node is rep or node == rep:
                continue
            self._parent[node] = rep
            absorbed = self._members.pop(node, None)
            if absorbed is None:
                members.add(node)
            else:
                members.update(absorbed)
            new_out |= self._out.pop(node, set())
            new_in |= self._in.pop(node, set())
        self.stats.merges += 1
        self.stats.merged_nodes += len(scc)
        # positions: surviving backward nodes keep the smallest old
        # slots (they never move up), surviving forward nodes the
        # largest (they never move down), the merged component lands on
        # the first slot between them; the remaining middle slots —
        # freed by the contraction — stay unused
        slots = sorted(
            self._ord[node] for node in (backward | forward)
        )
        before = sorted(backward - scc, key=self._ord.__getitem__)
        after = sorted(forward - scc, key=self._ord.__getitem__)
        for node in backward | forward:
            del self._ord[node]
        for node, slot in zip(before, slots):
            self._ord[node] = slot
        self._ord[rep] = slots[len(before)]
        if after:
            for node, slot in zip(after, slots[-len(after):]):
                self._ord[node] = slot
        # resolve the merged adjacency now that parents are final
        self._out[rep] = {
            t for t in map(self.find, new_out) if t is not rep and t != rep
        }
        self._in[rep] = {
            t for t in map(self.find, new_in) if t is not rep and t != rep
        }
        for succ in self._out[rep]:
            self._in.setdefault(succ, set()).add(rep)
        for pred in self._in[rep]:
            self._out.setdefault(pred, set()).add(rep)
        return rep

    def _reorder(
        self, backward: List[object], forward: List[object], touched: Set[object]
    ) -> None:
        """Pearce–Kelly shift: backward set first, forward set after."""
        slots = sorted(self._ord[node] for node in touched)
        for node, slot in zip(backward + forward, slots):
            self._ord[node] = slot

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def forget(self, nodes: Iterable[object]) -> int:
        """Drop singleton nodes the client has garbage-collected.

        Only nodes that never joined a cycle can be forgotten: merged
        components must survive because their membership is the
        engine's acyclicity certificate.  Returns how many nodes were
        removed.
        """
        removed = 0
        for node in nodes:
            if node in self._parent or node not in self._ord:
                continue  # merged away, or unknown
            if node in self._members:
                continue  # represents a multi-node component
            for succ in self._out.pop(node, ()):  # unlink both directions
                peers = self._in.get(succ)
                if peers is not None:
                    peers.discard(node)
            for pred in self._in.pop(node, ()):
                peers = self._out.get(pred)
                if peers is not None:
                    peers.discard(node)
            del self._ord[node]
            removed += 1
        self.stats.forgotten_nodes += removed
        return removed

    # ------------------------------------------------------------------
    # verification (test hook)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the order is topological over the condensation."""
        seen_slots: Set[int] = set()
        for rep, slot in self._ord.items():
            assert rep not in self._parent, f"{rep!r} is not a root"
            assert slot not in seen_slots, "duplicate topological index"
            seen_slots.add(slot)
        for rep in list(self._ord):
            for succ in self._neighbours(rep, self._out):
                assert self._ord[rep] < self._ord[succ], (
                    f"edge {rep!r}->{succ!r} violates the maintained order"
                )

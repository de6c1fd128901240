"""Knowledge-graph spatial memory with buffered two-phase updates.

The graph holds world facts only: ``preprocessor`` keeps the agent's own
place and held object out of the triplets it is given.

New facts land in a small pending buffer (rapid response), one batch per
observation. When a batch leaves the buffer saturated, or conflicts with
what the graph and the buffer hold for its subjects, the whole buffer is
integrated once, so a query never reads a fact that a buffered one
contradicts. A batch is never cut, so a query made after the call never
misses the tail of an observation that filled the buffer.

Integrate writes only what the batch changed. The changed keys are the
batch's facts that the graph lacks or holds at an older step index
(relationship merging: the newest step index wins). Only a subject that
gains a key may conflict: the graph holds no conflict, since integrate
resolves every subject that gains a key and ``restore`` refuses a
snapshot whose facts conflict. The detector gets the out-edges of those
subjects, overlaid by the changed keys, and of them only the edges in
contested slots. The merge-back removes the conflict losers the graph
holds, overwrites in place every changed key the graph keeps, then adds
the keys the graph lacks in arrival order; a node a new key takes above a
degree cap evicts its oldest incident edges. So integrate changes
exactly: the changed keys, the out-edges of suspects that lose a
conflict, and the edges evicted at endpoints of new keys. A batch that
gains no key only writes its newer step indexes in place. K is at least
1, so every changed key and every out-edge of a suspect (an endpoint of
the batch) lies in the batch's K-hop region; an evicted in-edge may start
outside it.

The graph is the one a full replace of that region gives. Eviction sorts
a node's incident edges by step index, then key; edges that held
together under the caps never evict when re-added; and the restated keys
carry their new step index before the first new key is added, so the new
keys evict as they would after a full replace. Conflicts are those of
``conflicts.DEFAULT_RULES``: the detector gets its tables, the contested
slots are the conflicts it finds among a subject's keys, and the buffer
integrates at once when it finds one. The detector is trusted: if a
remote one misses a conflict, the graph keeps it until its subject next
gains a key, and a snapshot taken meanwhile is refused on restore.

A query is a pure read. A node is the name it was observed under, and the
seeds of a query are the names it is given that are nodes: names are
keyed exactly, with no similarity merge or search, and no text is parsed
for them.
"""

from __future__ import annotations

import logging
import math
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .conflicts import DEFAULT_RULES, DEFAULT_TABLES
from .core import InvariantError, as_texts, canonical_name, check_int, from_doc, to_doc
from .gateway import ReasonerGateway, ReasonerRole
from .vector_index import cosine  # noqa: F401  (cosine stays importable as spatial.cosine)

logger = logging.getLogger(__name__)

DEFAULT_K = 2
DEFAULT_BUFFER_CAPACITY = 4
DEFAULT_MAX_OUT_DEGREE = 16
DEFAULT_MAX_IN_DEGREE = 16

EdgeKey = Tuple[str, str, str]

def _contested(keys: Iterable[EdgeKey]) -> Set[EdgeKey]:
    """The keys that sit in a contested slot of ``DEFAULT_RULES``: the keys
    of some conflict it finds among them. Every slot belongs to one subject,
    so one scan over the keys of many subjects finds what a scan per subject
    would. Only these keys can be in a conflict the detector reports, and a
    contested slot goes whole, so the detector finds the same conflicts
    among them as among all the keys. A prune that never decides: the
    detector does."""
    ordered = list(keys)
    return {ordered[i] for group in DEFAULT_RULES.conflicts(ordered) for i in group}


class KHopBoundError(RuntimeError):
    """A k-hop retrieval returned more nodes than the expansion bound allows."""


@dataclass(frozen=True)
class Triplet:
    subject: str
    relation: str
    object: str
    step_index: int = 0
    #: ``(subject, relation, object)``, built once; not compared or hashed.
    key: EdgeKey = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        subject = canonical_name(self.subject)
        obj = canonical_name(self.object)
        if not subject or not obj:
            raise ValueError("triplet endpoints must be non-empty")
        check_int(self.step_index, 0, "step_index")
        relation = canonical_name(self.relation)
        # Frozen: the fields are written once, here, past __setattr__.
        fields = self.__dict__
        fields["subject"] = subject
        fields["object"] = obj
        fields["relation"] = relation
        fields["key"] = (subject, relation, obj)


def khop_bound(num_seeds: int, max_out_degree: int, k: int) -> float:
    """Worst-case node count reachable within k hops from num_seeds roots."""
    if max_out_degree <= 0:
        return float(num_seeds)
    if max_out_degree == 1:
        return num_seeds * (k + 1)
    return num_seeds * (max_out_degree ** (k + 1) - 1) / (max_out_degree - 1)


class SpatialMemory:
    """Directed labeled graph over canonical entity names. Two names are two
    nodes, however alike their spellings (``drawer 1``, ``the drawer 1``)."""

    def __init__(
        self,
        gateway: Optional[ReasonerGateway] = None,
        k_hops: int = DEFAULT_K,
        buffer_capacity: int = DEFAULT_BUFFER_CAPACITY,
        max_out_degree: int = DEFAULT_MAX_OUT_DEGREE,
        max_in_degree: int = DEFAULT_MAX_IN_DEGREE,
    ):
        # Nothing resets the budget of a gateway of its own, so it has none.
        self.gateway = gateway or ReasonerGateway(budget=math.inf)
        check_int(k_hops, 1, "k_hops")
        check_int(buffer_capacity, 1, "buffer_capacity")
        check_int(max_out_degree, 1, "max_out_degree")
        check_int(max_in_degree, 1, "max_in_degree")
        self.k_hops = k_hops
        self.buffer_capacity = buffer_capacity
        self.max_out_degree = max_out_degree
        self.max_in_degree = max_in_degree
        self._edges: Dict[EdgeKey, Triplet] = {}
        # Incident-edge index: node -> keys of its outgoing / incoming edges.
        # Only _add_edge and _remove_edge change it; a node with no such edge
        # has no entry.
        self._out: Dict[str, Set[EdgeKey]] = {}
        self._in: Dict[str, Set[EdgeKey]] = {}
        self._nodes: Set[str] = set()
        self._pending: List[Triplet] = []
        self._lock = threading.RLock()

    # -- basic views ------------------------------------------------------

    @property
    def nodes(self) -> Set[str]:
        with self._lock:
            return set(self._nodes)

    def edges(self) -> List[Triplet]:
        with self._lock:
            return [self._edges[k] for k in sorted(self._edges)]

    def pending(self) -> List[Triplet]:
        with self._lock:
            return list(self._pending)

    def out_degree(self, node: str) -> int:
        with self._lock:
            return len(self._out.get(node, ()))

    def in_degree(self, node: str) -> int:
        with self._lock:
            return len(self._in.get(node, ()))

    def clear(self) -> None:
        with self._lock:
            self._edges.clear()
            self._out.clear()
            self._in.clear()
            self._nodes.clear()
            self._pending.clear()

    # -- rapid response phase ---------------------------------------------

    def buffer_triplets(self, new_triplets: Sequence[Triplet]) -> None:
        """Buffer a batch of new facts (one observation's), then integrate
        the whole buffer once if it has reached ``buffer_capacity`` or
        ``DEFAULT_RULES`` finds a conflict among the keys held for the
        batch's subjects (every rule is per subject): their out-edges in the
        graph and their buffered facts. No reader sees a batch half merged,
        and between calls the buffer holds fewer than ``buffer_capacity``
        facts, and no conflict with the graph or itself that a restore did
        not install."""
        with self._lock:
            pending = self._pending
            pending.extend(new_triplets)
            subjects = {triplet.subject for triplet in new_triplets}
            if len(pending) >= self.buffer_capacity or DEFAULT_RULES.conflicts(
                [key for subject in subjects for key in self._out.get(subject, ())]
                + [triplet.key for triplet in pending if triplet.subject in subjects]
            ):
                self.integrate()

    # -- local integration phase (the incremental update) ------------------

    def integrate(self) -> None:
        with self._lock:
            if not self._pending:
                return
            t_new = list(self._pending)
            self._pending = []
            self._integrate(t_new)

    def _integrate(self, t_new: List[Triplet]) -> None:
        edges = self._edges
        changed: Dict[EdgeKey, Triplet] = {}
        for triplet in t_new:
            key = triplet.key
            prior = changed.get(key) or edges.get(key)
            if prior is None or triplet.step_index >= prior.step_index:
                changed[key] = triplet  # relationship merging: max step_index wins
        # Keys the graph does not hold are new facts; only their subjects
        # may conflict.
        gained = [key for key in changed if key not in edges]
        for key in self._resolve_conflicts({key[0] for key in gained}, changed):
            if key in edges:
                self._remove_edge(key)
            changed.pop(key, None)
        # Restated keys take their new step index before any new key is
        # added, so the new keys evict as after a full replace of the region.
        for key, edge in changed.items():
            if key in edges:
                edges[key] = edge  # same endpoints: nothing else changes
        for key in gained:
            if key in changed:
                self._add_edge(changed[key])

    def _resolve_conflicts(
        self, suspects: Set[str], changed: Dict[EdgeKey, Triplet]
    ) -> Set[EdgeKey]:
        """The losers of each conflict among the out-edges of the suspects,
        overlaid by ``changed``. Every rule of the detector is per subject
        (exclusive relations on one subject and object, one object per
        functional group of a subject, one value per state set of a
        subject), so the edges of other subjects cannot conflict and are not
        sent; of a suspect's edges, only those in a contested slot are (see
        ``_contested``). With no contested slot there is no call."""
        local = {key for key in changed if key[0] in suspects}
        for subject in suspects:
            local.update(self._out.get(subject, ()))
        keys = sorted(_contested(local))
        if not keys:
            return set()
        edges = [changed.get(k) or self._edges[k] for k in keys]
        payload = dict(DEFAULT_TABLES, edges=to_doc(edges))
        response = self.gateway.ask(ReasonerRole.KG_CONFLICT_DETECTOR, payload)

        losers: Set[EdgeKey] = set()
        for group in response["conflicts"]:
            contenders = [edges[i] for i in group if 0 <= i < len(edges)]
            if len(contenders) < 2:
                continue
            winner = max(contenders, key=lambda e: (e.step_index, e.relation))
            for edge in contenders:
                if edge.key != winner.key:
                    losers.add(edge.key)
        return losers

    # -- retrieval ----------------------------------------------------------

    def retrieve_subgraph(
        self, seeds: Iterable[str], k: Optional[int] = None
    ) -> Tuple[Set[str], List[Triplet]]:
        """All nodes reachable from the seeds that name a node via <= k
        outgoing hops, plus the edges among them. Raises ``KHopBoundError`` when the
        node count exceeds the worst-case expansion bound."""
        with self._lock:
            hops = self.k_hops if k is None else k
            resolved = {name for name in map(canonical_name, seeds) if name in self._nodes}
            nodes = self._region(resolved, hops)
            max_degree = max(map(len, self._out.values()), default=0)
            bound = min(
                float(len(self._nodes)) if self._nodes else 0.0,
                khop_bound(len(resolved), max_degree, hops),
            )
            if resolved and len(nodes) > bound:
                raise KHopBoundError(
                    f"k-hop extraction returned {len(nodes)} nodes, bound {bound}"
                )
            keys = [key for node in nodes for key in self._out.get(node, ()) if key[2] in nodes]
            return nodes, [self._edges[key] for key in sorted(keys)]

    def _region(self, seeds: Set[str], k: int) -> Set[str]:
        """The nodes reachable from the seeds that are nodes via <= k
        outgoing hops."""
        frontier = seeds & self._nodes
        reached = set(frontier)
        for _ in range(k):
            frontier = {
                key[2]
                for node in frontier
                for key in self._out.get(node, ())
                if key[2] not in reached
            }
            if not frontier:
                break
            reached |= frontier
        return reached

    def query(self, names: Iterable[str]) -> Tuple[Triplet, ...]:
        """The edges of the subgraph around the names that are nodes, sorted
        by key. A pure read."""
        with self._lock:
            seeds = {name for name in map(canonical_name, names) if name in self._nodes}
            if not seeds:
                return ()
            _, edges = self.retrieve_subgraph(seeds)
            return tuple(edges)

    # -- low-level mutation --------------------------------------------------

    def _add_edge(self, edge: Triplet) -> None:
        key = edge.key
        if key in self._edges:
            # Same endpoints: no node, degree or incident key changes.
            self._edges[key] = edge
            return
        self._edges[key] = edge
        self._out.setdefault(edge.subject, set()).add(key)
        self._in.setdefault(edge.object, set()).add(key)
        self._nodes.update((edge.subject, edge.object))
        self._enforce_degree_cap(edge.subject, outgoing=True)
        self._enforce_degree_cap(edge.object, outgoing=False)

    def _remove_edge(self, key: EdgeKey) -> None:
        del self._edges[key]
        for index, node in ((self._out, key[0]), (self._in, key[2])):
            keys = index[node]
            keys.discard(key)
            if not keys:
                del index[node]

    def _enforce_degree_cap(self, node: str, outgoing: bool) -> None:
        cap = self.max_out_degree if outgoing else self.max_in_degree
        keys = (self._out if outgoing else self._in).get(node, ())
        if len(keys) <= cap:
            return
        incident = sorted(
            (self._edges[k] for k in keys), key=lambda t: (t.step_index, t.key)
        )
        for victim in incident[: len(incident) - cap]:
            logger.info("degree cap on %s: evicting %s", node, victim.key)
            self._remove_edge(victim.key)

    # -- persistence / inspection ---------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "nodes": sorted(self._nodes),
                "edges": to_doc(self.edges()),
                "pending": to_doc(self._pending),
            }

    def restore(self, doc: dict) -> None:
        """Take the graph and buffer of a ``snapshot`` document. A bad
        document leaves the memory as it was."""
        self.prepare_restore(doc)()

    def prepare_restore(self, doc: dict) -> Callable[[], None]:
        """Parse and check every field of a ``snapshot`` document, and
        return the function that replaces the memory with it. A bad
        document raises here, before anything is replaced. As integrate
        leaves it, the graph must hold no conflict of ``DEFAULT_RULES`` and
        no node above a degree cap; the buffer is not integrated yet, so its
        facts may conflict. A ``retrieval_seed`` field, which snapshots
        carried before queries became pure reads, is ignored."""
        edges = [from_doc(Triplet, edge_doc) for edge_doc in doc["edges"]]
        keys = [edge.key for edge in edges]
        conflicts = DEFAULT_RULES.conflicts(keys)
        if conflicts:
            facts = "; ".join(" / ".join(" ".join(keys[i]) for i in group) for group in conflicts)
            raise InvariantError(f"conflicting facts: {facts}", "edges")
        distinct = set(keys)
        for end, cap, kind in ((0, self.max_out_degree, "out"), (2, self.max_in_degree, "in")):
            degrees = Counter(key[end] for key in distinct)
            over = sorted(f"{node} ({n})" for node, n in degrees.items() if n > cap)
            if over:
                raise InvariantError(
                    f"{kind}-degree above the cap {cap}: {', '.join(over)}", "edges"
                )
        nodes = _names(doc["nodes"], "nodes")
        pending = [from_doc(Triplet, t) for t in doc.get("pending", [])]

        def install() -> None:
            with self._lock:
                self.clear()
                for edge in edges:
                    self._add_edge(edge)
                self._nodes.update(nodes)
                self._pending = pending

        return install


def _names(value: object, path: str) -> List[str]:
    """``value``, a list of non-blank text, as canonical names; else raise
    ``InvariantError`` naming ``path``."""
    items = as_texts(value)
    names = [canonical_name(item) for item in items or ()]
    if items is None or not all(names):
        raise InvariantError(f"must be a list of non-blank text, not {value!r}", path)
    return names

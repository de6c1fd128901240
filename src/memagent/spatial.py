"""Knowledge-graph spatial memory with buffered two-phase updates.

New facts land in a small pending buffer (rapid response), one batch per
observation. When a batch leaves the buffer saturated or holds a
fast-detected conflict, the whole buffer is integrated once: the affected
K-hop region of the graph is de-duplicated, conflict-resolved, and merged
back; nodes outside that region are never touched. A batch is never cut,
so a query made after the call never misses the tail of an observation
that filled the buffer.

Integrate costs what the step changed, not what the region holds. The
region is a set of nodes, and its local edge set is never copied: it is
the graph's edges inside the region, overlaid by the changed keys (new
facts that win on step index, and de-dup renames). The conflict detector
gets only the edges in contested slots of subjects that may conflict, and
the merge-back re-adds, in the order a full replace of the region would,
only the changed keys and the region edges of nodes that would exceed a
degree cap. Conflicts are those of ``gateway.DEFAULT_RULES``: the detector
gets its tables, the contested slots are the conflicts it finds among a
subject's keys, and the fast check looks up its exclusive partners.

The step pays only for lookups some decision reads. The fast conflict
check is a key lookup in the graph and in a set of the buffer's keys. Seeds
are looked up by exact name through a name index, which maps the first word
of each node name to the names it starts and their words: a query's words
are walked once, and at a word that starts some name, that name's words are
compared with the words that follow, with no fragment string built. The
similarity index of node names is filled only when a seed lookup first
needs a search, since most seeds resolve by exact name.
"""

from __future__ import annotations

import functools
import logging
import math
import re
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .core import canonical_name, check_int, from_doc, to_doc
from .gateway import DEFAULT_RULES, DEFAULT_TABLES, ReasonerGateway, ReasonerRole
from .vector_index import (  # noqa: F401  (cosine stays importable as spatial.cosine)
    DEFAULT_THETA,
    HashingEmbedder,
    IndexEntry,
    VectorIndex,
    cosine,
    cosine_with_norms,
)

logger = logging.getLogger(__name__)

DEFAULT_K = 2
DEFAULT_BUFFER_CAPACITY = 8
DEFAULT_MAX_OUT_DEGREE = 16
DEFAULT_MAX_IN_DEGREE = 16
#: Distinct (name, other, theta) de-dup decisions kept; one suite run makes
#: about 500. Also bounds the names whose instance numbers are kept.
SIMILAR_CACHE_SIZE = 16384

EdgeKey = Tuple[str, str, str]

def _contested(keys: Set[EdgeKey]) -> Set[EdgeKey]:
    """The keys, all of one subject, that sit in a contested slot of
    ``DEFAULT_RULES``: the keys of some conflict it finds among them. Only
    these can be in a conflict the detector reports, and a contested slot
    goes whole, so the detector finds the same conflicts among them as among
    all the keys. Like ``VectorIndex.may_hit`` for search, a prune that
    never decides."""
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
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "object", obj)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "key", (subject, relation, obj))


_NUMBERED_TOKEN = re.compile(r"\S*\d\S*")


@functools.lru_cache(maxsize=SIMILAR_CACHE_SIZE)
def _instance_numbers(name: str) -> Tuple[str, ...]:
    """The digit-bearing tokens of a name, in order."""
    return tuple(_NUMBERED_TOKEN.findall(name))


_EMBEDDER = HashingEmbedder()


@functools.lru_cache(maxsize=SIMILAR_CACHE_SIZE)
def _similar(name: str, other: str, theta: float) -> bool:
    """Whether ``name`` < ``other`` may be merged: their digit-bearing
    tokens are equal (``drawer 1`` and ``drawer 2`` are two instances) and
    their cosine is at least theta. A pure function of its arguments, so it
    is decided once per pair for the whole process; a name is embedded only
    for a pair whose numbers match."""
    if _instance_numbers(name) != _instance_numbers(other):
        return False
    a, b = _EMBEDDER.embed(name), _EMBEDDER.embed(other)
    return cosine_with_norms(a, float(np.linalg.norm(a)), b, float(np.linalg.norm(b))) >= theta


def khop_bound(num_seeds: int, max_out_degree: int, k: int) -> float:
    """Worst-case node count reachable within k hops from num_seeds roots."""
    if max_out_degree <= 0:
        return float(num_seeds)
    if max_out_degree == 1:
        return num_seeds * (k + 1)
    return num_seeds * (max_out_degree ** (k + 1) - 1) / (max_out_degree - 1)


class SpatialMemory:
    """Directed labeled graph over canonical entity names, with entity
    embeddings kept in a vector index for seed resolution and de-dup."""

    def __init__(
        self,
        gateway: Optional[ReasonerGateway] = None,
        theta: float = DEFAULT_THETA,
        k_hops: int = DEFAULT_K,
        buffer_capacity: int = DEFAULT_BUFFER_CAPACITY,
        max_out_degree: int = DEFAULT_MAX_OUT_DEGREE,
        max_in_degree: int = DEFAULT_MAX_IN_DEGREE,
    ):
        # Nothing resets the budget of a gateway of its own, so it has none.
        self.gateway = gateway or ReasonerGateway(budget=math.inf)
        self.embedder = _EMBEDDER
        self.theta = theta
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
        # Name index for the exact seed lookup: first word of a node name ->
        # {name: the words of the name}.
        self._names_by_first: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        # Subjects whose out-edges may hold a conflict: _add_edge has added a
        # key of theirs since the detector last saw all their out-edges.
        self._dirty: Set[str] = set()
        # Pair index over _similar, kept across clear(): the names each name
        # has been compared with, and those found similar (both directions).
        # It starts over past SIMILAR_CACHE_SIZE pairs.
        self._compared: Dict[str, Set[str]] = {}
        self._similar_to: Dict[str, Set[str]] = {}
        self._pairs_indexed = 0
        # Names whose pairs with each other have all been decided (in the
        # pair index); emptied by clear() and when the pair index starts over.
        self._decided: Set[str] = set()
        # Embeddings of the node names, for seed resolution by similarity.
        # A new node waits in _unindexed until a search needs the index
        # (_index_nodes).
        self._index = VectorIndex(dim=self.embedder.dim)
        self._unindexed: Set[str] = set()
        self._pending: List[Triplet] = []
        # The keys of _pending, for _fast_conflict; emptied with it.
        self._pending_keys: Set[EdgeKey] = set()
        self._retrieval_seed: Set[str] = set()  # most recent retrieval entities
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
            self._names_by_first.clear()
            self._dirty.clear()
            self._decided.clear()
            self._index = VectorIndex(dim=self.embedder.dim)
            self._unindexed.clear()
            self._pending.clear()
            self._pending_keys.clear()
            self._retrieval_seed.clear()

    # -- rapid response phase ---------------------------------------------

    def buffer_triplets(self, new_triplets: Sequence[Triplet]) -> None:
        """Buffer a batch of new facts (one observation's), then integrate
        the whole buffer once if it has reached ``buffer_capacity`` or any
        fact of the batch fast-conflicts. Nothing reads the graph between
        two facts of one call, so no reader sees a batch half merged, and
        between calls the buffer holds fewer than ``buffer_capacity`` facts
        and no fast conflict."""
        with self._lock:
            conflict = False
            for triplet in new_triplets:
                self._pending.append(triplet)
                self._pending_keys.add(triplet.key)
                conflict = conflict or self._fast_conflict(triplet)
            if conflict or len(self._pending) >= self.buffer_capacity:
                self.integrate()

    def _fast_conflict(self, triplet: Triplet) -> bool:
        """Whether the graph or the buffer holds a fact on the triplet's
        subject and object under a relation exclusive with its own."""
        for partner in DEFAULT_RULES.exclusive_with(triplet.relation):
            key = (triplet.subject, partner, triplet.object)
            if key in self._edges or key in self._pending_keys:
                return True
        return False

    # -- local integration phase (the incremental update) ------------------

    def integrate(self) -> None:
        with self._lock:
            if not self._pending:
                return
            t_new = list(self._pending)
            self._pending = []
            self._pending_keys.clear()
            self._integrate(t_new)

    def _integrate(self, t_new: List[Triplet]) -> None:
        ends = {t.subject for t in t_new} | {t.object for t in t_new}
        reached = self._region(ends | self._retrieval_seed, self.k_hops)
        region = reached | ends

        # The local set is never built: it is the graph's edges with both
        # endpoints in the region, overlaid by ``changed``, the keys whose
        # local triplet is not the graph's. Its order is the sorted region
        # keys, then new keys in arrival order; ``place`` ranks a key in it.
        changed: Dict[EdgeKey, Triplet] = {}
        arrival: Dict[EdgeKey, int] = {}
        for i, triplet in enumerate(t_new):
            key = triplet.key
            prior = changed.get(key) or self._edges.get(key)
            if prior is None:
                arrival[key] = i
            if prior is None or triplet.step_index >= prior.step_index:
                changed[key] = triplet  # relationship merging: max step_index wins
        placed: Dict[EdgeKey, tuple] = {}

        def place(key: EdgeKey) -> tuple:
            if key in placed:
                return placed[key]
            return (1, arrival[key]) if key in arrival else (0, key)

        # A node reached by a hop has an in-edge from the region, so only a
        # retrieval seed may be in the region without a region edge.
        present = reached | ends
        present.difference_update(
            [
                n
                for n in self._retrieval_seed - ends
                if n in reached
                and not any(k[2] in reached for k in self._out.get(n, ()))
                and not any(k[0] in reached for k in self._in.get(n, ()))
            ]
        )
        rename = self._dedup_renames(present, region)
        if rename:
            # The renamed names leave the graph with all their edges, so no
            # test below of a key's endpoints against the region meets them.
            placed.update(self._dedup_entities(rename, changed, place))

        # Keys the graph does not hold: new facts and de-dup renames. A
        # subject may conflict when it gains one, or when the detector has
        # not seen its out-edges since it last gained one.
        suspects = {key[0] for key in changed if key not in self._edges}
        suspects.update(
            n
            for n in self._dirty
            if n in region and any(k[2] in region for k in self._out.get(n, ()))
        )
        losers = self._resolve_conflicts(suspects, changed, region)
        graph_losers = {key for key in losers if key in self._edges}
        for key in losers:
            changed.pop(key, None)

        # Merge back. Only a node that gains a key can end above a degree
        # cap, and only a node above its cap evicts, so no other node evicts
        # during a full replace of the region either. The region edges of
        # these hot nodes are removed and re-added so that they evict as a
        # full replace in local order would. Every other edge that stays in the local set stays
        # in place; a newer triplet of a key the graph holds overwrites it.
        hot = self._hot_nodes([key for key in changed if key not in self._edges], graph_losers)
        stale = set(graph_losers)
        for node in hot:
            stale.update(k for k in self._out.get(node, ()) if k[2] in region)
            stale.update(k for k in self._in.get(node, ()) if k[0] in region)
        readd = {key: self._edges[key] for key in stale - graph_losers}
        readd.update(changed)
        for key in stale:
            self._remove_edge(key)
        # Without a rename, ``readd`` already evicts as local order does: the
        # removed edges held together under the caps before, so none of them
        # evicts on its way back, and the keys the graph lacks follow them in
        # arrival order. A rename may place a key among the removed ones.
        for key in sorted(readd, key=place) if rename else readd:
            if key in self._edges:
                self._edges[key] = readd[key]  # same endpoints: nothing else changes
            else:
                self._add_edge(readd[key])
        # A re-added edge of a subject that was not sent marked it dirty,
        # though it gained no key; a subject sent is clean when the detector
        # saw every out-edge it now has.
        self._dirty -= {key[0] for key in readd} - suspects
        self._dirty.difference_update(
            [s for s in suspects if all(k[2] in region for k in self._out.get(s, ()))]
        )

    def _hot_nodes(self, gained: List[EdgeKey], graph_losers: Set[EdgeKey]) -> Set[str]:
        """The endpoints of ``gained`` keys whose out- or in-degree after
        the merge-back, before any eviction, exceeds its cap: the edges they
        keep (all but the conflict losers) plus the keys they gain."""
        hot: Set[str] = set()
        if not gained:
            return hot
        for end, index, cap in (
            (0, self._out, self.max_out_degree),
            (2, self._in, self.max_in_degree),
        ):
            for node in {key[end] for key in gained}:
                keys = index.get(node, ())
                if len(keys) + len(gained) <= cap:
                    continue  # it keeps at most the keys it has
                count = sum(1 for key in gained if key[end] == node)
                if len(keys) - len(graph_losers.intersection(keys)) + count > cap:
                    hot.add(node)
        return hot

    def _dedup_entities(
        self,
        rename: Dict[str, str],
        changed: Dict[EdgeKey, Triplet],
        place: Callable[[EdgeKey], tuple],
    ) -> Dict[EdgeKey, tuple]:
        """Apply ``rename`` to the local edges of the renamed names, which
        are all region edges or new facts, and drop those names from the
        graph. A renamed edge merges into the key it lands on (max
        step_index wins, a tie goes to the later in local order) and that
        key takes the first place of the keys merged into it. Updates
        ``changed`` and returns those places."""
        moved = {
            key for name in rename for index in (self._out, self._in) for key in index.get(name, ())
        }
        moved.update(key for key in changed if key[0] in rename or key[2] in rename)
        landed: Dict[EdgeKey, List[Tuple[tuple, Triplet]]] = {}
        for key in moved:
            edge = changed.pop(key, None) or self._edges[key]
            renamed = replace(
                edge,
                subject=rename.get(edge.subject, edge.subject),
                object=rename.get(edge.object, edge.object),
            )
            landed.setdefault(renamed.key, []).append((place(key), renamed))
        for loser in rename:
            self._drop_node(loser)
        placed: Dict[EdgeKey, tuple] = {}
        for key, merged in landed.items():
            prior = changed.get(key) or self._edges.get(key)
            if prior is not None:
                merged.append((place(key), prior))
            merged.sort(key=lambda ranked: ranked[0])
            edge = merged[0][1]
            for _, other in merged[1:]:
                if other.step_index >= edge.step_index:
                    edge = other
            if edge is not self._edges.get(key):
                changed[key] = edge
            placed[key] = merged[0][0]
        return placed

    def _dedup_renames(self, present: Set[str], region: Set[str]) -> Dict[str, str]:
        """Greedy rename map over the sorted ``present`` names: each name not
        yet renamed absorbs every later similar name (see ``_similar``) that
        has no edge leaving ``region``. The graph does not change during the
        scan. Only a name outside ``_decided`` is compared, with the present
        and decided names it has not met before; the scan then walks the
        similar pairs alone."""
        if self._pairs_indexed > SIMILAR_CACHE_SIZE:
            self._compared.clear()
            self._similar_to.clear()
            self._pairs_indexed = 0
            self._decided.clear()
        new = present - self._decided
        if new:
            known = present | self._decided
            for name in new:
                compared = self._compared.setdefault(name, {name})
                for other in known - compared:
                    compared.add(other)
                    self._compared.setdefault(other, {other}).add(name)
                    self._pairs_indexed += 1
                    if _similar(min(name, other), max(name, other), self.theta):
                        self._similar_to.setdefault(name, set()).add(other)
                        self._similar_to.setdefault(other, set()).add(name)
            self._decided |= new
        outside: Dict[str, bool] = {}
        rename: Dict[str, str] = {}
        for name in sorted(present.intersection(self._similar_to)):
            if name in rename:
                continue
            for other in sorted(o for o in self._similar_to[name] if o > name):
                if other in rename or other not in present:
                    continue
                if other not in outside:
                    outside[other] = self._has_edges_outside(other, region)
                if not outside[other]:
                    rename[other] = name
        return rename

    def _has_edges_outside(self, node: str, region: Set[str]) -> bool:
        return any(k[2] not in region for k in self._out.get(node, ())) or any(
            k[0] not in region for k in self._in.get(node, ())
        )

    def _resolve_conflicts(
        self, suspects: Set[str], changed: Dict[EdgeKey, Triplet], region: Set[str]
    ) -> Set[EdgeKey]:
        """The losers of each conflict among the local out-edges of the
        suspects. Every rule of the detector is per subject (exclusive
        relations on one subject and object, one object per functional
        group of a subject, one value per state set of a subject), so the
        edges of other subjects cannot conflict and are not sent; of a
        suspect's edges, only those in a contested slot are (see
        ``_contested``). With no contested slot there is no call."""
        local_out: Dict[str, Set[EdgeKey]] = {
            s: {k for k in self._out.get(s, ()) if k[2] in region} for s in suspects
        }
        for key in changed:
            if key[0] in local_out:
                local_out[key[0]].add(key)
        keys = sorted(k for out in local_out.values() if len(out) > 1 for k in _contested(out))
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

    def _resolve_seed(self, seed: str) -> Optional[str]:
        """The node named ``seed``, else the most similar node at or above
        theta. A numbered seed resolves only to a node with its numbers, as
        in de-dup: ``drawer 2`` never resolves to ``drawer 1``."""
        name = canonical_name(seed)
        if name in self._nodes:
            return name
        if not name or not self._nodes:
            return None
        numbers = _instance_numbers(name)
        self._index_nodes()
        results = self._index.search(
            self.embedder.embed(name), k=len(self._index) if numbers else 1, theta=self.theta
        )
        for entry, _ in results:
            if not numbers or _instance_numbers(entry.id) == numbers:
                return entry.id
        return None

    def retrieve_subgraph(
        self, seeds: Iterable[str], k: Optional[int] = None
    ) -> Tuple[Set[str], List[Triplet]]:
        """All nodes reachable from the resolved seeds via <= k outgoing
        hops, plus the edges among them. Raises ``KHopBoundError`` when the
        node count exceeds the worst-case expansion bound."""
        with self._lock:
            hops = self.k_hops if k is None else k
            resolved = {r for r in (self._resolve_seed(s) for s in seeds) if r}
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

    def query(self, text: str) -> Tuple[Triplet, ...]:
        """The edges of the subgraph around entities mentioned in the query,
        sorted by key; remembers the seed set."""
        with self._lock:
            seeds = self._extract_seeds(text)
            self._retrieval_seed = set(seeds)
            if not seeds:
                return ()
            _, edges = self.retrieve_subgraph(seeds)
            return tuple(edges)

    def _extract_seeds(self, text: str) -> Set[str]:
        """The nodes named by 1-3 consecutive words of ``text``; when none
        is, the nodes its 1-3-word fragments resolve to by similarity. A word
        and the number after it name one instance (``drawer`` in ``drawer
        2``), so no name or fragment ends between them."""
        words = tuple(canonical_name(text).split())
        # Only a name whose first word is here can match; its words are
        # compared with the words that follow, and no string is built.
        seeds: Set[str] = set()
        for i, word in enumerate(words):
            names = self._names_by_first.get(word)
            if not names:
                continue
            for name, parts in names.items():
                end = i + len(parts)
                if (
                    len(parts) <= 3
                    and words[i:end] == parts
                    and (end == len(words) or not _instance_numbers(words[end]))
                ):
                    seeds.add(name)
        if seeds or not self._nodes:
            return seeds
        numbered = {i for i, word in enumerate(words) if _instance_numbers(word)}
        fragments = {
            " ".join(words[i:end])
            for i in range(len(words))
            for end in range(i + 1, min(i + 3, len(words)) + 1)
            if end not in numbered
        }
        # One product over all fragments prunes those that no node may
        # reach; the rest resolve by search, which alone decides a hit.
        ordered = sorted(fragments)
        self._index_nodes()
        reach = self._index.may_hit([self.embedder.embed(f) for f in ordered], self.theta)
        candidates = [fragment for fragment, may in zip(ordered, reach) if may]
        return {r for r in map(self._resolve_seed, candidates) if r}

    # -- low-level mutation --------------------------------------------------

    def _add_edge(self, edge: Triplet) -> None:
        key = edge.key
        if key in self._edges:
            # Same endpoints: no node, degree or incident key changes.
            self._edges[key] = edge
            return
        self._dirty.add(edge.subject)
        self._edges[key] = edge
        self._out.setdefault(edge.subject, set()).add(key)
        self._in.setdefault(edge.object, set()).add(key)
        self._add_node(edge.subject)
        self._add_node(edge.object)
        self._enforce_degree_cap(edge.subject, outgoing=True)
        self._enforce_degree_cap(edge.object, outgoing=False)

    def _add_node(self, node: str) -> None:
        if node not in self._nodes:
            self._nodes.add(node)
            words = tuple(node.split(" "))
            self._names_by_first.setdefault(words[0], {})[node] = words
            self._unindexed.add(node)

    def _index_nodes(self) -> None:
        """Upsert the nodes not yet in the index, in sorted order. Search is
        exact and ranks by (score, id), and ``may_hit`` only prunes, so no
        result depends on the order of the rows."""
        for node in sorted(self._unindexed):
            self._index.upsert(IndexEntry(id=node, text=node, embedding=self.embedder.embed(node)))
        self._unindexed.clear()

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

    def _drop_node(self, node: str) -> None:
        if node in self._nodes:
            self._nodes.remove(node)
            first = node.split(" ", 1)[0]
            names = self._names_by_first[first]
            del names[node]
            if not names:
                del self._names_by_first[first]
        if node in self._index:
            self._index.remove(node)
        self._unindexed.discard(node)
        self._dirty.discard(node)
        for key in self._out.get(node, set()) | self._in.get(node, set()):
            self._remove_edge(key)

    # -- persistence / inspection ---------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "nodes": sorted(self._nodes),
                "edges": to_doc(self.edges()),
                "pending": to_doc(self._pending),
                "retrieval_seed": sorted(self._retrieval_seed),
            }

    def restore(self, doc: dict) -> None:
        with self._lock:
            self.clear()
            for edge_doc in doc["edges"]:
                self._add_edge(from_doc(Triplet, edge_doc))
            for node in doc["nodes"]:
                self._add_node(node)
            self._pending = [from_doc(Triplet, t) for t in doc.get("pending", [])]
            self._pending_keys = {t.key for t in self._pending}
            self._retrieval_seed = set(doc.get("retrieval_seed", []))

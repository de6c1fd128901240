"""Episodic and semantic long-term memories behind one
extract / consolidate / retrieve framework.

Episodic entries are written once per finished task. Semantic entries mix
two sources: per-action failure micro-entries buffered during the task,
and post-task lessons (search dead-ends, failure causes, success recipes).
Consolidation merges each new entry against its theta-similar neighbors of
the same kind, so unrelated entries are never touched.

Retrieval may be scoped to the entries one task's trace wrote (``task``).
Each kind keeps a map from scope to entry ids, updated on the one write
path, ``_apply``. A scoped retrieval ranks only the scope's entries, with
the same exact scoring as an unscoped one, so entries of other scopes never
take its slots and its cost grows with the scope, not with the store. A
scope with no entry of the kind costs no embedding and no search.

The memory owns its entries; each kind's ``VectorIndex`` keeps only their
vectors, by id. ``_next_id`` issues ``<kind>-<task>-<n>`` ids from counters
that snapshots keep, and steps past any id the store holds, so no new entry
takes a held id, whatever ids a caller or a snapshot brought.
"""

from __future__ import annotations

import logging
import math
import threading
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .core import (
    InvariantError,
    Outcome,
    StepRecord,
    TaskResult,
    as_texts,
    check_int,
    from_doc,
    to_doc,
)
from .gateway import ReasonerGateway, ReasonerRole
from .vector_index import HashingEmbedder, VectorIndex

logger = logging.getLogger(__name__)

DEFAULT_RETRIEVAL_THETA = 0.25
CONSOLIDATION_K = 5


@dataclass(frozen=True)
class MemoryEntity:
    """One long-term entry. ``text`` is what retrieval embeds and the prompt
    shows; ``facts`` (obj, rel, place) and ``avoid`` (obj, point) are the
    same knowledge as data, set from the task trace, for the planner.
    ``task`` names the task whose trace wrote the current text, facts and
    avoid; the ``id`` names the task that created the entry."""

    id: str
    kind: str  # "episodic" | "semantic"
    text: str
    task: str
    tags: Tuple[str, ...] = ()
    count: int = 1
    facts: Tuple[Tuple[str, str, str], ...] = ()
    avoid: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self):
        for name in ("id", "text", "task"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value.strip():
                raise InvariantError(f"must be non-blank text, not {value!r}", name)
        if self.kind not in ("episodic", "semantic"):
            raise ValueError(f"unknown kind: {self.kind}")
        check_int(self.count, 1, "count")
        tags = as_texts(self.tags)
        if tags is None:
            raise InvariantError(f"must be a list of text, not {self.tags!r}", "tags")
        object.__setattr__(self, "tags", tags)
        for name, width in (("facts", 3), ("avoid", 2)):
            value = getattr(self, name)
            rows = tuple(map(as_texts, value)) if isinstance(value, (list, tuple)) else None
            if rows is None or any(row is None or len(row) != width for row in rows):
                raise InvariantError(
                    f"must be a list of {width}-item lists of text, not {value!r}", name
                )
            object.__setattr__(self, name, rows)


@dataclass
class UpdatePlan:
    adds: List[MemoryEntity] = field(default_factory=list)
    updates: List[Tuple[str, MemoryEntity]] = field(default_factory=list)
    deletes: List[str] = field(default_factory=list)


@dataclass
class TaskTrace:
    """What the rest of the system observed during one task; the raw
    material the extractor summarizes."""

    task_id: str
    instruction: str
    first_seen: Dict[str, Tuple[str, str]] = field(default_factory=dict)  # obj -> (rel, place)
    visited_points: List[str] = field(default_factory=list)
    opened_containers: List[str] = field(default_factory=list)
    goal_objects: List[str] = field(default_factory=list)
    verbs: List[str] = field(default_factory=list)
    failure_reasons: List[str] = field(default_factory=list)

    def note_visit(self, point: str) -> None:
        if point not in self.visited_points:
            self.visited_points.append(point)

    def note_seen(self, obj: str, rel: str, place: str) -> None:
        if obj not in self.first_seen:
            self.first_seen[obj] = (rel, place)

    def note_opened(self, container: str) -> None:
        if container not in self.opened_containers:
            self.opened_containers.append(container)

    def searched_not_found(self) -> Dict[str, List[str]]:
        missing = {}
        for obj in self.goal_objects:
            if obj not in self.first_seen:
                missing[obj] = list(self.visited_points)
        return missing


class LifelongMemory:
    def __init__(self, gateway: Optional[ReasonerGateway] = None):
        # Nothing resets the budget of a gateway of its own, so it has none.
        self.gateway = gateway or ReasonerGateway(budget=math.inf)
        self.embedder = HashingEmbedder()
        self._lock = threading.RLock()
        self.wipe()

    def __len__(self) -> int:
        return len(self._entities)

    def entities(self, kind: Optional[str] = None) -> List[MemoryEntity]:
        with self._lock:
            selected = [
                self._entities[k]
                for k in sorted(self._entities)
                if kind is None or self._entities[k].kind == kind
            ]
            return selected

    def _next_id(self, kind: str, task_id: str) -> str:
        key = f"{kind}-{task_id}"
        number = self._id_counters.get(key, 0) + 1
        while f"{key}-{number}" in self._entities:
            number += 1
        self._id_counters[key] = number
        return f"{key}-{number}"

    # -- action-level (semantic micro-entities) -----------------------------

    def record_action_experience(self, step: StepRecord) -> Optional[str]:
        """Buffer a failure lesson for the post-task update; a success leaves
        nothing. Returns the buffered text, if any."""
        with self._lock:
            if step.outcome is Outcome.SUCCESS:
                return None
            verb = step.action.verb.value
            target = step.action.target or ""
            text = f"{verb} {target}".strip() + f": fails when {step.failure_reason}"
            count, _ = self._action_buffer.get(text, (0, ()))
            self._action_buffer[text] = (
                count + 1,
                (f"verb:{verb}", f"reason:{step.failure_reason}", "outcome:failure"),
            )
            return text

    def clear_action_buffer(self) -> None:
        """Drop the buffered failure lessons: a task that ended without its
        task-level update (a crash) leaves them, and they must not be
        written under the next task's scope."""
        with self._lock:
            self._action_buffer.clear()

    # -- task-level extraction ------------------------------------------------

    def extract_task_entities(self, trace: TaskTrace, result: TaskResult) -> List[MemoryEntity]:
        with self._lock:
            outcome = "success" if result.success else "failure"
            first_seen = tuple(
                (obj, rel, place) for obj, (rel, place) in sorted(trace.first_seen.items())
            )
            payload = {
                "task_id": trace.task_id,
                "instruction": trace.instruction,
                "outcome": outcome,
                "scn": result.scn,
                "gcn": result.gcn,
                "steps_used": result.steps_used,
                "first_seen": [list(fact) for fact in first_seen],
                "visited_points": list(trace.visited_points),
                "verbs": list(trace.verbs),
                "failure_reasons": list(trace.failure_reasons),
            }
            response = self.gateway.ask(ReasonerRole.MEMORY_EXTRACTOR, payload)

            outcome_tag = f"outcome:{outcome}"
            entities = [
                MemoryEntity(
                    id=self._next_id("episodic", trace.task_id),
                    kind="episodic",
                    text=text,
                    task=trace.task_id,
                    tags=(f"task:{trace.task_id}", f"instruction:{trace.instruction}", outcome_tag),
                    facts=first_seen,
                )
                for text in response["episodic"]
            ]
            semantic_tags = (f"instruction:{trace.instruction}", outcome_tag)
            # Search dead-ends of a failed task, from the trace; a task that
            # executed no step searched nothing.
            if not result.success and result.steps_used:
                for obj, points in sorted(trace.searched_not_found().items()):
                    if points:
                        entities.append(
                            MemoryEntity(
                                id=self._next_id("semantic", trace.task_id),
                                kind="semantic",
                                text=f"searching for {obj}: not found at {', '.join(points)}; "
                                "avoid re-searching these locations",
                                task=trace.task_id,
                                tags=semantic_tags,
                                avoid=tuple((obj, point) for point in points),
                            )
                        )
            for text in response["semantic"]:
                entities.append(
                    MemoryEntity(
                        id=self._next_id("semantic", trace.task_id),
                        kind="semantic",
                        text=text,
                        task=trace.task_id,
                        tags=semantic_tags,
                    )
                )
            # Flush the per-action failure buffer into semantic entities.
            for text, (count, tags) in sorted(self._action_buffer.items()):
                entities.append(
                    MemoryEntity(
                        id=self._next_id("semantic", trace.task_id),
                        kind="semantic",
                        text=f"{text} (seen {count}x)" if count > 1 else text,
                        task=trace.task_id,
                        tags=tags,
                        count=count,
                    )
                )
            self._action_buffer.clear()
            return entities

    # -- consolidation -----------------------------------------------------

    def consolidate(self, new_entities: Sequence[MemoryEntity]) -> UpdatePlan:
        with self._lock:
            plan = UpdatePlan()
            claimed: set = set()
            for entity in new_entities:
                decision = self._decide(entity)
                action = decision["action"]
                target_id = decision.get("target_id")
                if action in ("update", "replace") and (
                    target_id not in self._entities or target_id in claimed
                ):
                    logger.warning(
                        "updater referenced unknown or already-claimed id %s; "
                        "falling back to add",
                        target_id,
                    )
                    action = "add"
                if action in ("update", "replace"):
                    claimed.add(target_id)
                if action == "update":
                    old = self._entities[target_id]
                    plan.updates.append(
                        (
                            target_id,
                            replace(
                                old,
                                text=entity.text,
                                task=entity.task,
                                count=old.count + entity.count,
                                facts=entity.facts,
                                avoid=entity.avoid,
                            ),
                        )
                    )
                elif action == "replace":
                    plan.deletes.append(target_id)
                    plan.adds.append(entity)
                else:
                    plan.adds.append(entity)
            self._apply(plan)
            return plan

    def _decide(self, entity: MemoryEntity) -> dict:
        similar = self._search(entity.text, entity.kind, CONSOLIDATION_K)
        payload = {
            "new": {
                "id": entity.id,
                "kind": entity.kind,
                "text": entity.text,
                "tags": list(entity.tags),
                "count": entity.count,
            },
            "similar": [
                {
                    "id": e.id,
                    "kind": e.kind,
                    "text": e.text,
                    "tags": list(e.tags),
                    "count": e.count,
                    "score": score,
                }
                for e, score in similar
            ],
        }
        return self.gateway.ask(ReasonerRole.MEMORY_UPDATER, payload)

    def _apply(self, plan: UpdatePlan) -> None:
        for entity_id in plan.deletes:
            old = self._entities.pop(entity_id)
            self._indexes[old.kind].remove(entity_id)
            self._unscope(old)
        # An update keeps its target's id, so it is written like an add; it
        # may move the entry to another task's scope.
        for entity in [updated for _, updated in plan.updates] + plan.adds:
            prior = self._entities.get(entity.id)
            if prior is not None:
                self._unscope(prior)
            self._entities[entity.id] = entity
            self._scopes[entity.kind].setdefault(entity.task, set()).add(entity.id)
            self._indexes[entity.kind].upsert(entity.id, self.embedder.embed(entity.text))

    def _unscope(self, entity: MemoryEntity) -> None:
        ids = self._scopes[entity.kind][entity.task]
        ids.discard(entity.id)
        if not ids:
            del self._scopes[entity.kind][entity.task]

    # -- retrieval -----------------------------------------------------------

    def retrieve(
        self, query: str, kind: str, k: int = 5, scope: Optional[str] = None
    ) -> List[Tuple[MemoryEntity, float]]:
        """The top ``k`` entries of one kind at least theta-similar to
        ``query``, best first, ties by id. With a ``scope``, the top ``k``
        among the entries whose ``task`` is the scope: only they are scored,
        so the cost is proportional to the scope's size, not the store's.
        With no entry of the kind in the scope it returns ``[]`` without
        embedding ``query``."""
        with self._lock:
            if scope is None:
                return self._search(query, kind, k)
            ids = self._scopes[kind].get(scope)
            if not ids:
                return []
            return self._search(query, kind, k, among=ids)

    def _search(
        self, text: str, kind: str, k: int, among: Optional[Set[str]] = None
    ) -> List[Tuple[MemoryEntity, float]]:
        index = self._indexes[kind]
        if len(index) == 0:
            return []
        hits = index.search(
            self.embedder.embed(text), k=k, theta=DEFAULT_RETRIEVAL_THETA, among=among
        )
        return [(self._entities[entry_id], score) for entry_id, score in hits]

    # -- persistence ---------------------------------------------------------

    def wipe(self) -> None:
        with self._lock:
            self._entities: Dict[str, MemoryEntity] = {}
            self._indexes = {
                "episodic": VectorIndex(dim=self.embedder.dim),
                "semantic": VectorIndex(dim=self.embedder.dim),
            }
            # Per kind: scope (an entry's ``task``) -> ids of that kind's
            # entries in it. Only _apply and wipe change it.
            self._scopes: Dict[str, Dict[str, Set[str]]] = {"episodic": {}, "semantic": {}}
            self._id_counters: Dict[str, int] = {}
            # Micro-entity text -> (occurrence count, tags).
            self._action_buffer: Dict[str, Tuple[int, Tuple[str, ...]]] = {}

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "entities": to_doc(self.entities()),
                "id_counters": dict(sorted(self._id_counters.items())),
            }

    def restore(self, doc: dict) -> None:
        """Take the entries and id counters of a ``snapshot`` document. A
        bad document leaves the memory as it was."""
        self.prepare_restore(doc)()

    def prepare_restore(self, doc: dict) -> Callable[[], None]:
        """Parse and check a ``snapshot`` document, and return the function
        that replaces the memory with it. A bad document raises here, before
        anything is wiped. Ids must be distinct; counters may lag them, since
        ``_next_id`` steps past held ids."""
        counters = doc.get("id_counters", {})
        if not isinstance(counters, dict):
            raise InvariantError(f"must be an object, not {counters!r}", "id_counters")
        counters = dict(counters)
        for key, value in counters.items():
            check_int(value, 0, f"id_counters[{key!r}]")
        entities = [from_doc(MemoryEntity, d) for d in doc["entities"]]
        ids = Counter(entity.id for entity in entities)
        repeated = sorted(i for i, n in ids.items() if n > 1)
        if repeated:
            raise InvariantError(f"ids held twice: {', '.join(repeated)}", "entities")

        def install() -> None:
            with self._lock:
                self.wipe()
                self._id_counters = counters
                self._apply(UpdatePlan(adds=entities))

        return install


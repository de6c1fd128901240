"""Fan-out coordination of the four memory modules.

The orchestrator is the single writer: action-level events go to spatial,
temporal, and the semantic action buffer; task-level events trigger
long-term extraction and consolidation. With ``parallel`` set, updates and
retrievals run concurrently across modules through ``core.fan_out`` on
the one process-wide pool (each module serializes internally), so the
final state is independent of branch scheduling.

Retrieval has one read path per kind of memory. ``gather_context``
reads working memory (the spatial query around the query generator's
entity names, a pure read, and the temporal buffer), which changes with
every executed step. ``recall`` reads long-term memory, which changes
only at a task-level update, and ranks only the entries of one task's
scope, so its cost is proportional to that scope, not to the whole
store. That scope
(``LifelongMemory.retrieve``) is the one place the rule "trust only this
task's entries" is kept; the planner takes what is recalled.

A branch that raises does not stop its siblings; ``core.fan_out`` raises
the error again once every branch has finished, and the harness records
the episode as crashed. Gateway faults never get here: each module's
reasoner calls degrade through ``ReasonerGateway.ask``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import StepRecord, TaskResult, canonical_json, fan_out
from .lifelong import LifelongMemory, MemoryEntity, TaskTrace
from .spatial import SpatialMemory, Triplet
from .temporal import TemporalMemory

#: Entries retrieved per long-term kind for one context.
RETRIEVAL_K = 5


@dataclass(frozen=True)
class UpdateEvent:
    level: str  # "action" | "task"
    record: Optional[StepRecord] = None
    triplets: Tuple[Triplet, ...] = ()
    trace: Optional[TaskTrace] = None
    result: Optional[TaskResult] = None

    def __post_init__(self):
        if self.level not in ("action", "task"):
            raise ValueError(f"unknown event level: {self.level}")
        if self.level == "task" and (self.trace is None or self.result is None):
            raise ValueError("task-level events need trace and result")
        object.__setattr__(self, "triplets", tuple(self.triplets))


@dataclass
class MemoryContext:
    """Working memory for one decision: the spatial subgraph and the
    rendered temporal buffer. Long-term memory is read by ``recall``."""

    spatial: Tuple[Triplet, ...]
    temporal: str


class MemoryOrchestrator:
    def __init__(
        self,
        spatial: Optional[SpatialMemory] = None,
        temporal: Optional[TemporalMemory] = None,
        lifelong: Optional[LifelongMemory] = None,
        parallel: bool = True,
        spatial_enabled: bool = True,
        longterm_enabled: bool = True,
        delay_hooks: Optional[Dict[str, float]] = None,
    ):
        self.spatial = spatial if spatial is not None else SpatialMemory()
        self.temporal = temporal if temporal is not None else TemporalMemory()
        self.lifelong = lifelong if lifelong is not None else LifelongMemory()
        self.parallel = parallel
        self.spatial_enabled = spatial_enabled
        self.longterm_enabled = longterm_enabled
        # Test/bench hook: per-gather-section artificial delay in seconds.
        self.delay_hooks = delay_hooks or {}
        self.gather_latencies: List[float] = []

    # -- update fan-out -----------------------------------------------------

    def dispatch_update(self, event: UpdateEvent) -> None:
        """Apply an event to every module at its update frequency. A failed
        branch never stops a sibling; its error is raised once all have
        finished."""
        fan_out(self._branches(event), self.parallel)

    def _branches(self, event: UpdateEvent) -> List[Callable[[], object]]:
        branches: List[Callable[[], object]] = []
        if event.level == "action":
            if self.spatial_enabled and event.triplets:
                branches.append(lambda: self.spatial.buffer_triplets(event.triplets))
            if event.record is not None:
                branches.append(lambda: self.temporal.append(event.record))
                if self.longterm_enabled:
                    branches.append(lambda: self.lifelong.record_action_experience(event.record))
        else:
            if self.longterm_enabled:

                def consolidate() -> None:
                    entities = self.lifelong.extract_task_entities(event.trace, event.result)
                    self.lifelong.consolidate(entities)

                branches.append(consolidate)
        return branches

    # -- retrieval fan-out -----------------------------------------------------

    def gather_context(self, entities: Sequence[str]) -> MemoryContext:
        """Working memory for one decision: the spatial subgraph around the
        ``entities`` that are nodes, and the temporal buffer."""
        start = time.perf_counter()
        spatial = (lambda: self.spatial.query(entities)) if self.spatial_enabled else (lambda: ())
        results = fan_out(
            [self._padded("spatial", spatial), self._padded("temporal", self.temporal.render)],
            self.parallel,
        )
        self.gather_latencies.append(time.perf_counter() - start)
        return MemoryContext(*results)

    def recall(
        self, query: str, scope: str
    ) -> Tuple[List[Tuple[MemoryEntity, float]], List[Tuple[MemoryEntity, float]]]:
        """The top episodic and semantic entries for ``query`` among those
        the task ``scope`` wrote. Only that scope's entries are ranked, so
        other tasks' entries take no slot and add no cost (see
        ``LifelongMemory.retrieve``)."""

        def retrieve(kind: str) -> Callable[[], object]:
            fn = (
                (lambda: self.lifelong.retrieve(query, kind, RETRIEVAL_K, scope))
                if self.longterm_enabled
                else (lambda: [])
            )
            return self._padded(kind, fn)

        episodic, semantic = fan_out([retrieve("episodic"), retrieve("semantic")], self.parallel)
        return episodic, semantic

    def _padded(self, section: str, fn: Callable[[], object]) -> Callable[[], object]:
        delay = self.delay_hooks.get(section, 0.0)
        if not delay:
            return fn

        def padded() -> object:
            time.sleep(delay)
            return fn()

        return padded

    # -- task boundaries & persistence ----------------------------------------

    def reset_task_state(self) -> None:
        """Per-task working memory reset: temporal buffer, spatial graph
        and buffer, and any failure lessons a crashed task left buffered.
        Long-term stores persist."""
        self.temporal.clear()
        self.spatial.clear()
        self.lifelong.clear_action_buffer()

    def snapshot(self) -> str:
        """All three stores as one canonical JSON document."""
        return canonical_json(
            {
                "spatial": self.spatial.snapshot(),
                "temporal": self.temporal.snapshot(),
                "lifelong": self.lifelong.snapshot(),
            }
        )

    def restore(self, text: str) -> None:
        """Restore all three stores from a ``snapshot`` document. Every
        part is parsed and checked before any store is replaced, so a bad
        document leaves all three as they were."""
        doc = json.loads(text)
        installs = [
            self.spatial.prepare_restore(doc["spatial"]),
            self.temporal.prepare_restore(doc["temporal"]),
            self.lifelong.prepare_restore(doc["lifelong"]),
        ]
        for install in installs:
            install()

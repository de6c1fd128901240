"""Fan-out coordination of the four memory modules.

The orchestrator is the single writer: action-level events go to spatial,
temporal, and the semantic action buffer; task-level events trigger
long-term extraction and consolidation. With ``parallel`` set, updates and
retrievals run concurrently across modules through ``core.fan_out`` on
the one process-wide pool (each module serializes internally), so the
final state is independent of branch scheduling.

A branch that raises does not stop its siblings; ``core.fan_out`` raises
the error again once every branch has finished, and the harness records
the episode as crashed. Gateway faults never get here: each module's
reasoner calls degrade through ``ReasonerGateway.ask``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

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
    spatial: Tuple[Triplet, ...]
    temporal: str
    episodic: List[Tuple[MemoryEntity, float]]
    semantic: List[Tuple[MemoryEntity, float]]


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

    def gather_context(self, query: str, scope: Optional[str] = None) -> MemoryContext:
        """The four sections for ``query``. ``scope`` narrows the long-term
        sections to one task's entries (see ``LifelongMemory.retrieve``)."""
        start = time.perf_counter()
        sections: Dict[str, Callable[[], object]] = {
            "spatial": (lambda: self.spatial.query(query))
            if self.spatial_enabled
            else (lambda: ()),
            "temporal": self.temporal.render,
            "episodic": (lambda: self.lifelong.retrieve(query, "episodic", RETRIEVAL_K, scope))
            if self.longterm_enabled
            else (lambda: []),
            "semantic": (lambda: self.lifelong.retrieve(query, "semantic", RETRIEVAL_K, scope))
            if self.longterm_enabled
            else (lambda: []),
        }
        results = fan_out(
            [self._padded(name, fn) for name, fn in sections.items()], self.parallel
        )
        self.gather_latencies.append(time.perf_counter() - start)
        return MemoryContext(*results)

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
        """Per-task working memory reset: temporal buffer, spatial graph, and
        the retrieval seed. Long-term stores persist."""
        self.temporal.clear()
        self.spatial.clear()

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
        """Restore all three stores from a ``snapshot`` document."""
        doc = json.loads(text)
        self.spatial.restore(doc["spatial"])
        self.temporal.restore(doc["temporal"])
        self.lifelong.restore(doc["lifelong"])

"""Fan-out coordination of the four memory modules.

The orchestrator is the single writer: action-level events go to spatial,
temporal, and the semantic action buffer; task-level events trigger
long-term extraction and consolidation. With ``parallel`` set, updates and
retrievals run concurrently across modules through ``core.fan_out`` on
the one process-wide pool (each module serializes internally), so the
final state is independent of branch scheduling.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .core import StepRecord, TaskResult, canonical_json, fan_out
from .lifelong import LifelongMemory, MemoryEntity, TaskTrace
from .spatial import KHopBoundError, SpatialMemory, Triplet
from .temporal import TemporalMemory

logger = logging.getLogger(__name__)

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

    def dispatch_update(self, event: UpdateEvent) -> Dict[str, Optional[str]]:
        """Apply an event to every module at its update frequency; returns a
        per-branch error map (None = ok). Branch failures never block
        siblings."""
        branches = self._branches(event)
        results = fan_out([fn for _, fn in branches], self.parallel)
        errors: Dict[str, Optional[str]] = {}
        for (name, _), result in zip(branches, results):
            errors[name] = None
            if isinstance(result, Exception):
                logger.warning("update branch %s failed: %s", name, result)
                errors[name] = str(result)
        return errors

    def _branches(self, event: UpdateEvent) -> List[Tuple[str, Callable[[], None]]]:
        branches: List[Tuple[str, Callable[[], None]]] = []
        if event.level == "action":
            if self.spatial_enabled and event.triplets:
                branches.append(
                    ("spatial", lambda: self.spatial.buffer_triplets(event.triplets))
                )
            if event.record is not None:
                branches.append(("temporal", lambda: self.temporal.append(event.record)))
                if self.longterm_enabled:
                    branches.append(
                        (
                            "semantic",
                            lambda: self.lifelong.record_action_experience(event.record),
                        )
                    )
        else:
            if self.longterm_enabled:

                def consolidate() -> None:
                    entities = self.lifelong.extract_task_entities(event.trace, event.result)
                    self.lifelong.consolidate(entities)

                branches.append(("longterm", consolidate))
        return branches

    # -- retrieval fan-out -----------------------------------------------------

    def gather_context(self, query: str) -> MemoryContext:
        start = time.perf_counter()
        sections: Dict[str, Callable[[], object]] = {
            "spatial": (lambda: self.spatial.query(query))
            if self.spatial_enabled
            else (lambda: ()),
            "temporal": self.temporal.render,
            "episodic": (lambda: self.lifelong.retrieve(query, "episodic", RETRIEVAL_K))
            if self.longterm_enabled
            else (lambda: []),
            "semantic": (lambda: self.lifelong.retrieve(query, "semantic", RETRIEVAL_K))
            if self.longterm_enabled
            else (lambda: []),
        }
        empty = {"spatial": (), "temporal": "", "episodic": [], "semantic": []}
        results = fan_out(
            [self._padded(name, fn) for name, fn in sections.items()], self.parallel
        )
        context: Dict[str, object] = {}
        for name, result in zip(sections, results):
            if isinstance(result, KHopBoundError):
                raise result  # a broken invariant, not a degraded section
            if isinstance(result, Exception):
                logger.warning("retrieval branch %s failed: %s", name, result)
                result = empty[name]
            context[name] = result
        self.gather_latencies.append(time.perf_counter() - start)
        return MemoryContext(**context)

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

"""Fan-out coordination of the four memory modules.

The orchestrator is the single writer: action-level events go to spatial,
temporal, and the semantic action buffer; task-level events trigger
long-term extraction and consolidation. Updates and retrievals run
concurrently across modules (each module serializes internally), so the
final state is independent of branch scheduling.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .core import StepRecord, TaskResult, canonical_json
from .lifelong import LifelongMemory, MemoryEntity, TaskTrace
from .spatial import KHopBoundError, SpatialMemory, Triplet
from .temporal import TemporalMemory

logger = logging.getLogger(__name__)


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
    assembly_latency: float = 0.0

    def render(self) -> str:
        spatial = "\n".join(f"{t.subject} {t.relation} {t.object}" for t in self.spatial)
        sections = [
            "[spatial]\n" + spatial,
            "[temporal]\n" + self.temporal,
            "[episodic]\n" + "\n".join(e.text for e, _ in self.episodic),
            "[semantic]\n" + "\n".join(e.text for e, _ in self.semantic),
        ]
        return "\n\n".join(sections)


class MemoryOrchestrator:
    def __init__(
        self,
        spatial: Optional[SpatialMemory] = None,
        temporal: Optional[TemporalMemory] = None,
        lifelong: Optional[LifelongMemory] = None,
        parallel: bool = True,
        spatial_enabled: bool = True,
        longterm_enabled: bool = True,
        retrieval_k: int = 5,
        delay_hooks: Optional[Dict[str, float]] = None,
    ):
        self.spatial = spatial if spatial is not None else SpatialMemory()
        self.temporal = temporal if temporal is not None else TemporalMemory()
        self.lifelong = lifelong if lifelong is not None else LifelongMemory()
        self.parallel = parallel
        self.spatial_enabled = spatial_enabled
        self.longterm_enabled = longterm_enabled
        self.retrieval_k = retrieval_k
        # Test/bench hook: per-section artificial delay in seconds.
        self.delay_hooks = delay_hooks or {}
        self.gather_latencies: List[float] = []
        self.dispatch_latencies: List[float] = []

    # -- update fan-out -----------------------------------------------------

    def dispatch_update(self, event: UpdateEvent) -> Dict[str, Optional[str]]:
        """Apply an event to every module at its update frequency; returns a
        per-branch error map (None = ok). Branch failures never block
        siblings."""
        start = time.perf_counter()
        branches = self._branches(event)
        errors: Dict[str, Optional[str]] = {}

        def run(name: str, fn: Callable[[], None]) -> Tuple[str, Optional[str]]:
            delay = self.delay_hooks.get(name, 0.0)
            if delay:
                time.sleep(delay)
            try:
                fn()
                return name, None
            except Exception as exc:
                logger.warning("update branch %s failed: %s", name, exc)
                return name, str(exc)

        if self.parallel and len(branches) > 1:
            with ThreadPoolExecutor(max_workers=len(branches)) as pool:
                futures = [pool.submit(run, name, fn) for name, fn in branches]
                for future in futures:
                    name, error = future.result()
                    errors[name] = error
        else:
            for name, fn in branches:
                name, error = run(name, fn)
                errors[name] = error
        self.dispatch_latencies.append(time.perf_counter() - start)
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

    def gather_context(self, query: str, k_hops: Optional[int] = None) -> MemoryContext:
        start = time.perf_counter()

        def timed(name: str, fn: Callable[[], object]) -> Callable[[], object]:
            def wrapped() -> object:
                delay = self.delay_hooks.get(name, 0.0)
                if delay:
                    time.sleep(delay)
                try:
                    return fn()
                except KHopBoundError:
                    raise  # a broken invariant, not a degraded section
                except Exception as exc:
                    logger.warning("retrieval branch %s failed: %s", name, exc)
                    return None

            return wrapped

        sections: List[Tuple[str, Callable[[], object]]] = [
            (
                "spatial",
                timed(
                    "spatial",
                    (lambda: self.spatial.query(query, k_hops))
                    if self.spatial_enabled
                    else (lambda: ()),
                ),
            ),
            ("temporal", timed("temporal", self.temporal.render)),
            (
                "episodic",
                timed(
                    "episodic",
                    (lambda: self.lifelong.retrieve(query, "episodic", self.retrieval_k))
                    if self.longterm_enabled
                    else (lambda: []),
                ),
            ),
            (
                "semantic",
                timed(
                    "semantic",
                    (lambda: self.lifelong.retrieve(query, "semantic", self.retrieval_k))
                    if self.longterm_enabled
                    else (lambda: []),
                ),
            ),
        ]

        if self.parallel:
            with ThreadPoolExecutor(max_workers=len(sections)) as pool:
                results = list(pool.map(lambda pair: pair[1](), sections))
        else:
            results = [fn() for _, fn in sections]

        latency = time.perf_counter() - start
        self.gather_latencies.append(latency)
        return MemoryContext(
            spatial=results[0] if results[0] is not None else (),
            temporal=results[1] if results[1] is not None else "",
            episodic=results[2] if results[2] is not None else [],
            semantic=results[3] if results[3] is not None else [],
            assembly_latency=latency,
        )

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

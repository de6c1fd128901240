"""Evaluation harness: suite execution, success metrics, the two-pass
continual protocol, ablations, and retrieval latency benchmarks.

Reports are rendered as canonical JSON so that identical inputs produce
byte-identical output. Timing numbers are written to a separate sidecar
file for the same reason.
"""

from __future__ import annotations

import logging
import os
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .core import TaskResult, Termination, canonical_json, to_doc
from .envsim import Environment, TaskSpec, builtin_suite_path, load_suite
from .gateway import GatewayConfig, ReasonerGateway
from .lifelong import LifelongMemory, TaskTrace
from .orchestrator import MemoryOrchestrator
from .planner import EpisodeResult, run_episode
from .spatial import SpatialMemory
from .temporal import TemporalMemory

logger = logging.getLogger(__name__)

DEFAULT_PASSES = 2
REPORT_SCHEMA_VERSION = 3


def compute_metrics(results: Sequence[TaskResult]) -> Dict[str, float]:
    """Suite-level success rate and goal-condition completion rate."""
    if not results:
        raise ValueError("cannot compute metrics over zero tasks")
    sr = sum(r.success for r in results) / len(results)
    gc = sum(r.scn / r.gcn for r in results) / len(results)
    return {"sr": sr, "gc": gc}


@dataclass
class AgentSystem:
    """One fully wired agent: gateway, the three memory modules, and the
    orchestrator that fans work out to them."""

    gateway: ReasonerGateway
    orchestrator: MemoryOrchestrator

    @classmethod
    def build(
        cls,
        backend: str = "oracle",
        config_path: Optional[str] = None,
        parallel: bool = True,
        disable: Sequence[str] = (),
    ) -> "AgentSystem":
        if config_path:
            config = GatewayConfig.from_file(config_path)
        else:
            config = GatewayConfig(backend=backend)
        gateway = ReasonerGateway.from_config(config)
        orchestrator = MemoryOrchestrator(
            spatial=SpatialMemory(gateway=gateway),
            temporal=TemporalMemory(gateway=gateway),
            lifelong=LifelongMemory(gateway=gateway),
            # Memory branches only overlap while they wait on the backend;
            # on a compute-bound one (the oracle) they hold the GIL, and
            # per-call threads would add start-up time and scheduling noise.
            parallel=parallel and gateway.latency_bound,
            spatial_enabled="spatial" not in disable,
            longterm_enabled="longterm" not in disable,
        )
        return cls(gateway=gateway, orchestrator=orchestrator)


def _world_seed(suite_seed: int, task: TaskSpec) -> int:
    # Stable per (suite seed, task): both passes of the continual protocol
    # replay the identical world, including the failure-injection stream.
    return suite_seed * 10_000 + task.initial_seed


def run_pass(
    tasks: Sequence[TaskSpec],
    system: AgentSystem,
    suite_seed: int,
    profile: str = "realworld",
    failure_p: Optional[float] = None,
    critic_enabled: bool = True,
    trajectory_log: Optional[object] = None,
) -> List[EpisodeResult]:
    episodes = []
    for task in tasks:
        env = Environment(profile=profile, failure_p=failure_p)
        try:
            episode = run_episode(
                task,
                env,
                system.gateway,
                system.orchestrator,
                critic_enabled=critic_enabled,
                world_seed=_world_seed(suite_seed, task),
            )
        except Exception as exc:
            # A crashed episode counts as a failed task; the run continues.
            logger.error("episode %s crashed: %s", task.id, exc, exc_info=exc)
            episode = EpisodeResult(
                result=TaskResult(
                    task_id=task.id,
                    scn=0,
                    gcn=task.gcn,
                    steps_used=0,
                    terminated_by=Termination.CRASHED,
                ),
                trajectory=[],
                trace=TaskTrace(task_id=task.id, instruction=task.instruction),
            )
        episodes.append(episode)
        if trajectory_log is not None:
            for entry in episode.trajectory:
                trajectory_log.write(canonical_json(dict(entry, task_id=task.id)) + "\n")
    return episodes


def run_suite(
    suite_path: Optional[str] = None,
    backend: str = "oracle",
    config_path: Optional[str] = None,
    seed: int = 0,
    passes: int = DEFAULT_PASSES,
    wipe_between_passes: bool = False,
    disable: Sequence[str] = (),
    failure_p: Optional[float] = None,
    parallel: bool = True,
    trajectory_log: Optional[object] = None,
    snapshot_dir: Optional[str] = None,
) -> dict:
    """Run the suite ``passes`` times over one persistent agent and report
    per-pass metrics. Long-term memory carries across passes unless
    ``wipe_between_passes`` is set; per-task working memory always resets."""
    if passes < 1:
        raise ValueError(f"passes must be at least 1, got {passes}")
    path = suite_path or builtin_suite_path()
    profile, tasks = load_suite(path)
    system = AgentSystem.build(
        backend=backend, config_path=config_path, parallel=parallel, disable=disable
    )
    critic_enabled = "critic" not in disable

    pass_docs = []
    all_latencies: List[float] = []
    for pass_index in range(passes):
        if wipe_between_passes and pass_index > 0:
            system.orchestrator.lifelong.wipe()
        episodes = run_pass(
            tasks,
            system,
            suite_seed=seed,
            profile=profile,
            failure_p=failure_p,
            critic_enabled=critic_enabled,
            trajectory_log=trajectory_log,
        )
        results = [e.result for e in episodes]
        pass_docs.append(
            {
                "pass": pass_index + 1,
                "metrics": compute_metrics(results),
                "tasks": to_doc(results),
            }
        )
        all_latencies.extend(system.orchestrator.gather_latencies)
        system.orchestrator.gather_latencies.clear()
        if snapshot_dir:
            os.makedirs(snapshot_dir, exist_ok=True)
            snap_path = os.path.join(snapshot_dir, f"memory_pass{pass_index + 1}.json")
            with open(snap_path, "w", encoding="utf-8") as handle:
                handle.write(system.orchestrator.snapshot() + "\n")

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "suite": os.path.basename(path),
        "profile": profile,
        # The backend that ran: a config file's backend overrides ``backend``.
        "backend": system.gateway.backend.name,
        "seed": seed,
        "passes": pass_docs,
        "wipe_between_passes": wipe_between_passes,
        "disabled": sorted(disable),
    }
    if passes >= 2:
        report["sr_delta"] = pass_docs[-1]["metrics"]["sr"] - pass_docs[0]["metrics"]["sr"]
    latency_stats = _latency_stats(all_latencies)
    return {"report": report, "latency": latency_stats}


def _latency_stats(samples: List[float]) -> dict:
    if not samples:
        return {"count": 0}
    return {
        "count": len(samples),
        "mean_s": statistics.mean(samples),
        "max_s": max(samples),
    }


def run_ablation(
    suite_path: Optional[str] = None,
    backend: str = "oracle",
    config_path: Optional[str] = None,
    seed: int = 0,
    passes: int = DEFAULT_PASSES,
    failure_p: Optional[float] = None,
) -> dict:
    """Re-run the suite with one capability removed at a time. A ``passes``
    below 1 is refused by the first ``run_suite``, before any episode."""
    out = {}
    for variant in ("full", "critic", "spatial", "longterm"):
        disable = () if variant == "full" else (variant,)
        outcome = run_suite(
            suite_path=suite_path,
            backend=backend,
            config_path=config_path,
            seed=seed,
            passes=passes,
            disable=disable,
            failure_p=failure_p,
        )
        sr = statistics.mean(p["metrics"]["sr"] for p in outcome["report"]["passes"])
        gc = statistics.mean(p["metrics"]["gc"] for p in outcome["report"]["passes"])
        out[variant] = {"sr": sr, "gc": gc, "passes": outcome["report"]["passes"]}
    return out


def bench_retrieval(section_delay_s: float = 0.1, rounds: int = 3) -> dict:
    """Compare the retrieval latency of a planning step (``gather_context``
    then ``recall``) with each round's two sections running in parallel
    versus serially, every section padded to a fixed duration."""
    if section_delay_s < 0:
        raise ValueError(f"section delay must be at least 0, got {section_delay_s}")
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    hooks = {name: section_delay_s for name in ("spatial", "temporal", "episodic", "semantic")}
    timings = {}
    for mode, parallel in (("parallel", True), ("sequential", False)):
        orchestrator = MemoryOrchestrator(parallel=parallel, delay_hooks=hooks)
        samples = []
        for _ in range(rounds):
            start = time.perf_counter()
            orchestrator.gather_context(["cup"])
            orchestrator.recall("where is the cup", scope="t1")
            samples.append(time.perf_counter() - start)
        timings[mode] = {"mean_s": statistics.mean(samples), "min_s": min(samples)}
    timings["speedup"] = timings["sequential"]["mean_s"] / timings["parallel"]["mean_s"]
    return timings


def render_table(report: dict) -> str:
    """Plain-text summary of a suite report, one row per pass."""
    lines = [
        f"suite: {report['suite']}  profile: {report['profile']}  "
        f"backend: {report['backend']}  seed: {report['seed']}",
        f"{'pass':>4}  {'sr':>6}  {'gc':>6}  {'tasks':>5}",
    ]
    for pass_doc in report["passes"]:
        metrics = pass_doc["metrics"]
        lines.append(
            f"{pass_doc['pass']:>4}  {metrics['sr']:>6.3f}  {metrics['gc']:>6.3f}  "
            f"{len(pass_doc['tasks']):>5}"
        )
    if "sr_delta" in report:
        lines.append(f"pass-to-pass sr delta: {report['sr_delta']:+.3f}")
    return "\n".join(lines)


def write_report(outcome: dict, out_path: str) -> None:
    """Write the deterministic report plus a timing sidecar next to it."""
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(outcome["report"]) + "\n")
    with open(out_path + ".latency.json", "w", encoding="utf-8") as handle:
        handle.write(canonical_json(outcome["latency"]) + "\n")

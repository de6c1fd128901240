"""Lifelong embodied-agent memory system.

Four memory stores (spatial graph, short-term temporal buffer, episodic and
semantic long-term memory) updated and queried in parallel, a planner-critic
control loop, a deterministic household simulator, and an evaluation harness.
"""

from .core import (
    ActionCommand,
    InvariantError,
    Observation,
    Outcome,
    StepRecord,
    TaskResult,
    Termination,
    Verb,
    canonical_json,
)
from .envsim import Environment, TaskSpec, builtin_suite_path, load_suite
from .gateway import (
    GatewayConfig,
    OracleBackend,
    ReasonerGateway,
    ReasonerRole,
    RemoteBackend,
)
from .harness import AgentSystem, compute_metrics, run_ablation, run_suite
from .lifelong import LifelongMemory, MemoryEntity, TaskTrace
from .orchestrator import MemoryContext, MemoryOrchestrator, UpdateEvent
from .planner import Plan, CriticVerdict, PlannerCritic, run_episode
from .preprocessor import Preprocessor
from .spatial import KHopBoundError, SpatialMemory, Triplet, khop_bound
from .temporal import TemporalMemory
from .vector_index import HashingEmbedder, VectorIndex

__version__ = "0.1.0"

__all__ = [
    "ActionCommand",
    "AgentSystem",
    "CriticVerdict",
    "Environment",
    "GatewayConfig",
    "HashingEmbedder",
    "InvariantError",
    "KHopBoundError",
    "LifelongMemory",
    "MemoryContext",
    "MemoryEntity",
    "MemoryOrchestrator",
    "Observation",
    "OracleBackend",
    "Outcome",
    "Plan",
    "PlannerCritic",
    "Preprocessor",
    "ReasonerGateway",
    "ReasonerRole",
    "RemoteBackend",
    "SpatialMemory",
    "StepRecord",
    "TaskResult",
    "TaskSpec",
    "TaskTrace",
    "TemporalMemory",
    "Termination",
    "Triplet",
    "UpdateEvent",
    "Verb",
    "VectorIndex",
    "builtin_suite_path",
    "canonical_json",
    "compute_metrics",
    "khop_bound",
    "load_suite",
    "run_ablation",
    "run_episode",
    "run_suite",
]

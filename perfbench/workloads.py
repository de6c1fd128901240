"""The benchmark's workloads: inputs made from the seed, one two-pass suite
run through the package's public API, the warm-history generator, the
loopback stub process, and the report checks."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass
from typing import Dict, List, Optional

from memagent import harness
from memagent.core import (
    ActionCommand,
    Outcome,
    StepRecord,
    TaskResult,
    Termination,
    Verb,
    canonical_json,
)
from memagent.envsim import Environment, builtin_suite_path, load_suite
from memagent.lifelong import TaskTrace

import clock
from spans import Patches, StepClock

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")

PASSES = 2
#: Executor failure rate of the simulator (the realworld profile default).
FAILURE_P = 0.1
#: Synthetic finished tasks replayed into long-term memory for warm-lifelong.
HISTORY_TASKS = 300


@dataclass(frozen=True)
class Workload:
    name: str
    parallel: bool
    remote: bool = False
    warm: bool = False
    #: Workload whose report this one must equal (apart from ``backend``).
    reference: Optional[str] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("suite-seq", parallel=False),
        Workload("suite-par", parallel=True, reference="suite-seq"),
        Workload("warm-lifelong", parallel=False, warm=True),
        Workload("remote-http", parallel=True, remote=True, reference="suite-par"),
    )
}


#: Suite seed every benchmark run includes; success rates are read from it,
#: so they measure the program rather than how hard a seed's worlds are.
#: It is the seed of the ROADMAP's measured baseline.
EVAL_SEED = 3


def suite_seeds(seed: int) -> List[int]:
    """The suite seeds one benchmark run covers: the evaluation seed and one
    drawn from the benchmark seed."""
    return [EVAL_SEED, random.Random(f"perfbench-{seed}").randrange(10, 1_000_000)]


# ---------------------------------------------------------------------------
# Loopback stub
# ---------------------------------------------------------------------------


class Stub:
    """The chat-completions stub in its own process, plus a gateway config
    file pointing a ``RemoteBackend`` at it. Use as a context manager."""

    def __init__(self):
        self.config_path = ""
        self._proc: Optional[subprocess.Popen] = None
        self._tmp = ""

    def __enter__(self) -> "Stub":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub.py")],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = self._proc.stdout.readline().split()
            if len(line) != 2 or line[0] != "port":
                raise RuntimeError(f"stub failed to start: {line!r}")
            self.url = f"http://127.0.0.1:{line[1]}"
            self._tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=CHECKOUT)
            self.config_path = os.path.join(self._tmp, "gateway.json")
            with open(self.config_path, "w", encoding="utf-8") as handle:
                json.dump({"backend": "remote",
                           "remote": {"base_url": self.url, "model": "oracle-stub"}}, handle)
        except BaseException:
            self.__exit__()
            raise
        return self

    def requests(self) -> int:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as response:
            return json.load(response)["requests"]

    def __exit__(self, *exc) -> None:
        if self._proc is not None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()
            self._proc = None
        if self._tmp:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = ""


# ---------------------------------------------------------------------------
# Warm history
# ---------------------------------------------------------------------------

_OBJECTS = ("banana", "apple", "gum box", "cup")
_STEP_VERBS = (Verb.NAVIGATE_TO, Verb.PICK_UP, Verb.PUT_DOWN_TO, Verb.OPEN, Verb.TURN_ON)
_FAILURE_REASONS = (
    "executor_failure", "target not here", "hands full", "nothing is held", "target not found",
)


def fill_history(system: harness.AgentSystem, seed: int) -> None:
    """Replay ``HISTORY_TASKS`` synthetic finished tasks into long-term
    memory through the public extract / consolidate path."""
    rng = random.Random(seed)
    lifelong = system.orchestrator.lifelong
    points = Environment(profile="realworld").nav_points
    for i in range(HISTORY_TASKS):
        obj = rng.choice(_OBJECTS)
        instruction = f"put {obj} on {rng.choice(points)}"
        trace = TaskTrace(task_id=f"hist-{i:04d}", instruction=instruction, goal_objects=[obj])
        visited = rng.sample(points, rng.randint(1, len(points)))
        for point in visited:
            trace.note_visit(point)
        for other in rng.sample(_OBJECTS, 2):
            trace.note_seen(other, "on", rng.choice(visited))
        # A fresh per-episode call budget, as run_episode grants each task.
        system.gateway.reset_budget()
        steps = rng.randint(3, 14)
        for step in range(1, steps + 1):
            verb = rng.choice(_STEP_VERBS)
            target = rng.choice(points if verb is Verb.NAVIGATE_TO else _OBJECTS)
            reason = rng.choice(_FAILURE_REASONS) if rng.random() < 0.15 else None
            trace.verbs.append(verb.value)
            if reason:
                trace.failure_reasons.append(reason)
            lifelong.record_action_experience(StepRecord(
                step_index=step,
                action=ActionCommand(verb=verb, target=target),
                summary=f"{verb.value} {target}",
                outcome=Outcome.FAILURE if reason else Outcome.SUCCESS,
                failure_reason=reason,
            ))
        trace.verbs.append(Verb.TASK_COMPLETE.value)
        success = obj in trace.first_seen and rng.random() < 0.8
        result = TaskResult(
            task_id=trace.task_id,
            scn=int(success),
            gcn=1,
            steps_used=steps + 1,
            terminated_by=Termination.SELF_TERMINATED,
        )
        lifelong.consolidate(lifelong.extract_task_entities(trace, result))


# ---------------------------------------------------------------------------
# One suite run
# ---------------------------------------------------------------------------


@dataclass
class Timed:
    """Seconds of one piece of a suite run, with the host-speed probe
    (``clock.probe``) taken as the mean of one before and one after it."""

    seconds: float
    probe_s: float


@dataclass
class Episode:
    slot: Timed  # from the end of the episode before (or the pass start) to its own end
    latencies: List[float]  # decision latencies of its actions, in seconds


@dataclass
class SuiteRun:
    seed: int
    report: str  # canonical JSON, comparable byte for byte
    setup: Timed  # suite load, AgentSystem.build and the warm history
    run_s: float  # the passes, probes included
    episodes: List[Episode]  # in order, over both passes
    sr: List[float]  # per pass
    errors: int = 0  # crashed or aborted episodes

    @property
    def latencies(self) -> List[float]:
        return [s for e in self.episodes for s in e.latencies]


def import_seconds(workload: Workload) -> float:
    """Seconds a fresh interpreter takes to import the package, and for the
    remote workload the HTTP client that ``RemoteBackend`` imports lazily."""
    modules = "memagent, requests" if workload.remote else "memagent"
    code = (f"import sys, time; sys.path.insert(0, {SRC!r}); start = time.perf_counter(); "
            f"import {modules}; print(time.perf_counter() - start)")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, timeout=60)
    return float(out.stdout)


def _build_options(workload: Workload, stub: Optional[Stub]) -> dict:
    options = {"parallel": workload.parallel}
    if workload.remote:
        options.update(backend="remote", config_path=stub.config_path)
    return options


def run_suite(workload: Workload, suite_seed: int, stub: Optional[Stub] = None) -> SuiteRun:
    """``harness.run_suite`` for two passes over a fresh agent of ``workload``.

    ``AgentSystem.build`` is wrapped to fill the warm history, ``run_pass``
    to time the passes, ``run_episode`` to time each episode's slot in its
    pass and ``Environment.step`` for the decision latency. Set-up is
    everything before the first pass. The host-speed probes around set-up
    and around each episode lie outside the times they calibrate."""
    build = harness.AgentSystem.build
    run_pass, run_episode = harness.run_pass, harness.run_episode
    step_clock = StepClock()
    episodes: List[Episode] = []
    passes: List[float] = []
    setup: List[Timed] = []
    last_end = 0.0

    def warm_build(cls, *args, **kwargs):
        system = build(*args, **kwargs)
        fill_history(system, seed=suite_seed)
        return system

    def timed_pass(*args, **kwargs):
        nonlocal last_end
        if not setup:
            setup.append(Timed(time.perf_counter() - start, (before + clock.probe()) / 2))
        begin = last_end = time.perf_counter()
        try:
            return run_pass(*args, **kwargs)
        finally:
            passes.append(time.perf_counter() - begin)

    def timed_episode(*args, **kwargs):
        nonlocal last_end
        gap = time.perf_counter() - last_end
        probe_before = clock.probe()
        first_sample = len(step_clock.samples)
        begin = time.perf_counter()
        try:
            return run_episode(*args, **kwargs)
        finally:
            seconds = gap + time.perf_counter() - begin
            slot = Timed(seconds, (probe_before + clock.probe()) / 2)
            episodes.append(Episode(slot, step_clock.samples[first_sample:]))
            last_end = time.perf_counter()

    patches = Patches()
    step_clock.install(patches)
    patches.set(harness, "run_pass", timed_pass)
    patches.set(harness, "run_episode", timed_episode)
    if workload.warm:
        patches.set(harness.AgentSystem, "build", classmethod(warm_build))
    before = clock.probe()
    start = time.perf_counter()
    try:
        report = harness.run_suite(seed=suite_seed, passes=PASSES, failure_p=FAILURE_P,
                                   **_build_options(workload, stub))["report"]
    finally:
        patches.restore()
    return SuiteRun(
        seed=suite_seed,
        report=canonical_json(report),
        setup=setup[0],
        run_s=sum(passes),
        episodes=episodes,
        sr=[p["metrics"]["sr"] for p in report["passes"]],
    )


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def report_problems(report: str, suite_seed: int) -> List[str]:
    """Structural checks on one report: every task of the suite in every
    pass, results within their bounds, metrics that match the tasks."""
    doc = json.loads(report)
    _, tasks = load_suite(builtin_suite_path())
    expected_ids = [t.id for t in tasks]
    max_steps = Environment(profile=doc["profile"]).max_steps
    problems = []
    if doc["seed"] != suite_seed or len(doc["passes"]) != PASSES:
        problems.append("wrong seed or pass count")
    for pass_doc in doc["passes"]:
        rows = pass_doc["tasks"]
        if [r["task_id"] for r in rows] != expected_ids:
            problems.append(f"pass {pass_doc['pass']}: task list differs from the suite")
            continue
        for r in rows:
            if not (0 <= r["scn"] <= r["gcn"]) or not (0 <= r["steps_used"] <= max_steps):
                problems.append(f"pass {pass_doc['pass']}: {r['task_id']} out of bounds")
        sr = sum(r["scn"] == r["gcn"] for r in rows) / len(rows)
        if pass_doc["metrics"]["sr"] != sr:
            problems.append(f"pass {pass_doc['pass']}: sr does not match its tasks")
    return problems


def same_apart_from_backend(a: str, b: str) -> bool:
    doc_a, doc_b = json.loads(a), json.loads(b)
    doc_a.pop("backend")
    doc_b.pop("backend")
    return canonical_json(doc_a) == canonical_json(doc_b)

"""End-to-end acceptance suite.

Ten criteria covering: bounded subgraph retrieval, update locality, FIFO
buffer semantics, planner-critic termination, metric formulas, parallel
fan-out, two-pass lifelong improvement, ablation ordering, scenario
regressions, and byte-level reproducibility. Each test prints a one-line
verdict with its measured numbers.
"""

import json
import random
import statistics
import time

import pytest
from click.testing import CliRunner

from memagent.cli import main as cli_main
from memagent.core import (
    ActionCommand,
    Outcome,
    StepRecord,
    TaskResult,
    Termination,
    Verb,
    to_doc,
)
from memagent.envsim import Environment, TaskSpec
from memagent.gateway import ReasonerGateway, ReasonerRole
from memagent.harness import (
    AgentSystem,
    bench_retrieval,
    compute_metrics,
    run_suite,
)
from memagent.lifelong import TaskTrace
from memagent.orchestrator import MemoryOrchestrator, UpdateEvent
from memagent.planner import run_episode
from memagent.spatial import SpatialMemory, Triplet, khop_bound
from memagent.temporal import CompactedSummary, TemporalMemory


# --- shared helpers ---------------------------------------------------------


def bfs_oracle(edge_keys, seeds, k):
    adjacency = {}
    nodes = set()
    for s, _, o in edge_keys:
        adjacency.setdefault(s, set()).add(o)
        nodes.update((s, o))
    reached = {s for s in seeds if s in nodes}
    frontier = set(reached)
    for _ in range(k):
        nxt = set()
        for node in frontier:
            nxt |= adjacency.get(node, set()) - reached
        if not nxt:
            break
        reached |= nxt
        frontier = nxt
    edges = {key for key in edge_keys if key[0] in reached and key[2] in reached}
    return reached, edges


def step_record(i, verb=Verb.NAVIGATE_TO, target="sink", outcome=Outcome.SUCCESS, reason=None):
    return StepRecord(
        step_index=i,
        action=ActionCommand(verb=verb, target=target),
        summary=f"step {i}",
        outcome=outcome,
        failure_reason=reason,
    )


class AlwaysRejectGateway(ReasonerGateway):
    def invoke(self, role, payload):
        if role is ReasonerRole.CRITIC:
            return {"decision": "reject", "reason": "adversarial"}
        return super().invoke(role, payload)


def impossible_task(seed):
    return TaskSpec(
        id=f"imp-{seed}",
        instruction="put unicorn on kitchen counter",
        category="pick_place",
        goal_conditions=({"kind": "at", "obj": "unicorn", "place": "kitchen counter"},),
        initial_seed=seed,
    )


LIFELONG_SEEDS = list(range(10))


@pytest.fixture(scope="module")
def lifelong_runs():
    """Two-pass runs of the built-in 15-task suite at failure rate 0.1 for
    10 seeds, once with long-term memory persisting and once wiped."""
    persist, wiped = [], []
    for seed in LIFELONG_SEEDS:
        persist.append(
            run_suite(seed=seed, passes=2, failure_p=0.1)["report"]["passes"]
        )
        wiped.append(
            run_suite(seed=seed, passes=2, failure_p=0.1, wipe_between_passes=True)[
                "report"
            ]["passes"]
        )
    return {"persist": persist, "wiped": wiped}


@pytest.fixture(scope="module")
def ablation_runs():
    """Mean SR over both passes per seed with one capability removed."""
    out = {}
    for variant in ("critic", "spatial", "longterm"):
        srs = []
        for seed in LIFELONG_SEEDS:
            passes = run_suite(seed=seed, passes=2, failure_p=0.1, disable=(variant,))[
                "report"
            ]["passes"]
            srs.append(statistics.mean(p["metrics"]["sr"] for p in passes))
        out[variant] = srs
    return out


# --- criterion 1: bounded k-hop retrieval ------------------------------------


def test_criterion_1_khop_bound_suite():
    rng = random.Random(1)
    start = time.perf_counter()
    for trial in range(500):
        n = rng.randint(2, 50)
        d = rng.randint(1, 4)
        k = rng.randint(0, 3)
        m = rng.randint(1, min(3, n))
        names = [f"node {i:02d}" for i in range(n)]
        mem = SpatialMemory(max_out_degree=10**6, max_in_degree=10**6)
        with mem._lock:
            for s in names:
                for o in rng.sample(names, rng.randint(0, min(d, n - 1))):
                    if o != s:
                        mem._add_edge(Triplet(s, "near", o, step_index=0))
        seeds = rng.sample(names, m)
        nodes, edges = mem.retrieve_subgraph(seeds, k)
        oracle_nodes, oracle_edges = bfs_oracle(
            [t.key for t in mem.edges()], set(seeds), k
        )
        assert nodes == oracle_nodes, f"trial {trial}: node mismatch"
        assert {e.key for e in edges} == oracle_edges, f"trial {trial}: edge mismatch"
        if d == 1:
            bound = m * (k + 1)
        else:
            bound = m * (d ** (k + 1) - 1) / (d - 1)
        assert len(nodes) <= min(n, bound), f"trial {trial}: bound exceeded"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    print(f"criterion 1 PASS: 500 graphs, 0 violations, {elapsed:.2f}s")


# --- criterion 2: update locality --------------------------------------------


EXCLUSIVE = [frozenset(("near", "holds")), frozenset(("on", "in"))]


def assert_exclusivity(edges):
    by_pair = {}
    for key in edges:
        by_pair.setdefault((key[0], key[2]), []).append(key[1])
    for (s, o), relations in by_pair.items():
        for i in range(len(relations)):
            for j in range(i + 1, len(relations)):
                assert (
                    frozenset((relations[i], relations[j])) not in EXCLUSIVE
                ), f"exclusive relations {relations} both present on ({s}, {o})"


def test_criterion_2_integration_locality():
    rng = random.Random(2)
    relations = ["near", "holds", "on", "in", "at"]
    start = time.perf_counter()
    integrations = 0
    while integrations < 200:
        names = [f"spot {i:02d}" for i in range(rng.randint(8, 24))]
        mem = SpatialMemory(max_out_degree=10**6, max_in_degree=10**6)
        for _ in range(rng.randint(2, 6)):
            batch = [
                Triplet(
                    rng.choice(names),
                    rng.choice(relations),
                    rng.choice(names),
                    step_index=rng.randint(0, 30),
                )
                for _ in range(rng.randint(1, 6))
                if True
            ]
            batch = [t for t in batch if t.subject != t.object]
            if not batch:
                continue
            before = {key: to_doc(edge) for key, edge in mem._edges.items()}
            union_keys = set(before) | {t.key for t in batch}
            endpoints = {t.subject for t in batch} | {t.object for t in batch}
            region, _ = bfs_oracle(union_keys, endpoints, mem.k_hops)
            region |= endpoints

            mem.buffer_triplets(batch)
            mem.integrate()
            integrations += 1

            after = {key: to_doc(edge) for key, edge in mem._edges.items()}
            for key, doc in before.items():
                if key[0] in region and key[2] in region:
                    continue  # inside the affected neighborhood; may change
                assert key in after, f"edge {key} outside region was deleted"
                assert after[key] == doc, f"edge {key} outside region changed"
            assert_exclusivity(after)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"criterion 2 PASS: 200 integrations, 0 violations, {elapsed:.2f}s")


# --- criterion 3: FIFO buffer semantics ---------------------------------------


def fifo_replay_oracle(capacity, n):
    entries = []
    for i in range(n):
        if len(entries) >= capacity:
            first = min(lo for lo, _ in entries)
            last = max(hi for _, hi in entries)
            entries = [(first, last)]
        entries.append((i, i))
    return entries


def test_criterion_3_fifo_matches_policy_oracle():
    rng = random.Random(3)
    start = time.perf_counter()
    for capacity in (1, 2, 3, 5):
        for _ in range(250):
            n = rng.randint(0, 30)
            mem = TemporalMemory(capacity=capacity)
            for i in range(n):
                mem.append(step_record(i))
                # Capacity invariant. With capacity 1 the buffer briefly
                # holds [summary, newest] = 2 entries; larger capacities
                # never exceed their limit.
                limit = 2 if capacity == 1 else capacity
                assert len(mem.entries()) <= limit
            got = [
                item.covers_steps
                if isinstance(item, CompactedSummary)
                else (item.step_index, item.step_index)
                for item in mem.entries()
            ]
            assert got == fifo_replay_oracle(capacity, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    print(f"criterion 3 PASS: 1000 sequences over N in (1,2,3,5), {elapsed:.2f}s")


# --- criterion 4: planner-critic termination -----------------------------------


def test_criterion_4_adversarial_critic_terminates():
    start = time.perf_counter()
    gateway = AlwaysRejectGateway()
    for seed in range(100):
        env = Environment(profile="realworld", failure_p=0.0)
        episode = run_episode(
            impossible_task(seed),
            env,
            gateway,
            MemoryOrchestrator(longterm_enabled=False),
            world_seed=seed,
        )
        executed = [t for t in episode.trajectory if t["executed"]]
        assert len(executed) == env.max_steps, f"seed {seed}: {len(executed)} actions"
        assert all(t["plan_step"] == 1 for t in executed)
        assert episode.result.steps_used == env.max_steps
    # With the critic disabled, no verdicts at all are recorded.
    for seed in range(5):
        env = Environment(profile="realworld", failure_p=0.0)
        episode = run_episode(
            impossible_task(seed),
            env,
            gateway,
            MemoryOrchestrator(longterm_enabled=False),
            critic_enabled=False,
            world_seed=seed,
        )
        assert all(t["verdict"] is None for t in episode.trajectory)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"criterion 4 PASS: 100 adversarial episodes, exact budget, {elapsed:.2f}s")


# --- criterion 5: metric formulas ------------------------------------------------


def test_criterion_5_metric_formulas():
    def make(scn, gcn, i=0):
        return TaskResult(
            task_id=f"t{i}",
            scn=scn,
            gcn=gcn,
            steps_used=1,
            terminated_by=Termination.SUCCESS if scn == gcn else Termination.STEP_BUDGET,
        )

    metrics = compute_metrics([make(2, 4, 0), make(3, 3, 1)])
    assert abs(metrics["sr"] - 0.5) <= 1e-12
    assert abs(metrics["gc"] - 0.75) <= 1e-12

    rng = random.Random(5)
    for _ in range(1000):
        results = []
        for i in range(rng.randint(1, 20)):
            gcn = rng.randint(1, 5)
            results.append(make(rng.randint(0, gcn), gcn, i))
        metrics = compute_metrics(results)
        sr = sum(1.0 for r in results if r.scn == r.gcn) / len(results)
        gc = sum(r.scn / r.gcn for r in results) / len(results)
        assert abs(metrics["sr"] - sr) <= 1e-12
        assert abs(metrics["gc"] - gc) <= 1e-12
    print("criterion 5 PASS: hand values and 1000 random inputs match")


# --- criterion 6: parallel fan-out ------------------------------------------------


def test_criterion_6_schedule_independence_and_latency():
    rng = random.Random(6)
    nouns = ["cup", "banana", "plate", "oven", "shelf", "sink", "box", "stove"]
    for trial in range(100):
        events = []
        step = 0
        for _ in range(rng.randint(3, 10)):
            if rng.random() < 0.2:
                trace = TaskTrace(task_id=f"t{trial}", instruction="put cup on shelf")
                trace.verbs = ["pick_up"]
                result = TaskResult(
                    task_id=f"t{trial}",
                    scn=1,
                    gcn=1,
                    steps_used=max(step, 1),
                    terminated_by=Termination.SUCCESS,
                )
                events.append(UpdateEvent(level="task", trace=trace, result=result))
            else:
                triplets = tuple(
                    Triplet(rng.choice(nouns), "on", rng.choice(nouns), step_index=step)
                    for _ in range(rng.randint(0, 3))
                )
                triplets = tuple(t for t in triplets if t.subject != t.object)
                events.append(
                    UpdateEvent(level="action", record=step_record(step), triplets=triplets)
                )
                step += 1
        snapshots = []
        for parallel in (True, False):
            orch = MemoryOrchestrator(parallel=parallel)
            for event in events:
                orch.dispatch_update(event)
            orch.spatial.integrate()
            snapshots.append(orch.snapshot())
        assert snapshots[0] == snapshots[1], f"trial {trial}: schedules diverged"

    timings = bench_retrieval(section_delay_s=0.1, rounds=20)
    parallel_mean = timings["parallel"]["mean_s"]
    sequential_mean = timings["sequential"]["mean_s"]
    assert parallel_mean <= 0.250, f"parallel mean {parallel_mean * 1000:.0f} ms"
    assert sequential_mean >= 0.380, f"sequential mean {sequential_mean * 1000:.0f} ms"
    print(
        "criterion 6 PASS: 100 schedules identical; "
        f"parallel {parallel_mean * 1000:.0f} ms vs sequential {sequential_mean * 1000:.0f} ms"
    )


# --- criterion 7: lifelong improvement --------------------------------------------


def test_criterion_7_two_pass_improvement(lifelong_runs):
    pass1 = statistics.mean(p[0]["metrics"]["sr"] for p in lifelong_runs["persist"])
    pass2 = statistics.mean(p[1]["metrics"]["sr"] for p in lifelong_runs["persist"])
    assert pass2 >= pass1 + 0.10, f"pass1 {pass1:.3f}, pass2 {pass2:.3f}"
    gaps = [
        p[1]["metrics"]["sr"] - p[0]["metrics"]["sr"] for p in lifelong_runs["wiped"]
    ]
    for seed, gap in zip(LIFELONG_SEEDS, gaps):
        assert -0.05 <= gap <= 0.05, f"seed {seed}: wipe-control gap {gap:+.3f}"
    print(
        f"criterion 7 PASS: sr {pass1:.3f} -> {pass2:.3f} "
        f"(delta {pass2 - pass1:+.3f}), wiped gap max {max(abs(g) for g in gaps):.3f}"
    )


# --- criterion 8: ablation ordering -------------------------------------------------


def test_criterion_8_ablation_ordering(lifelong_runs, ablation_runs):
    full = statistics.mean(
        statistics.mean(p["metrics"]["sr"] for p in passes)
        for passes in lifelong_runs["persist"]
    )
    means = {v: statistics.mean(srs) for v, srs in ablation_runs.items()}
    for variant, sr in means.items():
        assert full >= sr, f"full {full:.3f} < {variant}-ablated {sr:.3f}"
    for variant in ("spatial", "longterm"):
        assert full > means[variant], (
            f"full {full:.3f} not strictly above {variant}-ablated {means[variant]:.3f}"
        )
    summary = ", ".join(f"{v} {sr:.3f}" for v, sr in sorted(means.items()))
    print(f"criterion 8 PASS: full {full:.3f} vs {summary}")


# --- criterion 9: scenario regressions ------------------------------------------------


def test_criterion_9a_search_failure_then_informed_retry():
    """Pass 1 runs out of budget before finding the target; the recorded
    search dead-ends steer pass 2 straight to the remaining points."""
    task = TaskSpec(
        id="s-banana",
        instruction="put banana on dining table",
        category="pick_place",
        goal_conditions=(
            {"kind": "at", "obj": "banana", "rel": "on", "place": "dining table"},
        ),
        initial_seed=0,
    )
    system = AgentSystem.build()

    def one_pass():
        env = Environment(profile="realworld", failure_p=0.0, max_steps=4)
        return run_episode(task, env, system.gateway, system.orchestrator, world_seed=9)

    first = one_pass()
    assert not first.result.success
    assert "banana" not in first.trace.first_seen
    lessons = [e.text for e in system.orchestrator.lifelong.entities("semantic")]
    assert any(t.startswith("searching for banana: not found at") for t in lessons)
    second = one_pass()
    assert second.result.success
    assert second.result.steps_used <= 4
    print("criterion 9a PASS: failed search becomes a hint; retry succeeds")


def test_criterion_9b_near_to_holds_transition():
    mem = SpatialMemory()
    mem.buffer_triplets([Triplet("agent", "near", "cup", step_index=1)])
    assert [t.key for t in mem.pending()] == [("agent", "near", "cup")]
    mem.buffer_triplets([Triplet("agent", "holds", "cup", step_index=2)])
    # The exclusive near/holds pair forces integration before the buffer
    # fills; only the newer relation survives.
    assert mem.pending() == []
    keys = {e.key for e in mem.edges()}
    assert ("agent", "holds", "cup") in keys
    assert ("agent", "near", "cup") not in keys
    print("criterion 9b PASS: near->holds conflict integrates immediately")


def test_criterion_9c_redundant_move_rejected():
    """A stale plan tries to move an object that already sits at its
    destination; the critic rejects the pick and a replan finishes the
    actual goal."""

    class StaleFirstPlanGateway(ReasonerGateway):
        def __init__(self):
            super().__init__()
            self.stale_used = False

        def invoke(self, role, payload):
            if role is ReasonerRole.PLANNER and not self.stale_used:
                self.stale_used = True
                return {
                    "steps": [
                        {"verb": "find", "target": "spoon"},
                        {"verb": "pick_up", "target": "spoon"},
                        {"verb": "put_down_to", "target": "plate"},
                    ],
                    "rationale": "stale",
                }
            return super().invoke(role, payload)

    class SpoonInPlateEnvironment(Environment):
        def reset(self, task, seed=None):
            super().reset(task, seed)
            self._objects["spoon"].location = "plate"
            return self._observe()

    task = TaskSpec(
        id="s-spoon",
        instruction="put pan on kitchen table",
        category="pick_place",
        goal_conditions=(
            {"kind": "at", "obj": "pan", "rel": "on", "place": "kitchen table"},
        ),
        initial_seed=2,
    )
    env = SpoonInPlateEnvironment(profile="alfred", failure_p=0.0)
    episode = run_episode(
        task, env, StaleFirstPlanGateway(), MemoryOrchestrator(), world_seed=2
    )
    rejections = [t for t in episode.trajectory if not t["executed"]]
    assert len(rejections) == 1
    assert rejections[0]["action"] == "pick_up(spoon)"
    assert "already at plate" in rejections[0]["verdict_reason"]
    assert episode.result.success
    print("criterion 9c PASS: redundant pick rejected, replan completes the task")


def test_criterion_9d_hands_full_failure_becomes_lesson():
    task = TaskSpec(
        id="s-hands",
        instruction="put cup on kitchen counter",
        category="pick_place",
        goal_conditions=(
            {"kind": "at", "obj": "cup", "rel": "on", "place": "kitchen counter"},
        ),
        initial_seed=3,
    )
    env = Environment(profile="realworld", failure_p=0.0)
    env.reset(task, seed=3)
    orch = MemoryOrchestrator()
    cup_at = env._objects["cup"].location
    banana_at = env._objects["banana"].location
    actions = [
        ActionCommand(verb=Verb.NAVIGATE_TO, target=cup_at),
        ActionCommand(verb=Verb.PICK_UP, target="cup"),
        ActionCommand(verb=Verb.NAVIGATE_TO, target=banana_at),
        ActionCommand(verb=Verb.PICK_UP, target="banana"),
    ]
    failure = None
    for i, action in enumerate(actions, start=1):
        _, outcome, reason = env.step(action)
        failure = reason
        orch.dispatch_update(
            UpdateEvent(
                level="action",
                record=StepRecord(
                    step_index=i,
                    action=action,
                    summary=f"{action}: {outcome.value}",
                    outcome=outcome,
                    failure_reason=reason,
                ),
            )
        )
    assert failure == "hands full"
    trace = TaskTrace(task_id=task.id, instruction=task.instruction)
    trace.verbs = [a.verb.value for a in actions]
    trace.failure_reasons = ["hands full"]
    result = TaskResult(
        task_id=task.id, scn=0, gcn=1, steps_used=4,
        terminated_by=Termination.STEP_BUDGET,
    )
    orch.dispatch_update(UpdateEvent(level="task", trace=trace, result=result))
    lessons = [e for e in orch.lifelong.entities("semantic")]
    assert any(
        e.text.startswith("pick_up banana: fails when hands full") for e in lessons
    )
    print("criterion 9d PASS: hands-full failure stored as a reusable lesson")


# --- criterion 10: reproducibility -----------------------------------------------------


def test_criterion_10_byte_identical_runs(tmp_path):
    runner = CliRunner()

    def invoke(tag):
        out = tmp_path / f"report-{tag}.json"
        snaps = tmp_path / f"snaps-{tag}"
        result = runner.invoke(
            cli_main,
            [
                "run", "--seed", "7", "--backend", "oracle",
                "--out", str(out), "--snapshot-dir", str(snaps),
            ],
        )
        assert result.exit_code == 0, result.output
        return (
            out.read_bytes(),
            (snaps / "memory_pass1.json").read_bytes(),
            (snaps / "memory_pass2.json").read_bytes(),
        )

    first = invoke("a")
    second = invoke("b")
    assert first == second
    print("criterion 10 PASS: reports and snapshots byte-identical across runs")

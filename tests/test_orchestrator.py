"""Tests for the parallel memory update/retrieval coordinator."""

import dataclasses
import json
import logging
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memagent.core import (
    ActionCommand,
    Observation,
    Outcome,
    StepRecord,
    TaskResult,
    Termination,
    Verb,
    canonical_json,
)
from memagent.gateway import OracleBackend, ReasonerGateway, ReasonerRole
from memagent.lifelong import LifelongMemory, TaskTrace
from memagent.orchestrator import MemoryOrchestrator, UpdateEvent
from memagent.preprocessor import Preprocessor
from memagent import spatial
from memagent.spatial import KHopBoundError, SpatialMemory, Triplet
from memagent.temporal import TemporalMemory


def step(i, verb=Verb.NAVIGATE_TO, target="sink", outcome=Outcome.SUCCESS, reason=None):
    return StepRecord(
        step_index=i,
        action=ActionCommand(verb=verb, target=target),
        summary=f"step {i}",
        outcome=outcome,
        failure_reason=reason,
    )


def action_event(i, triplets=()):
    return UpdateEvent(level="action", record=step(i), triplets=tuple(triplets))


def task_event(task_id="t1"):
    trace = TaskTrace(task_id=task_id, instruction="put cup on table")
    result = TaskResult(
        task_id=task_id, scn=1, gcn=1, steps_used=3, terminated_by=Termination.SUCCESS
    )
    return UpdateEvent(level="task", trace=trace, result=result)


class BrokenSpatial(SpatialMemory):
    def buffer_triplets(self, new_triplets):
        raise RuntimeError("spatial exploded")


class BrokenTemporal(TemporalMemory):
    def render(self):
        raise RuntimeError("temporal exploded")


class TestUpdateEvent:
    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            UpdateEvent(level="weird")

    def test_task_level_needs_trace_and_result(self):
        with pytest.raises(ValueError):
            UpdateEvent(level="task")


class TestDispatch:
    def test_action_event_reaches_all_branches(self):
        orch = MemoryOrchestrator()
        assert orch.dispatch_update(action_event(0, [Triplet("cup", "on", "table")])) is None
        assert len(orch.temporal.entries()) == 1
        assert orch.spatial.pending() or orch.spatial.edges()

    def test_task_event_consolidates_longterm(self):
        orch = MemoryOrchestrator()
        assert orch.dispatch_update(task_event()) is None
        assert len(orch.lifelong) >= 1

    def test_branch_failure_is_isolated(self):
        # On either schedule the failure is raised, but only after every
        # sibling has run.
        failing = UpdateEvent(
            level="action",
            record=step(0, verb=Verb.PICK_UP, target="cup", outcome=Outcome.FAILURE,
                        reason="hands full"),
            triplets=(Triplet("cup", "on", "table"),),
        )
        for parallel in (True, False):
            orch = MemoryOrchestrator(spatial=BrokenSpatial(), parallel=parallel)
            with pytest.raises(RuntimeError, match="spatial exploded"):
                orch.dispatch_update(failing)
            assert len(orch.temporal.entries()) == 1
            orch.dispatch_update(task_event())
            lessons = [e.text for e in orch.lifelong.entities("semantic")]
            assert any("fails when hands full" in text for text in lessons)

    def test_failed_branch_leaves_the_same_memory_on_both_schedules(self):
        def run(parallel):
            orch = MemoryOrchestrator(spatial=BrokenSpatial(), parallel=parallel)
            for i in range(5):
                with pytest.raises(RuntimeError, match="spatial exploded"):
                    orch.dispatch_update(
                        action_event(i, [Triplet(f"object {i}", "on", "table", step_index=i)])
                    )
            orch.dispatch_update(task_event())
            return orch.snapshot()

        assert run(True) == run(False)

    def test_disabled_modules_receive_nothing(self):
        orch = MemoryOrchestrator(spatial_enabled=False, longterm_enabled=False)
        orch.dispatch_update(action_event(0, [Triplet("cup", "on", "table")]))
        orch.dispatch_update(task_event())
        assert orch.spatial.pending() == [] and orch.spatial.edges() == []
        assert len(orch.lifelong) == 0
        assert len(orch.temporal.entries()) == 1

    def test_schedule_independence(self):
        """Final snapshots match whether branches ran in parallel or not."""
        snapshots = []
        for parallel in (True, False):
            orch = MemoryOrchestrator(parallel=parallel)
            for i in range(10):
                orch.dispatch_update(
                    action_event(i, [Triplet(f"object {i}", "on", "table", step_index=i)])
                )
            orch.dispatch_update(task_event())
            orch.spatial.integrate()
            snapshots.append(orch.snapshot())
        assert snapshots[0] == snapshots[1]


class TestGather:
    def build(self):
        orch = MemoryOrchestrator()
        orch.dispatch_update(action_event(0, [Triplet("cup", "on", "table")]))
        orch.spatial.integrate()
        orch.dispatch_update(task_event())
        return orch

    def test_context_contains_all_sections(self):
        orch = self.build()
        ctx = orch.gather_context(["cup"])
        assert [t.key for t in ctx.spatial] == [("cup", "on", "table")]
        assert "step 0" in ctx.temporal
        episodic, _ = orch.recall("where is the cup", scope="t1")
        assert episodic

    @pytest.mark.parametrize("parallel", [True, False])
    def test_working_memory_gather_leaves_longterm_memory_to_recall(self, parallel):
        orch = self.build()
        orch.parallel = parallel
        retrieved = []
        retrieve = orch.lifelong.retrieve
        orch.lifelong.retrieve = lambda *args: retrieved.append(args[1:]) or retrieve(*args)
        working = orch.gather_context(["cup"])
        assert retrieved == []
        assert [f.name for f in dataclasses.fields(working)] == ["spatial", "temporal"]
        episodic, semantic = orch.recall("where is the cup", scope="t1")
        assert sorted(retrieved) == [("episodic", 5, "t1"), ("semantic", 5, "t1")]
        assert episodic and {e.task for e, _ in episodic + semantic} == {"t1"}
        assert len(orch.gather_latencies) == 1  # recall is not timed in it

    def test_recall_of_disabled_longterm_memory_is_empty(self):
        orch = self.build()
        orch.longterm_enabled = False
        assert orch.recall("where is the cup", scope="t1") == ([], [])

    @pytest.mark.parametrize("parallel", [True, False])
    def test_retrieval_branch_failure_is_raised(self, parallel):
        # Not an empty section: the episode ends as crashed. The section
        # beside the failed one still ran.
        retrieved = []

        class RecordingLifelong(LifelongMemory):
            def retrieve(self, query, kind, k=5, scope=None):
                retrieved.append(kind)
                if kind == "episodic":
                    raise RuntimeError("episodic exploded")
                return super().retrieve(query, kind, k, scope)

        orch = MemoryOrchestrator(
            temporal=BrokenTemporal(), lifelong=RecordingLifelong(), parallel=parallel
        )
        orch.dispatch_update(action_event(0, [Triplet("cup", "on", "table")]))
        orch.spatial.integrate()
        seeds = []
        retrieve = orch.spatial.retrieve_subgraph

        def recording_retrieve(names, k=None):
            seeds.append(sorted(names))
            return retrieve(names, k)

        orch.spatial.retrieve_subgraph = recording_retrieve
        with pytest.raises(RuntimeError, match="temporal exploded"):
            orch.gather_context(["cup"])
        assert seeds == [["cup"]]
        with pytest.raises(RuntimeError, match="episodic exploded"):
            orch.recall("where is the cup", scope="t1")
        assert sorted(retrieved) == ["episodic", "semantic"]

    @pytest.mark.parametrize("parallel", [True, False])
    def test_khop_bound_violation_is_raised(self, monkeypatch, parallel):
        orch = self.build()
        orch.parallel = parallel
        monkeypatch.setattr(spatial, "khop_bound", lambda *args: 0)
        with pytest.raises(KHopBoundError):
            orch.gather_context(["cup"])

    def test_parallel_gather_overlaps_section_delays(self):
        delay = 0.05
        hooks = {name: delay for name in ("spatial", "temporal", "episodic", "semantic")}
        elapsed = {}
        for parallel in (True, False):
            orch = MemoryOrchestrator(parallel=parallel, delay_hooks=hooks)
            start = time.perf_counter()
            orch.gather_context(["cup"])
            orch.recall("cup", scope="t1")
            elapsed[parallel] = time.perf_counter() - start
        assert elapsed[True] < 2.5 * delay
        assert elapsed[False] >= 3.8 * delay

    def test_parallel_gathers_share_one_bounded_pool(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread.name)
            start(thread)

        orch = self.build()
        monkeypatch.setattr(threading.Thread, "start", counted_start)
        for _ in range(50):
            orch.gather_context(["cup"])
            orch.recall("where is the cup", scope="t1")
        assert len(started) <= 4, started

    def test_gather_results_match_across_schedules(self):
        par = self.build()
        seq = self.build()
        seq.parallel = False
        assert par.gather_context(["cup"]) == seq.gather_context(["cup"])
        recalled_par = par.recall("where is the cup", scope="t1")
        recalled_seq = seq.recall("where is the cup", scope="t1")
        for hits_par, hits_seq in zip(recalled_par, recalled_seq):
            assert [e.text for e, _ in hits_par] == [e.text for e, _ in hits_seq]


class Answering(OracleBackend):
    """The oracle, except that one role always gives one answer."""

    def __init__(self, role, answer):
        self.role, self.answer = role, answer

    def invoke(self, role, payload):
        if role is self.role:
            return json.loads(json.dumps(self.answer))
        return super().invoke(role, payload)


class TestBlankAnswers:
    """A whitespace-only text in an answer fails its role's response check,
    so it degrades to the role's fallback instead of reaching memory."""

    def assert_indexed(self, lifelong):
        for entity in lifelong.entities():
            hits = lifelong.retrieve(entity.text, entity.kind, k=len(lifelong))
            assert entity.id in [e.id for e, _ in hits]

    def test_blank_extracted_texts_degrade_to_the_template(self, caplog):
        answer = {"episodic": ["   "], "semantic": ["recipe: ok", "  "]}
        gateway = ReasonerGateway(backend=Answering(ReasonerRole.MEMORY_EXTRACTOR, answer))
        orch = MemoryOrchestrator(lifelong=LifelongMemory(gateway=gateway))
        caplog.set_level(logging.WARNING, logger="memagent")
        orch.dispatch_update(task_event())
        [record] = caplog.records
        assert "extractor failed" in record.getMessage()
        assert [e.text for e in orch.lifelong.entities()] == [
            "task t1: put cup on table -> success"
        ]
        self.assert_indexed(orch.lifelong)

    def test_blank_query_degrades_to_the_instruction(self, caplog):
        gateway = ReasonerGateway(backend=Answering(ReasonerRole.QUERY_GENERATOR, {"query": " "}))
        orch = MemoryOrchestrator(lifelong=LifelongMemory(gateway=gateway))
        failed = step(1, verb=Verb.PICK_UP, target="cup", outcome=Outcome.FAILURE,
                      reason="hands full")
        orch.dispatch_update(UpdateEvent(level="action", record=failed))
        orch.dispatch_update(task_event())
        self.assert_indexed(orch.lifelong)
        caplog.set_level(logging.WARNING, logger="memagent")
        out = Preprocessor(gateway=gateway, instruction="put cup on table").preprocess(
            Observation(task_id="t2", step_index=0, text="you are at sink"), None, None
        )
        [record] = caplog.records
        assert "query generator failed" in record.getMessage()
        assert out.query == "put cup on table"
        # The fallback names the goals and what the observation shows.
        assert out.entities == ("cup", "table", "sink")
        episodic, semantic = orch.recall(out.query, scope="t1")
        assert episodic and semantic


class TestTaskBoundaries:
    def test_reset_task_state_keeps_longterm(self):
        orch = MemoryOrchestrator()
        orch.dispatch_update(action_event(0, [Triplet("cup", "on", "table")]))
        orch.dispatch_update(task_event())
        orch.reset_task_state()
        assert orch.temporal.entries() == []
        assert orch.spatial.edges() == [] and orch.spatial.pending() == []
        assert len(orch.lifelong) >= 1

    def test_reset_drops_the_lessons_of_a_task_that_never_ended(self):
        # A crashed task gets no task-level update, so its buffered failure
        # lessons must not reach the next task's scope.
        orch = MemoryOrchestrator()
        failed = step(1, verb=Verb.OPEN, target="oven", outcome=Outcome.FAILURE,
                      reason="executor_failure")
        orch.dispatch_update(UpdateEvent(level="action", record=failed))
        orch.reset_task_state()
        orch.dispatch_update(task_event("t2"))
        assert [e.text for e in orch.lifelong.entities("semantic")] == []

    def test_snapshot_is_json_with_three_sections(self):
        orch = MemoryOrchestrator()
        orch.dispatch_update(action_event(0, [Triplet("cup", "on", "table")]))
        doc = json.loads(orch.snapshot())
        assert set(doc) == {"spatial", "temporal", "lifelong"}
        assert doc == {
            "spatial": orch.spatial.snapshot(),
            "temporal": orch.temporal.snapshot(),
            "lifelong": orch.lifelong.snapshot(),
        }


_NAMES = ["cup", "table", "sink", "fridge", "drawer 1", "agent"]
_triplets = st.builds(
    Triplet,
    st.sampled_from(_NAMES),
    st.sampled_from(["on", "in", "near", "holds", "is"]),
    st.sampled_from(_NAMES + ["open", "closed"]),
    step_index=st.integers(min_value=0, max_value=5),
)
_records = st.builds(
    lambda i, verb, target, failed: step(
        i, verb, target, Outcome.FAILURE if failed else Outcome.SUCCESS,
        "hands full" if failed else None,
    ),
    st.integers(min_value=0, max_value=9),
    st.sampled_from([Verb.NAVIGATE_TO, Verb.OPEN, Verb.DROP]),
    st.sampled_from(["sink", "fridge", "cup"]),
    st.booleans(),
)
_store_operations = st.lists(
    st.one_of(
        st.tuples(st.just("action"), _records, st.lists(_triplets, max_size=10)),
        st.tuples(st.just("task"), st.sampled_from(["t1", "t2"]), st.booleans()),
        # The query text, and the entity names of its cue.
        st.sampled_from([("query", "find cup | seen: sink", ["cup", "sink"]),
                         ("query", "table", ["table"])]),
        st.just(("reset",)),
    ),
    max_size=12,
)


class TestRestore:
    @settings(max_examples=60, deadline=None)
    @given(operations=_store_operations, capacity=st.integers(min_value=1, max_value=4))
    def test_snapshot_restore_snapshot_is_byte_identical(self, operations, capacity):
        orch = MemoryOrchestrator(temporal=TemporalMemory(capacity=capacity), parallel=False)
        for op in operations:
            if op[0] == "action":
                orch.dispatch_update(UpdateEvent(level="action", record=op[1], triplets=op[2]))
            elif op[0] == "task":
                trace = TaskTrace(task_id=op[1], instruction="put cup on table")
                trace.note_seen("cup", "on", "table")
                result = TaskResult(task_id=op[1], scn=int(op[2]), gcn=1, steps_used=3,
                                    terminated_by=Termination.SELF_TERMINATED)
                orch.dispatch_update(UpdateEvent(level="task", trace=trace, result=result))
            elif op[0] == "query":
                orch.gather_context(op[2])
                orch.recall(op[1], scope="t1")
            else:
                orch.reset_task_state()
        text = orch.snapshot()
        other = MemoryOrchestrator(parallel=False)
        other.restore(text)
        assert other.snapshot() == text
        for store in (orch.spatial, orch.temporal, orch.lifelong):
            saved = canonical_json(store.snapshot())
            fresh = type(store)()
            fresh.restore(json.loads(saved))
            assert canonical_json(fresh.snapshot()) == saved

    @pytest.mark.parametrize(
        "part, value",
        [
            # Each part is bad only after the one before it would have
            # replaced its store.
            ("lifelong", {"entities": [1]}),
            ("temporal", None),
        ],
    )
    def test_refused_restore_leaves_every_store_as_it_was(self, part, value):
        orch = MemoryOrchestrator(parallel=False)
        orch.dispatch_update(action_event(0, [Triplet("cup", "on", "table")]))
        orch.dispatch_update(task_event())
        orch.spatial.integrate()
        assert orch.spatial.edges() and orch.temporal.entries() and len(orch.lifelong)
        stores = (orch.spatial, orch.temporal, orch.lifelong)
        before = [canonical_json(store.snapshot()) for store in stores]
        # Good parts that would empty the stores they replace.
        doc = {
            "spatial": SpatialMemory().snapshot(),
            "temporal": TemporalMemory().snapshot(),
            "lifelong": LifelongMemory().snapshot(),
        }
        if value is None:
            del doc[part]
        else:
            doc[part] = value
        with pytest.raises((KeyError, TypeError)):
            orch.restore(json.dumps(doc))
        assert [canonical_json(store.snapshot()) for store in stores] == before

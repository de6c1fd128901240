"""Tests for the episodic/semantic long-term memory store."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memagent.core import (
    ActionCommand,
    InvariantError,
    Outcome,
    StepRecord,
    TaskResult,
    Termination,
    Verb,
    canonical_json,
    to_doc,
)
from memagent import vector_index
from memagent.envsim import Environment, builtin_suite_path, load_suite
from memagent.harness import AgentSystem, compute_metrics, run_pass
from memagent.lifelong import LifelongMemory, MemoryEntity, TaskTrace


def failure_step(i, target="cup", reason="hands full"):
    return StepRecord(
        step_index=i,
        action=ActionCommand(verb=Verb.PICK_UP, target=target),
        summary=f"pick up {target}: failed",
        outcome=Outcome.FAILURE,
        failure_reason=reason,
    )


def success_step(i):
    return StepRecord(
        step_index=i,
        action=ActionCommand(verb=Verb.NAVIGATE_TO, target="sink"),
        summary="went to sink",
        outcome=Outcome.SUCCESS,
    )


def result(task_id="t1", scn=1, gcn=1, steps=4):
    return TaskResult(
        task_id=task_id,
        scn=scn,
        gcn=gcn,
        steps_used=steps,
        terminated_by=Termination.SUCCESS if scn == gcn else Termination.STEP_BUDGET,
    )


class TestMemoryEntity:
    def test_rejects_empty_text_and_unknown_kind(self):
        with pytest.raises(ValueError):
            MemoryEntity(id="x", kind="episodic", text="", task="t")
        with pytest.raises(ValueError):
            MemoryEntity(id="x", kind="episodic", text=" \n ", task="t")
        with pytest.raises(ValueError):
            MemoryEntity(id="x", kind="oops", text="hi", task="t")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("id", 5), ("id", " "), ("task", 7), ("task", ""), ("text", 5),
            ("tags", "cup"), ("tags", [1]), ("facts", "cup on sink"),
            ("facts", ["cup on sink"]), ("facts", [("cup", "sink")]),
            ("avoid", "sink"), ("avoid", [("cup", "sink", "bed")]), ("avoid", [("cup", 3)]),
        ],
    )
    def test_fields_have_their_types(self, field, value):
        fields = dict(id="x", kind="episodic", text="hi", task="t")
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            MemoryEntity(**fields)

    def test_lists_become_tuples(self):
        entry = MemoryEntity(
            id="x", kind="episodic", text="hi", task="t", tags=["cup"],
            facts=[["cup", "on", "sink"]], avoid=[["cup", "bed"]],
        )
        assert entry.tags == ("cup",)
        assert entry.facts == (("cup", "on", "sink"),)
        assert entry.avoid == (("cup", "bed"),)

    @pytest.mark.parametrize("count", ["many", False, 0, 2.0])
    def test_count_is_an_int_at_least_1(self, count):
        with pytest.raises(ValueError, match="count"):
            MemoryEntity(id="x", kind="episodic", text="hi", task="t", count=count)


class TestActionExperience:
    def test_success_bumps_tally_only(self):
        mem = LifelongMemory()
        assert mem.record_action_experience(success_step(0)) is None
        assert len(mem) == 0

    def test_failure_buffers_micro_lesson(self):
        mem = LifelongMemory()
        text = mem.record_action_experience(failure_step(0))
        assert text == "pick_up cup: fails when hands full"

    def test_repeated_failure_counts(self):
        mem = LifelongMemory()
        trace = TaskTrace(task_id="t1", instruction="put cup on table")
        mem.record_action_experience(failure_step(0))
        mem.record_action_experience(failure_step(1))
        entities = mem.extract_task_entities(trace, result(scn=0, steps=2))
        micro = [e for e in entities if "fails when" in e.text]
        assert len(micro) == 1
        assert micro[0].count == 2
        assert "(seen 2x)" in micro[0].text


class TestExtraction:
    def test_episodic_entry_records_outcome_and_locations(self):
        mem = LifelongMemory()
        trace = TaskTrace(task_id="t1", instruction="put cup on table")
        trace.note_seen("cup", "on", "shelf")
        trace.note_visit("shelf")
        entities = mem.extract_task_entities(trace, result())
        episodic = [e for e in entities if e.kind == "episodic"]
        assert len(episodic) == 1
        assert "put cup on table -> success" in episodic[0].text
        assert "locations: cup on shelf" in episodic[0].text
        assert episodic[0].facts == (("cup", "on", "shelf"),)
        assert episodic[0].task == "t1"
        assert "task:t1" in episodic[0].tags

    def test_failure_produces_search_dead_end_lesson(self):
        mem = LifelongMemory()
        trace = TaskTrace(task_id="t2", instruction="put banana on table")
        trace.goal_objects = ["banana"]
        trace.note_visit("shelf")
        trace.note_visit("sink")
        entities = mem.extract_task_entities(trace, result(task_id="t2", scn=0, gcn=1))
        lessons = [e for e in entities if e.kind == "semantic"]
        # The dead-end lesson comes first, ahead of the extractor's texts.
        assert lessons[0].id == "semantic-t2-1"
        assert lessons[0].text.startswith("searching for banana: not found at shelf, sink")
        assert lessons[0].avoid == (("banana", "shelf"), ("banana", "sink"))
        assert all(not e.avoid for e in lessons[1:])

    def test_success_produces_recipe(self):
        mem = LifelongMemory()
        trace = TaskTrace(task_id="t3", instruction="put cup on table")
        trace.verbs = ["navigate_to", "pick_up", "put_down_to"]
        entities = mem.extract_task_entities(trace, result(task_id="t3"))
        assert any(
            e.kind == "semantic" and e.text.startswith("recipe for 'put cup on table'")
            for e in entities
        )

    def test_zero_step_task_records_abort(self):
        mem = LifelongMemory()
        trace = TaskTrace(task_id="t4", instruction="put cup on table", goal_objects=["cup"])
        trace.note_visit("shelf")
        entities = mem.extract_task_entities(trace, result(task_id="t4", scn=0, steps=0))
        assert len(entities) == 1
        assert "aborted at step 0" in entities[0].text


class TestConsolidation:
    def entity(self, i, text, kind="semantic", tags=(), task="t1"):
        return MemoryEntity(
            id=f"{kind}-{task}-{i}",
            kind=kind,
            text=text,
            task=task,
            tags=tuple(tags),
        )

    def test_novel_entries_are_added(self):
        mem = LifelongMemory()
        plan = mem.consolidate([self.entity(1, "ovens heat food")])
        assert len(plan.adds) == 1
        assert plan.updates == [] and plan.deletes == []
        assert len(mem) == 1

    def test_identical_text_merges_as_update(self):
        mem = LifelongMemory()
        mem.consolidate([self.entity(1, "pick_up cup: fails when hands full")])
        plan = mem.consolidate(
            [self.entity(1, "pick_up cup: fails when hands full", task="t2")]
        )
        assert len(plan.updates) == 1
        assert len(mem) == 1
        (entry,) = mem.entities("semantic")
        assert entry.count == 2
        assert entry.task == "t2"

    def test_outcome_flip_replaces_old_lesson(self):
        mem = LifelongMemory()
        tags_fail = ("instruction:put cup on table", "outcome:failure")
        tags_ok = ("instruction:put cup on table", "outcome:success")
        mem.consolidate(
            [self.entity(1, "task attempt at put cup on table went badly", tags=tags_fail)]
        )
        plan = mem.consolidate(
            [
                self.entity(
                    1, "task attempt at put cup on table went well", tags=tags_ok, task="t2"
                )
            ]
        )
        assert len(plan.deletes) == 1
        assert len(plan.adds) == 1
        assert len(mem) == 1
        (entry,) = mem.entities("semantic")
        assert "went well" in entry.text

    def test_two_claims_on_same_target_fall_back_to_add(self):
        mem = LifelongMemory()
        mem.consolidate([self.entity(1, "pick_up cup: fails when hands full")])
        dup = self.entity(1, "pick_up cup: fails when hands full", task="t2")
        dup2 = self.entity(2, "pick_up cup: fails when hands full", task="t2")
        plan = mem.consolidate([dup, dup2])
        assert len(plan.updates) == 1
        assert len(plan.adds) == 1
        assert len(mem) == 2

    def test_kinds_never_cross_merge(self):
        mem = LifelongMemory()
        mem.consolidate([self.entity(1, "the cup sits on the table", kind="episodic")])
        plan = mem.consolidate(
            [self.entity(1, "the cup sits on the table", kind="semantic")]
        )
        assert len(plan.adds) == 1
        assert len(mem) == 2


class TestRetrieval:
    def test_retrieve_ranks_by_similarity(self):
        mem = LifelongMemory()
        trace = TaskTrace(task_id="t1", instruction="put banana on dining table")
        trace.note_seen("banana", "on", "shelf")
        mem.consolidate(mem.extract_task_entities(trace, result()))
        hits = mem.retrieve("put banana on dining table", kind="episodic")
        assert hits
        assert "banana" in hits[0][0].text

    def test_retrieve_unrelated_query_is_empty(self):
        mem = LifelongMemory()
        mem.consolidate(
            [
                MemoryEntity(
                    id="semantic-t1-1",
                    kind="semantic",
                    text="ovens heat food",
                    task="t1",
                )
            ]
        )
        for kind in ("episodic", "semantic"):
            assert mem.retrieve("zzz qqq www", kind) == []

    def test_retrieve_respects_kind_filter(self):
        mem = LifelongMemory()
        mem.consolidate(
            [
                MemoryEntity(
                    id="episodic-t1-1",
                    kind="episodic",
                    text="task t1: put cup on table -> success",
                    task="t1",
                )
            ]
        )
        assert mem.retrieve("put cup on table", kind="semantic") == []
        assert mem.retrieve("put cup on table", kind="episodic")


def scope_recount(mem):
    """The scope map, recomputed from the entries alone."""
    scopes = {"episodic": {}, "semantic": {}}
    for entity in mem.entities():
        scopes[entity.kind].setdefault(entity.task, set()).add(entity.id)
    return scopes


class TestScopedRetrieval:
    #: Texts that, under the oracle updater, add, update (same text, which
    #: moves the entry to the new entity's task) or replace (same
    #: instruction tag, other outcome) an entry.
    TEXTS = ["cup on shelf", "cup on sink", "pick_up cup: fails when hands full",
             "open fridge: fails when target not here", "recipe for cup on shelf"]
    SCOPES = ["t0", "t1", "t2", "t3", "t9"]

    def check(self, mem):
        assert mem._scopes == scope_recount(mem)
        for kind in ("episodic", "semantic"):
            for query in self.TEXTS + ["cup"]:
                # The whole kind's ranking; the scope's top 3 is its
                # entries in that order, cut at 3.
                everywhere = mem.retrieve(query, kind, k=max(1, len(mem)))
                for scope in self.SCOPES:
                    want = [hit for hit in everywhere if hit[0].task == scope][:3]
                    assert mem.retrieve(query, kind, k=3, scope=scope) == want

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.lists(
                    st.tuples(
                        st.integers(0, 3),
                        st.sampled_from(["episodic", "semantic"]),
                        st.integers(0, 4),
                        st.booleans(),
                    ),
                    min_size=1,
                    max_size=3,
                ),
                st.sampled_from(["wipe", "snapshot", "restore"]),
            ),
            max_size=12,
        )
    )
    def test_scoped_equals_global_filtered_after_every_operation(self, operations):
        mem = LifelongMemory()
        saved = mem.snapshot()
        for b, op in enumerate(operations):
            if op == "wipe":
                mem.wipe()
            elif op == "snapshot":
                saved = mem.snapshot()
            elif op == "restore":
                mem.restore(saved)
            else:
                mem.consolidate([
                    MemoryEntity(
                        id=f"{kind}-t{task}-{b}-{i}",
                        kind=kind,
                        text=self.TEXTS[text],
                        task=f"t{task}",
                        tags=("instruction:put cup on table",
                              "outcome:success" if ok else "outcome:failure"),
                    )
                    for i, (task, kind, text, ok) in enumerate(op)
                ])
            self.check(mem)

    def test_update_moves_the_entry_to_the_new_scope(self):
        mem = LifelongMemory()
        text = "pick_up cup: fails when hands full"
        mem.consolidate([MemoryEntity(id="semantic-t1-1", kind="semantic", text=text, task="t1")])
        plan = mem.consolidate(
            [MemoryEntity(id="semantic-t2-1", kind="semantic", text=text, task="t2")]
        )
        assert len(plan.updates) == 1
        assert mem._scopes == {"episodic": {}, "semantic": {"t2": {"semantic-t1-1"}}}
        assert mem.retrieve(text, "semantic", scope="t1") == []
        assert [e.id for e, _ in mem.retrieve(text, "semantic", scope="t2")] == ["semantic-t1-1"]

    def test_entry_outranked_by_other_scopes_is_still_recalled(self):
        # Six entries of other scopes match the query exactly, more than k;
        # the scope's one entry, a weaker match, is still its top hit.
        query = "pick_up cup: fails when hands full"
        theirs = [
            MemoryEntity(id=f"semantic-t{i}-1", kind="semantic", text=query, task=f"t{i}")
            for i in range(6)
        ]
        ours = MemoryEntity(id="semantic-t9-1", kind="semantic",
                            text="pick_up cup: fails when target not here", task="t9")
        mem = LifelongMemory()
        mem.restore({"entities": to_doc(theirs + [ours]),
                     "id_counters": {f"semantic-t{i}": 1 for i in (0, 1, 2, 3, 4, 5, 9)}})
        everywhere = mem.retrieve(query, "semantic", k=5)
        assert len(everywhere) == 5 and all(e.task != "t9" for e, _ in everywhere)
        (hit,) = mem.retrieve(query, "semantic", k=5, scope="t9")
        assert hit[0] == ours and 0.25 <= hit[1] < everywhere[-1][1]

    def test_scoped_search_scores_only_the_scope(self, monkeypatch):
        # The scope's rows are the only candidates, so the store's other
        # entries cost nothing.
        mem = LifelongMemory()
        mem.restore({
            "entities": to_doc(
                [MemoryEntity(id=f"semantic-t{i}-1", kind="semantic", text=text, task=f"t{i}")
                 for i, text in enumerate(self.TEXTS)]
            ),
            "id_counters": {f"semantic-t{i}": 1 for i in range(len(self.TEXTS))},
        })
        scored = []
        score = vector_index.cosine_with_norms
        monkeypatch.setattr(vector_index, "cosine_with_norms",
                            lambda *args: scored.append(args) or score(*args))
        hits = mem.retrieve("cup on shelf", "semantic", scope="t1")
        assert [e.id for e, _ in hits] == ["semantic-t1-1"]
        assert len(scored) == 1

    #: Goal objects and failure reasons of the synthetic history.
    HISTORY_OBJECTS = ("banana", "apple", "gum box", "cup", "basket")
    HISTORY_REASONS = ("target not here", "hands full", "not openable", "target not found")

    def fill_history(self, system, tasks, count=260):
        """``count`` finished tasks of scopes the suite never runs
        (``hist-*``), written through extract and consolidate. Half reuse a
        suite task's instruction, so their entries rank high for its
        queries."""
        rng = random.Random(0)
        lifelong = system.orchestrator.lifelong
        points = Environment(profile="realworld").nav_points
        for i in range(count):
            system.gateway.reset_budget()
            obj = rng.choice(self.HISTORY_OBJECTS)
            instruction = (
                rng.choice(tasks).instruction if i % 2 else f"put {obj} on {rng.choice(points)}"
            )
            trace = TaskTrace(task_id=f"hist-{i:03d}", instruction=instruction,
                              goal_objects=[obj])
            for point in rng.sample(points, rng.randint(1, 4)):
                trace.note_visit(point)
            for other in rng.sample(self.HISTORY_OBJECTS, 2):
                trace.note_seen(other, "on", rng.choice(trace.visited_points))
            for step in range(rng.randint(0, 2)):
                target = rng.choice(self.HISTORY_OBJECTS)
                lifelong.record_action_experience(
                    failure_step(step + 1, target, rng.choice(self.HISTORY_REASONS))
                )
            ok = rng.random() < 0.5
            lifelong.consolidate(lifelong.extract_task_entities(
                trace, result(trace.task_id, scn=int(ok), steps=8)
            ))

    def suite_sr(self, seed, warm):
        _, tasks = load_suite(builtin_suite_path())
        system = AgentSystem.build(parallel=False)
        if warm:
            self.fill_history(system, tasks)
            entries = system.orchestrator.lifelong.entities()
            assert len(entries) >= 300
            assert all(e.task.startswith("hist-") for e in entries)
        return [
            compute_metrics([e.result for e in run_pass(tasks, system, seed, failure_p=0.1)])["sr"]
            for _ in range(2)
        ]

    @pytest.mark.parametrize("seed", [3, 44])
    def test_history_of_other_scopes_costs_no_success(self, seed):
        # Other tasks' entries no longer take the k slots of this task's
        # hints, so a warm store plays each pass as an empty one does.
        assert self.suite_sr(seed, warm=True) == self.suite_sr(seed, warm=False)

    def test_scope_without_entries_neither_embeds_nor_searches(self, monkeypatch):
        mem = LifelongMemory()
        mem.consolidate([MemoryEntity(id="episodic-t1-1", kind="episodic",
                                      text="cup on shelf", task="t1")])

        def no_search(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(mem.embedder, "embed", no_search)
        for kind, scope in (("episodic", "t2"), ("semantic", "t1")):
            assert mem.retrieve("cup on shelf", kind, scope=scope) == []


class TestPersistence:
    def build(self):
        mem = LifelongMemory()
        trace = TaskTrace(task_id="t1", instruction="put cup on table")
        trace.verbs = ["pick_up"]
        mem.record_action_experience(success_step(0))
        mem.consolidate(mem.extract_task_entities(trace, result()))
        return mem

    def test_snapshot_restore_round_trip(self):
        mem = self.build()
        snap = mem.snapshot()
        other = LifelongMemory()
        other.restore(snap)
        assert other.snapshot() == snap
        assert len(other) == len(mem)

    @pytest.mark.parametrize("value", ["z", True, -1, 1.5])
    def test_restore_checks_each_id_counter(self, value):
        doc = dict(self.build().snapshot(), id_counters={"t1": 1, "a": value})
        with pytest.raises(ValueError, match=r"id_counters\['a'\]"):
            LifelongMemory().restore(doc)

    @pytest.mark.parametrize(
        "change", [{"entities": [1]}, {"id_counters": {"a": -1}}, {"entities": None}]
    )
    def test_refused_restore_leaves_the_memory_as_it_was(self, change):
        mem = self.build()
        before = mem.snapshot()
        with pytest.raises((TypeError, ValueError)):
            mem.restore(dict(before, **change))
        assert mem.snapshot() == before

    def test_restore_refuses_two_entries_with_one_id(self):
        mem = self.build()
        before = mem.snapshot()
        doc = dict(before, entities=before["entities"] + before["entities"][:1])
        with pytest.raises(InvariantError, match="held twice") as raised:
            mem.restore(doc)
        assert raised.value.path == "entities"
        assert mem.snapshot() == before

    @pytest.mark.parametrize("counters", [[["semantic-t1", 2]], "semantic-t1", 3])
    def test_restore_refuses_id_counters_that_are_not_an_object(self, counters):
        mem = self.build()
        before = mem.snapshot()
        with pytest.raises(InvariantError, match="must be an object") as raised:
            mem.restore(dict(before, id_counters=counters))
        assert raised.value.path == "id_counters"
        assert mem.snapshot() == before

    @pytest.mark.parametrize("counters", [None, {}, {"semantic-t1": 0}, {"semantic-t0": 5}])
    def test_counters_that_lag_a_held_id_issue_around_it(self, counters):
        entry = MemoryEntity(id="semantic-t1-1", kind="semantic", text="ovens heat", task="t1")
        doc = {"entities": to_doc([entry])}
        if counters is not None:
            doc["id_counters"] = counters
        mem = LifelongMemory()
        mem.restore(doc)
        trace = TaskTrace(task_id="t1", instruction="put cup on table")
        mem.record_action_experience(failure_step(0))
        lessons = [e.id for e in mem.extract_task_entities(trace, result(steps=2))
                   if e.kind == "semantic"]
        assert lessons[0] == "semantic-t1-2"

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("issue"), st.sampled_from(["episodic", "semantic"]),
                          st.integers(0, 2), st.integers(0, 4)),
                st.tuples(st.just("consolidate"), st.sampled_from(["episodic", "semantic"]),
                          st.integers(0, 2), st.integers(0, 4), st.integers(1, 5)),
                st.tuples(st.just("restore"), st.integers(0, 3)),
                st.tuples(st.just("wipe")),
            ),
            max_size=16,
        )
    )
    def test_no_issued_id_is_held(self, ops):
        # Ids issued by the memory, ids a caller gave and restores whose
        # counters lag the held ids, in any order: _next_id never returns
        # an id the store holds.
        mem = LifelongMemory()
        for op in ops:
            if op[0] == "issue":
                _, kind, task, text = op
                entry_id = mem._next_id(kind, f"t{task}")
                assert entry_id not in {e.id for e in mem.entities()}
                mem.consolidate([MemoryEntity(id=entry_id, kind=kind, text=self.TEXTS[text],
                                              task=f"t{task}")])
            elif op[0] == "consolidate":
                _, kind, task, text, number = op
                mem.consolidate([MemoryEntity(id=f"{kind}-t{task}-{number}", kind=kind,
                                              text=self.TEXTS[text], task=f"t{task}")])
            elif op[0] == "restore":
                doc = mem.snapshot()
                doc["id_counters"] = {key: max(0, value - op[1])
                                      for key, value in doc["id_counters"].items()}
                mem.restore(doc)
            else:
                mem.wipe()

    def test_restore_takes_ids_that_no_counter_gives(self):
        # Only ids of the form <kind>-<task>-<n> can collide with a new one.
        mem = LifelongMemory()
        ids = ["e1", "seed-3", "semantic-t1-x", "semantic-t1-1"]
        mem.restore({
            "entities": to_doc([MemoryEntity(id=i, kind="semantic", text=i, task="t1")
                                for i in ids]),
            "id_counters": {"semantic-t1": 1},
        })
        assert sorted(e.id for e in mem.entities()) == sorted(ids)
        trace = TaskTrace(task_id="t1", instruction="put cup on table")
        mem.record_action_experience(failure_step(0))
        lessons = [e.id for e in mem.extract_task_entities(trace, result(steps=2))
                   if e.kind == "semantic"]
        assert lessons[0] == "semantic-t1-2"

    def test_a_consolidated_id_is_never_given_again(self):
        # An id the caller gave, not the memory, is stepped past, and the
        # memory's own snapshot restores.
        mem = LifelongMemory()
        mem.consolidate([MemoryEntity(id="semantic-t1-1", kind="semantic",
                                      text="ovens heat food", task="t1")])
        trace = TaskTrace(task_id="t1", instruction="put cup on table")
        mem.record_action_experience(failure_step(0))
        lessons = [e.id for e in mem.extract_task_entities(trace, result(steps=2))
                   if e.kind == "semantic"]
        assert lessons[0] == "semantic-t1-2"
        other = LifelongMemory()
        other.restore(mem.snapshot())
        assert other.snapshot() == mem.snapshot()

    def test_restored_ids_do_not_collide(self):
        mem = self.build()
        other = LifelongMemory()
        other.restore(mem.snapshot())
        trace = TaskTrace(task_id="t1", instruction="put cup on table again")
        entities = other.extract_task_entities(trace, result(steps=2))
        existing = {e.id for e in other.entities()}
        assert all(e.id not in existing for e in entities)

    def test_wipe_forgets_everything(self):
        mem = self.build()
        mem.wipe()
        assert len(mem) == 0
        assert mem.snapshot()["entities"] == []

    def test_round_trip_keeps_facts_and_avoid(self):
        mem = LifelongMemory()
        trace = TaskTrace(task_id="t2", instruction="put banana on table", goal_objects=["banana"])
        trace.note_visit("shelf")
        trace.note_seen("cup", "on", "shelf")
        mem.consolidate(mem.extract_task_entities(trace, result(task_id="t2", scn=0)))
        snap = mem.snapshot()
        other = LifelongMemory()
        other.restore(json.loads(canonical_json(snap)))
        assert other.snapshot() == snap
        assert other.entities() == mem.entities()
        assert [e.facts for e in other.entities("episodic")] == [(("cup", "on", "shelf"),)]
        assert [e.avoid for e in other.entities("semantic") if e.avoid] == [
            (("banana", "shelf"),)
        ]

    #: Few texts, most sharing words, so that writes often update (same text)
    #: or replace (same instruction tag, other outcome) an entry.
    TEXTS = ["cup on shelf", "cup on sink", "pick_up cup: fails when hands full",
             "open fridge: fails when target not here", "recipe for cup on shelf"]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 3),
                    st.sampled_from(["episodic", "semantic"]),
                    st.integers(0, 4),
                    st.booleans(),
                ),
                min_size=1,
                max_size=3,
            ),
            max_size=10,
        )
    )
    def test_round_trip_after_random_consolidations(self, batches):
        mem = LifelongMemory()
        for b, batch in enumerate(batches):
            entities = []
            for i, (task, kind, text, ok) in enumerate(batch):
                place = self.TEXTS[text].split()[-1]
                entities.append(MemoryEntity(
                    id=f"{kind}-t{task}-{b}-{i}",
                    kind=kind,
                    text=self.TEXTS[text],
                    task=f"t{task}",
                    tags=("instruction:put cup on table",
                          "outcome:success" if ok else "outcome:failure"),
                    facts=[("cup", "on", place)] if kind == "episodic" else (),
                    avoid=[("cup", place)] if kind == "semantic" else (),
                ))
            mem.consolidate(entities)
        snap = canonical_json(mem.snapshot())
        other = LifelongMemory()
        other.restore(json.loads(snap))
        assert canonical_json(other.snapshot()) == snap
        for kind in ("episodic", "semantic"):
            for query in self.TEXTS + ["cup"]:
                assert other.retrieve(query, kind, k=3) == mem.retrieve(query, kind, k=3)

import copy
import json
import logging
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memagent import gateway as gateway_module
from memagent import oracle
from memagent.conflicts import (
    DEFAULT_EXCLUSIVE_PAIRS,
    DEFAULT_FUNCTIONAL_GROUPS,
    DEFAULT_RULES,
    DEFAULT_STATE_SETS,
    DEFAULT_TABLES,
)
from memagent.core import canonical_json
from memagent.gateway import (
    DEFAULT_BUDGET,
    BackendUnreachableError,
    BudgetExceededError,
    GatewayConfig,
    GatewayConfigError,
    GatewayError,
    OracleBackend,
    ReasonerGateway,
    ReasonerRole,
    RemoteBackend,
    SchemaViolationError,
)
from memagent.harness import run_suite
from memagent.lifelong import LifelongMemory
from memagent.preprocessor import Preprocessor
from memagent.spatial import SpatialMemory
from memagent.temporal import TemporalMemory
from perfbench.spans import LOG_KINDS


def _plan_payload(**overrides):
    payload = {
        "instruction": "put banana on kitchen counter",
        "goals": [
            {"kind": "at", "obj": "banana", "rel": "on", "place": "kitchen counter"}
        ],
        "profile": "realworld",
        "nav_points": ["dining table", "kitchen counter"],
        "agent_at": "dining table",
        "holding": None,
        "known_locations": {"banana": {"rel": "on", "place": "dining table"}},
    }
    payload.update(overrides)
    return payload


class TestValidation:
    def test_bad_request_rejected_before_backend(self):
        gateway = ReasonerGateway()
        with pytest.raises(SchemaViolationError):
            gateway.invoke(ReasonerRole.PLANNER, {"instruction": ""})

    def test_bad_response_rejected(self):
        class BrokenBackend:
            def invoke(self, role, payload):
                return {"steps": "not a list"}

        gateway = ReasonerGateway(backend=BrokenBackend())
        with pytest.raises(SchemaViolationError):
            gateway.invoke(ReasonerRole.PLANNER, _plan_payload())

    def test_critic_rejection_needs_reason(self):
        class CurtBackend:
            def invoke(self, role, payload):
                return {"decision": "reject"}

        gateway = ReasonerGateway(backend=CurtBackend())
        with pytest.raises(SchemaViolationError):
            gateway.invoke(ReasonerRole.CRITIC, {"action": {"verb": "open"}, "facts": []})


class TestBudget:
    def test_budget_exhaustion(self):
        gateway = ReasonerGateway(budget=2)
        payload = {"instruction": "put banana on kitchen counter"}
        gateway.invoke(ReasonerRole.QUERY_GENERATOR, payload)
        gateway.invoke(ReasonerRole.QUERY_GENERATOR, payload)
        with pytest.raises(BudgetExceededError):
            gateway.invoke(ReasonerRole.QUERY_GENERATOR, payload)

    def test_reset_budget(self):
        gateway = ReasonerGateway(budget=1)
        payload = {"instruction": "x"}
        gateway.invoke(ReasonerRole.QUERY_GENERATOR, payload)
        gateway.reset_budget()
        gateway.invoke(ReasonerRole.QUERY_GENERATOR, payload)

    @pytest.mark.parametrize(
        "component", [SpatialMemory, TemporalMemory, LifelongMemory, Preprocessor]
    )
    def test_a_gateway_of_a_component_s_own_has_no_budget(self, component):
        # Only run_episode resets a budget, and it never sees this gateway.
        args = ("put cup on table",) if component is Preprocessor else ()
        gateway = component(*args).gateway
        for _ in range(DEFAULT_BUDGET + 1):
            gateway.invoke(ReasonerRole.QUERY_GENERATOR, {"instruction": "x"})


#: One request per role, each drawing an answer with nested lists or dicts
#: where the role's answer has them.
_ROLE_PAYLOADS = {
    ReasonerRole.STEP_SUMMARIZER: {
        "kind": "compact", "entries": ["open fridge: success", "pick_up cup: failure"],
        "covers_steps": [1, 2],
    },
    ReasonerRole.QUERY_GENERATOR: {
        "instruction": "heat cup", "goal_entities": ["cup"], "last_verb": "open",
        "visible_entities": ["fridge", "cup"],
    },
    ReasonerRole.KG_CONFLICT_DETECTOR: {
        "edges": [
            {"subject": "agent", "relation": "near", "object": "cup"},
            {"subject": "agent", "relation": "holds", "object": "cup"},
            {"subject": "cup", "relation": "on", "object": "shelf"},
            {"subject": "cup", "relation": "in", "object": "fridge"},
        ]
    },
    ReasonerRole.MEMORY_EXTRACTOR: {
        "task_id": "t1", "instruction": "put cup on shelf", "outcome": "success",
        "steps_used": 3, "scn": 1, "gcn": 1, "first_seen": [["cup", "on", "table"]],
        "verbs": ["pick_up", "navigate_to", "put_down_to"],
    },
    ReasonerRole.MEMORY_UPDATER: {
        "new": {"text": "cup on shelf", "tags": ["cup", "outcome:success"]},
        "similar": [{"id": "t0-e0", "text": "cup on shelf", "tags": ["cup"]}],
    },
    ReasonerRole.PLANNER: _plan_payload(),
    ReasonerRole.CRITIC: {
        "action": {"verb": "pick_up", "target": "cup"}, "facts": [["cup", "on", "shelf"]],
        "holding": "banana", "plan_suffix": [], "goals": [],
    },
}

_JSON_TYPES = (dict, list, str, int, float, bool, type(None))


def _containers(doc) -> list:
    """Every list, tuple and dict inside ``doc``, ``doc`` included."""
    found, stack = [], [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            found.append(node)
            stack.extend(node.values())
        elif isinstance(node, (list, tuple)):
            found.append(node)
            stack.extend(node)
    return found


def _json_closed(answer) -> bool:
    """Whether ``answer`` is made of plain JSON values only, so that a remote
    model could have sent it."""
    try:
        closed = json.loads(canonical_json(answer)) == answer
    except (TypeError, ValueError):
        return False
    # Equality alone lets a str subclass, such as an enum member, through.
    values = [v for c in _containers(answer) for v in (c.values() if isinstance(c, dict) else c)]
    return closed and all(type(v) in _JSON_TYPES for v in [answer, *values])


def _aliased(payload, answer) -> bool:
    """Whether some list or dict of ``answer`` is reachable from ``payload``."""
    return not {id(c) for c in _containers(answer)}.isdisjoint(map(id, _containers(payload)))


def _wipe(doc) -> None:
    """Empty every list and dict of ``doc``, as a careless caller might."""
    for container in _containers(doc):
        if not isinstance(container, tuple):
            container.clear()


class TestOracleBackend:
    @pytest.mark.parametrize("role", list(ReasonerRole), ids=lambda role: role.value)
    def test_pure_function_of_inputs(self, role):
        backend = OracleBackend()
        payload = copy.deepcopy(_ROLE_PAYLOADS[role])
        first = backend.invoke(role, payload)
        expected = copy.deepcopy(first)
        assert backend.invoke(role, json.loads(json.dumps(payload))) == expected
        assert payload == _ROLE_PAYLOADS[role]
        assert _json_closed(first)
        assert not _aliased(payload, first)
        _wipe(first)  # caller mutation must not leak
        assert backend.invoke(role, payload) == expected

    @pytest.mark.parametrize("parallel", [True, False])
    def test_suite_answers_are_closed_json_and_unaliased(self, parallel, monkeypatch):
        # The oracle hands each answer over as its rule built it, so every
        # answer of a real run must be plain JSON that shares nothing with
        # its request or with a later answer.
        calls = []
        invoke = OracleBackend.invoke

        def recording(self, role, payload):
            answer = invoke(self, role, payload)
            calls.append((role, copy.deepcopy(payload), copy.deepcopy(answer),
                          _json_closed(answer), _aliased(payload, answer)))
            return answer

        monkeypatch.setattr(OracleBackend, "invoke", recording)
        run_suite(seed=3, passes=2, failure_p=0.1, parallel=parallel)
        monkeypatch.undo()
        assert {role for role, *_ in calls} == set(ReasonerRole)
        assert [role for role, _, _, closed, _ in calls if not closed] == []
        assert [role for role, _, _, _, aliased in calls if aliased] == []
        backend = OracleBackend()
        for role, payload, answer, _, _ in calls:
            _wipe(backend.invoke(role, payload))
            assert backend.invoke(role, payload) == answer, role

    def test_step_summary_includes_failure_reason(self):
        out = OracleBackend().invoke(
            ReasonerRole.STEP_SUMMARIZER,
            {
                "kind": "step",
                "action": {"verb": "pick_up", "target": "cup"},
                "outcome": "failure",
                "failure_reason": "hands full",
            },
        )
        assert out["summary"] == "pick_up cup: failure (hands full)"

    def test_compaction_caps_length(self):
        out = OracleBackend().invoke(
            ReasonerRole.STEP_SUMMARIZER,
            {
                "kind": "compact",
                "entries": ["x" * 300, "y" * 300],
                "covers_steps": [1, 2],
            },
        )
        assert len(out["summary"]) <= 420
        assert out["summary"].startswith("steps 1-2:")

    def test_planner_solves_known_world(self):
        out = OracleBackend().invoke(ReasonerRole.PLANNER, _plan_payload())
        verbs = [s["verb"] for s in out["steps"]]
        assert verbs == ["pick_up", "navigate_to", "put_down_to", "task_complete"]

    def test_planner_explores_when_object_unknown(self):
        out = OracleBackend().invoke(
            ReasonerRole.PLANNER, _plan_payload(known_locations={})
        )
        assert out["steps"][0]["verb"] == "navigate_to"
        assert len(out["steps"]) == 1

    def test_critic_rejects_pick_with_full_hands(self):
        out = OracleBackend().invoke(
            ReasonerRole.CRITIC,
            {
                "action": {"verb": "pick_up", "target": "cup"},
                "facts": [],
                "holding": "banana",
                "plan_suffix": [],
                "goals": [],
            },
        )
        assert out["decision"] == "reject"
        assert "hands full" in out["reason"]

    def test_critic_blocks_premature_completion(self):
        out = OracleBackend().invoke(
            ReasonerRole.CRITIC,
            {
                "action": {"verb": "task_complete"},
                "facts": [["banana", "on", "dining table"]],
                "holding": None,
                "plan_suffix": [],
                "goals": [
                    {"kind": "at", "obj": "banana", "rel": "on", "place": "kitchen counter"}
                ],
            },
        )
        assert out["decision"] == "reject"

    def test_conflict_detector_flags_exclusive_pair(self):
        out = OracleBackend().invoke(
            ReasonerRole.KG_CONFLICT_DETECTOR,
            {
                "edges": [
                    {"subject": "agent", "relation": "near", "object": "cup", "step_index": 1},
                    {"subject": "agent", "relation": "holds", "object": "cup", "step_index": 2},
                ]
            },
        )
        assert [0, 1] in out["conflicts"]


def _reference_detect_conflicts(p: dict) -> dict:
    """The oracle conflict detector as three passes over the edges, as it
    was before ``ConflictRules``: the reference the rules must agree with."""
    edges = p["edges"]
    exclusive = [frozenset(pair) for pair in p.get("exclusive_pairs", DEFAULT_EXCLUSIVE_PAIRS)]
    groups = [set(g) for g in p.get("functional_groups", DEFAULT_FUNCTIONAL_GROUPS)]
    state_sets = [set(s) for s in p.get("state_sets", DEFAULT_STATE_SETS)]
    conflicts = []

    def one_object_per_subject(selected):
        by_subject = {}
        for i in selected:
            by_subject.setdefault(edges[i]["subject"], []).append(i)
        for idxs in by_subject.values():
            if len({edges[i]["object"] for i in idxs}) > 1:
                conflicts.append(sorted(idxs))

    # Pair-exclusive relations on the same (subject, object).
    by_pair = {}
    for i, edge in enumerate(edges):
        by_pair.setdefault((edge["subject"], edge["object"]), []).append(i)
    for idxs in by_pair.values():
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                ra, rb = edges[idxs[a]]["relation"], edges[idxs[b]]["relation"]
                if ra != rb and frozenset((ra, rb)) in exclusive:
                    conflicts.append(sorted([idxs[a], idxs[b]]))

    # Functional relations: one object per subject within each group.
    for group in groups:
        one_object_per_subject(i for i, e in enumerate(edges) if e["relation"] in group)
    # State edges: one value per state set of a subject.
    for values in state_sets:
        one_object_per_subject(
            i for i, e in enumerate(edges) if e["relation"] == "is" and e["object"] in values
        )

    unique = sorted({tuple(group) for group in conflicts})
    return {"conflicts": [list(group) for group in unique]}


_RULE_NAMES = ["agent", "cup", "table", "oven"]
_RULE_RELATIONS = ["on", "in", "at", "near", "holds", "is", "under"]
_RULE_VALUES = ["open", "closed", "on", "off", "heated"]
#: Few names, so that keys repeat and slots fill; objects include the state
#: values, so every state rule fires.
_rule_edges = st.lists(
    st.fixed_dictionaries({
        "subject": st.sampled_from(_RULE_NAMES),
        "relation": st.sampled_from(_RULE_RELATIONS),
        "object": st.sampled_from(_RULE_NAMES + _RULE_VALUES),
    }),
    max_size=14,
)
_tables = st.fixed_dictionaries({
    "exclusive_pairs": st.lists(st.lists(st.sampled_from(_RULE_RELATIONS), min_size=2, max_size=2),
                                max_size=4),
    "functional_groups": st.lists(st.lists(st.sampled_from(_RULE_RELATIONS), min_size=1,
                                           max_size=3), max_size=4),
    "state_sets": st.lists(st.lists(st.sampled_from(_RULE_VALUES), min_size=1, max_size=3),
                           max_size=3),
})


def _edge(subject, relation, obj):
    return {"subject": subject, "relation": relation, "object": obj}


class TestConflictRules:
    @settings(max_examples=400, deadline=None)
    @given(edges=_rule_edges)
    def test_default_tables_give_the_reference_answer(self, edges):
        for payload in ({"edges": edges}, dict(DEFAULT_TABLES, edges=edges)):
            assert OracleBackend().invoke(ReasonerRole.KG_CONFLICT_DETECTOR, payload) == (
                _reference_detect_conflicts(payload)
            )

    @settings(max_examples=400, deadline=None)
    @given(edges=_rule_edges, tables=_tables)
    def test_any_tables_give_the_reference_answer(self, edges, tables):
        payload = dict(tables, edges=edges)
        assert OracleBackend().invoke(ReasonerRole.KG_CONFLICT_DETECTOR, payload) == (
            _reference_detect_conflicts(payload)
        )

    def test_an_exclusive_pair_conflicts_two_facts_at_a_time(self):
        edges = [
            _edge("cup", "on", "table"),
            _edge("cup", "in", "oven"),
            _edge("table", "near", "agent"),
            _edge("table", "near", "agent"),
            _edge("table", "holds", "agent"),
        ]
        keys = [(e["subject"], e["relation"], e["object"]) for e in edges]
        assert DEFAULT_RULES.conflicts(keys) == [[0, 1], [2, 4], [3, 4]]

    def test_slots_of_each_rule(self):
        keys = [
            ("oven", "is", "closed"),
            ("oven", "is", "off"),
            ("oven", "is", "heated"),
            ("oven", "is", "open"),
            ("agent", "holds", "cup"),
            ("agent", "holds", "knife"),
            ("cup", "on", "table"),
            ("cup", "at", "oven"),
            ("cup", "in", "table"),
        ]
        # A state set holds one value; holds is a group of its own; on/at/in
        # form one group, and on/in also an exclusive pair on one object.
        assert DEFAULT_RULES.conflicts(keys) == [[0, 3], [4, 5], [6, 7, 8], [6, 8]]

    def test_the_default_tables_build_no_rules(self, monkeypatch):
        built = []
        monkeypatch.setattr(oracle, "ConflictRules", lambda **tables: built.append(tables))
        payload = dict(DEFAULT_TABLES, edges=[_edge("cup", "on", "table")])
        oracle.detect_conflicts(payload)
        oracle.detect_conflicts({"edges": payload["edges"]})
        assert built == []
        with pytest.raises(AttributeError):
            oracle.detect_conflicts(dict(payload, state_sets=[]))
        assert built == [dict(DEFAULT_TABLES, state_sets=[])]


class TestInvokeParallel:
    def test_results_in_request_order(self):
        gateway = ReasonerGateway()
        results = gateway.invoke_parallel(
            [
                (ReasonerRole.QUERY_GENERATOR, {"instruction": "first"}),
                (ReasonerRole.QUERY_GENERATOR, {"instruction": "second"}),
            ]
        )
        assert results[0]["query"].startswith("first")
        assert results[1]["query"].startswith("second")

    @pytest.mark.parametrize("parallel", [True, False])
    def test_gateway_faults_degrade_to_fallbacks(self, parallel, caplog):
        gateway = ReasonerGateway(backend=_DeadBackend())
        caplog.set_level(logging.WARNING, logger="memagent")
        answers = gateway.invoke_parallel(
            [
                (ReasonerRole.QUERY_GENERATOR, {"instruction": "first"}),
                (ReasonerRole.CRITIC, _CRITIC_PAYLOAD),
            ],
            parallel,
        )
        assert answers == [
            {"query": "first", "entities": []},
            {"decision": "approve", "reason": "critic unavailable"},
        ]
        assert len(caplog.records) == 2

    @pytest.mark.parametrize("parallel", [True, False])
    def test_planner_fault_is_raised_after_every_call_finished(self, parallel):
        class PlannerDown:
            latency_bound = True

            def __init__(self):
                self.answered = []

            def invoke(self, role, payload):
                if role is ReasonerRole.PLANNER:
                    raise BackendUnreachableError("planner down")
                time.sleep(0.05)  # still running when the planner fails
                self.answered.append(payload["instruction"])
                return {"query": payload["instruction"]}

        backend = PlannerDown()
        gateway = ReasonerGateway(backend=backend)
        with pytest.raises(BackendUnreachableError, match="planner down"):
            gateway.invoke_parallel(
                [
                    (ReasonerRole.QUERY_GENERATOR, {"instruction": "before"}),
                    (ReasonerRole.PLANNER, _plan_payload()),
                    (ReasonerRole.QUERY_GENERATOR, {"instruction": "after"}),
                ],
                parallel,
            )
        assert sorted(backend.answered) == ["after", "before"]

    def test_runs_concurrently(self):
        class SlowBackend:
            def invoke(self, role, payload):
                time.sleep(0.15)
                return {"query": "q"}

        gateway = ReasonerGateway(backend=SlowBackend())
        start = time.perf_counter()
        gateway.invoke_parallel(
            [(ReasonerRole.QUERY_GENERATOR, {"instruction": "x"})] * 4
        )
        assert time.perf_counter() - start < 0.45

    def test_compute_bound_backend_runs_inline_in_order(self):
        class RecordingBackend:
            latency_bound = False

            def __init__(self):
                self.calls = []

            def invoke(self, role, payload):
                self.calls.append((payload["instruction"], threading.current_thread()))
                return {"query": payload["instruction"]}

        backend = RecordingBackend()
        gateway = ReasonerGateway(backend=backend)
        assert not gateway.latency_bound
        results = gateway.invoke_parallel(
            [(ReasonerRole.QUERY_GENERATOR, {"instruction": str(i)}) for i in range(3)]
        )
        assert [r["query"] for r in results] == ["0", "1", "2"]
        assert backend.calls == [(str(i), threading.current_thread()) for i in range(3)]

    def test_backends_say_whether_they_wait(self):
        assert not ReasonerGateway(backend=OracleBackend()).latency_bound
        assert ReasonerGateway(backend=RemoteBackend("http://127.0.0.1:9", "m")).latency_bound
        assert ReasonerGateway(backend=object()).latency_bound


class _DeadBackend:
    def invoke(self, role, payload):
        raise BackendUnreachableError("connection refused")


class _EmptyAnswerBackend:
    """Answers every role with a document its response check rejects."""

    def invoke(self, role, payload):
        return {}


_CRITIC_PAYLOAD = {
    "action": {"verb": "open", "target": "fridge"},
    "facts": [["fridge", "is", "open"]],
}
_UPDATER_PAYLOAD = {
    "new": {"id": "e1", "text": "x", "tags": []},
    "similar": [{"id": "e0", "text": "x"}],
}

#: (role, payload, fallback answer, fallback kind of the benchmark's log
#: counter, a request that fails validation but keeps what the fallback
#: reads, or None where the request check covers every field it reads).
_FALLBACK_CASES = {
    "summarizer-step": (
        ReasonerRole.STEP_SUMMARIZER,
        {"kind": "step", "action": {"verb": "open", "target": "fridge"}, "outcome": "failure",
         "failure_reason": "locked"},
        {"summary": "open fridge: failure"},
        "fallbacks.template_summarizer",
        None,
    ),
    "summarizer-compact": (
        ReasonerRole.STEP_SUMMARIZER,
        {"kind": "compact", "entries": ["a" * 300, "b" * 300], "covers_steps": [1, 3]},
        {"summary": "steps 1-3: " + "a" * 300 + "; " + "b" * 98},
        "fallbacks.template_summarizer",
        None,
    ),
    "query": (
        ReasonerRole.QUERY_GENERATOR,
        {"instruction": "heat the apple", "goal_entities": ["the apple"], "last_verb": "open",
         "visible_entities": ["apple", "the apple"]},
        {"query": "heat the apple", "entities": ["the apple", "apple"]},
        "fallbacks.query_instruction",
        None,
    ),
    "conflict": (
        ReasonerRole.KG_CONFLICT_DETECTOR,
        {"edges": [{"subject": "cup", "relation": "on", "object": "table"},
                   {"subject": "cup", "relation": "in", "object": "fridge"}]},
        {"conflicts": [[0, 1]]},
        "fallbacks.conflict_oracle",
        None,
    ),
    "extractor": (
        ReasonerRole.MEMORY_EXTRACTOR,
        {"task_id": "t1", "instruction": "put cup on table", "outcome": "failure", "steps_used": 4},
        {"episodic": ["task t1: put cup on table -> failure"], "semantic": []},
        "fallbacks.template_extractor",
        None,
    ),
    "updater": (
        ReasonerRole.MEMORY_UPDATER,
        _UPDATER_PAYLOAD,
        {"action": "add"},
        "fallbacks.add_only",
        dict(_UPDATER_PAYLOAD, similar=None),
    ),
    "critic": (
        ReasonerRole.CRITIC,
        _CRITIC_PAYLOAD,
        {"decision": "approve", "reason": "critic unavailable"},
        "fallbacks.critic_auto_approve",
        dict(_CRITIC_PAYLOAD, facts=None),
    ),
    "planner": (ReasonerRole.PLANNER, _plan_payload(), None, None, _plan_payload(goals=None)),
}

_FAULTS = ("unreachable_backend", "invalid_response", "invalid_request")


class TestFallbacks:
    @pytest.mark.parametrize(
        "case, fault",
        [
            (case, fault)
            for case, spec in _FALLBACK_CASES.items()
            for fault in _FAULTS
            if fault != "invalid_request" or spec[4] is not None
        ],
    )
    def test_fault_degrades_to_the_role_fallback(self, case, fault, caplog):
        role, payload, answer, kind, bad_request = _FALLBACK_CASES[case]
        backend = {"unreachable_backend": _DeadBackend(), "invalid_response": _EmptyAnswerBackend()}
        gateway = ReasonerGateway(backend=backend.get(fault))
        if fault == "invalid_request":
            payload = bad_request
        caplog.set_level(logging.WARNING, logger="memagent")
        if role is ReasonerRole.PLANNER:
            with pytest.raises(GatewayError):
                gateway.ask(role, payload)
            assert not caplog.records
            return
        assert gateway.ask(role, payload) == answer
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        # Classified as the benchmark's log counter does: first phrase found.
        assert next(k for phrase, k in LOG_KINDS.items() if phrase in record.msg) == kind


class _StubHandler(BaseHTTPRequestHandler):
    # Mutated per test: a list of "ok", "garbage", "no_choices" or "http<status>".
    behaviors = []

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        behavior = self.behaviors.pop(0) if self.behaviors else "ok"
        if behavior.startswith("http"):
            self.send_response(int(behavior[len("http"):]))
            self.end_headers()
            return
        if behavior == "garbage":
            body = b"not json at all"
        elif behavior == "no_choices":
            body = json.dumps({"choices": []}).encode()
        else:
            content = json.dumps({"query": "stubbed"})
            body = json.dumps(
                {"choices": [{"message": {"content": content}}]}
            ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.behaviors = []
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()


class TestRemoteBackend:
    def test_round_trip(self, stub_server):
        backend = RemoteBackend(base_url=stub_server, model="m")
        out = backend.invoke(ReasonerRole.QUERY_GENERATOR, {"instruction": "x"})
        assert out == {"query": "stubbed"}

    def test_retries_transient_500(self, stub_server):
        _StubHandler.behaviors = ["http500", "ok"]
        waits = []
        backend = RemoteBackend(base_url=stub_server, model="m", max_retries=2, sleep=waits.append)
        out = backend.invoke(ReasonerRole.QUERY_GENERATOR, {"instruction": "x"})
        assert out == {"query": "stubbed"}
        assert waits == [gateway_module.RETRY_BACKOFF_S]

    def test_retries_back_off_exponentially_up_to_a_bound(self, stub_server):
        _StubHandler.behaviors = ["http500"] * 7 + ["ok"]
        waits = []
        backend = RemoteBackend(base_url=stub_server, model="m", max_retries=7, sleep=waits.append)
        out = backend.invoke(ReasonerRole.QUERY_GENERATOR, {"instruction": "x"})
        assert out == {"query": "stubbed"}
        base, bound = gateway_module.RETRY_BACKOFF_S, gateway_module.RETRY_BACKOFF_MAX_S
        assert waits == [min(base * 2**i, bound) for i in range(7)]
        assert waits[-1] == bound > waits[0]

    def test_no_wait_after_the_last_attempt(self, stub_server):
        _StubHandler.behaviors = ["garbage"] * 3
        waits = []
        backend = RemoteBackend(base_url=stub_server, model="m", max_retries=2, sleep=waits.append)
        with pytest.raises(SchemaViolationError):
            backend.invoke(ReasonerRole.QUERY_GENERATOR, {"instruction": "x"})
        assert len(waits) == 2

    def test_client_error_is_not_retried(self, stub_server):
        _StubHandler.behaviors = ["http400", "ok"]
        waits = []
        backend = RemoteBackend(base_url=stub_server, model="m", max_retries=3, sleep=waits.append)
        with pytest.raises(BackendUnreachableError, match="400"):
            backend.invoke(ReasonerRole.QUERY_GENERATOR, {"instruction": "x"})
        assert _StubHandler.behaviors == ["ok"]
        assert waits == []

    @pytest.mark.parametrize("status", ["http408", "http429"])
    def test_try_again_statuses_are_retried(self, stub_server, status):
        _StubHandler.behaviors = [status, "ok"]
        backend = RemoteBackend(base_url=stub_server, model="m", max_retries=1, sleep=[].append)
        out = backend.invoke(ReasonerRole.QUERY_GENERATOR, {"instruction": "x"})
        assert out == {"query": "stubbed"}

    def test_malformed_body_raises_schema_error(self, stub_server):
        _StubHandler.behaviors = ["garbage", "garbage", "garbage", "garbage"]
        backend = RemoteBackend(base_url=stub_server, model="m", max_retries=1, sleep=[].append)
        with pytest.raises(SchemaViolationError):
            backend.invoke(ReasonerRole.QUERY_GENERATOR, {"instruction": "x"})

    def test_empty_choices_raise_schema_error(self, stub_server):
        _StubHandler.behaviors = ["no_choices"]
        backend = RemoteBackend(base_url=stub_server, model="m", max_retries=0)
        with pytest.raises(SchemaViolationError):
            backend.invoke(ReasonerRole.QUERY_GENERATOR, {"instruction": "x"})

    def test_unreachable_host(self):
        backend = RemoteBackend(
            base_url="http://127.0.0.1:1", model="m", max_retries=0, timeout_ms=300
        )
        with pytest.raises(BackendUnreachableError):
            backend.invoke(ReasonerRole.QUERY_GENERATOR, {"instruction": "x"})

    @pytest.mark.parametrize("base_url", ["not a url", "http://"])
    def test_invalid_url_is_unreachable_not_malformed(self, base_url):
        # requests raises these before sending anything, as ValueErrors.
        backend = RemoteBackend(base_url=base_url, model="m", max_retries=0)
        with pytest.raises(BackendUnreachableError):
            backend.invoke(ReasonerRole.QUERY_GENERATOR, {"instruction": "x"})

    def test_invalid_url_is_not_retried(self, monkeypatch):
        import requests

        attempts = []
        post = requests.post

        def counting_post(*args, **kwargs):
            attempts.append(args)
            return post(*args, **kwargs)

        monkeypatch.setattr(requests, "post", counting_post)
        backend = RemoteBackend(base_url="not a url", model="m", max_retries=3)
        with pytest.raises(BackendUnreachableError):
            backend.invoke(ReasonerRole.QUERY_GENERATOR, {"instruction": "x"})
        assert len(attempts) == 1


class _OracleStubHandler(BaseHTTPRequestHandler):
    """Answers each chat-completions request with the role's oracle rule."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        doc = json.loads(body["messages"][0]["content"])
        answer = oracle.RULES[ReasonerRole(doc["role"])](doc["payload"])
        data = json.dumps({"choices": [{"message": {"content": canonical_json(answer)}}]})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data.encode())

    def log_message(self, *args):
        pass


class TestRemoteSuite:
    def test_suite_through_the_remote_backend_reports_as_the_oracle(self, tmp_path):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _OracleStubHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        config = tmp_path / "gateway.json"
        config.write_text(json.dumps({"backend": "remote", "remote": {
            "base_url": f"http://127.0.0.1:{server.server_address[1]}", "model": "oracle-stub",
        }}))
        try:
            remote = run_suite(config_path=str(config), seed=3, passes=2, failure_p=0.1)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        oracle = run_suite(seed=3, passes=2, failure_p=0.1)
        assert remote["report"].pop("backend") == "remote"
        assert oracle["report"].pop("backend") == "oracle"
        assert remote["report"] == oracle["report"]


class TestGatewayConfig:
    def test_from_file_oracle_default(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"budget": 50}))
        config = GatewayConfig.from_file(str(path))
        assert config.backend == "oracle"
        assert config.budget == 50
        gateway = ReasonerGateway.from_config(config)
        assert isinstance(gateway.backend, OracleBackend)

    def test_from_file_remote(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {"backend": "remote", "remote": {"base_url": "http://h", "model": "m"}}
            )
        )
        gateway = ReasonerGateway.from_config(GatewayConfig.from_file(str(path)))
        assert isinstance(gateway.backend, RemoteBackend)

    def test_misspelled_backend_in_file_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"backend": "remot"}))
        with pytest.raises(ValueError, match="unknown backend 'remot'"):
            GatewayConfig.from_file(str(path))

    @pytest.mark.parametrize("text", ["[]", '{"remote": "http://h"}', "{backend: oracle}"])
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(GatewayConfigError):
            GatewayConfig.from_file(str(path))

    @pytest.mark.parametrize(
        "fields",
        [
            {"backend": "remote"},
            {"backend": "remote", "base_url": "http://h"},
            {"backend": "remote", "model": "m"},
            {"timeout_ms": 0},
            {"timeout_ms": -5},
            {"max_retries": -1},
            {"max_retries": 1.5},
            {"budget": 0},
            {"budget": "50"},
            {"backend": "remote", "base_url": "not a url", "model": "m"},
            {"backend": "remote", "base_url": "http://", "model": "m"},
        ],
    )
    def test_invalid_config_rejected(self, fields):
        with pytest.raises(GatewayConfigError):
            GatewayConfig(**fields)

    @pytest.mark.parametrize(
        "spelling", ["NaN", "Infinity", "1e400", "1" + "0" * 400],
        ids=["NaN", "Infinity", "1e400", "400-digit-int"],
    )
    def test_non_finite_timeout_in_file_rejected(self, tmp_path, spelling):
        # json.load reads all four; as a timeout each raised a bare
        # ValueError or OverflowError on the first remote call.
        path = tmp_path / "config.json"
        path.write_text(
            '{"backend": "remote", "remote": {"base_url": "http://h", "model": "m", '
            f'"timeout_ms": {spelling}}}}}'
        )
        with pytest.raises(GatewayConfigError, match="timeout_ms"):
            GatewayConfig.from_file(str(path))

    def test_timeout_above_the_socket_limit_in_file_rejected(self, tmp_path):
        # A socket refuses a timeout above threading.TIMEOUT_MAX seconds
        # with an OverflowError on every remote call.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"backend": "remote", "remote": {
            "base_url": "http://h", "model": "m", "timeout_ms": 1e13}}))
        with pytest.raises(GatewayConfigError, match="timeout_ms"):
            GatewayConfig.from_file(str(path))
        with pytest.raises(GatewayConfigError, match="timeout_ms"):
            GatewayConfig(timeout_ms=math.nextafter(threading.TIMEOUT_MAX * 1000, math.inf))

    def test_largest_timeout_reaches_the_transport(self):
        config = GatewayConfig(backend="remote", base_url="http://127.0.0.1:1", model="m",
                               timeout_ms=threading.TIMEOUT_MAX * 1000, max_retries=0)
        gateway = ReasonerGateway.from_config(config)
        with pytest.raises(BackendUnreachableError):
            gateway.backend.invoke(ReasonerRole.QUERY_GENERATOR, {"instruction": "x"})

    def test_config_error_is_a_value_error(self):
        assert issubclass(GatewayConfigError, ValueError)
        assert not issubclass(GatewayConfigError, GatewayError)


# ---------------------------------------------------------------------------
# The role table's schemas against the hand-written validators they replaced
# ---------------------------------------------------------------------------
# A frozen copy of the 14 per-role validators the gateway used before its
# schemas became data; the reference the table's verdicts are compared with.


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaViolationError(msg)


def _nonempty_str(doc: dict, key: str) -> None:
    value = doc.get(key)
    _check(isinstance(value, str) and value.strip() != "", f"{key} must be a non-blank string")


def _validate_summarizer_request(p: dict) -> None:
    kind = p.get("kind")
    _check(kind in ("step", "compact"), "kind must be 'step' or 'compact'")
    if kind == "step":
        _check(isinstance(p.get("action"), dict), "action must be an object")
        _check(p.get("outcome") in ("success", "failure"), "outcome must be success/failure")
    else:
        _check(isinstance(p.get("entries"), list) and p["entries"], "entries must be non-empty list")
        span = p.get("covers_steps")
        _check(
            isinstance(span, (list, tuple)) and len(span) == 2 and span[0] <= span[1],
            "covers_steps must be [first, last]",
        )


def _validate_summarizer_response(r: dict) -> None:
    _nonempty_str(r, "summary")


def _validate_query_request(p: dict) -> None:
    _nonempty_str(p, "instruction")


def _validate_query_response(r: dict) -> None:
    _nonempty_str(r, "query")
    names = r.get("entities")
    _check(isinstance(names, list), "entities must be a list")
    for name in names:
        _check(isinstance(name, str) and name.strip() != "", "entity names must be non-blank")


def _validate_conflict_request(p: dict) -> None:
    _check(isinstance(p.get("edges"), list), "edges must be a list")
    for edge in p["edges"]:
        _check(
            isinstance(edge, dict) and {"subject", "relation", "object"} <= set(edge),
            "each edge needs subject/relation/object",
        )


def _validate_conflict_response(r: dict) -> None:
    groups = r.get("conflicts")
    _check(isinstance(groups, list), "conflicts must be a list")
    for group in groups:
        _check(
            isinstance(group, list) and len(group) >= 2
            and all(isinstance(i, int) and not isinstance(i, bool) for i in group),
            "each conflict group must list >= 2 edge indices",
        )


def _validate_extractor_request(p: dict) -> None:
    _nonempty_str(p, "task_id")
    _nonempty_str(p, "instruction")
    _check(p.get("outcome") in ("success", "failure"), "outcome must be success/failure")


def _validate_extractor_response(r: dict) -> None:
    _check(
        isinstance(r.get("episodic"), list) and len(r["episodic"]) >= 1,
        "episodic must be a non-empty list",
    )
    _check(isinstance(r.get("semantic"), list), "semantic must be a list")
    for text in r["episodic"] + r["semantic"]:
        _check(isinstance(text, str) and text.strip() != "", "entity texts must be non-blank")


def _validate_updater_request(p: dict) -> None:
    _check(isinstance(p.get("new"), dict), "new must be an object")
    _check(isinstance(p.get("similar"), list), "similar must be a list")


def _validate_updater_response(r: dict) -> None:
    _check(r.get("action") in ("add", "update", "replace"), "action must be add/update/replace")
    if r["action"] in ("update", "replace"):
        _nonempty_str(r, "target_id")


def _validate_planner_request(p: dict) -> None:
    _nonempty_str(p, "instruction")
    _check(isinstance(p.get("goals"), list), "goals must be a list")
    _check(p.get("profile") in ("alfred", "realworld"), "profile must be alfred/realworld")
    _check(isinstance(p.get("nav_points"), list) and p["nav_points"], "nav_points required")


def _validate_planner_response(r: dict) -> None:
    _check(isinstance(r.get("steps"), list), "steps must be a list")
    for step in r["steps"]:
        _check(isinstance(step, dict) and "verb" in step, "each step needs a verb")


def _validate_critic_request(p: dict) -> None:
    _check(isinstance(p.get("action"), dict), "action must be an object")
    _check(isinstance(p.get("facts"), list), "facts must be a list")


def _validate_critic_response(r: dict) -> None:
    _check(r.get("decision") in ("approve", "reject"), "decision must be approve/reject")
    if r["decision"] == "reject":
        _nonempty_str(r, "reason")


_REFERENCE_VALIDATORS = {
    ReasonerRole.STEP_SUMMARIZER: (_validate_summarizer_request, _validate_summarizer_response),
    ReasonerRole.QUERY_GENERATOR: (_validate_query_request, _validate_query_response),
    ReasonerRole.KG_CONFLICT_DETECTOR: (_validate_conflict_request, _validate_conflict_response),
    ReasonerRole.MEMORY_EXTRACTOR: (_validate_extractor_request, _validate_extractor_response),
    ReasonerRole.MEMORY_UPDATER: (_validate_updater_request, _validate_updater_response),
    ReasonerRole.PLANNER: (_validate_planner_request, _validate_planner_response),
    ReasonerRole.CRITIC: (_validate_critic_request, _validate_critic_response),
}

#: Values each field is set to in turn: wrong types, blanks, empty and short
#: containers, and containers of wrong or incomparable items.
_ODD_VALUES = [
    None, "", "   ", "x", "step", "compact", "update", "reject", 0, 1, -1, 2.5, True,
    [], {}, [[]], [{}], [""], [" "], ["a"], ["a", 1], [1], [1, 2], [2, 1], [1, "a"],
    [True, False], [[0]], [[0, 1]], [[0, "1"]], [[0, 1.0]], [[True, 1]], (0, 1), [[1], [2]],
    [{"verb": "open"}], [{"target": "cup"}], [{"subject": "a", "relation": "on"}],
    [{"subject": "a", "relation": "on", "object": "b"}], {"verb": "open"}, {"a": 1},
]


def _verdict(check, doc):
    """What ``check`` makes of ``doc``: "accept", "reject" (it raised
    SchemaViolationError), or the type of any other exception it raised."""
    try:
        check(doc)
    except SchemaViolationError:
        return "reject"
    except Exception as exc:
        return type(exc)
    return "accept"


def _mutants(doc: dict, fields):
    """``doc``, then ``doc`` with each of ``fields`` dropped and with each set
    to every odd value."""
    yield doc
    for field in fields:
        yield {k: v for k, v in doc.items() if k != field}
        for value in _ODD_VALUES:
            yield dict(doc, **{field: value})


@pytest.fixture(scope="module")
def suite_calls():
    """Seed -> (role, request, answer) of every backend call of the seed's
    two-pass suite run, for seeds 3 and 11."""
    calls = {3: [], 11: []}
    invoke = OracleBackend.invoke
    for seed, recorded in calls.items():

        def recording(self, role, payload, recorded=recorded):
            answer = invoke(self, role, payload)
            recorded.append((role, copy.deepcopy(payload), copy.deepcopy(answer)))
            return answer

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(OracleBackend, "invoke", recording)
            run_suite(seed=seed, passes=2, failure_p=0.1)
    return calls


class TestRoleTable:
    @pytest.mark.parametrize("side", ["request", "response"])
    @pytest.mark.parametrize("role", list(ReasonerRole), ids=lambda role: role.value)
    def test_schemas_agree_with_the_hand_written_validators(self, role, side, suite_calls):
        reference = _REFERENCE_VALIDATORS[role][side == "response"]
        schema = getattr(gateway_module._ROLES[role], side)
        docs = {}
        for call_role, request, answer in suite_calls[3] + suite_calls[11]:
            if call_role is role:
                doc = request if side == "request" else answer
                docs.setdefault(canonical_json(doc), doc)
        assert docs
        fields = set(schema.fields).union(*docs.values())
        if schema.when:
            fields.update(*(case.fields for case in schema.when[1].values()))
        compared, differ = 0, []
        for doc in docs.values():
            for mutant in _mutants(doc, sorted(fields)):
                expected, got = _verdict(reference, mutant), _verdict(schema.validate, mutant)
                compared += 1
                # Where the reference crashed (a covers_steps whose bounds do
                # not compare), the table rejects the document instead.
                if got != ("reject" if isinstance(expected, type) else expected):
                    differ.append((mutant, expected, got))
        assert differ[:3] == [], f"{len(differ)} of {compared} documents"

    def test_every_fallback_answer_passes_its_response_schema(self, suite_calls):
        checked = 0
        for role, request, _ in suite_calls[3]:
            contract = gateway_module._ROLES[role]
            if contract.fallback is not None:
                _, answer = contract.fallback(request)
                contract.response.validate(answer)
                checked += 1
        assert checked > 1000

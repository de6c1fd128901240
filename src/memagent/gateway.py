"""Single gateway for every language-model-backed role in the system.

One table, ``_ROLES``, holds each role's ``RoleContract``: its request and
response schemas (data that one ``Schema.validate`` walks), its oracle rule
and its fallback. Two backends sit behind one invoke() surface, which checks
both schemas and a per-episode call budget: a deterministic oracle that
answers with the table's rules (the default, used by all tests), and a
remote chat-completions-style HTTP adapter. Callers use ask(), which
degrades a gateway fault to the role's fallback and logs it; the planner
has none, so its fault is raised. invoke_parallel() is an order-preserving
fan-out of ask() calls.

The knowledge graph's conflict policy is one ``ConflictRules`` object, built
from three tables (exclusive pairs, functional groups, state sets). The
oracle conflict detector answers with the rules of the tables its payload
carries; the spatial memory's contested-slot prune and fast conflict check
read ``DEFAULT_RULES``, the rules of the tables it sends.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from .core import canonical_json, fan_out, read_json

logger = logging.getLogger(__name__)

DEFAULT_BUDGET = 200
DEFAULT_MAX_RETRIES = 3
DEFAULT_TIMEOUT_MS = 30_000
#: Wait before the first remote retry; each later retry waits twice as long,
#: up to RETRY_BACKOFF_MAX_S.
RETRY_BACKOFF_S = 0.25
RETRY_BACKOFF_MAX_S = 4.0
API_KEY_ENV = "MEMAGENT_API_KEY"


class ReasonerRole(str, Enum):
    STEP_SUMMARIZER = "step_summarizer"
    QUERY_GENERATOR = "query_generator"
    KG_CONFLICT_DETECTOR = "kg_conflict_detector"
    MEMORY_EXTRACTOR = "memory_extractor"
    MEMORY_UPDATER = "memory_updater"
    PLANNER = "planner"
    CRITIC = "critic"


class GatewayError(Exception):
    pass


class SchemaViolationError(GatewayError):
    pass


class BackendUnreachableError(GatewayError):
    pass


class BudgetExceededError(GatewayError):
    pass


class GatewayConfigError(ValueError):
    """An invalid gateway configuration. Raised on construction, so that a
    misspelled backend does not run as the oracle and a missing URL or a
    zero budget does not run as a weak agent."""


# ---------------------------------------------------------------------------
# Schemas: what a role's request and response must hold, as data
# ---------------------------------------------------------------------------


#: A test of one field's value, and what it expects (for the message). A
#: plain tuple, which unpacks fastest.
Check = Tuple[Callable[[Any], bool], str]

TEXT: Check = (lambda v: isinstance(v, str) and v.strip() != "", "a non-blank string")

_TYPE_NAMES = {dict: "an object", list: "a list", int: "an integer"}


def typed(kind: type, min_len: int = 0) -> Check:
    """A ``kind`` value with at least ``min_len`` items."""
    expects = _TYPE_NAMES[kind] + (f" of length >= {min_len}" if min_len else "")
    return lambda v: isinstance(v, kind) and (not min_len or len(v) >= min_len), expects


def one_of(*values: str) -> Check:
    return lambda v: v in values, "one of " + "/".join(values)


def list_of(item: Check, min_len: int = 0) -> Check:
    """A list of at least ``min_len`` values, each passing ``item``."""
    test, expects = item
    return (
        lambda v: isinstance(v, list) and len(v) >= min_len and all(map(test, v)),
        f"{typed(list, min_len)[1]}, each item {expects}",
    )


def has_keys(*keys: str) -> Check:
    wanted = frozenset(keys)
    return lambda v: isinstance(v, dict) and v.keys() >= wanted, "an object with " + "/".join(keys)


def _is_span(value: Any) -> bool:
    try:
        return isinstance(value, (list, tuple)) and len(value) == 2 and value[0] <= value[1]
    except TypeError:  # bounds that do not compare
        return False


SPAN: Check = (_is_span, "[first, last] with first <= last")


@dataclass(frozen=True)
class Schema:
    """The checks a JSON object must pass: one per field, plus those of the
    schema that ``when`` picks by the value of one of those fields."""

    fields: Dict[str, Check]
    #: (field, {value: the schema that value adds}).
    when: Optional[Tuple[str, Dict[str, "Schema"]]] = None

    def validate(self, doc: Any) -> None:
        """Raise ``SchemaViolationError`` unless ``doc`` passes every check."""
        if not isinstance(doc, dict):
            raise SchemaViolationError("expected a JSON object")
        for name, (test, expects) in self.fields.items():
            if not test(doc.get(name)):
                raise SchemaViolationError(f"{name} must be {expects}")
        if self.when is not None:
            # Looked up only now that the field has passed its own check: an
            # odd value (an unhashable one, say) would raise here.
            name, cases = self.when
            schema = cases.get(doc[name])
            if schema is not None:
                schema.validate(doc)


# ---------------------------------------------------------------------------
# Oracle backend: pure rule-based behaviors for every role
# ---------------------------------------------------------------------------

COMPACTION_MAX_CHARS = 400

#: State values toggled by open/close/turn_on/turn_off, used by the oracle
#: critic to spot already-satisfied effects.
_TOGGLE_EFFECT = {
    "open": "open",
    "close": "closed",
    "turn_on": "on",
    "turn_off": "off",
}


def _action_text(action: dict) -> str:
    target = action.get("target")
    return f"{action['verb']} {target}" if target else action["verb"]


def _oracle_summarize(p: dict) -> dict:
    if p["kind"] == "step":
        text = f"{_action_text(p['action'])}: {p['outcome']}"
        if p["outcome"] == "failure" and p.get("failure_reason"):
            text += f" ({p['failure_reason']})"
        return {"summary": text}
    first, last = p["covers_steps"]
    joined = "; ".join(p["entries"])
    if len(joined) > COMPACTION_MAX_CHARS:
        joined = joined[: COMPACTION_MAX_CHARS - 3] + "..."
    return {"summary": f"steps {first}-{last}: {joined}"}


#: Instruments implied by task wording but usually absent from it; the
#: query must name them or the graph retrieval never reaches their nodes.
_IMPLIED_TOOLS = [("heat", "oven"), ("clean", "faucet"), ("clean", "sink"), ("slice", "knife")]


def _oracle_query(p: dict) -> dict:
    instruction = p["instruction"]
    parts = [instruction]
    tools = [tool for word, tool in _IMPLIED_TOOLS if word in instruction and tool not in instruction]
    if tools:
        parts.append("needs: " + ", ".join(tools))
    if p.get("last_verb"):
        parts.append(f"last action: {p['last_verb']}")
    if p.get("visible_entities"):
        parts.append("seen: " + ", ".join(p["visible_entities"]))
    return {"query": " | ".join(parts)}


#: Relation pairs that cannot both hold for one (subject, object) pair.
DEFAULT_EXCLUSIVE_PAIRS: List[List[str]] = [["near", "holds"], ["on", "in"]]

#: Relation groups where a subject may point at only one object
#: (object locations, the single-held-object rule).
DEFAULT_FUNCTIONAL_GROUPS: List[List[str]] = [["on", "in", "at"], ["holds"]]

#: Values of ``is`` of which a subject holds at most one per set: a door is
#: open or closed, a device on or off. Other states (heated, cleaned,
#: sliced) never conflict.
DEFAULT_STATE_SETS: List[List[str]] = [["open", "closed"], ["on", "off"]]

#: The three tables under the names the conflict detector's payload gives
#: them.
DEFAULT_TABLES: Dict[str, List[List[str]]] = {
    "exclusive_pairs": DEFAULT_EXCLUSIVE_PAIRS,
    "functional_groups": DEFAULT_FUNCTIONAL_GROUPS,
    "state_sets": DEFAULT_STATE_SETS,
}


def _slots_of(kind: str, tables: Iterable[Iterable[str]]) -> Dict[str, Tuple[tuple, ...]]:
    """Per member of the tables, the slots ``(kind, index)`` of the tables
    that hold it."""
    slots: Dict[str, Tuple[tuple, ...]] = {}
    for index, table in enumerate(tables):
        for member in set(table):
            slots[member] = slots.get(member, ()) + ((kind, index),)
    return slots


class ConflictRules:
    """The knowledge graph's conflict policy, built from the three tables.
    Every rule is per subject: an edge fills slots on its subject, and a
    slot that holds more than one value is a conflict.

    - An exclusive pair of two relations gives one slot per object, filled
      by the relation. It conflicts two facts at a time, so a repeated key
      gives one group per pair of facts, never one group of three.
    - A functional group gives one slot, filled by the object.
    - A state set gives one slot, filled by the value of ``is``."""

    def __init__(
        self,
        exclusive_pairs: Iterable[Iterable[str]],
        functional_groups: Iterable[Iterable[str]],
        state_sets: Iterable[Iterable[str]],
    ):
        pairs = [pair for pair in map(frozenset, exclusive_pairs) if len(pair) == 2]
        self._partners = {
            r: tuple(o for p in pairs if r in p for o in p - {r}) for pair in pairs for r in pair
        }
        self._pairs_of = _slots_of("pair", pairs)
        self._groups_of = _slots_of("group", functional_groups)
        self._states_of = _slots_of("state", state_sets)

    def exclusive_with(self, relation: str) -> Tuple[str, ...]:
        """The relations that may not hold beside ``relation`` on one
        subject and object."""
        return self._partners.get(relation, ())

    def conflicts(self, keys: Sequence[Tuple[str, str, str]]) -> List[List[int]]:
        """The sorted index groups of the ``(subject, relation, object)``
        keys that fill one slot with more than one value."""
        pairs: Dict[tuple, Dict[str, List[int]]] = {}
        one_of: Dict[tuple, Dict[str, List[int]]] = {}
        for i, (subject, relation, obj) in enumerate(keys):
            for pair in self._pairs_of.get(relation, ()):
                pairs.setdefault((subject, obj, pair), {}).setdefault(relation, []).append(i)
            slots = self._groups_of.get(relation, ())
            if relation == "is":
                slots += self._states_of.get(obj, ())
            for slot in slots:
                one_of.setdefault((subject, slot), {}).setdefault(obj, []).append(i)
        found = set()
        for held in pairs.values():
            if len(held) == 2:
                first, second = held.values()
                found.update((a, b) if a < b else (b, a) for a in first for b in second)
        for held in one_of.values():
            if len(held) > 1:
                found.add(tuple(sorted(i for idxs in held.values() for i in idxs)))
        return [list(group) for group in sorted(found)]


DEFAULT_RULES = ConflictRules(**DEFAULT_TABLES)


def _oracle_detect_conflicts(p: dict) -> dict:
    tables = {name: p.get(name, default) for name, default in DEFAULT_TABLES.items()}
    rules = DEFAULT_RULES if tables == DEFAULT_TABLES else ConflictRules(**tables)
    keys = [(e["subject"], e["relation"], e["object"]) for e in p["edges"]]
    return {"conflicts": rules.conflicts(keys)}


def _oracle_extract(p: dict) -> dict:
    episodic: List[str] = []
    semantic: List[str] = []
    if p.get("steps_used", 0) == 0:
        episodic.append(f"task {p['task_id']}: {p['instruction']} -> aborted at step 0")
        return {"episodic": episodic, "semantic": semantic}

    parts = [
        f"task {p['task_id']}: {p['instruction']} -> {p['outcome']}",
        f"conditions {p.get('scn', 0)}/{p.get('gcn', 1)}",
        f"steps {p['steps_used']}",
    ]
    locations = p.get("first_seen", [])
    if locations:
        rendered = "; ".join(f"{o} {r} {pl}" for o, r, pl in locations)
        parts.append(f"locations: {rendered}")
    episodic.append(" | ".join(parts))

    if p["outcome"] == "failure":
        reasons = p.get("failure_reasons", [])
        if reasons:
            semantic.append(
                f"failure causes during '{p['instruction']}': " + "; ".join(sorted(set(reasons)))
            )
    else:
        verbs = p.get("verbs", [])
        if verbs:
            semantic.append(f"recipe for '{p['instruction']}': " + " -> ".join(verbs))
    return {"episodic": episodic, "semantic": semantic}


def _oracle_update(p: dict) -> dict:
    new = p["new"]
    new_tags = set(new.get("tags", []))
    for old in p["similar"]:
        if old.get("text") == new.get("text"):
            return {"action": "update", "target_id": old["id"]}
    for old in p["similar"]:
        old_tags = set(old.get("tags", []))
        shared = {t for t in new_tags & old_tags if not t.startswith("outcome:")}
        new_outcomes = {t for t in new_tags if t.startswith("outcome:")}
        old_outcomes = {t for t in old_tags if t.startswith("outcome:")}
        if shared and new_outcomes and old_outcomes and new_outcomes != old_outcomes:
            return {"action": "replace", "target_id": old["id"]}
    return {"action": "add"}


# --- oracle planner -------------------------------------------------------


def _goal_satisfied(goal: dict, known: dict, states: dict, holding: Optional[str]) -> bool:
    obj = goal["obj"]
    if goal["kind"] == "at":
        if holding == obj:
            return False
        loc = known.get(obj)
        return bool(loc) and loc["place"] == goal["place"] and loc["rel"] == goal["rel"]
    wanted = goal["state"]
    return wanted in states.get(obj, ())


class _NeedsExploration(Exception):
    def __init__(self, obj: str):
        self.obj = obj


def _oracle_plan(p: dict) -> dict:
    profile = p["profile"]
    nav_points = list(p["nav_points"])
    known = {o: dict(v) for o, v in p.get("known_locations", {}).items()}
    # Remembered locations from earlier attempts: good enough to navigate
    # by, never good enough to declare a goal satisfied.
    hints = {o: dict(v) for o, v in p.get("hint_locations", {}).items()}
    states = {o: set(v) for o, v in p.get("object_states", {}).items()}
    container_states = dict(p.get("container_states", {}))
    visited = set(p.get("visited_points", []))
    avoid = {o: set(v) for o, v in p.get("avoid_points", {}).items()}
    at = p.get("agent_at")
    holding = p.get("holding")
    steps: List[dict] = []

    def emit(verb: str, target: Optional[str] = None) -> None:
        step = {"verb": verb}
        if target is not None:
            step["target"] = target
        steps.append(step)

    def lookup(name: str) -> Optional[dict]:
        return known.get(name) or hints.get(name)

    def nav_point_of(name: str) -> Optional[str]:
        if name in nav_points:
            return name
        seen = set()
        cur = name
        while lookup(cur) is not None and cur not in seen:
            seen.add(cur)
            cur = lookup(cur)["place"]
            if cur in nav_points:
                return cur
        return None

    def goto(name: str) -> None:
        nonlocal at
        point = nav_point_of(name)
        if point is None:
            raise _NeedsExploration(name)
        if at != point:
            if profile == "alfred":
                emit("find", name if name not in nav_points else point)
            else:
                emit("navigate_to", point)
            at = point

    def open_enclosing_containers(name: str) -> None:
        cur = name
        seen = set()
        while lookup(cur) is not None and cur not in seen:
            seen.add(cur)
            loc = lookup(cur)
            place = loc["place"]
            # An unobserved container may well be closed; opening an
            # already-open one only costs a no-op attempt.
            if loc["rel"] == "in" and container_states.get(place) != "open":
                emit("open", place)
                container_states[place] = "open"
            cur = place

    def free_hand() -> None:
        nonlocal holding
        if holding is None:
            return
        if profile == "alfred":
            emit("drop")
            if at:
                known[holding] = {"rel": "on", "place": at}
        else:
            emit("put_down_to", at)
            known[holding] = {"rel": "on", "place": at}
        holding = None

    def acquire(obj: str) -> None:
        nonlocal holding
        if holding == obj:
            return
        if lookup(obj) is None:
            raise _NeedsExploration(obj)
        free_hand()
        goto(obj)
        open_enclosing_containers(obj)
        emit("pick_up", obj)
        known.pop(obj, None)
        hints.pop(obj, None)
        holding = obj

    def place(obj: str, rel: str, where: str) -> None:
        nonlocal holding
        acquire(obj)
        if where not in nav_points and lookup(where) is None:
            raise _NeedsExploration(where)
        goto(where)
        if where not in nav_points and container_states.get(where) != "open":
            emit("open", where)
            container_states[where] = "open"
        emit("put_down_to", where)
        known[obj] = {"rel": rel, "place": where}
        holding = None

    def achieve(goal: dict) -> None:
        obj = goal["obj"]
        if goal["kind"] == "at":
            place(obj, goal["rel"], goal["place"])
            return
        wanted = goal["state"]
        if wanted == "heated":
            loc = known.get(obj)
            inside_oven = holding != obj and bool(loc) and loc["place"] == "oven"
            if not inside_oven:
                place(obj, "in", "oven")
            if lookup("oven") is None:
                raise _NeedsExploration("oven")
            if "on" not in states.get("oven", set()):
                goto("oven")
                emit("turn_on", "oven")
                states.setdefault("oven", set()).add("on")
            states.setdefault(obj, set()).add("heated")
        elif wanted == "cleaned":
            loc = known.get(obj)
            if holding == obj or not loc or loc["place"] != "sink":
                place(obj, "on", "sink")
            if lookup("faucet") is None:
                raise _NeedsExploration("faucet")
            if "on" not in states.get("faucet", set()):
                goto("faucet")
                emit("turn_on", "faucet")
                states.setdefault("faucet", set()).add("on")
            states.setdefault(obj, set()).add("cleaned")
        elif wanted == "sliced":
            acquire("knife")
            goto(obj)
            open_enclosing_containers(obj)
            emit("slice", obj)
            states.setdefault(obj, set()).add("sliced")
        elif wanted in ("open", "closed", "on", "off"):
            goto(obj)
            verb = {"open": "open", "closed": "close", "on": "turn_on", "off": "turn_off"}[wanted]
            emit(verb, obj)
            if wanted in ("open", "closed"):
                container_states[obj] = wanted
            else:
                states.setdefault(obj, set()).add(wanted)
        else:
            raise _NeedsExploration(obj)

    for goal in p["goals"]:
        if _goal_satisfied(goal, known, states, holding):
            continue
        try:
            achieve(goal)
        except _NeedsExploration as exc:
            if steps:
                # Partial plan; replan once the world is better known.
                return {"steps": steps}
            return _exploration_plan(exc.obj, p, known, container_states, visited, avoid, at)

    if profile == "realworld":
        emit("task_complete")
    return {"steps": steps}


def _exploration_plan(
    missing: str,
    p: dict,
    known: dict,
    container_states: dict,
    visited: set,
    avoid: dict,
    at: Optional[str],
) -> dict:
    nav_points = list(p["nav_points"])
    profile = p["profile"]

    # Closed containers at the current point may hide the target.
    closed_here = sorted(
        name
        for name, state in container_states.items()
        if state == "closed" and known.get(name, {}).get("place") == at
    )
    if closed_here:
        return {"steps": [{"verb": "open", "target": closed_here[0]}]}

    skip = set(avoid.get(missing, set()))
    candidates = [pt for pt in nav_points if pt not in visited and pt not in skip]
    if not candidates:
        candidates = [pt for pt in nav_points if pt not in skip and pt != at]
    if not candidates:
        candidates = [pt for pt in nav_points if pt != at] or nav_points
    target = candidates[0]
    verb = "find" if profile == "alfred" else "navigate_to"
    return {"steps": [{"verb": verb, "target": target}]}


# --- oracle critic --------------------------------------------------------


def _oracle_critic(p: dict) -> dict:
    action = p["action"]
    verb = action["verb"]
    target = action.get("target")
    facts = {(s, r, o) for s, r, o in p["facts"]}
    holding = p.get("holding")

    def located_at(obj: str, where: str) -> bool:
        return (obj, "on", where) in facts or (obj, "in", where) in facts

    if verb == "pick_up":
        if holding == target:
            return {"decision": "reject", "reason": f"redundant: already holding {target}"}
        if holding is not None:
            return {"decision": "reject", "reason": f"hands full: already holding {holding}"}
        for later in p.get("plan_suffix", []):
            if later.get("verb") in ("put_down_to",) and later.get("target"):
                if located_at(target, later["target"]):
                    return {
                        "decision": "reject",
                        "reason": f"redundant: {target} is already at {later['target']}",
                    }
                break
    elif verb in ("put_down_to", "drop"):
        if holding is None:
            return {"decision": "reject", "reason": "nothing is held; cannot put down"}
    elif verb in _TOGGLE_EFFECT:
        if (target, "is", _TOGGLE_EFFECT[verb]) in facts:
            return {
                "decision": "reject",
                "reason": f"redundant: {target} is already {_TOGGLE_EFFECT[verb]}",
            }
    elif verb == "task_complete":
        for goal in p.get("goals", []):
            if goal["kind"] == "at":
                ok = (goal["obj"], goal["rel"], goal["place"]) in facts
            else:
                ok = (goal["obj"], "is", goal["state"]) in facts
            if not ok:
                return {
                    "decision": "reject",
                    "reason": f"goal not met: {goal['obj']} ({goal['kind']})",
                }
    return {"decision": "approve", "reason": "action is consistent with known state"}


def _fallback_summary(p: dict) -> Tuple[str, dict]:
    if p["kind"] == "step":
        text = f"{_action_text(p['action'])}: {p['outcome']}"
        return "summarizer failed (%s); fallback template", {"summary": text}
    first, last = p["covers_steps"]
    text = f"steps {first}-{last}: " + "; ".join(p["entries"])[:COMPACTION_MAX_CHARS]
    return "compaction summarizer failed (%s); falling back", {"summary": text}


@dataclass(frozen=True)
class RoleContract:
    """Everything the gateway knows of one reasoner role."""

    request: Schema
    response: Schema
    #: The oracle backend's answer to a request.
    oracle: Callable[[dict], dict]
    #: The warning template (one ``%s`` for the error) and the answer that
    #: stand in for a failed call, both computed from the request. None for
    #: the planner: without a plan the episode aborts.
    fallback: Optional[Callable[[dict], Tuple[str, dict]]]


_OUTCOME = one_of("success", "failure")
_TARGET = Schema({"target_id": TEXT})

#: Per role: request schema, response schema, oracle rule, fallback.
_ROLES: Dict[ReasonerRole, RoleContract] = {
    ReasonerRole.STEP_SUMMARIZER: RoleContract(
        Schema({"kind": one_of("step", "compact")}, when=("kind", {
            "step": Schema({"action": typed(dict), "outcome": _OUTCOME}),
            "compact": Schema({"entries": typed(list, 1), "covers_steps": SPAN}),
        })),
        Schema({"summary": TEXT}),
        _oracle_summarize,
        _fallback_summary,
    ),
    ReasonerRole.QUERY_GENERATOR: RoleContract(
        Schema({"instruction": TEXT}),
        Schema({"query": TEXT}),
        _oracle_query,
        lambda p: ("query generator failed (%s); fallback to instruction",
                   {"query": p["instruction"]}),
    ),
    ReasonerRole.KG_CONFLICT_DETECTOR: RoleContract(
        Schema({"edges": list_of(has_keys("subject", "relation", "object"))}),
        Schema({"conflicts": list_of(list_of(typed(int), 2))}),
        _oracle_detect_conflicts,
        lambda p: ("conflict detector failed (%s); using oracle rules",
                   _oracle_detect_conflicts(p)),
    ),
    ReasonerRole.MEMORY_EXTRACTOR: RoleContract(
        Schema({"task_id": TEXT, "instruction": TEXT, "outcome": _OUTCOME}),
        Schema({"episodic": list_of(TEXT, 1), "semantic": list_of(TEXT)}),
        _oracle_extract,
        lambda p: ("extractor failed (%s); using fallback template",
                   {"episodic": [f"task {p['task_id']}: {p['instruction']} -> {p['outcome']}"],
                    "semantic": []}),
    ),
    ReasonerRole.MEMORY_UPDATER: RoleContract(
        Schema({"new": typed(dict), "similar": typed(list)}),
        Schema({"action": one_of("add", "update", "replace")},
               when=("action", {"update": _TARGET, "replace": _TARGET})),
        _oracle_update,
        lambda p: ("updater failed (%s); add-only fallback", {"action": "add"}),
    ),
    ReasonerRole.PLANNER: RoleContract(
        Schema({"instruction": TEXT, "goals": typed(list),
                "profile": one_of("alfred", "realworld"), "nav_points": typed(list, 1)}),
        Schema({"steps": list_of(has_keys("verb"))}),
        _oracle_plan,
        None,
    ),
    ReasonerRole.CRITIC: RoleContract(
        Schema({"action": typed(dict), "facts": typed(list)}),
        Schema({"decision": one_of("approve", "reject")},
               when=("decision", {"reject": Schema({"reason": TEXT})})),
        _oracle_critic,
        lambda p: ("critic failed (%s); approving by default",
                   {"decision": "approve", "reason": "critic unavailable"}),
    ),
}

#: The oracle rules alone (the benchmark's loopback stub answers with them).
_ORACLE_RULES = {role: contract.oracle for role, contract in _ROLES.items()}


class OracleBackend:
    """Deterministic rule-based implementation of every role.

    Pure: the response is a function of (role, payload) alone. It is the
    document its rule built: plain JSON values, none shared with the
    payload or with another answer, so a remote model could have sent it.
    """

    #: The ``GatewayConfig.backend`` that builds it.
    name = "oracle"
    #: Computes in the calling thread and never waits, so fanning its calls
    #: out to threads overlaps nothing (see ``ReasonerGateway.latency_bound``).
    latency_bound = False

    def invoke(self, role: ReasonerRole, payload: dict) -> dict:
        return _ROLES[role].oracle(payload)


class RemoteBackend:
    """Chat-completions-style JSON-over-HTTP adapter.

    Sends the role name and payload as a single user message and expects
    the assistant content to be the response JSON document. A failed attempt
    that may succeed again is retried after a bounded exponential backoff;
    ``sleep`` waits it out (tests pass one that only records).
    """

    name = "remote"
    #: Each call waits on the network, so concurrent calls overlap.
    latency_bound = True

    def __init__(
        self,
        base_url: str,
        model: str,
        timeout_ms: int = DEFAULT_TIMEOUT_MS,
        max_retries: int = DEFAULT_MAX_RETRIES,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.timeout_ms = timeout_ms
        self.max_retries = max_retries
        self.sleep = sleep

    def invoke(self, role: ReasonerRole, payload: dict) -> dict:
        import requests

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = {
            "model": self.model,
            "temperature": 0.0,
            "messages": [
                {
                    "role": "user",
                    "content": canonical_json({"role": role.value, "payload": payload}),
                }
            ],
        }
        last_error: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.sleep(min(RETRY_BACKOFF_S * 2 ** (attempt - 1), RETRY_BACKOFF_MAX_S))
            # Transport first: an invalid URL, a connection error, a timeout or
            # an HTTP error status (requests raises some of these as
            # ValueErrors, so they must not reach the parsing handlers).
            try:
                response = requests.post(
                    f"{self.base_url}/chat/completions",
                    json=body,
                    headers=headers,
                    timeout=self.timeout_ms / 1000.0,
                )
                response.raise_for_status()
            except requests.RequestException as exc:
                last_error = BackendUnreachableError(str(exc))
                # Neither an invalid URL (a ValueError) nor a 4xx status other
                # than timeout or rate limit can succeed on a retry.
                status = getattr(exc.response, "status_code", 500)
                client_error = 400 <= status < 500 and status not in (408, 429)
                if isinstance(exc, ValueError) or client_error:
                    raise last_error from exc
            else:
                try:
                    content = response.json()["choices"][0]["message"]["content"]
                    doc = json.loads(content)
                    if not isinstance(doc, dict):
                        raise SchemaViolationError("response content is not a JSON object")
                    return doc
                except SchemaViolationError as exc:
                    last_error = exc
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    last_error = SchemaViolationError(f"malformed response: {exc}")
            logger.warning("remote invoke attempt %d failed: %s", attempt + 1, last_error)
        raise last_error  # type: ignore[misc]


BACKENDS = ("oracle", "remote")


def _is_number(value: Any, *types: type) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def _is_http_url(value: Any) -> bool:
    """Whether ``value`` is an absolute http or https URL with a host."""
    try:
        url = urlsplit(value)
    except (AttributeError, TypeError, ValueError):
        return False
    return url.scheme in ("http", "https") and bool(url.hostname)


@dataclass
class GatewayConfig:
    backend: str = "oracle"
    base_url: str = ""
    model: str = ""
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    max_retries: int = DEFAULT_MAX_RETRIES
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise GatewayConfigError(
                f"unknown backend {self.backend!r} (expected one of {', '.join(BACKENDS)})"
            )
        if self.backend == "remote" and not (self.model and _is_http_url(self.base_url)):
            raise GatewayConfigError(
                "the remote backend needs a non-empty model and an absolute http(s) base_url "
                f"with a host, not model {self.model!r} and base_url {self.base_url!r}"
            )
        if not _is_number(self.timeout_ms, int, float) or self.timeout_ms <= 0:
            raise GatewayConfigError(f"timeout_ms must be > 0, not {self.timeout_ms!r}")
        if not _is_number(self.max_retries, int) or self.max_retries < 0:
            raise GatewayConfigError(f"max_retries must be an int >= 0, not {self.max_retries!r}")
        if not _is_number(self.budget, int) or self.budget <= 0:
            raise GatewayConfigError(f"budget must be an int > 0, not {self.budget!r}")

    @classmethod
    def from_file(cls, path: str) -> "GatewayConfig":
        doc = read_json(path, GatewayConfigError)
        remote = doc.get("remote", {}) if isinstance(doc, dict) else None
        if not isinstance(remote, dict):
            raise GatewayConfigError(f"{path}: expected an object whose 'remote' is an object")
        return cls(
            backend=doc.get("backend", "oracle"),
            base_url=remote.get("base_url", ""),
            model=remote.get("model", ""),
            timeout_ms=remote.get("timeout_ms", DEFAULT_TIMEOUT_MS),
            max_retries=remote.get("max_retries", DEFAULT_MAX_RETRIES),
            budget=doc.get("budget", DEFAULT_BUDGET),
        )


class ReasonerGateway:
    """Validated, budget-capped access to the active backend. ``budget``
    caps the calls between two ``reset_budget`` calls; ``math.inf`` sets no
    cap."""

    def __init__(self, backend: Optional[Any] = None, budget: float = DEFAULT_BUDGET):
        self.backend = backend if backend is not None else OracleBackend()
        self.budget = budget
        self._remaining = budget
        self._lock = threading.Lock()

    @classmethod
    def from_config(cls, config: GatewayConfig) -> "ReasonerGateway":
        if config.backend == "remote":
            backend = RemoteBackend(
                base_url=config.base_url,
                model=config.model,
                timeout_ms=config.timeout_ms,
                max_retries=config.max_retries,
            )
        else:
            backend = OracleBackend()
        return cls(backend=backend, budget=config.budget)

    @property
    def latency_bound(self) -> bool:
        """Whether backend calls wait (on the network, say) rather than
        compute under the GIL, so that running them on threads overlaps
        the waits. A backend that does not say is taken to wait."""
        return getattr(self.backend, "latency_bound", True)

    def reset_budget(self) -> None:
        with self._lock:
            self._remaining = self.budget

    def invoke(self, role: ReasonerRole, payload: dict) -> dict:
        contract = _ROLES[role]
        contract.request.validate(payload)
        with self._lock:
            if self._remaining <= 0:
                raise BudgetExceededError(f"per-episode budget of {self.budget} calls exhausted")
            self._remaining -= 1
        response = self.backend.invoke(role, payload)
        contract.response.validate(response)
        return response

    def ask(self, role: ReasonerRole, payload: dict) -> dict:
        """``invoke``, with a gateway fault degraded to the role's fallback:
        the one place a fallback fires. Logs the role's warning and returns
        its answer, or raises the fault for a role without one (the
        planner)."""
        try:
            return self.invoke(role, payload)
        except GatewayError as exc:
            fallback = _ROLES[role].fallback
            if fallback is None:
                raise
            template, answer = fallback(payload)
            logger.warning(template, exc)
            return answer

    def invoke_parallel(
        self, requests: Sequence[Tuple[ReasonerRole, dict]], parallel: bool = True
    ) -> List[dict]:
        """``ask`` every request concurrently; the answers are returned in
        request order. A gateway fault has degraded to its role's fallback
        inside the batch; any other exception (a planner fault included) is
        raised once every call has finished. Unless ``parallel`` is set and
        the backend is ``latency_bound`` the calls run inline in request
        order: threads would overlap no waits and only add hand-off time."""
        return fan_out(
            [functools.partial(self.ask, role, payload) for role, payload in requests],
            parallel and self.latency_bound,
        )

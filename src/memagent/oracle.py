"""The oracle: a deterministic, rule-based stand-in for the reasoner model.
``RULES`` maps each role to its rule, a pure function of the request, and
``OracleBackend``, the gateway's default backend, answers with it."""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from .conflicts import DEFAULT_RULES, DEFAULT_TABLES, ConflictRules
from .core import ReasonerRole

COMPACTION_MAX_CHARS = 400

#: State values toggled by open/close/turn_on/turn_off: the critic spots
#: already-satisfied effects by them, and the planner reaches a state by them.
_TOGGLE_EFFECT = {
    "open": "open",
    "close": "closed",
    "turn_on": "on",
    "turn_off": "off",
}
_TOGGLE_VERB = {state: verb for verb, state in _TOGGLE_EFFECT.items()}

#: Per state an appliance gives: the relation and place that put an object
#: in its reach, and the device to switch on.
_APPLIANCES = {"heated": ("in", "oven", "oven"), "cleaned": ("on", "sink", "faucet")}


def action_text(action: dict) -> str:
    target = action.get("target")
    return f"{action['verb']} {target}" if target else action["verb"]


def summarize(p: dict) -> dict:
    if p["kind"] == "step":
        text = f"{action_text(p['action'])}: {p['outcome']}"
        if p["outcome"] == "failure" and p.get("failure_reason"):
            text += f" ({p['failure_reason']})"
        return {"summary": text}
    first, last = p["covers_steps"]
    joined = "; ".join(p["entries"])
    if len(joined) > COMPACTION_MAX_CHARS:
        joined = joined[: COMPACTION_MAX_CHARS - 3] + "..."
    return {"summary": f"steps {first}-{last}: {joined}"}


#: Instruments implied by task wording but usually absent from it; the
#: entities must name them or the graph retrieval never reaches their nodes.
_IMPLIED_TOOLS = [("heat", "oven"), ("clean", "faucet"), ("clean", "sink"), ("slice", "knife")]


def query(p: dict) -> dict:
    """The query text long-term recall embeds, and the names spatial
    retrieval seeds from: the goal names, the implied tools and the
    visible entities."""
    instruction = p["instruction"]
    visible = p.get("visible_entities", [])
    tools = [tool for word, tool in _IMPLIED_TOOLS if word in instruction]
    parts = [instruction]
    unnamed = [tool for tool in tools if tool not in instruction]
    if unnamed:
        parts.append("needs: " + ", ".join(unnamed))
    if p.get("last_verb"):
        parts.append(f"last action: {p['last_verb']}")
    if visible:
        parts.append("seen: " + ", ".join(visible))
    entities = dict.fromkeys([*p.get("goal_entities", []), *tools, *visible])
    return {"query": " | ".join(parts), "entities": list(entities)}


def detect_conflicts(p: dict) -> dict:
    tables = {name: p.get(name, default) for name, default in DEFAULT_TABLES.items()}
    rules = DEFAULT_RULES if tables == DEFAULT_TABLES else ConflictRules(**tables)
    keys = [(e["subject"], e["relation"], e["object"]) for e in p["edges"]]
    return {"conflicts": rules.conflicts(keys)}


def extract(p: dict) -> dict:
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


def update(p: dict) -> dict:
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


# --- planner ----------------------------------------------------------------


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


def plan(p: dict) -> dict:
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

    def locations_up(name: str) -> Iterator[dict]:
        """The known locations from ``name`` outwards, each the location of
        the last one's place, until one is unknown or a place repeats."""
        seen = set()
        while (loc := lookup(name)) is not None and name not in seen:
            seen.add(name)
            yield loc
            name = loc["place"]

    def nav_point_of(name: str) -> Optional[str]:
        if name in nav_points:
            return name
        return next((loc["place"] for loc in locations_up(name) if loc["place"] in nav_points), None)

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
        for loc in locations_up(name):
            place = loc["place"]
            # An unobserved container may well be closed; opening an
            # already-open one only costs a no-op attempt.
            if loc["rel"] == "in" and container_states.get(place) != "open":
                emit("open", place)
                container_states[place] = "open"

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
        if wanted in _APPLIANCES:
            rel, where, device = _APPLIANCES[wanted]
            loc = known.get(obj)
            if holding == obj or not loc or loc["place"] != where:
                place(obj, rel, where)
            if lookup(device) is None:
                raise _NeedsExploration(device)
            if "on" not in states.get(device, set()):
                goto(device)
                emit("turn_on", device)
                states.setdefault(device, set()).add("on")
            states.setdefault(obj, set()).add(wanted)
        elif wanted == "sliced":
            acquire("knife")
            goto(obj)
            open_enclosing_containers(obj)
            emit("slice", obj)
            states.setdefault(obj, set()).add("sliced")
        elif wanted in _TOGGLE_VERB:
            goto(obj)
            emit(_TOGGLE_VERB[wanted], obj)
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


# --- critic -----------------------------------------------------------------


def critic(p: dict) -> dict:
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


RULES: Dict[ReasonerRole, Callable[[dict], dict]] = {
    ReasonerRole.STEP_SUMMARIZER: summarize,
    ReasonerRole.QUERY_GENERATOR: query,
    ReasonerRole.KG_CONFLICT_DETECTOR: detect_conflicts,
    ReasonerRole.MEMORY_EXTRACTOR: extract,
    ReasonerRole.MEMORY_UPDATER: update,
    ReasonerRole.PLANNER: plan,
    ReasonerRole.CRITIC: critic,
}


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
        return RULES[role](payload)

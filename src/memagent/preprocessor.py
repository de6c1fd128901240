"""Perceptual front-end: turns one observation into a step summary, a
long-term-memory query, the entities to seed spatial retrieval with, the
world's spatial triplets, and the agent's own place and held object.

``Preprocessor.preprocess`` is the only parse of an observation: the
planner's belief state, the task trace and the spatial memory all read
what it returns. Only this module knows that the agent is not part of the
world: its place and held object are fields, not triplets.

Observation text follows a fixed line grammar (documented in the README):

    you are at <point>
    you see <obj> on <place>
    you see <obj> in <place>
    <obj> is <state>
    holding: <obj> | nothing
    action failed: <reason>

The query generator is asked with the task's goal names (the objects and
places ``parse_goals`` reads from the instruction) and the names the
observation shows, the agent's point and held object among them; it
answers the query text and the entity names as data, so no reader parses
names back out of the text. The summarizer and query generator run as one
gateway fan-out of ``ask`` calls, so a gateway fault in either has already
degraded to the role's fallback; any other error is raised and ends the
episode as crashed.

Observations repeat lines from step to step, so the grammar lives in
``_parse_line``, memoized per distinct line; ``parse_observation`` only
sorts each step's parsed lines into triplets and the agent's state.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .core import ActionCommand, Observation, Outcome, canonical_name, to_doc
from .gateway import ReasonerGateway, ReasonerRole
from .spatial import Triplet

_AT = re.compile(r"^you are at (?P<point>.+)$")
_SEE = re.compile(r"^you see (?P<obj>.+?) (?P<rel>on|in) (?P<place>.+)$")
_STATE = re.compile(r"^(?P<obj>.+?) is (?P<state>open|closed|on|off|sliced|heated|cleaned)$")
_HOLDING = re.compile(r"^holding: (?P<obj>.+)$")

# Instruction grammar: one goal clause per " and ".
_PUT = re.compile(r"^put (?P<obj>.+?) (?P<rel>on|in) (?P<place>.+)$")
_STATE_CLAUSES = [
    (re.compile(r"^heat (?P<obj>.+)$"), "heated"),
    (re.compile(r"^clean (?P<obj>.+)$"), "cleaned"),
    (re.compile(r"^slice (?P<obj>.+)$"), "sliced"),
    (re.compile(r"^turn on (?P<obj>.+)$"), "on"),
    (re.compile(r"^turn off (?P<obj>.+)$"), "off"),
    (re.compile(r"^open (?P<obj>.+)$"), "open"),
    (re.compile(r"^close (?P<obj>.+)$"), "closed"),
]
#: Distinct observation lines whose parse is kept; one suite run has about
#: 140.
PARSE_CACHE_SIZE = 4096


@dataclass(frozen=True)
class PreprocessOutput:
    summary: Optional[str]  # None for the reset observation
    query: str
    #: The names spatial retrieval seeds from, as the query generator gave them.
    entities: Tuple[str, ...]
    #: The world facts the observation states; the agent is none of their names.
    triplets: Tuple[Triplet, ...]
    #: Where the observation puts the agent, and what it holds (None for nothing).
    agent_at: Optional[str]
    holding: Optional[str]


def parse_goals(instruction: str) -> List[dict]:
    """The goal conditions the instruction's clauses state, their names
    canonical; a clause of no known form states none."""
    goals: List[dict] = []
    for clause in instruction.split(" and "):
        clause = canonical_name(clause)
        match = _PUT.match(clause)
        if match:
            goals.append(
                {
                    "kind": "at",
                    "obj": match.group("obj"),
                    "rel": match.group("rel"),
                    "place": match.group("place"),
                }
            )
            continue
        for pattern, state in _STATE_CLAUSES:
            match = pattern.match(clause)
            if match:
                goals.append({"kind": "state", "obj": match.group("obj"), "state": state})
                break
    return goals


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse_line(line: str) -> Optional[Tuple[Optional[str], str, str]]:
    """The (subject, relation, object) one observation line states, names
    canonical, with subject ``None`` for the agent's own ``at`` and ``holds``;
    ``None`` for a blank, unknown or failure line and ``holding: nothing``. A
    pure function of the line, so each distinct line is parsed once per process."""
    line = line.strip().lower()
    if not line or line.startswith("action failed:"):
        return None
    match = _AT.match(line)
    if match:
        return (None, "at", canonical_name(match.group("point")))
    match = _SEE.match(line)
    if match:
        obj = canonical_name(match.group("obj"))
        return (obj, match.group("rel"), canonical_name(match.group("place")))
    match = _STATE.match(line)
    if match:
        return (canonical_name(match.group("obj")), "is", match.group("state"))
    match = _HOLDING.match(line)
    if match:
        obj = canonical_name(match.group("obj"))
        if obj != "nothing":
            return (None, "holds", obj)
    return None


def parse_observation(
    obs: Observation,
) -> Tuple[Tuple[Triplet, ...], Optional[str], Optional[str], List[str]]:
    """The observation's world triplets, the agent's point and held object
    (its last ``you are at`` and ``holding`` lines), and the distinct names
    its lines mention, in order."""
    facts = [fact for fact in map(_parse_line, obs.text.splitlines()) if fact]
    agent = {relation: obj for subject, relation, obj in facts if subject is None}
    triplets = tuple(Triplet(s, r, o, obs.step_index) for s, r, o in facts if s is not None)
    names = list(dict.fromkeys(name for s, _, o in facts for name in (s, o) if name))
    return triplets, agent.get("at"), agent.get("holds"), names


class Preprocessor:
    def __init__(
        self,
        instruction: str,
        gateway: Optional[ReasonerGateway] = None,
        parallel: bool = True,
    ):
        # Nothing resets the budget of a gateway of its own, so it has none.
        self.gateway = gateway or ReasonerGateway(budget=math.inf)
        self.instruction = instruction
        self.goals = parse_goals(instruction)
        # The distinct objects and places the goals name, in order.
        names = (name for g in self.goals for name in (g["obj"], g.get("place")) if name)
        self.goal_entities = list(dict.fromkeys(names))
        self.parallel = parallel  # the run's fan-out decision (MemoryOrchestrator.parallel)

    def preprocess(
        self,
        obs: Observation,
        last_action: Optional[ActionCommand],
        outcome: Optional[Outcome],
        failure_reason: Optional[str] = None,
    ) -> PreprocessOutput:
        triplets, agent_at, holding, names = parse_observation(obs)

        requests = []
        if last_action is not None:
            summarizer_payload = {
                "kind": "step",
                "action": to_doc(last_action),
                "outcome": (outcome or Outcome.SUCCESS).value,
                "failure_reason": failure_reason,
                "observation": obs.text,
            }
            requests.append((ReasonerRole.STEP_SUMMARIZER, summarizer_payload))
        query_payload = {
            "instruction": self.instruction,
            "goal_entities": self.goal_entities,
            "last_verb": last_action.verb.value if last_action else None,
            "visible_entities": names,
        }
        requests.append((ReasonerRole.QUERY_GENERATOR, query_payload))

        answers = self.gateway.invoke_parallel(requests, self.parallel)
        # The reset observation follows no step, so it has no summary.
        summary = answers[0]["summary"] if last_action is not None else None
        cue = answers[-1]
        entities = tuple(cue["entities"])
        return PreprocessOutput(summary, cue["query"], entities, triplets, agent_at, holding)

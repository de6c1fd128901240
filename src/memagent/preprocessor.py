"""Perceptual front-end: turns one observation into a step summary, a
long-term-memory query, the entities to seed spatial retrieval with, and
spatial triplets.

``Preprocessor.preprocess`` is the only parse of an observation: the
planner's belief state, the task trace and the spatial memory all read the
triplets it returns.

Observation text follows a fixed line grammar (documented in the README):

    you are at <point>
    you see <obj> on <place>
    you see <obj> in <place>
    <obj> is <state>
    holding: <obj> | nothing
    action failed: <reason>

The query generator is asked with the task's goal names (the objects and
places ``parse_goals`` reads from the instruction) and the names the
observation shows; it answers the query text and the entity names as data,
so no reader parses names back out of the text. The summarizer and query
generator run as one gateway fan-out of ``ask`` calls, so a gateway fault
in either has already degraded to the role's fallback; any other error is
raised and ends the episode as crashed.

Observations repeat lines from step to step, so the grammar lives in
``_parse_line``, memoized per distinct line; ``extract_triplets`` only
builds each step's triplets from the parsed facts.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .core import ActionCommand, Observation, Outcome, canonical_name, to_doc
from .gateway import ReasonerGateway, ReasonerRole
from .spatial import Triplet

AGENT = "agent"

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
    triplets: Tuple[Triplet, ...]


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
def _parse_line(line: str) -> Optional[Tuple[str, str, str]]:
    """The (subject, relation, object) fact one observation line states,
    its names canonical; ``None`` for a blank or unknown line and for
    ``holding: nothing``. A pure function of the line, so each distinct
    line is parsed once per process."""
    line = line.strip().lower()
    if not line:
        return None
    match = _AT.match(line)
    if match:
        return (AGENT, "at", canonical_name(match.group("point")))
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
            return (AGENT, "holds", obj)
    return None


def extract_triplets(obs: Observation) -> List[Triplet]:
    """Parse the observation grammar into spatial facts. The agent's own
    position, nearness to co-located objects, and held object are all
    asserted so the graph tracks the transitions between them."""
    triplets: List[Triplet] = []
    current_point: Optional[str] = None
    step = obs.step_index
    for line in obs.text.splitlines():
        fact = _parse_line(line)
        if fact is None:
            continue
        subject, relation, obj = fact
        triplets.append(Triplet(subject, relation, obj, step))
        if relation == "at":
            current_point = obj
        elif relation in ("on", "in") and obj == current_point:  # a "you see" line
            triplets.append(Triplet(AGENT, "near", subject, step))
    return triplets


def visible_entities(triplets: Sequence[Triplet]) -> List[str]:
    """Distinct names the triplets mention, other than the agent, in order."""
    names: List[str] = []
    for triplet in triplets:
        for name in (triplet.subject, triplet.object):
            if name not in (AGENT,) and name not in names:
                names.append(name)
    return names


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
        triplets = tuple(extract_triplets(obs))
        entities = visible_entities(triplets)

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
            "visible_entities": entities,
        }
        requests.append((ReasonerRole.QUERY_GENERATOR, query_payload))

        answers = self.gateway.invoke_parallel(requests, self.parallel)
        # The reset observation follows no step, so it has no summary.
        summary = answers[0]["summary"] if last_action is not None else None
        cue = answers[-1]
        return PreprocessOutput(
            summary=summary, query=cue["query"], entities=tuple(cue["entities"]), triplets=triplets
        )

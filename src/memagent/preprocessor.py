"""Perceptual front-end: turns one observation into a step summary, a
long-term-memory query, and spatial triplets.

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

The summarizer and query generator run as one gateway fan-out of ``ask``
calls, so a gateway fault in either has already degraded to the role's
fallback; any other error is raised and ends the episode as crashed.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class PreprocessOutput:
    summary: Optional[str]  # None for the reset observation
    query: str
    triplets: Tuple[Triplet, ...]


def extract_triplets(obs: Observation) -> List[Triplet]:
    """Parse the observation grammar into spatial facts. The agent's own
    position, nearness to co-located objects, and held object are all
    asserted so the graph tracks the transitions between them."""
    triplets: List[Triplet] = []
    current_point: Optional[str] = None
    step = obs.step_index
    for raw_line in obs.text.splitlines():
        line = raw_line.strip().lower()
        if not line:
            continue
        match = _AT.match(line)
        if match:
            current_point = canonical_name(match.group("point"))
            triplets.append(Triplet(AGENT, "at", current_point, step))
            continue
        match = _SEE.match(line)
        if match:
            obj = canonical_name(match.group("obj"))
            place = canonical_name(match.group("place"))
            triplets.append(Triplet(obj, match.group("rel"), place, step))
            if current_point is not None and place == current_point:
                triplets.append(Triplet(AGENT, "near", obj, step))
            continue
        match = _STATE.match(line)
        if match:
            triplets.append(
                Triplet(canonical_name(match.group("obj")), "is", match.group("state"), step)
            )
            continue
        match = _HOLDING.match(line)
        if match:
            obj = canonical_name(match.group("obj"))
            if obj != "nothing":
                triplets.append(Triplet(AGENT, "holds", obj, step))
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
        gateway: Optional[ReasonerGateway] = None,
        instruction: str = "",
        parallel: bool = True,
    ):
        self.gateway = gateway or ReasonerGateway()
        self.instruction = instruction
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
            "instruction": self.instruction or obs.text.splitlines()[0],
            "last_verb": last_action.verb.value if last_action else None,
            "visible_entities": entities,
        }
        requests.append((ReasonerRole.QUERY_GENERATOR, query_payload))

        answers = self.gateway.invoke_parallel(requests, self.parallel)
        # The reset observation follows no step, so it has no summary.
        summary = answers[0]["summary"] if last_action is not None else None
        return PreprocessOutput(summary=summary, query=answers[-1]["query"], triplets=triplets)

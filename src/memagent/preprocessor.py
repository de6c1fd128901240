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

The summarizer and query generator run as one parallel gateway fan-out.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .core import ActionCommand, Observation, Outcome, canonical_name, to_doc
from .gateway import GatewayError, ReasonerGateway, ReasonerRole
from .spatial import Triplet

logger = logging.getLogger(__name__)

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
    def __init__(self, gateway: Optional[ReasonerGateway] = None, instruction: str = ""):
        self.gateway = gateway or ReasonerGateway()
        self.instruction = instruction

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

        results = self.gateway.invoke_parallel(requests)
        # A backend fault degrades to a template below; any other exception
        # is a bug, and the episode is reported as crashed.
        for result in results:
            if isinstance(result, Exception) and not isinstance(result, GatewayError):
                raise result
        summary_result = results[0] if last_action is not None else None
        query_result = results[-1]

        summary = None  # the reset observation follows no step
        if isinstance(summary_result, GatewayError):
            logger.warning("summarizer failed (%s); fallback template", summary_result)
            target = last_action.target or ""
            summary = f"{last_action.verb.value} {target}".strip() + f": {(outcome or Outcome.SUCCESS).value}"
        elif summary_result is not None:
            summary = summary_result["summary"]

        if isinstance(query_result, GatewayError):
            logger.warning("query generator failed (%s); fallback to instruction", query_result)
            query = self.instruction or obs.text.splitlines()[0]
        else:
            query = query_result["query"]

        return PreprocessOutput(summary=summary, query=query, triplets=triplets)

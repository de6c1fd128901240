"""The knowledge graph's conflict policy and the three tables it is built
from. The spatial memory reads ``DEFAULT_RULES`` and sends its tables; the
oracle conflict detector answers with the rules of the tables it gets."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

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

"""Action-level FIFO buffer of step summaries with clear-and-summarize
compaction: when an append finds the buffer full, the current entries are
collapsed into a single summary that becomes the first entry, followed by
the new item.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from .core import InvariantError, StepRecord, check_int, from_doc, to_doc
from .gateway import ReasonerGateway, ReasonerRole

DEFAULT_CAPACITY = 3


@dataclass(frozen=True)
class CompactedSummary:
    text: str
    covers_steps: Tuple[int, int]  # inclusive step range

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise InvariantError(f"must be text, not {self.text!r}", "text")
        steps = self.covers_steps
        if not isinstance(steps, (list, tuple)) or len(steps) != 2:
            raise InvariantError(f"must be a pair of step indexes, not {steps!r}", "covers_steps")
        first, last = steps
        check_int(first, 0, "covers_steps")
        check_int(last, first, "covers_steps")  # a non-empty range
        object.__setattr__(self, "covers_steps", (first, last))


BufferItem = Union[StepRecord, CompactedSummary]

#: The ``type`` of each buffer item in a snapshot document.
_ITEM_TYPES = {"step": StepRecord, "compacted": CompactedSummary}
_TYPE_NAMES = {cls: name for name, cls in _ITEM_TYPES.items()}


def _item_range(item: BufferItem) -> Tuple[int, int]:
    if isinstance(item, CompactedSummary):
        return item.covers_steps
    return (item.step_index, item.step_index)


class TemporalMemory:
    def __init__(self, gateway: Optional[ReasonerGateway] = None, capacity: int = DEFAULT_CAPACITY):
        check_int(capacity, 1, "capacity")
        # Nothing resets the budget of a gateway of its own, so it has none.
        self.gateway = gateway or ReasonerGateway(budget=math.inf)
        self.capacity = capacity
        self._entries: List[BufferItem] = []
        self._lock = threading.RLock()

    def entries(self) -> List[BufferItem]:
        with self._lock:
            return list(self._entries)

    def append(self, record: StepRecord) -> None:
        with self._lock:
            if len(self._entries) >= self.capacity:
                compacted = self._compact(self._entries)
                self._entries = [compacted]
            self._entries.append(record)

    def _compact(self, entries: List[BufferItem]) -> CompactedSummary:
        texts = [e.text if isinstance(e, CompactedSummary) else e.summary for e in entries]
        first = min(_item_range(e)[0] for e in entries)
        last = max(_item_range(e)[1] for e in entries)
        payload = {"kind": "compact", "entries": texts, "covers_steps": [first, last]}
        text = self.gateway.ask(ReasonerRole.STEP_SUMMARIZER, payload)["summary"]
        return CompactedSummary(text=text, covers_steps=(first, last))

    def render(self) -> str:
        with self._lock:
            lines = []
            for item in self._entries:
                if isinstance(item, CompactedSummary):
                    first, last = item.covers_steps
                    lines.append(f"steps {first}-{last} (summary): {item.text}")
                else:
                    lines.append(f"step {item.step_index}: {item.summary}")
            return "\n".join(lines)

    def clear(self) -> None:
        with self._lock:
            self._entries = []

    def snapshot(self) -> dict:
        with self._lock:
            items = [dict(to_doc(item), type=_TYPE_NAMES[type(item)]) for item in self._entries]
            return {"capacity": self.capacity, "entries": items}

    def restore(self, doc: dict) -> None:
        """Take the capacity and buffer of a ``snapshot`` document. A bad
        document leaves the buffer as it was."""
        self.prepare_restore(doc)()

    def prepare_restore(self, doc: dict) -> Callable[[], None]:
        """Parse and check a ``snapshot`` document, and return the function
        that replaces the buffer with it. A bad document raises here, before
        anything is replaced."""
        capacity = doc["capacity"]
        check_int(capacity, 1, "capacity")
        entries: List[BufferItem] = []
        for item in doc["entries"]:
            cls = _ITEM_TYPES.get(item["type"])
            if cls is None:
                raise ValueError(f"unknown temporal entry type: {item['type']!r}")
            entries.append(from_doc(cls, item))
        # An append leaves at most ``capacity`` entries, or a summary and the
        # new record when ``capacity`` is 1.
        if len(entries) > max(capacity, 2):
            raise InvariantError(
                f"holds {len(entries)} items, more than capacity {capacity} allows", "entries"
            )

        def install() -> None:
            with self._lock:
                self.capacity = capacity
                self._entries = entries

        return install

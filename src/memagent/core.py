"""Shared domain types, canonical JSON and the fan-out helper.

Every document written to disk (reports, snapshots, trajectory logs) is
rendered by :func:`canonical_json`, so golden files and snapshot diffs are
byte-stable; :func:`read_json` reads an input file (a suite, a gateway
config). One codec gives every type its document: :func:`to_doc` writes a
dataclass's init fields, and :func:`from_doc` passes them back to the type.

Every concurrent fan-out (the gateway's parallel invoke, the
orchestrator's update dispatch, gather and recall) goes through
:func:`fan_out`, which runs on one process-wide thread pool. It is also
the one fault policy of a fan-out: every call runs to its end, then the
first exception in call order is raised. A gateway fault never reaches
it, since each reasoner call degrades inside ``ReasonerGateway.ask``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, TypeVar


class Verb(str, Enum):
    NAVIGATE_TO = "navigate_to"
    FIND = "find"
    PICK_UP = "pick_up"
    PUT_DOWN_TO = "put_down_to"
    DROP = "drop"
    OPEN = "open"
    CLOSE = "close"
    TURN_ON = "turn_on"
    TURN_OFF = "turn_off"
    SLICE = "slice"
    TASK_COMPLETE = "task_complete"


#: Verbs that take no target object.
TARGETLESS_VERBS = frozenset({Verb.TASK_COMPLETE, Verb.DROP})


class Outcome(str, Enum):
    SUCCESS = "success"
    FAILURE = "failure"


class Termination(str, Enum):
    SUCCESS = "success"
    STEP_BUDGET = "step_budget"
    SELF_TERMINATED = "self_terminated"
    #: Planning failed on a backend fault (``GatewayError``).
    ABORTED = "aborted"
    CRASHED = "crashed"


class ReasonerRole(str, Enum):
    STEP_SUMMARIZER = "step_summarizer"
    QUERY_GENERATOR = "query_generator"
    KG_CONFLICT_DETECTOR = "kg_conflict_detector"
    MEMORY_EXTRACTOR = "memory_extractor"
    MEMORY_UPDATER = "memory_updater"
    PLANNER = "planner"
    CRITIC = "critic"


class InvariantError(ValueError):
    """A value violates a type invariant. ``path`` names the offending
    field."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def check_int(value: Any, minimum: int, path: str) -> None:
    """Raise ``InvariantError`` naming ``path`` unless ``value`` is an int,
    not a bool, of at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise InvariantError(f"must be an int >= {minimum}, not {value!r}", path)


def as_texts(value: Any) -> Optional[Tuple[str, ...]]:
    """``value`` as a tuple if it is a list or tuple of strings, else None.
    A string is not: its items are its characters."""
    if not isinstance(value, (list, tuple)):
        return None
    for item in value:
        if not isinstance(item, str):
            return None
    return tuple(value)


T = TypeVar("T")

_WS = re.compile(r"\s+")

#: Distinct strings kept canonicalized; a seed-3 suite run uses about 650.
CANONICAL_NAME_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=CANONICAL_NAME_CACHE_SIZE)
def canonical_name(name: str) -> str:
    """Canonical spelling for object/point names: case-folded, trimmed,
    inner whitespace collapsed to single spaces."""
    return _WS.sub(" ", name.strip().casefold())


@dataclass(frozen=True)
class ActionCommand:
    verb: Verb
    target: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.verb, Verb):
            object.__setattr__(self, "verb", Verb(self.verb))
        if self.verb in TARGETLESS_VERBS:
            object.__setattr__(self, "target", None)
        else:
            if not isinstance(self.target, str) or not canonical_name(self.target):
                raise InvariantError(
                    f"verb {self.verb.value} requires a non-blank string target", "target"
                )
            object.__setattr__(self, "target", canonical_name(self.target))

    def __str__(self) -> str:
        if self.target is None:
            return f"{self.verb.value}()"
        return f"{self.verb.value}({self.target})"


@dataclass(frozen=True)
class Observation:
    task_id: str
    step_index: int
    text: str

    def __post_init__(self):
        check_int(self.step_index, 0, "step_index")
        if not isinstance(self.text, str) or not self.text:
            raise InvariantError(f"must be non-empty text, not {self.text!r}", "text")


@dataclass(frozen=True)
class StepRecord:
    step_index: int
    action: ActionCommand
    summary: str
    outcome: Outcome
    failure_reason: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.action, ActionCommand):
            object.__setattr__(self, "action", from_doc(ActionCommand, self.action))
        if not isinstance(self.outcome, Outcome):
            object.__setattr__(self, "outcome", Outcome(self.outcome))
        check_int(self.step_index, 0, "step_index")
        if not isinstance(self.summary, str) or not self.summary:
            raise InvariantError(f"must be non-empty text, not {self.summary!r}", "summary")
        if self.outcome is Outcome.FAILURE and not self.failure_reason:
            raise InvariantError(
                "failure_reason required on failure", "failure_reason"
            )
        if self.outcome is Outcome.SUCCESS and self.failure_reason:
            raise InvariantError(
                "failure_reason only allowed on failure", "failure_reason"
            )


@dataclass(frozen=True)
class TaskResult:
    task_id: str
    scn: int
    gcn: int
    steps_used: int
    terminated_by: Termination

    def __post_init__(self):
        if self.gcn < 1:
            raise InvariantError("gcn must be >= 1", "gcn")
        if not (0 <= self.scn <= self.gcn):
            raise InvariantError("scn must satisfy 0 <= scn <= gcn", "scn")
        if self.steps_used < 0:
            raise InvariantError("steps_used must be >= 0", "steps_used")

    @property
    def success(self) -> bool:
        return self.scn == self.gcn


def canonical_json(doc: Any) -> str:
    """Deterministic JSON text: sorted keys, compact separators, UTF-8."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def read_json(path: str, error: Type[Exception]) -> Any:
    """The JSON document in the file at ``path``. Raises ``error``, naming
    the file, when it cannot be read or is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except ValueError as exc:  # undecodable bytes included
        raise error(f"{path}: not valid JSON ({exc})") from exc


def to_doc(value: Any) -> Any:
    """JSON-ready document of ``value``: a dataclass becomes an object of its
    init fields but ``None`` ones, an enum its value, a tuple or list a list,
    and a JSON scalar stays. Anything else raises ``TypeError``."""
    encode = _ENCODERS.get(type(value))
    if encode is None:
        encode = _ENCODERS[type(value)] = _encoder(type(value))
    return encode(value)


def from_doc(cls: Type[T], doc: dict) -> T:
    """The ``cls`` whose ``to_doc`` is ``doc``: its init fields found in
    ``doc`` go to ``cls``, whose ``__post_init__`` normalizes them; other
    keys are ignored, and a missing required field is a ``KeyError``."""
    fields = _init_fields(cls)
    return cls(**{name: doc[name] for name, required in fields if required or name in doc})


#: Per type met so far, the function that encodes its values.
_ENCODERS: Dict[type, Callable[[Any], Any]] = {}
#: Field types a dataclass encoder copies as they are, with no lookup.
_SCALARS = frozenset({str, int, float, bool})


def _encoder(cls: type) -> Callable[[Any], Any]:
    if dataclasses.is_dataclass(cls):
        names = [name for name, _ in _init_fields(cls)]

        def encode(value: Any) -> dict:
            doc = {}
            for name in names:
                item = getattr(value, name)
                if item is not None:
                    doc[name] = item if type(item) in _SCALARS else to_doc(item)
            return doc

        return encode
    if issubclass(cls, Enum):
        return lambda value: value.value
    if issubclass(cls, (tuple, list)):
        return lambda value: [to_doc(item) for item in value]
    if issubclass(cls, (str, int, float, type(None))):
        return lambda value: value
    raise TypeError(f"no document form for {cls!r}")


@functools.lru_cache(maxsize=None)
def _init_fields(cls: type) -> Tuple[Tuple[str, bool], ...]:
    """``(name, required)`` of each init field of the dataclass ``cls``."""
    return tuple(
        (f.name, f.default is f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
        if f.init
    )


#: Workers of the shared pool: the widest fan-out in the program, the three
#: branches of an action-level ``MemoryOrchestrator.dispatch_update``.
FAN_OUT_WORKERS = 3

_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _shared_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=FAN_OUT_WORKERS, thread_name_prefix="memagent-fan-out"
            )
        return _pool


def _result_or_exception(call: Callable[[], Any]) -> Any:
    try:
        return call()
    except Exception as exc:
        return exc


def fan_out(calls: Sequence[Callable[[], Any]], parallel: bool) -> List[Any]:
    """Run zero-argument ``calls`` and return their results in call order.

    Every call runs to its end, so a failing call never stops a sibling
    and both schedules leave the same state; then the first exception in
    call order, if any, is raised.

    The calls run inline on the caller's thread, in order, when
    ``parallel`` is false or there are fewer than two; otherwise on one
    lazily created, process-wide pool of ``FAN_OUT_WORKERS`` threads.

    Invariant: a fanned-out call must not call ``fan_out`` itself. The
    pool is shared and bounded, so an outer call holding a worker while it
    waits on inner calls queued behind it could wait forever.
    """
    if not parallel or len(calls) < 2:
        results = [_result_or_exception(call) for call in calls]
    else:
        pool = _shared_pool()
        futures = [pool.submit(_result_or_exception, call) for call in calls]
        results = [future.result() for future in futures]
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results

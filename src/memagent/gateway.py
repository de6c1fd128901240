"""Single gateway for every language-model-backed role in the system.

One table, ``_ROLES``, holds each role's ``RoleContract``: its request and
response schemas (data that one ``Schema.validate`` walks) and its
fallback. Two backends sit behind one invoke() surface, which checks both
schemas and a per-episode call budget: the deterministic oracle of
``oracle.py`` (the default, used by all tests), and a remote
chat-completions-style HTTP adapter. Callers use ask(), which degrades a
gateway fault to the role's fallback and logs it; the planner has none, so
its fault is raised. invoke_parallel() is an order-preserving fan-out of
ask() calls.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from .core import ReasonerRole, canonical_json, fan_out, read_json
from .oracle import COMPACTION_MAX_CHARS, OracleBackend, action_text, detect_conflicts
from .oracle import RULES as _ORACLE_RULES  # noqa: F401  (read only by perfbench/stub.py)

logger = logging.getLogger(__name__)

DEFAULT_BUDGET = 200
DEFAULT_MAX_RETRIES = 3
DEFAULT_TIMEOUT_MS = 30_000
#: Wait before the first remote retry; each later retry waits twice as long,
#: up to RETRY_BACKOFF_MAX_S.
RETRY_BACKOFF_S = 0.25
RETRY_BACKOFF_MAX_S = 4.0
API_KEY_ENV = "MEMAGENT_API_KEY"


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


def _is_a(value: Any, *types: type) -> bool:
    """``isinstance``, except that a bool is no int: JSON ``true`` is not 1."""
    return isinstance(value, types) and not isinstance(value, bool)


def typed(kind: type, min_len: int = 0) -> Check:
    """A ``kind`` value with at least ``min_len`` items."""
    expects = _TYPE_NAMES[kind] + (f" of length >= {min_len}" if min_len else "")
    return lambda v: _is_a(v, kind) and (not min_len or len(v) >= min_len), expects


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


def _fallback_summary(p: dict) -> Tuple[str, dict]:
    if p["kind"] == "step":
        text = f"{action_text(p['action'])}: {p['outcome']}"
        return "summarizer failed (%s); fallback template", {"summary": text}
    first, last = p["covers_steps"]
    text = f"steps {first}-{last}: " + "; ".join(p["entries"])[:COMPACTION_MAX_CHARS]
    return "compaction summarizer failed (%s); falling back", {"summary": text}


def _fallback_query(p: dict) -> Tuple[str, dict]:
    names = dict.fromkeys([*p.get("goal_entities", []), *p.get("visible_entities", [])])
    answer = {"query": p["instruction"], "entities": list(names)}
    return "query generator failed (%s); fallback to instruction", answer


@dataclass(frozen=True)
class RoleContract:
    """Everything the gateway knows of one reasoner role."""

    request: Schema
    response: Schema
    #: The warning template (one ``%s`` for the error) and the answer that
    #: stand in for a failed call, both computed from the request. None for
    #: the planner: without a plan the episode aborts.
    fallback: Optional[Callable[[dict], Tuple[str, dict]]]


_OUTCOME = one_of("success", "failure")
_TARGET = Schema({"target_id": TEXT})

#: Per role: request schema, response schema, fallback.
_ROLES: Dict[ReasonerRole, RoleContract] = {
    ReasonerRole.STEP_SUMMARIZER: RoleContract(
        Schema({"kind": one_of("step", "compact")}, when=("kind", {
            "step": Schema({"action": typed(dict), "outcome": _OUTCOME}),
            "compact": Schema({"entries": typed(list, 1), "covers_steps": SPAN}),
        })),
        Schema({"summary": TEXT}),
        _fallback_summary,
    ),
    ReasonerRole.QUERY_GENERATOR: RoleContract(
        Schema({"instruction": TEXT}),
        Schema({"query": TEXT, "entities": list_of(TEXT)}),
        _fallback_query,
    ),
    ReasonerRole.KG_CONFLICT_DETECTOR: RoleContract(
        Schema({"edges": list_of(has_keys("subject", "relation", "object"))}),
        Schema({"conflicts": list_of(list_of(typed(int), 2))}),
        lambda p: ("conflict detector failed (%s); using oracle rules", detect_conflicts(p)),
    ),
    ReasonerRole.MEMORY_EXTRACTOR: RoleContract(
        Schema({"task_id": TEXT, "instruction": TEXT, "outcome": _OUTCOME}),
        Schema({"episodic": list_of(TEXT, 1), "semantic": list_of(TEXT)}),
        lambda p: ("extractor failed (%s); using fallback template",
                   {"episodic": [f"task {p['task_id']}: {p['instruction']} -> {p['outcome']}"],
                    "semantic": []}),
    ),
    ReasonerRole.MEMORY_UPDATER: RoleContract(
        Schema({"new": typed(dict), "similar": typed(list)}),
        Schema({"action": one_of("add", "update", "replace")},
               when=("action", {"update": _TARGET, "replace": _TARGET})),
        lambda p: ("updater failed (%s); add-only fallback", {"action": "add"}),
    ),
    ReasonerRole.PLANNER: RoleContract(
        Schema({"instruction": TEXT, "goals": typed(list),
                "profile": one_of("alfred", "realworld"), "nav_points": typed(list, 1)}),
        Schema({"steps": list_of(has_keys("verb"))}),
        None,
    ),
    ReasonerRole.CRITIC: RoleContract(
        Schema({"action": typed(dict), "facts": typed(list)}),
        Schema({"decision": one_of("approve", "reject")},
               when=("decision", {"reject": Schema({"reason": TEXT})})),
        lambda p: ("critic failed (%s); approving by default",
                   {"decision": "approve", "reason": "critic unavailable"}),
    ),
}


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
        if not _is_a(self.timeout_ms, int, float) or self.timeout_ms <= 0:
            raise GatewayConfigError(f"timeout_ms must be > 0, not {self.timeout_ms!r}")
        if not _is_a(self.max_retries, int) or self.max_retries < 0:
            raise GatewayConfigError(f"max_retries must be an int >= 0, not {self.max_retries!r}")
        if not _is_a(self.budget, int) or self.budget <= 0:
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

"""Outside-in instrumentation for the benchmark.

Everything here wraps the package's public functions from the outside and
removes the wrappers again; nothing in ``src/`` is changed.

* ``Patches`` swaps attributes on classes and modules and restores them.
* ``LogCounter`` counts fallback, crash and abort log records.
* ``StepClock`` measures the agent's decision latency between environment
  steps (always on: it is an end-to-end metric).
* ``Recorder`` keeps spans in memory and aggregates calls, busy time and
  self time per layer function (traced runs only).
"""

from __future__ import annotations

import functools
import logging
import statistics
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

import memagent
from memagent import envsim, gateway, harness, lifelong, orchestrator, planner
from memagent import preprocessor, spatial, temporal, vector_index
from memagent.gateway import ReasonerRole

now = time.perf_counter


class Patches:
    """Attribute swaps on classes and modules, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        # Read the raw class attribute so a plain function is restored as one.
        old = owner.__dict__[attr]
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


#: Substrings of the package's log format strings, by what they report.
LOG_KINDS = {
    "using oracle rules": "fallbacks.conflict_oracle",
    "add-only fallback": "fallbacks.add_only",
    "falling back to add": "fallbacks.add_only",
    "using fallback template": "fallbacks.template_extractor",
    "summarizer failed": "fallbacks.template_summarizer",
    "approving by default": "fallbacks.critic_auto_approve",
    "fallback to instruction": "fallbacks.query_instruction",
    "crashed": "crashes",
    "planning failed": "aborts",
}
FALLBACK_KINDS = sorted({v for v in LOG_KINDS.values() if v.startswith("fallbacks.")})


class LogCounter(logging.Handler):
    """Counts ``memagent`` log records by kind while used as a context manager."""

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.counts: Counter = Counter()
        self._logger = logging.getLogger(memagent.__name__)

    def emit(self, record: logging.LogRecord) -> None:
        template = str(record.msg)
        for needle, kind in LOG_KINDS.items():
            if needle in template:
                self.counts[kind] += 1
                return

    def __enter__(self) -> "LogCounter":
        self._logger.addHandler(self)
        return self

    def __exit__(self, *exc) -> None:
        self._logger.removeHandler(self)


class StepClock:
    """Decision latency: from the return of ``Environment.reset`` or ``step``
    to the next ``step`` call on the same environment."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._env: Optional[object] = None
        self._returned = 0.0

    def install(self, patches: Patches) -> None:
        env_cls = envsim.Environment
        step, reset = env_cls.__dict__["step"], env_cls.__dict__["reset"]
        me = self

        @functools.wraps(reset)
        def timed_reset(env, *args, **kwargs):
            obs = reset(env, *args, **kwargs)
            me._env, me._returned = env, now()
            return obs

        @functools.wraps(step)
        def timed_step(env, *args, **kwargs):
            if env is me._env:
                me.samples.append(now() - me._returned)
            out = step(env, *args, **kwargs)
            me._env, me._returned = env, now()
            return out

        patches.set(env_cls, "reset", timed_reset)
        patches.set(env_cls, "step", timed_step)


class _Span:
    __slots__ = ("name", "parent", "start", "child", "lanes", "cross", "fanout")

    def __init__(self, name, parent, start, cross, fanout):
        self.name = name
        self.parent = parent
        self.start = start
        self.child = 0.0  # time covered by same-thread children
        self.lanes: Dict[int, List[tuple]] = {}  # pool thread -> child intervals
        self.cross = cross  # started on a pool thread of ``parent``
        self.fanout = fanout


class _Stat:
    __slots__ = ("calls", "busy", "self_", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_ = 0.0
        self.errors = 0


def _union(intervals: List[tuple]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Recorder:
    """In-memory spans around public functions of every layer.

    A span's parent is the innermost open span of its own thread. A span
    opened on a thread with no open span (an executor worker) belongs to
    the innermost open fan-out span (``gather_context``, ``dispatch_update``
    or ``invoke_parallel``); its interval is a *lane* of that fan-out.
    Self time is busy time minus the part covered by child spans.
    """

    #: Fan-out spans whose ``span - longest lane`` is the fan-out overhead.
    FANOUT_OVERHEAD = ("orchestrator.gather_context", "orchestrator.dispatch_action",
                       "orchestrator.dispatch_task")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fanouts: List[_Span] = []
        self.stats: Dict[str, _Stat] = {}
        self.counts: Counter = Counter()
        self.gather_busy: List[float] = []  # per gather_context call
        self.embedded: set = set()
        self.entries_max = 0
        self.log_counts: Counter = Counter()  # filled by the caller's LogCounter

    # -- spans -----------------------------------------------------------

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, fanout: bool = False) -> _Span:
        stack = self._stack()
        if stack:
            parent, cross = stack[-1], False
        else:
            with self._lock:
                parent = self._fanouts[-1] if self._fanouts else None
            cross = parent is not None
        span = _Span(name, parent, now(), cross, fanout)
        stack.append(span)
        if fanout:
            with self._lock:
                self._fanouts.append(span)
        return span

    def exit(self, span: _Span, ok: bool) -> None:
        end = now()
        self._stack().pop()
        busy = end - span.start
        lanes = [_union(v) for v in span.lanes.values()]
        covered = span.child + _union([iv for v in span.lanes.values() for iv in v])
        with self._lock:
            if span.fanout:
                self._fanouts.remove(span)
            stat = self.stats.get(span.name)
            if stat is None:
                stat = self.stats[span.name] = _Stat()
            stat.calls += 1
            stat.busy += busy
            stat.self_ += max(0.0, busy - covered)
            stat.errors += not ok
            if span.name == "orchestrator.gather_context":
                self.gather_busy.append(busy)
            if lanes and span.name in self.FANOUT_OVERHEAD:
                self.counts["orchestrator.fanout_overhead_s"] += busy - max(lanes)
            parent = span.parent
            if parent is not None:
                if span.cross:
                    parent.lanes.setdefault(threading.get_ident(), []).append((span.start, end))
                else:
                    parent.child += busy

    def wrap(self, fn: Callable, name, fanout: bool = False,
             after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span. ``name`` is a string or a function of the
        call's arguments; ``after(args, result)`` observes the result under
        the recorder's lock."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.enter(name if isinstance(name, str) else name(args, kwargs), fanout)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                rec.exit(span, ok)
            if after is not None:
                with rec._lock:
                    after(args, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, patches: Patches) -> None:
        """Wrap every layer's public functions, at class level and under
        every module name they are looked up by."""
        count = self.counts

        def method(cls, attr, name, **kw):
            patches.set(cls, attr, self.wrap(cls.__dict__[attr], name, **kw))

        def function(modules, attr, name, **kw):
            wrapped = self.wrap(getattr(modules[0], attr), name, **kw)
            for module in modules:
                patches.set(module, attr, wrapped)

        method(envsim.Environment, "step", "envsim.step")
        method(envsim.Environment, "reset", "envsim.reset")
        method(preprocessor.Preprocessor, "preprocess", "preprocessor.preprocess")

        orch = orchestrator.MemoryOrchestrator
        method(orch, "gather_context", "orchestrator.gather_context", fanout=True)
        method(orch, "dispatch_update",
               lambda a, k: f"orchestrator.dispatch_{(a[1] if len(a) > 1 else k['event']).level}",
               fanout=True)

        sm = spatial.SpatialMemory
        for attr in ("integrate", "buffer_triplets", "query", "retrieve_subgraph"):
            method(sm, attr, f"spatial.{attr}")

        def temporal_append(cls_append):
            def before_append(tm, *args, **kwargs):
                if len(tm.entries()) >= tm.capacity:
                    with self._lock:
                        count["temporal.compactions"] += 1
                return cls_append(tm, *args, **kwargs)
            return functools.wraps(cls_append)(before_append)

        tm = temporal.TemporalMemory
        patches.set(tm, "append", self.wrap(temporal_append(tm.__dict__["append"]),
                                            "temporal.append"))
        method(tm, "render", "temporal.render")

        lm = lifelong.LifelongMemory

        def after_consolidate(args, plan):
            replaces = len(plan.deletes)
            count["lifelong.consolidate.adds"] += len(plan.adds) - replaces
            count["lifelong.consolidate.updates"] += len(plan.updates)
            count["lifelong.consolidate.replaces"] += replaces
            self.entries_max = max(self.entries_max, len(args[0]))

        method(lm, "retrieve", "lifelong.retrieve")
        method(lm, "consolidate", "lifelong.consolidate", after=after_consolidate)
        method(lm, "extract_task_entities", "lifelong.extract_task_entities")
        method(lm, "record_action_experience", "lifelong.record_action_experience")

        def after_embed(args, _):
            self.embedded.add(args[1])

        def after_search(args, _):
            count["vector_index.search.scanned_entries"] += len(args[0])

        method(vector_index.HashingEmbedder, "embed", "vector_index.embed", after=after_embed)
        method(vector_index.VectorIndex, "search", "vector_index.search", after=after_search)
        function([vector_index, spatial], "cosine", "vector_index.cosine")

        def role_name(args, kwargs):
            role = args[1] if len(args) > 1 else kwargs["role"]
            return f"gateway.invoke.{ReasonerRole(role).value}"

        method(gateway.ReasonerGateway, "invoke", role_name)
        method(gateway.ReasonerGateway, "invoke_parallel", "gateway.invoke_parallel",
               fanout=True)
        method(gateway.RemoteBackend, "invoke", "gateway.remote.invoke")

        def after_review(args, verdict):
            count["planner.review.approved"] += verdict.decision == "approve"

        method(planner.PlannerCritic, "plan", "planner.plan")
        method(planner.PlannerCritic, "review", "planner.review", after=after_review)
        function([planner], "build_beliefs", "planner.build_beliefs")
        function([planner, harness], "run_episode", "planner.run_episode")

        thread_start = threading.Thread.__dict__["start"]

        @functools.wraps(thread_start)
        def counted_start(thread, *args, **kwargs):
            with self._lock:
                count["threads_started"] += 1
            return thread_start(thread, *args, **kwargs)

        patches.set(threading.Thread, "start", counted_start)

    # -- results -------------------------------------------------------------

    def metrics(self, runs: int, remote_requests: int) -> Dict[str, float]:
        """Per-layer metrics over ``runs`` traced suite runs. Counts and
        seconds are per two-pass suite run; ratios, percentiles and maxima
        are over all of them. ``remote_requests`` is the stub's count."""

        def stat(name: str) -> _Stat:
            return self.stats.get(name) or _Stat()

        def per_run(value: float) -> float:
            return value / runs

        out: Dict[str, float] = {}
        for name, fields in LAYER_STATS.items():
            s = stat(name)
            for field in fields:
                value = {"calls": s.calls, "busy_s": s.busy, "self_s": s.self_,
                         "errors": s.errors}[field]
                out[f"{name}.{field}"] = per_run(value)
        embeds = stat("vector_index.embed").calls
        out["vector_index.embed.distinct_ratio"] = len(self.embedded) / embeds if embeds else 0.0
        out["orchestrator.gather_context.p50_us"] = (
            statistics.median(self.gather_busy) * 1e6 if self.gather_busy else 0.0
        )
        reviews = stat("planner.review").calls
        out["planner.review.approve_ratio"] = (
            self.counts["planner.review.approved"] / reviews if reviews else 0.0
        )
        remote = stat("gateway.remote.invoke")
        out["gateway.remote.wait_s"] = per_run(remote.busy)
        out["gateway.remote.attempts_per_call"] = (
            remote_requests / remote.calls if remote.calls else 0.0
        )
        for key in ("orchestrator.fanout_overhead_s", "threads_started", "temporal.compactions",
                    "lifelong.consolidate.adds", "lifelong.consolidate.updates",
                    "lifelong.consolidate.replaces", "vector_index.search.scanned_entries"):
            out[key] = per_run(self.counts[key])
        out["lifelong.entries.max"] = float(self.entries_max)
        for kind in FALLBACK_KINDS:
            out[kind] = per_run(self.log_counts[kind])
        return out


#: Span aggregates reported per layer function.
LAYER_STATS = {
    "envsim.step": ("calls", "busy_s"),
    "preprocessor.preprocess": ("self_s",),
    "orchestrator.gather_context": ("busy_s",),
    "orchestrator.dispatch_action": ("busy_s",),
    "orchestrator.dispatch_task": ("busy_s",),
    "spatial.integrate": ("calls", "self_s"),
    "spatial.buffer_triplets": ("busy_s",),
    "spatial.query": ("busy_s",),
    "spatial.retrieve_subgraph": ("busy_s",),
    "temporal.append": ("busy_s",),
    "lifelong.retrieve": ("calls", "busy_s"),
    "lifelong.consolidate": ("calls", "self_s"),
    "vector_index.embed": ("calls", "busy_s"),
    "vector_index.cosine": ("calls",),
    "vector_index.search": ("calls", "busy_s"),
    **{f"gateway.invoke.{role.value}": ("calls", "busy_s", "errors") for role in ReasonerRole},
    "gateway.invoke_parallel": ("busy_s",),
    "planner.plan": ("calls", "self_s"),
    "planner.review": ("calls", "busy_s"),
    "planner.build_beliefs": ("busy_s",),
    "planner.run_episode": ("busy_s",),
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if "episodes_per_s" in name:
        return "episodes/s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_call"):
        return "ratio"
    return "count"

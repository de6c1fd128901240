"""Self-tests of the benchmark itself; run with

    python3 perfbench/run.py --selftest

* The loopback stub answers like ``OracleBackend.invoke`` for sample
  payloads of every role, captured from a real suite pass.
* An untraced run after a traced run reports the same bytes, and every
  wrapped attribute is the original object again.
* Self time and fan-out lanes of the span recorder add up on a toy call tree.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from memagent import envsim, gateway, harness, lifelong, orchestrator, planner
from memagent import preprocessor, spatial, temporal, vector_index
from memagent.gateway import OracleBackend, ReasonerRole, RemoteBackend

import spans
import workloads

SAMPLES_PER_ROLE = 4


def sample_payloads() -> dict:
    """Role -> the first few payloads the agent sends in one suite pass."""
    captured = {role: [] for role in ReasonerRole}
    invoke = gateway.ReasonerGateway.__dict__["invoke"]

    def capture(self, role, payload):
        if len(captured[role]) < SAMPLES_PER_ROLE:
            captured[role].append(payload)
        return invoke(self, role, payload)

    patches = spans.Patches()
    patches.set(gateway.ReasonerGateway, "invoke", capture)
    try:
        system = harness.AgentSystem.build(parallel=False)
        profile, tasks = envsim.load_suite(envsim.builtin_suite_path())
        harness.run_pass(tasks, system, suite_seed=workloads.EVAL_SEED, profile=profile,
                         failure_p=workloads.FAILURE_P)
    finally:
        patches.restore()
    return captured


def test_stub_matches_oracle() -> None:
    payloads = sample_payloads()
    oracle = OracleBackend()
    with workloads.Stub() as stub:
        remote = RemoteBackend(base_url=stub.url, model="oracle-stub")
        sent = 0
        for role, samples in payloads.items():
            assert samples, f"no {role.value} payload captured"
            for payload in samples:
                assert remote.invoke(role, payload) == oracle.invoke(role, payload), role
                sent += 1
        assert stub.requests() == sent, "stub request count is off"


def _wrapped_attributes() -> dict:
    owners = [envsim.Environment, preprocessor.Preprocessor, orchestrator.MemoryOrchestrator,
              spatial.SpatialMemory, temporal.TemporalMemory, lifelong.LifelongMemory,
              vector_index.HashingEmbedder, vector_index.VectorIndex, gateway.ReasonerGateway,
              gateway.RemoteBackend, planner.PlannerCritic, harness.AgentSystem, threading.Thread,
              vector_index, spatial, planner, harness]
    return {(id(o), name): value for o in owners for name, value in vars(o).items()
            if callable(value) or isinstance(value, classmethod)}


def test_no_residue() -> None:
    before = _wrapped_attributes()
    workload = workloads.WORKLOADS["suite-seq"]
    plain = workloads.run_suite(workload, workloads.EVAL_SEED).report
    patches = spans.Patches()
    spans.Recorder().install(patches)
    try:
        traced = workloads.run_suite(workload, workloads.EVAL_SEED).report
        # The warm workload wraps AgentSystem.build as well.
        workloads.run_suite(workloads.WORKLOADS["warm-lifelong"], workloads.EVAL_SEED)
    finally:
        patches.restore()
    after_traced = workloads.run_suite(workload, workloads.EVAL_SEED).report
    assert traced == plain, "a traced run reports differently"
    assert after_traced == plain, "a run after a traced run reports differently"
    after = _wrapped_attributes()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert not changed and before.keys() == after.keys(), "wrappers left behind"


class _Toy:
    def leaf(self):
        time.sleep(0.02)

    def branch(self):
        time.sleep(0.01)
        self.leaf()

    def fan(self):
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(self.branch) for _ in range(2)]:
                future.result()


def test_recorder_self_time() -> None:
    recorder = spans.Recorder()
    patches = spans.Patches()
    for name in ("leaf", "branch"):
        patches.set(_Toy, name, recorder.wrap(_Toy.__dict__[name], name))
    patches.set(_Toy, "fan", recorder.wrap(_Toy.__dict__["fan"], "orchestrator.gather_context",
                                           fanout=True))
    try:
        _Toy().fan()
    finally:
        patches.restore()
    stats = recorder.stats
    fan = stats["orchestrator.gather_context"]
    assert stats["branch"].calls == 2 and stats["leaf"].calls == 2
    assert abs(stats["branch"].self_ - 0.02) < 0.01, stats["branch"].self_
    # The two branches overlap: the fan-out's self time is its own overhead,
    # well under one branch, not busy time minus both branches.
    assert 0 <= fan.self_ < 0.015, fan.self_
    assert 0 <= recorder.counts["orchestrator.fanout_overhead_s"] < 0.015


TESTS = [test_recorder_self_time, test_stub_matches_oracle, test_no_residue]


def main() -> int:
    failures = 0
    for test in TESTS:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0

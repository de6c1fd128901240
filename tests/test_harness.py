"""Tests for the evaluation harness: metrics, suite runs, reports."""

import hashlib
import io
import json
import random
import threading

import pytest

from memagent import gateway as gateway_module
from memagent import harness
from memagent.core import TaskResult, Termination, canonical_json
from memagent.envsim import TaskSpec, builtin_suite_path, load_suite
from memagent.gateway import BackendUnreachableError
from memagent.harness import (
    REPORT_SCHEMA_VERSION,
    AgentSystem,
    bench_retrieval,
    compute_metrics,
    render_table,
    run_ablation,
    run_pass,
    run_suite,
    write_report,
)
from memagent.lifelong import LifelongMemory
from memagent.preprocessor import Preprocessor
from memagent.spatial import SpatialMemory
from memagent.temporal import TemporalMemory


def result(task_id, scn, gcn):
    return TaskResult(
        task_id=task_id,
        scn=scn,
        gcn=gcn,
        steps_used=5,
        terminated_by=Termination.SUCCESS if scn == gcn else Termination.STEP_BUDGET,
    )


def tiny_suite(tmp_path, n=2):
    objs = ["cup", "banana"]
    places = ["kitchen counter", "shelf"]
    tasks = [
        {
            "id": f"task-{i}",
            "instruction": f"put {objs[i]} on {places[i]}",
            "category": "pick_place",
            "goal_conditions": [
                {"kind": "at", "obj": objs[i], "rel": "on", "place": places[i]}
            ],
            "initial_seed": 11 + i,
        }
        for i in range(n)
    ]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"profile": "realworld", "tasks": tasks}))
    return str(path)


@pytest.fixture
def latency_bound_oracle(monkeypatch):
    """Makes every gateway built from now on run an oracle that says it waits
    (as a remote backend does), so that a ``parallel=True`` run fans its
    calls out to threads. Returns the calling thread of every backend call."""
    threads = []

    class LatencyBoundOracle(gateway_module.OracleBackend):
        latency_bound = True

        def invoke(self, role, payload):
            threads.append(threading.current_thread())
            return super().invoke(role, payload)

    monkeypatch.setattr(gateway_module, "OracleBackend", LatencyBoundOracle)
    return threads


def off_main_thread(threads) -> int:
    return sum(t is not threading.main_thread() for t in threads)


class TestMetrics:
    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            compute_metrics([])

    def test_known_values(self):
        results = [result("a", 2, 2), result("b", 1, 2), result("c", 0, 1)]
        metrics = compute_metrics(results)
        assert metrics["sr"] == pytest.approx(1 / 3)
        assert metrics["gc"] == pytest.approx((1.0 + 0.5 + 0.0) / 3)

    def test_matches_independent_tally(self):
        rng = random.Random(9)
        results = []
        for i in range(50):
            gcn = rng.randint(1, 4)
            results.append(result(f"t{i}", rng.randint(0, gcn), gcn))
        metrics = compute_metrics(results)
        exact, partial = 0, 0.0
        for r in results:
            exact += int(r.scn == r.gcn)
            partial += r.scn / r.gcn
        assert metrics["sr"] == pytest.approx(exact / 50)
        assert metrics["gc"] == pytest.approx(partial / 50)


class TestAgentSystem:
    def test_fans_out_only_on_a_latency_bound_backend(self, tmp_path):
        assert not AgentSystem.build(parallel=True).orchestrator.parallel
        config = tmp_path / "gateway.json"
        config.write_text(json.dumps(
            {"backend": "remote", "remote": {"base_url": "http://127.0.0.1:9", "model": "m"}}
        ))
        assert AgentSystem.build(config_path=str(config), parallel=True).orchestrator.parallel
        assert not AgentSystem.build(config_path=str(config), parallel=False).orchestrator.parallel

    def test_built_gateway_names_the_backend_of_a_config_file(self, tmp_path):
        config = tmp_path / "gateway.json"
        config.write_text(json.dumps(
            {"backend": "remote", "remote": {"base_url": "http://127.0.0.1:9", "model": "m"}}
        ))
        assert AgentSystem.build().gateway.backend.name == "oracle"
        assert AgentSystem.build(config_path=str(config)).gateway.backend.name == "remote"

    @pytest.mark.parametrize("parallel", [True, False])
    def test_run_parallel_flag_governs_every_backend_call(self, parallel, latency_bound_oracle):
        # A latency-bound backend fans out only when the run asks for it:
        # the preprocessor's summarizer and query calls included.
        threads = latency_bound_oracle
        system = AgentSystem.build(parallel=parallel)
        profile, tasks = load_suite(builtin_suite_path())
        run_pass(tasks[:3], system, suite_seed=3, profile=profile, failure_p=0.1)
        assert threads
        assert (off_main_thread(threads) > 0) == parallel

    def test_task_level_update_runs_on_the_callers_thread(
        self, latency_bound_oracle, monkeypatch
    ):
        # A task-level update has one branch, so fan_out runs consolidation
        # inline: a fan-out inside it is a top-level one, not nested. A step's
        # update has two or more branches, and the gather two sections, so
        # they run on pool threads; the reset observation's update has only
        # the spatial branch. An observation that shows no world fact (the
        # agent's place and hand are not facts) sends no spatial branch.
        on_main = {}
        spatial_sent = []  # per observation with a world fact: is it the reset one?
        preprocess = Preprocessor.preprocess

        def recording_preprocess(pre, obs, last_action, *args):
            out = preprocess(pre, obs, last_action, *args)
            if out.triplets:
                spatial_sent.append(last_action is None)
            return out

        monkeypatch.setattr(Preprocessor, "preprocess", recording_preprocess)

        def recorded(cls, name):
            method = getattr(cls, name)

            def record(self, *args):
                on_main.setdefault(name, []).append(
                    threading.current_thread() is threading.main_thread()
                )
                return method(self, *args)

            monkeypatch.setattr(cls, name, record)

        for cls, name in [(LifelongMemory, "extract_task_entities"),
                          (LifelongMemory, "consolidate"),
                          (SpatialMemory, "buffer_triplets"),
                          (SpatialMemory, "query"),
                          (TemporalMemory, "append")]:
            recorded(cls, name)
        profile, tasks = load_suite(builtin_suite_path())
        run_pass(tasks, AgentSystem.build(parallel=True), suite_seed=3, profile=profile,
                 failure_p=0.1)
        assert on_main["extract_task_entities"] == [True] * len(tasks)
        assert on_main["consolidate"] == [True] * len(tasks)
        steps = len(on_main["append"])
        assert steps > len(tasks)
        assert not any(on_main["append"]) and not any(on_main["query"])
        assert on_main["buffer_triplets"] == spatial_sent
        assert 0 < spatial_sent.count(False) < steps


class TestRunPass:
    def test_crashed_episode_counts_as_failure(self, tmp_path, caplog):
        task = TaskSpec(
            id="boom",
            instruction="put cup on kitchen counter",
            category="pick_place",
            goal_conditions=({"kind": "at", "obj": "cup", "place": "kitchen counter"},),
            initial_seed=1,
        )
        system = AgentSystem.build()
        system.orchestrator.gather_context = None  # sabotage the episode loop
        episodes = run_pass([task], system, suite_seed=0, failure_p=0.0)
        assert len(episodes) == 1
        assert episodes[0].result.scn == 0
        assert episodes[0].result.terminated_by is Termination.CRASHED
        [record] = [r for r in caplog.records if "crashed" in r.getMessage()]
        assert record.exc_info[0] is TypeError  # logged with its traceback

    def test_failing_memory_branch_crashes_every_task(self, monkeypatch):
        # A raising update branch must not read as an agent that stopped on
        # its own with a lower score.
        def explode(self, triplets):
            raise RuntimeError("spatial exploded")

        monkeypatch.setattr(SpatialMemory, "buffer_triplets", explode)
        profile, tasks = load_suite(builtin_suite_path())
        episodes = run_pass(tasks, AgentSystem.build(), suite_seed=3, profile=profile)
        assert len(episodes) == 15
        for episode in episodes:
            assert episode.result.terminated_by is Termination.CRASHED

    def test_crashed_episode_leaves_nothing_to_the_next_task(self, monkeypatch):
        # pp-01 buffers failure lessons, then crashes at its task-level
        # update; pp-02 must store what it stores when it runs alone.
        extract = LifelongMemory.extract_task_entities
        lessons = []

        def crash_pp_01(self, trace, result):
            if trace.task_id == "pp-01":
                lessons.extend(self._action_buffer)
                raise RuntimeError("extractor exploded")
            return extract(self, trace, result)

        monkeypatch.setattr(LifelongMemory, "extract_task_entities", crash_pp_01)
        profile, tasks = load_suite(builtin_suite_path())
        stored = []
        for run in (tasks[:2], tasks[1:2]):
            system = AgentSystem.build()
            episodes = run_pass(run, system, suite_seed=3, profile=profile, failure_p=0.1)
            assert episodes[-1].result.terminated_by is not Termination.CRASHED
            stored.append([e.text for e in system.orchestrator.lifelong.entities()])
        assert lessons  # pp-01 left failure lessons buffered
        assert stored[0] == stored[1]

    def test_dead_backend_aborts_every_task_at_step_zero(self):
        # Every role but the planner degrades to its fallback; the planner's
        # fault aborts the episode before its first step, and the report says
        # so rather than showing an agent that stopped on its own.
        class DeadBackend:
            def invoke(self, role, payload):
                raise BackendUnreachableError("connection refused")

        system = AgentSystem.build()
        system.gateway.backend = DeadBackend()
        profile, tasks = load_suite(builtin_suite_path())
        episodes = run_pass(tasks[:3], system, suite_seed=3, profile=profile, failure_p=0.1)
        assert len(episodes) == 3
        for episode in episodes:
            assert episode.result.steps_used == 0
            assert episode.result.terminated_by is Termination.ABORTED

    def test_trajectory_log_is_json_lines(self, tmp_path):
        suite = tiny_suite(tmp_path, n=1)
        log = io.StringIO()
        run_suite(suite_path=suite, seed=0, passes=1, failure_p=0.0, trajectory_log=log)
        lines = [l for l in log.getvalue().splitlines() if l]
        assert lines
        for line in lines:
            entry = json.loads(line)
            assert entry["task_id"] == "task-0"


class TestRunSuite:
    def test_report_shape(self, tmp_path):
        suite = tiny_suite(tmp_path)
        outcome = run_suite(suite_path=suite, seed=3, passes=2, failure_p=0.0)
        report = outcome["report"]
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert report["suite"] == "suite.json"
        assert report["profile"] == "realworld"
        assert len(report["passes"]) == 2
        assert "sr_delta" in report
        for pass_doc in report["passes"]:
            assert set(pass_doc["metrics"]) == {"sr", "gc"}
            assert len(pass_doc["tasks"]) == 2
        assert outcome["latency"]["count"] > 0

    def test_perfect_run_without_failures(self, tmp_path):
        suite = tiny_suite(tmp_path)
        outcome = run_suite(suite_path=suite, seed=3, passes=1, failure_p=0.0)
        assert outcome["report"]["passes"][0]["metrics"]["sr"] == 1.0

    def test_snapshots_written_per_pass(self, tmp_path):
        suite = tiny_suite(tmp_path, n=1)
        snap_dir = tmp_path / "snaps"
        run_suite(
            suite_path=suite, seed=0, passes=2, failure_p=0.0,
            snapshot_dir=str(snap_dir),
        )
        for n in (1, 2):
            doc = json.loads((snap_dir / f"memory_pass{n}.json").read_text())
            assert set(doc) == {"spatial", "temporal", "lifelong"}

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        suite = tiny_suite(tmp_path)

        def report_bytes():
            outcome = run_suite(suite_path=suite, seed=5, passes=2, failure_p=0.1)
            out = tmp_path / "report.json"
            write_report(outcome, str(out))
            return out.read_bytes()

        assert report_bytes() == report_bytes()

    def test_report_names_the_backend_that_ran(self, tmp_path):
        # The config file's backend is the one that runs, so it is reported.
        suite = tiny_suite(tmp_path, n=1)
        config = tmp_path / "gateway.json"
        config.write_text(json.dumps({"backend": "oracle"}))
        outcome = run_suite(
            suite_path=suite, backend="remote", config_path=str(config), seed=0, passes=1,
            failure_p=0.0,
        )
        assert outcome["report"]["backend"] == "oracle"

    def test_write_report_produces_sidecar(self, tmp_path):
        suite = tiny_suite(tmp_path, n=1)
        outcome = run_suite(suite_path=suite, seed=0, passes=1, failure_p=0.0)
        out = tmp_path / "r.json"
        write_report(outcome, str(out))
        assert json.loads(out.read_text())["seed"] == 0
        sidecar = json.loads((tmp_path / "r.json.latency.json").read_text())
        assert sidecar["count"] > 0

    @pytest.mark.parametrize("passes", [0, -2])
    def test_fewer_than_one_pass_is_refused_before_the_first_episode(
        self, tmp_path, monkeypatch, passes
    ):
        episodes = []
        monkeypatch.setattr(harness, "run_episode", lambda *a, **k: episodes.append(a))
        suite = tiny_suite(tmp_path)
        for run in (run_suite, run_ablation):
            with pytest.raises(ValueError, match="passes must be at least 1"):
                run(suite_path=suite, passes=passes)
        assert episodes == []

    def test_render_table_lists_every_pass(self, tmp_path):
        suite = tiny_suite(tmp_path)
        outcome = run_suite(suite_path=suite, seed=3, passes=2, failure_p=0.0)
        table = render_table(outcome["report"])
        assert "suite.json" in table
        assert "pass-to-pass sr delta" in table
        assert len(table.splitlines()) == 5


#: sha256 of canonical_json(report["passes"]) of the built-in suite, two
#: passes, failure_p=0.1. The queries of seeds 5 and 500 hold words spelled
#: close to a node's name that name no node (``cabinet,``, ``closed,``): such
#: a word seeds nothing.
GOLDEN_PASSES_SHA256 = {
    3: "081eaec0ba04232670bc26dd0fe8a48d303354362f08e9e84f726a05b67904d7",
    5: "981c6c88c07df6db25aa47a7157454a00417c96ffa35ff654df4c8455574305d",
    11: "6dd511bd1c765ec673f83c1d38264004b6d5340bb79b6373c81faa3629bfd6a9",
    500: "03d2281b99417316785c716635116d5748e6d8c5f8d7fe7a8f8bc2491ea12495",
}


class TestGoldenReports:
    @pytest.mark.parametrize("parallel", [True, False])
    @pytest.mark.parametrize("seed", sorted(GOLDEN_PASSES_SHA256))
    def test_builtin_suite_passes_match_golden_digest(self, seed, parallel):
        assert self.digest(seed, parallel) == GOLDEN_PASSES_SHA256[seed]

    @pytest.mark.parametrize("seed", sorted(GOLDEN_PASSES_SHA256))
    def test_threaded_schedule_matches_golden_digest(self, seed, latency_bound_oracle):
        assert self.digest(seed, parallel=True) == GOLDEN_PASSES_SHA256[seed]
        assert off_main_thread(latency_bound_oracle) > 0

    @staticmethod
    def digest(seed, parallel):
        report = run_suite(seed=seed, passes=2, failure_p=0.1, parallel=parallel)["report"]
        return hashlib.sha256(canonical_json(report["passes"]).encode("utf-8")).hexdigest()


#: sha256 of the memory snapshot written after each pass (pass 1, pass 2) of
#: the same runs; both modes must write the same bytes.
GOLDEN_SNAPSHOT_SHA256 = {
    3: (
        "f3cd2cc974982dd6f98dba34a9931c7031e858e275bfcb16e3ba0a9a870c2d57",
        "4f839a6aca584fd916cfa2cc1c07edc87f4964cc1cce55c2d8383eb3e29731c1",
    ),
    11: (
        "accaf4b5200c19148e77913754b9fcf291386367c023e1e4979ca7e30593ac9d",
        "010d0399412852b163a1a70107429976aea60213b74ace734d3ac1f2ef8e3607",
    ),
}


class TestGoldenSnapshots:
    @pytest.mark.parametrize("parallel", [True, False])
    @pytest.mark.parametrize("seed", sorted(GOLDEN_SNAPSHOT_SHA256))
    def test_pass_snapshots_match_golden_digest(self, seed, parallel, tmp_path):
        assert self.digests(seed, parallel, tmp_path) == GOLDEN_SNAPSHOT_SHA256[seed]

    @pytest.mark.parametrize("seed", sorted(GOLDEN_SNAPSHOT_SHA256))
    def test_threaded_schedule_matches_golden_digest(self, seed, latency_bound_oracle, tmp_path):
        assert self.digests(seed, True, tmp_path) == GOLDEN_SNAPSHOT_SHA256[seed]
        assert off_main_thread(latency_bound_oracle) > 0

    @staticmethod
    def digests(seed, parallel, snapshot_dir):
        run_suite(seed=seed, passes=2, failure_p=0.1, parallel=parallel,
                  snapshot_dir=str(snapshot_dir))
        return tuple(
            hashlib.sha256((snapshot_dir / f"memory_pass{n}.json").read_bytes()).hexdigest()
            for n in (1, 2)
        )


class TestSpatialHoldsTheWorld:
    """The agent's place and hand are fields of the preprocessed
    observation, so spatial memory is given world facts only."""

    @pytest.mark.parametrize("parallel", [True, False])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_no_agent_fact_is_buffered_or_snapshotted(self, seed, parallel, tmp_path,
                                                      monkeypatch):
        buffered = []
        buffer = SpatialMemory.buffer_triplets

        def recording(mem, triplets):
            buffered.extend(triplets)
            return buffer(mem, triplets)

        monkeypatch.setattr(SpatialMemory, "buffer_triplets", recording)
        run_suite(seed=seed, passes=2, failure_p=0.1, parallel=parallel,
                  snapshot_dir=str(tmp_path))
        assert len(buffered) > 500
        assert not [t for t in buffered if "agent" in (t.subject, t.object)]
        for n in (1, 2):
            spatial = json.loads((tmp_path / f"memory_pass{n}.json").read_text())["spatial"]
            assert spatial["edges"] and "agent" not in spatial["nodes"]
            assert not [e for e in spatial["edges"] if "agent" in (e["subject"], e["object"])]


#: sha256 of the trajectory log of the same runs. Critic reasons and plan ids
#: in it come straight from reasoner answers; both modes write the same bytes.
GOLDEN_TRAJECTORY_SHA256 = {
    3: "543279bde6c1d4237811f649485bcebbd533d5d81da73b5b37a9ddb50388e34a",
    11: "fbacc8e6a08321f80635e591f4882cba3fd6ec88cacd42cd1f4a5824176ebe93",
}


class TestGoldenTrajectories:
    @pytest.mark.parametrize("parallel", [True, False])
    @pytest.mark.parametrize("seed", sorted(GOLDEN_TRAJECTORY_SHA256))
    def test_trajectory_log_matches_golden_digest(self, seed, parallel):
        assert self.digest(seed, parallel) == GOLDEN_TRAJECTORY_SHA256[seed]

    @pytest.mark.parametrize("seed", sorted(GOLDEN_TRAJECTORY_SHA256))
    def test_threaded_schedule_matches_golden_digest(self, seed, latency_bound_oracle):
        assert self.digest(seed, parallel=True) == GOLDEN_TRAJECTORY_SHA256[seed]
        assert off_main_thread(latency_bound_oracle) > 0

    @staticmethod
    def digest(seed, parallel):
        log = io.StringIO()
        run_suite(seed=seed, passes=2, failure_p=0.1, parallel=parallel, trajectory_log=log)
        return hashlib.sha256(log.getvalue().encode("utf-8")).hexdigest()


#: sha256 over canonical_json([role, payload, answer]) of every reasoner call
#: of the same runs, in call order: what each module asked and was told, so a
#: change that only moves work around must leave it as it is.
GOLDEN_CALLS_SHA256 = {
    3: "8041d6e48504165cad1520a362faea201a5fa71c03260dc6332356460c17a890",
    11: "3b1da9a5c79bb3e0229085a8c3c5b78eafa39eb8a81119e6b78143542b1beb47",
}


class TestGoldenCalls:
    @pytest.mark.parametrize("parallel", [True, False])
    @pytest.mark.parametrize("seed", sorted(GOLDEN_CALLS_SHA256))
    def test_reasoner_traffic_matches_golden_digest(self, seed, parallel, monkeypatch):
        digest = hashlib.sha256()

        class RecordingOracle(gateway_module.OracleBackend):
            def invoke(self, role, payload):
                answer = super().invoke(role, payload)
                digest.update(canonical_json([role.value, payload, answer]).encode("utf-8"))
                return answer

        monkeypatch.setattr(gateway_module, "OracleBackend", RecordingOracle)
        run_suite(seed=seed, passes=2, failure_p=0.1, parallel=parallel)
        assert digest.hexdigest() == GOLDEN_CALLS_SHA256[seed]


class TestBench:
    def test_parallel_beats_sequential(self):
        timings = bench_retrieval(section_delay_s=0.03, rounds=2)
        assert timings["parallel"]["mean_s"] < timings["sequential"]["mean_s"]
        assert timings["speedup"] > 1.5

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"rounds": 0}, "rounds must be at least 1"),
            ({"rounds": -1}, "rounds must be at least 1"),
            ({"section_delay_s": -0.005}, "section delay must be at least 0"),
        ],
    )
    def test_out_of_range_options_are_refused(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            bench_retrieval(**kwargs)

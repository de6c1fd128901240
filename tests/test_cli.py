"""Tests for the command-line interface."""

import json

import pytest
from click.testing import CliRunner

from memagent import gateway as gateway_module
from memagent import harness
from memagent.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def suite_path(tmp_path):
    tasks = [
        {
            "id": "task-0",
            "instruction": "put cup on kitchen counter",
            "category": "pick_place",
            "goal_conditions": [
                {"kind": "at", "obj": "cup", "rel": "on", "place": "kitchen counter"}
            ],
            "initial_seed": 11,
        }
    ]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"profile": "realworld", "tasks": tasks}))
    return str(path)


class TestRun:
    def test_run_prints_metrics_table(self, runner, suite_path):
        result = runner.invoke(
            main,
            ["run", "--suite", suite_path, "--passes", "1", "--failure-p", "0"],
        )
        assert result.exit_code == 0, result.output
        assert "suite.json" in result.output
        assert "1.000" in result.output

    def test_run_writes_report_and_sidecar(self, runner, suite_path, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "run", "--suite", suite_path, "--passes", "1",
                "--failure-p", "0", "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["passes"][0]["metrics"]["sr"] == 1.0
        assert (tmp_path / "report.json.latency.json").exists()

    def test_run_writes_trajectory_log_and_snapshots(self, runner, suite_path, tmp_path):
        log = tmp_path / "traj.jsonl"
        snaps = tmp_path / "snaps"
        result = runner.invoke(
            main,
            [
                "run", "--suite", suite_path, "--passes", "1", "--failure-p", "0",
                "--log", str(log), "--snapshot-dir", str(snaps),
            ],
        )
        assert result.exit_code == 0, result.output
        assert log.read_text().strip()
        assert (snaps / "memory_pass1.json").exists()

    def test_trajectory_log_is_byte_stable(self, runner, tmp_path):
        logs = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
        for log in logs:
            result = runner.invoke(main, ["run", "--seed", "7", "--log", str(log)])
            assert result.exit_code == 0, result.output
        assert logs[0].read_bytes() == logs[1].read_bytes()

    def test_disable_rejects_unknown_capability(self, runner, suite_path):
        result = runner.invoke(
            main, ["run", "--suite", suite_path, "--disable", "gravity"]
        )
        assert result.exit_code != 0

    def test_two_pass_run_reports_delta(self, runner, suite_path):
        result = runner.invoke(
            main,
            ["run", "--suite", suite_path, "--passes", "2", "--failure-p", "0"],
        )
        assert result.exit_code == 0, result.output
        assert "pass-to-pass sr delta" in result.output

    def test_remote_backend_without_config_fails_loudly(self, runner, suite_path):
        result = runner.invoke(main, ["run", "--suite", suite_path, "--backend", "remote"])
        assert result.exit_code != 0
        assert "base_url" in result.output

    def test_misspelled_backend_in_config_fails_loudly(self, runner, suite_path, tmp_path):
        config = tmp_path / "gateway.json"
        config.write_text(json.dumps({"backend": "remot"}))
        result = runner.invoke(main, ["run", "--suite", suite_path, "--config", str(config)])
        assert result.exit_code != 0
        assert "unknown backend 'remot'" in result.output

    def test_run_rejects_a_blank_instruction_before_the_first_episode(
        self, runner, suite_path, tmp_path, monkeypatch
    ):
        doc = json.loads(open(suite_path).read())
        doc["tasks"].append(dict(doc["tasks"][0], id="task-1", instruction="   "))
        bad = tmp_path / "blank.json"
        bad.write_text(json.dumps(doc))
        episodes = []
        monkeypatch.setattr(harness, "run_episode", lambda *args, **kw: episodes.append(args))
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["run", "--suite", str(bad), "--out", str(out)])
        assert result.exit_code != 0
        assert f"suite: {bad}: task 1: task 'task-1' needs a non-blank instruction" in result.output
        assert episodes == []
        assert not out.exists()

    def test_run_fails_when_every_episode_aborts(self, runner, suite_path, tmp_path, monkeypatch):
        # A dead backend aborts every episode before its first step; the run
        # still reports, then exits non-zero instead of passing as a weak agent.
        def unreachable(self, role, payload):
            raise gateway_module.BackendUnreachableError("connection refused")

        monkeypatch.setattr(gateway_module.OracleBackend, "invoke", unreachable)
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["run", "--suite", suite_path, "--passes", "2", "--out", str(out)]
        )
        assert result.exit_code == 1, result.output
        assert "suite.json" in result.output
        assert "all 2 episodes aborted" in result.output
        report = json.loads(out.read_text())
        assert [t["terminated_by"] for p in report["passes"] for t in p["tasks"]] == ["aborted"] * 2


def _bad_inputs(tmp_path, suite_path):
    """Case -> (arguments, the message's prefix, what the message names)."""
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{tasks: []}")
    doc = json.loads(open(suite_path).read())
    unknown_profile = tmp_path / "unknown_profile.json"
    unknown_profile.write_text(json.dumps(dict(doc, profile="alfredo")))
    doc["tasks"].append({k: v for k, v in doc["tasks"][0].items() if k != "id"})
    no_id = tmp_path / "no_id.json"
    no_id.write_text(json.dumps(doc))
    missing = str(tmp_path / "missing.json")
    goal = doc["tasks"][0]["goal_conditions"][0]
    unscorable = tmp_path / "unscorable.json"
    unscorable.write_text(json.dumps(dict(doc, tasks=[
        dict(doc["tasks"][0], goal_conditions=[dict(goal, obj="cupx")])
    ])))
    no_place = tmp_path / "no_place.json"
    no_place.write_text(json.dumps(dict(doc, tasks=[
        dict(doc["tasks"][0], goal_conditions=[{"kind": "at", "obj": "cup"}])
    ])))
    typed = {}
    for case, field, value, named in [
        ("goals-not-a-list", "goal_conditions", 5, ["'task-0'", "goal_conditions"]),
        ("seed-not-an-int", "initial_seed", "x", ["'task-0'", "initial_seed 'x'"]),
        ("seed-a-bool", "initial_seed", True, ["'task-0'", "initial_seed True"]),
        ("id-not-text", "id", 7, ["task 7", "text id"]),
        ("blank-instruction", "instruction", " ", ["'task-0'", "instruction"]),
    ]:
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(dict(doc, tasks=[dict(doc["tasks"][0], **{field: value})])))
        typed[case] = (["--suite", str(path)], "suite", [f"{path}: task 0: ", *named])
    return {
        **typed,
        "missing-config": (["--suite", suite_path, "--config", missing], "gateway config", [missing]),
        "missing-suite": (["--suite", missing], "suite", [missing]),
        "non-json-suite": (["--suite", str(not_json)], "suite", [str(not_json), "not valid JSON"]),
        "task-without-id": (["--suite", str(no_id)], "suite", [str(no_id), "task 1", "'id'"]),
        "unknown-profile": (
            ["--suite", str(unknown_profile)], "suite", [str(unknown_profile), "'alfredo'"]
        ),
        "unscorable-goal": (
            ["--suite", str(unscorable)], "suite", [str(unscorable), "'task-0'", "'cupx'"]
        ),
        "goal-without-place": (
            ["--suite", str(no_place)], "suite", [f"{no_place}: task 0: ", "'task-0'", "'place'"]
        ),
    }


class TestBadInputFiles:
    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize(
        "case",
        [
            "missing-config", "missing-suite", "non-json-suite", "task-without-id",
            "unknown-profile", "unscorable-goal", "goal-without-place",
            "goals-not-a-list", "seed-not-an-int", "seed-a-bool", "id-not-text",
            "blank-instruction",
        ],
    )
    def test_exits_1_naming_the_file_without_a_traceback(
        self, runner, tmp_path, suite_path, command, case
    ):
        args, prefix, named = _bad_inputs(tmp_path, suite_path)[case]
        result = runner.invoke(main, [command, *args, "--passes", "1"])
        # An error the command did not handle reaches the runner as itself.
        assert isinstance(result.exception, SystemExit), repr(result.exception)
        assert result.exit_code == 1
        [line] = [l for l in result.output.splitlines() if l.startswith("Error: ")]
        assert line.startswith(f"Error: {prefix}: ")
        assert all(name in line for name in named), line


class TestAblate:
    def test_ablate_lists_all_variants(self, runner, suite_path, tmp_path):
        out = tmp_path / "ablation.json"
        result = runner.invoke(
            main,
            [
                "ablate", "--suite", suite_path, "--passes", "1",
                "--failure-p", "0", "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert set(doc) == {"full", "critic", "spatial", "longterm"}
        for variant in result.output.splitlines()[1:]:
            assert variant.split()[0] in doc

    def test_ablate_reads_gateway_config(self, runner, suite_path, tmp_path):
        # A one-call budget starves the planner, so no variant can succeed.
        config = tmp_path / "gateway.json"
        config.write_text(json.dumps({"backend": "oracle", "budget": 1}))
        out = tmp_path / "ablation.json"
        result = runner.invoke(
            main,
            [
                "ablate", "--suite", suite_path, "--passes", "1", "--failure-p", "0",
                "--config", str(config), "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert {v: d["sr"] for v, d in json.loads(out.read_text()).items()} == {
            "full": 0.0, "critic": 0.0, "spatial": 0.0, "longterm": 0.0
        }

    def test_ablate_rejects_bad_gateway_config(self, runner, suite_path, tmp_path):
        config = tmp_path / "gateway.json"
        config.write_text(json.dumps({"backend": "oracle", "budget": 0}))
        result = runner.invoke(main, ["ablate", "--suite", suite_path, "--config", str(config)])
        assert result.exit_code != 0
        assert "budget" in result.output


class TestOutOfRangeOptions:
    """An option out of its range is a usage error (exit 2) naming the
    option, before anything runs; not a traceback, nor a run that reads as
    an ordinary score."""

    def assert_refused(self, result, option):
        assert isinstance(result.exception, SystemExit), repr(result.exception)
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{option}'" in result.output
        assert "Traceback" not in result.output and "sr" not in result.output.split()

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize(
        "args, option",
        [
            (["--passes", "0"], "--passes"),
            (["--passes", "-2"], "--passes"),
            (["--failure-p", "1.5"], "--failure-p"),
            (["--failure-p", "-0.5"], "--failure-p"),
        ],
    )
    def test_run_options(self, runner, suite_path, monkeypatch, command, args, option):
        started = []
        monkeypatch.setattr(harness, "run_episode", lambda *a, **k: started.append(a))
        result = runner.invoke(main, [command, "--suite", suite_path, *args])
        self.assert_refused(result, option)
        assert started == []

    @pytest.mark.parametrize(
        "args, option",
        [(["--rounds", "0"], "--rounds"), (["--delay-ms", "-5"], "--delay-ms")],
    )
    def test_bench_options(self, runner, args, option):
        self.assert_refused(runner.invoke(main, ["bench", *args]), option)


class TestBench:
    def test_bench_reports_speedup(self, runner):
        result = runner.invoke(main, ["bench", "--delay-ms", "20", "--rounds", "1"])
        assert result.exit_code == 0, result.output
        assert "parallel" in result.output
        assert "speedup" in result.output


class TestReplay:
    def test_replay_renders_executed_and_rejected_entries(self, runner, tmp_path):
        log = tmp_path / "traj.jsonl"
        entries = [
            {
                "task_id": "t1", "step": 1, "action": "navigate_to(sink)",
                "outcome": "success", "verdict": None, "executed": True,
            },
            {
                "task_id": "t1", "action": "pick_up(cup)",
                "verdict": "reject", "verdict_reason": "redundant", "executed": False,
            },
        ]
        log.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
        result = runner.invoke(main, ["replay", str(log)])
        assert result.exit_code == 0, result.output
        assert "navigate_to(sink) -> success" in result.output
        assert "rejected: pick_up(cup) (redundant)" in result.output

    def test_replay_rejects_bad_json(self, runner, tmp_path):
        log = tmp_path / "bad.jsonl"
        log.write_text("not json\n")
        result = runner.invoke(main, ["replay", str(log)])
        assert result.exit_code != 0

    def test_replay_rejects_a_line_that_is_not_an_object(self, runner, tmp_path):
        log = tmp_path / "list.jsonl"
        log.write_text('{"executed": false, "action": "drop()"}\n[1]\n')
        result = runner.invoke(main, ["replay", str(log)])
        assert isinstance(result.exception, SystemExit), repr(result.exception)
        assert result.exit_code == 1
        assert result.output.splitlines()[-1] == "Error: line 2: not a JSON object"

    def test_replay_missing_file(self, runner, tmp_path):
        result = runner.invoke(main, ["replay", str(tmp_path / "nope.jsonl")])
        assert result.exit_code != 0


class TestSnapshot:
    def test_snapshot_summary(self, runner, suite_path, tmp_path):
        snaps = tmp_path / "snaps"
        runner.invoke(
            main,
            [
                "run", "--suite", suite_path, "--passes", "1", "--failure-p", "0",
                "--snapshot-dir", str(snaps),
            ],
        )
        result = runner.invoke(main, ["snapshot", str(snaps / "memory_pass1.json")])
        assert result.exit_code == 0, result.output
        assert "spatial:" in result.output
        assert "temporal:" in result.output
        assert "long-term:" in result.output
        doc = json.loads((snaps / "memory_pass1.json").read_text())
        assert "1 episodic" in result.output
        assert f"spatial: {len(doc['spatial']['edges'])} edges" in result.output

    def test_snapshot_rejects_other_documents(self, runner, tmp_path):
        nested = tmp_path / "nested.json"
        nested.write_text(json.dumps({"spatial": "{}", "temporal": "{}", "lifelong": "{}"}))
        result = runner.invoke(main, ["snapshot", str(nested)])
        assert result.exit_code == 1
        assert "not a memory snapshot document" in result.output

    @pytest.mark.parametrize(
        "doc",
        [
            {"spatial": {"edges": []}, "temporal": {"entries": []}, "lifelong": {"entities": [1]}},
            {
                "spatial": {"nodes": [], "edges": []},
                "temporal": {"capacity": 3, "entries": []},
                "lifelong": {"entities": [1]},
            },
            {
                "spatial": {"nodes": [], "edges": [{"subject": "cup", "relation": "on"}]},
                "temporal": {"capacity": 3, "entries": []},
                "lifelong": {"entities": []},
            },
            {
                "spatial": {"nodes": [], "edges": []},
                "temporal": {"capacity": 3, "entries": [{"type": "note"}]},
                "lifelong": {"entities": []},
            },
            {
                "spatial": {"nodes": [], "edges": []},
                "temporal": {"capacity": 3, "entries": []},
                "lifelong": {"entities": [{"id": "e", "kind": "semantic", "text": 5, "task": "a"}]},
            },
            {
                "spatial": {"nodes": [], "edges": [
                    {"subject": "cup", "relation": "on", "object": "table", "step_index": "x"}
                ]},
                "temporal": {"capacity": 3, "entries": []},
                "lifelong": {"entities": []},
            },
            {
                "spatial": {"nodes": [], "edges": []},
                "temporal": {"capacity": 3, "entries": []},
                "lifelong": {"entities": [
                    {"id": "e", "kind": "semantic", "text": "t", "task": "a", "count": "many"}
                ]},
            },
            {
                "spatial": {"nodes": [], "edges": []},
                "temporal": {"capacity": 3, "entries": []},
                "lifelong": {"entities": [], "id_counters": {"a": "z"}},
            },
            {
                "spatial": {"nodes": [], "edges": []},
                "temporal": {"capacity": 3, "entries": []},
                "lifelong": {"entities": [
                    {"id": 5, "kind": "semantic", "text": "t", "task": 7, "tags": "cup"}
                ]},
            },
            {
                "spatial": {"nodes": [], "edges": []},
                "temporal": {"capacity": 3, "entries": []},
                "lifelong": {"entities": [
                    {"id": "e", "kind": "episodic", "text": "t", "task": "a", "facts": ["cup"]}
                ]},
            },
            {
                "spatial": {"nodes": [], "edges": []},
                "temporal": {"capacity": True, "entries": []},
                "lifelong": {"entities": []},
            },
            [1, 2],
            "{",
        ],
        ids=[
            "no-nodes", "entity-not-an-object", "edge-without-object", "unknown-entry",
            "text-not-text", "step-index-not-an-int", "count-not-an-int",
            "id-counter-not-an-int", "entity-ids-not-text", "facts-not-rows",
            "capacity-a-bool", "list", "not-json",
        ],
    )
    def test_a_malformed_snapshot_prints_one_line(self, runner, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        result = runner.invoke(main, ["snapshot", str(bad)])
        assert isinstance(result.exception, SystemExit), repr(result.exception)
        assert result.exit_code == 1
        [line] = result.output.splitlines()
        assert line.startswith("Error: not a memory snapshot document")

    def test_snapshot_counts_what_restore_reads(self, runner, tmp_path):
        doc = {
            "spatial": {
                "nodes": ["cup", "table"],
                "edges": [{"subject": "cup", "relation": "on", "object": "table"}],
            },
            "temporal": {
                "capacity": 3,
                "entries": [{"type": "compacted", "text": "s", "covers_steps": [0, 2]}],
            },
            "lifelong": {
                "entities": [
                    {"id": "e1", "kind": "episodic", "text": "t", "task": "a"},
                    {"id": "s1", "kind": "semantic", "text": "u", "task": "a"},
                    {"id": "s2", "kind": "semantic", "text": "v", "task": "b"},
                ]
            },
        }
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["snapshot", str(path)])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == [
            "spatial: 1 edges",
            "temporal: 1 buffer entries",
            "long-term: 1 episodic, 2 semantic entities",
        ]

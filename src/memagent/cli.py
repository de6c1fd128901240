"""Command-line entry point for running task suites, ablations, latency
benchmarks, trajectory replay, and snapshot inspection."""

from __future__ import annotations

import json
import logging

import click

from . import harness
from .core import Termination, canonical_json
from .envsim import SuiteError
from .gateway import BACKENDS, GatewayConfigError
from .orchestrator import MemoryOrchestrator


@click.group()
@click.option("--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool) -> None:
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _suite_option(fn):
    fn = click.option("--suite", default=None, help="Path to a suite JSON file.")(fn)
    fn = click.option("--backend", default="oracle", type=click.Choice(BACKENDS))(fn)
    fn = click.option("--config", default=None, help="Gateway config file (remote backend).")(fn)
    fn = click.option("--seed", default=0, type=int, show_default=True)(fn)
    fn = click.option(
        "--failure-p", default=None, type=click.FloatRange(0, 1), help="Executor failure rate."
    )(fn)
    return fn


@main.command()
@_suite_option
@click.option(
    "--passes", default=harness.DEFAULT_PASSES, type=click.IntRange(min=1), show_default=True
)
@click.option("--wipe-between-passes", is_flag=True, help="Clear long-term memory between passes.")
@click.option(
    "--disable",
    multiple=True,
    type=click.Choice(["critic", "spatial", "longterm"]),
    help="Disable a capability (repeatable).",
)
@click.option("--out", default=None, help="Write report JSON (plus timing sidecar) here.")
@click.option("--log", "log_path", default=None, help="Write a JSON-lines trajectory log.")
@click.option("--snapshot-dir", default=None, help="Write memory snapshots after each pass.")
def run(
    suite, backend, config, seed, failure_p, passes,
    wipe_between_passes, disable, out, log_path, snapshot_dir,
):
    """Run a task suite through the full agent and report SR/GC per pass."""
    trajectory_log = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        outcome = harness.run_suite(
            suite_path=suite,
            backend=backend,
            config_path=config,
            seed=seed,
            passes=passes,
            wipe_between_passes=wipe_between_passes,
            disable=disable,
            failure_p=failure_p,
            trajectory_log=trajectory_log,
            snapshot_dir=snapshot_dir,
        )
    except GatewayConfigError as exc:
        raise click.ClickException(f"gateway config: {exc}")
    except SuiteError as exc:
        raise click.ClickException(f"suite: {exc}")
    finally:
        if trajectory_log:
            trajectory_log.close()
    click.echo(harness.render_table(outcome["report"]))
    if out:
        harness.write_report(outcome, out)
        click.echo(f"report written to {out}")
    ended = [t["terminated_by"] for p in outcome["report"]["passes"] for t in p["tasks"]]
    if ended and all(kind == Termination.ABORTED.value for kind in ended):
        # Nothing ran: a dead or misconfigured backend, not a weak agent.
        raise click.ClickException(f"all {len(ended)} episodes aborted on backend faults")


@main.command()
@_suite_option
@click.option(
    "--passes", default=harness.DEFAULT_PASSES, type=click.IntRange(min=1), show_default=True
)
@click.option("--out", default=None, help="Write ablation results JSON here.")
def ablate(suite, backend, config, seed, failure_p, passes, out):
    """Run the suite with each capability removed in turn."""
    try:
        results = harness.run_ablation(
            suite_path=suite,
            backend=backend,
            config_path=config,
            seed=seed,
            passes=passes,
            failure_p=failure_p,
        )
    except GatewayConfigError as exc:
        raise click.ClickException(f"gateway config: {exc}")
    except SuiteError as exc:
        raise click.ClickException(f"suite: {exc}")
    click.echo(f"{'variant':>10}  {'sr':>6}  {'gc':>6}")
    for variant, doc in results.items():
        click.echo(f"{variant:>10}  {doc['sr']:>6.3f}  {doc['gc']:>6.3f}")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(results) + "\n")


@main.command()
@click.option("--delay-ms", default=100.0, type=click.FloatRange(min=0), show_default=True)
@click.option("--rounds", default=3, type=click.IntRange(min=1), show_default=True)
def bench(delay_ms, rounds):
    """Measure a planning step's retrieval latency, parallel vs
    forced-sequential: working memory, then long-term recall, each round's
    two sections padded by --delay-ms (a speedup of about 2x)."""
    timings = harness.bench_retrieval(section_delay_s=delay_ms / 1000.0, rounds=rounds)
    for mode in ("parallel", "sequential"):
        click.echo(f"{mode:>10}: mean {timings[mode]['mean_s'] * 1000:.1f} ms")
    click.echo(f"   speedup: {timings['speedup']:.2f}x")


@main.command()
@click.argument("log_path", type=click.Path(exists=True))
def replay(log_path):
    """Pretty-print a JSON-lines trajectory log."""
    with open(log_path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise click.ClickException(f"line {line_no}: not valid JSON ({exc})")
            if not isinstance(entry, dict):
                raise click.ClickException(f"line {line_no}: not a JSON object")
            verdict = entry.get("verdict") or "-"
            if entry.get("executed"):
                click.echo(
                    f"[{entry.get('task_id', '?')}] step {entry.get('step')}: "
                    f"{entry.get('action')} -> {entry.get('outcome')} (critic: {verdict})"
                )
            else:
                click.echo(
                    f"[{entry.get('task_id', '?')}] rejected: {entry.get('action')} "
                    f"({entry.get('verdict_reason')})"
                )


@main.command()
@click.argument("snapshot_path", type=click.Path(exists=True))
def snapshot(snapshot_path):
    """Summarize a memory snapshot file."""
    memory = MemoryOrchestrator()
    try:
        with open(snapshot_path, "r", encoding="utf-8") as handle:
            memory.restore(handle.read())
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise click.ClickException(f"not a memory snapshot document ({exc!r})")
    click.echo(f"spatial: {len(memory.spatial.edges())} edges")
    click.echo(f"temporal: {len(memory.temporal.entries())} buffer entries")
    episodic, semantic = (len(memory.lifelong.entities(kind)) for kind in ("episodic", "semantic"))
    click.echo(f"long-term: {episodic} episodic, {semantic} semantic entities")


if __name__ == "__main__":
    main()

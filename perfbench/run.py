"""Outside-in benchmark of the memagent package.

A single-process, closed-loop benchmark: one agent runs one episode at a time
and each action waits for the one before it. It calls only the package's
public API and times each layer from outside, by wrapping that layer's
public functions (see ``spans.py``).

    python3 perfbench/run.py --workload suite-seq --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run. The exit code is non-zero when a correctness check fails.
Workloads, metrics and what each layer metric should move are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Decision-latency percentiles need at least this many samples beyond them.
TAIL_SAMPLES = 10
#: Every suite seed runs at least this many times in a measured run. Each
#: episode and each decision counts with the fastest of its calibrated
#: repeats, as ``timeit`` reports the best of its repeats: calibration
#: (``clock.py``) follows the host's drifting speed only in part.
REPEATS = 3
#: Package imports, each in a fresh interpreter, timed after every cycle of
#: a measured run; ``setup_s`` adds their median to the median set-up.
IMPORTS_PER_CYCLE = 3


def host_steal_s():
    """Seconds the hypervisor took from all of this machine's CPUs since
    boot (0 where the kernel does not say). Printed as a diagnostic only:
    reported times are wall times."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return int(handle.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def percentile(samples, q):
    """Nearest-rank percentile of ``samples`` (0 < q < 100)."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, seconds, stub):
        self.workload = workload
        self.seeds = workloads.suite_seeds(seed)
        self.seconds = seconds
        self.stub = stub
        self.imports = []  # wall seconds of fresh-interpreter package imports
        self.reports = {}  # suite seed -> reports of this workload's runs
        self.problems = []
        self.failed_seeds = set()

    def fail(self, suite_seed, problem):
        self.problems.append(f"seed {suite_seed}: {problem}")
        self.failed_seeds.add(suite_seed)

    def suite(self, suite_seed, recorder=None):
        """One suite run of this workload with the log counter attached, and
        with ``recorder``'s spans if given. Every wrapper is removed again
        before it returns."""
        patches = spans.Patches()
        try:
            if recorder is not None:
                recorder.install(patches)
            with spans.LogCounter() as logs:
                run = workloads.run_suite(self.workload, suite_seed, self.stub)
        finally:
            patches.restore()
        run.errors = logs.counts["crashes"] + logs.counts["aborts"]
        if recorder is not None:
            recorder.log_counts.update(logs.counts)
        self.reports.setdefault(suite_seed, []).append(run.report)
        for problem in workloads.report_problems(run.report, suite_seed):
            self.fail(suite_seed, problem)
        return run

    def check(self):
        """Repeat and reference checks over a run in which every suite seed
        ran more than once; the repeats after a traced run also show that no
        wrapper was left behind."""
        first = self.seeds[0]
        for suite_seed, reports in self.reports.items():
            if any(r != reports[0] for r in reports[1:]):
                self.fail(suite_seed, "reports differ between repeats")
        if self.workload.reference:
            reference = workloads.WORKLOADS[self.workload.reference]
            other = workloads.run_suite(reference, first, self.stub).report
            if not workloads.same_apart_from_backend(self.reports[first][0], other):
                self.fail(first, f"report differs from {reference.name}")

    def measure(self):
        """Untraced cycles, each one run per suite seed and then a few timed
        imports, until ``seconds`` of run time and ``REPEATS`` cycles are
        measured."""
        runs = []
        while len(runs) < REPEATS * len(self.seeds) or sum(r.run_s for r in runs) < self.seconds:
            runs.extend(self.suite(suite_seed) for suite_seed in self.seeds)
            self.imports.extend(workloads.import_seconds(self.workload)
                                for _ in range(IMPORTS_PER_CYCLE))
        self.check()
        return runs

    def calibrated(self, timed):
        """The seconds of a ``workloads.Timed`` at the reference host speed
        (see ``clock.py``). ``remote-http`` mostly waits on the stub's fixed
        delay, which does not scale with host speed, so its times stay as
        measured."""
        if self.workload.remote:
            return timed.seconds
        return timed.seconds * clock.REFERENCE_PROBE_S / timed.probe_s

    def fastest(self, runs):
        """Per suite seed and episode, the fastest calibrated slot and the
        fastest calibrated latency of each action over the seed's repeats.
        Returns all slots and all latencies."""
        slots, latencies = [], []
        for suite_seed in self.seeds:
            repeats = [r.episodes for r in runs if r.seed == suite_seed]
            shapes = {tuple(len(e.latencies) for e in episodes) for episodes in repeats}
            if len(shapes) > 1:
                self.fail(suite_seed, "repeats differ in their episodes or actions")
                continue
            for same in zip(*repeats):
                slots.append(min(self.calibrated(e.slot) for e in same))
                scales = [self.calibrated(e.slot) / e.slot.seconds for e in same]
                latencies.extend(min(s * k for s, k in zip(samples, scales))
                                 for samples in zip(*(e.latencies for e in same)))
        return slots, latencies

    def trace(self):
        """Per suite seed an untraced run, then a traced one, cycling until
        ``seconds`` of run time are measured. Returns all runs and the
        per-layer metrics of the traced ones."""
        recorder = spans.Recorder()
        plain, traced = [], []
        requests = 0
        while not traced or sum(r.run_s for r in plain + traced) < self.seconds:
            for suite_seed in self.seeds:
                plain.append(self.suite(suite_seed))
                before = self.stub.requests() if self.stub else 0
                traced.append(self.suite(suite_seed, recorder))
                requests += (self.stub.requests() if self.stub else 0) - before
        self.check()
        metrics = recorder.metrics(len(traced), requests)
        eps_plain = sum(len(r.episodes) for r in plain) / sum(r.run_s for r in plain)
        eps_traced = sum(len(r.episodes) for r in traced) / sum(r.run_s for r in traced)
        metrics["tracing.episodes_per_s_untraced"] = eps_plain
        metrics["tracing.episodes_per_s_traced"] = eps_traced
        metrics["tracing.overhead_episodes_per_s"] = eps_plain - eps_traced
        return plain + traced, metrics


def end_to_end(bench, runs):
    """The end-to-end metrics, with their units, over untraced ``runs``.
    Times are calibrated to host speed, and each episode and action counts
    with the fastest of its repeats."""
    episodes = sum(len(r.episodes) for r in runs)
    slots, latencies = bench.fastest(runs)
    evaluated = next(r for r in runs if r.seed == workloads.EVAL_SEED)
    first, last = evaluated.sr[0], evaluated.sr[-1]
    # Imports are not calibrated: a fresh interpreter's import reads and
    # unmarshals files, and its time does not follow the probe.
    setup = statistics.median(bench.imports) + statistics.median(
        bench.calibrated(r.setup) for r in runs)
    return {
        "episodes_per_s": (len(slots) / sum(slots), "episodes/s"),
        "step_latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "step_latency_p95_ms": (percentile(latencies, 95) * 1e3, "ms"),
        "sr_final": (last, "fraction"),
        "sr_lift": (last / first if first else 0.0, "ratio"),
        "ok_rate": (1.0 - failed_episodes(bench, runs) / episodes, "fraction"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def failed_episodes(bench, runs):
    """Crashed and aborted episodes, plus every episode of a run whose
    report failed a check."""
    return sum(len(r.episodes) if r.seed in bench.failed_seeds else r.errors for r in runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="memagent outside-in benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="run the benchmark's self-tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "memagent", "__init__.py")):
        print(f"error: no memagent sources under {SRC}", file=sys.stderr)
        return 2

    global clock, spans, workloads
    sys.path.insert(0, SRC)
    import clock
    import spans
    import workloads

    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    workload = workloads.WORKLOADS[args.workload]
    steal = host_steal_s()
    with contextlib.ExitStack() as stack:
        stub = stack.enter_context(workloads.Stub()) if workload.remote else None
        bench = Bench(workload, args.seed, args.seconds, stub)
        if args.trace:
            runs, layer = bench.trace()
            metrics = {name: (value, spans.unit_of(name)) for name, value in sorted(layer.items())}
        else:
            runs = bench.measure()
            metrics = end_to_end(bench, runs)
    steal = host_steal_s() - steal

    samples = sum(len(r.latencies) for r in runs)
    if samples < 20 * TAIL_SAMPLES:
        bench.problems.append(f"only {samples} decision-latency samples for a p95")
    episodes = sum(len(r.episodes) for r in runs)
    probes = [e.slot.probe_s for r in runs for e in r.episodes]
    print(f"workload {workload.name}, seed {args.seed}: suite seeds {bench.seeds}, "
          f"{len(runs)} suite runs, {episodes} episodes, {samples} decision-latency samples, "
          f"host-speed probe median {statistics.median(probes) * 1e6:.0f} us "
          f"(reference {clock.REFERENCE_PROBE_S * 1e6:.0f} us), "
          f"{steal:.2f} s host steal summed over all CPUs")
    for run in runs:
        print(f"  suite seed {run.seed}: {len(run.episodes)} episodes in {run.run_s:.3f} s, "
              f"set-up {run.setup.seconds:.3f} s, decision latency p50 "
              f"{percentile(run.latencies, 50) * 1e3:.3f} ms p95 "
              f"{percentile(run.latencies, 95) * 1e3:.3f} ms")
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    correct = not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": episodes,
        "failed": failed_episodes(bench, runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark on one workload and print its metrics.

    python3 perfbench/run.py --workload pcdheavy --seed 1 --seconds 24 --trace 0

``--trace 0`` reports the end-to-end metrics: set-up time, seconds per
configuration (each configuration runs at least twice and until it has
run for ``--seconds``/6; the median repetition is reported) and peak
RSS.  Times are wall seconds normalized to a reference core speed
sampled while they run (see ``perfbench/speed.py``).  ``--trace 1`` runs one untraced round and one traced round
at the same seed, checks that tracing changed no counter, writes the
traced spans as a Chrome trace, and reports the per-layer metrics.  The last line
of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``, where ``attempted``/``failed`` count
configuration verdicts.

A run that printed a result exits 0, with ``"correct": false`` when a
check failed (each failure is named on standard error).  The run
refuses to start (exit 2, no result) when any ``DOUBLECHECKER_*``
variable is set or telemetry is on, because those swap the code paths
being measured, and when the sources or a traced seam are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: set-up repetitions per run (the median is reported)
SETUP_REPS = 7

#: timed repetitions of every configuration in an end-to-end run, so
#: even the 5-9 s configurations report the median of two
MIN_REPETITIONS = 2

#: work counters printed with each end-to-end run, so a time that moved
#: can be told apart from work that moved: (configuration, counter)
WORK_COUNTERS = (
    ("baseline", "execution.steps"),
    ("single", "pcd_stats.entries_replayed"),
    ("second", "pcd_stats.entries_replayed"),
    ("velodrome", "stats.edges"),
    ("vc", "stats.edges"),
)

#: what a fresh interpreter runs: the checker modules' imports, timed
#: under its own speed sampler; prints the import's window
IMPORT_PROBE = (
    "import json, time; from perfbench.speed import Sampler; "
    "s = Sampler(); s.install(); m = s.mark(); t = time.perf_counter(); "
    "import repro.core.doublechecker, repro.harness.runner, "
    "repro.velodrome.checker, repro.vc.checker, repro.workloads; "
    "e = time.perf_counter() - t; s.uninstall(); w = s.window(m, e); "
    "print(json.dumps([w.work, w.inverse, w.probes]))"
)


class BenchError(Exception):
    """The benchmark cannot run here; the message says why."""


def check_environment() -> None:
    """Refuse variables that fork or swap the measured code paths."""
    names = sorted(k for k in os.environ if k.startswith("DOUBLECHECKER_"))
    if names:
        raise BenchError(
            f"unset {', '.join(names)}: DOUBLECHECKER_* variables switch "
            "the measured code paths (sharding, reference interpreter, "
            "barrier fast path, ...)"
        )
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(f"no sources at {os.path.relpath(SRC)}/repro; "
                         "run from a full checkout")


def import_window():
    """The timed window of importing the checker modules in a fresh
    interpreter."""
    from perfbench.speed import Window

    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, ROOT)))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
        text=True, timeout=120, check=False,
    )
    if done.returncode != 0:
        raise BenchError(f"importing repro failed:\n{done.stderr}")
    work, inverse, probes = json.loads(done.stdout.splitlines()[-1])
    return Window(work, inverse, probes)


@dataclass
class Report:
    """What one measurement pass found."""

    #: an untraced round at the run's seed (its baseline feeds the
    #: shape check when the seed is 0)
    untraced: object
    metrics: dict
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check_verdicts(self, round_) -> None:
        from perfbench.configs import verdict_failures

        attempted, failed, messages = verdict_failures(round_)
        self.attempted += attempted
        self.failed += failed
        self.problems += messages


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def shape_failures(workload: str, cases, untraced, seed: int) -> List[str]:
    """Compare the workload's uninstrumented steps at scheduler seed 0
    to its pin (checked by traced runs and by runs at scheduler seed 0,
    where it is free)."""
    from perfbench.configs import run_round
    from perfbench.workloads import PINNED_STEPS_SEED0, prepare

    pinned = PINNED_STEPS_SEED0[workload]
    if seed == 0:
        steps = untraced.counter("baseline", "execution.steps")
    else:
        probe = run_round(prepare(cases, ("baseline",)), 0, configs=("baseline",))
        steps = probe.counter("baseline", "execution.steps")
    if steps != pinned:
        return [f"{workload} ran {steps} steps at seed 0, pinned {pinned}: "
                "the workload drifted"]
    return []


def warm_up(cases, seed: int) -> None:
    """One untimed uninstrumented pass, so lazy first-use costs in the
    interpreter and the executor land before any timed configuration."""
    from perfbench.configs import run_round
    from perfbench.workloads import prepare

    run_round(prepare(cases, ("baseline",)), seed, configs=("baseline",))


def end_to_end(args, cases) -> Report:
    from perfbench.configs import CONFIGS, run_round
    from perfbench.speed import Sampler
    from perfbench.workloads import prepare

    sampler = Sampler()
    sampler.install()
    try:
        setups = []
        for _ in range(SETUP_REPS):
            imported = import_window()
            mark = sampler.mark()
            started = time.perf_counter()
            prepared = prepare(cases, CONFIGS)
            setups.append(imported + sampler.window(
                mark, time.perf_counter() - started))
        warm_up(cases, args.schedule)
        round_ = run_round(prepared, args.schedule,
                           floor=args.seconds / len(CONFIGS),
                           repetitions=MIN_REPETITIONS, sampler=sampler)
    finally:
        sampler.uninstall()
    speed = sampler.mean_speed()

    def normalized(windows) -> float:
        return statistics.median(w.seconds(speed) for w in windows)

    metrics = {"setup_s": _metric(normalized(setups), "s")}
    for config in CONFIGS:
        metrics[f"{config}_s"] = _metric(normalized(round_.windows[config]), "s")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = _metric(rss_kib / 1024, "MB")
    reps = " ".join(f"{c}x{len(r)}" for c, r in round_.repetitions.items())
    work = " ".join(f"{c}.{k.split('.')[-1]}={round_.counter(c, k)}"
                    for c, k in WORK_COUNTERS)
    wall = " ".join(f"{c}={round_.seconds(c):.3f}" for c in CONFIGS)
    print(f"perfbench: {args.workload} seed {args.seed} (scheduler seed "
          f"{args.schedule}): repetitions {reps}")
    print(f"perfbench: work {work}")
    print(f"perfbench: mean core speed {speed:.3f} of the reference; "
          f"fastest wall seconds {wall}")
    report = Report(round_, metrics)
    report.check_verdicts(round_)
    return report


def trace_path(workload: str, seed: int) -> str:
    """Where ``--trace 1`` writes its Chrome trace."""
    return os.path.join(ROOT, ".perfbench", f"trace-{workload}-seed{seed}.json")


def per_layer(args, cases) -> Report:
    from repro.obs.analyze import validate_trace

    from perfbench.configs import CONFIGS, counter_mismatches, run_round
    from perfbench.layers import (
        CONFIG_LAYERS, SeamMissing, Tracer, resolve_seams,
    )
    from perfbench.workloads import prepare

    try:  # fail before measuring anything
        resolve_seams()
    except SeamMissing as exc:
        raise BenchError(str(exc)) from None
    warm_up(cases, args.schedule)
    untraced = run_round(prepare(cases, CONFIGS), args.schedule)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_round(prepare(cases, CONFIGS), args.schedule,
                           scope=tracer.program)
    finally:
        tracer.uninstall()
    metrics = {}
    report = Report(untraced, metrics)
    for r in (untraced, traced):
        report.check_verdicts(r)
    problems = report.problems
    problems += counter_mismatches(untraced, traced)
    problems += tracer.unexpected

    for config in CONFIGS:
        total = 0.0
        for layer in CONFIG_LAYERS[config]:
            seconds = tracer.totals.get((config, layer), 0.0)
            total += seconds
            metrics[f"{config}.{layer}_s"] = _metric(seconds, "s")
        traced_s = tracer.config_seconds[config]
        if abs(total - traced_s) > 1e-6 * max(1.0, traced_s):
            problems.append(f"{config}: layer self times sum to {total}, "
                            f"traced total is {traced_s}")
        metrics[f"{config}.trace_overhead"] = _metric(
            traced_s / untraced.seconds(config), "ratio"
        )
        if config != "baseline":
            metrics[f"{config}.overhead"] = _metric(
                untraced.seconds(config) / untraced.seconds("baseline"), "ratio"
            )
    metrics["workloads.build_s"] = _metric(tracer.build_seconds, "s")
    for name, value in counter_metrics(untraced).items():
        unit = "ratio" if isinstance(value, float) else "count"
        metrics[name] = _metric(value, unit)

    doc = tracer.chrome_trace(f"perfbench {args.workload} seed {args.seed}")
    problems += [f"trace: {e}" for e in validate_trace(doc)]
    path = trace_path(args.workload, args.seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:  # once, at the end of the run
        json.dump(doc, handle)
    print(f"perfbench: wrote {len(doc['traceEvents'])} trace events to "
          f"{os.path.relpath(path)}")
    return report


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(r) -> dict:
    """The reported work counters (ints) and ratios (floats), summed
    over the round's cases."""
    c = r.counter
    m = {
        "baseline.runtime.steps": c("baseline", "execution.steps"),
        "baseline.runtime.accesses": c("baseline", "execution.access_count"),
    }
    for config in ("single", "first", "second"):
        barriers = c(config, "octet_stats.barriers")
        fast = c(config, "octet_stats.fast_path")
        skipped = sum(
            c(config, f"icd_stats.scc_skipped_{why}")
            for why in ("no_edges", "clean", "unchanged")
        )
        computed = c(config, "icd_stats.scc_computations")
        m.update({
            f"{config}.octet.barriers": barriers,
            f"{config}.octet.fast_path": fast,
            f"{config}.octet.conflicting": c(config, "octet_stats.conflicting"),
            f"{config}.octet.fast_path_ratio": _ratio(fast, barriers),
            f"{config}.tx.regular": c(config, "tx_stats.regular_transactions"),
            f"{config}.tx.unary": c(config, "tx_stats.unary_transactions"),
            f"{config}.icd.sccs": c(config, "icd_stats.sccs"),
            f"{config}.icd.scc_computations": computed,
            f"{config}.icd.scc_visits": c(config, "icd_stats.scc_visits"),
            f"{config}.icd.scc_skip_ratio": _ratio(skipped, skipped + computed),
            f"{config}.graph.search_visits":
                c(config, "icd_stats.engine.search_visits"),
            f"{config}.icd.idg_edges": c(config, "icd_stats.idg_edges"),
        })
    for config in ("single", "second"):
        logged = c(config, "icd_stats.log_entries")
        replayed = c(config, "pcd_stats.entries_replayed")
        components = c(config, "pcd_stats.components_processed")
        cycles = c(config, "pcd_stats.cycles_found")
        m.update({
            f"{config}.rwlog.log_entries": c(config, "icd_stats.log_entries"),
            f"{config}.rwlog.elided": c(config, "elision_stats.elided"),
            f"{config}.gc.peak_live_log_entries":
                c(config, "gc_stats.peak_live_log_entries"),
            f"{config}.pcd.components": components,
            f"{config}.pcd.entries_replayed": replayed,
            f"{config}.pcd.cycles_found": cycles,
            f"{config}.pcd.replay_amplification": _ratio(replayed, logged),
            f"{config}.pcd.precision": _ratio(cycles, components),
            f"{config}.pcd.pdg_edges": c(config, "pcd_stats.pdg_edges"),
        })
    for config in ("single", "first", "second", "velodrome", "vc"):
        m[f"{config}.gc.collections"] = c(config, "gc_stats.collections")
        m[f"{config}.gc.transactions_collected"] = c(
            config, "gc_stats.transactions_collected"
        )
    checks = c("velodrome", "stats.cycle_checks")
    m.update({
        "velodrome.cycle_checks": checks,
        "velodrome.cycle_check_visits": c("velodrome", "stats.cycle_check_visits"),
        "velodrome.certified_ratio":
            _ratio(c("velodrome", "stats.cycle_checks_certified"), checks),
        "velodrome.graph.search_visits": c("velodrome", "stats.engine.search_visits"),
        "vc.edges": c("vc", "stats.edges"),
        "vc.clock_joins": c("vc", "stats.clock_joins"),
        "vc.propagations": c("vc", "stats.propagations"),
    })
    return m


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pcdheavy", "hubstress", "paper-suite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="untraced measuring time: each configuration "
                             "runs at least twice and until it has run for "
                             "seconds/6")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_environment()
        for path in (SRC, ROOT):
            if path not in sys.path:
                sys.path.insert(0, path)
        from repro.obs.registry import recorder

        if recorder().enabled:
            raise BenchError("the obs recorder is on; the benchmark measures "
                             "with telemetry off")
        from perfbench.workloads import cases, scheduler_seed

        args.schedule = scheduler_seed(args.workload, args.seed)
        workload_cases = cases(args.workload)
        measure = per_layer if args.trace else end_to_end
        report = measure(args, workload_cases)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.trace or args.schedule == 0:
        report.problems += shape_failures(
            args.workload, workload_cases, report.untraced, args.schedule
        )
    for problem in report.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    for name, metric in report.metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": not report.problems,
                      "attempted": report.attempted,
                      "failed": report.failed, "metrics": report.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

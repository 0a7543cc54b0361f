"""Access-barrier benchmark: the batch fast path vs reference.

Times the hubstress/ICD *single-run* configuration — the paper's main
mode, where every instrumented access pays the Octet barrier **and**
read/write logging — in two arms:

``batch``
    the columnar batch executor feeding ICD's fused columnar barrier
    with pre-lowered, pre-interned column values (the default
    configuration);
``reference``
    both optimizations off (``DOUBLECHECKER_BATCH_EXECUTOR=0`` and
    ``DOUBLECHECKER_BARRIER_FASTPATH=0``): the per-op interpreter and
    the classify-everything reference pipeline.

Reports instrumented steps/sec plus the fast-path hit rate (the
fraction of barriers resolved without the slow path — the quantity the
paper's entire efficiency argument rests on) and asserts that both arms
produce identical deterministic counters: the fast path must be a pure
optimization.

Records ``results/BENCH_access.json`` so future work has a committed
baseline (``benchmarks/check_bench_regression.py`` compares fresh runs
against it).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_access_barrier.py -q

or standalone (JSON only)::

    PYTHONPATH=src python benchmarks/bench_access_barrier.py

CI smoke-tests the harness with ``--iterations 1 --out /tmp/...`` (a
shrunken workload written away from the committed baseline).
"""

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import replace

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "..", "results", "BENCH_access.json"
)

#: wall-clock repetitions per configuration (minimum is reported)
REPS = 3

#: hubstress/ICD single-run steps/sec of the per-op interpreter with
#: the fused barrier at the commit before the batch executor landed, on
#: the machine that produced the committed BENCH_access.json.
#: Machine-dependent — regenerate it together with the baseline on new
#: hardware (run this file at the pre-change commit, or scale by the
#: machine ratio of any other committed BENCH metric).
BATCH_PRECHANGE_STEPS_PER_SECOND = 25569

#: the acceptance bar for the batch executor against that number (kept
#: below the ~3.9x measured headline so the assertion survives machine
#: noise)
BATCH_SPEEDUP_TARGET = 3.0


def _hubstress_spec(iterations=None):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_analysis_throughput import hubstress_spec

    spec = hubstress_spec()
    if iterations is not None:
        # smoke configuration: shrink both the worker loops and the hub
        # rounds so `--iterations 1` finishes in seconds
        spec = replace(
            spec, iterations=iterations, hub_rounds=1, hub_scan_iters=50
        )
    return spec


def _single_run(fastpath, batch, iterations=None, reps=None):
    from repro.core.doublechecker import DoubleChecker
    from repro.harness.runner import make_scheduler
    from repro.octet.runtime import FASTPATH_ENV
    from repro.runtime.lowering import BATCH_ENV
    from repro.spec.specification import AtomicitySpecification
    from repro.workloads.builder import build_program

    spec = _hubstress_spec(iterations)
    aspec = AtomicitySpecification.initial(build_program(spec))
    saved_fp = os.environ.get(FASTPATH_ENV)
    saved_batch = os.environ.get(BATCH_ENV)
    os.environ[FASTPATH_ENV] = "1" if fastpath else "0"
    os.environ[BATCH_ENV] = "1" if batch else "0"
    try:
        best = None
        for _ in range(reps or REPS):
            start = time.perf_counter()
            checker = DoubleChecker(aspec)
            result = checker.run_single(build_program(spec), make_scheduler(0))
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best[0]:
                best = (elapsed, result)
    finally:
        for env, saved in ((FASTPATH_ENV, saved_fp), (BATCH_ENV, saved_batch)):
            if saved is None:
                os.environ.pop(env, None)
            else:
                os.environ[env] = saved
    elapsed, result = best
    octet = result.octet_stats
    icd = result.icd_stats
    return {
        "steps_per_second": round(result.execution.steps / elapsed),
        "barriers": octet.barriers,
        "fast_path": octet.fast_path,
        "fast_path_fused": octet.fast_path_fused,
        "fast_path_rate": round(octet.fast_path / octet.barriers, 4),
        # deterministic outputs all arms must agree on exactly
        "idg_edges": icd.idg_edges,
        "log_entries": icd.log_entries,
        "sccs": icd.sccs,
        "violations": len(result.violations.records),
    }


def _measure(iterations=None, reps=None):
    batch = _single_run(True, True, iterations, reps)
    reference = _single_run(False, False, iterations, reps)
    return {
        "hubstress_single": {
            "batch": batch,
            "reference": reference,
            "batch_prechange": {
                "steps_per_second": BATCH_PRECHANGE_STEPS_PER_SECOND
            },
            "batch_speedup_vs_prechange": round(
                batch["steps_per_second"] / BATCH_PRECHANGE_STEPS_PER_SECOND,
                2,
            ),
        }
    }


def write_report(out=None, iterations=None, reps=None):
    report = {
        "python": platform.python_version(),
        "workloads": _measure(iterations, reps),
    }
    path = out or RESULTS_PATH
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def test_access_barrier(tmp_path):
    """Regenerates the measurement and checks the fast path's contract.

    Identity first: the batch arm must reproduce the reference arm's
    deterministic counters exactly — same barriers, same fast-path
    classification counts, same IDG edges, logs, SCCs, and violations.
    Then performance: a high fast-path hit rate (hubstress is dominated
    by owner re-accesses, like the paper's benchmarks) and the batch
    arm beating the committed pre-batch throughput by its acceptance
    bar.
    """
    report = write_report(out=str(tmp_path / "BENCH_access.json"))
    row = report["workloads"]["hubstress_single"]
    batch, reference = row["batch"], row["reference"]

    for key in (
        "barriers", "fast_path", "idg_edges", "log_entries", "sccs",
        "violations",
    ):
        assert batch[key] == reference[key], key
    assert batch["fast_path_fused"] > 0
    assert reference["fast_path_fused"] == 0

    assert batch["fast_path_rate"] >= 0.85
    assert (
        batch["steps_per_second"]
        >= BATCH_SPEEDUP_TARGET * BATCH_PRECHANGE_STEPS_PER_SECOND
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="override the workload's per-thread iterations (smoke runs)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the JSON report here instead of results/BENCH_access.json",
    )
    args = parser.parse_args(argv)
    reps = 1 if args.iterations is not None else None
    report = write_report(out=args.out, iterations=args.iterations, reps=reps)
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    raise SystemExit(main())

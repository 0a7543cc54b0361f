"""Sharded analysis is a pure reorganisation of the serial pipeline.

Partitioning the ``(oid, field)`` address space across worker
processes (:mod:`repro.shard`) must change *nothing* observable: the
coordinator replays the exact execution, the analysis shard runs the
real Octet+ICD, and the deterministic merge reassembles every log and
report in serial order.  Everything is compared byte for byte against
a serial run:

* the stream of Octet transition records delivered to listeners;
* every transaction's read/write log, entry for entry (access entries
  *and* edge marks, interleaved in serial seq order — the property the
  suffix-sliced column merge must preserve);
* the IDG edge list (endpoints, kinds, creation order, and the mark
  indices anchoring each edge into its endpoint logs);
* the reported violations, field for field;
* end-to-end: Table 2, Table 3, and Figure 7 outputs rendered under
  ``DOUBLECHECKER_SHARDS`` ∈ {1, 2, 4}, byte for byte (Figure 7 modulo
  its measured wall-clock columns).

The random-schedule property test drives the full multiprocess
pipeline (fork, int64 chunk streams, peer slice mesh, ordinal-ordered
PCD jobs) on hypothesis-generated programs, so shard-count-dependent
partitions, chunk boundaries, and job interleavings all vary across
examples.
"""

import pytest
from hypothesis import given, settings

from repro.core.doublechecker import DoubleChecker
from repro.core.pcd import PCD
from repro.core.reports import ViolationSummary
from repro.harness import runner, table2, table3
from repro.runtime.scheduler import RandomScheduler
from repro.shard import SHARDS_ENV
from repro.shard.coordinator import run_single_sharded
from repro.shard.snapshot import CaptureTransitionLog, dump_edges, dump_logs
from repro.spec.specification import AtomicitySpecification

from tests.integration.test_soundness_properties import (
    materialize,
    program_strategy,
)


def _violation_dump(violations):
    return [
        (r.blamed_method, r.blamed_tx_id, r.thread_name,
         r.cycle_methods, r.cycle_tx_ids, r.detector)
        for r in violations
    ]


def _serial_observables(method_specs, thread_scripts, seed):
    """The serial arm, instrumented exactly like the sharded capture."""
    program = materialize(method_specs, thread_scripts)
    checker = DoubleChecker(AtomicitySpecification.initial(program))
    violations = ViolationSummary()
    pcd = PCD(use_engine=checker.use_engine)
    icd = checker._make_icd(
        logging_enabled=True,
        on_scc=lambda comp: violations.extend(pcd.process(comp)),
    )
    transitions = CaptureTransitionLog()
    icd.octet.add_listener(transitions)
    checker._execute(
        program, RandomScheduler(seed=seed, switch_prob=0.7), icd
    )
    return {
        "transitions": transitions.records,
        "logs": dump_logs(icd),
        "edges": dump_edges(icd),
        "violations": _violation_dump(violations.records),
    }


def _sharded_observables(method_specs, thread_scripts, seed, shards):
    program = materialize(method_specs, thread_scripts)
    checker = DoubleChecker(AtomicitySpecification.initial(program))
    result, capture = run_single_sharded(
        checker,
        program,
        RandomScheduler(seed=seed, switch_prob=0.7),
        shards,
        capture=True,
    )
    return {
        "transitions": capture["transitions"],
        "logs": capture["logs"],
        "edges": capture["edges"],
        "violations": _violation_dump(result.violations.records),
    }


@given(program_strategy)
@settings(max_examples=15, deadline=None)
def test_sharded_arms_identical_on_random_schedules(case):
    method_specs, thread_scripts, seed = case
    serial = _serial_observables(method_specs, thread_scripts, seed)
    for shards in (2, 4):
        sharded = _sharded_observables(
            method_specs, thread_scripts, seed, shards
        )
        for key in ("transitions", "logs", "edges", "violations"):
            assert sharded[key] == serial[key], f"shards={shards}: {key}"


# ----------------------------------------------------------------------
# end-to-end: the experiment tables, byte for byte
# ----------------------------------------------------------------------
TABLE2_NAMES = ["hedc", "elevator"]
TABLE3_NAMES = ["hedc", "elevator"]
FIGURE7_NAMES = ["hedc"]

#: shards=1 is the degradation path (never forks); 2 and 4 exercise
#: both mesh topologies (single log shard vs peer slicing)
SHARD_ARMS = ("1", "2", "4")


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    """Fresh final-spec cache per arm so no arm reuses another's
    refinement results (each shard count must run its own pipeline
    end to end)."""

    def activate(arm):
        cache = tmp_path / arm
        cache.mkdir()
        monkeypatch.setattr(runner, "CACHE_DIR", str(cache))
        runner._FINAL_SPEC_MEMO.clear()

    yield activate
    runner._FINAL_SPEC_MEMO.clear()


def _all_arms(monkeypatch, isolated_cache, produce):
    outputs = []
    for arm in SHARD_ARMS:
        isolated_cache(arm)
        monkeypatch.setenv(SHARDS_ENV, arm)
        outputs.append(produce())
    return outputs


def test_table2_bytes_identical_across_shard_counts(
    monkeypatch, isolated_cache
):
    one, two, four = _all_arms(
        monkeypatch,
        isolated_cache,
        lambda: table2.generate(
            TABLE2_NAMES, trials_per_step=2, seed_base=0
        ).render(),
    )
    assert two == one
    assert four == one


def test_table3_bytes_identical_across_shard_counts(
    monkeypatch, isolated_cache
):
    one, two, four = _all_arms(
        monkeypatch,
        isolated_cache,
        lambda: table3.generate(
            TABLE3_NAMES, trials=1, first_trials=1, seed_base=40_000
        ).render(),
    )
    assert two == one
    assert four == one


def test_figure7_bytes_identical_across_shard_counts(
    monkeypatch, isolated_cache
):
    from repro.harness import figure7

    def produce():
        result = figure7.generate(
            FIGURE7_NAMES, trials=1, first_trials=1, seed_base=50_000
        )
        # the meas* columns are wall-clock ratios — not deterministic
        # between *any* two runs; everything modelled must match
        for row in result.rows:
            row.measured = {}
        return result.render()

    one, two, four = _all_arms(monkeypatch, isolated_cache, produce)
    assert two == one
    assert four == one

"""The fused barrier fast path is a pure optimization.

``DOUBLECHECKER_BARRIER_FASTPATH=0`` routes every access through the
reference pipeline — ``classify`` for every barrier, the two-stage
ICD+Octet dispatch — while the default fuses same-state detection,
counter batching, and logging into ICD's columnar barrier.  The random
programs are scripted (the strategy and dump helpers live in
test_batch_executor_determinism) and both arms run the batch executor,
so the fast-path arm actually reaches that barrier.  Everything
observable must be identical between the two arms:

* the stream of transition records delivered to Octet listeners
  (same-state transitions never notify, in either arm);
* the IDG (edge endpoints, kinds, and creation order);
* every transaction's read/write log, entry for entry;
* the barrier/fast-path counters and the reported violations (except
  ``fast_path_fused``, which is 0 on the reference arm by definition);
* end-to-end: Table 2, Table 3, and Figure 7 outputs, byte for byte
  (Figure 7 modulo its measured wall-clock columns, which are not
  deterministic between any two runs).

The inline fast-path predicate is duplicated in ``OctetRuntime.observe``
and ``ICD.access_barrier_batch`` for speed; a property test pins both
(via ``is_same_state``) against ``classify``.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.harness import runner, table2, table3
from repro.octet.runtime import FASTPATH_ENV
from repro.octet.states import rd_ex, rd_sh, wr_ex
from repro.octet.transitions import TransitionKind, classify, is_same_state
from repro.runtime.events import AccessKind
from repro.runtime.lowering import BATCH_ENV

from tests.integration.test_batch_executor_determinism import (
    program_strategy,
    run_scripted,
)


# ----------------------------------------------------------------------
# the fast-path predicate vs Table 1
# ----------------------------------------------------------------------
state_strategy = st.one_of(
    st.none(),
    st.builds(wr_ex, st.sampled_from(["T0", "T1", "T2"])),
    st.builds(rd_ex, st.sampled_from(["T0", "T1", "T2"])),
    st.builds(rd_sh, st.integers(1, 5)),
)


@given(
    state_strategy,
    st.sampled_from([AccessKind.READ, AccessKind.WRITE]),
    st.sampled_from(["T0", "T1", "T2"]),
    st.integers(0, 5),
)
@settings(max_examples=300, deadline=None)
def test_is_same_state_matches_classify(state, access, thread, rdsh_counter):
    classified = classify(state, access, thread, rdsh_counter, 99)
    assert is_same_state(state, access, thread, rdsh_counter) == (
        classified.kind is TransitionKind.SAME_STATE
    )


# ----------------------------------------------------------------------
# random schedules: every observable identical across the two arms
# ----------------------------------------------------------------------
#: a pinned case whose re-reads of owned objects reach the columnar
#: barrier's fast path (``fast_path_fused > 0``)
PINNED_CASE = ([[(0, 0, 0), (0, 0, 0), (1, 0, 1), (0, 0, 1)]], [[0, 0], [0]], 3)


def _run_arm(fastpath, method_specs, thread_scripts, seed):
    # both arms run the batch executor, so the fast-path arm feeds
    # ICD's columnar barrier and the reference arm dispatches events
    return run_scripted(
        {BATCH_ENV: "1", FASTPATH_ENV: "1" if fastpath else "0"},
        method_specs, thread_scripts, seed,
    )


@given(program_strategy)
@example(PINNED_CASE)
@settings(max_examples=50, deadline=None)
def test_fastpath_arms_identical_on_random_schedules(case):
    method_specs, thread_scripts, seed = case
    fused = _run_arm(True, method_specs, thread_scripts, seed)
    reference = _run_arm(False, method_specs, thread_scripts, seed)

    assert reference["fused"] == 0
    assert fused["fused"] <= fused["fast_path"]
    if case == PINNED_CASE:
        assert fused["fused"] > 0
    for key in fused:
        if key == "fused":
            continue
        assert fused[key] == reference[key], key


# ----------------------------------------------------------------------
# end-to-end: the experiment tables, byte for byte
# ----------------------------------------------------------------------
TABLE2_NAMES = ["hedc", "elevator"]
TABLE3_NAMES = ["hedc", "elevator"]
FIGURE7_NAMES = ["hedc"]


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    """Fresh final-spec cache per arm so neither arm reuses the other's
    refinement results (the comparison must exercise both pipelines
    end to end)."""

    def activate(arm):
        cache = tmp_path / arm
        cache.mkdir()
        monkeypatch.setattr(runner, "CACHE_DIR", str(cache))
        runner._FINAL_SPEC_MEMO.clear()

    yield activate
    runner._FINAL_SPEC_MEMO.clear()


def _both_arms(monkeypatch, isolated_cache, produce):
    outputs = []
    for arm, value in (("fused", "1"), ("reference", "0")):
        isolated_cache(arm)
        monkeypatch.setenv(FASTPATH_ENV, value)
        outputs.append(produce())
    return outputs


def test_table2_bytes_identical_across_arms(monkeypatch, isolated_cache):
    fused, reference = _both_arms(
        monkeypatch,
        isolated_cache,
        lambda: table2.generate(
            TABLE2_NAMES, trials_per_step=2, seed_base=0
        ).render(),
    )
    assert fused == reference


def test_table3_bytes_identical_across_arms(monkeypatch, isolated_cache):
    fused, reference = _both_arms(
        monkeypatch,
        isolated_cache,
        lambda: table3.generate(
            TABLE3_NAMES, trials=1, first_trials=1, seed_base=40_000
        ).render(),
    )
    assert fused == reference


def test_figure7_bytes_identical_across_arms(monkeypatch, isolated_cache):
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

    fused, reference = _both_arms(monkeypatch, isolated_cache, produce)
    assert fused == reference

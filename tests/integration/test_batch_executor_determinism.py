"""The columnar batch executor is a pure optimization.

``DOUBLECHECKER_BATCH_EXECUTOR=0`` runs the reference per-op
interpreter — every scripted body interpreted one ``yield`` at a time
through the generic op dispatch — while the default lowers scriptable
bodies into columnar arrays and drives scheduler quanta through the
tight batch loop, feeding the fused barrier pre-interned column
values.  Everything observable must be identical between the two arms:

* the executor's own results: step counts, access counts, and the
  per-thread step accounting;
* the stream of transition records delivered to Octet listeners;
* the IDG (edge endpoints, kinds, and creation order);
* every transaction's read/write log, entry for entry (including the
  interned site strings the lowered columns carry);
* the barrier counters, elision counters, and reported violations —
  except ``fast_path_fused``, which counts hits resolved by the
  columnar barrier: the reference interpreter dispatches events, so
  its hits resolve in ``OctetRuntime.observe`` and it reports 0;
* end-to-end: Table 2, Table 3, and Figure 7 outputs, byte for byte
  (Figure 7 modulo its measured wall-clock columns, which are not
  deterministic between any two runs).

The random programs here are *scripted* — built from the script IR via
``script_body`` — so the batch arm actually exercises lowering and the
batch loop (asserted via the executor's frame counters).  The program
strategy, the dump helpers and :func:`run_scripted` are shared with
test_barrier_fastpath_determinism.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.icd import ICD
from repro.core.pcd import PCD
from repro.core.reports import ViolationSummary
from repro.core.rwlog import AccessEntry
from repro.harness import runner, table2, table3
from repro.octet.runtime import OctetListener
from repro.runtime.executor import Executor
from repro.runtime.lowering import BATCH_ENV, script_body
from repro.runtime.program import Program
from repro.runtime.scheduler import RandomScheduler
from repro.spec.specification import AtomicitySpecification

# ----------------------------------------------------------------------
# random *scripted* programs
# ----------------------------------------------------------------------
# an op is (kind, object index, slot):
#   0 = field read, 1 = field write, 2 = locked read+increment,
#   3 = array read, 4 = array write
# slot % 2 picks the field for kinds 0-2; slot picks the array index
# for kinds 3-4
op_strategy = st.tuples(
    st.integers(0, 4), st.integers(0, 1), st.integers(0, 3)
)
method_strategy = st.lists(op_strategy, min_size=1, max_size=4)
program_strategy = st.tuples(
    st.lists(method_strategy, min_size=1, max_size=4),   # method bodies
    st.lists(                                            # per-thread call scripts
        st.lists(st.integers(0, 3), min_size=1, max_size=6),
        min_size=2,
        max_size=3,
    ),
    st.integers(0, 10_000),                              # scheduler seed
)


def materialize_scripted(method_specs, thread_scripts):
    """Build the random program entirely from script-IR bodies."""
    program = Program("random-scripted")
    objects = program.add_global_objects("objs", 2)
    arr = program.add_global_array("arr", 4)

    for index, ops in enumerate(method_specs):
        def make_script(ops=ops):
            def script(ctx):
                out = []
                for kind, obj_index, slot in ops:
                    obj = objects[obj_index]
                    fieldname = f"f{slot % 2}"
                    if kind == 0:
                        out.append(("read", obj, fieldname, None))
                    elif kind == 1:
                        out.append(("write", obj, fieldname, ("const", 1)))
                    elif kind == 2:
                        out.append(("acquire", obj))
                        out.append(("read", obj, fieldname, "v"))
                        out.append(("write", obj, fieldname, ("inc", "v", 1)))
                        out.append(("release", obj))
                    elif kind == 3:
                        out.append(("aread", arr, slot, None))
                    else:
                        out.append(("awrite", arr, slot, ("const", 1)))
                return out

            return script

        program.method(script_body(make_script()), name=f"m{index}")

    method_count = len(method_specs)
    for tid, script in enumerate(thread_scripts):
        def make_worker(script=script):
            def worker(ctx):
                return [
                    ("invoke", f"m{call % method_count}", ())
                    for call in script
                ]

            return worker

        name = f"worker{tid}"
        program.method(script_body(make_worker()), name=name)
        program.mark_entry(name)
        program.add_thread(f"T{tid}", name)
    return program


class TransitionLog(OctetListener):
    """Records every listener-visible transition, fully serialized."""

    def __init__(self):
        self.records = []

    def _add(self, hook, record):
        event = record.event
        self.records.append(
            (
                hook,
                record.kind.value,
                event.seq,
                event.obj.oid,
                event.fieldname,
                event.thread_name,
                repr(record.old_state),
                repr(record.new_state),
                record.prior_owner,
                record.rdsh_counter,
            )
        )

    def on_conflicting(self, record):
        self._add("conflicting", record)

    def on_upgrading_rd_sh(self, record):
        self._add("upgrading_rd_sh", record)

    def on_upgrading_wr_ex(self, record):
        self._add("upgrading_wr_ex", record)

    def on_fence(self, record):
        self._add("fence", record)

    def on_initial(self, record):
        self._add("initial", record)


def _dump_logs(icd):
    out = {}
    for tx in icd.tx_manager.all_transactions:
        if tx.log is None:
            continue
        entries = []
        for entry in tx.log.entries:
            if isinstance(entry, AccessEntry):
                entries.append(
                    ("a", entry.kind.value, entry.oid, entry.fieldname,
                     entry.seq, entry.site)
                )
            else:
                entries.append(
                    ("m", entry.edge_order, entry.is_source, entry.seq)
                )
        out[tx.tx_id] = entries
    return out


def _dump_edges(icd):
    return sorted(
        (edge.src.tx_id, edge.dst.tx_id, edge.kind, edge.order,
         edge.src_log_index, edge.dst_log_index)
        for tx in icd.tx_manager.all_transactions
        for edge in tx.out_edges
    )


def run_scripted(env, method_specs, thread_scripts, seed):
    """Run one random scripted program under single-listener ICD with
    the environment overrides ``env`` and dump every observable."""
    saved = {name: os.environ.get(name) for name in env}
    os.environ.update(env)
    try:
        program = materialize_scripted(method_specs, thread_scripts)
        spec = AtomicitySpecification.initial(program)
        pcd = PCD()
        violations = ViolationSummary()
        icd = ICD(
            spec,
            on_scc=lambda comp: violations.extend(pcd.process(comp)),
            gc_interval=None,
        )
        transitions = TransitionLog()
        icd.octet.add_listener(transitions)
        executor = Executor(
            program, RandomScheduler(seed=seed, switch_prob=0.7), [icd]
        )
        result = executor.run()
        octet_stats = icd.octet.stats
        return {
            # the executor's own observables
            "steps": result.steps,
            "access_count": result.access_count,
            "sync_access_count": result.sync_access_count,
            "per_thread_ops": result.per_thread_ops,
            "thread_names": result.thread_names,
            # everything the analysis pipeline saw
            "transitions": transitions.records,
            "edges": _dump_edges(icd),
            "logs": _dump_logs(icd),
            "barriers": octet_stats.barriers,
            "fast_path": octet_stats.fast_path,
            "fused": octet_stats.fast_path_fused,
            "idg_edges": icd.stats.idg_edges,
            "log_entries": icd.stats.log_entries,
            "log_marks": icd.stats.log_marks,
            "elision": (icd._elision.stats.logged, icd._elision.stats.elided),
            "violations": [
                (r.blamed_method, r.blamed_tx_id, r.thread_name,
                 r.cycle_methods, r.cycle_tx_ids, r.detector)
                for r in violations.records
            ],
            # did the batch machinery actually run?
            "frames_lowered": executor._batch_frames_lowered,
        }
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@given(program_strategy)
@settings(max_examples=50, deadline=None)
def test_batch_arms_identical_on_random_scripted_programs(case):
    method_specs, thread_scripts, seed = case
    batched = run_scripted(
        {BATCH_ENV: "1"}, method_specs, thread_scripts, seed
    )
    reference = run_scripted(
        {BATCH_ENV: "0"}, method_specs, thread_scripts, seed
    )

    # the batch arm must have lowered every scripted body it ran
    assert batched["frames_lowered"] > 0
    assert reference["frames_lowered"] == 0
    assert batched["fused"] <= batched["fast_path"]
    assert reference["fused"] == 0
    for key in batched:
        if key in ("frames_lowered", "fused"):
            continue
        assert batched[key] == reference[key], key


# ----------------------------------------------------------------------
# end-to-end: the experiment tables, byte for byte
# ----------------------------------------------------------------------
TABLE2_NAMES = ["hedc", "elevator"]
TABLE3_NAMES = ["hedc", "elevator"]
FIGURE7_NAMES = ["hedc"]


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    """Fresh final-spec cache per arm so neither arm reuses the other's
    refinement results (the comparison must exercise both executors
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
    for arm, value in (("batch", "1"), ("reference", "0")):
        isolated_cache(arm)
        monkeypatch.setenv(BATCH_ENV, value)
        outputs.append(produce())
    return outputs


def test_table2_bytes_identical_across_arms(monkeypatch, isolated_cache):
    batched, reference = _both_arms(
        monkeypatch,
        isolated_cache,
        lambda: table2.generate(
            TABLE2_NAMES, trials_per_step=2, seed_base=0
        ).render(),
    )
    assert batched == reference


def test_table3_bytes_identical_across_arms(monkeypatch, isolated_cache):
    batched, reference = _both_arms(
        monkeypatch,
        isolated_cache,
        lambda: table3.generate(
            TABLE3_NAMES, trials=1, first_trials=1, seed_base=40_000
        ).render(),
    )
    assert batched == reference


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

    batched, reference = _both_arms(monkeypatch, isolated_cache, produce)
    assert batched == reference

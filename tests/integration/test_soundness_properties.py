"""Property-based soundness/precision tests on random programs.

These are executable versions of the paper's key claims:

* **Section 3.2.5 (ICD soundness):** for every precise dependence
  cycle, ICD detects an SCC whose transactions are a superset of the
  cycle's transactions.
* **Single-run mode is sound and precise:** on the same execution it
  reports a violation iff an independent whole-trace oracle finds a
  precise cycle — and agrees with our Velodrome implementation.

The oracle is deliberately independent of the production code paths:
it records the raw access trace and applies Figure 5's rules offline
over the *entire* execution in true order, then runs an off-the-shelf
SCC computation (networkx) over cross-thread plus program-order edges.

The oracle has two design points, and each checker is refereed by the
one it implements.  The trace includes the executor's ``<monitor>`` /
``<thread>`` synchronization pseudo-accesses, so the full oracle
(``sync_edges=True``) orders transactions through release→acquire and
fork/join edges: the referee for DoubleChecker, Velodrome and the vc
backend's ``sync_edges`` arm.  With ``sync_edges=False`` it drops those
pseudo-accesses and sees data-conflict edges only: the referee for the
vc backend's default arm and the offline checker.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st
import networkx as nx

from repro.core.icd import ICD
from repro.core.pcd import PCD
from repro.core.reports import ViolationSummary
from repro.offline.checker import OfflineChecker
from repro.runtime.events import AccessKind
from repro.runtime.executor import Executor
from repro.runtime.listeners import ExecutionListener
from repro.runtime.ops import Acquire, Compute, Invoke, Read, Release, Write
from repro.runtime.program import Program
from repro.runtime.scheduler import RandomScheduler
from repro.spec.specification import AtomicitySpecification
from repro.trace.recorder import record_execution
from repro.vc.checker import VcChecker
from repro.velodrome.checker import VelodromeChecker

# ----------------------------------------------------------------------
# random-program strategy
# ----------------------------------------------------------------------
# an op is (kind, object index, field index):
#   0 = read, 1 = write, 2 = locked read+write
op_strategy = st.tuples(
    st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)
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


def materialize(method_specs, thread_scripts):
    program = Program("random")
    objects = program.add_global_objects("objs", 2)

    for index, ops in enumerate(method_specs):
        def make_body(ops=ops):
            def body(ctx):
                for kind, obj_index, field_index in ops:
                    obj = objects[obj_index]
                    fieldname = f"f{field_index}"
                    if kind == 0:
                        yield Read(obj, fieldname)
                    elif kind == 1:
                        yield Write(obj, fieldname, 1)
                    else:
                        yield Acquire(obj)
                        value = yield Read(obj, fieldname)
                        yield Write(obj, fieldname, (value or 0) + 1)
                        yield Release(obj)

            return body

        program.method(make_body(), name=f"m{index}")

    method_count = len(method_specs)
    for tid, script in enumerate(thread_scripts):
        def make_worker(script=script):
            def worker(ctx):
                for call in script:
                    yield Invoke(f"m{call % method_count}")

            return worker

        name = f"worker{tid}"
        program.method(make_worker(), name=name)
        program.mark_entry(name)
        program.add_thread(f"T{tid}", name)
    return program


# ----------------------------------------------------------------------
# the independent oracle
# ----------------------------------------------------------------------
class TraceRecorder(ExecutionListener):
    """Records (tx, address, kind, is_sync) in execution order.

    Registered *after* ICD in the pipeline so it can read ICD's
    transaction assignment for each access (the same assignment PCD
    analyzes), while remaining independent of ICD's graph machinery.
    """

    def __init__(self, icd: ICD) -> None:
        self.icd = icd
        self.trace = []

    def on_access(self, event):
        tx = self.icd.tx_manager.current_or_latest(event.thread_name)
        if tx is not None:
            self.trace.append(
                (tx, event.address, event.kind, event.is_sync)
            )


def oracle_cyclic_sccs(trace, *, sync_edges):
    """Whole-trace Figure 5 + program order, SCCs via networkx.

    ``sync_edges=False`` drops synchronization pseudo-accesses, so only
    data conflicts (plus program order) create edges."""
    graph = nx.DiGraph()
    last_write = {}
    last_reads = {}
    chains = {}
    for tx, address, kind, is_sync in trace:
        if is_sync and not sync_edges:
            continue
        graph.add_node(tx.tx_id)
        prev = chains.get(tx.thread_name)
        if prev is not None and prev is not tx:
            graph.add_edge(prev.tx_id, tx.tx_id)
        chains[tx.thread_name] = tx

        writer = last_write.get(address)
        if writer is not None and writer.thread_name != tx.thread_name:
            graph.add_edge(writer.tx_id, tx.tx_id)
        if kind is AccessKind.READ:
            last_reads.setdefault(address, {})[tx.thread_name] = tx
        else:
            for thread_name, reader in last_reads.get(address, {}).items():
                if thread_name != tx.thread_name:
                    graph.add_edge(reader.tx_id, tx.tx_id)
            last_reads[address] = {}
            last_write[address] = tx
    return [set(scc) for scc in nx.strongly_connected_components(graph) if len(scc) > 1]


def scheduler(seed):
    return RandomScheduler(seed=seed, switch_prob=0.7)


def run_all(method_specs, thread_scripts, seed):
    """Run DC single-run on one schedule, recording the oracle's trace;
    Velodrome on the same schedule."""
    program = materialize(method_specs, thread_scripts)
    spec = AtomicitySpecification.initial(program)

    pcd = PCD()
    violations = ViolationSummary()
    components = []

    def on_scc(component):
        components.append({tx.tx_id for tx in component})
        violations.extend(pcd.process(component))

    icd = ICD(spec, on_scc=on_scc, gc_interval=None)
    recorder = TraceRecorder(icd)
    Executor(program, scheduler(seed), [icd, recorder]).run()

    program_v = materialize(method_specs, thread_scripts)
    velodrome = VelodromeChecker(
        AtomicitySpecification.initial(program_v), gc_interval=None
    ).run(program_v, scheduler(seed))

    return violations, components, recorder.trace, velodrome, pcd


def run_vc(method_specs, thread_scripts, seed, sync_edges):
    program = materialize(method_specs, thread_scripts)
    checker = VcChecker(
        AtomicitySpecification.initial(program),
        sync_edges=sync_edges,
        gc_interval=None,
    )
    return checker.run(program, scheduler(seed))


@given(program_strategy)
@settings(max_examples=60, deadline=None)
def test_icd_sccs_are_supersets_of_precise_cycles(case):
    method_specs, thread_scripts, seed = case
    _, components, trace, _, _ = run_all(method_specs, thread_scripts, seed)
    for cycle in oracle_cyclic_sccs(trace, sync_edges=True):
        assert any(
            cycle <= component for component in components
        ), f"precise cycle {cycle} not covered by any ICD SCC {components}"


#: regression examples for the PCD log-merge ordering bug: edge marks
#: created after the source transaction ended (or attributed by ICD to
#: a thread's *next* transaction) used to enter the merge heap at their
#: creation seq, letting later accesses overtake parked earlier ones
#: and deriving a phantom backwards dependence edge — a false positive
#: on a lock-protected read-modify-write program with no precise cycle
_MERGE_REGRESSION_1 = (
    [[(2, 0, 1), (0, 0, 0), (0, 0, 0), (0, 1, 0)]],
    [[0, 0, 0], [0, 0, 0], [0]],
    1050,
)
_MERGE_REGRESSION_2 = (
    [[(2, 0, 0), (0, 0, 0), (0, 0, 0), (0, 1, 0)]],
    [[0, 0, 0], [0, 0, 0], [0]],
    1050,
)


@given(program_strategy)
@example(_MERGE_REGRESSION_1)
@example(_MERGE_REGRESSION_2)
@settings(max_examples=60, deadline=None)
def test_single_run_sound_and_precise_vs_oracle(case):
    method_specs, thread_scripts, seed = case
    violations, _, trace, _, _ = run_all(method_specs, thread_scripts, seed)
    assert bool(violations) == bool(
        oracle_cyclic_sccs(trace, sync_edges=True)
    )


@given(program_strategy)
@example(_MERGE_REGRESSION_1)
@example(_MERGE_REGRESSION_2)
@settings(max_examples=60, deadline=None)
def test_single_run_agrees_with_velodrome(case):
    """Both sound+precise checkers agree with the oracle's verdict.

    Exact cycle *witnesses* can legitimately differ between the two
    checkers on the same schedule: each reports one cycle per closing
    edge (the first DFS path found), PCD computes conflict edges within
    an SCC's restricted access set (where a transitive ``W→...→R``
    chain may appear as one direct conflict edge), and blame compares
    checker-local edge-creation orders.  What must hold: the verdicts
    agree, every reported witness lies inside an oracle SCC, and DC's
    precise cycles lie inside the oracle's SCCs transaction-for-
    transaction (same transaction numbering).
    """
    method_specs, thread_scripts, seed = case
    violations, _, trace, velodrome, _ = run_all(
        method_specs, thread_scripts, seed
    )
    oracle = oracle_cyclic_sccs(trace, sync_edges=True)
    assert bool(violations) == bool(oracle)
    assert bool(velodrome.violations) == bool(oracle)

    for record in violations.records:
        # each precise cycle sits inside one oracle SCC (same tx ids)
        assert any(
            set(record.cycle_tx_ids) <= scc for scc in oracle
        ), (record.cycle_tx_ids, oracle)

    # every oracle SCC is witnessed by at least one DC cycle
    for scc in oracle:
        assert any(
            set(record.cycle_tx_ids) <= scc for record in violations.records
        ), (scc, [r.cycle_tx_ids for r in violations.records])


#: a cycle that closes only through a monitor release→acquire edge:
#: DC, Velodrome, vc+sync and the full oracle report it; default vc
#: and the data-only oracle do not
_SYNC_ONLY_CYCLE = (
    [[(2, 0, 1), (0, 0, 0), (0, 0, 0), (0, 0, 0)], [(0, 0, 0)],
     [(0, 0, 0), (2, 0, 0)]],
    [[2], [0], [0, 0]],
    0,
)


def test_sync_only_cycle_separates_the_two_oracles():
    trace = run_all(*_SYNC_ONLY_CYCLE)[2]
    assert oracle_cyclic_sccs(trace, sync_edges=True)
    assert not oracle_cyclic_sccs(trace, sync_edges=False)


@given(program_strategy)
@example(_SYNC_ONLY_CYCLE)
@settings(max_examples=40, deadline=None)
def test_vector_clock_agrees_with_oracle_and_velodrome(case):
    """The vc backend's two arms each track their own referee: the
    default arm is data-conflict-only, so it must reproduce the
    data-only oracle's verdict; the ``sync_edges`` arm builds
    Velodrome's exact graph, so it must reproduce the full oracle's
    and Velodrome's verdicts and perform exactly Velodrome's per-edge
    cycle checks."""
    method_specs, thread_scripts, seed = case
    _, _, trace, velodrome, _ = run_all(method_specs, thread_scripts, seed)

    vc = run_vc(method_specs, thread_scripts, seed, sync_edges=False)
    vc_sync = run_vc(method_specs, thread_scripts, seed, sync_edges=True)
    assert bool(vc.violations) == bool(
        oracle_cyclic_sccs(trace, sync_edges=False)
    )
    assert bool(vc_sync.violations) == bool(
        oracle_cyclic_sccs(trace, sync_edges=True)
    )
    assert bool(vc_sync.violations) == bool(velodrome.violations)
    assert vc_sync.stats.cycle_checks == velodrome.stats.cycle_checks


@given(program_strategy)
@example(_SYNC_ONLY_CYCLE)
@settings(max_examples=40, deadline=None)
def test_offline_agrees_with_vector_clock(case):
    """The offline checker and default vc share one design point (data
    conflicts only), so on the same schedule both must reproduce the
    data-only oracle's verdict."""
    method_specs, thread_scripts, seed = case
    _, _, trace, _, _ = run_all(method_specs, thread_scripts, seed)

    program = materialize(method_specs, thread_scripts)
    offline = OfflineChecker(AtomicitySpecification.initial(program)).check(
        record_execution(program, scheduler(seed))
    )
    vc = run_vc(method_specs, thread_scripts, seed, sync_edges=False)
    assert bool(offline.violations) == bool(vc.violations)
    assert bool(offline.violations) == bool(
        oracle_cyclic_sccs(trace, sync_edges=False)
    )


@given(program_strategy)
@settings(max_examples=40, deadline=None)
def test_replay_never_falls_back(case):
    """PCD's topological merge must always be consistent (the edge
    anchors are sufficient; the seq tie-break never contradicts them)."""
    method_specs, thread_scripts, seed = case
    _, _, _, _, pcd = run_all(method_specs, thread_scripts, seed)
    assert pcd.stats.order_fallbacks == 0

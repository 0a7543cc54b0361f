"""Vector-clock backend: detection, knobs, GC, fused-path identity."""

import pytest

from repro.errors import OutOfMemoryBudget
from repro.runtime.lowering import BATCH_ENV, script_body
from repro.runtime.ops import Compute, Invoke, Read, Write
from repro.runtime.program import Program
from repro.runtime.scheduler import RandomScheduler, ScriptedScheduler
from repro.vc.checker import VcChecker
from repro.velodrome.checker import VelodromeChecker

from tests.util import counter_program, spec_for

def scheduler(seed=1):
    return RandomScheduler(seed=seed, switch_prob=0.7)


class TestDetection:
    def test_detects_split_rmw(self):
        program = counter_program(threads=2, iterations=12)
        result = VcChecker(spec_for(program)).run(program, scheduler())
        assert result.blamed_methods == {"rmw"}
        assert result.stats.cycles_found > 0

    def test_clean_locked_program(self):
        program = counter_program(threads=2, iterations=12, locked=True)
        result = VcChecker(spec_for(program)).run(program, scheduler())
        assert result.blamed_methods == set()

    def test_blames_overlapping_transaction(self):
        """The mixed intra/cross-edge cycle: B overlaps two of A's
        transactions; the program-order leg lives in A's clock chain."""
        program = Program("overlap")
        x = program.add_global_object("x")
        y = program.add_global_object("y")

        def a_body(ctx):
            yield Invoke("a_read_x")
            yield Invoke("a_write_y")

        def a_read_x(ctx):
            yield Read(x, "f")

        def a_write_y(ctx):
            yield Write(y, "f", 1)

        def b_whole(ctx):
            yield Write(x, "f", 2)       # before A reads x
            yield Compute(30)
            yield Read(y, "f")           # after A writes y

        def b_body(ctx):
            yield Invoke("b_whole")

        program.method(a_body, name="a_body")
        program.method(a_read_x, name="a_read_x")
        program.method(a_write_y, name="a_write_y")
        program.method(b_whole, name="b_whole")
        program.method(b_body, name="b_body")
        program.add_thread("A", "a_body")
        program.add_thread("B", "b_body")
        program.mark_entry("a_body")
        program.mark_entry("b_body")

        script = ["B", "B", "B", "B"] + ["A"] * 40 + ["B"] * 40
        result = VcChecker(spec_for(program)).run(
            program, ScriptedScheduler(script)
        )
        assert result.blamed_methods == {"b_whole"}

    def test_linear_time_no_graph_search(self):
        """The whole point: cycle checks are clock probes, so their
        count is bounded by the (deduplicated) edge count."""
        program = counter_program(threads=3, iterations=20)
        result = VcChecker(spec_for(program)).run(program, scheduler())
        assert result.stats.cycle_checks == result.stats.edges


class TestSyncEdges:
    def test_sync_accesses_skipped_by_default(self):
        program = counter_program(threads=2, iterations=8, locked=True)
        checker = VcChecker(spec_for(program))
        checker.run(program, scheduler())
        assert checker.stats.sync_accesses_skipped > 0

    def test_sync_edges_mode_counts_them(self):
        program = counter_program(threads=2, iterations=8, locked=True)
        checker = VcChecker(spec_for(program), sync_edges=True)
        checker.run(program, scheduler())
        assert checker.stats.sync_accesses_skipped == 0

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_sync_edges_mode_matches_velodrome(self, seed):
        """With sync ordering on, verdicts are Velodrome's."""
        program_v = counter_program(threads=3, iterations=15, locked=True)
        velodrome = VelodromeChecker(spec_for(program_v)).run(
            program_v, scheduler(seed=seed)
        )
        program_c = counter_program(threads=3, iterations=15, locked=True)
        vc = VcChecker(spec_for(program_c), sync_edges=True).run(
            program_c, scheduler(seed=seed)
        )
        assert vc.blamed_methods == velodrome.blamed_methods


class TestFilters:
    def test_monitor_regular_filter(self):
        program = counter_program(threads=2, iterations=8)
        checker = VcChecker(spec_for(program), monitor_regular=lambda m: False)
        result = checker.run(program, scheduler())
        assert result.tx_stats.regular_transactions == 0
        assert result.tx_stats.unmonitored_transactions > 0

    def test_monitor_unary_disabled(self):
        program = counter_program(threads=2, iterations=8)
        checker = VcChecker(spec_for(program), monitor_unary=False)
        result = checker.run(program, scheduler())
        assert result.tx_stats.unary_accesses == 0

    def test_arrays_skipped_by_default(self):
        from repro.runtime.ops import ArrayRead, ArrayWrite

        program = Program("arr")
        arr = program.add_global_array("arr", 4)

        def body(ctx):
            for i in range(4):
                value = yield ArrayRead(arr, i)
                yield ArrayWrite(arr, i, (value or 0) + 1)

        program.method(body, name="body")
        program.add_thread("A", "body")
        program.add_thread("B", "body")
        program.mark_entry("body")
        checker = VcChecker(spec_for(program))
        result = checker.run(program, scheduler())
        assert result.stats.array_accesses_skipped > 0


class TestGcAndBudget:
    def test_gc_preserves_detection(self):
        def blamed(interval):
            program = counter_program(threads=3, iterations=20)
            checker = VcChecker(spec_for(program), gc_interval=interval)
            return checker.run(program, scheduler(seed=5)).blamed_methods

        assert blamed(None) == blamed(4)

    def test_clock_states_swept_with_transactions(self):
        program = counter_program(threads=2, iterations=30)
        checker = VcChecker(spec_for(program), gc_interval=4)
        checker.run(program, scheduler())
        assert checker.collector.stats.transactions_collected > 0
        live = {t.tx_id for t in checker.tx_manager.all_transactions}
        assert set(checker._states) <= live

    def test_memory_budget(self):
        program = counter_program(threads=2, iterations=100)
        checker = VcChecker(
            spec_for(program), memory_budget=5, gc_interval=None
        )
        with pytest.raises(OutOfMemoryBudget):
            checker.run(program, scheduler())


def _rereading_program():
    """Transactions that re-touch fields they already own: the shape
    the fused barrier's no-op predicate exists for.  Scripted, so the
    batch executor lowers it and feeds vc's columnar barrier."""
    program = Program("reread")
    x = program.add_global_object("x")

    def churn(ctx):
        return [("read", x, "f", "total")] * 4 + [
            ("write", x, "f", ("inc", "total", 1)),
            ("write", x, "f", ("inc", "total", 2)),
        ]

    def body(ctx):
        return [("invoke", "churn", ())] * 10

    program.method(script_body(churn), name="churn")
    program.method(script_body(body), name="body")
    for name in ("A", "B", "C"):
        program.add_thread(name, "body")
    program.mark_entry("body")
    return program


class TestFusedBarrier:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_fused_matches_reference(self, seed, monkeypatch):
        """The fused closure's no-op fast path must not change any
        analysis-visible output."""
        # the columnar barrier only runs under the batch executor
        monkeypatch.setenv(BATCH_ENV, "1")
        program_f = _rereading_program()
        fused = VcChecker(spec_for(program_f), fastpath=True)
        fused_result = fused.run(program_f, scheduler(seed=seed))
        program_r = _rereading_program()
        reference = VcChecker(spec_for(program_r), fastpath=False)
        reference_result = reference.run(program_r, scheduler(seed=seed))
        assert fused_result.blamed_methods == reference_result.blamed_methods
        for name in ("edges", "cycles_found", "cycle_checks", "clock_joins"):
            assert getattr(fused_result.stats, name) == getattr(
                reference_result.stats, name
            ), name
        assert fused_result.stats.fastpath_hits > 0
        assert reference_result.stats.fastpath_hits == 0
        # fast-path hits are exactly the no-metadata-change accesses
        assert (
            fused_result.stats.instrumented_accesses
            == reference_result.stats.instrumented_accesses
        )


class TestAgreementWithDoubleChecker:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_same_schedule_same_violations(self, seed):
        """On pure data-conflict programs the vc backend must agree
        with the two-pass ICD+PCD pipeline."""
        from repro.core.doublechecker import DoubleChecker

        program_c = counter_program(threads=3, iterations=15)
        vc = VcChecker(spec_for(program_c)).run(program_c, scheduler(seed=seed))
        program_d = counter_program(threads=3, iterations=15)
        double = DoubleChecker(spec_for(program_d)).run_single(
            program_d, scheduler(seed=seed)
        )
        assert vc.blamed_methods == double.blamed_methods

"""The benchmark's workloads, owned here so they outlive any bench script.

A workload is a list of cases; a case is one program the six
configurations run on, under the scheduler seed the benchmark seed
names.  ``pcdheavy`` and ``hubstress`` are synthetic programs tuned to
stress PCD replay and cycle checking respectively; ``paper-suite`` is
the 16 compute-bound catalog programs of the paper's Figure 7.
``BENCHMARK.json`` lists pcdheavy and paper-suite; hubstress runs by
name only (see README.md).  Every program is single-use (executions
mutate its heap), so each execution gets a freshly built one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.harness.runner import initial_spec
from repro.spec.specification import AtomicitySpecification
from repro.workloads import builder
from repro.workloads.builder import WorkloadSpec
from repro.workloads.catalog import compute_bound_names, get_spec

#: high violating-density ring workload: eight threads over six hot
#: shared objects keep eager SCC detection busy (~2.3k growing
#: components), so PCD replay dominates the single run
PCDHEAVY = WorkloadSpec(
    name="pcdheavy",
    threads=8,
    iterations=500,
    shared_objects=6,
    readonly_objects=2,
    violating_methods=8,
    safe_methods=4,
    unary_ops=1,
    violating_weight=0.30,
    sliced_weight=0.20,
    sliced_methods=8,
    ring_size=8,
    ring_weight=0.35,
    pad=3,
)

#: cycle-check stress workload: a hub thread scans while listener
#: threads probe it, so Velodrome/vc edge handling and GC dominate
HUBSTRESS = WorkloadSpec(
    name="hubstress",
    threads=12,
    iterations=1200,
    shared_objects=2,
    violating_weight=0.02,
    safe_methods=6,
    unary_ops=2,
    array_ops=0,
    unary_shared_period=6,
    hub_scan_iters=600,
    hub_rounds=20,
    hub_threads=1,
    hub_probe_period=6,
    hub_listener_threads=2,
    pad=1,
)

#: uninstrumented scheduler steps at seed 0, summed over the workload's
#: cases.  They depend only on program and scheduler, so a mismatch
#: means the workload drifted and earlier numbers no longer compare.
PINNED_STEPS_SEED0 = {
    "pcdheavy": 88_956,
    "hubstress": 210_437,
    "paper-suite": 187_331,
}

#: workloads that run one fixed schedule whatever the benchmark seed.
#: pcdheavy's PCD replay work moves with the interleaving (1.51M to
#: 2.06M entries replayed over scheduler seeds 20-31), which would
#: spread single_s and second_s across runs by about as much as their
#: bounds; seed 0 is the schedule its step pin is taken at.  The
#: 16-program suite, and hubstress (velodrome edges within 1% across
#: seeds), keep the benchmark seed.
FIXED_SCHEDULE = {"pcdheavy": 0}


def scheduler_seed(workload: str, seed: int) -> int:
    """The scheduler seed a run of ``workload`` at benchmark ``seed`` uses."""
    return FIXED_SCHEDULE.get(workload, seed)


@dataclass(frozen=True)
class Case:
    """One program of a workload."""

    spec: WorkloadSpec
    #: catalog programs take the harness's initial specification (with
    #: the paper's out-of-memory exclusions); synthetic ones the plain
    #: initial specification
    catalog: bool = False

    @property
    def name(self) -> str:
        return self.spec.name

    def build(self):
        # looked up through the module so a wrapped seam sees the call
        return builder.build_program(self.spec)

    def atomicity_spec(self) -> AtomicitySpecification:
        if self.catalog:
            return initial_spec(self.spec.name)
        return AtomicitySpecification.initial(self.build())


def cases(workload: str, iterations: Optional[int] = None) -> List[Case]:
    """The cases of ``workload``; ``iterations`` shrinks the synthetic
    programs (and is ignored by the catalog suite) for smoke runs."""
    if workload == "paper-suite":
        return [Case(get_spec(name), catalog=True) for name in compute_bound_names()]
    spec = {"pcdheavy": PCDHEAVY, "hubstress": HUBSTRESS}[workload]
    if iterations is not None:
        spec = dataclasses.replace(spec, iterations=iterations)
    return [Case(spec)]


@dataclass
class Prepared:
    """A case made ready for one round: its specification and one fresh
    program per configuration."""

    case: Case
    aspec: AtomicitySpecification
    programs: Dict[str, object]


def prepare(workload_cases: List[Case], configs) -> List[Prepared]:
    """Build every program and specification one round needs."""
    return [
        Prepared(case, case.atomicity_spec(), {c: case.build() for c in configs})
        for case in workload_cases
    ]

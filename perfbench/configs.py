"""The paper's configurations, one measured round over a workload, and the
checks every round's results must pass.

A round runs each configuration over every case of the workload
(configuration-major, so a configuration's programs sit together in a
trace) and keeps, per (configuration, case), the wall time, the exact
work counters flattened from the result's ``*Stats``, and the blamed
method set.  Result objects are dropped as soon as they are read so
one configuration's graphs do not inflate the next one's memory.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.doublechecker import DoubleChecker
from repro.harness.runner import make_scheduler
from repro.runtime.executor import Executor
from repro.vc.checker import VcChecker
from repro.velodrome.checker import VelodromeChecker

from perfbench.speed import Sampler, Window

CONFIGS = ("baseline", "single", "first", "second", "velodrome", "vc")


def _run(config: str, aspec, program, seed: int, first_info):
    scheduler = make_scheduler(seed)
    if config == "baseline":
        return Executor(program, scheduler).run()
    if config == "single":
        return DoubleChecker(aspec).run_single(program, scheduler)
    if config == "first":
        return DoubleChecker(aspec).run_first(program, scheduler)
    if config == "second":
        return DoubleChecker(aspec).run_second(program, first_info, scheduler)
    if config == "velodrome":
        return VelodromeChecker(aspec).run(program, scheduler)
    if config == "vc":
        return VcChecker(aspec).run(program, scheduler)
    raise ValueError(f"unknown configuration {config!r}")


def _flatten(prefix: str, value, out: Dict[str, int]) -> None:
    """Collect every integer counter reachable from ``value``."""
    if isinstance(value, bool):
        return
    if isinstance(value, int):
        out[prefix] = value
    elif isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}.{key}", item, out)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _flatten(f"{prefix}.{f.name}", getattr(value, f.name), out)


def counters_of(result) -> Dict[str, int]:
    """Exact work counters of one configuration's result."""
    out: Dict[str, int] = {}
    if not hasattr(result, "execution"):  # the baseline's ExecutionResult
        _flatten("execution", result, out)
        return out
    for f in dataclasses.fields(result):
        if f.name == "execution" or f.name.endswith("stats"):
            _flatten(f.name, getattr(result, f.name), out)
    return out


@dataclass
class Outcome:
    """What one (configuration, case) execution left behind."""

    seconds: float
    counters: Dict[str, int] = field(default_factory=dict)
    blamed: Optional[frozenset] = None
    error: Optional[str] = None
    #: the timed window, when a speed sampler ran
    window: Optional[Window] = None


@dataclass
class Round:
    """One round's outcomes, keyed by (configuration, case name), and
    each configuration's wall time summed over the cases."""

    outcomes: Dict[Tuple[str, str], Outcome] = field(default_factory=dict)
    #: config -> case-summed seconds of each repetition
    repetitions: Dict[str, List[float]] = field(default_factory=dict)
    #: config -> case-summed timed window of each repetition (when a
    #: speed sampler ran)
    windows: Dict[str, List[Window]] = field(default_factory=dict)
    #: the round's seed and cases by name, for re-running a case
    seed: int = 0
    cases: Dict[str, object] = field(default_factory=dict)

    def seconds(self, config: str) -> float:
        """The fastest repetition's case-summed wall time (the least
        disturbed by other load on the machine)."""
        return min(self.repetitions[config])

    def counter(self, config: str, key: str) -> int:
        """``key`` summed over the round's cases (0 where absent)."""
        return sum(
            o.counters.get(key, 0)
            for (c, _), o in self.outcomes.items()
            if c == config
        )


#: ``scope(config, case)`` returns a context manager around each timed
#: call (the traced pass opens its per-program span there)
Scope = Callable[[str, str], object]

#: most repetitions of one configuration in a round
MAX_REPETITIONS = 7


def _execute(config: str, item, program, seed: int, first_info, scope,
             sampler: Optional[Sampler]):
    """Run one configuration on one case; returns its outcome and, for
    ``first``, the static information ``second`` is fed."""
    name = item.case.name
    context = scope(config, name) if scope is not None else nullcontext()
    mark = sampler.mark() if sampler is not None else 0
    started = time.perf_counter()
    try:
        with context:
            value = _run(config, item.aspec, program, seed, first_info)
    except Exception:  # a failing configuration is counted, not fatal
        seconds = time.perf_counter() - started
        error = traceback.format_exc()
        print(f"perfbench: {config} on {name} raised:\n{error}", file=sys.stderr)
        return Outcome(seconds, error=error), None
    seconds = time.perf_counter() - started
    blamed = getattr(value, "blamed_methods", None)
    outcome = Outcome(
        seconds, counters_of(value),
        frozenset(blamed) if blamed is not None else None,
        window=sampler.window(mark, seconds) if sampler is not None else None,
    )
    info = value.static_info if config == "first" else None
    return outcome, info


def run_round(
    prepared,
    seed: int,
    *,
    scope: Optional[Scope] = None,
    configs=CONFIGS,
    floor: float = 0.0,
    repetitions: int = 1,
    sampler: Optional[Sampler] = None,
) -> Round:
    """Run each configuration on every prepared case.

    The first pass runs every configuration once and keeps its
    outcomes.  Further passes (fresh programs, same schedules) repeat
    the configurations that have run fewer than ``repetitions`` times
    or whose repetitions do not yet add up to ``floor`` seconds, so
    every configuration is timed several times with its repetitions
    spread over the round rather than back to back.  A configuration
    that raised is not repeated.
    """
    result = Round(seed=seed, cases={item.case.name: item.case for item in prepared})
    first_infos: Dict[str, object] = {}
    pending = list(configs)
    while pending:
        for config in pending:
            timed = result.repetitions.setdefault(config, [])
            gc.collect()  # the previous pass's garbage, outside the timers
            total = 0.0
            window = Window()
            for item in prepared:
                name = item.case.name
                program = item.programs.pop(config, None)
                if program is None:
                    program = item.case.build()
                if config == "second" and name not in first_infos:
                    outcome, info = Outcome(
                        0.0, error="skipped: its first run failed"
                    ), None
                else:
                    outcome, info = _execute(config, item, program, seed,
                                             first_infos.get(name), scope,
                                             sampler)
                del program
                total += outcome.seconds
                if outcome.window is not None:
                    window += outcome.window
                if not timed or outcome.error is not None:
                    result.outcomes[(config, name)] = outcome
                    if info is not None:
                        first_infos[name] = info
            timed.append(total)
            if sampler is not None:
                result.windows.setdefault(config, []).append(window)
        pending = [
            c for c in pending
            if (len(result.repetitions[c]) < repetitions
                or sum(result.repetitions[c]) < floor)
            and len(result.repetitions[c]) < MAX_REPETITIONS
            and not any(o.error for (oc, _), o in result.outcomes.items()
                        if oc == c)
        ]
    return result


def vc_sync_blamed(case, seed: int) -> frozenset:
    """Methods vc blames with synchronization edges, the design point the
    repository pins equal to Velodrome (run on a fresh program, untimed)."""
    checker = VcChecker(case.atomicity_spec(), sync_edges=True)
    return frozenset(checker.run(case.build(), make_scheduler(seed)).blamed_methods)


def verdict_failures(round_: Round) -> Tuple[int, int, List[str]]:
    """Check a round's verdicts; returns (attempted, failed, messages).

    Every configuration result is one attempted verdict.  It fails if
    the configuration raised, or if its verdict breaks the check:
    ``single`` must blame exactly Velodrome's methods (both are sound
    and precise), and ``vc`` only methods Velodrome blames.  vc's
    default data-only edges may legitimately break the subset: through
    a synchronization edge Velodrome can close a cycle over the same
    region earlier and blame another method (eclipse6 at seeds 1 and
    23).  So when the subset fails, vc is re-run with synchronization
    edges; if that matches Velodrome the difference is only noted,
    otherwise it fails.  ``second`` is recorded but not checked:
    multi-run mode is unsound by design.
    """
    attempted = len(round_.outcomes)
    messages = [
        f"{config} on {case} raised"
        for (config, case), o in round_.outcomes.items()
        if o.error is not None
    ]
    for (config, case), o in round_.outcomes.items():
        if config not in ("single", "vc") or o.error is not None:
            continue
        referee = round_.outcomes.get(("velodrome", case))
        if referee is None or referee.error is not None:
            continue  # already counted against velodrome
        if config == "single" and o.blamed != referee.blamed:
            messages.append(
                f"single on {case} blamed {sorted(o.blamed)}, "
                f"velodrome {sorted(referee.blamed)}"
            )
        if config == "vc" and not o.blamed <= referee.blamed:
            outside = sorted(o.blamed - referee.blamed)
            synced = vc_sync_blamed(round_.cases[case], round_.seed)
            if synced == referee.blamed:
                print(f"perfbench: note: vc on {case} blamed {outside} outside "
                      "velodrome's set; with synchronization edges it "
                      "matches velodrome", file=sys.stderr)
            else:
                messages.append(
                    f"vc on {case} blamed {outside} outside velodrome's set, "
                    f"and with synchronization edges blamed {sorted(synced)} "
                    f"where velodrome blamed {sorted(referee.blamed)}"
                )
    return attempted, len(messages), messages


def counter_mismatches(untraced: Round, traced: Round) -> List[str]:
    """Name every counter or verdict the traced pass changed."""
    messages = []
    for key, plain in untraced.outcomes.items():
        other = traced.outcomes.get(key)
        if other is None:
            messages.append(f"{key}: missing from the traced pass")
            continue
        if plain.blamed != other.blamed:
            messages.append(f"{key}: blamed set differs under tracing")
        for name in sorted(set(plain.counters) | set(other.counters)):
            a, b = plain.counters.get(name), other.counters.get(name)
            if a != b:
                messages.append(f"{key} {name}: untraced {a}, traced {b}")
    return messages

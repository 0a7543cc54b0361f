"""Smoke test of the benchmark on shrunken workloads.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import configs, layers, run  # noqa: E402
from perfbench.configs import CONFIGS, run_round  # noqa: E402
from perfbench.workloads import cases, prepare  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")


def _catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    return {
        kind: {m["name"]: m["unit"] for m in doc[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("DOUBLECHECKER_")}


@pytest.fixture
def hermetic(monkeypatch):
    for name in list(os.environ):
        if name.startswith("DOUBLECHECKER_"):
            monkeypatch.delenv(name)


def test_traced_pass_on_shrunken_pcdheavy(hermetic, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    small = cases("pcdheavy", iterations=12)
    args = argparse.Namespace(workload="pcdheavy", seed=3, schedule=3)
    report = run.per_layer(args, small)
    assert report.problems == []
    assert report.failed == 0 and report.attempted == 2 * len(CONFIGS) * len(small)
    units = {name: m["unit"] for name, m in report.metrics.items()}
    assert units == _catalog()["per_layer"]
    assert report.metrics["single.pcd.components"]["value"] > 0
    from repro.core.icd import ICD

    assert not hasattr(ICD.on_access, "__wrapped__")  # seams restored

    from repro.obs.analyze import validate_trace

    with open(run.trace_path("pcdheavy", 3)) as handle:
        doc = json.load(handle)
    assert validate_trace(doc) == []
    names = {e["name"] for e in doc["traceEvents"]}
    assert {"single", "PCD.process", "Executor.run", "single:pcdheavy"} <= names


def test_end_to_end_on_shrunken_hubstress(hermetic):
    small = cases("hubstress", iterations=10)
    args = argparse.Namespace(workload="hubstress", seed=5, schedule=5,
                              seconds=0.0)
    report = run.end_to_end(args, small)
    assert report.problems == [] and report.failed == 0
    units = {name: m["unit"] for name, m in report.metrics.items()}
    assert units == _catalog()["end_to_end"]
    assert all(m["value"] > 0 for m in report.metrics.values())


def test_speed_normalization():
    from perfbench.speed import REFERENCE_PROBE_S, Sampler, Window

    half = Window(work=2.0, inverse=3 / (2 * REFERENCE_PROBE_S), probes=3)
    assert half.speed() == pytest.approx(0.5)
    assert half.seconds(fallback=9.0) == pytest.approx(1.0)
    assert Window(work=2.0).seconds(fallback=0.25) == 0.5  # no probe inside

    sampler = Sampler()
    sampler.install()
    try:
        mark = sampler.mark()
        started = time.perf_counter()
        while time.perf_counter() - started < 0.1:
            pass
        window = sampler.window(mark, time.perf_counter() - started)
    finally:
        sampler.uninstall()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert window.probes > 0 and 0 < window.work < 0.1
    assert sampler.mean_speed() > 0


def test_repetitions_fill_the_floor():
    small = cases("hubstress", iterations=4)
    round_ = run_round(prepare(small, ("baseline",)), 1, configs=("baseline",),
                       floor=60.0)
    assert len(round_.repetitions["baseline"]) == configs.MAX_REPETITIONS
    round_ = run_round(prepare(small, ("baseline",)), 1, configs=("baseline",),
                       repetitions=3)
    assert len(round_.repetitions["baseline"]) == 3
    assert round_.counter("baseline", "execution.steps") > 0


def test_a_raising_configuration_counts_as_failed(monkeypatch):
    real = configs._run

    def broken(config, *args):
        if config == "velodrome":
            raise RuntimeError("boom")
        return real(config, *args)

    monkeypatch.setattr(configs, "_run", broken)
    round_ = run_round(prepare(cases("hubstress", iterations=4), CONFIGS), 2)
    attempted, failed, messages = configs.verdict_failures(round_)
    assert (attempted, failed) == (len(CONFIGS), 1)
    assert messages == ["velodrome on hubstress raised"]


def test_verdict_relations(monkeypatch):
    def round_with(blamed):
        r = configs.Round(cases={"p": None})
        for config, methods in blamed.items():
            r.outcomes[(config, "p")] = configs.Outcome(1.0, blamed=frozenset(methods))
        return r

    synced = frozenset({"a"})
    monkeypatch.setattr(configs, "vc_sync_blamed", lambda case, seed: synced)
    ok = round_with({"single": {"a"}, "velodrome": {"a"}, "vc": {"b"}})
    assert configs.verdict_failures(ok)[:2] == (3, 0)  # data-only: a note
    synced = frozenset({"a", "b"})
    assert configs.verdict_failures(ok)[:2] == (3, 1)
    bad = round_with({"single": {"a", "c"}, "velodrome": {"a"}, "vc": set()})
    assert configs.verdict_failures(bad)[:2] == (3, 1)


def test_missing_seam_is_named(monkeypatch):
    monkeypatch.setattr(
        layers, "SEAMS",
        layers.SEAMS + (("pcd", "repro.core.pcd", "PCD.resume_replay"),),
    )
    tracer = layers.Tracer()
    with pytest.raises(layers.SeamMissing, match="repro.core.pcd.PCD.resume_replay"):
        tracer.install()
    assert tracer._patched == []  # nothing was wrapped


def test_refuses_doublechecker_variables():
    env = dict(_clean_env(), DOUBLECHECKER_SHARDS="2")
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "hubstress", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "DOUBLECHECKER_SHARDS" in done.stderr


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pcdheavy",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=_clean_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_pcdheavy_runs_one_schedule():
    from perfbench.workloads import scheduler_seed

    assert [scheduler_seed("pcdheavy", s) for s in (0, 7)] == [0, 0]
    assert scheduler_seed("paper-suite", 7) == 7

"""Tests of the benchmark harness itself (not of netmix).

    python3 -m pytest benchmarks/tests -q
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import layers
import workloads
from tracing import Patch, Span, Target, Tracer, self_times

import netmix.inference
from netmix.pg import polya_gamma

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 1),     # overlaps a: [1, 6] covered once
        Span("a.child", 2.0, 3.0, 1, 1),
        Span("late", 8.0, 12.0, 0, 1),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_tracer_nests_spans_and_keeps_run_ids():
    ticks = iter([0.0, 1.0, 1.5, 2.0, 5.0, 6.0, 6.5, 7.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    tracer.next_run()
    with tracer.span("outer"):
        pass
    assert [(s.name, s.parent, s.run) for s in tracer.spans] == [
        ("outer", -1, 0), ("inner", 0, 0), ("inner", 0, 0), ("outer", -1, 1)]
    assert self_times(tracer.spans)[0] == pytest.approx(6.0 - 0.5 - 3.0)


def test_timed_scales_by_the_mean_of_the_bracketing_references(monkeypatch):
    host = hostspeed.HostSpeed()
    refs = iter([0.02, 0.03])
    monkeypatch.setattr(host, "reference", lambda: next(refs))
    clock = iter([100.0, 100.0, 100.5])
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: next(clock))
    out, wall, nominal = host.timed(lambda x: x + 1, 1)
    assert (out, wall) == (2, 0.5)
    assert nominal == pytest.approx(0.5 * hostspeed.NOMINAL_S / 0.025)


def test_timed_reuses_a_fresh_reference_as_the_one_before():
    host = hostspeed.HostSpeed()
    host.reference()
    host.timed(lambda: None)
    assert len(host.samples) == 2


def test_metric_names_and_units_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert e2e == list(workloads.END_TO_END)
    assert per_layer == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [n for n, _ in e2e + per_layer]
    assert len(names) == len(set(names))
    for name, unit in e2e + per_layer:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


def test_missing_targets_are_reported_absent_and_originals_restored():
    original = netmix.inference.polya_gamma
    tracer = Tracer()
    patch = Patch(tracer, [
        Target("netmix.inference.polya_gamma", "pg.polya_gamma"),
        Target("netmix.inference.update_renamed_block", "x"),
        Target("netmix.core.MixtureParameters.no_such_method", "y"),
        Target("netmix.no_such_module.f", "z"),
    ])
    try:
        assert patch.installed == ["netmix.inference.polya_gamma"]
        assert patch.absent == ["netmix.inference.update_renamed_block",
                                "netmix.core.MixtureParameters.no_such_method",
                                "netmix.no_such_module.f"]
        assert netmix.inference.polya_gamma is not original
    finally:
        patch.restore()
    assert netmix.inference.polya_gamma is original


def test_wrappers_leave_results_and_rng_stream_unchanged():
    c = np.linspace(-3.0, 3.0, 50)
    expected = polya_gamma(c, np.random.default_rng(5))
    tracer = Tracer()
    patch = Patch(tracer, [t for t in layers.TARGETS if t.span == "pg.polya_gamma"])
    try:
        got = netmix.inference.polya_gamma(c, np.random.default_rng(5))
    finally:
        patch.restore()
    np.testing.assert_array_equal(got, expected)
    assert [(s.name, s.n) for s in tracer.spans] == [("pg.polya_gamma", 50)]


TINY_CHAIN = workloads.ChainWorkload("tiny", "shifted", V=6, H=2, R=2, n0=6, n1=6,
                                     n_iter=6, burn_in=2, thin=2, timing_iter=3,
                                     postfit_calls=1)
TINY_CLI = workloads.CliWorkload("tiny-cli", V=6, n0=4, n1=4, held_out_factor=2,
                                 n_iter=6, burn_in=2, thin=2, timing_iter=3,
                                 library_rounds=1, postfit_calls=1)


@pytest.mark.parametrize("spec", [TINY_CHAIN, TINY_CLI], ids=["chain", "cli"])
def test_tiny_smoke_run_traced_matches_untraced(spec, tmp_path):
    runs = {}
    for trace in (False, True):
        work = tmp_path / f"trace{int(trace)}"
        work.mkdir()
        runs[trace] = workloads.run_workload(spec, seed=3, seconds=0.01, trace=trace,
                                             work=work, src=ROOT / "src")
    plain, traced = runs[False], runs[True]
    assert plain.failed == traced.failed == 0, plain.problems + traced.problems
    assert set(plain.metrics) == {n for n, _ in workloads.END_TO_END}
    assert set(traced.metrics) == {n for n, _ in layers.PER_LAYER}
    assert all(v > 0 for v in plain.metrics.values())
    assert plain.digest is not None and plain.digest == traced.digest
    assert traced.absent == []
    assert traced.metrics["core.validations_per_sweep"] == 3.0
    assert traced.metrics["pg.entries_per_sweep"] == (
        (spec.n0 + spec.n1) * spec.V * (spec.V - 1) // 2)


def test_run_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "paper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

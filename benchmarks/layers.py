"""Which netmix functions the traced run wraps, and the per-layer metrics
derived from their spans.

Each target names the function where its caller looks it up, so the
wrapper sits on the boundary between two layers. Per-sweep figures count
only spans inside ``gibbs_sweep`` or the ``log_joint`` that ``run_chain``
evaluates after every sweep, so the chain's initial state does not blur
them.

Timings are the 10th percentile per call, which within one run holds
steadier than the median while the host changes speed, scaled to the
nominal host by the run's median reference (``hostspeed.py``), except
``core.similarities_ms`` and ``core.validate_ms`` (totals per sweep),
``dataio.artifacts_s`` (total per repetition) and
``cli.startup_s`` (interpreter start plus ``import netmix.cli``, once per
stage, summed). ``core.params_at_calls`` counts the draws rebuilt for one
test report plus one classify call (2K + K).

Which end-to-end metric each should move, and where:

    pg.*, inference.factors_ms        fit_ms_per_sweep, most on paper
    inference.{sweep,glue,assignments,z,weights,log_joint}_ms,
    priors.log_prior_ms, core.similarities_*, core.valid*
                                      fit_ms_per_sweep on acceptance
    core.params_at_calls, testing.*   test_report_s and classify_s,
                                      most on paper
    dataio.*                          pipeline_s on cli
    cli.*                             sum to pipeline_s on cli
"""
from __future__ import annotations

import os
import statistics

from tracing import Span, Target, self_times

__all__ = ["TARGETS", "PER_LAYER", "TIME_UNITS", "LOW_QUANTILE", "low_quantile",
           "per_layer_metrics"]


def _entries(args, kwargs, result):
    return int(result.size)


def _draws(args, kwargs, result):
    return int(args[0].n_draws)


def _archive_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


_ARTIFACT_WRITERS = ("save_test_report", "write_edge_table",
                     "write_degree_table", "write_difference_matrix",
                     "write_predictions", "save_classification")

TARGETS = (
    # the sweep and the blocks it calls, as gibbs_sweep and run_chain see them
    Target("netmix.inference.run_chain", "inference.run_chain"),
    Target("netmix.cli.run_chain", "inference.run_chain"),
    Target("netmix.inference.gibbs_sweep", "inference.gibbs_sweep"),
    Target("netmix.inference.update_assignments", "inference.update_assignments"),
    Target("netmix.inference.update_omega", "inference.update_omega"),
    Target("netmix.inference.update_Z", "inference.update_Z"),
    Target("netmix.inference.update_factors", "inference.update_factors"),
    Target("netmix.inference.update_weights_and_T", "inference.update_weights_and_T"),
    Target("netmix.inference.update_pY", "inference.update_pY"),
    Target("netmix.inference.log_joint", "inference.log_joint"),
    Target("netmix.inference.polya_gamma", "pg.polya_gamma", _entries),
    Target("netmix.inference.log_prior_density", "priors.log_prior_density"),
    Target("netmix.core.MixtureParameters.similarities", "core.similarities"),
    Target("netmix.core.MixtureParameters.__post_init__", "core.validate"),
    Target("netmix.inference.PosteriorDraws.params_at", "core.params_at"),
    # post-fit, as the harness and the CLI call it
    Target("netmix.testing.compute_test_report", "testing.compute_test_report"),
    Target("netmix.cli.compute_test_report", "testing.compute_test_report"),
    Target("netmix.testing.local_test", "testing.local_test"),
    Target("netmix.testing.edge_difference", "testing.edge_difference"),
    Target("netmix.testing.classify", "testing.classify", _draws),
    Target("netmix.cli.classify", "testing.classify", _draws),
    # files
    Target("netmix.dataio.load_dataset", "dataio.load_dataset"),
    Target("netmix.dataio.read_adjacency_file", "dataio.read_adjacency_file"),
    Target("netmix.dataio.write_dataset", "dataio.write_dataset"),
    Target("netmix.dataio.save_draws", "dataio.save_draws", _archive_bytes),
    Target("netmix.dataio.load_draws", "dataio.load_draws"),
    *(Target(f"netmix.dataio.{name}", "dataio.artifact") for name in _ARTIFACT_WRITERS),
)

CLI_STAGES = ("simulate", "fit", "test", "predict", "report")

# (name, unit); the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = (
    ("pg.draw_ms", "ms"),
    ("pg.entries_per_sweep", "count"),
    ("pg.ns_per_entry", "ns"),
    ("inference.sweep_ms", "ms"),
    ("inference.sweep_ms_p90", "ms"),
    ("inference.sweep_samples", "count"),
    ("inference.glue_ms", "ms"),
    ("inference.assignments_ms", "ms"),
    ("inference.omega_ms", "ms"),
    ("inference.z_ms", "ms"),
    ("inference.factors_ms", "ms"),
    ("inference.weights_ms", "ms"),
    ("inference.log_joint_ms", "ms"),
    ("priors.log_prior_ms", "ms"),
    ("core.similarities_calls_per_sweep", "count"),
    ("core.similarities_ms", "ms"),
    ("core.validations_per_sweep", "count"),
    ("core.validate_ms", "ms"),
    ("core.params_at_calls", "count"),
    ("testing.local_test_s", "s"),
    ("testing.edge_difference_s", "s"),
    ("testing.classify_ms_per_draw", "ms"),
    ("testing.draws", "count"),
    ("dataio.load_dataset_s", "s"),
    ("dataio.files_read", "count"),
    ("dataio.write_dataset_s", "s"),
    ("dataio.save_draws_s", "s"),
    ("dataio.load_draws_s", "s"),
    ("dataio.archive_bytes", "bytes"),
    ("dataio.artifacts_s", "s"),
    *((f"cli.{stage}_s", "s") for stage in ("startup",) + CLI_STAGES),
    ("trace.overhead_ms_per_sweep", "ms"),
    ("trace.absent_targets", "count"),
)

TIME_UNITS = ("s", "ms", "ns")

LOW_QUANTILE = 0.1


def low_quantile(values) -> float:
    """The LOW_QUANTILE quantile, interpolated between the samples; 0
    when there are none."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = LOW_QUANTILE * (len(values) - 1)
    i = int(pos)
    return values[i] + (values[min(i + 1, len(values) - 1)] - values[i]) * (pos - i)


def _p90(values) -> float:
    if len(values) < 10:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=10)[-1]


def per_layer_metrics(spans: list[Span], reps: int) -> dict:
    """Per-layer figures from the spans of ``reps`` traced repetitions, in
    wall time as measured.

    What spans cannot give (the CLI start-up time, the tracing overhead
    and the number of absent targets) the caller adds. Layers that a
    workload never calls read 0.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def durations(name, scale=1.0):
        return [spans[i].duration * scale for i in by_name.get(name, ())]

    n_sweeps = len(by_name.get("inference.gibbs_sweep", ()))
    # spans that belong to an iteration of the chain, not to its start
    in_sweep = [False] * len(spans)
    for i, span in enumerate(spans):
        p = span.parent
        in_sweep[i] = p >= 0 and (in_sweep[p] or spans[p].name in
                                  ("inference.gibbs_sweep", "inference.log_joint"))

    def in_sweeps(name):
        return [i for i in by_name.get(name, ()) if in_sweep[i]]

    def per_sweep(value):
        return value / n_sweeps if n_sweeps else 0.0

    def ms_per_sweep(idx):
        return per_sweep(sum(spans[i].duration for i in idx) * 1e3)

    sweep_ms = durations("inference.gibbs_sweep", 1e3)
    pg_idx = in_sweeps("pg.polya_gamma")
    pg_entries = sum(spans[i].n for i in pg_idx)
    pg_time = sum(spans[i].duration for i in pg_idx)
    sim_idx = in_sweeps("core.similarities")
    val_idx = in_sweeps("core.validate")
    classify = by_name.get("testing.classify", ())
    # every repetition pairs each test report with one classify call
    n_reports = len(by_name.get("testing.compute_test_report", ()))
    params_at = sum(1 for i in by_name.get("core.params_at", ())
                    if _has_ancestor(spans, i, ("testing.compute_test_report",
                                                "testing.classify")))
    archives = by_name.get("dataio.save_draws", ())

    m = {
        "pg.draw_ms": low_quantile([spans[i].duration * 1e3 for i in pg_idx]),
        "pg.entries_per_sweep": per_sweep(pg_entries),
        "pg.ns_per_entry": pg_time * 1e9 / pg_entries if pg_entries else 0.0,
        "inference.sweep_ms": low_quantile(sweep_ms),
        "inference.sweep_ms_p90": _p90(sweep_ms),
        "inference.sweep_samples": len(sweep_ms),
        "inference.glue_ms": low_quantile([selfs[i] * 1e3 for i in
                                           by_name.get("inference.gibbs_sweep", ())]),
        "inference.assignments_ms": low_quantile(durations("inference.update_assignments", 1e3)),
        "inference.omega_ms": low_quantile(durations("inference.update_omega", 1e3)),
        "inference.z_ms": low_quantile(durations("inference.update_Z", 1e3)),
        "inference.factors_ms": low_quantile(durations("inference.update_factors", 1e3)),
        "inference.weights_ms": low_quantile(durations("inference.update_weights_and_T", 1e3)),
        "inference.log_joint_ms": low_quantile(durations("inference.log_joint", 1e3)),
        "priors.log_prior_ms": low_quantile(durations("priors.log_prior_density", 1e3)),
        "core.similarities_calls_per_sweep": per_sweep(len(sim_idx)),
        "core.similarities_ms": ms_per_sweep(sim_idx),
        "core.validations_per_sweep": per_sweep(len(val_idx)),
        "core.validate_ms": ms_per_sweep(val_idx),
        "core.params_at_calls": params_at / n_reports if n_reports else 0.0,
        "testing.local_test_s": low_quantile(durations("testing.local_test")),
        "testing.edge_difference_s": low_quantile(durations("testing.edge_difference")),
        "testing.classify_ms_per_draw": low_quantile([spans[i].duration * 1e3 / spans[i].n
                                                 for i in classify]),
        "testing.draws": spans[classify[0]].n if classify else 0,
        "dataio.load_dataset_s": low_quantile(durations("dataio.load_dataset")),
        "dataio.files_read": len(by_name.get("dataio.read_adjacency_file", ())) / reps,
        "dataio.write_dataset_s": low_quantile(durations("dataio.write_dataset")),
        "dataio.save_draws_s": low_quantile(durations("dataio.save_draws")),
        "dataio.load_draws_s": low_quantile(durations("dataio.load_draws")),
        "dataio.archive_bytes": spans[archives[0]].n if archives else 0,
        "dataio.artifacts_s": sum(durations("dataio.artifact")) / reps,
    }
    for stage in CLI_STAGES:
        m[f"cli.{stage}_s"] = low_quantile(durations(f"cli.{stage}"))
    return m


def _has_ancestor(spans: list[Span], i: int, names) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False

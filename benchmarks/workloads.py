"""The three workloads: what each one sets up, repeats and checks.

``paper`` and ``acceptance`` run the in-process analysis a library user
runs: load the cohort from files, ``run_chain``, save and reload the draws
archive, then ``compute_test_report`` and ``classify`` on the kept draws.
``cli`` runs the file pipeline ``simulate -> fit -> test -> predict
--new-data -> report``, one ``netmix`` process per stage, one at a time,
for ``pipeline_s`` (each stage's median over the repetitions, summed).
Its ``fit_ms_per_sweep``, ``test_report_s`` and ``classify_s`` time the
library calls of the fit, test and predict stages (``run_chain``,
``compute_test_report``, ``classify`` on the held-out cohort) in-process,
on each repetition's files: a child process's time spreads by ~15% from
one to the next, which three repetitions in a run cannot average away,
while the pipeline's sum spreads by 6-13%.

Every program call is an operation. It fails when it raises, exits
non-zero, or its output fails a check; failures are counted, not fatal,
and the repetition they occur in is dropped.

Timing. The 2-core hosts this was tuned on change speed by up to 2x in
spells of seconds to minutes, so a run takes many samples of each
operation, scales each to a nominal host by a reference timed next to it
(``hostspeed.py``) and reports their median. In-process, every operation
is bracketed by the reference kernel, and the fit is timed on repeated
short chains of ``timing_iter`` sweeps next to one full checked chain.
``cli`` stages are child processes, so each repetition of the pipeline is
bracketed by the child reference instead.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

import layers
from hostspeed import NOMINAL_CHILD_S, HostSpeed
from tracing import Patch, Tracer

from netmix import cli, core, dataio, inference, synthetic, testing
from netmix.priors import HyperParameters

__all__ = ["ChainWorkload", "CliWorkload", "AcceptanceChecks", "WORKLOADS",
           "END_TO_END", "Outcome", "run_workload"]

# (name, unit); the order is the order of BENCHMARK.json's end_to_end list
END_TO_END = (
    ("setup_s", "s"),
    ("fit_ms_per_sweep", "ms"),
    ("test_report_s", "s"),
    ("classify_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
)

SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
_STAGE_TIMEOUT_S = 150


@dataclass(frozen=True)
class AcceptanceChecks:
    """Per-run thresholds, each no tighter than acceptance criteria 4-6."""

    min_pr_h1: float = 0.9
    min_recall: float = 0.7
    max_false_positives: int = 2
    min_auc: float = 0.9


@dataclass(frozen=True)
class ChainWorkload:
    name: str
    truth: str
    V: int
    H: int
    R: int
    n0: int
    n1: int
    n_iter: int
    burn_in: int
    thin: int
    timing_iter: int
    postfit_calls: int
    checks: AcceptanceChecks | None = None


@dataclass(frozen=True)
class CliWorkload:
    name: str
    V: int
    n0: int
    n1: int
    held_out_factor: int
    n_iter: int
    burn_in: int
    thin: int
    timing_iter: int
    library_rounds: int
    postfit_calls: int


WORKLOADS = {
    "paper": ChainWorkload("paper", "shifted", V=68, H=15, R=10, n0=57, n1=57,
                           n_iter=30, burn_in=10, thin=2, timing_iter=4,
                           postfit_calls=3),
    # the CLI default burn-in: from a prior draw a chain can need several
    # hundred sweeps to find the group split (one seed in ~80 at 200)
    "acceptance": ChainWorkload("acceptance", "clique", V=20, H=4, R=3, n0=20,
                                n1=20, n_iter=1200, burn_in=1000, thin=2,
                                timing_iter=20, postfit_calls=3,
                                checks=AcceptanceChecks()),
    "cli": CliWorkload("cli", V=68, n0=20, n1=20, held_out_factor=3,
                       n_iter=12, burn_in=4, thin=2, timing_iter=4,
                       library_rounds=3, postfit_calls=4),
}

_TRUTHS = {"shifted": synthetic.shifted_mixture_truth,
           "clique": synthetic.clique_difference_truth}


class RepFailed(Exception):
    """An operation failed; the rest of its repetition is skipped."""


class Tally:
    """Attempted and failed operations, with one line per failure; each
    operation is timed between two host-speed references."""

    def __init__(self, host: HostSpeed):
        self.host = host
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, label: str, fn, *args, check=None, scaled=True):
        """Run one operation; return (result, seconds on the nominal host),
        or its wall seconds as measured if not ``scaled``."""
        self.attempted += 1
        try:
            if scaled:
                out, _, elapsed = self.host.timed(fn, *args)
            else:
                t0 = time.perf_counter()
                out = fn(*args)
                elapsed = time.perf_counter() - t0
        except Exception as exc:
            self._fail(f"{label}: {type(exc).__name__}: {exc}")
            raise RepFailed(label) from exc
        problems = check(out) if check else []
        if problems:
            for p in problems:
                self._fail(f"{label}: {p}")
            raise RepFailed(label)
        return out, elapsed

    def _fail(self, line: str) -> None:
        self.failed += 1
        self.problems.append(line)


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    problems: list
    digest: str | None
    absent: list
    tracer: Tracer | None
    host: HostSpeed


# output checks -----------------------------------------------------------

def _unit_interval(name: str, values) -> list[str]:
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all() or (arr < 0).any() or (arr > 1).any():
        return [f"{name} not finite in [0, 1]"]
    return []


def _check_report(report, checks: AcceptanceChecks | None, truth) -> list[str]:
    out = _unit_interval("rho_exceed", report.rho_exceed)
    if report.pr_H1 is not None:
        out += _unit_interval("pr_H1", [report.pr_H1])
    if not np.isfinite(report.edge_diff).all() or (np.abs(report.edge_diff) > 1).any():
        out.append("edge_diff not finite in [-1, 1]")
    if checks is None or out:
        return out
    true = np.zeros(report.L, dtype=bool)
    true[truth.different_edges] = True
    sig = report.significant_edges
    recall = (sig & true).sum() / true.sum()
    false_pos = int((sig & ~true).sum())
    if report.pr_H1 is None or report.pr_H1 < checks.min_pr_h1:
        out.append(f"pr_H1={report.pr_H1} below {checks.min_pr_h1}")
    if recall < checks.min_recall:
        out.append(f"clique recall {recall:.2f} below {checks.min_recall}")
    if false_pos > checks.max_false_positives:
        out.append(f"{false_pos} false positives, more than "
                   f"{checks.max_false_positives}")
    return out


def _check_classify(result, checks: AcceptanceChecks | None) -> list[str]:
    out = _unit_interval("classify probabilities", result.probabilities)
    if checks is None or out:
        return out
    auc, _ = testing.evaluate_classifier(result)
    if auc < checks.min_auc:
        out.append(f"in-sample AUC {auc:.3f} below {checks.min_auc}")
    return out


def _check_draws(draws) -> list[str]:
    return (_unit_interval("pY1 draws", draws.pY1)
            + _unit_interval("nu draws", draws.nu))


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class _Same:
    """Every repetition of a run must reproduce the first one's value."""

    def __init__(self, what: str):
        self.what = what
        self.value = None

    def check(self, value) -> list[str]:
        if self.value is None:
            self.value = value
        return [] if value == self.value else [f"{self.what} differs between repetitions"]


def _same_draws(a, b) -> bool:
    return all(a.meta == b.meta if f.name == "meta"
               else np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in fields(inference.PosteriorDraws))


# measurement -------------------------------------------------------------

def _peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def _until(deadline: float, step, at_least: int = 1) -> None:
    """Call ``step(i)`` ``at_least`` times, then again while the next call
    is expected (from the last one) to end by ``deadline``."""
    i, last = 0, 0.0
    while i < at_least or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        with contextlib.suppress(RepFailed):
            step(i)
        last = time.perf_counter() - t0
        i += 1


class _Tracing:
    """The tracer of a traced run and the wrappers it installs on demand."""

    def __init__(self, enabled: bool):
        self.tracer = Tracer() if enabled else None
        self.absent: list[str] = []

    def wrapped(self):
        """Context in which every target is wrapped (a no-op untraced)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        self.tracer.next_run()
        return self._wrapped()

    @contextlib.contextmanager
    def _wrapped(self):
        patch = Patch(self.tracer, layers.TARGETS)
        self.absent = patch.absent
        try:
            yield
        finally:
            patch.restore()

    def metrics(self, reps: int, scale: float, overhead_ms: float,
                startup_s: float) -> dict:
        """Per-layer metrics; span times are scaled by ``scale`` to the
        nominal host, like the timed operations ``overhead_ms`` and
        ``startup_s`` already are."""
        units = dict(layers.PER_LAYER)
        m = layers.per_layer_metrics(self.tracer.spans, reps)
        m = {k: v * scale if units[k] in layers.TIME_UNITS else v for k, v in m.items()}
        m.update({"cli.startup_s": startup_s, "trace.overhead_ms_per_sweep": overhead_ms,
                  "trace.absent_targets": len(self.absent)})
        return m


def _setup_repeated(setup, tally: Tally, tracing: _Tracing):
    """Set up at least SETUP_MIN_REPEATS times and SETUP_MIN_SECONDS long
    (traced in a traced run); return the last result and the times."""
    times, value = [], None
    t0 = time.perf_counter()
    with tracing.wrapped():
        while (len(times) < SETUP_MIN_REPEATS
               or time.perf_counter() - t0 < SETUP_MIN_SECONDS):
            value, elapsed = tally.op("setup", setup)
            times.append(elapsed)
    return value, times


def _outcome(tally: Tally, tracing: _Tracing, digest: _Same, metrics: dict) -> Outcome:
    return Outcome(metrics, tally.attempted, tally.failed, tally.problems,
                   digest.value, tracing.absent, tracing.tracer, tally.host)


# in-process chain workloads ----------------------------------------------

def _run_chain_workload(spec: ChainWorkload, seed: int, seconds: float,
                        trace: bool, work: Path) -> Outcome:
    tally, tracing, digest = Tally(HostSpeed()), _Tracing(trace), _Same("draws archive sha256")
    hyper = HyperParameters(V=spec.V, H=spec.H, R=spec.R)
    config = inference.SamplerConfig(n_iter=spec.n_iter, burn_in=spec.burn_in,
                                     thin=spec.thin, seed=seed)
    timing = inference.SamplerConfig(n_iter=spec.timing_iter,
                                     burn_in=spec.timing_iter - 1, thin=1, seed=seed)
    timing_draws = _Same("timing chain draws")
    archive = work / "draws.bin"

    def setup():
        truth = _TRUTHS[spec.truth](spec.V, seed=seed)
        obs = core.sample_cohort(truth.params, spec.n0, spec.n1,
                                 np.random.default_rng([seed, 1]))
        checksum = inference.CohortData.from_observations(obs).checksum
        return truth, dataio.write_dataset(work / "cohort", obs), checksum

    try:
        (truth, manifest, checksum), setup_times = _setup_repeated(setup, tally, tracing)
    except RepFailed:
        return _outcome(tally, tracing, digest, {})

    def load():
        obs, _ = dataio.load_dataset(manifest)
        return inference.CohortData.from_observations(obs)

    def check_load(cohort):
        return [] if cohort.checksum == checksum else [
            "loaded cohort checksum differs from the generated one"]

    def archive_round_trip(draws):
        dataio.save_draws(draws, archive)
        return _sha256(archive), dataio.load_draws(archive), draws

    def check_archive(out):
        sha, loaded, draws = out
        return digest.check(sha) + ([] if _same_draws(loaded, draws)
                                    else ["archive round trip changed the draws"])

    def postfit(draws, cohort, times):
        for _ in range(spec.postfit_calls):
            times["test_report_s"].append(tally.op(
                "test_report", testing.compute_test_report, draws,
                check=lambda report: _check_report(report, spec.checks, truth))[1])
            times["classify_s"].append(tally.op(
                "classify", testing.classify, draws, cohort,
                check=lambda res: _check_classify(res, spec.checks))[1])

    def analysis(times):
        """The full checked analysis; returns its draws and cohort."""
        cohort, _ = tally.op("load", load, check=check_load)
        draws, fit_s = tally.op("fit", inference.run_chain, cohort, hyper, config,
                                check=_check_draws)
        times["full_fit_ms_per_sweep"].append(fit_s * 1e3 / spec.n_iter)
        tally.op("archive", archive_round_trip, draws, check=check_archive)
        postfit(draws, cohort, times)
        return draws, cohort

    times = {k: [] for k in ("full_fit_ms_per_sweep", "load_s", "fit_ms_per_sweep",
                             "archive_s", "test_report_s", "classify_s")}
    deadline = time.perf_counter() + seconds
    try:
        draws, cohort = analysis(times)
    except RepFailed:
        return _outcome(tally, tracing, digest, {})

    if trace:
        # the untraced analysis above is the reference for the digest and
        # the overhead; repeat it traced until the time is up
        traced = {k: [] for k in times}

        def traced_analysis(i):
            with tracing.wrapped():
                analysis(traced)

        _until(deadline, traced_analysis)
        reps = len(traced["full_fit_ms_per_sweep"])
        if not reps:
            return _outcome(tally, tracing, digest, {})
        overhead = (statistics.median(traced["full_fit_ms_per_sweep"])
                    - statistics.median(times["full_fit_ms_per_sweep"]))
        return _outcome(tally, tracing, digest, tracing.metrics(
            reps, tally.host.scale(), overhead, 0.0))

    def cycle(i):
        times["load_s"].append(tally.op("load", load, check=check_load)[1])
        _, fit_s = tally.op("fit", inference.run_chain, cohort, hyper, timing,
                            check=lambda d: _check_draws(d) + timing_draws.check(
                                d.log_joint_trace.tobytes()))
        times["fit_ms_per_sweep"].append(fit_s * 1e3 / spec.timing_iter)
        times["archive_s"].append(tally.op("archive", archive_round_trip, draws,
                                           check=check_archive)[1])
        postfit(draws, cohort, times)

    _until(deadline, cycle)
    if not times["fit_ms_per_sweep"]:
        return _outcome(tally, tracing, digest, {})
    med = {k: statistics.median(v) for k, v in times.items() if v}
    return _outcome(tally, tracing, digest, {
        "setup_s": statistics.median(setup_times),
        "fit_ms_per_sweep": med["fit_ms_per_sweep"],
        "test_report_s": med["test_report_s"],
        "classify_s": med["classify_s"],
        # one full analysis, assembled from its parts' medians
        "pipeline_s": (med["load_s"] + med["fit_ms_per_sweep"] * spec.n_iter / 1e3
                       + med["archive_s"] + med["test_report_s"] + med["classify_s"]),
        "peak_rss_mb": _peak_rss_mb(children=False),
    })


# the file pipeline ---------------------------------------------------------

_CLI_MAIN = "from netmix.cli import main; main()"
ARTIFACTS = {
    "cohort": ("manifest.csv", "truth.json"),
    "analysis": ("draws.bin", "test_report.json", "edges.csv", "degree.csv",
                 "difference_matrix.csv", "predictions.csv",
                 "classification.json", "report.md"),
}


def _check_artifacts(out: Path, n_subjects: int) -> list[str]:
    missing = [f"{sub}/{name}" for sub, names in ARTIFACTS.items()
               for name in names if not (out / sub / name).is_file()]
    if missing:
        return [f"missing artifacts {missing}"]
    problems = []
    if len(list((out / "cohort" / "networks").glob("*.csv"))) != n_subjects:
        problems.append("simulate wrote the wrong number of network files")
    report = json.loads((out / "analysis" / "test_report.json").read_text())
    problems += _unit_interval("rho_exceed", report["rho_exceed"])
    if report["pr_H1"] is not None:
        problems += _unit_interval("pr_H1", [report["pr_H1"]])
    with open(out / "analysis" / "predictions.csv", newline="") as fh:
        probs = [float(row["prob_group1"]) for row in csv.DictReader(fh)]
    problems += _unit_interval("predictions", probs)
    summary = json.loads((out / "analysis" / "classification.json").read_text())
    problems += _unit_interval("auc and accuracy", [summary["auc"], summary["accuracy"]])
    return problems


def _exit_ok(result) -> list[str]:
    code, err = result
    return [] if code == 0 else [f"exit code {code}: {err}"]


def _run_cli_workload(spec: CliWorkload, seed: int, seconds: float,
                      trace: bool, work: Path, src: Path) -> Outcome:
    tally, tracing, digest = Tally(HostSpeed()), _Tracing(trace), _Same("draws archive sha256")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    sim_cfg, fit_cfg = work / "sim.cfg", work / "fit.cfg"

    def setup():
        dataio.atomic_write_text(sim_cfg, f"scenario = shifted\nv = {spec.V}\n"
                                 f"n0 = {spec.n0}\nn1 = {spec.n1}\nseed = {seed}\n")
        dataio.atomic_write_text(fit_cfg, f"n_iter = {spec.n_iter}\nburn_in = "
                                 f"{spec.burn_in}\nthin = {spec.thin}\nseed = {seed}\n")
        # the same truth the simulate stage builds, sampled again for scoring
        truth = synthetic.shifted_mixture_truth(spec.V, seed=seed)
        held = core.sample_cohort(truth.params, spec.n0 * spec.held_out_factor,
                                  spec.n1 * spec.held_out_factor,
                                  np.random.default_rng([seed, 2]))
        inference.CohortData.from_observations(held)
        return dataio.write_dataset(work / "heldout", held)

    try:
        held_manifest, setup_times = _setup_repeated(setup, tally, tracing)
    except RepFailed:
        return _outcome(tally, tracing, digest, {})

    def stages(out: Path):
        cohort, analysis = out / "cohort", out / "analysis"
        manifest, draws = str(cohort / "manifest.csv"), str(analysis / "draws.bin")
        return (
            ("simulate", ["simulate", "--config", str(sim_cfg), "--out-dir", str(cohort)]),
            ("fit", ["fit", "--manifest", manifest, "--config", str(fit_cfg),
                     "--out-dir", str(analysis)]),
            ("test", ["test", "--archive", draws, "--out-dir", str(analysis)]),
            ("predict", ["predict", "--archive", draws, "--manifest", manifest,
                         "--new-data", str(held_manifest), "--out-dir", str(analysis)]),
            ("report", ["report", "--out-dir", str(analysis)]),
        )

    def in_subprocess(argv):
        proc = subprocess.run([sys.executable, "-c", _CLI_MAIN, *argv], env=env,
                              capture_output=True, text=True, timeout=_STAGE_TIMEOUT_S)
        return proc.returncode, proc.stderr.strip()[-300:]

    def in_process(argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.run_cli(argv)
        return code, sink.getvalue().strip()[-300:]

    def startup():
        proc = subprocess.run([sys.executable, "-c", "import netmix.cli"], env=env,
                              capture_output=True, timeout=_STAGE_TIMEOUT_S)
        return proc.returncode, proc.stderr.decode(errors="replace")[-300:]

    hyper = HyperParameters(V=spec.V)  # the CLI defaults, as fit.cfg leaves them
    timing = inference.SamplerConfig(n_iter=spec.timing_iter,
                                     burn_in=spec.timing_iter - 1, thin=1, seed=seed)
    timing_draws = _Same("timing chain draws")
    library = {"fit": [], "test": [], "predict": []}

    def load(manifest):
        return inference.CohortData.from_observations(dataio.load_dataset(manifest)[0])

    def library_rounds(out: Path):
        """The library calls of the fit, test and predict stages, on this
        repetition's files, in-process: they time steadier than the child
        processes do."""
        cohort = tally.op("load", load, out / "cohort" / "manifest.csv")[0]
        held = tally.op("load", load, held_manifest)[0]
        draws = tally.op("load draws", dataio.load_draws,
                         out / "analysis" / "draws.bin", check=_check_draws)[0]
        for _ in range(spec.library_rounds):
            library["fit"].append(tally.op(
                "fit", inference.run_chain, cohort, hyper, timing,
                check=lambda d: _check_draws(d) + timing_draws.check(
                    d.log_joint_trace.tobytes()))[1])
            for _ in range(spec.postfit_calls):
                library["test"].append(tally.op(
                    "test_report", testing.compute_test_report, draws,
                    check=lambda report: _check_report(report, None, None))[1])
                library["predict"].append(tally.op(
                    "classify", testing.classify, draws, held,
                    check=lambda res: _check_classify(res, None))[1])

    untraced, traced = [], []
    child_ref = []

    def child_reference():
        child_ref.append(tally.op("host reference", tally.host.child_reference,
                                  scaled=False)[0])

    def rep(i):
        # traced runs call run_cli in-process, so spans inside stages show;
        # their first repetition runs unwrapped as the digest reference.
        # Untraced, the stages are child processes, timed as measured and
        # scaled by the child references taken before and after them.
        wrap = trace and i > 0
        shutil.rmtree(work / f"rep{i - 1}", ignore_errors=True)
        out = work / f"rep{i}"
        times = {}
        if not trace and not child_ref:
            child_reference()

        def stage(name, argv):
            if not trace:
                return in_subprocess(argv)
            with tracing.tracer.span(f"cli.{name}") if wrap else contextlib.nullcontext():
                return in_process(argv)

        with tracing.wrapped() if wrap else contextlib.nullcontext():
            for name, argv in stages(out):
                _, times[name] = tally.op(name, stage, name, argv, check=_exit_ok,
                                          scaled=trace)
        if not trace:
            child_reference()
            scale = 2.0 * NOMINAL_CHILD_S / (child_ref[-2] + child_ref[-1])
            times = {name: t * scale for name, t in times.items()}
        tally.op("artifacts", _check_artifacts, out, spec.n0 + spec.n1,
                 check=lambda problems: problems)
        tally.op("determinism", _sha256, out / "analysis" / "draws.bin", check=digest.check)
        if not trace:
            library_rounds(out)
        if wrap:
            # each stage pays one interpreter start and netmix.cli import
            times["startup"] = sum(tally.op("startup", startup, check=_exit_ok)[1]
                                   for _ in stages(out))
        (traced if wrap else untraced).append(times)

    deadline = time.perf_counter() + seconds
    # untraced, a repetition takes ~13 s and its stages spread by ~15%
    # each; three give each stage a median
    _until(deadline, rep, at_least=2 if trace else 3)
    if trace and untraced and not traced:
        _until(deadline, lambda i: rep(i + 1))
    if not (traced if trace else untraced):
        return _outcome(tally, tracing, digest, {})
    if trace:
        overhead = ((statistics.median([t["fit"] for t in traced])
                     - statistics.median([u["fit"] for u in untraced]))
                    * 1e3 / spec.n_iter if untraced else 0.0)
        return _outcome(tally, tracing, digest, tracing.metrics(
            len(traced), tally.host.scale(), overhead,
            statistics.median([t["startup"] for t in traced])))
    return _outcome(tally, tracing, digest, {
        "setup_s": statistics.median(setup_times),
        "fit_ms_per_sweep": statistics.median(library["fit"]) * 1e3 / spec.timing_iter,
        "test_report_s": statistics.median(library["test"]),
        "classify_s": statistics.median(library["predict"]),
        # each stage's median over the repetitions, summed: one stage's
        # outlier in a repetition does not move it
        "pipeline_s": sum(statistics.median(rec[name] for rec in untraced)
                          for name, _ in stages(work)),
        "peak_rss_mb": _peak_rss_mb(children=True),
    })


def run_workload(spec, seed: int, seconds: float, trace: bool, work: Path,
                 src: Path) -> Outcome:
    """Set up, repeat for ``seconds`` and check one workload."""
    if isinstance(spec, CliWorkload):
        return _run_cli_workload(spec, seed, seconds, trace, work, src)
    return _run_chain_workload(spec, seed, seconds, trace, work)

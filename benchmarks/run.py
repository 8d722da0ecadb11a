"""netmix benchmark: one workload per process, metrics on the last line.

    python3 benchmarks/run.py --workload paper --seed 1 --seconds 30 --trace 0

Run from the root of a source tree that has ``src/netmix``; nothing needs
installing, since the harness puts ``src`` first on the import path (and
on ``PYTHONPATH`` for the CLI stages it starts). It sets the workload up
from ``--seed``, repeats it for ``--seconds`` and checks every output.

``--trace 0`` prints the end-to-end metrics: medians of many timed
samples, each scaled to a nominal host speed by a reference kernel timed
around it (see ``hostspeed.py``).
``--trace 1`` wraps the public functions of each layer, records spans and
prints the per-layer metrics instead; see ``layers.py``. Both print the
metrics by name and unit, the machine facts and the sha256 of the draws
archive before the last line, which is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``failed / attempted`` is
the fail ratio. A copy of the result, with the spans of a traced run, is
written under ``.netmix_bench/results/``.

The exit code is 0 with a result, even when checks failed (the result
says so), and non-zero without one: when the tree has no netmix sources
or no repetition of the workload completed.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".netmix_bench"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_netmix():
    """Import netmix from this tree's ``src``, never from anywhere else."""
    if not (SRC / "netmix" / "__init__.py").is_file():
        raise SystemExit(f"error: no netmix sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import netmix
    if Path(netmix.__file__).resolve().parent != (SRC / "netmix").resolve():
        raise SystemExit(f"error: netmix imported from {netmix.__file__}, not {SRC}")


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_facts() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_netmix()
    sys.path.insert(0, str(BENCH_DIR))
    import hostspeed
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")
    spec = workloads.WORKLOADS[args.workload]
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.run_workload(spec, args.seed, args.seconds,
                                         bool(args.trace), work, SRC)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in outcome.problems:
        print(f"failed: {line}", file=sys.stderr)
    if not outcome.metrics:
        print(f"error: no repetition of {args.workload} completed", file=sys.stderr)
        return 1

    units = dict(layers.PER_LAYER if args.trace else workloads.END_TO_END)
    metrics = {name: {"value": float(outcome.metrics[name]), "unit": unit}
               for name, unit in units.items()}
    reference_s = outcome.host.reference_s()
    facts = machine_facts()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "draws_sha256": outcome.digest,
        "absent_targets": outcome.absent, "problems": outcome.problems,
        "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics,
        "host_reference_s": reference_s, "host_nominal_s": hostspeed.NOMINAL_S,
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if outcome.tracer is not None:
        outcome.tracer.write(results / f"{stem}.spans.jsonl")

    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"{'host_reference_ms':36s} {reference_s * 1e3:.4g} (median here; times above "
          f"are scaled to {hostspeed.NOMINAL_S * 1e3:.4g} ms)")
    print(f"{'fail_ratio':36s} {outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed}/{outcome.attempted} operations)")
    for path in outcome.absent:
        print(f"absent: {path}")
    print(f"draws sha256: {outcome.digest}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

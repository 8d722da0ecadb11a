"""Whole workflows run as separate processes: the CLI, the README's
library quick start and CLI walkthrough, and the study scripts.

At V=68 with 114 subjects the PG draws of a sweep span several blocks,
so the CLI runs cover the multi-block sampler end to end. Every process
runs with numeric warnings as errors.
"""
import csv
import filecmp
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import netmix

ARTIFACTS = ("draws.bin", "draws.csv", "test_report.json", "edges.csv",
             "degree.csv", "difference_matrix.csv", "predictions.csv",
             "classification.json", "report.md")

# the first node name holds a comma and a double quote, so tables must quote it
NODE_NAME = 'pre, "central"'


REPO = Path(__file__).resolve().parents[1]


def _run(cwd, *args) -> str:
    """Run args in cwd with numeric warnings as errors and this netmix
    first on the import path; returns the standard output."""
    src = str(Path(netmix.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning",
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(args, cwd=cwd, env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _python(cwd, *args):
    _run(cwd, sys.executable, *args)


def _netmix(cwd, module, *args):
    _python(cwd, "-m", module, *args)


def _analyse(cwd, module, out):
    """Fit the simulated cohort, then test, predict and report into out."""
    _netmix(cwd, module, "fit", "--manifest", "cohort/manifest.csv",
            "--config", "fit.cfg", "--format", "csv", "--out-dir", out)
    _netmix(cwd, module, "test", "--archive", f"{out}/draws.bin",
            "--metadata", "nodes.csv", "--out-dir", out)
    _netmix(cwd, module, "predict", "--archive", f"{out}/draws.bin",
            "--manifest", "cohort/manifest.csv", "--out-dir", out)
    _netmix(cwd, module, "report", "--out-dir", out)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A V=68 cohort of 57 + 57 subjects analysed twice: run a through
    `python -m netmix`, run b through `python -m netmix.cli`."""
    work = tmp_path_factory.mktemp("workflow")
    (work / "sim.cfg").write_text("scenario = shifted\nv = 68\nn0 = 57\nn1 = 57\n")
    (work / "fit.cfg").write_text("n_iter = 12\nburn_in = 2\nthin = 2\n")
    with open(work / "nodes.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "hemisphere", "lobe"])
        writer.writerow([NODE_NAME, "L", "frontal"])
        writer.writerows([f"region{v}", "LR"[v % 2], f"lobe{v % 5}"]
                         for v in range(2, 69))
    _netmix(work, "netmix", "simulate", "--config", "sim.cfg",
            "--out-dir", "cohort")
    _analyse(work, "netmix", "a")
    _analyse(work, "netmix.cli", "b")
    return work


def test_both_entry_points_write_the_same_bytes(runs):
    for name in ARTIFACTS:
        assert filecmp.cmp(runs / "a" / name, runs / "b" / name,
                           shallow=False), name


def test_edge_lists_fit_to_the_same_archive(runs):
    # the same cohort as V=<n> edge lists: equal ids, labels and edges give
    # an equal checksum and so an equal archive
    lists = runs / "edge_lists"
    lists.mkdir()
    with open(runs / "cohort" / "manifest.csv", newline="") as fh:
        subjects = list(csv.reader(fh))[1:]
    manifest = ["subject_id,label,path"]
    for sid, label, path in subjects:
        with open(runs / "cohort" / path, newline="") as fh:
            A = list(csv.reader(fh))
        edges = [f"{v + 1},{u + 1}" for v in range(len(A)) for u in range(v)
                 if A[v][u] == "1"]
        (lists / f"{sid}.txt").write_text("\n".join([f"V={len(A)}", *edges]) + "\n")
        manifest.append(f"{sid},{label},{sid}.txt")
    (lists / "manifest.csv").write_text("\n".join(manifest) + "\n")
    _netmix(runs, "netmix", "fit", "--manifest", "edge_lists/manifest.csv",
            "--config", "fit.cfg", "--out-dir", "c")
    assert filecmp.cmp(runs / "a" / "draws.bin", runs / "c" / "draws.bin",
                       shallow=False)


@pytest.mark.parametrize("table", ["edges.csv", "degree.csv"])
def test_tables_quote_the_node_name(runs, table):
    with open(runs / "a" / table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert {len(row) for row in rows} == {len(rows[0])}
    assert NODE_NAME in rows[1]


def test_readme_library_quick_start_runs(tmp_path):
    # the first python block after the README's "Library quick start"
    block = re.search(r"^## Library quick start.*?^```python\n(.*?)^```",
                      (REPO / "README.md").read_text(), re.M | re.S)
    assert block and block.group(1).strip()
    (tmp_path / "quickstart.py").write_text(block.group(1))
    _python(tmp_path, "quickstart.py")


def test_readme_cli_walkthrough(tmp_path):
    # the first bash block after the README's "CLI walkthrough", with each
    # netmix call run as `python -m netmix`; its summary lines must be the
    # ones the block shows in its "# simulate: ..." comments
    block = re.search(r"^## CLI walkthrough.*?^```bash\n(.*?)^```",
                      (REPO / "README.md").read_text(), re.M | re.S)
    assert block
    script = re.sub(r"^netmix ", f"{shlex.quote(sys.executable)} -m netmix ",
                    block.group(1), flags=re.M)
    summary = re.compile(r"(simulate|fit|test|predict): ")
    expected = [line[2:] for line in script.splitlines()
                if line.startswith("# ") and summary.match(line[2:])]
    assert len(expected) == 4
    (tmp_path / "walkthrough.sh").write_text(script)
    printed = _run(tmp_path, "bash", "-euo", "pipefail", "walkthrough.sh")
    assert [line for line in printed.splitlines()
            if summary.match(line)] == expected
    assert re.search(r"^## Classification",
                     (tmp_path / "analysis" / "report.md").read_text(), re.M)


# tiny sizes, a few seconds in all: the scripts call classify,
# compute_test_report and fisher_baseline, and no other test imports them
_STUDY_FLAGS = ["--h", "2", "--r", "1", "--n-iter", "30", "--burn-in", "10",
                "--thin", "2"]


@pytest.mark.parametrize("script,flags", [
    ("global_power_study.py", ["--v", "8", "--shifts", "0.8", "--sizes", "6",
                               "--reps", "1"]),
    ("local_power_study.py", ["--v", "8", "--clique-size", "3", "--reps", "1",
                              "--n-per-group", "6"]),
    ("classification_study.py", ["--v", "8", "--reps", "1",
                                 "--n-per-group", "8"]),
], ids=["global", "local", "classification"])
def test_study_script_smoke_run(tmp_path, script, flags):
    _python(tmp_path, str(REPO / "scripts" / script), "--out",
            str(tmp_path / "out"), *flags, *_STUDY_FLAGS)

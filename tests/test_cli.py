"""End-to-end command line workflow on temporary directories."""
import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import netmix
from netmix.cli import run_cli
from netmix.dataio import load_dataset, load_draws, load_test_report, write_dataset
from netmix.inference import CohortData

SIM_CONFIG = """\
scenario = clique
v = 6
n0 = 7
n1 = 7
clique_size = 3
low = 0.15
high = 0.85
seed = 2
"""

FIT_CONFIG = """\
h = 2
r = 1
n_iter = 60
burn_in = 20
thin = 2
seed = 5
"""

METADATA_6 = ("name,hemisphere,lobe\n"
              + "".join(f"n{v},{'L' if v % 2 else 'R'},lobe{v}\n"
                        for v in range(1, 7)))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulated cohort fit once, with test and predict artifacts all
    in a single analysis directory."""
    root = tmp_path_factory.mktemp("cli")
    sim_cfg = root / "sim.cfg"
    sim_cfg.write_text(SIM_CONFIG)
    fit_cfg = root / "fit.cfg"
    fit_cfg.write_text(FIT_CONFIG)
    sim = root / "sim"
    analysis = root / "analysis"
    assert run_cli(["simulate", "--config", str(sim_cfg),
                    "--out-dir", str(sim)]) == 0
    manifest = sim / "manifest.csv"
    assert run_cli(["fit", "--manifest", str(manifest),
                    "--config", str(fit_cfg),
                    "--out-dir", str(analysis)]) == 0
    archive = analysis / "draws.bin"
    assert run_cli(["test", "--archive", str(archive),
                    "--manifest", str(manifest),
                    "--out-dir", str(analysis)]) == 0
    assert run_cli(["predict", "--archive", str(archive),
                    "--manifest", str(manifest),
                    "--out-dir", str(analysis)]) == 0
    return {"root": root, "sim": sim, "manifest": manifest,
            "analysis": analysis, "archive": archive,
            "sim_cfg": sim_cfg, "fit_cfg": fit_cfg}


# ----------------------------------------------------------- simulate


def test_simulate_outputs(workspace):
    sim = workspace["sim"]
    truth = json.loads((sim / "truth.json").read_text())
    assert truth["scenario"] == "clique"
    assert truth["seed"] == 2
    assert truth["options"] == {"clique_size": 3, "low": 0.15, "high": 0.85}
    # edge indices are reported 1-based: clique {1,2,3} spans edges
    # (2,1), (3,1), (3,2)
    assert truth["different_edges"] == [1, 2, 6]
    assert len(truth["pi0"]) == 15 and len(truth["pi1"]) == 15
    assert "params" in truth
    networks = list((sim / "networks").glob("*.csv"))
    assert len(networks) == 14
    obs, manifest = load_dataset(workspace["manifest"])
    assert manifest.V == 6
    assert sum(o.label for o in obs) == 7


def test_simulate_prior_scenario(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("scenario = prior\nv = 4\nn0 = 2\nn1 = 3\n"
                   "h = 2\nr = 1\nseed = 0\n")
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "out")]) == 0
    assert "simulate: wrote 5 subjects (V=4)" in capsys.readouterr().out
    truth = json.loads((tmp_path / "out" / "truth.json").read_text())
    assert "params" in truth and "different_edges" not in truth


def test_simulate_deterministic_and_seed_flag(tmp_path, workspace):
    for name in ("a", "b"):
        assert run_cli(["simulate", "--config", str(workspace["sim_cfg"]),
                        "--out-dir", str(tmp_path / name)]) == 0
    for rel in ("truth.json", "manifest.csv"):
        assert ((tmp_path / "a" / rel).read_bytes()
                == (tmp_path / "b" / rel).read_bytes())
    nets = sorted(p.name for p in (tmp_path / "a" / "networks").iterdir())
    assert ((tmp_path / "a" / "networks" / nets[0]).read_bytes()
            == (tmp_path / "b" / "networks" / nets[0]).read_bytes())
    assert run_cli(["simulate", "--config", str(workspace["sim_cfg"]),
                    "--seed", "9", "--out-dir", str(tmp_path / "c")]) == 0
    assert json.loads((tmp_path / "c" / "truth.json").read_text())["seed"] == 9
    assert ((tmp_path / "c" / "truth.json").read_bytes()
            != (tmp_path / "a" / "truth.json").read_bytes())


def test_simulate_requires_scenario_keys(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("scenario = shifted\nv = 4\n")
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n0" in err


@pytest.mark.parametrize("text, message", [
    ("scenario = clique\nv = 6\nn0 = 3\nn1 = 3\nclique_size = 9\n",
     "clique_size must lie in 2..V"),
    ("scenario = shifted\nv = 4\nn0 = -2\nn1 = 3\n", "need n0, n1 >= 0"),
    ("scenario = shifted\nv = 4\nn0 = 0\nn1 = 0\n", "need n0, n1 >= 0"),
    ("scenario = shifted\nv = 1\nn0 = 2\nn1 = 3\n", "need at least 2 nodes"),
    ("scenario = rank1\nv = 4\nn0 = 2\nn1 = 3\nshare = 1.5\n",
     "share must lie in [0, 1], got 1.5"),
    ("scenario = prior\nv = 4\nn0 = 2\nn1 = 3\nz_var = inf\n",
     "'z_var' must be finite"),
    ("scenario = shifted\nv = 4\nn0 = 2\nn1 = 3\nseed = -2\n",
     "seed must be a non-negative integer, got -2"),
], ids=["clique_size", "negative_n0", "no_subjects", "one_node", "share",
        "z_var_inf", "negative_seed"])
def test_simulate_bad_scenario_options(tmp_path, capsys, text, message):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(text)
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert len(err.splitlines()) == 1


def test_simulate_unknown_scenario(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("scenario = banana\nv = 4\nn0 = 2\nn1 = 3\n")
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "scenario must be one of" in err and "'banana'" in err
    assert not out.exists()


PRIOR_CONFIG = "scenario = prior\nv = 4\nn0 = 2\nn1 = 3\n"


@pytest.mark.parametrize("command, text, key", [
    ("fit", FIT_CONFIG + "shift = 0.5\n", "shift"),
    ("fit", FIT_CONFIG + "scenario = clique\n", "scenario"),
    ("fit", FIT_CONFIG + "n0 = 7\n", "n0"),
    ("simulate", SIM_CONFIG + "shift = 0.5\n", "shift"),
    ("simulate", SIM_CONFIG + "h = 2\n", "h"),
    ("simulate", SIM_CONFIG + "n_iter = 10\n", "n_iter"),
    ("simulate", PRIOR_CONFIG + "shift = 0.5\n", "shift"),
], ids=["fit_shift", "fit_scenario", "fit_n0", "clique_shift", "clique_h",
        "clique_n_iter", "prior_shift"])
def test_config_key_the_command_does_not_read_is_named(
        workspace, tmp_path, capsys, command, text, key):
    cfg = tmp_path / "extra.cfg"
    cfg.write_text(text)
    if command == "simulate":
        argv = ["simulate", "--config", str(cfg)]
    else:
        argv = ["fit", "--manifest", str(workspace["manifest"]),
                "--config", str(cfg)]
    out = tmp_path / "out"
    assert run_cli(argv + ["--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"key {key!r}" in err
    assert not out.exists()


# ---------------------------------------------------------------- fit


@pytest.mark.parametrize("command, config, flag, bad", [
    ("simulate", None, "-3", -3),
    ("fit", None, "-3", -3),
    ("fit", "seed = -2\n", None, -2),
], ids=["simulate_flag", "fit_flag", "fit_config"])
def test_negative_seed_is_named(workspace, tmp_path, capsys, command, config,
                                flag, bad):
    if command == "simulate":
        argv = ["simulate", "--config", str(workspace["sim_cfg"])]
    else:
        argv = ["fit", "--manifest", str(workspace["manifest"])]
    if config is not None:
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    if flag is not None:
        argv += ["--seed", flag]
    assert run_cli(argv + ["--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: seed must be a non-negative integer, got {bad}\n"
    assert not (tmp_path / "out").exists()


def test_fit_archive_contents(workspace):
    draws = load_draws(workspace["archive"])
    assert draws.n_draws == 20
    assert draws.meta["V"] == 6 and draws.meta["n"] == 14
    assert draws.meta["H"] == 2 and draws.meta["R"] == 1
    assert draws.meta["sampler"]["seed"] == 5
    obs, _ = load_dataset(workspace["manifest"])
    assert CohortData.from_observations(obs).checksum \
        == draws.meta["data_checksum"]


def test_fit_deterministic_bytes(workspace, tmp_path):
    assert run_cli(["fit", "--manifest", str(workspace["manifest"]),
                    "--config", str(workspace["fit_cfg"]),
                    "--out-dir", str(tmp_path)]) == 0
    assert ((tmp_path / "draws.bin").read_bytes()
            == workspace["archive"].read_bytes())


def test_fit_csv_format_and_message(workspace, tmp_path, capsys):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("h = 2\nr = 1\nn_iter = 24\nburn_in = 20\nthin = 2\n")
    assert run_cli(["fit", "--manifest", str(workspace["manifest"]),
                    "--config", str(cfg), "--format", "csv",
                    "--out-dir", str(tmp_path / "out")]) == 0
    assert "fit: n=14 V=6 kept 2 draws" in capsys.readouterr().out
    lines = (tmp_path / "out" / "draws.csv").read_text().splitlines()
    assert lines[0] == "draw,pY1,T,nu0_1,nu0_2,nu1_1,nu1_2,lam_1_1,lam_2_1"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert 0.0 < float(first[1]) < 1.0
    assert first[2] in ("0", "1")


def test_fit_huge_node_count_is_one_line_error(workspace, tmp_path, capsys):
    # V=3e9 needs a 4.5e18-entry edge vector, which cannot be allocated
    (tmp_path / "huge.txt").write_text("V=3000000000\n2,1\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("subject_id,label,path\ns1,0,huge.txt\n")
    assert run_cli(["fit", "--manifest", str(manifest),
                    "--config", str(workspace["fit_cfg"]),
                    "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "huge.txt: V=3000000000 is too large" in err
    assert len(err.splitlines()) == 1


def test_fit_bad_config(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    assert run_cli(["fit", "--manifest", str(workspace["manifest"]),
                    "--config", str(bad),
                    "--out-dir", str(tmp_path / "out")]) == 1
    assert "unknown config key" in capsys.readouterr().err
    mismatch = tmp_path / "v.cfg"
    mismatch.write_text("v = 5\nh = 2\nr = 1\n"
                        "n_iter = 22\nburn_in = 20\nthin = 1\n")
    assert run_cli(["fit", "--manifest", str(workspace["manifest"]),
                    "--config", str(mismatch),
                    "--out-dir", str(tmp_path / "out")]) == 1
    assert "config says v=5 but the data has V=6" in capsys.readouterr().err
    inf = tmp_path / "inf.cfg"
    inf.write_text("h = 2\nr = 1\nmig_a2 = inf\n"
                   "n_iter = 22\nburn_in = 20\nthin = 1\n")
    assert run_cli(["fit", "--manifest", str(workspace["manifest"]),
                    "--config", str(inf),
                    "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'mig_a2' must be finite" in err
    assert len(err.splitlines()) == 1


def test_fit_underflowing_weights_is_one_line_error(workspace, tmp_path,
                                                    capsys):
    cfg = tmp_path / "tiny_conc.cfg"
    cfg.write_text("h = 3\nr = 2\ndirichlet_conc = 1e-8\n"
                   "n_iter = 60\nburn_in = 10\nthin = 2\nseed = 3\n")
    out = tmp_path / "out"
    assert run_cli(["fit", "--manifest", str(workspace["manifest"]),
                    "--config", str(cfg), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: log joint is") and "sweep 1 " in err
    assert "dirichlet_conc=1e-08" in err
    assert len(err.splitlines()) == 1
    assert not (out / "draws.bin").exists()


@pytest.mark.parametrize("shape,value", [
    ("mig_a2 = 1e100", "0.0"),  # theta_2..5 ~ 1e100: lambda_5 underflows
    ("mig_a1 = 1e-30", "inf"),  # theta_1 is drawn as 0
])
def test_fit_lambda_out_of_float_range_is_one_line_error(workspace, tmp_path,
                                                         capsys, shape, value):
    cfg = tmp_path / "extreme_shape.cfg"
    cfg.write_text(f"h = 3\nr = 5\n{shape}\n"
                   "n_iter = 4\nburn_in = 1\nthin = 1\nseed = 0\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["fit", "--manifest", str(workspace["manifest"]),
                        "--config", str(cfg), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lambda of factor component index ")
    assert f" is {value} at column index " in err and "mig_a1/mig_a2" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_fit_overflowing_shrinkage_rate_is_one_line_error(workspace, tmp_path,
                                                          capsys):
    # theta_2, theta_3 ~ Gamma(1e155, 1): their product, a factor of the
    # theta scan's rate, overflows while every lambda stays finite
    cfg = tmp_path / "huge_mig_a2.cfg"
    cfg.write_text("h = 2\nr = 3\nmig_a1 = 0.1\nmig_a2 = 1e155\n"
                   "n_iter = 4\nburn_in = 1\nthin = 1\nseed = 0\n")
    out = tmp_path / "out"
    assert run_cli(["fit", "--manifest", str(workspace["manifest"]),
                    "--config", str(cfg), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: shrinkage rate of factor component index ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


# --------------------------------------------------------------- test


def test_test_artifacts(workspace):
    analysis = workspace["analysis"]
    report = load_test_report(analysis / "test_report.json")
    assert report.pr_H1 is not None and 0.0 <= report.pr_H1 <= 1.0
    assert report.L == 15
    assert report.epsilon == 0.1 and report.decision_cutoff == 0.95
    assert len((analysis / "edges.csv").read_text().splitlines()) == 16
    assert len((analysis / "degree.csv").read_text().splitlines()) == 7
    assert len((analysis / "difference_matrix.csv").read_text().splitlines()) == 6


def test_test_epsilon_cutoff_flags(workspace, tmp_path):
    out = tmp_path / "out"
    assert run_cli(["test", "--archive", str(workspace["archive"]),
                    "--epsilon", "0.25", "--cutoff", "0.5",
                    "--out-dir", str(out)]) == 0
    report = load_test_report(out / "test_report.json")
    assert report.epsilon == 0.25 and report.decision_cutoff == 0.5


def test_test_checksum_mismatch_writes_nothing(workspace, tmp_path, capsys):
    other = tmp_path / "other"
    assert run_cli(["simulate", "--config", str(workspace["sim_cfg"]),
                    "--seed", "9", "--out-dir", str(other)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli(["test", "--archive", str(workspace["archive"]),
                    "--manifest", str(other / "manifest.csv"),
                    "--out-dir", str(out)]) == 1
    assert "does not match" in capsys.readouterr().err
    assert not (out / "test_report.json").exists()
    assert not out.exists() or list(out.iterdir()) == []


def test_test_metadata_columns(workspace, tmp_path, capsys):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text(METADATA_6)
    out = tmp_path / "out"
    assert run_cli(["test", "--archive", str(workspace["archive"]),
                    "--metadata", str(nodes), "--out-dir", str(out)]) == 0
    assert (out / "edges.csv").read_text().splitlines()[0].endswith(
        ",v_name,u_name")
    assert (out / "degree.csv").read_text().splitlines()[0] \
        == "node,name,hemisphere,lobe,degree"
    short = tmp_path / "short.csv"
    short.write_text("name,hemisphere,lobe\nn1,L,x\n")
    assert run_cli(["test", "--archive", str(workspace["archive"]),
                    "--metadata", str(short),
                    "--out-dir", str(tmp_path / "out2")]) == 1
    assert "fitted model has V=6" in capsys.readouterr().err


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_quoted_names_and_ids_round_trip(workspace, tmp_path):
    """Node names and subject ids holding a comma or a quote come back
    whole from every table, each row at header width."""
    name, lobe = 'pre, "central"', 'front,al "x"'
    nodes = tmp_path / "nodes.csv"
    nodes.write_text(METADATA_6.replace("n1,L,lobe1",
                                        '"pre, ""central""",L,"front,al ""x"""'))
    out = tmp_path / "out"
    assert run_cli(["test", "--archive", str(workspace["archive"]),
                    "--metadata", str(nodes), "--out-dir", str(out)]) == 0
    edges, degree = _csv_rows(out / "edges.csv"), _csv_rows(out / "degree.csv")
    for table in (edges, degree):
        assert {len(row) for row in table} == {len(table[0])}
    assert edges[1][-2:] == ["n2", name]
    assert degree[1][1:4] == [name, "L", lobe]

    observations, _ = load_dataset(workspace["manifest"])
    observations[0] = replace(observations[0], subject_id="x,1")
    held = write_dataset(tmp_path / "held", observations)
    loaded, manifest = load_dataset(held)
    assert [o.subject_id for o in loaded] == [o.subject_id for o in observations]
    assert manifest.subjects[0][2] == "networks/x,1.csv"
    assert run_cli(["predict", "--archive", str(workspace["archive"]),
                    "--manifest", str(workspace["manifest"]),
                    "--new-data", str(held), "--out-dir", str(out)]) == 0
    predictions = _csv_rows(out / "predictions.csv")
    assert {len(row) for row in predictions} == {4}
    assert predictions[1][:2] == ["x,1", str(loaded[0].label)]


# ------------------------------------------------------------ predict


def test_predict_in_sample(workspace):
    analysis = workspace["analysis"]
    lines = (analysis / "predictions.csv").read_text().splitlines()
    assert lines[0] == "subject_id,label,prob_group1,predicted"
    assert len(lines) == 15
    clf = json.loads((analysis / "classification.json").read_text())
    assert clf["n_subjects"] == 14 and clf["threshold"] == 0.5
    assert 0.0 <= clf["auc"] <= 1.0 and 0.0 <= clf["accuracy"] <= 1.0


def test_predict_mismatch_needs_new_data(workspace, tmp_path, capsys):
    other = tmp_path / "other"
    assert run_cli(["simulate", "--config", str(workspace["sim_cfg"]),
                    "--seed", "11", "--out-dir", str(other)]) == 0
    capsys.readouterr()
    assert run_cli(["predict", "--archive", str(workspace["archive"]),
                    "--manifest", str(other / "manifest.csv"),
                    "--out-dir", str(tmp_path / "out")]) == 1
    assert "--new-data" in capsys.readouterr().err
    assert run_cli(["predict", "--archive", str(workspace["archive"]),
                    "--manifest", str(workspace["manifest"]),
                    "--new-data", str(other / "manifest.csv"),
                    "--out-dir", str(tmp_path / "out")]) == 0
    clf = json.loads((tmp_path / "out" / "classification.json").read_text())
    assert clf["n_subjects"] == 14


def test_predict_checks_manifest_with_new_data(workspace, tmp_path, capsys):
    other = tmp_path / "other"
    assert run_cli(["simulate", "--config", str(workspace["sim_cfg"]),
                    "--seed", "11", "--out-dir", str(other)]) == 0
    capsys.readouterr()
    assert run_cli(["predict", "--archive", str(workspace["archive"]),
                    "--manifest", str(other / "manifest.csv"),
                    "--new-data", str(other / "manifest.csv"),
                    "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "does not match" in err
    assert not (tmp_path / "out" / "predictions.csv").exists()


def test_predict_single_group_writes_null_auc(workspace, tmp_path, capsys):
    # held-out subjects all from group 0: every probability is defined and
    # written, the AUC is not, as test's pr_H1 on a single-group fit
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("scenario = clique\nv = 6\nn0 = 4\nn1 = 0\n"
                   "clique_size = 3\nseed = 3\n")
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "single")]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli(["predict", "--archive", str(workspace["archive"]),
                    "--manifest", str(workspace["manifest"]),
                    "--new-data", str(tmp_path / "single" / "manifest.csv"),
                    "--out-dir", str(out)]) == 0
    assert " AUC=n/a accuracy=" in capsys.readouterr().out
    predictions = _csv_rows(out / "predictions.csv")
    assert len(predictions) == 5 and {row[1] for row in predictions[1:]} == {"0"}
    assert all(0.0 <= float(row[2]) <= 1.0 for row in predictions[1:])
    clf = json.loads((out / "classification.json").read_text())
    assert clf["auc"] is None and clf["n_subjects"] == 4
    assert 0.0 <= clf["accuracy"] <= 1.0
    assert run_cli(["report", "--out-dir", str(out)]) == 0
    text = (out / "report.md").read_text()
    assert "- AUC: not available (single-group cohort)" in text


@pytest.mark.parametrize("flags, message", [
    (["--epsilon", "1.5"], "epsilon must lie in (0, 1), got 1.5"),
    (["--cutoff", "0"], "cutoff must lie in (0, 1), got 0.0"),
], ids=["epsilon", "cutoff"])
def test_test_bad_threshold_is_one_line_error(workspace, tmp_path, capsys,
                                              flags, message):
    out = tmp_path / "out"
    assert run_cli(["test", "--archive", str(workspace["archive"]), *flags,
                    "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_predict_new_data_node_count_mismatch(workspace, tmp_path, capsys):
    cfg = tmp_path / "sim5.cfg"
    cfg.write_text("scenario = clique\nv = 5\nn0 = 3\nn1 = 3\n"
                   "clique_size = 3\nseed = 1\n")
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "five")]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli(["predict", "--archive", str(workspace["archive"]),
                    "--manifest", str(workspace["manifest"]),
                    "--new-data", str(tmp_path / "five" / "manifest.csv"),
                    "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == ("error: cohort node count does not "
                                       "match the fitted draws\n")
    assert not out.exists()


# ------------------------------------------------------------- report


def test_report_all_sections(workspace):
    analysis = workspace["analysis"]
    assert run_cli(["report", "--out-dir", str(analysis)]) == 0
    text = (analysis / "report.md").read_text()
    assert text.startswith("# Cohort analysis summary")
    assert "## Fit" in text
    assert "## Group comparison" in text
    assert "## Classification" in text
    assert "flagged edges:" in text


def test_report_empty_directory(tmp_path):
    out = tmp_path / "nothing"
    out.mkdir()
    assert run_cli(["report", "--out-dir", str(out)]) == 0
    assert "No artifacts found." in (out / "report.md").read_text()


def test_report_missing_named_archive(tmp_path, capsys):
    # only the default out-dir/draws.bin may be absent
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(["report", "--out-dir", str(out),
                    "--archive", str(tmp_path / "missing.bin")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "missing.bin" in err
    assert not (out / "report.md").exists()


@pytest.mark.parametrize("payload", [
    "[1,2]", '{"n_subjects": 3}',
    '{"auc": NaN, "accuracy": 0.5, "n_subjects": 3}',
    '{"auc": 0.5, "accuracy": Infinity, "n_subjects": 3}',
    '{"auc": 0.5, "accuracy": 0.5, "n_subjects": -3}',
], ids=["list", "no-auc", "nan-auc", "inf-accuracy", "negative-n"])
def test_report_malformed_classification(workspace, tmp_path, capsys, payload):
    out = tmp_path / "out"
    out.mkdir()
    (out / "classification.json").write_text(payload)
    assert run_cli(["report", "--out-dir", str(out),
                    "--archive", str(workspace["archive"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "classification.json" in err
    assert not (out / "report.md").exists()


@pytest.mark.parametrize("key", ["rho_exceed", "edge_diff"])
def test_report_non_finite_test_report(workspace, tmp_path, capsys, key):
    # json reads NaN, which no range check written as (x < 0) | (x > 1) sees
    payload = json.loads((workspace["analysis"] / "test_report.json").read_text())
    payload[key][0] = float("nan")
    out = tmp_path / "out"
    out.mkdir()
    (out / "test_report.json").write_text(json.dumps(payload))
    assert run_cli(["report", "--out-dir", str(out),
                    "--archive", str(workspace["archive"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "test_report.json" in err
    assert not (out / "report.md").exists()


def test_report_failed_rename_leaves_no_temp_file(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "report.md").mkdir(parents=True)
    assert run_cli(["report", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == ["report.md"]


# ------------------------------------------------------ unreadable inputs

NOT_UTF8 = b"\xff\xfe\x00subject_id\x81\n"


def _binary_file(tmp_path):
    path = tmp_path / "binary.dat"
    path.write_bytes(NOT_UTF8)
    return str(path)


def _manifest_to_binary_network(tmp_path):
    (tmp_path / "manifest.csv").write_text(
        "subject_id,label,path\ns1,0,binary.dat\n")
    _binary_file(tmp_path)
    return str(tmp_path / "manifest.csv")


def _report_dir_with_binary_test_report(tmp_path):
    (tmp_path / "test_report.json").write_bytes(NOT_UTF8)
    return str(tmp_path)


@pytest.mark.parametrize("argv", [
    lambda w, t: ["fit", "--manifest", _binary_file(t),
                  "--out-dir", str(t / "out")],
    lambda w, t: ["fit", "--manifest", str(w["manifest"]),
                  "--config", _binary_file(t), "--out-dir", str(t / "out")],
    lambda w, t: ["fit", "--manifest", _manifest_to_binary_network(t),
                  "--out-dir", str(t / "out")],
    lambda w, t: ["test", "--archive", str(w["archive"]),
                  "--metadata", _binary_file(t), "--out-dir", str(t / "out")],
    lambda w, t: ["report", "--out-dir", _report_dir_with_binary_test_report(t),
                  "--archive", str(w["archive"])],
], ids=["manifest", "config", "adjacency", "metadata", "test-report"])
def test_non_utf8_input_is_one_line_error(workspace, tmp_path, capsys, argv):
    assert run_cli(argv(workspace, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "not UTF-8" in err
    assert not (tmp_path / "out").exists()


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        run_cli([])


def _source_env():
    """Environment whose PYTHONPATH puts this netmix first."""
    src = str(Path(netmix.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("module", ["netmix", "netmix.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG)
    argv = [sys.executable, "-m", module, "simulate", "--config", str(cfg)]
    ok = subprocess.run(argv + ["--out-dir", str(tmp_path / "sim")],
                        env=_source_env(), capture_output=True, text=True)
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "sim" / "manifest.csv").is_file()
    bad = subprocess.run(argv + ["--out-dir", str(tmp_path / "bad"),
                                 "--no-such-flag"],
                         env=_source_env(), capture_output=True, text=True)
    assert bad.returncode != 0 and "--no-such-flag" in bad.stderr
    assert not (tmp_path / "bad").exists()


_SCIPY_FREE_COMMANDS = """\
import sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import netmix
assert not scipy_modules(), scipy_modules()
from netmix.cli import run_cli
assert not scipy_modules(), scipy_modules()
root, archive, manifest, fit_cfg = map(Path, sys.argv[1:])
(root / "sim.cfg").write_text("scenario = shifted\\nv = 6\\nn0 = 3\\nn1 = 3\\n")
new = str(root / "new" / "manifest.csv")
out = str(root / "out")
for argv in (
        ["simulate", "--config", str(root / "sim.cfg"),
         "--out-dir", str(root / "new")],
        ["test", "--archive", str(archive), "--out-dir", out],
        ["predict", "--archive", str(archive), "--manifest", str(manifest),
         "--new-data", new, "--out-dir", out],
        ["report", "--out-dir", out, "--archive", str(archive)]):
    assert run_cli(argv) == 0, argv
    assert not scipy_modules(), (argv[0], scipy_modules())
assert run_cli(["fit", "--manifest", new, "--config", str(fit_cfg),
                "--out-dir", str(root / "fit")]) == 0
assert "scipy.special" in sys.modules
"""


def test_cli_commands_other_than_fit_load_no_scipy(workspace, tmp_path):
    # importing scipy.special takes a few hundred milliseconds and
    # scipy.stats most of a second; only fit (PG draws, prior densities)
    # and the Fisher baseline need them, so simulate, test, predict and
    # report run without scipy, here all in one fresh interpreter
    run = subprocess.run([sys.executable, "-c", _SCIPY_FREE_COMMANDS,
                          str(tmp_path), str(workspace["archive"]),
                          str(workspace["manifest"]), str(workspace["fit_cfg"])],
                         env=_source_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr

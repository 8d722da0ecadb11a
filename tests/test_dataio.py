"""File formats: adjacency files, manifests, config, archives, artifacts."""
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from netmix.cli import run_cli
from netmix.core import NetworkObservation
from netmix.dataio import (ArchiveError, ConfigError, DataFormatError,
                           NodeMetadata, atomic_write_text,
                           load_classification, load_dataset, load_draws,
                           load_draws_meta, load_node_metadata,
                           load_test_report, parse_config, read_adjacency_file,
                           render_report, save_classification, save_draws,
                           save_test_report, write_dataset, write_degree_table,
                           write_difference_matrix, write_edge_table,
                           write_predictions)
from netmix.inference import PosteriorDraws
from netmix.testing import ClassificationResult, TestReport

# ----------------------------------------------------------- helpers


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _small_draws(seed=0):
    rng = np.random.default_rng(seed)
    return PosteriorDraws(
        Z=rng.standard_normal((2, 6)),
        X=rng.standard_normal((2, 2, 4, 1)),
        lam=np.abs(rng.standard_normal((2, 2, 1))),
        theta=np.abs(rng.standard_normal((2, 2, 1))) + 0.5,
        nu=np.full((2, 2, 2), 0.5),
        pY1=np.array([0.4, 0.6]),
        T=np.array([0, 1], dtype=np.int8),
        assignments=np.array([[0, 1, 0], [1, 1, 0]], dtype=np.int32),
        log_joint_trace=rng.standard_normal(5),
        meta={"V": 4, "H": 2, "single_group": False,
              "subject_ids": ["a", "b", "c"]})


def _report():
    return TestReport(pr_H1=0.9, rho_exceed=np.array([0.97, 0.2, 0.99]),
                      epsilon=0.1, edge_diff=np.array([0.5, -0.25, 0.125]),
                      significant_edges=np.array([True, False, True]),
                      decision_cutoff=0.95)


METADATA_TEXT = ("name,hemisphere,lobe\n"
                 "n1,L,frontal\n"
                 "n2,R,parietal\n"
                 "n3,other,occipital\n")


# --------------------------------------------------- adjacency files


def test_dense_matrix_round_values(tmp_path):
    path = _write(tmp_path, "a.csv", "0,1,0,0\n1,0,0,1\n0,0,0,0\n0,1,0,0\n")
    edges = read_adjacency_file(path)
    # (2,1) is edge 1 and (4,2) is edge 5
    assert np.array_equal(edges, [1, 0, 0, 0, 1, 0])


def test_dense_diagonal_ignored(tmp_path):
    path = _write(tmp_path, "a.csv", "1,0\n0,1\n")
    assert np.array_equal(read_adjacency_file(path), [0])


def test_dense_bad_entry_names_position(tmp_path):
    path = _write(tmp_path, "a.csv", "0,1,0\n1,0,2\n0,2,0\n")
    with pytest.raises(DataFormatError, match=r"entry 2 at row 2, column 3"):
        read_adjacency_file(path)


def test_dense_non_integer_entry(tmp_path):
    path = _write(tmp_path, "a.csv", "0,1\nx,0\n")
    with pytest.raises(DataFormatError, match="non-integer entry in row 2"):
        read_adjacency_file(path)


def test_dense_ragged_row(tmp_path):
    path = _write(tmp_path, "a.csv", "0,1\n1,0,0\n")
    with pytest.raises(DataFormatError, match="row 2 has 3 columns"):
        read_adjacency_file(path)


def test_dense_asymmetric(tmp_path):
    path = _write(tmp_path, "a.csv", "0,1\n0,0\n")
    with pytest.raises(DataFormatError, match="symmetric"):
        read_adjacency_file(path)


def test_dense_too_small(tmp_path):
    path = _write(tmp_path, "a.csv", "0\n")
    with pytest.raises(DataFormatError):
        read_adjacency_file(path)


def test_edge_list_round_values(tmp_path):
    path = _write(tmp_path, "a.txt",
                  "# comment\nV=4\n2,1\n4,3  # inline comment\n")
    assert np.array_equal(read_adjacency_file(path), [1, 0, 0, 0, 0, 1])


def test_edge_list_accepts_either_order(tmp_path):
    forward = read_adjacency_file(_write(tmp_path, "f.txt", "V=4\n3,1\n"))
    backward = read_adjacency_file(_write(tmp_path, "b.txt", "v = 4\n1,3\n"))
    assert np.array_equal(forward, backward)
    assert forward[1] == 1


def test_edge_list_duplicates_are_idempotent(tmp_path):
    path = _write(tmp_path, "a.txt", "V=3\n2,1\n1,2\n2,1\n")
    assert np.array_equal(read_adjacency_file(path), [1, 0, 0])


def test_edge_list_errors(tmp_path):
    cases = [
        ("V=x\n", "malformed node count"),
        ("V=1\n", "at least 2 nodes"),
        ("V=3\n1,2,3\n", "expected 'v,u'"),
        ("V=3\na,b\n", "non-integer node"),
        ("V=3\n1,4\n", r"\(1, 4\) invalid for V=3"),
        ("V=3\n2,2\n", r"\(2, 2\) invalid"),
    ]
    for i, (text, pattern) in enumerate(cases):
        path = _write(tmp_path, f"bad{i}.txt", text)
        with pytest.raises(DataFormatError, match=pattern):
            read_adjacency_file(path)


def test_empty_and_missing_adjacency(tmp_path):
    path = _write(tmp_path, "a.csv", "# nothing here\n")
    with pytest.raises(DataFormatError, match="empty"):
        read_adjacency_file(path)
    with pytest.raises(DataFormatError):
        read_adjacency_file(tmp_path / "absent.csv")


# ------------------------------------------------- dataset round trip


def _toy_observations():
    rng = np.random.default_rng(0)
    obs = []
    for i in range(5):
        edges = (rng.random(6) < 0.5).astype(np.int8)
        obs.append(NetworkObservation(edges=edges, label=i % 2,
                                      subject_id=f"sub{i:02d}"))
    return obs


def test_write_then_load_dataset(tmp_path):
    obs = _toy_observations()
    manifest_path = write_dataset(tmp_path / "data", obs)
    assert manifest_path == tmp_path / "data" / "manifest.csv"
    loaded, manifest = load_dataset(manifest_path)
    assert manifest.V == 4
    assert [o.subject_id for o in loaded] == [o.subject_id for o in obs]
    assert [o.label for o in loaded] == [o.label for o in obs]
    for a, b in zip(loaded, obs):
        assert np.array_equal(a.edges, b.edges)
    assert (tmp_path / "data" / "networks" / "sub00.csv").exists()


def test_write_dataset_keeps_files_inside_out_dir(tmp_path):
    obs = _toy_observations()
    nested = [replace(obs[0], subject_id="site1/sub01"), *obs[1:]]
    loaded, _ = load_dataset(write_dataset(tmp_path / "ok", nested))
    assert loaded[0].subject_id == "site1/sub01"
    assert (tmp_path / "ok" / "networks" / "site1" / "sub01.csv").exists()
    for sid in ("../../../escaped", "a/../b", ""):
        out = tmp_path / "deep" / "er" / "out"
        with pytest.raises(DataFormatError, match="empty or has a '..' component"):
            write_dataset(out, [*obs, replace(obs[0], subject_id=sid)])
        assert not (tmp_path / "deep").exists()


def test_load_node_metadata(tmp_path):
    meta = load_node_metadata(_write(tmp_path, "nodes.csv",
                                     "name,hemisphere,lobe\n"
                                     "a,L,x\nb,R,x\nc,L,y\nd,R,y\n"))
    assert len(meta) == 4
    assert meta[0] == NodeMetadata("a", "L", "x")


def test_load_dataset_errors(tmp_path):
    net = "0,1\n1,0\n"
    (tmp_path / "n.csv").write_text(net)
    cases = [
        ("id,label,path\ns1,0,n.csv\n", "expected header"),
        ("subject_id,label,path\ns1,2,n.csv\n", "must be 0 or 1"),
        ("subject_id,label,path\ns1,0,n.csv\ns1,1,n.csv\n", "duplicate"),
        ("subject_id,label,path\ns1,0\n", "malformed row"),
        ("subject_id,label,path\n", "no subjects"),
        ("subject_id,label,path\ns1,0,absent.csv\n", "absent.csv"),
        ("subject_id,label,path\n" + "x" * 200_000 + ",0,n.csv\n",
         "line 2: field larger than field limit"),
    ]
    for i, (text, pattern) in enumerate(cases):
        manifest = _write(tmp_path, f"m{i}.csv", text)
        with pytest.raises(DataFormatError, match=pattern):
            load_dataset(manifest)


def test_load_dataset_mixed_node_counts(tmp_path):
    (tmp_path / "a.csv").write_text("0,1\n1,0\n")
    (tmp_path / "b.csv").write_text("0,1,0\n1,0,0\n0,0,0\n")
    manifest = _write(tmp_path, "m.csv",
                      "subject_id,label,path\ns1,0,a.csv\ns2,1,b.csv\n")
    with pytest.raises(DataFormatError, match="3 nodes, others have 2"):
        load_dataset(manifest)


def test_load_node_metadata_errors(tmp_path):
    with pytest.raises(DataFormatError, match="expected header"):
        load_node_metadata(_write(tmp_path, "a.csv", "name,side,lobe\n"))
    with pytest.raises(DataFormatError, match="hemisphere"):
        load_node_metadata(_write(tmp_path, "b.csv",
                                  "name,hemisphere,lobe\nn1,X,f\n"))
    with pytest.raises(DataFormatError, match="malformed row"):
        load_node_metadata(_write(tmp_path, "c.csv",
                                  "name,hemisphere,lobe\nn1,L\n"))
    with pytest.raises(DataFormatError, match="no node rows"):
        load_node_metadata(_write(tmp_path, "d.csv", "name,hemisphere,lobe\n"))


# ------------------------------------------------------------- config


def test_parse_config_types(tmp_path):
    path = _write(tmp_path, "cfg.txt",
                  "# sampler\n"
                  "V = 20\n"
                  "n_iter = 500\n"
                  "mig_a2 = 4.5\n"
                  "scenario = shifted  # synthetic family\n")
    cfg = parse_config(path)
    assert cfg == {"v": 20, "n_iter": 500, "mig_a2": 4.5,
                   "scenario": "shifted"}
    assert isinstance(cfg["v"], int) and isinstance(cfg["mig_a2"], float)


def test_parse_config_errors(tmp_path):
    cases = [
        ("volume = 3\n", "unknown config key"),
        ("v = 3\nv = 4\n", "duplicate config key"),
        ("v = 3.5\n", "bad value"),
        ("mig_a2 = abc\n", "bad value"),
        ("just some words\n", "expected 'key = value'"),
        ("record_pi = true\n", "unknown config key"),
        ("scenario = banana\n", "scenario must be one of"),
        ("a0 = nan\n", "'a0' must be finite"),
        ("z_var = inf\n", "'z_var' must be finite"),
        ("dirichlet_conc = -inf\n", "'dirichlet_conc' must be finite"),
        ("shift = NaN\n", "'shift' must be finite"),
    ]
    for i, (text, pattern) in enumerate(cases):
        with pytest.raises(ConfigError, match=pattern):
            parse_config(_write(tmp_path, f"cfg{i}.txt", text))


def test_parse_config_empty_is_empty(tmp_path):
    assert parse_config(_write(tmp_path, "e.txt", "# only comments\n")) == {}


# ------------------------------------------------------ draws archive


def test_draws_round_trip(tmp_path):
    draws = _small_draws()
    path = tmp_path / "draws.bin"
    save_draws(draws, path)
    loaded = load_draws(path)
    for name in ("Z", "X", "lam", "theta", "nu", "pY1", "T", "assignments",
                 "log_joint_trace"):
        a, b = getattr(draws, name), getattr(loaded, name)
        assert np.array_equal(a, b), name
        assert a.dtype == b.dtype, name
    assert loaded.meta == draws.meta
    assert loaded.n_draws == 2


def test_draws_archive_is_byte_stable(tmp_path):
    draws = _small_draws()
    save_draws(draws, tmp_path / "a.bin")
    save_draws(draws, tmp_path / "b.bin")
    blob_a = (tmp_path / "a.bin").read_bytes()
    assert blob_a == (tmp_path / "b.bin").read_bytes()
    # meta key insertion order must not matter
    reordered = _small_draws()
    reordered.meta = dict(reversed(list(draws.meta.items())))
    save_draws(reordered, tmp_path / "c.bin")
    assert blob_a == (tmp_path / "c.bin").read_bytes()
    assert blob_a.startswith(b"NMXDRAWS")


def _valid_blob(tmp_path):
    path = tmp_path / "good.bin"
    save_draws(_small_draws(), path)
    return path.read_bytes()


def _expect_archive_error(tmp_path, blob, pattern):
    path = tmp_path / "bad.bin"
    path.write_bytes(blob)
    with pytest.raises(ArchiveError, match=pattern):
        load_draws(path)


def test_draws_archive_corruption(tmp_path):
    blob = _valid_blob(tmp_path)
    _expect_archive_error(tmp_path, b"NOPE", "not a draws archive")
    _expect_archive_error(tmp_path, b"X" * 64, "not a draws archive")
    _expect_archive_error(
        tmp_path, blob[:8] + np.uint32(2).tobytes() + blob[12:],
        "unsupported archive version 2")
    _expect_archive_error(
        tmp_path, blob[:12] + np.uint64(10**9).tobytes() + blob[20:],
        "truncated archive header")
    _expect_archive_error(tmp_path, blob[:20] + b"\xff" + blob[21:],
                          "corrupt archive header")
    _expect_archive_error(tmp_path, blob[:-4], "truncated array")
    _expect_archive_error(tmp_path, blob + b"\x00", "trailing bytes")
    with pytest.raises(ArchiveError):
        load_draws(tmp_path / "never_written.bin")


def test_draws_archive_rejects_unexpected_contents(tmp_path):
    blob = _valid_blob(tmp_path)
    hlen = int(np.frombuffer(blob, np.uint64, 1, 12)[0])
    header = json.loads(blob[20:20 + hlen].decode("utf-8"))
    header["arrays"][0]["name"] = "bogus"
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    forged = blob[:12] + np.uint64(len(hb)).tobytes() + hb + blob[20 + hlen:]
    _expect_archive_error(tmp_path, forged, "unexpected archive contents")


def _forged(tmp_path, edit):
    """A valid archive whose JSON header is replaced by edit(header)."""
    blob = _valid_blob(tmp_path)
    hlen = int(np.frombuffer(blob, np.uint64, 1, 12)[0])
    hb = json.dumps(edit(json.loads(blob[20:20 + hlen]))).encode()
    return blob[:12] + np.uint64(len(hb)).tobytes() + hb + blob[20 + hlen:]


def _edit_array(name, **changes):
    def edit(header):
        spec = next(s for s in header["arrays"] if s["name"] == name)
        spec.update(changes)
        return header
    return edit


def _zero_draws(tmp_path):
    d = _small_draws()
    empty = PosteriorDraws(meta=d.meta, **{
        name: getattr(d, name)[:0] for name in
        ("Z", "X", "lam", "theta", "nu", "pY1", "T", "assignments",
         "log_joint_trace")})
    save_draws(empty, tmp_path / "empty.bin")
    return (tmp_path / "empty.bin").read_bytes()


@pytest.mark.parametrize("make,pattern", [
    (lambda t: _forged(t, lambda h: h["arrays"]), "'arrays' list"),
    (lambda t: _forged(t, lambda h: {"arrays": h["arrays"]}), "'meta' object"),
    (lambda t: _forged(t, lambda h: {"meta": h["meta"]}), "'arrays' list"),
    (lambda t: _forged(t, _edit_array("Z", dtype="zz")), "bad dtype"),
    (lambda t: _forged(t, _edit_array("Z", dtype="|O")), "bad dtype"),
    (lambda t: _forged(t, _edit_array("Z", shape=[-2, -6])), "bad dtype or shape"),
    (lambda t: _forged(t, _edit_array("Z", shape=[2.0, 6])), "bad dtype or shape"),
    (lambda t: _forged(t, _edit_array("Z", shape=[3, 4])), "'Z' has shape"),
    (lambda t: _forged(t, _edit_array("assignments", shape=[3, 2])),
     "'assignments' has shape"),
    (lambda t: _forged(t, lambda h: {**h, "meta": {**h["meta"], "V": 5}}),
     r"meta \{'V': 5\} disagrees"),
    (_zero_draws, "at least one draw"),
    (lambda t: _valid_blob(t)[:-4], "truncated array"),
], ids=["list-header", "no-meta", "no-arrays", "dtype-zz", "dtype-object",
        "negative-shape", "float-shape", "Z-shape", "assignments-shape", "meta-V",
        "zero-draws", "truncated"])
def test_draws_archive_rejects_malformed_header(tmp_path, capsys, make, pattern):
    _expect_archive_error(tmp_path, make(tmp_path), pattern)
    with pytest.raises(ArchiveError, match=pattern):
        load_draws_meta(tmp_path / "bad.bin")
    # the command line reports it as one line, with no traceback
    for command in ("test", "report"):
        assert run_cli([command, "--archive", str(tmp_path / "bad.bin"),
                        "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert re.search(pattern, err)
        assert not (tmp_path / "out").exists()


# -------------------------------------------------------- test report


def test_report_round_trip(tmp_path):
    report = _report()
    path = tmp_path / "report.json"
    save_test_report(report, path)
    loaded = load_test_report(path)
    assert loaded.pr_H1 == report.pr_H1
    assert loaded.epsilon == report.epsilon
    assert loaded.decision_cutoff == report.decision_cutoff
    assert np.array_equal(loaded.rho_exceed, report.rho_exceed)
    assert np.array_equal(loaded.edge_diff, report.edge_diff)
    assert np.array_equal(loaded.significant_edges, report.significant_edges)
    save_test_report(report, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_report_round_trip_single_group(tmp_path):
    report = TestReport(pr_H1=None, rho_exceed=np.zeros(3), epsilon=0.1,
                        edge_diff=np.zeros(3),
                        significant_edges=np.zeros(3, bool),
                        decision_cutoff=0.95)
    path = tmp_path / "r.json"
    save_test_report(report, path)
    assert load_test_report(path).pr_H1 is None


def test_report_load_errors(tmp_path):
    with pytest.raises(DataFormatError, match="not a JSON test report"):
        load_test_report(_write(tmp_path, "a.json", "{{{"))
    with pytest.raises(DataFormatError, match="malformed test report"):
        load_test_report(_write(tmp_path, "b.json", '{"pr_H1": 0.5}'))
    bad = json.dumps({"pr_H1": 0.5, "epsilon": 0.1, "decision_cutoff": 0.95,
                      "rho_exceed": [2.0], "edge_diff": [0.0],
                      "significant_edges": [0]})
    with pytest.raises(DataFormatError, match="malformed test report"):
        load_test_report(_write(tmp_path, "c.json", bad))
    with pytest.raises(DataFormatError):
        load_test_report(tmp_path / "absent.json")


# ----------------------------------------------------- table artifacts


def test_write_edge_table_golden(tmp_path):
    path = tmp_path / "edges.csv"
    write_edge_table(_report(), path)
    assert path.read_text() == (
        "edge,v,u,rho_exceed,edge_diff,significant\n"
        "1,2,1,0.97,0.5,1\n"
        "2,3,1,0.2,-0.25,0\n"
        "3,3,2,0.99,0.125,1\n")


def test_write_edge_table_with_names(tmp_path):
    meta = load_node_metadata(_write(tmp_path, "nodes.csv", METADATA_TEXT))
    path = tmp_path / "edges.csv"
    write_edge_table(_report(), path, meta)
    lines = path.read_text().splitlines()
    assert lines[0].endswith(",v_name,u_name")
    assert lines[1].endswith(",n2,n1")
    assert lines[3].endswith(",n3,n2")


def test_write_degree_table_golden(tmp_path):
    degrees = np.array([1, 2, 1])
    path = tmp_path / "deg.csv"
    write_degree_table(degrees, path)
    assert path.read_text() == "node,degree\n1,1\n2,2\n3,1\n"
    meta = load_node_metadata(_write(tmp_path, "nodes.csv", METADATA_TEXT))
    write_degree_table(degrees, path, meta)
    assert path.read_text() == ("node,name,hemisphere,lobe,degree\n"
                                "1,n1,L,frontal,1\n"
                                "2,n2,R,parietal,2\n"
                                "3,n3,other,occipital,1\n")


def test_write_difference_matrix_golden(tmp_path):
    path = tmp_path / "diff.csv"
    write_difference_matrix(_report(), path)
    assert path.read_text() == ("0,0.5,-0.25\n"
                                "0.5,0,0.125\n"
                                "-0.25,0.125,0\n")


def test_write_predictions_golden(tmp_path):
    result = ClassificationResult(
        subject_ids=("s1", "s2"), labels=np.array([0, 1]),
        probabilities=np.array([0.125, 0.875]),
        predicted=np.array([0, 1], dtype=np.int8))
    path = tmp_path / "pred.csv"
    write_predictions(result, path)
    assert path.read_text() == ("subject_id,label,prob_group1,predicted\n"
                                "s1,0,0.125,0\n"
                                "s2,1,0.875,1\n")


def test_save_classification(tmp_path):
    path = tmp_path / "clf.json"
    save_classification(0.975, 0.9, 8, path)
    payload = json.loads(path.read_text())
    assert payload == {"auc": 0.975, "accuracy": 0.9, "n_subjects": 8,
                       "threshold": 0.5}
    assert load_classification(path) == payload


@pytest.mark.parametrize("text,pattern", [
    ("[1,2]", "JSON object"),
    ('{"n_subjects": 3}', "'auc' must be a number"),
    ('{"auc": 0.5, "accuracy": "high", "n_subjects": 3}', "'accuracy'"),
    ('{"auc": 0.5, "accuracy": 0.5, "n_subjects": true}', "'n_subjects'"),
    ('{"auc": 0.5,', "corrupt JSON"),
])
def test_load_classification_errors(tmp_path, text, pattern):
    path = tmp_path / "clf.json"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=pattern):
        load_classification(path)


# ------------------------------------------------------------- report


def test_render_report_sections():
    meta = {"V": 4, "L": 6, "H": 2, "R": 1, "n": 12, "n0": 6, "n1": 6,
            "data_checksum": "abc123",
            "sampler": {"n_iter": 40, "burn_in": 20, "thin": 2, "seed": 0}}
    text = render_report(fit_meta=meta, test_report=_report(),
                         classification={"auc": 1.0, "accuracy": 0.95,
                                         "n_subjects": 12})
    assert "## Fit" in text and "## Group comparison" in text
    assert "## Classification" in text
    assert "subjects: 12 (group 0: 6, group 1: 6)" in text
    assert "data checksum: abc123" in text
    assert "flagged edges: 2 of 3" in text
    assert "probability of group dependence: 0.9" in text
    assert "AUC: 1" in text


def test_render_report_single_group_and_empty():
    single = TestReport(pr_H1=None, rho_exceed=np.zeros(3), epsilon=0.1,
                        edge_diff=np.zeros(3),
                        significant_edges=np.zeros(3, bool),
                        decision_cutoff=0.95)
    text = render_report(test_report=single)
    assert "single-group cohort" in text
    assert render_report().strip().endswith("No artifacts found.")


# ------------------------------------------------------ atomic writes


def test_atomic_write_creates_parents_and_overwrites(tmp_path):
    path = tmp_path / "deep" / "nested" / "out.txt"
    atomic_write_text(path, "first\n")
    atomic_write_text(path, "second\n")
    assert path.read_text() == "second\n"
    leftovers = [p for p in path.parent.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []

"""File formats: adjacency files, manifests, config, archives, artifacts."""
import hashlib
import json
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmix.cli import run_cli
from netmix.core import NetworkObservation, edge_index_map, sample_cohort
from netmix.dataio import (ArchiveError, ConfigError, DataFormatError,
                           NodeMetadata, atomic_write_bytes, atomic_write_text,
                           load_classification, load_dataset, load_draws,
                           load_draws_meta, load_node_metadata,
                           load_test_report, parse_config, read_adjacency_file,
                           render_report, save_classification, save_draws,
                           save_test_report, write_dataset, write_degree_table,
                           write_difference_matrix, write_edge_table,
                           write_predictions)
from netmix.inference import PosteriorDraws, SamplerConfig, as_cohort, run_chain
from netmix.priors import HyperParameters
from netmix.synthetic import shifted_mixture_truth
from netmix.testing import (ClassificationResult, TestReport, classify,
                            compute_test_report)

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
        theta=1.0 / np.abs(rng.standard_normal((2, 2, 1))),
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


def test_reader_accepts_the_documented_syntax(tmp_path):
    # spaces around cells, an explicit plus sign, CRLF line ends, comments,
    # blank lines and any integer on the diagonal
    dense = (b"# subject 7\r\n"
             b" 7 , +1, 0 ,0\r\n"
             b"\r\n"
             b"1,-3,0,+1  # row 2\r\n"
             b"\t0,0, 0 ,1\r\n"
             b"0 ,1,1,9223372036854775807\r\n")
    edge_list = b"# subject 7\r\nV = 4\r\n\r\n 2 , +1 \r\n4,2 # an edge\r\n3,4\r\n"
    expected = [1, 0, 0, 0, 1, 1]
    for name, blob in [("dense.csv", dense), ("edges.txt", edge_list)]:
        path = tmp_path / name
        path.write_bytes(blob)
        assert np.array_equal(read_adjacency_file(path), expected), name


def test_cells_beyond_int64(tmp_path):
    big = 10**23
    cases = [
        (f"{big},1\n1,0\n",
         f"diagonal entry {big} at row 1, column 1 does not fit in a 64-bit integer"),
        (f"0,1,0\n1,0,{big}\n0,{big},0\n", f"entry {big} at row 2, column 3 is not 0 or 1"),
        (f"V=3\n{big},1\n", rf"node pair \({big}, 1\) invalid for V=3"),
    ]
    for i, (text, pattern) in enumerate(cases):
        with pytest.raises(DataFormatError, match=pattern):
            read_adjacency_file(_write(tmp_path, f"big{i}.csv", text))


def test_integer_cells_parsed_through_a_float_are_refused(tmp_path, monkeypatch):
    # numpy before 2.x reads "1.0" into an integer column with only a
    # DeprecationWarning; the reader must refuse the file all the same
    def loadtxt_via_float(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated",
                      DeprecationWarning)
        return np.array([[0, 1], [1, 0]])

    monkeypatch.setattr(np, "loadtxt", loadtxt_via_float)
    with pytest.raises(DataFormatError, match="non-integer entry in row 1"):
        read_adjacency_file(_write(tmp_path, "a.csv", "0,1.0\n1.0,0\n"))
    with pytest.raises(DataFormatError, match="non-integer node in '2,1.0'"):
        read_adjacency_file(_write(tmp_path, "a.txt", "V=2\n2,1.0\n"))


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


def _golden_cohort(V):
    """Empty, full and patterned networks at V nodes, from literal values
    so the file bytes depend on no random stream."""
    L = V * (V - 1) // 2
    patterns = [np.zeros(L), np.ones(L), np.arange(L) % 3 == 0]
    return [NetworkObservation(edges=e.astype(np.int8), label=i % 2,
                               subject_id=sid)
            for i, (e, sid) in enumerate(zip(patterns, ["empty", "full",
                                                        "site1/sub01"]))]


def _digests(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_write_dataset_golden_bytes(tmp_path):
    """The sha256 of every file write_dataset writes, pinned across writer
    changes."""
    manifest = "77eba390280512b6b91379a821a93c771ecd5d20617e7fa570fde540a5c49f8b"
    assert _digests(write_dataset(tmp_path / "v2", _golden_cohort(2)).parent) == {
        "manifest.csv": manifest,
        "networks/empty.csv":
            "5e77747e2d97ad2738b30d57fdd9095982e520b83e56374d562fbe4c597c8302",
        "networks/full.csv":
            "6101ec16015a127b9102cbc34d949c2a38335e11642cfd15c2f992197efa7722",
        "networks/site1/sub01.csv":
            "6101ec16015a127b9102cbc34d949c2a38335e11642cfd15c2f992197efa7722",
    }
    assert _digests(write_dataset(tmp_path / "v7", _golden_cohort(7)).parent) == {
        "manifest.csv": manifest,
        "networks/empty.csv":
            "5c1f3c30e8ff7468ba777651f0f9935c30a1c69a11766433fe1416a1b4a4ffb0",
        "networks/full.csv":
            "b20ef5cde75e5e08a2cf00e184dcfcd2001057217b1585ceb111660daa01d132",
        "networks/site1/sub01.csv":
            "86300e904fe34d4a8306285a290bb5bb421ccb7150dae2242ba3e2ccc9df88fa",
    }
    assert (tmp_path / "v2" / "networks" / "full.csv").read_text() == "0,1\n1,0\n"


@given(st.integers(2, 40).flatmap(
    lambda V: st.lists(st.booleans(), min_size=V * (V - 1) // 2,
                       max_size=V * (V - 1) // 2)))
@settings(max_examples=40, deadline=None)
def test_dense_and_edge_list_round_trip(flags):
    edges = np.array(flags, dtype=np.int8)
    obs = NetworkObservation(edges=edges, label=1, subject_id="s")
    emap = edge_index_map(obs.V)
    pairs = "".join(f"{v + 1},{u + 1}\n" for v, u, e in
                    zip(emap.rows0, emap.cols0, edges) if e)
    with tempfile.TemporaryDirectory() as tmp:
        (loaded,), _ = load_dataset(write_dataset(Path(tmp), [obs]))
        edge_list = Path(tmp) / "edges.txt"
        edge_list.write_text(f"V={obs.V}\n{pairs}")
        assert np.array_equal(loaded.edges, edges)
        assert np.array_equal(read_adjacency_file(edge_list), edges)


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


def test_write_dataset_rejects_duplicate_and_line_break_ids(tmp_path):
    obs = _toy_observations()
    out = tmp_path / "out"
    for bad, pattern in [(obs[1], "duplicate subject id 'sub01'"),
                         (replace(obs[0], subject_id="a\rb"), "line break"),
                         (replace(obs[0], subject_id="a\nb"), "line break")]:
        with pytest.raises(DataFormatError, match=pattern):
            write_dataset(out, [*obs, bad])
        assert not out.exists()


def test_tables_reject_carriage_returns(tmp_path):
    # the reader turns "\r" into "\n", so such a cell cannot round-trip
    result = ClassificationResult(
        subject_ids=("s1", "a\rb"), labels=np.array([0, 1]),
        probabilities=np.array([0.125, 0.875]))
    meta = (NodeMetadata("pre\rcentral", "L", "x"), NodeMetadata("b", "R", "x"))
    for path, write in [(tmp_path / "pred.csv", lambda p: write_predictions(result, p)),
                        (tmp_path / "deg.csv",
                         lambda p: write_degree_table(np.array([1, 2]), p, meta))]:
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: a cell holds")):
            write(path)
        assert not path.exists()


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


CONFIG_KEYS = {"v": int, "n_iter": int, "scenario": str, "a0": float,
               "z_var": float, "mig_a2": float, "dirichlet_conc": float,
               "shift": float}


def test_parse_config_types(tmp_path):
    path = _write(tmp_path, "cfg.txt",
                  "# sampler\n"
                  "V = 20\n"
                  "n_iter = 500\n"
                  "mig_a2 = 4.5\n"
                  "scenario = shifted  # synthetic family\n")
    cfg = parse_config(path, CONFIG_KEYS)
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
        ("a0 = nan\n", "'a0' must be finite"),
        ("z_var = inf\n", "'z_var' must be finite"),
        ("dirichlet_conc = -inf\n", "'dirichlet_conc' must be finite"),
        ("shift = NaN\n", "'shift' must be finite"),
    ]
    for i, (text, pattern) in enumerate(cases):
        with pytest.raises(ConfigError, match=pattern):
            parse_config(_write(tmp_path, f"cfg{i}.txt", text), CONFIG_KEYS)


def test_parse_config_empty_is_empty(tmp_path):
    assert parse_config(_write(tmp_path, "e.txt", "# only comments\n"),
                        CONFIG_KEYS) == {}


# ------------------------------------------------------ draws archive


def test_draws_round_trip(tmp_path):
    draws = _small_draws()
    path = tmp_path / "draws.bin"
    save_draws(draws, path)
    loaded = load_draws(path)
    for name in ("Z", "X", "theta", "nu", "pY1", "T", "assignments",
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


def _literal_draws():
    """Two draws at V=3, H=2, R=1, n=2 from literal values, so the archive
    bytes do not depend on any random stream. X is Fortran-ordered, so the
    writer's contiguous copy is part of what the digest pins."""
    X = np.asfortranarray([[[[0.5], [-1.25], [2.0]], [[0.0], [1.0], [-0.75]]],
                           [[[0.25], [-1.0], [1.5]], [[0.125], [0.5], [-0.5]]]])
    return PosteriorDraws(
        Z=np.array([[0.1, -0.2, 0.3], [-0.4, 0.5, -0.6]]),
        X=X,
        theta=np.array([[[1.5], [2.0]], [[1.25], [3.0]]]),
        nu=np.array([[[0.25, 0.75], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]),
        pY1=np.array([0.4, 0.6]),
        T=np.array([1, 0], dtype=np.int8),
        assignments=np.array([[0, 1], [1, 1]], dtype=np.int32),
        log_joint_trace=np.array([-12.5, -11.0, -10.75]),
        meta={"V": 3, "H": 2, "R": 1, "n": 2, "single_group": False,
              "subject_ids": ["s1", "s2"]})


def test_draws_archive_golden_bytes(tmp_path):
    """The v2 bytes of a fixed archive, pinned across writer changes."""
    draws = _literal_draws()
    assert not draws.X.flags.c_contiguous
    path = tmp_path / "golden.bin"
    save_draws(draws, path)
    blob = path.read_bytes()
    assert len(blob) == 771
    assert hashlib.sha256(blob).hexdigest() == (
        "bbc4254f822d513c67e6daf2a3e63c98ce5f9868d1724644c4f9f6998f3a25b7")
    loaded = load_draws(path)
    assert np.array_equal(loaded.X, draws.X) and loaded.meta == draws.meta


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
        tmp_path, blob[:8] + np.uint32(3).tobytes() + blob[12:],
        "unsupported archive version 3")
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
        ("Z", "X", "theta", "nu", "pY1", "T", "assignments",
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


def _save_v1(draws, path, lam=None):
    """draws in the version 1 layout, which also stored lam after X."""
    if lam is None:
        with np.errstate(all="ignore"):  # some cases hold theta <= 0
            lam = draws.lam
    arrays = {"Z": draws.Z, "X": draws.X, "lam": lam, "theta": draws.theta,
              "nu": draws.nu, "pY1": draws.pY1, "T": draws.T,
              "assignments": draws.assignments,
              "log_joint_trace": draws.log_joint_trace}
    header = {"arrays": [{"name": name, "dtype": arr.dtype.str,
                          "shape": list(arr.shape)}
                         for name, arr in arrays.items()],
              "meta": draws.meta}
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    Path(path).write_bytes(
        b"NMXDRAWS" + np.uint32(1).tobytes() + np.uint64(len(hb)).tobytes()
        + hb + b"".join(np.ascontiguousarray(a).tobytes()
                        for a in arrays.values()))


def _with(name, edit):
    """_small_draws with a copy of array name changed in place by edit."""
    def make():
        d = _small_draws()
        arr = getattr(d, name).copy()
        edit(arr)
        return replace(d, **{name: arr})
    return make


def _set(index, value):
    def edit(arr):
        arr[index] = value
    return edit


@pytest.mark.parametrize("make,pattern", [
    (_with("Z", _set((0, 0), np.nan)), "'Z' must be finite"),
    (_with("X", _set((1, 0, 2, 0), np.inf)), "'X' must be finite"),
    (_with("theta", _set((0, 1, 0), 0.0)), "'theta' must be positive"),
    (_with("theta", _set((1, 0, 0), -2.0)), "'theta' must be positive"),
    (_with("theta", _set((0, 0, 0), np.nan)), "'theta' must be positive"),
    (_with("theta", _set((0, 0, 0), 1e-320)), "give a finite lam"),
    (_with("nu", _set((0, 0, 0), np.nan)), "'nu' rows must be probability"),
    (_with("nu", _set((1, 1), [0.5, 0.6])), "'nu' rows must be probability"),
    (_with("nu", _set((1, 0), [-0.5, 1.5])), "'nu' rows must be probability"),
    (_with("nu", _set(0, [[0.25, 0.75], [0.75, 0.25]])), "equal where T = 0"),
    (_with("T", _set(1, 2)), "'T' must be 0 or 1"),
    (_with("pY1", _set(0, 0.0)), r"'pY1' must lie in \(0, 1\)"),
    (_with("pY1", _set(1, 1.0)), r"'pY1' must lie in \(0, 1\)"),
    (_with("pY1", _set(1, np.nan)), r"'pY1' must lie in \(0, 1\)"),
    (_with("assignments", _set((1, 2), 2)), r"'assignments' must lie in 0\.\.1"),
    (_with("assignments", _set((0, 0), -1)), r"'assignments' must lie in 0\.\.1"),
    (_with("log_joint_trace", _set(3, -np.inf)), "'log_joint_trace' must be finite"),
], ids=["Z-nan", "X-inf", "theta-zero", "theta-negative", "theta-nan",
        "theta-tiny", "nu-nan", "nu-sum", "nu-negative", "nu-untied-at-T0",
        "T-two", "pY1-zero", "pY1-one", "pY1-nan", "assignment-H",
        "assignment-negative", "trace-inf"])
@pytest.mark.parametrize("save", [save_draws, _save_v1], ids=["v2", "v1"])
def test_draws_archive_rejects_impossible_values(tmp_path, capsys, save, make,
                                                 pattern):
    # every one of these would make some params_at(k) raise, and the NaN
    # ones would otherwise reach test_report.json as invalid JSON
    save(make(), tmp_path / "bad.bin")
    with pytest.raises(ArchiveError, match=pattern):
        load_draws(tmp_path / "bad.bin")
    assert run_cli(["test", "--archive", str(tmp_path / "bad.bin"),
                    "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert re.search(pattern, err)
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def fitted():
    obs = sample_cohort(shifted_mixture_truth(6, seed=1).params, 8, 8,
                        np.random.default_rng(4))
    draws = run_chain(obs, HyperParameters(V=6, H=3, R=2),
                      SamplerConfig(n_iter=30, burn_in=10, thin=2, seed=5))
    return draws, obs


def test_v1_archive_reads_as_v2(tmp_path, fitted):
    draws, obs = fitted
    save_draws(draws, tmp_path / "v2.bin")
    _save_v1(draws, tmp_path / "v1.bin")
    v1, v2 = load_draws(tmp_path / "v1.bin"), load_draws(tmp_path / "v2.bin")
    for name in ("Z", "X", "lam", "theta", "nu", "pY1", "T", "assignments",
                 "log_joint_trace"):
        assert np.array_equal(getattr(v1, name), getattr(draws, name)), name
        assert np.array_equal(getattr(v2, name), getattr(draws, name)), name
        assert getattr(v1, name).dtype == getattr(v2, name).dtype, name
    assert v1.meta == v2.meta == load_draws_meta(tmp_path / "v1.bin")
    r1, r2 = compute_test_report(v1), compute_test_report(v2)
    assert r1.pr_H1 == r2.pr_H1
    for name in ("rho_exceed", "edge_diff", "significant_edges"):
        assert np.array_equal(getattr(r1, name), getattr(r2, name)), name
    assert np.array_equal(classify(v1, obs).probabilities,
                          classify(v2, obs).probabilities)
    # v2 drops lam: one (K, H, R) float64 array fewer, and a shorter header
    saved = (tmp_path / "v1.bin").stat().st_size - (tmp_path / "v2.bin").stat().st_size
    assert saved > draws.theta.nbytes


def test_v1_archive_with_inconsistent_lam_is_rejected(tmp_path, capsys, fitted):
    draws, _ = fitted
    lam = draws.lam.copy()
    lam[-1, -1, -1] = np.nextafter(lam[-1, -1, -1], 1.0)
    _save_v1(draws, tmp_path / "bad.bin", lam=lam)
    pattern = r"array 'lam' is not cumprod\(1/theta\)"
    for load in (load_draws, load_draws_meta):
        with pytest.raises(ArchiveError, match=pattern):
            load(tmp_path / "bad.bin")
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
                        edge_diff=np.zeros(3), decision_cutoff=0.95)
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
    for key, match in (("rho_exceed", "exceedance"), ("edge_diff", "finite")):
        nan = json.dumps({"pr_H1": 0.5, "epsilon": 0.1, "decision_cutoff": 0.95,
                          "rho_exceed": [0.5], "edge_diff": [0.0],
                          "significant_edges": [0], key: [float("nan")]})
        with pytest.raises(DataFormatError, match=match):
            load_test_report(_write(tmp_path, "d.json", nan))
    with pytest.raises(DataFormatError):
        load_test_report(tmp_path / "absent.json")


def test_report_load_refuses_inconsistent_flags(tmp_path):
    # every edge flagged although no exceedance passes the cutoff
    bad = json.dumps({"pr_H1": 0.5, "epsilon": 0.1, "decision_cutoff": 0.95,
                      "rho_exceed": [0.1, 0.2, 0.3], "edge_diff": [0.0] * 3,
                      "significant_edges": [1, 1, 1]})
    with pytest.raises(DataFormatError, match="malformed test report") as info:
        load_test_report(_write(tmp_path, "r.json", bad))
    assert "above the cutoff" in str(info.value)
    assert "\n" not in str(info.value)


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
        probabilities=np.array([0.125, 0.875]))
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


def test_save_classification_single_group(tmp_path):
    # a single-group cohort has no AUC: null in the file, and only for auc
    path = tmp_path / "clf.json"
    save_classification(None, 0.75, 4, path)
    assert '"auc": null' in path.read_text()
    payload = load_classification(path)
    assert payload["auc"] is None and payload["accuracy"] == 0.75
    text = render_report(classification=payload)
    assert "- AUC: not available (single-group cohort)" in text
    path.write_text('{"auc": 0.5, "accuracy": null, "n_subjects": 4}')
    with pytest.raises(DataFormatError, match="'accuracy' must be a number"):
        load_classification(path)


@pytest.mark.parametrize("text,pattern", [
    ("[1,2]", "JSON object"),
    ('{"n_subjects": 3}', "'auc' must be a number"),
    ('{"auc": 0.5, "accuracy": "high", "n_subjects": 3}', "'accuracy'"),
    ('{"auc": 0.5, "accuracy": 0.5, "n_subjects": true}', "'n_subjects'"),
    ('{"auc": 0.5,', "corrupt JSON"),
    ('{"auc": NaN, "accuracy": 0.5, "n_subjects": 3}', r"'auc' must lie in \[0, 1\]"),
    ('{"auc": 0.5, "accuracy": Infinity, "n_subjects": 3}', "'accuracy' must lie"),
    ('{"auc": 0.5, "accuracy": 1.5, "n_subjects": 3}', "'accuracy' must lie"),
    ('{"auc": 0.5, "accuracy": 0.5, "n_subjects": -1}', "non-negative integer"),
    ('{"auc": 0.5, "accuracy": 0.5, "n_subjects": 2.5}', "non-negative integer"),
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
                        edge_diff=np.zeros(3), decision_cutoff=0.95)
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


def test_atomic_write_streams_chunks_in_order(tmp_path):
    a = np.arange(6, dtype=np.float64).reshape(2, 3)
    b = np.array([1, -2], dtype=np.int32)
    path = tmp_path / "out.bin"
    atomic_write_bytes(path, b"HDR", a, b"", b)
    assert path.read_bytes() == b"HDR" + a.tobytes() + b.tobytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


def test_atomic_write_failure_leaves_no_temp_file(tmp_path):
    # a failed rename: the target is a directory
    target = tmp_path / "report.md"
    target.mkdir()
    with pytest.raises(OSError):
        atomic_write_text(target, "text\n")
    assert target.is_dir()
    # a failed write: a strided array is no contiguous buffer
    with pytest.raises(ValueError, match="contiguous"):
        atomic_write_bytes(tmp_path / "out.bin", b"HDR", np.zeros((4, 4))[:, ::2])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.md"]


# ------------------------------------------- memory of the post-fit path


def _paper_shape_draws(K=200, H=15, V=68, R=10, n=114):
    """A synthetic K-draw archive at paper shape (~19 MB at K=200) whose
    every draw load_draws accepts, with a cohort of n subjects."""
    rng = np.random.default_rng(0)
    draws = PosteriorDraws(
        Z=rng.normal(-1.0, 0.5, (K, V * (V - 1) // 2)),
        X=0.3 * rng.standard_normal((K, H, V, R)),
        theta=np.full((K, H, R), 1.1),
        nu=rng.dirichlet(np.ones(H), size=(K, 2)),
        pY1=np.full(K, 0.5),
        T=np.ones(K, dtype=np.int8),
        assignments=rng.integers(0, H, (K, n), dtype=np.int32),
        log_joint_trace=np.zeros(K),
        meta={"V": V, "H": H, "R": R, "n": n, "single_group": False})
    cohort = as_cohort(sample_cohort(shifted_mixture_truth(V).params,
                                     n // 2, n - n // 2, rng))
    return draws, cohort


def _traced_peak(fn, *args):
    """(result, peak bytes fn allocated on top of what was live)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_post_fit_path_holds_one_copy_of_the_draws(tmp_path):
    """save_draws streams the arrays, load_draws reads one buffer per
    array, and the test report and classifier work block by block."""
    draws, cohort = _paper_shape_draws()
    path = tmp_path / "draws.bin"
    _, save_peak = _traced_peak(save_draws, draws, path)
    size = path.stat().st_size
    assert size > 19e6
    loaded, load_peak = _traced_peak(load_draws, path)
    _, report_peak = _traced_peak(compute_test_report, loaded)
    _, classify_peak = _traced_peak(classify, loaded, cohort)
    assert save_peak < 0.05 * size
    assert load_peak < 1.25 * size
    assert report_peak < 0.15 * size
    assert classify_peak < 0.15 * size

"""File formats and deterministic artifact I/O.

Formats:
  manifest CSV     header ``subject_id,label,path``; paths are resolved
                   relative to the manifest's directory.
  adjacency file   either a dense V x V CSV of 0/1 integers (symmetric,
                   diagonal ignored) or an edge list whose first content
                   line is ``V=<n>`` followed by ``v,u`` pairs (1-based).
  node metadata    CSV ``name,hemisphere,lobe`` with one row per node in
                   node order; hemisphere must be L, R, or other.
  config           ``key = value`` lines, ``#`` comments. The command that
                   reads a config passes the keys it reads and their types;
                   any other key is rejected.
  draws archive    custom binary container (magic, version, JSON header,
                   raw arrays). np.savez is avoided on purpose: zip
                   embeds timestamps and would break byte-identical
                   reruns. Version 2 stores Z, X, theta, nu, pY1, T,
                   assignments and the log-joint trace; lam is derived
                   from theta. Version 1 archives, which also stored lam
                   after X, still load: their lam must equal the one
                   derived from their theta and is then dropped.

Adjacency files are parsed in one vectorized np.loadtxt call per file
(numpy's C parser); only a file it refuses goes through a per-cell loop,
which names the first bad row with a message of its own. Each simulated
network is written from one byte buffer of digits, commas and line ends.
Every other CSV table is read by _read_table and written by _write_table,
both on the csv module. All writers go through atomic_write_bytes (a temp file
beside the target, then a rename) and never embed timestamps, so identical
inputs produce identical bytes; a failed write or rename leaves no temp
file. The draws archive is written straight from the draw arrays and read
into one buffer per array, so no command holds more than one copy of the
draws.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import _SIMPLEX_TOL, NetworkObservation, _edge_slot, edge_index_map
from .core import matricize, vectorize as vectorize_adjacency
from .inference import PosteriorDraws
from .priors import lam_from_theta
from .testing import ClassificationResult, TestReport

__all__ = [
    "NetmixError",
    "DataFormatError",
    "ConfigError",
    "ArchiveError",
    "NodeMetadata",
    "DatasetManifest",
    "load_dataset",
    "load_node_metadata",
    "read_adjacency_file",
    "write_dataset",
    "parse_config",
    "save_draws",
    "load_draws",
    "load_draws_meta",
    "save_test_report",
    "load_test_report",
    "write_draws_table",
    "write_edge_table",
    "write_degree_table",
    "write_difference_matrix",
    "write_predictions",
    "save_classification",
    "load_classification",
    "render_report",
    "atomic_write_text",
    "atomic_write_bytes",
]


class NetmixError(Exception):
    """Base for errors the command line reports as one-line diagnostics."""


class DataFormatError(NetmixError):
    pass


class ConfigError(NetmixError):
    pass


class ArchiveError(NetmixError):
    pass


HEMISPHERES = ("L", "R", "other")


@dataclass(frozen=True)
class NodeMetadata:
    """Anatomical labels for one node."""

    name: str
    hemisphere: str
    lobe: str

    def __post_init__(self):
        if self.hemisphere not in HEMISPHERES:
            raise DataFormatError(
                f"hemisphere must be one of {HEMISPHERES}, got {self.hemisphere!r}")


@dataclass(frozen=True)
class DatasetManifest:
    """What a cohort was loaded from: (subject_id, label, path) triples
    and the node count."""

    subjects: tuple[tuple[str, int, str], ...]
    V: int


def atomic_write_bytes(path, *chunks) -> None:
    """Write the chunks (bytes or C-contiguous arrays) in order to
    ``<name>.tmp`` beside path, then rename it into place. The chunks are
    streamed as they are, never joined, so the draws archive goes to disk
    straight from the draw arrays and saving holds no second copy of the
    draws. A failed write or rename removes the temp file and re-raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _read_text(path) -> str:
    """UTF-8 text of a file; unreadable or undecodable files raise
    DataFormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def _read_table(path, header: tuple[str, ...]) -> list[list[str]]:
    """Stripped cells of the rows of a CSV file whose first row is header.
    Blank rows are skipped; every other row needs one cell per column."""
    reader = csv.reader(io.StringIO(_read_text(path)))
    rows = []
    try:
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != list(header):
            raise DataFormatError(f"{path}: expected header "
                                  f"{','.join(header)!r}, got {first!r}")
        for row in reader:
            if not "".join(row).strip():
                continue
            if len(row) != len(header):
                raise DataFormatError(f"{path}: malformed row {row!r}")
            rows.append([cell.strip() for cell in row])
    except csv.Error as exc:
        raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from exc
    return rows


def _write_table(path, rows, header=None) -> None:
    """Rows (after header, if given) as CSV with "\n" line ends; only cells
    holding a comma, a quote or a line break are quoted. A cell holding a
    carriage return raises DataFormatError: _read_text turns it into "\n"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if "\r" in text:
        raise DataFormatError(f"{path}: a cell holds a carriage return, "
                              "which cannot be read back")
    atomic_write_text(path, text)


def _content_lines(path) -> list[str]:
    lines = []
    for line in _read_text(path).splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            lines.append(body)
    return lines


def read_adjacency_file(path) -> np.ndarray:
    """Edge vector from a dense CSV matrix or a V=<n> edge list."""
    lines = _content_lines(path)
    if not lines:
        raise DataFormatError(f"{path}: empty adjacency file")
    first = lines[0].replace(" ", "")
    if first.upper().startswith("V="):
        return _read_edge_list(path, lines)
    return _read_dense(path, lines)


# an integer cell as numpy's text parser reads it (after the surrounding
# whitespace is stripped); it also needs to fit in int64
_INTEGER = re.compile(r"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)


def _int_table(lines: list[str]) -> np.ndarray | None:
    """(rows, columns) int64 array of comma-separated integer lines in one
    vectorized parse, or None when a cell is not an int64 or the rows
    differ in length; the caller then names the first bad line."""
    try:
        with warnings.catch_warnings():
            # numpy 1.x reads "1.5" or "1e23" into an integer column through
            # a float, with only this warning; later releases refuse them
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None


def _int_cells(line: str) -> list[int] | None:
    """The integer cells of a comma-separated line, or None if one is not
    an integer."""
    cells = [c.strip() for c in line.split(",")]
    if all(_INTEGER.fullmatch(c) for c in cells):
        return [int(c) for c in cells]
    return None


def _read_edge_list(path, lines: list[str]) -> np.ndarray:
    head = lines[0].replace(" ", "")
    try:
        V = int(head[2:])
    except ValueError:
        raise DataFormatError(f"{path}: malformed node count line {lines[0]!r}")
    if V < 2:
        raise DataFormatError(f"{path}: need at least 2 nodes, got V={V}")
    L = V * (V - 1) // 2
    try:
        edges = np.zeros(L, dtype=np.int8)
    except (MemoryError, ValueError) as exc:
        raise DataFormatError(f"{path}: V={V} is too large: its {L}-entry edge "
                              "vector cannot be allocated") from exc
    if len(lines) == 1:
        return edges
    pairs = _int_table(lines[1:])
    if pairs is None or pairs.shape[1] != 2:
        _edge_list_diagnostic(path, lines[1:], V)
    a, b = pairs.T
    v, u = np.maximum(a, b), np.minimum(a, b)
    bad = (v == u) | (u < 1) | (v > V)
    if bad.any():
        i = int(np.argmax(bad))
        raise DataFormatError(
            f"{path}: node pair ({a[i]}, {b[i]}) invalid for V={V}")
    edges[_edge_slot(V, v, u)] = 1
    return edges


def _edge_list_diagnostic(path, lines: list[str], V: int):
    """Raise DataFormatError for the first pair line that is not two
    integer nodes of 1..V."""
    for line in lines:
        if line.count(",") != 1:
            raise DataFormatError(f"{path}: expected 'v,u', got {line!r}")
        pair = _int_cells(line)
        if pair is None:
            raise DataFormatError(f"{path}: non-integer node in {line!r}")
        a, b = pair
        if a == b or not (1 <= a <= V and 1 <= b <= V):
            raise DataFormatError(
                f"{path}: node pair ({a}, {b}) invalid for V={V}")
    raise DataFormatError(f"{path}: unreadable edge list")


def _read_dense(path, lines: list[str]) -> np.ndarray:
    A = _int_table(lines)
    if A is None:
        _dense_diagnostic(path, lines)
    V, columns = A.shape
    if columns != V:
        raise DataFormatError(f"{path}: row 1 has {columns} columns, expected {V}")
    bad = (A != 0) & (A != 1) & ~np.eye(V, dtype=bool)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DataFormatError(f"{path}: entry {A[r, c]} at row {r + 1}, "
                              f"column {c + 1} is not 0 or 1")
    try:
        return vectorize_adjacency(A)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _dense_diagnostic(path, lines: list[str]):
    """Raise DataFormatError for the first non-integer row, else the first
    row of the wrong length, else the first entry that is off the diagonal
    and not 0 or 1, or on it and beyond int64."""
    rows = []
    for i, line in enumerate(lines):
        row = _int_cells(line)
        if row is None:
            raise DataFormatError(f"{path}: non-integer entry in row {i + 1}")
        rows.append(row)
    V = len(rows)
    for i, row in enumerate(rows):
        if len(row) != V:
            raise DataFormatError(
                f"{path}: row {i + 1} has {len(row)} columns, expected {V}")
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if r != c and x not in (0, 1):
                raise DataFormatError(f"{path}: entry {x} at row {r + 1}, "
                                      f"column {c + 1} is not 0 or 1")
            if not _INT64.min <= x <= _INT64.max:
                raise DataFormatError(f"{path}: diagonal entry {x} at row {r + 1}, "
                                      f"column {c + 1} does not fit in a 64-bit integer")
    raise DataFormatError(f"{path}: unreadable adjacency matrix")


def load_node_metadata(path) -> tuple[NodeMetadata, ...]:
    rows = _read_table(path, ("name", "hemisphere", "lobe"))
    if not rows:
        raise DataFormatError(f"{path}: no node rows")
    return tuple(NodeMetadata(*row) for row in rows)


def load_dataset(manifest_path):
    """Read a manifest and every adjacency file it references.

    Returns (observations, DatasetManifest). All subjects must share one
    node count.
    """
    manifest_path = Path(manifest_path)
    entries = []
    seen = set()
    for sid, label_s, rel in _read_table(manifest_path, ("subject_id", "label", "path")):
        if label_s not in ("0", "1"):
            raise DataFormatError(
                f"{manifest_path}: label for {sid!r} must be 0 or 1, got {label_s!r}")
        if sid in seen:
            raise DataFormatError(f"{manifest_path}: duplicate subject id {sid!r}")
        seen.add(sid)
        entries.append((sid, int(label_s), rel))
    if not entries:
        raise DataFormatError(f"{manifest_path}: no subjects listed")

    observations = []
    V = None
    for sid, label, rel in entries:
        edges = read_adjacency_file(manifest_path.parent / rel)
        obs = NetworkObservation(edges=edges, label=label, subject_id=sid)
        if V is None:
            V = obs.V
        elif obs.V != V:
            raise DataFormatError(
                f"{manifest_path}: subject {sid!r} has {obs.V} nodes, "
                f"others have {V}")
        observations.append(obs)
    return observations, DatasetManifest(subjects=tuple(entries), V=V)


def _dense_bytes(A: np.ndarray) -> np.ndarray:
    """The CSV text of a 0/1 matrix as a (V, 2V) uint8 array: each row is
    its digits, each followed by a comma, the last by a line end."""
    V = A.shape[0]
    text = np.full((V, 2 * V), ord(","), dtype=np.uint8)
    text[:, 0::2] = A + ord("0")
    text[:, -1] = ord("\n")
    return text


def write_dataset(out_dir, observations) -> Path:
    """Write adjacency CSVs and a manifest for a simulated cohort.

    Returns the manifest path. Files land in out_dir/networks/<id>.csv;
    empty ids, ids with a '..' component or a line break, and duplicate ids
    are rejected up front.
    """
    out_dir = Path(out_dir)
    observations = list(observations)
    seen = set()
    for sid in (str(obs.subject_id) for obs in observations):
        if not sid or ".." in sid.split("/"):
            raise DataFormatError(f"subject id {sid!r} is empty or has a '..' component")
        if "\r" in sid or "\n" in sid:
            raise DataFormatError(f"subject id {sid!r} holds a line break")
        if sid in seen:
            raise DataFormatError(f"duplicate subject id {sid!r}")
        seen.add(sid)
    rows = []
    for obs in observations:
        rel = f"networks/{obs.subject_id}.csv"
        atomic_write_bytes(out_dir / rel, _dense_bytes(matricize(obs.edges)))
        rows.append((obs.subject_id, obs.label, rel))
    manifest_path = out_dir / "manifest.csv"
    _write_table(manifest_path, rows, ("subject_id", "label", "path"))
    return manifest_path


# configuration files

def parse_config(path, keys: dict) -> dict:
    """key = value file to a dict typed by keys, which maps each key the
    caller reads to int, float or str; other keys and bad values raise."""
    out = {}
    for line in _content_lines(path):
        if "=" not in line:
            raise ConfigError(f"{path}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in keys:
            raise ConfigError(f"{path}: unknown config key {key!r}; expected "
                              f"one of {', '.join(sorted(keys))}")
        if key in out:
            raise ConfigError(f"{path}: duplicate config key {key!r}")
        try:
            out[key] = keys[key](value)
        except ValueError:
            raise ConfigError(f"{path}: bad value {value!r} for key {key!r}")
        if isinstance(out[key], float) and not math.isfinite(out[key]):
            raise ConfigError(f"{path}: value for key {key!r} must be "
                              f"finite, got {value!r}")
    return out


# draws archive

_MAGIC = b"NMXDRAWS"
_VERSION = 2
# the arrays of each archive version, in file order
_LAYOUTS = {
    1: ("Z", "X", "lam", "theta", "nu", "pY1", "T", "assignments",
        "log_joint_trace"),
    2: ("Z", "X", "theta", "nu", "pY1", "T", "assignments", "log_joint_trace"),
}
_ARRAY_ORDER = _LAYOUTS[_VERSION]


def save_draws(draws: PosteriorDraws, path) -> None:
    """Serialize posterior draws to the versioned binary container.

    Byte-identical for identical draws: the header is canonical JSON and
    arrays are written in a fixed order with explicit dtypes. The arrays
    are streamed to disk as they are (copied only if not C-contiguous), so
    the archive is never assembled in memory.
    """
    arrays = [np.ascontiguousarray(getattr(draws, name)) for name in _ARRAY_ORDER]
    header = {"arrays": [{"name": name, "dtype": arr.dtype.str,
                          "shape": list(arr.shape)}
                         for name, arr in zip(_ARRAY_ORDER, arrays)],
              "meta": draws.meta}
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    atomic_write_bytes(path, _MAGIC, np.uint32(_VERSION).tobytes(),
                       np.uint64(len(header_bytes)).tobytes(), header_bytes,
                       *arrays)


def _open_archive(path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise ArchiveError(f"{path}: {exc.strerror or exc}") from exc


def _read_header(fh, path) -> tuple[dict, list, dict]:
    """(meta, [(name, dtype, shape), ...], dims of the shapes) of an archive
    opened at its start, leaving fh at the first array. Checks the magic,
    version and array specs, that the file size matches the declared arrays,
    and that the declared shapes agree with each other and with meta."""
    start = fh.read(len(_MAGIC) + 12)
    if len(start) < len(_MAGIC) + 12 or not start.startswith(_MAGIC):
        raise ArchiveError(f"{path}: not a draws archive")
    off = len(_MAGIC)
    version = int(np.frombuffer(start, np.uint32, 1, off)[0])
    if version not in _LAYOUTS:
        raise ArchiveError(f"{path}: unsupported archive version {version}")
    hlen = int(np.frombuffer(start, np.uint64, 1, off + 4)[0])
    off += 12 + hlen
    size = os.fstat(fh.fileno()).st_size
    if off > size:
        raise ArchiveError(f"{path}: truncated archive header")
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArchiveError(f"{path}: corrupt archive header") from exc
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("arrays"), list)):
        raise ArchiveError(f"{path}: header needs an 'arrays' list and a 'meta' object")
    if not isinstance(header["meta"].get("sampler", {}), dict):
        raise ArchiveError(f"{path}: meta 'sampler' must be an object")
    listed = [spec.get("name") if isinstance(spec, dict) else None
              for spec in header["arrays"]]
    if listed != list(_LAYOUTS[version]):
        raise ArchiveError(f"{path}: unexpected archive contents {listed}")
    specs = []
    for spec in header["arrays"]:
        name, shape = spec["name"], spec.get("shape")
        try:
            dtype = np.dtype(str(spec.get("dtype")))
        except (TypeError, ValueError):
            dtype = np.dtype(object)
        if (dtype.kind not in "iuf" or not isinstance(shape, list)
                or not all(type(d) is int and d >= 0 for d in shape)):
            raise ArchiveError(f"{path}: array {name!r} has a bad dtype or shape")
        off += math.prod(shape) * dtype.itemsize
        if off > size:
            raise ArchiveError(f"{path}: truncated array {name!r}")
        specs.append((name, dtype, tuple(shape)))
    if off != size:
        raise ArchiveError(f"{path}: trailing bytes after arrays")
    dims = _check_draw_shapes(path, {name: shape for name, _, shape in specs},
                              header["meta"])
    return header["meta"], specs, dims


def _read_arrays(fh, path, specs, names=None) -> dict:
    """The arrays of specs (all, or those in names) of an archive whose
    first array starts at fh's position."""
    fields, off = {}, fh.tell()
    for name, dtype, shape in specs:
        nbytes = math.prod(shape) * dtype.itemsize
        if names is None or name in names:
            fh.seek(off)
            buf = bytearray(nbytes)
            if fh.readinto(buf) != nbytes:
                raise ArchiveError(f"{path}: truncated array {name!r}")
            fields[name] = np.frombuffer(buf, dtype).reshape(shape)
        off += nbytes
    return fields


def _drop_stored_lam(path, fields: dict) -> None:
    """Remove the lam a version 1 archive stored, which must equal the lam
    derived from its theta bit for bit."""
    lam = fields.pop("lam", None)
    with np.errstate(all="ignore"):
        if lam is not None and not np.array_equal(
                lam, lam_from_theta(fields["theta"])):
            raise ArchiveError(f"{path}: array 'lam' is not cumprod(1/theta) "
                               "of the stored theta")


def _check_draw_values(path, fields: dict) -> None:
    """Reject values that no draw can hold, so that params_at builds every
    draw and no NaN reaches an artifact."""
    Z, X, theta, nu, pY1, T, G = (fields[name] for name in
                                  ("Z", "X", "theta", "nu", "pY1", "T",
                                   "assignments"))
    H, R = theta.shape[1:]
    # an edge log-odds is Z plus a Gram entry, a sum of R products of scaled
    # factors X sqrt(lam), and later sums add up to L of them, so
    # max|Z| + R max|X sqrt(lam)|^2 must stay within float max / L
    bound = np.finfo(np.float64).max / Z.shape[1]
    with np.errstate(all="ignore"):
        lam = lam_from_theta(theta)
        lam_ok = (theta > 0).all() and np.isfinite(lam).all()
        scaled = np.maximum(X.max(axis=2), -X.min(axis=2)) * np.sqrt(lam)
        log_odds = (np.maximum(Z.max(axis=1), -Z.min(axis=1))
                    + R * scaled.max(axis=(1, 2)) ** 2)
        checks = (
            ("array 'Z'", "must be finite", np.isfinite(Z).all()),
            ("array 'X'", "must be finite", np.isfinite(X).all()),
            ("array 'theta'", "must be positive and give a finite lam", lam_ok),
            ("arrays 'Z' and 'X'", "give edge log-odds beyond float max / L: "
                                   "max|Z| + R max|X sqrt(lam)|^2 must stay "
                                   f"within {bound:.3g}",
             not lam_ok or (log_odds <= bound).all()),
            ("array 'nu'", f"rows must be probability vectors (sums within "
                           f"{_SIMPLEX_TOL:g} of 1)",
             (nu >= 0).all() and np.isfinite(nu).all()
             and (np.abs(nu.sum(axis=2) - 1.0) <= _SIMPLEX_TOL).all()),
            ("array 'T'", "must be 0 or 1", ((T == 0) | (T == 1)).all()),
            ("array 'nu'", "rows must be equal where T = 0",
             (nu[T == 0, 0] == nu[T == 0, 1]).all()),
            ("array 'pY1'", "must lie in (0, 1)", ((pY1 > 0) & (pY1 < 1)).all()),
            ("array 'assignments'", f"must lie in 0..{H - 1}",
             ((G >= 0) & (G < H)).all()),
            ("array 'log_joint_trace'", "must be finite",
             np.isfinite(fields["log_joint_trace"]).all()),
        )
    for subject, what, ok in checks:
        if not ok:
            raise ArchiveError(f"{path}: {subject} {what}")


def load_draws_meta(path) -> dict:
    """The meta dict of a draws archive, with V, L, H, R and n from the array
    shapes. Rejects the same malformed headers as load_draws and reads no
    array, except that a version 1 archive's theta and lam are read to
    check lam; array values are checked by load_draws only."""
    with _open_archive(path) as fh:
        meta, specs, dims = _read_header(fh, path)
        if any(name == "lam" for name, _, _ in specs):
            _drop_stored_lam(path, _read_arrays(fh, path, specs, ("lam", "theta")))
    return {**meta, **dims}


def load_draws(path) -> PosteriorDraws:
    """Read a draws archive of either version; malformed archives,
    including ones holding a draw that params_at would reject, raise
    ArchiveError."""
    with _open_archive(path) as fh:
        meta, specs, _ = _read_header(fh, path)
        fields = _read_arrays(fh, path, specs)
    _check_draw_values(path, fields)
    _drop_stored_lam(path, fields)
    return PosteriorDraws(meta=meta, **fields)


def _check_draw_shapes(path, shapes: dict, meta: dict) -> dict:
    """At least one draw, X (K, H, V, R), and every other array shape and
    every dimension in meta consistent with X; returns those dimensions."""
    X, assignments = shapes["X"], shapes["assignments"]
    K, H, V, R = X if len(X) == 4 else (0, 0, 0, 0)
    if min(K, H, R) < 1 or V < 2:
        raise ArchiveError(f"{path}: need at least one draw and X of shape "
                           f"(K, H, V >= 2, R), got {X}")
    dims = {"V": V, "H": H, "R": R, "L": V * (V - 1) // 2,
            "n": assignments[1] if len(assignments) == 2 else -1}
    expected = {"Z": (K, dims["L"]), "lam": (K, H, R), "theta": (K, H, R),
                "nu": (K, 2, H), "pY1": (K,), "T": (K,),
                "assignments": (K, dims["n"]),
                "log_joint_trace": (math.prod(shapes["log_joint_trace"]),)}
    for name, shape in expected.items():
        if shapes.get(name, shape) != shape:
            raise ArchiveError(f"{path}: array {name!r} has shape "
                               f"{shapes[name]}, expected {shape}")
    bad = {key: meta[key] for key, value in dims.items() if meta.get(key, value) != value}
    if bad:
        raise ArchiveError(f"{path}: meta {bad} disagrees with the array shapes {dims}")
    return dims


# test report artifacts

def _report_dict(report: TestReport) -> dict:
    return {
        "pr_H1": report.pr_H1,
        "epsilon": report.epsilon,
        "decision_cutoff": report.decision_cutoff,
        "rho_exceed": [float(x) for x in report.rho_exceed],
        "edge_diff": [float(x) for x in report.edge_diff],
        "significant_edges": [int(x) for x in report.significant_edges],
    }


def save_test_report(report: TestReport, path) -> None:
    atomic_write_text(path, json.dumps(_report_dict(report), sort_keys=True,
                                       separators=(",", ": ")) + "\n")


def load_test_report(path) -> TestReport:
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not a JSON test report") from exc
    try:
        report = TestReport(
            pr_H1=payload["pr_H1"],
            rho_exceed=np.asarray(payload["rho_exceed"], dtype=np.float64),
            epsilon=float(payload["epsilon"]),
            edge_diff=np.asarray(payload["edge_diff"], dtype=np.float64),
            decision_cutoff=float(payload["decision_cutoff"]),
        )
        if not np.array_equal(np.asarray(payload["significant_edges"], dtype=bool),
                              report.significant_edges):
            raise ValueError("significant edges must be those whose "
                             "exceedance probability is above the cutoff")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed test report ({exc})") from exc
    return report


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def write_draws_table(draws: PosteriorDraws, path) -> None:
    """Per-draw CSV of pY1, T, both groups' mixing weights and lam."""
    lam = draws.lam
    H, R = lam.shape[1:]
    header = ["draw", "pY1", "T", *(f"nu{y}_{h + 1}" for y in (0, 1) for h in range(H)),
              *(f"lam_{h + 1}_{r + 1}" for h in range(H) for r in range(R))]
    rows = ([k + 1, _fmt(draws.pY1[k]), int(draws.T[k]),
             *map(_fmt, draws.nu[k].ravel()), *map(_fmt, lam[k].ravel())]
            for k in range(draws.n_draws))
    _write_table(path, rows, header)


def write_edge_table(report: TestReport, path,
                     metadata: tuple[NodeMetadata, ...] | None = None) -> None:
    """Per-edge CSV: linear index, node pair (1-based, with names when
    metadata is present), exceedance probability, mean difference, flag."""
    emap = edge_index_map(report.V)
    header = ("edge", "v", "u", "rho_exceed", "edge_diff", "significant")
    rows = zip(range(1, report.L + 1), (emap.rows0 + 1).tolist(),
               (emap.cols0 + 1).tolist(), map(_fmt, report.rho_exceed),
               map(_fmt, report.edge_diff),
               report.significant_edges.astype(int).tolist())
    if metadata is not None:
        header += ("v_name", "u_name")
        rows = (row + (metadata[row[1] - 1].name, metadata[row[2] - 1].name)
                for row in rows)
    _write_table(path, rows, header)


def write_degree_table(degrees: np.ndarray, path,
                       metadata: tuple[NodeMetadata, ...] | None = None) -> None:
    """Per-node count of flagged edges, with anatomy columns when known."""
    counts = enumerate(np.asarray(degrees).astype(int).tolist(), start=1)
    if metadata is None:
        _write_table(path, counts, ("node", "degree"))
        return
    rows = ((v, md.name, md.hemisphere, md.lobe, d)
            for (v, d), md in zip(counts, metadata, strict=True))
    _write_table(path, rows, ("node", "name", "hemisphere", "lobe", "degree"))


def write_difference_matrix(report: TestReport, path) -> None:
    """V x V matrix of posterior mean edge-probability differences."""
    M = matricize(report.edge_diff, report.V)
    _write_table(path, (map(_fmt, row) for row in M))


def write_predictions(result: ClassificationResult, path) -> None:
    rows = zip(result.subject_ids, result.labels.tolist(),
               map(_fmt, result.probabilities), result.predicted.tolist())
    _write_table(path, rows, ("subject_id", "label", "prob_group1", "predicted"))


def save_classification(auc: float | None, accuracy: float, n: int, path) -> None:
    """auc is None (null in the file) for a single-group cohort."""
    payload = {"auc": auc, "accuracy": accuracy, "n_subjects": n,
               "threshold": 0.5}
    atomic_write_text(path, json.dumps(payload, sort_keys=True,
                                       separators=(",", ": ")) + "\n")


def load_classification(path) -> dict:
    """The payload of save_classification; it must be an object with auc
    (or null, for a single-group cohort) and accuracy, numbers in [0, 1],
    and n_subjects, a non-negative integer."""
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: corrupt JSON") from exc
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path}: expected a JSON object")
    for key in ("auc", "accuracy", "n_subjects"):
        value = payload.get(key)
        if key == "auc" and key in payload and value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DataFormatError(f"{path}: {key!r} must be a number, got {value!r}")
        if key == "n_subjects":
            if not isinstance(value, int) or value < 0:
                raise DataFormatError(
                    f"{path}: 'n_subjects' must be a non-negative integer, got {value!r}")
        elif not 0.0 <= value <= 1.0:  # NaN fails too
            raise DataFormatError(f"{path}: {key!r} must lie in [0, 1], got {value!r}")
    return payload


def render_report(fit_meta: dict | None = None,
                  test_report: TestReport | None = None,
                  classification: dict | None = None) -> str:
    """Markdown summary of whichever artifacts exist."""
    lines = ["# Cohort analysis summary", ""]
    if fit_meta is not None:
        n0, n1 = fit_meta.get("n0"), fit_meta.get("n1")
        sampler = fit_meta.get("sampler", {})
        lines += [
            "## Fit",
            "",
            f"- subjects: {fit_meta.get('n')} (group 0: {n0}, group 1: {n1})",
            f"- nodes: {fit_meta.get('V')}, edges: {fit_meta.get('L')}",
            f"- mixture components: {fit_meta.get('H')}, rank: {fit_meta.get('R')}",
            f"- iterations: {sampler.get('n_iter')} "
            f"(burn-in {sampler.get('burn_in')}, thin {sampler.get('thin')}, "
            f"seed {sampler.get('seed')})",
            f"- data checksum: {fit_meta.get('data_checksum')}",
            "",
        ]
    if test_report is not None:
        n_sig = int(test_report.significant_edges.sum())
        pr = ("not available (single-group cohort)" if test_report.pr_H1 is None
              else _fmt(test_report.pr_H1))
        lines += [
            "## Group comparison",
            "",
            f"- posterior probability of group dependence: {pr}",
            f"- relevance threshold epsilon: {_fmt(test_report.epsilon)}",
            f"- decision cutoff: {_fmt(test_report.decision_cutoff)}",
            f"- flagged edges: {n_sig} of {test_report.L}",
            "",
        ]
    if classification is not None:
        auc = ("not available (single-group cohort)" if classification["auc"] is None
               else _fmt(classification["auc"]))
        lines += [
            "## Classification",
            "",
            f"- subjects scored: {classification.get('n_subjects')}",
            f"- AUC: {auc}",
            f"- accuracy at 0.5: {_fmt(classification['accuracy'])}",
            "",
        ]
    if fit_meta is None and test_report is None and classification is None:
        lines += ["No artifacts found.", ""]
    return "\n".join(lines)

"""Dataset ingestion, scaling, FSDS/CDS construction, and result persistence.

File formats: CSV with a header row, comma delimiter, UTF-8 and '.' decimals;
IDX image/label pairs (big-endian magic 0x00000803 / 0x00000801, unsigned
bytes). Every write streams through ``open_atomic``, a temp-file-then-rename,
so partial files never appear under the final name.

A large CSV is read and written on every CPU of the affinity mask through
``workers.ordered_map``, in byte ranges of its body or blocks of its rows.
Neither the data, a file's bytes nor a fault's message depends on the CPUs.
"""

from __future__ import annotations

import array
import codecs
import csv
import functools
import io
import json
import math
import os
import shutil
import struct
import tempfile
from contextlib import closing, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ensemble import SelectionResult
from .evaluate import EvalReport
from .exceptions import DataError, FormatError, ParameterError, ParseError
from .sampling import LabeledDataset, stratified_rows
from .workers import ordered_map

SCALING_MODES = ("unit_interval", "symmetric_unit")

# load_csv parses a range of a CSV body in a process of its own only if the
# range holds at least this many bytes: a fork and its answer cost about as
# much as parsing 0.2 MB of float cells.
CSV_RANGE_BYTES = 512 * 1024

# save_csv cuts a block of rows for each CPU only if each holds at least this
# many cells: a fork and its answer cost about as much as formatting 7k cells.
CSV_BLOCK_CELLS = 16 * 1024


# ---------------------------------------------------------------------------
# CSV

def load_csv(path, label, minority_label=None) -> LabeledDataset:
    """Load a numeric CSV with a header row into a LabeledDataset.

    ``label`` is the label column name or 0-based index. The label column
    must hold exactly two distinct values; the rarer one maps to 1, with
    ``minority_label`` as explicit override (required on a tie).

    A body of at least two CSV_RANGE_BYTES is cut at line ends into up to one
    range per CPU of the affinity mask, and the ranges are parsed through
    ``workers.ordered_map`` (see _parse_ranges). Any other file, and any file
    with a range that one pass might read otherwise, is parsed in one pass:
    feature cells are parsed with ``float`` straight into one contiguous
    buffer that becomes ``X`` without a copy, so the parse holds little more
    than ``X`` itself. Only a record holding a cell ``float`` rejects is
    parsed again cell by cell, to name that cell in the ParseError. Faults
    are only ever reported by the one pass, so neither the data nor a fault's
    message depends on the number of CPUs.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    feature_names, values, raw_labels = _parse_ranges(path, label) or _parse(path, label)

    if not raw_labels:
        raise DataError(f"{path}: no data rows")
    distinct = sorted(set(raw_labels))
    if len(distinct) != 2:
        raise DataError(
            f"label column must hold exactly two distinct values, found {distinct}"
        )
    counts = {v: raw_labels.count(v) for v in distinct}
    if minority_label is not None:
        minority = str(minority_label)
        if minority not in counts:
            raise DataError(f"minority label {minority!r} not among {distinct}")
    elif counts[distinct[0]] == counts[distinct[1]]:
        raise DataError(
            "classes are the same size; pass an explicit minority label"
        )
    else:
        minority = min(counts, key=counts.get)

    X = np.frombuffer(values).reshape(len(raw_labels), len(feature_names))
    finite = np.isfinite(X)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ParseError(
            f"non-finite value {float(X[row, col])!r} in column {feature_names[col]!r}",
            line=int(row) + 2,
        )
    y = np.array([1 if v == minority else 0 for v in raw_labels], dtype=np.int64)
    return LabeledDataset(X=X, y=y, feature_names=feature_names)


def _label_index(header, label):
    """The index in ``header`` of the label column ``label``, a name or an index."""
    if isinstance(label, int):
        if not 0 <= label < len(header):
            raise DataError(f"label column index {label} out of range")
        return label
    if label not in header:
        raise DataError(f"label column {label!r} not in header {header}")
    return header.index(label)


def _parse(path, label):
    """(feature names, feature values, labels) of the CSV at ``path``, in one pass."""
    with path.open(newline="", encoding="utf-8-sig") as fh:  # -sig drops a leading BOM
        reader = _records(csv.reader(_decoded_lines(fh, path)))
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("file is empty", line=1) from None
        label_idx = _label_index(header, label)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]

        values, raw_labels = array.array("d"), []
        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, found {len(record)}", line=lineno
                )
            raw_labels.append(record.pop(label_idx))
            try:
                values.extend(map(float, record))
            except ValueError:
                _raise_non_numeric(record, feature_names, lineno)
                raise
    return feature_names, values, raw_labels


def _parse_ranges(path, label):
    """(feature names, feature values, labels) of the CSV at ``path``, parsed in ranges.

    The body after a one-line header is cut after a newline into up to one
    range per CPU of the affinity mask, each of at least CSV_RANGE_BYTES, and
    each range is parsed by _parse_range through ``workers.ordered_map``. Its
    values are appended, in order, to one growing buffer. None, and every
    child killed, if the file is not a regular file, the body is too small to
    cut, or the header or a range holds an irregular line (see
    _regular_lines) or a fault: the caller then parses the whole file in one
    pass.
    """
    if not path.is_file():  # a pipe has no size, and a first read would consume it
        return None
    with path.open("rb") as fh:
        head = fh.readline()
    cuts = _line_cuts(path, len(head), path.stat().st_size)
    if len(cuts) < 3:
        return None
    head = head.removeprefix(codecs.BOM_UTF8)  # as one pass drops a leading BOM
    try:
        line = next(_regular_lines(io.BytesIO(head), 0, len(head)))
    except ValueError:
        return None
    header = next(csv.reader([line]))
    try:
        label_idx = _label_index(header, label)
    except DataError:  # one pass may meet a fault before it
        return None

    values, raw_labels = array.array("d"), []
    parse = functools.partial(_parse_range, path, len(header), label_idx)
    with closing(ordered_map(parse, zip(cuts, cuts[1:]))) as parsed:
        for records in parsed:
            if records is None:
                return None
            features, labels = records
            values.frombytes(features)
            raw_labels += labels
            del records, features  # let the range's values go before the next range arrives
    return [h for i, h in enumerate(header) if i != label_idx], values, raw_labels


def _line_cuts(path, start, stop):
    """[start, ..., stop]: cuts of the bytes between into up to one range per CPU.

    Each inner cut follows a newline, and each range holds at least
    CSV_RANGE_BYTES, so a small body is one range.
    """
    ranges = min(len(os.sched_getaffinity(0)), (stop - start) // CSV_RANGE_BYTES)
    cuts = [start]
    with path.open("rb") as fh:
        for i in range(1, ranges):
            fh.seek(start + (stop - start) * i // ranges - 1)
            fh.readline()
            if cuts[-1] < fh.tell() < stop:
                cuts.append(fh.tell())
    return [*cuts, stop]


def _parse_range(path, fields, label_idx, span):
    """(feature values as bytes, labels) of the records in bytes ``span`` of the CSV at ``path``.

    The records are parsed by ``np.loadtxt``, which converts a cell with the
    function ``float`` uses and accepts no cell ``float`` rejects, so its
    values are those of one pass bit for bit. None if a line is irregular or
    a record fails to parse: only one pass reports a fault with its line.
    """
    labels = []

    def label(cell):
        labels.append(cell)
        return 0.0

    try:
        with path.open("rb") as fh:
            rows = np.loadtxt(_regular_lines(fh, *span), delimiter=",", comments=None,
                              converters={label_idx: label}, ndmin=2)
    except ValueError:  # UnicodeDecodeError is one too
        return None
    if rows.shape[1] != fields:  # the first record sets loadtxt's field count
        return None
    return np.delete(rows, label_idx, axis=1).reshape(-1).view(np.uint8), labels


def _regular_lines(fh, start, stop):
    """The lines in bytes ``[start, stop)`` of binary file ``fh``, decoded as UTF-8.

    A line that one pass might not read as one record split at every comma
    raises ValueError: a quote may open a field that runs on across lines, a
    carriage return ends a line, a blank line is a record of no fields (which
    ``np.loadtxt`` skips) and a field longer than ``csv.field_size_limit()``
    is a fault.
    """
    fh.seek(start)
    limit = csv.field_size_limit()
    while fh.tell() < stop:
        line = fh.readline().decode("utf-8")
        if ('"' in line or "\r" in line or line == "\n"
                or len(line) > limit and max(map(len, line.split(","))) > limit):
            raise ValueError("an irregular line")
        yield line


def _raise_non_numeric(cells, names, lineno):
    """Raise ParseError naming the first of ``cells`` that ``float`` rejects."""
    for cell, name in zip(cells, names):
        try:
            float(cell)
        except ValueError:
            raise ParseError(
                f"non-numeric value {cell!r} in column {name!r}", line=lineno
            ) from None


def _decoded_lines(fh, path):
    """The lines of text file ``fh``; bytes that are not UTF-8 raise ParseError.

    The text reader decodes ahead in chunks, so its error cannot say which
    line held the byte; the file is decoded again to find it.
    """
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raw = path.read_bytes()
        try:
            raw.decode("utf-8")
            line = None  # the file changed after the failed read
        except UnicodeDecodeError as first:
            line = raw.count(b"\n", 0, first.start) + 1
        raise ParseError(f"not UTF-8: {exc.reason}", line=line) from None


def _records(reader):
    """The records of csv ``reader``; one it cannot split raises ParseError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


def save_csv(dataset: LabeledDataset, path, label_name: str = "label") -> None:
    """Write a LabeledDataset as CSV; floats keep full round-trip precision.

    Each block of rows, up to one per CPU, is formatted apart (see _write_labelled).
    """
    X, y = dataset.X, dataset.y
    n = max(1, min(len(os.sched_getaffinity(0)), X.size // CSV_BLOCK_CELLS, len(X)))
    _write_labelled(path, dataset.feature_names, label_name,
                    lambda parts, rows: _write_part(parts, X[rows], y[rows]),
                    [slice(len(X) * i // n, len(X) * (i + 1) // n) for i in range(n)])


def _labelled_rows(matrix, labels):
    """CSV cells of each float64 row (``repr`` round-trips) and its integer label."""
    return ([*map(repr, row.tolist()), str(int(label))] for row, label in zip(matrix, labels))


# ---------------------------------------------------------------------------
# IDX (MNIST-style image archives)

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_idx(path, expected_magic: int) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with path.open("rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated IDX header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expected_magic:
        raise FormatError(
            f"{path}: bad IDX magic 0x{magic:08X}, expected 0x{expected_magic:08X}"
        )
    ndim = magic & 0xFF
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise FormatError(f"{path}: truncated IDX dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header_end])
    data = np.frombuffer(raw, dtype=np.uint8, offset=header_end)
    if data.size != math.prod(dims):  # exact: np.prod wraps in int64
        raise FormatError(f"{path}: payload size does not match dimensions {dims}")
    return data.reshape(dims)


def load_idx_images(images_path, labels_path, class_pair, counts=None) -> LabeledDataset:
    """Load an IDX image/label pair filtered to two classes.

    ``class_pair`` is (majority_label, minority_label); ``counts`` optionally
    caps each class at (n_majority, n_minority) rows, taking the first
    occurrences in file order. Pixels are flattened row-major.
    """
    if class_pair[0] == class_pair[1]:
        raise DataError(f"majority and minority label are both {class_pair[0]!r}")
    images = _read_idx(images_path, _IDX_IMAGES_MAGIC)
    labels = _read_idx(labels_path, _IDX_LABELS_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"image count {images.shape[0]} != label count {labels.shape[0]}"
        )
    flat = images.reshape(images.shape[0], -1)

    kept = []
    for value, cap in zip(class_pair, counts if counts is not None else (None, None)):
        idx = np.flatnonzero(labels == value)
        if len(idx) == 0:
            raise DataError(f"no rows with label {value!r}")
        if cap is not None:
            if cap < 1:
                raise DataError(f"label {value!r}: requested {cap} rows; need at least 1")
            if len(idx) < cap:
                raise DataError(
                    f"label {value!r} has {len(idx)} rows, fewer than requested {cap}"
                )
            idx = idx[:cap]
        kept.append(idx)

    # Only the kept rows are converted; uint8 -> float64 is exact.
    names = [f"px{i}" for i in range(flat.shape[1])]
    return LabeledDataset(
        X=flat[np.concatenate(kept)].astype(np.float64),
        y=np.repeat(np.arange(2, dtype=np.int64), [len(idx) for idx in kept]),
        feature_names=names,
    )


# ---------------------------------------------------------------------------
# FSDS / CDS construction

@dataclass(frozen=True)
class DatasetSplitSpec:
    """How to carve the selection dataset out of the full pool."""

    fsds_fraction: float = 0.75
    split_seed: int = 0
    minority_subsample: int = None

    def __post_init__(self):
        if not 0.0 < self.fsds_fraction < 1.0:
            raise ParameterError("fsds_fraction must lie in (0, 1)")
        if self.split_seed < 0:
            raise ParameterError(f"split seed must be non-negative, got {self.split_seed}")
        if self.minority_subsample is not None and self.minority_subsample < 2:
            raise ParameterError("minority_subsample must be at least 2")


def build_fsds_cds(data: LabeledDataset, spec: DatasetSplitSpec):
    """Split into disjoint (selection, classification) datasets, stratified.

    An optional minority subsample (uniform, without replacement) is applied
    first; each class then contributes round(fsds_fraction * class size)
    rows to the selection side. Deterministic given split_seed.
    """
    rng = np.random.default_rng(spec.split_seed)
    if spec.minority_subsample is not None:
        minority_idx = np.flatnonzero(data.y == 1)
        if spec.minority_subsample > len(minority_idx):
            raise DataError(
                f"minority_subsample {spec.minority_subsample} exceeds minority size "
                f"{len(minority_idx)}"
            )
        keep_min = rng.choice(minority_idx, size=spec.minority_subsample, replace=False)
        keep = np.sort(np.concatenate([np.flatnonzero(data.y == 0), keep_min]))
        data = data.subset(keep)

    fsds_idx, cds_idx = stratified_rows(data.y, spec.fsds_fraction, rng)
    return data.subset(np.sort(fsds_idx)), data.subset(np.sort(cds_idx))


# ---------------------------------------------------------------------------
# Feature scaling

@dataclass
class ScalingParams:
    """Per-feature affine map fit on training data; later data is clipped."""

    mode: str
    minimums: np.ndarray
    maximums: np.ndarray

    def __post_init__(self):
        if self.mode not in SCALING_MODES:
            raise ParameterError(f"unknown scaling mode {self.mode!r}")
        self.minimums = np.asarray(self.minimums, dtype=np.float64)
        self.maximums = np.asarray(self.maximums, dtype=np.float64)
        if np.any(self.maximums < self.minimums):
            raise DataError("per-feature max must be >= min")

    @property
    def target_range(self):
        return (0.0, 1.0) if self.mode == "unit_interval" else (-1.0, 1.0)


def fit_scaling(train_matrix, mode: str) -> ScalingParams:
    x = np.asarray(train_matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("scaling needs a non-empty 2-D matrix")
    return ScalingParams(mode=mode, minimums=x.min(axis=0), maximums=x.max(axis=0))


def apply_scaling(params: ScalingParams, matrix) -> np.ndarray:
    """Map features into the target range; constant features hit the midpoint."""
    x = np.asarray(matrix, dtype=np.float64)
    span = params.maximums - params.minimums
    lo, hi = params.target_range
    # One new buffer, scaled in place; ``matrix`` is left as it was.
    scaled = np.subtract(x, params.minimums)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled /= span
    scaled *= hi - lo
    scaled += lo
    scaled[..., span == 0] = (lo + hi) / 2.0
    return np.clip(scaled, lo, hi, out=scaled)


# ---------------------------------------------------------------------------
# Result persistence

@contextmanager
def open_atomic(path):
    """Yield a text handle on a temp file that replaces ``path`` only on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.umask(umask := os.umask(0o077))  # the umask is read by setting it
            os.fchmod(fd, 0o666 & ~umask)  # as a plain open would; mkstemp made it 0600
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header_line(header) -> str:
    """The CSV header line, quoted where names need it."""
    # With "\r\n" as terminator, every Python version quotes names holding CR or LF.
    line = io.StringIO()
    csv.writer(line, lineterminator="\r\n").writerow(header)
    return line.getvalue()[:-2] + "\n"


def write_csv(path, header, rows) -> None:
    """Stream a header, quoted where names need it, and rows of string cells to ``path``."""
    with open_atomic(path) as fh:
        fh.write(_header_line(header))
        fh.writelines(",".join(row) + "\n" for row in rows)


def save_json(obj, path) -> None:
    """Write strict JSON: a NaN or infinity raises ValueError instead of writing a bare token."""
    with open_atomic(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def save_selection(result: SelectionResult, path) -> None:
    doc = {
        "delta_quantile": result.delta_quantile,
        "threshold": result.threshold,
        "n_selected": int(result.n_selected),
        "selected": [int(i) for i in result.selected],
        "delta": [float(v) for v in result.delta],
    }
    if result.l_min is not None:
        doc["l_min"] = [float(v) for v in result.l_min]
    if result.l_maj is not None:
        doc["l_maj"] = [float(v) for v in result.l_maj]
    save_json(doc, path)


def _field(doc: dict, key: str, kinds=(int, float), dtype=None):
    """doc[key]: one number as a float (no dtype), or a JSON list of them as an array."""
    items = [doc[key]] if dtype is None else doc[key]
    if not isinstance(items, list) or not all(type(v) in kinds for v in items):
        what = "a number" if dtype is None else f"a list of {'/'.join(k.__name__ for k in kinds)}"
        raise ValueError(f"{key!r} must be {what}")
    if not all(map(math.isfinite, items)):
        raise ValueError(f"{key!r} must be finite")
    return float(items[0]) if dtype is None else np.array(items, dtype=dtype)


def load_selection(path) -> SelectionResult:
    """Read a selection file; a malformed document raises ParseError naming ``path``."""
    try:
        with Path(path).open(encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        selected = _field(doc, "selected", (int,), np.int64)
        if np.any(selected[1:] <= selected[:-1]):
            raise ValueError("'selected' must be strictly ascending")
        return SelectionResult(
            delta=_field(doc, "delta", dtype=np.float64),
            delta_quantile=_field(doc, "delta_quantile"),
            threshold=_field(doc, "threshold"),
            selected=selected,
            l_min=_field(doc, "l_min", dtype=np.float64) if "l_min" in doc else None,
            l_maj=_field(doc, "l_maj", dtype=np.float64) if "l_maj" in doc else None,
        )
    except KeyError as exc:
        raise ParseError(f"{path}: selection file missing key {exc}") from None
    except (ValueError, OverflowError) as exc:  # ValueError also covers bad JSON and UTF-8
        raise ParseError(f"{path}: malformed selection file: {exc}") from None


def _table(items, columns: str):
    """(header, rows) for write_csv; floats round-trip through repr, None is the baseline."""
    def cell(v):
        return "baseline" if v is None else repr(float(v)) if isinstance(v, float) else str(v)
    header = columns.split(",")
    return header, [[cell(getattr(item, c)) for c in header] for item in items]


def selection_summary_table(results):
    return _table(results, "delta_quantile,threshold,n_selected")


def report_rows_table(report: EvalReport):
    return _table(report.rows, "classifier,delta_quantile,trial,n_features,auroc,sensitivity,note")


def report_summary_table(report: EvalReport):
    return _table(report.summaries, "classifier,delta_quantile,n_features,auroc_mean,auroc_std,"
                                    "sensitivity_mean,sensitivity_std,note")


def report_to_dict(report: EvalReport) -> dict:
    """Rows and summaries as dicts; NaN, the score of a skipped selection, becomes None."""
    def plain(item):
        return {k: None if isinstance(v, float) and math.isnan(v) else v
                for k, v in vars(item).items()}
    return {"rows": [plain(r) for r in report.rows],
            "summaries": [plain(s) for s in report.summaries]}


def export_q_csv(block_of, path, feature_names, items) -> None:
    """Write Q with a label column: the REMatrix block ``block_of(item)`` for each of ``items``.

    A block is formatted by the process that made it (see _write_labelled),
    and let go before that process makes another.
    """
    def write_block(parts, item):
        block = block_of(item)
        return _write_part(parts, block.Q, block.labels)

    _write_labelled(path, feature_names, "label", write_block, items)


def _write_labelled(path, names, label_name, write_part, items) -> None:
    """Write a float matrix with a label column to ``path``, one part file per item, in order.

    ``write_part(parts, item)`` runs through ``workers.ordered_map`` and answers as
    _write_part does; each part is appended after the header, then deleted. No item,
    or a width other than that of ``names`` (default f0, f1, ...), raises DataError.
    On any failure the workers are killed, and the parts and the temp file removed.
    """
    path = Path(path)
    with open_atomic(path) as fh, tempfile.TemporaryDirectory(
            dir=path.parent, prefix=f".{path.name}.", suffix=".parts") as parts:
        with closing(ordered_map(functools.partial(write_part, parts), items)) as written:
            for part, width in written:
                if not fh.tell():  # the first part
                    names = names or [f"f{i}" for i in range(width)]
                    if len(names) != width:
                        raise DataError("feature_names length must match Q columns")
                    fh.write(_header_line([*names, label_name]))
                fh.flush()
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
                os.unlink(part)
        if not fh.tell():
            raise DataError("Q has no rows")


def _write_part(parts, matrix, labels):
    """(path, column count) of a new file in ``parts`` holding the CSV lines of ``matrix``."""
    fd, part = tempfile.mkstemp(dir=parts)
    with open(fd, "w", encoding="utf-8") as out:
        out.writelines(",".join(row) + "\n" for row in _labelled_rows(matrix, labels))
    return part, matrix.shape[1]

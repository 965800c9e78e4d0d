"""CSV/IDX loading, dataset carving, scaling, and persistence round trips."""

import bisect
import csv
import json
import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from refsel import (
    DatasetSplitSpec,
    LabeledDataset,
    apply_scaling,
    build_fsds_cds,
    fit_scaling,
    load_csv,
    load_idx_images,
    load_selection,
    save_csv,
    save_selection,
    select_features,
)
from refsel import data as data_module
from refsel.data import ScalingParams, export_q_csv, write_csv
from refsel.ensemble import REMatrix
from refsel.exceptions import DataError, FormatError, ParameterError, ParseError


# ---------------------------------------------------------------------------
# CSV

def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def cut_fine(monkeypatch, cpus):
    """Report ``cpus`` CPUs; cut CSV bodies into few-byte ranges, saved rows into small blocks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(data_module, "CSV_RANGE_BYTES", 4)
    monkeypatch.setattr(data_module, "CSV_BLOCK_CELLS", 1)


def no_process_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_load_csv_minority_by_count(tmp_path):
    path = write(tmp_path, "d.csv", "f1,f2,target\n1,2,a\n3,4,a\n5,6,b\n")
    data = load_csv(path, label="target")
    assert data.y.tolist() == [0, 0, 1]
    assert data.feature_names == ["f1", "f2"]
    assert np.array_equal(data.X, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_label_by_index(tmp_path):
    path = write(tmp_path, "d.csv", "target,f1\na,1\na,2\nb,3\n")
    data = load_csv(path, label=0)
    assert data.y.tolist() == [0, 0, 1]
    assert data.feature_names == ["f1"]


def test_load_csv_non_numeric_cell_cites_line(tmp_path):
    rows = ["f1,f2,target"] + [f"{i},1,a" for i in range(4)] + ["oops,1,b", "7,1,b"]
    path = write(tmp_path, "d.csv", "\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="line 6"):
        load_csv(path, label="target")


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
def test_load_csv_non_finite_cell_cites_line_and_column(tmp_path, cell):
    path = write(tmp_path, "d.csv", f"f1,f2,target\n1,2,a\n3,4,a\n5,{cell},b\n")
    with pytest.raises(ParseError, match=r"line 4: non-finite value .* in column 'f2'"):
        load_csv(path, label="target")


@pytest.mark.parametrize("bad_line", [1, 2, 1500])
def test_load_csv_invalid_utf8_cites_line(tmp_path, bad_line):
    # Line 1500 lies beyond the first chunk the text reader decodes.
    lines = [b"f1,f2,target"] + [b"%d,1,%s" % (i, b"ab"[i % 2:i % 2 + 1]) for i in range(2000)]
    lines[bad_line - 1] += b"\xff"
    path = tmp_path / "d.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ParseError, match=f"line {bad_line}: not UTF-8"):
        load_csv(path, label="target")


@pytest.mark.parametrize("header, label, names", [
    ("label,f0,f1", "label", ["f0", "f1"]),
    ("f0,label,f1", "label", ["f0", "f1"]),
])
def test_load_csv_ignores_a_leading_bom(tmp_path, header, label, names):
    path = tmp_path / "d.csv"
    path.write_bytes(b"\xef\xbb\xbf" + f"{header}\n0,0,3\n0,0,6\n1,1,9\n".encode())
    data = load_csv(path, label=label)
    assert data.feature_names == names
    assert data.X.shape == (3, 2)


def test_load_csv_invalid_utf8_after_a_bom_cites_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"\xef\xbb\xbff1,target\n1,a\n2,a\xff\n3,b\n")
    with pytest.raises(ParseError, match="line 3: not UTF-8"):
        load_csv(path, label="target")


def test_load_csv_unclosed_quote_cites_line(tmp_path):
    # A stray quote runs its field past the csv module's field size limit.
    text = 'f1,f2,target\n1,2,a\n"3,4,b\n' + "5,6,a\n" * 30000
    path = write(tmp_path, "d.csv", text)
    with pytest.raises(ParseError, match=r"line \d+: field larger than field limit"):
        load_csv(path, label="target")


def test_load_csv_ragged_row_cites_line(tmp_path):
    path = write(tmp_path, "d.csv", "f1,f2,target\n1,2,a\n3,4\n5,6,b\n")
    with pytest.raises(ParseError, match="line 3"):
        load_csv(path, label="target")


def test_load_csv_rejects_more_than_two_labels(tmp_path):
    path = write(tmp_path, "d.csv", "f,target\n1,a\n2,b\n3,c\n")
    with pytest.raises(DataError, match="two distinct"):
        load_csv(path, label="target")


def test_load_csv_tie_needs_override(tmp_path):
    path = write(tmp_path, "d.csv", "f,target\n1,a\n2,a\n3,b\n4,b\n")
    with pytest.raises(DataError, match="minority"):
        load_csv(path, label="target")


def test_load_csv_minority_override(tmp_path):
    path = write(tmp_path, "d.csv", "f,target\n1,a\n2,a\n3,b\n")
    data = load_csv(path, label="target", minority_label="b")
    assert data.y.tolist() == [0, 0, 1]
    with pytest.raises(DataError, match="not among"):
        load_csv(path, label="target", minority_label="z")
    # Naming the larger class as minority violates the dataset invariant.
    with pytest.raises(DataError, match="minority"):
        load_csv(path, label="target", minority_label="a")


def test_load_csv_missing_label_column(tmp_path):
    path = write(tmp_path, "d.csv", "f,target\n1,a\n2,b\n")
    with pytest.raises(DataError, match="not in header"):
        load_csv(path, label="class")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_csv(tmp_path / "nope.csv", label="target")


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((20, 3)) * np.array([1e-8, 1.0, 1e12])
    y = np.r_[np.zeros(15, dtype=int), np.ones(5, dtype=int)]
    data = LabeledDataset(X=x, y=y, feature_names=["a", "b", "c"])
    path = tmp_path / "round.csv"
    save_csv(data, path)
    back = load_csv(path, label="label")
    assert np.array_equal(back.X, data.X)
    assert np.array_equal(back.y, data.y)
    assert back.feature_names == data.feature_names


def reference_load_csv(path, label, minority_label=None):
    """load_csv as a plain per-cell loop: each row a list of floats, then np.array."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            records = list(reader)
        except csv.Error as exc:
            raise ParseError(str(exc), line=reader.line_num) from None
    if not records:
        raise ParseError("file is empty", line=1)
    header = records[0]
    if isinstance(label, int):
        if not 0 <= label < len(header):
            raise DataError(f"label column index {label} out of range")
        label_idx = label
    else:
        if label not in header:
            raise DataError(f"label column {label!r} not in header {header}")
        label_idx = header.index(label)
    names = [h for i, h in enumerate(header) if i != label_idx]
    rows, raw_labels = [], []
    for lineno, record in enumerate(records[1:], start=2):
        if len(record) != len(header):
            raise ParseError(f"expected {len(header)} fields, found {len(record)}", line=lineno)
        values = []
        for i, cell in enumerate(record):
            if i == label_idx:
                continue
            try:
                values.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"non-numeric value {cell!r} in column {header[i]!r}", line=lineno
                ) from None
        rows.append(values)
        raw_labels.append(record[label_idx])
    if not rows:
        raise DataError(f"{path}: no data rows")
    distinct = sorted(set(raw_labels))
    if len(distinct) != 2:
        raise DataError(f"label column must hold exactly two distinct values, found {distinct}")
    counts = {v: raw_labels.count(v) for v in distinct}
    if minority_label is not None:
        minority = str(minority_label)
        if minority not in counts:
            raise DataError(f"minority label {minority!r} not among {distinct}")
    elif counts[distinct[0]] == counts[distinct[1]]:
        raise DataError("classes are the same size; pass an explicit minority label")
    else:
        minority = min(counts, key=counts.get)
    x = np.array(rows, dtype=np.float64)
    finite = np.isfinite(x)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ParseError(
            f"non-finite value {float(x[row, col])!r} in column {names[col]!r}",
            line=int(row) + 2,
        )
    y = np.array([1 if v == minority else 0 for v in raw_labels], dtype=np.int64)
    return LabeledDataset(X=x, y=y, feature_names=names)


# Cells float() accepts in unusual spellings (a quoted cell reaches float()
# without its quotes), cells that parse to a non-finite value, and cells it
# rejects.
UNUSUAL_CELLS = ["1_000", "+.5", "5.", "-0.0", "5e-324", " 2.5 ", "\t3", "2.2250738585072011e-308",
                 '"7"', '" 1e3"']
NON_FINITE_CELLS = ["1e400", "nan", "inf", "-Infinity"]
INVALID_CELLS = ["1e", "", "abc", "0x10", '"1,5"', "1__0"]
finite_floats = st.floats(allow_nan=False, allow_infinity=False).map(repr)
good_cells = st.one_of(finite_floats, st.sampled_from(UNUSUAL_CELLS))
FAULTS = [None] * 5 + ["invalid", "invalid", "non_finite", "blank", "short", "long", "third_label"]


@st.composite
def csv_documents(draw):
    """(text, label column by name or index, minority label) of a generated CSV.

    Each document carries at most one fault, at a random data row: a bad or
    non-finite cell, a blank line, a record one field short or long, or a
    third label.
    """
    n_columns = draw(st.integers(1, 4))  # 1: a label-only file
    label_idx = draw(st.integers(0, n_columns - 1))
    header = [f"c{i}" for i in range(n_columns)]
    header[label_idx] = "label"
    labels = draw(st.permutations(["b"] * draw(st.integers(1, 3)) + ["a"] * draw(st.integers(0, 6))))
    rows = []
    for value in labels:
        row = [draw(good_cells) for _ in range(n_columns)]
        row[label_idx] = '"b"' if value == "b" and draw(st.booleans()) else value
        rows.append(row)
    fault = draw(st.sampled_from(FAULTS))
    if rows and fault is not None:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        columns = [i for i in range(n_columns) if i != label_idx] or [label_idx]
        cell = draw(st.sampled_from(columns))
        if fault == "invalid":
            row[cell] = draw(st.sampled_from(INVALID_CELLS))
        elif fault == "non_finite":
            row[cell] = draw(st.sampled_from(NON_FINITE_CELLS))
        elif fault == "blank":
            row.clear()
        elif fault == "short":
            row.pop()
        elif fault == "long":
            row.append(draw(good_cells))
        else:
            row[label_idx] = "c"
    lines = [",".join(header)] + [",".join(row) for row in rows]
    label = draw(st.sampled_from(["label", label_idx]))
    minority = draw(st.sampled_from([None, None, None, "a", "b"]))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"])), label, minority


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "d.csv"


@given(csv_documents())
@settings(max_examples=400, deadline=None)
@example(("label,c1\na,1_000\nb,+.5\na,5.\na,-0.0\n", "label", None))
@example(("c0,label\n5e-324,a\n 7 ,a\n\"8\",b\n", 1, "b"))
@example(("label\na\nb\na\n", "label", None))
@example(("c0,label\n", "label", None))
@example(("", 0, None))
def test_load_csv_matches_per_cell_reference(csv_path, document):
    # Each document is also loaded at 1 and 4 reported CPUs with ranges a few
    # bytes long: at 4, a fault may lie in any range, and a fault or a quote
    # in any range sends the whole file to one pass.
    text, label, minority = document
    csv_path.write_text(text, encoding="utf-8", newline="")
    try:
        expected = reference_load_csv(csv_path, label, minority)
    except DataError as exc:
        expected = exc
    for cpus in (None, 1, 4):
        with pytest.MonkeyPatch.context() as monkeypatch:
            if cpus is not None:
                cut_fine(monkeypatch, cpus)
            assert_loads_as(csv_path, label, minority, expected)
        no_process_left()


def assert_loads_as(path, label, minority, expected):
    """load_csv gives ``expected``: the same dataset bit for bit, or its DataError message."""
    if isinstance(expected, DataError):
        with pytest.raises(type(expected)) as got:
            load_csv(path, label, minority)
        assert str(got.value) == str(expected)
        return
    got = load_csv(path, label, minority)
    assert got.X.shape == expected.X.shape
    assert np.array_equal(got.X.view(np.int64), expected.X.view(np.int64))
    assert np.array_equal(got.y, expected.y)
    assert got.feature_names == expected.feature_names


def good_rows(n):
    return "".join(f"{i},{i / 7!r},{'ab'[i % 3 == 0]}\n" for i in range(n))


def invalid_utf8_at_line_1500():
    lines = [b"f1,f2,target"] + [b"%d,1,%s" % (i, b"ab"[i % 2:i % 2 + 1]) for i in range(2000)]
    lines[1499] += b"\xff"
    return b"\n".join(lines) + b"\n"


# (text, the fault's first bytes, the one of 4 ranges it lies in, message)
LATER_FAULTS = {
    "non_numeric": ("f1,f2,target\n" + good_rows(40) + "oops,1,b\n", b"oops", 3,
                    "line 42: non-numeric value 'oops' in column 'f1'"),
    "ragged": ("f1,f2,target\n" + good_rows(40) + "3,4\n", b"3,4\n", 3,
               "line 42: expected 3 fields, found 2"),
    "non_finite": ("f1,f2,target\n" + good_rows(40) + "5,inf,b\n", b"inf", 3,
                   "line 42: non-finite value inf in column 'f2'"),
    "invalid_utf8": (invalid_utf8_at_line_1500(), b"\xff", 2,
                     "line 1500: not UTF-8: invalid start byte"),
    # np.loadtxt takes its field count from a range's first record.
    "every_row_long": ("f1,f2,target\n" + "5,6,b,7\n" * 40, b"5,6,b,7", 3,
                       "line 2: expected 3 fields, found 4"),
    # np.loadtxt skips a blank line; one pass reads it as a record of no fields.
    "blank_line": ("f1,f2,target\n" + good_rows(40) + "\n5,6,a\n", b"\n\n", 3,
                   "line 42: expected 3 fields, found 0"),
    # An unquoted cell that float accepts, but longer than the csv module's field size limit.
    "long_field": ("f1,f2,target\n" + "5,6,a\n" * 60000 + "0." + "0" * 140000 + "1,2,b\n"
                   + "5,6,a\n" * 5000, b"0.000", 2,
                   "line 60002: field larger than field limit (131072)"),
    # A stray quote runs its field past the csv module's field size limit.
    "unclosed_quote": ("f1,f2,target\n" + "5,6,a\n" * 20000 + '"3,4,b\n' + "5,6,a\n" * 30000,
                       b'"', 1, "line 41847: field larger than field limit (131072)"),
}


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("fault", LATER_FAULTS)
def test_load_csv_cites_a_fault_in_a_later_range_as_one_pass_does(tmp_path, monkeypatch,
                                                                  fault, cpus):
    text, marker, in_range, message = LATER_FAULTS[fault]
    text = text if isinstance(text, bytes) else text.encode()
    path = tmp_path / "d.csv"
    path.write_bytes(text)
    with pytest.raises(ParseError) as one_pass:
        load_csv(path, label="target")
    assert str(one_pass.value) == message
    cut_fine(monkeypatch, cpus)
    cuts = data_module._line_cuts(path, len("f1,f2,target\n"), len(text))
    assert len(cuts) == cpus + 1
    if cpus == 4:
        assert bisect.bisect(cuts, text.rfind(marker)) - 1 == in_range
    with pytest.raises(ParseError) as ranged:
        load_csv(path, label="target")
    assert str(ranged.value) == message
    no_process_left()


def test_load_csv_reads_a_quoted_label_with_a_newline_across_a_cut(tmp_path, monkeypatch):
    labels = ['"b\nb"' if i % 3 == 0 else "a" for i in range(40)]
    text = "f1,f2,target\n" + "".join(f"{i},{i / 7!r},{v}\n" for i, v in enumerate(labels))
    path = write(tmp_path, "d.csv", text)
    expected = reference_load_csv(path, "target")
    cut_fine(monkeypatch, 4)
    cuts = data_module._line_cuts(path, len("f1,f2,target\n"), len(text))
    assert any(text[:cut].count('"') % 2 for cut in cuts[1:-1])  # a cut inside a quoted label
    assert_loads_as(path, "target", None, expected)
    no_process_left()


def test_load_csv_parses_a_regular_body_only_in_ranges(tmp_path, monkeypatch):
    text = "f1,f2,target\n" + good_rows(40).replace(",a\n", ", a \n")
    expected = reference_load_csv(write(tmp_path, "d.csv", text), "target")
    path = write(tmp_path, "bom.csv", "\ufeff" + text)  # load_csv drops a leading BOM
    cut_fine(monkeypatch, 4)
    monkeypatch.setattr(data_module, "_parse", None)  # one pass would raise TypeError
    assert_loads_as(path, "target", None, expected)
    no_process_left()


@pytest.mark.parametrize("cpus", [1, 4])
def test_load_csv_reads_an_irregular_header_in_one_pass(tmp_path, monkeypatch, cpus):
    path = write(tmp_path, "d.csv", '"f1",f2,target\n' + good_rows(40))  # a quoted name
    expected = reference_load_csv(path, "target")
    cut_fine(monkeypatch, cpus)
    parse_ranges, ranged = data_module._parse_ranges, []
    monkeypatch.setattr(data_module, "_parse_ranges",
                        lambda *args: ranged.append(parse_ranges(*args)) or ranged[-1])
    monkeypatch.setattr(data_module, "_parse_range", None)  # a range parse would raise TypeError
    assert_loads_as(path, "target", None, expected)
    assert ranged == [None]
    no_process_left()


def test_load_csv_reads_a_pipe_in_one_pass(tmp_path, monkeypatch):
    text = "f1,f2,target\n" + good_rows(40)
    expected = reference_load_csv(write(tmp_path, "d.csv", text), "target")
    pipe = tmp_path / "pipe.csv"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
    writer.start()
    cut_fine(monkeypatch, 4)
    assert_loads_as(pipe, "target", None, expected)
    writer.join(10)
    no_process_left()


def test_load_csv_interrupted_in_a_range_leaves_no_process(tmp_path, monkeypatch):
    path = write(tmp_path, "d.csv", "f1,f2,target\n" + good_rows(40))
    parent, parse_range = os.getpid(), data_module._parse_range

    def interrupted(*args):  # Ctrl-C in this process's range, the others in children
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return parse_range(*args)

    monkeypatch.setattr(data_module, "_parse_range", interrupted)
    cut_fine(monkeypatch, 4)
    with pytest.raises(KeyboardInterrupt):
        load_csv(path, label="target")
    no_process_left()


# ---------------------------------------------------------------------------
# IDX

def write_idx_images(path, images):
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


def make_idx_pair(tmp_path, labels, rows=28, cols=28, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(len(labels), rows, cols), dtype=np.uint16)
    img_path, lab_path = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    write_idx_images(img_path, images)
    write_idx_labels(lab_path, labels)
    return img_path, lab_path, images


def test_idx_magic_mismatch(tmp_path):
    img_path, lab_path, _ = make_idx_pair(tmp_path, [1, 7, 1])
    with pytest.raises(FormatError, match="magic"):
        load_idx_images(lab_path, lab_path, (1, 7))  # labels file has the wrong magic
    with pytest.raises(FormatError, match="magic"):
        load_idx_images(img_path, img_path, (1, 7))


def test_idx_28x28_flattens_to_784(tmp_path):
    labels = [1, 7, 1, 7, 1]
    img_path, lab_path, images = make_idx_pair(tmp_path, labels)
    data = load_idx_images(img_path, lab_path, (1, 7))
    assert data.n_features == 784
    assert data.X.min() >= 0 and data.X.max() <= 255
    assert data.y.tolist() == [0, 0, 0, 1, 1]
    # Row-major flattening: majority rows come first, in file order.
    assert np.array_equal(data.X[0], images[0].reshape(-1).astype(float))


def test_idx_count_filtering(tmp_path):
    labels = [1] * 10 + [7] * 6
    img_path, lab_path, _ = make_idx_pair(tmp_path, labels)
    data = load_idx_images(img_path, lab_path, (1, 7), counts=(8, 3))
    assert data.n_majority == 8
    assert data.n_minority == 3
    with pytest.raises(DataError, match="fewer"):
        load_idx_images(img_path, lab_path, (1, 7), counts=(11, 3))


@pytest.mark.parametrize("class_pair, counts, message", [
    ((1, 7), (-5, None), "requested -5 rows; need at least 1"),
    ((1, 7), (8, 0), "requested 0 rows; need at least 1"),
    ((7, 7), (3, 3), "majority and minority label are both 7"),
], ids=["negative_cap", "zero_cap", "one_class_twice"])
def test_idx_rejects_an_empty_cap_and_one_class_twice(tmp_path, class_pair, counts, message):
    # A negative cap used to drop rows from the end, and one class named twice
    # used to return copies of majority rows as the minority class.
    img_path, lab_path, _ = make_idx_pair(tmp_path, [1] * 10 + [7] * 6)
    with pytest.raises(DataError, match=message):
        load_idx_images(img_path, lab_path, class_pair, counts=counts)


def test_idx_row_count_mismatch(tmp_path):
    img_path, lab_path, _ = make_idx_pair(tmp_path, [1, 7, 1])
    short = tmp_path / "short.idx"
    write_idx_labels(short, [1, 7])
    with pytest.raises(FormatError, match="count"):
        load_idx_images(img_path, short, (1, 7))


# ---------------------------------------------------------------------------
# FSDS / CDS construction

def tagged(n_majority, n_minority):
    n = n_majority + n_minority
    x = np.column_stack([np.arange(n, dtype=float), np.ones(n)])
    y = np.r_[np.zeros(n_majority, dtype=int), np.ones(n_minority, dtype=int)]
    return LabeledDataset(X=x, y=y)


def test_fsds_cds_gisette_shaped_counts():
    fsds, cds = build_fsds_cds(tagged(3000, 300), DatasetSplitSpec(fsds_fraction=0.75, split_seed=1))
    assert (fsds.n_majority, fsds.n_minority) == (2250, 225)
    assert (cds.n_majority, cds.n_minority) == (750, 75)


def test_fsds_cds_small_even_split():
    fsds, cds = build_fsds_cds(tagged(10, 2), DatasetSplitSpec(fsds_fraction=0.5, split_seed=2))
    assert (fsds.n_majority, fsds.n_minority) == (5, 1)
    assert (cds.n_majority, cds.n_minority) == (5, 1)


def test_fsds_cds_partition_is_exact():
    data = tagged(57, 13)
    fsds, cds = build_fsds_cds(data, DatasetSplitSpec(fsds_fraction=0.7, split_seed=3))
    ids = np.sort(np.concatenate([fsds.X[:, 0], cds.X[:, 0]]))
    assert np.array_equal(ids, np.arange(70, dtype=float))


def test_fsds_cds_minority_subsample():
    data = tagged(100, 40)
    spec = DatasetSplitSpec(fsds_fraction=0.75, split_seed=4, minority_subsample=20)
    fsds, cds = build_fsds_cds(data, spec)
    assert fsds.n_minority + cds.n_minority == 20
    assert fsds.n_majority + cds.n_majority == 100
    with pytest.raises(DataError, match="exceeds"):
        build_fsds_cds(data, DatasetSplitSpec(minority_subsample=41))


def test_fsds_cds_deterministic():
    data = tagged(80, 16)
    spec = DatasetSplitSpec(fsds_fraction=0.6, split_seed=5)
    a1, _ = build_fsds_cds(data, spec)
    a2, _ = build_fsds_cds(data, spec)
    assert np.array_equal(a1.X, a2.X)


def test_split_spec_validation():
    with pytest.raises(ParameterError):
        DatasetSplitSpec(fsds_fraction=0.0)
    with pytest.raises(ParameterError):
        DatasetSplitSpec(minority_subsample=1)


# ---------------------------------------------------------------------------
# Scaling

def test_unit_interval_scaling_direct():
    params = fit_scaling(np.array([[0.0], [5.0], [10.0]]), "unit_interval")
    out = apply_scaling(params, np.array([[0.0], [5.0], [10.0]]))
    assert np.allclose(out.ravel(), [0.0, 0.5, 1.0])


def test_constant_feature_maps_to_midpoint():
    params = fit_scaling(np.full((4, 1), 3.3), "unit_interval")
    assert np.allclose(apply_scaling(params, np.full((2, 1), 3.3)), 0.5)
    params = fit_scaling(np.full((4, 1), 3.3), "symmetric_unit")
    assert np.allclose(apply_scaling(params, np.full((2, 1), 3.3)), 0.0)


def test_symmetric_scaling_range():
    params = fit_scaling(np.array([[2.0], [6.0]]), "symmetric_unit")
    out = apply_scaling(params, np.array([[2.0], [4.0], [6.0]]))
    assert np.allclose(out.ravel(), [-1.0, 0.0, 1.0])


def test_unknown_mode_rejected():
    with pytest.raises(ParameterError):
        fit_scaling(np.ones((2, 1)), "zscore")


def test_scaling_rejects_empty_matrix_and_inverted_bounds():
    with pytest.raises(DataError, match="^scaling needs a non-empty 2-D matrix$"):
        fit_scaling(np.zeros((0, 2)), "unit_interval")
    with pytest.raises(DataError, match="^per-feature max must be >= min$"):
        ScalingParams(mode="unit_interval", minimums=np.array([1.0]), maximums=np.array([0.0]))


@given(st.integers(0, 2**32 - 1), st.sampled_from(["unit_interval", "symmetric_unit"]))
@settings(max_examples=50, deadline=None)
def test_scaling_clips_later_data_into_range(seed, mode):
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(10, 3))
    wild = rng.normal(scale=50.0, size=(20, 3))
    params = fit_scaling(train, mode)
    out = apply_scaling(params, wild)
    lo, hi = params.target_range
    assert np.all(out >= lo) and np.all(out <= hi)


def reference_scaling(params, matrix):
    """The out-of-place formula: constant columns by np.where, then np.clip."""
    span = params.maximums - params.minimums
    lo, hi = params.target_range
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = (matrix - params.minimums) / span
    return np.clip(np.where(span == 0, (lo + hi) / 2.0, lo + unit * (hi - lo)), lo, hi)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["unit_interval", "symmetric_unit"]))
@settings(max_examples=50, deadline=None)
def test_scaling_equals_reference_formula_bit_for_bit(seed, mode):
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(10, 5))
    train[:, [1, 4]] = rng.normal(size=2)  # constant columns
    later = np.concatenate([train, rng.normal(scale=50.0, size=(20, 5))])
    later[3, 1] = train[0, 1] + 1.0  # a constant column off its fitted value
    before = later.copy()
    params = fit_scaling(train, mode)
    out = apply_scaling(params, later)
    assert np.array_equal(out.view(np.int64), reference_scaling(params, later).view(np.int64))
    # The input is not scaled in place: the benchmark command scales it twice.
    assert np.array_equal(later.view(np.int64), before.view(np.int64))


# ---------------------------------------------------------------------------
# Persistence

def test_selection_file_round_trip(tmp_path):
    result = select_features([0.3, 0.0, 0.9, 0.1], 0.75, l_min=[1, 1, 2, 1], l_maj=[0.7, 1, 1.1, 0.9])
    path = tmp_path / "sel.json"
    save_selection(result, path)
    back = load_selection(path)
    assert back.delta_quantile == result.delta_quantile
    assert back.threshold == result.threshold
    assert np.array_equal(back.selected, result.selected)
    assert np.array_equal(back.delta, result.delta)
    assert np.array_equal(back.l_min, result.l_min)


def test_export_q_matrix_layout(tmp_path):
    q = REMatrix(Q=np.array([[0.25, 0.5], [0.1, 0.2]]), labels=np.array([1, 0]))
    path = tmp_path / "q.csv"
    export_q_csv(identity, path, ["a", "b"], [q])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,label"
    assert lines[1] == "0.25,0.5,1"
    assert len(lines) == 3


def identity(block):
    """Each item is its own block of Q."""
    return block


def reference_matrix_csv(names, matrix, labels):
    """The text save_csv and export_q_csv wrote when they joined one string."""
    lines = [",".join(list(names))]
    for row, label in zip(matrix, labels):
        lines.append(",".join([repr(float(v)) for v in row] + [str(int(label))]))
    return "\n".join(lines) + "\n"


# Signed zero, the smallest subnormal, a huge value, an inexact decimal and
# integral floats: each has its own repr form.
EDGE_VALUES = np.array([
    [-0.0, 5e-324, 1e308, 0.1],
    [1.0, 2.0, 1e16, 3e-05],
    [0.0, 123456789.0, 0.30000000000000004, 7.5],
    [1e22, 4.0, 2.5e-308, 0.2],
])


@pytest.mark.parametrize("names, label_name", [
    (None, "label"),
    (["a", "b", "c", "d"], "label"),
    (None, "target"),
])
def test_save_csv_matches_joined_reference(tmp_path, monkeypatch, names, label_name):
    data = LabeledDataset(X=EDGE_VALUES, y=np.array([0, 1, 0, 0]), feature_names=names)
    path = tmp_path / "d.csv"
    header = (names or [f"f{i}" for i in range(4)]) + [label_name]
    expected = reference_matrix_csv(header, data.X, data.y).encode()
    save_csv(data, path, label_name=label_name)
    assert path.read_bytes() == expected
    for cpus in (1, 4):  # at 4 CPUs, one row per block
        cut_fine(monkeypatch, cpus)
        save_csv(data, path, label_name=label_name)
        assert path.read_bytes() == expected
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
    no_process_left()


def test_save_csv_interrupted_leaves_no_file_or_process(tmp_path, monkeypatch):
    data = LabeledDataset(X=np.tile(EDGE_VALUES, (3, 1)), y=np.tile([0, 1, 0, 0], 3))
    parent, labelled_rows = os.getpid(), data_module._labelled_rows

    def interrupted(matrix, labels):  # Ctrl-C as this process formats its block, children theirs
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return labelled_rows(matrix, labels)

    monkeypatch.setattr(data_module, "_labelled_rows", interrupted)
    cut_fine(monkeypatch, 4)
    with pytest.raises(KeyboardInterrupt):
        save_csv(data, tmp_path / "d.csv")
    assert list(tmp_path.iterdir()) == []
    no_process_left()


@pytest.mark.parametrize("names", [None, ["w", "x", "y", "z"]])
def test_export_q_csv_matches_joined_reference(tmp_path, names):
    q = REMatrix(Q=np.abs(EDGE_VALUES), labels=np.array([1, 0, 1, 0]))
    q.Q[0, 0] = -0.0  # REMatrix keeps signed zero; repr writes it as -0.0
    path = tmp_path / "q.csv"
    export_q_csv(identity, path, names, [q])
    header = (names or [f"f{i}" for i in range(4)]) + ["label"]
    assert path.read_bytes() == reference_matrix_csv(header, q.Q, q.labels).encode()
    assert path.read_text().splitlines()[1].startswith("-0.0,5e-324,1e+308,0.1,")


def test_export_q_csv_rejects_wrong_name_count(tmp_path, monkeypatch):
    q = REMatrix(Q=np.array([[0.25, 0.5], [0.1, 0.2]]), labels=np.array([1, 0]))
    for cpus in (1, 4):  # at 4, the first block fails while workers hold the next three
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        with pytest.raises(DataError, match="feature_names length") as info:
            export_q_csv(identity, tmp_path / "q.csv", ["a"], [q] * 4)
        assert list(tmp_path.iterdir()) == []
        no_process_left()  # even while the traceback, and the writer's frame, live on


@pytest.mark.parametrize("names, line", [
    (["f0", "f 1"], "f0,f 1,label"),
    (["a\rb", "c"], '"a\rb",c,label'),
    (["a\nb", ""], '"a\nb",,label'),
    (["\r", "a,b", 'say "hi"'], '"\r","a,b","say ""hi""",label'),
], ids=["plain", "cr", "lf", "cr_comma_quote"])
def test_write_csv_quotes_only_names_holding_cr_lf_comma_or_quote(tmp_path, names, line):
    # Before Python 3.13, the csv module quoted only the line terminator's characters.
    path = tmp_path / "out.csv"
    write_csv(path, [*names, "label"], [["1.5", "-2.0", "0"]])
    assert path.read_bytes() == f"{line}\n1.5,-2.0,0\n".encode()


@pytest.mark.parametrize("existing", [None, "old,file\n"])
def test_write_csv_failure_leaves_target_untouched(tmp_path, existing):
    path = tmp_path / "out.csv"
    if existing is not None:
        path.write_text(existing, encoding="utf-8")

    def rows():
        yield ["1", "2"]
        raise RuntimeError("row generator failed")

    with pytest.raises(RuntimeError, match="row generator failed"):
        write_csv(path, ["a", "b"], rows())
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_text(encoding="utf-8") == existing
    assert [p.name for p in tmp_path.iterdir() if p.name != "out.csv"] == []


VALID_SELECTION = {
    "delta_quantile": 0.5, "threshold": 0.2, "n_selected": 1, "selected": [2],
    "delta": [0.1, 0.2, 0.9], "l_min": [1.0, 1.0, 2.0], "l_maj": [0.9, 0.8, 1.1],
}


@pytest.mark.parametrize("change, message", [
    ({"selected": [1.0]}, "'selected' must be a list of int"),
    ({"selected": [True]}, "'selected' must be a list of int"),
    ({"selected": [2 ** 70]}, "too large"),
    ({"delta": 5.0}, "'delta' must be a list"),
    ({"delta": ["0.1", "0.2", "0.9"]}, "'delta' must be a list"),
    ({"threshold": None}, "'threshold' must be a number"),
    ({"l_min": [[1.0]]}, "'l_min' must be a list"),
    ({"delta_quantile": float("nan")}, "'delta_quantile' must be finite"),
    ({"l_maj": [0.9, float("-inf"), 1.1]}, "'l_maj' must be finite"),
    ({"selected": [2, 2, 0]}, "'selected' must be strictly ascending"),
])
def test_load_selection_rejects_wrong_types(tmp_path, change, message):
    # The malformed files a user is likely to hit are in the CLI exit-code tests.
    path = tmp_path / "sel.json"
    path.write_text(json.dumps({**VALID_SELECTION, **change}), encoding="utf-8")
    with pytest.raises(ParseError, match=message) as info:
        load_selection(path)
    assert str(path) in str(info.value)


def test_load_selection_missing_key_and_optional_vectors(tmp_path):
    path = tmp_path / "sel.json"
    doc = {k: v for k, v in VALID_SELECTION.items() if k not in ("l_min", "l_maj")}
    path.write_text(json.dumps(doc), encoding="utf-8")
    back = load_selection(path)
    assert back.l_min is None and back.l_maj is None
    assert back.selected.dtype == np.int64 and back.delta.dtype == np.float64
    del doc["threshold"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError, match="missing key 'threshold'"):
        load_selection(path)


def test_export_q_csv_interrupted_leaves_no_file_or_process(tmp_path, monkeypatch):
    def block_of(i):  # Ctrl-C while this process makes the fifth block, a child the sixth
        if i == 4:
            raise KeyboardInterrupt
        return REMatrix(Q=np.full((40, 3), 0.5), labels=np.repeat([1, 0], 20))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    with pytest.raises(KeyboardInterrupt):
        export_q_csv(block_of, tmp_path / "q.csv", None, range(6))
    assert list(tmp_path.iterdir()) == []
    no_process_left()

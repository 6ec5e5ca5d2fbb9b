"""The columnar validation-CSV reader and estimators against the per-row reference."""

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqsched import (
    IngestError,
    estimate_confusion,
    estimate_rates,
    ingest,
    read_validation_csv,
    scores_by_class,
)
import reference_ingest as ref
from reference_ingest import ValidationRecord, as_table

COLUMNS = ("true_class", "score", "predicted_class", "service_time")
# tokens Python's int/float read in surprising ways, plus plain good and bad ones
TOKENS = ("", " ", "1", "2", "3", " 2 ", "+3", "1_0", "0", "-1", "0.5", ".25",
          "1.5", "1e-3", "nan", "inf", "-inf", "NaN", "abc", "1,5", "0x1", "٣",
          "2.0", "1 2", '"', "\u00a02\u2003", "\u2003",
          # control and separator characters: Python's float refuses them, and
          # str.strip, like numpy, skips all but \x00 as whitespace
          "\x00", "1\x0b", "0.5\x1c", "\x85", "2\u2028", "2\u3000")
# scan chunks of 1, 7 and 64 bytes split the drawn files' lines, headers and
# blank lines, which the default chunk holds whole
CHUNKS = (1, 7, 64, ingest._SCAN_BYTES)


# TOKENS that every row may hold in the column: Python's int or float reads
# them in range, or they are blank where the column may be blank
READABLE = {"true_class": ("1", "2", "3", " 2 ", "+3", "1_0", "٣", "\u00a02\u2003"),
            "score": ("", "0", "0.5", ".25", "1e-3", "\x85"),
            "predicted_class": ("", " ", "1", "2", "3", "+3", "\u2003"),
            "service_time": ("", "1.5", "1e-3", "2.0", " 2 ", "2\u3000")}


@st.composite
def csv_texts(draw):
    """Validation CSVs with optional, repeated or unknown columns, blank
    lines, short and long rows, quoted fields (some spanning lines), any
    token now and then, and either line ending.  Most cells of the columns
    the reader uses are READABLE, so that about half the files parse."""
    header = draw(st.lists(st.sampled_from(COLUMNS + ("extra",)), min_size=1, max_size=5))
    if draw(st.integers(0, 7)):
        header.insert(draw(st.integers(0, len(header))), "true_class")
    rows = [header]
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 9)) == 0:
            rows.append([])                                    # a blank line
            continue
        width = len(header) + draw(st.sampled_from((0, 0, 0, 0, 0, -1, 1)))
        rows.append([draw(st.sampled_from(
            READABLE[header[i]] if i < len(header) and header[i] in READABLE
            and draw(st.integers(0, 15)) else TOKENS)) for i in range(max(width, 1))])
    lines = []
    for row in rows:
        cells = []
        for cell in row:
            if draw(st.integers(0, 11)) == 0:                  # quote it, maybe across lines
                cell = '"' + cell.replace('"', '""') + draw(st.sampled_from(("", "\n"))) + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines) + "\n"


def _outcome(read, path):
    try:
        return read(path), None
    except Exception as exc:  # the oracle's own exception types are the contract
        return None, (type(exc), str(exc))


def _dictreader_lines(path):
    """The line csv.DictReader reports for each data row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return [reader.line_num for _ in reader]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts(), chunk=st.sampled_from(CHUNKS))
def test_reader_matches_reference(tmp_path, monkeypatch, text, chunk):
    monkeypatch.setattr(ingest, "_SCAN_BYTES", chunk)
    path = tmp_path / "validation.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected, expected_error = _outcome(ref.read_validation_csv, path)
    table, error = _outcome(read_validation_csv, path)
    assert error == expected_error
    if expected is None:
        return
    want = as_table(expected)
    for name in COLUMNS:
        got = getattr(table, name)
        assert got.dtype == getattr(want, name).dtype
        assert np.array_equal(got, getattr(want, name), equal_nan=True), name
    assert table.line.tolist() == _dictreader_lines(path)
    assert len(table) == len(expected)


# tokens np.loadtxt reads as Python's int or float does, by the kind of column
# that holds them: in range in every column of the kind, and not always
NUMPY_TOKENS = {int: ("1", "2", "3", " 2 ", "+3", "002"),
                float: ("0.5", ".25", "1e-3", "+.5", "1.", "1", " 0.75 ", "0.125")}
NUMPY_OUT_OF_RANGE = {int: ("0", "-1"), float: ("nan", "inf", "1e5000", "2.0", "-0.5", "-0.0")}
# TOKENS that can sit in a clean file (printable ASCII without a quote) and
# leave the columns as they are (no comma)
CLEAN_TOKENS = tuple(t for t in TOKENS if t.isascii() and t.isprintable() and not set(t) & set(',"'))


@st.composite
def clean_csv_texts(draw):
    """Clean validation CSVs, which the numpy route admits: printable ASCII
    without quotes, \\n or \\r\\n line ends (mixed), no blank line; with
    repeated, absent and unknown columns, long rows, and now and then no
    final newline.  Returns the text and whether every cell the reader uses
    is numpy-readable (and no row is short), so that a file the oracle
    accepts must take that route."""
    header = draw(st.lists(st.sampled_from(COLUMNS + ("extra",)), min_size=1, max_size=5))
    if "true_class" not in header or draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "true_class")
    used = {i: int if name.endswith("class") else float
            for name, i in {name: i for i, name in enumerate(header)}.items() if name != "extra"}
    readable, in_range = draw(st.booleans()), draw(st.booleans())
    pools = {kind: NUMPY_TOKENS[kind] + (() if in_range else NUMPY_OUT_OF_RANGE[kind])
             for kind in (int, float)}
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 10))):
        width = len(header) + draw(st.sampled_from((0, 0, 1, 4) if readable else (-1, 0, 0, 1, 4)))
        lines.append(",".join(
            draw(st.sampled_from(pools[used[i]] if readable and i in used else
                                 CLEAN_TOKENS + pools[used.get(i, float)]))
            for i in range(max(width, 1))) or " ")                 # a blank line is not clean
    ends = [draw(st.sampled_from(("\n", "\r\n"))) for _ in lines]
    ends[-1] = draw(st.sampled_from((ends[-1], "")))
    return "".join(line + end for line, end in zip(lines, ends)), readable


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=clean_csv_texts(), chunk=st.sampled_from(CHUNKS))
def test_clean_reader_matches_reference(tmp_path, monkeypatch, drawn, chunk):
    monkeypatch.setattr(ingest, "_SCAN_BYTES", chunk)
    text, readable = drawn
    path = tmp_path / "validation.csv"
    path.write_text(text, encoding="ascii", newline="")
    expected, expected_error = _outcome(ref.read_validation_csv, path)
    table, error = _outcome(read_validation_csv, path)
    assert error == expected_error
    if expected is None:
        return
    want = as_table(expected)
    for name in COLUMNS + ("line",):
        got = getattr(table, name)
        assert got.dtype == getattr(want, name).dtype
        assert np.array_equal(got, getattr(want, name), equal_nan=True), name
    assert table.line.tolist() == _dictreader_lines(path)
    assert table.reader == "numpy" or not readable


def _on_chunk_edge(before, after):
    """make(chunk) for a file whose text before ends a chunk: a header
    padded to that length, then the rest of the file."""
    return lambda chunk: "true_class,e" + "e" * (-len("true_class,e" + before) % chunk) + (
        before + after)


# make(chunk) -> file text, csv.field_size_limit() to read it under (None for
# the default), and the reader that must take it (None for an error)
CHUNK_EDGES = [
    pytest.param(lambda c: "true_class,score\n1,0." + "5" * c + "\n2,0.25\n", None, "numpy",
                 id="line-across-chunks"),
    pytest.param(_on_chunk_edge("\n1\n", "\n2\n"), None, "per-row", id="blank-line-across-chunks"),
    # lines 17 and 16 bytes long against a limit of 16, from byte 59 (across 64)
    pytest.param(lambda c: "true_class,score\n" + "1,0.5\n" * 7 + "2,0.0000000000001\n", 16,
                 "per-row", id="line-over-limit-across-chunks"),
    pytest.param(lambda c: "true_class,score\n" + "1,0.5\n" * 7 + "2,0.0000000000001", 16,
                 "per-row", id="last-line-over-limit"),
    pytest.param(lambda c: "true_class,score\n" + "1,0.5\n" * 7 + "2,0.000000000001\n", 16,
                 "numpy", id="line-at-limit"),
    pytest.param(lambda c: "true_class,score\n1,0.5\n2,0.25", None, "numpy",
                 id="no-final-newline"),
    pytest.param(lambda c: "true_class,score," + "e" * c + "\n1,0.5\n", None, "numpy",
                 id="header-over-a-chunk"),
    pytest.param(lambda c: "true_class,score\n", None, None, id="header-only"),
    pytest.param(lambda c: "true_class,score", None, None, id="header-only-no-newline"),
    pytest.param(lambda c: "", None, None, id="empty"),
    pytest.param(lambda c: "true_class,score\n" + "1,0.5\n" * 12 + "2,0.25\t", None, "per-row",
                 id="tab-in-last-chunk"),
    # \r\n ends: a pair split by a chunk edge, blank lines split either way, a
    # lone \r within a chunk, at a chunk's end and as the file's last byte, and
    # a lone \r before a \r\n, which loadtxt reads as a row and a blank line
    pytest.param(_on_chunk_edge("\r", "\n1\r\n2\r\n"), None, "numpy", id="crlf-across-chunks"),
    pytest.param(_on_chunk_edge("\r\n1\r\n", "\r\n2\r\n"), None, "per-row",
                 id="blank-crlf-line-after-chunk-edge"),
    pytest.param(_on_chunk_edge("\r\n1\r\n\r", "\n2\r\n"), None, "per-row",
                 id="blank-crlf-line-cr-ends-chunk"),
    pytest.param(lambda c: "true_class,score\r1,0.5\r\n2,0.25\r\n", None, "per-row",
                 id="lone-cr"),
    pytest.param(_on_chunk_edge("\r", "1\r\n2\r\n"), None, "per-row", id="lone-cr-ends-chunk"),
    pytest.param(lambda c: "true_class,score\r\n1,0.5\r\n2,0.25\r", None, "per-row",
                 id="final-lone-cr"),
    pytest.param(lambda c: "true_class,score\r\n1,0.5\r\n2,0.25", None, "numpy",
                 id="crlf-no-final-newline"),
    pytest.param(lambda c: "true_class,score\r\n1,0.5\r\r\n2,0.25\r\n", None, "per-row",
                 id="cr-before-crlf"),
    pytest.param(_on_chunk_edge("\r\n1\r", "\r\n2\r\n"), None, "per-row",
                 id="cr-ends-chunk-before-crlf"),
]


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("make, limit, reader", CHUNK_EDGES)
def test_scan_chunk_edges_match_reference(tmp_path, monkeypatch, chunk, make, limit, reader):
    monkeypatch.setattr(ingest, "_SCAN_BYTES", chunk)
    path = tmp_path / "validation.csv"
    path.write_text(make(chunk), encoding="ascii", newline="")
    default_limit = csv.field_size_limit(limit or csv.field_size_limit())
    try:
        expected, expected_error = _outcome(ref.read_validation_csv, path)
        table, error = _outcome(read_validation_csv, path)
        scanned = ingest._scan(path)
    finally:
        csv.field_size_limit(default_limit)
    assert error == expected_error
    if expected is None:
        assert reader is None
        return
    # the scan itself refuses each per-row file, not only loadtxt's row count
    assert (scanned is None) == (reader == "per-row")
    want = as_table(expected)
    for name in COLUMNS:
        got = getattr(table, name)
        assert got.dtype == getattr(want, name).dtype
        assert np.array_equal(got, getattr(want, name), equal_nan=True), name
    assert table.line.tolist() == _dictreader_lines(path)
    assert table.reader == reader


@pytest.mark.parametrize("text, message", [
    # the first offending line wins, whatever its column
    ("true_class,score,service_time\n1,0.5,-1\n0,0.5,1\n",
     "line 2: service_time=-1.0 must be positive"),
    ("true_class,score,service_time\n1,0.5,1\n1,x,-1\n", "line 3: score='x' is not a number"),
    # blank lines count, and a short row reads blanks
    ("true_class,score,service_time\n1,0.5\n\n\n1,2\n", "line 5: score=2.0 outside [0, 1]"),
    # a quoted field spanning lines is cited by the line the row ends on
    ('true_class,score\n1,"0.5\n"\n,0.5\n', "line 4: empty true_class"),
    ("true_class\n1\n99999999999999999999\n",
     "line 3: true_class='99999999999999999999' is too large"),
])
def test_reader_cites_first_offending_line(tmp_path, text, message):
    path = tmp_path / "validation.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(IngestError) as info:
        read_validation_csv(path)
    assert str(info.value) == message


# ------------------------------------------------------------ estimators

@st.composite
def record_lists(draw):
    K = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    maybe = lambda strategy: st.one_of(st.none(), strategy) if draw(st.booleans()) else strategy
    score = maybe(st.floats(0.0, 1.0))
    pred = maybe(st.integers(0, K - 1))
    service = maybe(st.floats(1e-3, 5.0))
    return [ValidationRecord(draw(st.integers(0, K - 1)), draw(score), draw(pred), draw(service))
            for _ in range(n)]


def _same(new, old):
    if isinstance(new, tuple):
        return all(_same(a, b) for a, b in zip(new, old))
    if isinstance(new, list):
        return len(new) == len(old) and all(_same(a, b) for a, b in zip(new, old))
    if hasattr(new, "entries"):
        return np.array_equal(new.entries, old.entries)
    return np.array_equal(new, old)


@settings(max_examples=200, deadline=None)
@given(records=record_lists(), threshold=st.sampled_from((None, 0.5)),
       laplace=st.sampled_from((0.0, 1.0)))
def test_estimators_match_reference(records, threshold, laplace):
    table = as_table(records)
    for new_fn, old_fn, kwargs in (
            (estimate_confusion, ref.estimate_confusion,
             dict(threshold=threshold, laplace=laplace)),
            (estimate_rates, ref.estimate_rates, {}),
            (scores_by_class, ref.scores_by_class, {})):
        got, error = _outcome(lambda t: new_fn(t, **kwargs), table)
        want, want_error = _outcome(lambda r: old_fn(r, **kwargs), records)
        if want_error is not None:
            # bit for bit the same failure, the record number now a CSV line
            kind, text = want_error
            if text.startswith("record "):
                number, rest = text[len("record "):].split(":", 1)
                text = f"line {int(number) + 2}:{rest}"
            assert error == (kind, text)
        else:
            assert error is None and _same(got, want)


def test_second_moment_squares_like_the_reference():
    # The reference squares with Python's x ** 2 (C pow).  On glibc 2.36 pow
    # is not correctly rounded: for this x it is off by -2.1181e-22 and x * x
    # by +2.1170e-22, so the two differ by one ulp.  A switch of
    # estimate_rates to x * x or np.square fails here.  Squares are taken
    # _SQUARE_ROWS at a time, so x also sits on each side of the first chunk
    # edge, alone in classes 1 and 2.
    x = 0.0018489275439882772
    records = [ValidationRecord(true_class=0, service_time=x)]
    _, alpha_v_hat = estimate_rates(as_table(records))
    assert alpha_v_hat[0] == x ** 2 == ref.estimate_rates(records)[1][0]
    edge = ingest._SQUARE_ROWS
    records = [ValidationRecord(true_class=0, service_time=0.5) for _ in range(edge + 3)]
    records[edge - 1] = ValidationRecord(true_class=1, service_time=x)
    records[edge] = ValidationRecord(true_class=2, service_time=x)
    _, alpha_v_hat = estimate_rates(as_table(records))
    assert alpha_v_hat[1] == alpha_v_hat[2] == x ** 2
    assert np.array_equal(alpha_v_hat, ref.estimate_rates(records)[1])

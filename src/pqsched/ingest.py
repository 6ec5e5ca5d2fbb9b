"""Estimation of system primitives from validation CSV files.

Expected layout: UTF-8, comma-delimited, header row with some of the columns

    true_class, score, predicted_class, service_time

Classes are 1-based in files and 0-based in memory.  true_class is required
on every row; score / predicted_class / service_time may be blank or absent.
Confusion estimation needs either a predicted_class column or a score column
plus a threshold (binary: score >= threshold means predicted class 1).

The file is read into a `ValidationTable` of numpy columns.  A clean file
(printable ASCII without `"`, `\\n` or `\\r\\n` line ends, no blank line,
no line over `csv.field_size_limit()`, a header naming true_class) is
scanned one _SCAN_BYTES chunk at a time, then parsed in one `np.loadtxt`
pass sized by the scan's row count, so the reader holds the columns it
returns (about 40 B a row) plus one chunk.  Any other file, or one numpy
refuses (a blank cell, `1_0`, a class beyond int64), is read whole and row
by row with the csv module and Python's own int / float.  Both routes give
the same table and the same errors: a bad file raises the error of its
first offending line (within a line, in the column order above), and every
error about a row, from the reader or an estimator, cites its CSV line, as
do a field over the csv field limit and a byte that is not UTF-8.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .errors import ConfigError, EmptyClassError, IngestError, ZeroColumnError
from .model import ConfusionMatrix, _check_finite

__all__ = [
    "ValidationTable",
    "read_validation_csv",
    "estimate_confusion",
    "estimate_rates",
    "scores_by_class",
]

# column, conversion, its complaint, the values the column rejects, and why
_FIELDS = (
    ("true_class", int, "is not an integer", lambda v: v < 1, "must be >= 1"),
    ("score", float, "is not a number", lambda v: ~((v >= 0.0) & (v <= 1.0)), "outside [0, 1]"),
    ("predicted_class", int, "is not an integer", lambda v: v < 1, "must be >= 1"),
    ("service_time", float, "is not a number", lambda v: v <= 0.0, "must be positive"),
)
_COLUMNS = tuple(field[0] for field in _FIELDS)
# the bytes of a clean file once _scan reads each \r\n as \n: printable ASCII
# but the quote, and \n.  Control characters stay out: numpy skips \x1c-\x1f
# around a token as whitespace, which Python's float refuses and only the
# per-row route's strip() removes
_CLEAN = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\n"
# the bytes of a clean file checked at a time, and the service times squared
# at a time: each a fixed slice of the file or column, never the whole
_SCAN_BYTES, _SQUARE_ROWS = 2 ** 20, 8192


@dataclass(frozen=True, eq=False)
class ValidationTable:
    """Labeled validation examples as numpy columns (classes 0-based):
    true_class and predicted_class int64, predicted_class -1 where blank;
    score and service_time float, NaN where blank; line, the CSV line of
    each row, cited by every error about the row; reader, the route that
    parsed the file ("numpy" or "per-row"; None for a table built from
    arrays)."""

    true_class: np.ndarray
    score: np.ndarray
    predicted_class: np.ndarray
    service_time: np.ndarray
    line: np.ndarray
    reader: Optional[str] = None

    def __post_init__(self):
        for name, dtype in zip(_COLUMNS + ("line",), (np.int64, float, np.int64, float, np.int64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
            if getattr(self, name).shape != (len(self.true_class),):
                raise IngestError(f"column {name} needs one entry per row")

    def __len__(self) -> int:
        return self.true_class.size

    def blank_line(self, column: str) -> Optional[int]:
        """CSV line of the first row whose `column` is blank, else None."""
        values = getattr(self, column)
        blank = values < 0 if values.dtype.kind == "i" else np.isnan(values)
        return int(self.line[np.argmax(blank)]) if blank.any() else None


def _blank(conv, n: int) -> np.ndarray:
    """n blank entries of a column read with conv: 0 for a class (-1 once
    shifted to 0-based), NaN for a number."""
    return np.full(n, 0, np.int64) if conv is int else np.full(n, np.nan)


def _tokens(raw: list, name: str, conv, what: str) -> tuple:
    """One column's tokens through conv: (values, present, faults), a blank
    token reading as _blank; faults holds (row, complaint) for the first
    unreadable token, and for true_class the first blank one."""
    tokens = [s.strip() for s in raw]
    present = np.fromiter(map(bool, tokens), bool, len(tokens))
    faults = []
    if name == "true_class" and not present.all():
        faults.append((int(np.argmax(~present)), "empty true_class"))
    values = _blank(conv, len(tokens))
    for i in np.flatnonzero(present).tolist():
        try:
            values[i] = conv(tokens[i])
        except (ValueError, OverflowError) as exc:
            why = what if isinstance(exc, ValueError) else "is too large"
            faults.append((i, f"{name}={tokens[i]!r} {why}"))
            break
    return values, present, faults


def _read_rows(path) -> tuple:
    """Any file, read whole and row by row with the csv module: ({column:
    _tokens' triple} for the columns the header names, the CSV line of each
    row)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]   # its line breaks as csv counts them: \n, \r or \r\n
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise IngestError(
            f"{path}: line {line}: not UTF-8 (byte 0x{data[exc.start]:02x})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None or "true_class" not in header:
            raise IngestError(f"{path}: missing required column 'true_class'")
        # a repeated name reads its last column, a short row reads blanks, and
        # an absent column reads true_class's tokens, which are then dropped
        where = {name: i for i, name in enumerate(header)}
        width, pad = len(header), [""] * len(header)
        (i_true, true), (i_score, score), (i_pred, pred), (i_service, service) = (
            (where.get(name, where["true_class"]), []) for name in _COLUMNS)
        lines = []
        for row in reader:
            if row:
                if len(row) < width:
                    row += pad[len(row):]
                true.append(row[i_true])
                score.append(row[i_score])
                pred.append(row[i_pred])
                service.append(row[i_service])
                lines.append(reader.line_num)
    except csv.Error as exc:   # a field over csv.field_size_limit()
        raise IngestError(f"line {reader.line_num}: {exc}") from None
    if not lines:
        raise IngestError(f"{path}: no data rows")
    return ({name: _tokens(raw, name, conv, what)
             for raw, (name, conv, what, _, _) in zip((true, score, pred, service), _FIELDS)
             if name in where}, np.asarray(lines))


def _scan(path) -> Optional[tuple]:
    """(header, row count) of a clean file (see the module docstring), read
    _SCAN_BYTES at a time; None where the file is not clean.  A \\r\\n end
    is checked as \\n, and a \\r that ends a chunk carries over to meet its
    \\n.  The line left open at a chunk's end carries over as its length so
    far."""
    limit = csv.field_size_limit()
    head, n_ends, run, cr = b"", 0, 0, b""   # run: the bytes of the open line so far
    with open(path, "rb") as fh:
        while chunk := fh.read(_SCAN_BYTES):
            if cr or b"\r" in chunk:   # a \r left after this is not clean
                chunk = (cr + chunk).replace(b"\r\n", b"\n")
                chunk, cr = (chunk[:-1], b"\r") if chunk.endswith(b"\r") else (chunk, b"")
            if (chunk.translate(None, _CLEAN) or b"\n\n" in chunk
                    or run == 0 and chunk[:1] == b"\n"):   # a blank line, maybe across chunks
                return None
            end = chunk.rfind(b"\n")
            if not n_ends:
                head += chunk[:chunk.find(b"\n")] if end >= 0 else chunk
            n_ends += chunk.count(b"\n")
            if end < 0:
                run += len(chunk)
            else:
                # every line that ends in the chunk ends within limit bytes of
                # its start: hop from line start to the last \n in reach
                start = -run   # the open line's start, counted from this chunk
                while start <= end:
                    reach = chunk.rfind(b"\n", max(start, 0), start + limit + 1)
                    if reach < 0:
                        return None
                    start = reach + 1
                run = len(chunk) - 1 - end
            if run > limit:
                return None
    if cr:   # a lone \r ends the file
        return None
    header = head.decode("ascii").split(",")
    return (header, n_ends - (run == 0)) if "true_class" in header else None


def _read_clean(path) -> Optional[tuple]:
    """A clean file (see the module docstring) as _read_rows would read it;
    None where the file is not clean or numpy refuses it.  _scan checks it
    and counts its rows one chunk at a time, then one np.loadtxt pass of at
    most that many rows reads the columns, so the read holds its columns
    (about 40 B a row) plus one chunk.  With no quotes, lone \\r or blank
    lines, row i sits on line i + 2."""
    scanned = _scan(path)
    if scanned is None:
        return None
    header, n_rows = scanned
    where = {name: i for i, name in enumerate(header)}
    fields = [(name, conv) for name, conv, *_ in _FIELDS if name in where]
    # loadtxt reads a file named by its path in C chunks, and any other input
    # line by line in Python (about 1.5x the time and 20 MB more for 2e5 rows),
    # so it reads the file again; one row past the scan's count (a file
    # rewritten in between) sends the file down the per-row route
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(path, encoding="ascii", delimiter=",", skiprows=1,
                               usecols=[where[name] for name, _ in fields],
                               dtype=[(name, np.int64 if conv is int else float)
                                      for name, conv in fields],
                               comments=None, quotechar=None, ndmin=1, max_rows=n_rows + 1)
        except (ValueError, Warning):   # an unreadable token, a short row, no rows
            return None
    if table.size != n_rows:
        return None
    return ({name: (table[name], np.ones(table.size, bool), []) for name, _ in fields},
            np.arange(2, table.size + 2))


def read_validation_csv(path) -> ValidationTable:
    """Parse a validation CSV into a ValidationTable, by the numpy route if
    the file is clean and numpy reads it, else row by row."""
    clean = _read_clean(path)
    columns, lines = _read_rows(path) if clean is None else clean
    faults, table = [], {}
    for name, conv, _, broken, rule in _FIELDS:
        values, present, column_faults = columns.get(name) or (
            _blank(conv, lines.size), np.zeros(lines.size, bool), [])
        faults += column_faults
        faults += [(i, f"{name}={values[i].item()} {rule}")
                   for i in np.flatnonzero(present & broken(values))[:1].tolist()]
        if conv is int:   # to 0-based, in place: the table is this call's own
            np.subtract(values, 1, out=values)
        table[name] = values
    if faults:   # the first offending line wins; within it, the column order
        row, complaint = min(faults, key=lambda fault: fault[0])
        raise IngestError(f"line {lines[row]}: {complaint}")
    return ValidationTable(line=lines, reader="per-row" if clean is None else "numpy", **table)


def _check_class_count(table: ValidationTable, k: int):
    """EmptyClassError naming the first true class with no row when the class
    count k exceeds the row count, as then some class has none.  Callers
    check k before they make anything k-sized."""
    if k > len(table):
        seen = np.zeros(len(table) + 1, bool)   # the first missing class is at most len(table)
        seen[table.true_class[table.true_class <= len(table)]] = True
        raise EmptyClassError(f"no records for true class {int(np.argmin(seen)) + 1}: the labels "
                              f"give {k} classes, more than the {len(table)} rows")


def estimate_confusion(table: ValidationTable,
                       threshold: Optional[float] = None,
                       laplace: float = 0.0):
    """Empirical confusion matrix and prevalence vector.

    With a threshold, predictions come from scores (binary rule: class 1
    iff score >= threshold); otherwise every row must carry a
    predicted_class.  laplace > 0 adds the usual pseudo-count per cell; it
    must be finite and >= 0.
    The class count is that of the columns the rule reads: the true classes
    under a threshold, the true and predicted classes otherwise.
    Returns (ConfusionMatrix, prevalences).
    """
    if not 0.0 <= laplace < np.inf:  # NaN included
        raise ConfigError(f"laplace = {laplace} must be finite and >= 0")
    K = int(table.true_class.max()) + 1
    if threshold is None:
        K = max(K, int(table.predicted_class.max()) + 1)
    if threshold is not None and K != 2:
        raise IngestError(f"score thresholding defines a binary rule; got {K} classes")
    blank = table.blank_line("predicted_class" if threshold is None else "score")
    if blank is not None:
        raise IngestError(f"line {blank}: " + ("no predicted_class and no threshold given"
                                               if threshold is None else "no score to threshold"))
    _check_class_count(table, K)
    pred = table.predicted_class if threshold is None else np.where(table.score >= threshold, 0, 1)
    counts = np.bincount(table.true_class * K + pred, minlength=K * K).reshape(K, K)
    totals = np.bincount(table.true_class, minlength=K)
    missing = np.nonzero(totals == 0)[0]
    if missing.size:
        raise EmptyClassError(f"no records for true class(es) {[int(k) + 1 for k in missing]}")
    rows = counts + laplace
    q = rows / rows.sum(axis=1, keepdims=True)
    p_hat = totals / totals.sum()
    if np.any(p_hat @ q <= 0):
        dead = np.nonzero(p_hat @ q <= 0)[0]
        raise ZeroColumnError(
            f"predicted class(es) {[int(l) + 1 for l in dead]} never occur; "
            "the scheduling model needs every predicted class reachable")
    return ConfusionMatrix(q), p_hat


def estimate_rates(table: ValidationTable):
    """Per-class service rates and second moments, (mu_hat, alpha_v_hat), one
    entry per true class up to the largest; each must be finite."""
    blank = table.blank_line("service_time")
    if blank is not None:
        raise IngestError(f"line {blank}: missing service_time")
    _check_class_count(table, int(table.true_class.max()) + 1)
    counts = np.bincount(table.true_class)
    # bincount adds the weights in row order, as a running sum would; squares
    # are Python's x ** 2 (C pow), which np.square and x * x can miss by an
    # ulp: glibc's pow is not correctly rounded (tests/test_ingest_reference.py);
    # they are taken _SQUARE_ROWS at a time, so only a chunk is Python floats
    sums = np.bincount(table.true_class, weights=table.service_time)
    squares = np.empty(len(table))
    for start in range(0, len(table), _SQUARE_ROWS):
        chunk = table.service_time[start:start + _SQUARE_ROWS]
        try:
            squares[start:start + chunk.size] = np.fromiter(
                map(pow, chunk.tolist(), repeat(2)), float, chunk.size)
        except OverflowError:   # a square past the float range: its class is refused below
            with np.errstate(over="ignore"):
                squares[start:start + chunk.size] = chunk * chunk
    sq_sums = np.bincount(table.true_class, weights=squares)
    missing = np.nonzero(counts == 0)[0]
    if missing.size:
        raise EmptyClassError(f"no service times for class(es) {[int(k) + 1 for k in missing]}")
    with np.errstate(over="ignore"):   # a subnormal mean service time overflows its rate
        mu_hat, alpha_v_hat = counts / sums, sq_sums / counts
    for k in np.flatnonzero(~np.isfinite(mu_hat) | ~np.isfinite(alpha_v_hat))[:1].tolist():
        _check_finite({f"class {k + 1} mu_hat": mu_hat[k],
                       f"class {k + 1} alpha_v_hat": alpha_v_hat[k]}, "overflows the float range")
    return mu_hat, alpha_v_hat


def scores_by_class(table: ValidationTable) -> list:
    """Scores of true classes 1 (toxic) and 2, in row order, for the
    two-class PassingCurves."""
    missing = np.isnan(table.score)
    bad = missing | (table.true_class >= 2)
    if bad.any():
        i = int(np.argmax(bad))
        raise IngestError(f"line {table.line[i]}: " + (
            "missing score" if missing[i] else
            f"class {table.true_class[i] + 1} exceeds n_classes=2"))
    return [table.score[table.true_class == k] for k in range(2)]

"""Estimation of system primitives from validation CSV files.

Expected layout: UTF-8, comma-delimited, header row with some of the columns

    true_class, score, predicted_class, service_time

Classes are 1-based in files and 0-based in memory.  true_class is required
on every row; score / predicted_class / service_time may be blank or absent.
Confusion estimation needs either a predicted_class column or a score column
plus a threshold (binary: score >= threshold means predicted class 1).

The file is read into a `ValidationTable` of numpy columns, converting
tokens with Python's own int / float.  A bad file raises the error of its
first offending line (within a line, in the column order above), and every
error about a row, from the reader or an estimator, cites its CSV line.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .errors import EmptyClassError, IngestError, ZeroColumnError
from .model import ConfusionMatrix

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


@dataclass(frozen=True, eq=False)
class ValidationTable:
    """Labeled validation examples as numpy columns (classes 0-based):
    true_class and predicted_class int64, predicted_class -1 where blank;
    score and service_time float, NaN where blank; line, the CSV line of
    each row, cited by every error about the row."""

    true_class: np.ndarray
    score: np.ndarray
    predicted_class: np.ndarray
    service_time: np.ndarray
    line: np.ndarray

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


def _column(raw: list, name: str, conv, what: str, broken, rule: str,
            faults: list) -> np.ndarray:
    """One column's tokens through conv (a blank reads as NaN, or as -1 for a
    class); its first fault of each kind goes to faults as (row, complaint),
    in the order a line is checked."""
    dtype, present = (np.int64 if conv is int else float), None
    if all(raw):   # the common case: int / float read every token as it stands
        try:
            values, present = np.fromiter(map(conv, raw), dtype, len(raw)), np.ones(len(raw), bool)
        except (ValueError, OverflowError):
            pass
    if present is None:
        tokens = [s.strip() for s in raw]
        present = np.fromiter(map(bool, tokens), bool, len(tokens))
        if name == "true_class" and not present.all():
            faults.append((int(np.argmax(~present)), "empty true_class"))
        values = np.full(len(tokens), 0 if conv is int else np.nan, dtype)
        for i in np.flatnonzero(present).tolist():
            try:
                values[i] = conv(tokens[i])
            except (ValueError, OverflowError) as exc:
                why = what if isinstance(exc, ValueError) else "is too large"
                faults.append((i, f"{name}={tokens[i]!r} {why}"))
                break
    first_off = np.flatnonzero(present & broken(values))[:1].tolist()
    faults += [(i, f"{name}={values[i].item()} {rule}") for i in first_off]
    return values - 1 if conv is int else values


def read_validation_csv(path) -> ValidationTable:
    """Parse a validation CSV into a ValidationTable."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or "true_class" not in header:
            raise IngestError(f"{path}: missing required column 'true_class'")
        # a repeated name reads its last column, a short row reads blanks, and
        # an absent column reads true_class's tokens until it is blanked below
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
    if not lines:
        raise IngestError(f"{path}: no data rows")
    faults = []
    columns = {field[0]: _column(raw if field[0] in where else [""] * len(lines), *field, faults)
               for raw, field in zip((true, score, pred, service), _FIELDS)}
    if faults:
        row, complaint = min(faults, key=lambda fault: fault[0])
        raise IngestError(f"line {lines[row]}: {complaint}")
    return ValidationTable(line=np.asarray(lines), **columns)


def _infer_n_classes(table: ValidationTable, n_classes: Optional[int]) -> int:
    inferred = int(max(table.true_class.max(), table.predicted_class.max())) + 1
    if n_classes is not None and n_classes < inferred:
        raise IngestError(f"records reference class {inferred} but n_classes={n_classes}")
    return inferred if n_classes is None else n_classes


def estimate_confusion(table: ValidationTable,
                       threshold: Optional[float] = None,
                       n_classes: Optional[int] = None,
                       laplace: float = 0.0):
    """Empirical confusion matrix and prevalence vector.

    With a threshold, predictions come from scores (binary rule: class 1
    iff score >= threshold); otherwise every row must carry a
    predicted_class.  laplace > 0 adds the usual pseudo-count per cell.
    Returns (ConfusionMatrix, prevalences).
    """
    K = _infer_n_classes(table, n_classes)
    if threshold is not None and K != 2:
        raise IngestError(f"score thresholding defines a binary rule; got {K} classes")
    blank = table.blank_line("predicted_class" if threshold is None else "score")
    if blank is not None:
        raise IngestError(f"line {blank}: " + ("no predicted_class and no threshold given"
                                               if threshold is None else "no score to threshold"))
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


def estimate_rates(table: ValidationTable, n_classes: Optional[int] = None):
    """Per-class service rates and second moments: (mu_hat, alpha_v_hat)."""
    K = _infer_n_classes(table, n_classes)
    blank = table.blank_line("service_time")
    if blank is not None:
        raise IngestError(f"line {blank}: missing service_time")
    counts = np.bincount(table.true_class, minlength=K)
    # bincount adds the weights in row order, as a running sum would; squares
    # are Python's x ** 2 (C pow), which np.square can miss by an ulp
    sums = np.bincount(table.true_class, weights=table.service_time, minlength=K)
    squares = np.fromiter(map(pow, table.service_time.tolist(), repeat(2)), float, len(table))
    sq_sums = np.bincount(table.true_class, weights=squares, minlength=K)
    missing = np.nonzero(counts == 0)[0]
    if missing.size:
        raise EmptyClassError(f"no service times for class(es) {[int(k) + 1 for k in missing]}")
    return counts / sums, sq_sums / counts   # (mu_hat, alpha_v_hat)


def scores_by_class(table: ValidationTable, n_classes: int = 2) -> list:
    """Scores grouped by true class, in row order (for passing-curve estimation)."""
    missing = np.isnan(table.score)
    bad = missing | (table.true_class >= n_classes)
    if bad.any():
        i = int(np.argmax(bad))
        raise IngestError(f"line {table.line[i]}: " + (
            "missing score" if missing[i] else
            f"class {table.true_class[i] + 1} exceeds n_classes={n_classes}"))
    return [table.score[table.true_class == k] for k in range(n_classes)]

"""Reference validation-CSV ingest: the oracle the columnar reader is checked against.

This is the per-row path pqsched used to ship: `csv.DictReader` builds one
`ValidationRecord` per data row, and the estimators loop over the records.
Everything below `as_table` is copied unchanged but the class-count rule of
`_infer_n_classes`, which counts predicted classes only for an estimator
that reads them (the confusion without a threshold), as the package does,
and `_check_class_count`, the package's refusal of more classes than
records, with the first class that has none.
Its errors cite 0-based record numbers where the columnar estimators cite
CSV lines.

Nothing in `src/` imports this module.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from pqsched import ValidationTable
from pqsched.errors import EmptyClassError, IngestError, ZeroColumnError
from pqsched.model import ConfusionMatrix


def as_table(records) -> ValidationTable:
    """The columns of a record list: NaN / -1 where a field is None, and the
    lines of a CSV with a header and one line per record."""
    def column(name, blank, dtype):
        return np.array([blank if getattr(r, name) is None else getattr(r, name)
                         for r in records], dtype=dtype)
    return ValidationTable(
        true_class=column("true_class", None, np.int64),
        score=column("score", np.nan, float),
        predicted_class=column("predicted_class", -1, np.int64),
        service_time=column("service_time", np.nan, float),
        line=np.arange(2, len(records) + 2))


@dataclass(frozen=True)
class ValidationRecord:
    """One labeled validation example (classes 0-based in memory)."""

    true_class: int
    score: Optional[float] = None
    predicted_class: Optional[int] = None
    service_time: Optional[float] = None


def _parse_class(raw: str, column: str, line: int) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise IngestError(f"line {line}: {column}={raw!r} is not an integer")
    if value < 1:
        raise IngestError(f"line {line}: {column}={value} must be >= 1")
    return value - 1


def read_validation_csv(path) -> list:
    """Parse a validation CSV into ValidationRecord rows."""
    records = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "true_class" not in reader.fieldnames:
            raise IngestError(f"{path}: missing required column 'true_class'")
        for row in reader:
            line = reader.line_num
            raw_true = (row.get("true_class") or "").strip()
            if not raw_true:
                raise IngestError(f"line {line}: empty true_class")
            true_class = _parse_class(raw_true, "true_class", line)

            score = None
            raw = (row.get("score") or "").strip()
            if raw:
                try:
                    score = float(raw)
                except ValueError:
                    raise IngestError(f"line {line}: score={raw!r} is not a number")
                if not 0.0 <= score <= 1.0:
                    raise IngestError(f"line {line}: score={score} outside [0, 1]")

            predicted = None
            raw = (row.get("predicted_class") or "").strip()
            if raw:
                predicted = _parse_class(raw, "predicted_class", line)

            service = None
            raw = (row.get("service_time") or "").strip()
            if raw:
                try:
                    service = float(raw)
                except ValueError:
                    raise IngestError(
                        f"line {line}: service_time={raw!r} is not a number")
                if service <= 0.0:
                    raise IngestError(
                        f"line {line}: service_time={service} must be positive")

            records.append(ValidationRecord(true_class=true_class, score=score,
                                            predicted_class=predicted,
                                            service_time=service))
    if not records:
        raise IngestError(f"{path}: no data rows")
    return records


def _infer_n_classes(records: Sequence[ValidationRecord],
                     n_classes: Optional[int], predicted: bool = True) -> int:
    """Classes of the columns an estimator reads: the true classes, and the
    predicted ones too where the estimator reads them."""
    seen = max(r.true_class for r in records) + 1
    pred = max((r.predicted_class for r in records
                if predicted and r.predicted_class is not None), default=-1) + 1
    inferred = max(seen, pred)
    if n_classes is None:
        return inferred
    if n_classes < inferred:
        raise IngestError(
            f"records reference class {inferred} but n_classes={n_classes}")
    return n_classes


def _check_class_count(records: Sequence[ValidationRecord], K: int):
    if K > len(records):
        seen = {r.true_class for r in records}
        first = min(k for k in range(K) if k not in seen)
        raise EmptyClassError(f"no records for true class {first + 1}: the labels give {K} "
                              f"classes, more than the {len(records)} rows")


def estimate_confusion(records: Sequence[ValidationRecord],
                       threshold: Optional[float] = None,
                       n_classes: Optional[int] = None,
                       laplace: float = 0.0):
    """Empirical confusion matrix and prevalence vector.

    With a threshold, predictions come from scores (binary rule: class 1
    iff score >= threshold); otherwise every record must carry a
    predicted_class.  laplace > 0 adds the usual pseudo-count per cell.
    Returns (ConfusionMatrix, prevalences).
    """
    K = _infer_n_classes(records, n_classes, predicted=threshold is None)
    if threshold is not None and K != 2:
        raise IngestError("score thresholding defines a binary rule; "
                          f"got {K} classes")
    counts = np.zeros((K, K))
    totals = np.zeros(K)
    for i, rec in enumerate(records):
        totals[rec.true_class] += 1
        if threshold is not None:
            if rec.score is None:
                raise IngestError(f"record {i}: no score to threshold")
            pred = 0 if rec.score >= threshold else 1
        else:
            if rec.predicted_class is None:
                raise IngestError(f"record {i}: no predicted_class and "
                                  "no threshold given")
            pred = rec.predicted_class
        counts[rec.true_class, pred] += 1
    _check_class_count(records, K)
    missing = np.nonzero(totals == 0)[0]
    if missing.size:
        raise EmptyClassError(
            f"no records for true class(es) {[int(k) + 1 for k in missing]}")
    rows = counts + laplace
    q = rows / rows.sum(axis=1, keepdims=True)
    p_hat = totals / totals.sum()
    if np.any(p_hat @ q <= 0):
        dead = np.nonzero(p_hat @ q <= 0)[0]
        raise ZeroColumnError(
            f"predicted class(es) {[int(l) + 1 for l in dead]} never occur; "
            "the scheduling model needs every predicted class reachable")
    return ConfusionMatrix(q), p_hat


def estimate_rates(records: Sequence[ValidationRecord],
                   n_classes: Optional[int] = None):
    """Per-class service rates and second moments: (mu_hat, alpha_v_hat)."""
    K = _infer_n_classes(records, n_classes, predicted=False)
    sums = np.zeros(K)
    sq_sums = np.zeros(K)
    counts = np.zeros(K)
    for i, rec in enumerate(records):
        if rec.service_time is None:
            raise IngestError(f"record {i}: missing service_time")
        counts[rec.true_class] += 1
        sums[rec.true_class] += rec.service_time
        sq_sums[rec.true_class] += rec.service_time ** 2
    _check_class_count(records, K)
    missing = np.nonzero(counts == 0)[0]
    if missing.size:
        raise EmptyClassError(
            f"no service times for class(es) {[int(k) + 1 for k in missing]}")
    mu_hat = counts / sums
    alpha_v_hat = sq_sums / counts
    return mu_hat, alpha_v_hat


def scores_by_class(records: Sequence[ValidationRecord],
                    n_classes: int = 2) -> list:
    """Scores grouped by true class (for passing-curve estimation)."""
    out = [[] for _ in range(n_classes)]
    for i, rec in enumerate(records):
        if rec.score is None:
            raise IngestError(f"record {i}: missing score")
        if rec.true_class >= n_classes:
            raise IngestError(f"record {i}: class {rec.true_class + 1} "
                              f"exceeds n_classes={n_classes}")
        out[rec.true_class].append(rec.score)
    return [np.asarray(s, dtype=float) for s in out]

import tracemalloc

import numpy as np
import pytest

from pqsched import (
    ConfigError,
    EmptyClassError,
    IngestError,
    ValidationTable,
    ZeroColumnError,
    estimate_confusion,
    estimate_rates,
    read_validation_csv,
    scores_by_class,
)
from helpers import bench_inputs
from reference_ingest import ValidationRecord, as_table


def _records(pairs):
    return as_table([ValidationRecord(true_class=k, predicted_class=l) for k, l in pairs])


# ----------------------------------------------------------- confusion

def test_confusion_from_counts():
    pairs = [(0, 0)] * 9 + [(0, 1)] * 1 + [(1, 0)] * 2 + [(1, 1)] * 8
    q, p = estimate_confusion(_records(pairs))
    assert np.allclose(q.entries, [[0.9, 0.1], [0.2, 0.8]])
    assert p == pytest.approx([0.5, 0.5])


def test_confusion_perfect_classifier():
    q, p = estimate_confusion(_records([(0, 0), (1, 1), (0, 0), (1, 1), (1, 1)]))
    assert np.allclose(q.entries, np.eye(2))
    assert p == pytest.approx([0.4, 0.6])


def test_confusion_concentrates(rng):
    true_q = np.array([[0.9, 0.1], [0.2, 0.8]])
    n = 100_000
    ks = rng.integers(0, 2, size=n)
    us = rng.random(n)
    ls = np.where(us < true_q[ks, 0], 0, 1)
    q, p = estimate_confusion(_records(zip(ks.tolist(), ls.tolist())))
    assert np.max(np.abs(q.entries - true_q)) < 0.01
    assert abs(p[0] - 0.5) < 0.01


def test_confusion_order_invariance(rng):
    pairs = [(0, 0)] * 5 + [(0, 1)] * 3 + [(1, 1)] * 7 + [(1, 0)] * 2
    q1, p1 = estimate_confusion(_records(pairs))
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    q2, p2 = estimate_confusion(_records(shuffled))
    assert np.array_equal(q1.entries, q2.entries)
    assert np.array_equal(p1, p2)


def test_confusion_threshold_mode():
    recs = [ValidationRecord(0, score=s) for s in (0.9, 0.6, 0.2)]
    recs += [ValidationRecord(1, score=s) for s in (0.7, 0.1, 0.3, 0.4)]
    q, p = estimate_confusion(as_table(recs), threshold=0.5)
    assert np.allclose(q.entries, [[2 / 3, 1 / 3], [0.25, 0.75]])
    assert p == pytest.approx([3 / 7, 4 / 7])
    with pytest.raises(IngestError):
        estimate_confusion(as_table([ValidationRecord(0, score=None),
                                     ValidationRecord(1, score=0.2)]), threshold=0.5)
    three = [ValidationRecord(k, score=0.5) for k in (0, 1, 2)]
    with pytest.raises(IngestError):
        estimate_confusion(as_table(three), threshold=0.5)   # binary rule only


def test_confusion_zero_column_and_laplace():
    one_sided = _records([(0, 0), (1, 0), (0, 0)])
    with pytest.raises(ZeroColumnError):
        estimate_confusion(one_sided)
    q, _ = estimate_confusion(one_sided, laplace=1.0)
    # rows become (counts + 1) / (row_total + 2)
    assert np.allclose(q.entries, [[3 / 4, 1 / 4], [2 / 3, 1 / 3]])
    # a pseudo-count that is negative, NaN or infinite smooths nothing
    for laplace in (-1.0, -0.5, np.nan, np.inf):
        with pytest.raises(ConfigError, match="laplace"):
            estimate_confusion(one_sided, laplace=laplace)


def test_confusion_empty_class():
    # predicted class 2 counts as a class, and no record is truly of it
    with pytest.raises(EmptyClassError):
        estimate_confusion(_records([(0, 0), (0, 1)]))


def test_confusion_missing_predictions():
    with pytest.raises(IngestError):
        estimate_confusion(as_table([ValidationRecord(0), ValidationRecord(1)]))


# --------------------------------------------------------------- rates

def test_rates_from_constant_services():
    recs = [ValidationRecord(0, service_time=0.5),
            ValidationRecord(0, service_time=0.5),
            ValidationRecord(1, service_time=0.25)]
    mu, alpha_v = estimate_rates(as_table(recs))
    assert mu == pytest.approx([2.0, 4.0])
    assert alpha_v == pytest.approx([0.25, 0.0625])


def test_rates_concentrate_for_exponential(rng):
    n = 20_000
    draws = rng.exponential(scale=0.5, size=n)    # rate 2
    recs = [ValidationRecord(0, service_time=float(s)) for s in draws]
    mu, alpha_v = estimate_rates(as_table(recs))
    assert mu[0] == pytest.approx(2.0, rel=0.03)
    assert alpha_v[0] == pytest.approx(0.5, rel=0.06)   # 2 / mu^2


def test_rates_guards():
    with pytest.raises(IngestError):
        estimate_rates(as_table([ValidationRecord(0, service_time=None)]))
    with pytest.raises(EmptyClassError):   # no service time for true class 1
        estimate_rates(as_table([ValidationRecord(1, predicted_class=1, service_time=1.0)]))


# ------------------------------------------------------------- grouping

def test_scores_by_class():
    recs = [ValidationRecord(0, score=0.9), ValidationRecord(1, score=0.1),
            ValidationRecord(0, score=0.7)]
    groups = scores_by_class(as_table(recs))
    assert groups[0] == pytest.approx([0.9, 0.7])
    assert groups[1] == pytest.approx([0.1])
    with pytest.raises(IngestError):
        scores_by_class(as_table([ValidationRecord(0, score=None)]))
    with pytest.raises(IngestError):
        scores_by_class(as_table([ValidationRecord(2, score=0.5)]))   # curves are two-class


# ------------------------------------------------------------ CSV reader

def _write(tmp_path, text):
    target = tmp_path / "validation.csv"
    target.write_text(text)
    return target


def test_read_validation_csv_happy_path(tmp_path):
    path = _write(tmp_path, "\n".join([
        "true_class,score,predicted_class,service_time",
        "1,0.9,1,0.5",
        "2,0.1,2,0.25",
        "1,,2,",          # blanks read as NaN
    ]) + "\n")
    table = read_validation_csv(path)
    assert len(table) == 3
    assert (table.true_class[0], table.score[0], table.predicted_class[0],
            table.service_time[0]) == (0, 0.9, 0, 0.5)
    assert table.true_class[2] == 0
    assert np.isnan(table.score[2]) and np.isnan(table.service_time[2])
    assert table.predicted_class[2] == 1     # 1-based file, 0-based memory
    assert table.line.tolist() == [2, 3, 4]


def test_read_validation_csv_errors_cite_lines(tmp_path):
    path = _write(tmp_path, "\n".join([
        "true_class,score",
        "1,0.5",
        "1,not-a-number",
    ]) + "\n")
    with pytest.raises(IngestError, match="line 3"):
        read_validation_csv(path)

    path = _write(tmp_path, "true_class,score\n1,1.5\n")
    with pytest.raises(IngestError, match="outside"):
        read_validation_csv(path)

    path = _write(tmp_path, "true_class,service_time\n1,-2.0\n")
    with pytest.raises(IngestError, match="positive"):
        read_validation_csv(path)

    path = _write(tmp_path, "true_class\n0\n")
    with pytest.raises(IngestError, match=">= 1"):
        read_validation_csv(path)

    path = _write(tmp_path, "score\n0.5\n")
    with pytest.raises(IngestError, match="true_class"):
        read_validation_csv(path)

    path = _write(tmp_path, "true_class,score\n")
    with pytest.raises(IngestError, match="no data rows"):
        read_validation_csv(path)


def test_estimator_errors_cite_csv_lines(tmp_path):
    # blank lines count; each error names the first row missing its field
    path = _write(tmp_path, "\n".join([
        "true_class,score,predicted_class,service_time",
        "1,0.9,1,0.5",
        "",
        "2,,2,0.25",
        "1,0.4,,",
    ]) + "\n")
    table = read_validation_csv(path)
    with pytest.raises(IngestError, match=r"^line 4: no score to threshold$"):
        estimate_confusion(table, threshold=0.5)
    with pytest.raises(IngestError, match=r"^line 5: no predicted_class and no threshold given$"):
        estimate_confusion(table)
    with pytest.raises(IngestError, match=r"^line 5: missing service_time$"):
        estimate_rates(table)
    with pytest.raises(IngestError, match=r"^line 4: missing score$"):
        scores_by_class(table)


def test_validation_table_columns():
    table = ValidationTable(true_class=[0, 1], score=[0.5, np.nan], predicted_class=[0, -1],
                            service_time=[1.0, 2.0], line=[2, 3])
    assert table.true_class.dtype == np.int64 and table.score.dtype == float
    assert len(table) == 2
    assert table.blank_line("score") == 3 and table.blank_line("predicted_class") == 3
    assert table.blank_line("service_time") is None
    with pytest.raises(IngestError, match="one entry per row"):
        ValidationTable(true_class=[0, 1], score=[0.5], predicted_class=[0, 1],
                        service_time=[1.0, 2.0], line=[2, 3])


def test_csv_to_estimates_end_to_end(tmp_path):
    rows = ["true_class,score,predicted_class,service_time"]
    rows += [f"1,0.8,1,0.5"] * 8 + ["1,0.4,2,0.5"] * 2
    rows += ["2,0.3,2,1.0"] * 9 + ["2,0.6,1,1.0"] * 1
    path = _write(tmp_path, "\n".join(rows) + "\n")
    recs = read_validation_csv(path)
    q, p = estimate_confusion(recs)
    assert np.allclose(q.entries, [[0.8, 0.2], [0.1, 0.9]])
    assert p == pytest.approx([0.5, 0.5])
    mu, _ = estimate_rates(recs)
    assert mu == pytest.approx([2.0, 1.0])


def test_estimate_holds_its_columns_and_one_chunk(tmp_path):
    # the benchmark's 2e5-row CSV: its columns take about 40 B a row (7.6 MiB);
    # a whole-file newline scan and a Python float list of every service
    # time took the peak to 16.4-16.9 MiB
    path = _write(tmp_path, bench_inputs().validation_rows(np.random.default_rng(0), 200_000))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        table = read_validation_csv(path)
        estimate_rates(table)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert table.reader == "numpy" and len(table) == 200_000
    assert peak <= 12 * 2 ** 20


def test_class_count_is_that_of_the_columns_read():
    table = as_table([ValidationRecord(0, score=0.9, predicted_class=0, service_time=0.5),
                      ValidationRecord(1, score=0.1, predicted_class=2, service_time=1.0)])
    q, _ = estimate_confusion(table, threshold=0.5)   # reads true classes and scores
    assert q.n_classes == 2
    mu, alpha_v = estimate_rates(table)                 # reads true classes only
    assert mu.tolist() == [2.0, 1.0] and alpha_v.tolist() == [0.25, 1.0]
    with pytest.raises(EmptyClassError, match=r"true class\(es\) \[3\]"):
        estimate_confusion(table)                        # predicted class 3 counts here

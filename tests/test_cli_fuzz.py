"""The CLI's error contract under fuzzed inputs: with one or two fields of the
system JSON, the triage JSON or a validation CSV mutated, every command either
completes (exit 0, a manifest written) or exits 1 with exactly one Error: line
after any config warnings, no traceback and no output directory.  Python
warnings run as errors, so a stray numpy warning fails the contract too.  When
every mutation of a JSON input deletes a key or gives a field another JSON
type, the Error: line names one of those fields."""

import copy
import json
import sys
import tempfile
import warnings
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsched.cli import main

SYSTEM = {"lambda": 1.0, "prevalences": [0.5, 0.5], "service_rates": [1.0, 1.0],
          "costs": [{"coeff": 1.0, "power": 2.0}, {"coeff": 10.0, "power": 2.0}],
          "confusion": [[0.9, 0.1], [0.2, 0.8]], "horizon": 2.0,
          "arrival_dist": "exponential", "service_dist": {"family": "lognormal", "sigma": 0.5}}
TRIAGE = {"Lambda": 50000.0, "p": [0.2, 0.8], "mu": [50.0, 200.0],
          "curves": {"kind": "gaussian_logit", "loc": [-1.0, -3.0], "scale": [1.0, 1.0],
                     "grid_size": 101},
          "c_trp": 20.0, "c_trn": -3.0, "c_fp": 3.0, "c_fn": 3.0, "c_tp": -3.0, "c_tn": -3.0,
          "c_r": 800.0, "delay_costs": [15.0, 1.0]}
VALIDATION = [["true_class", "predicted_class", "score", "service_time"],
              ["1", "1", "0.9", "0.02"], ["1", "2", "0.4", "0.03"], ["2", "2", "0.1", "0.005"],
              ["2", "1", "0.6", "0.004"], ["1", "1", "0.7", "0.01"], ["2", "2", "0.2", "0.006"]]

MISSING = object()
# the mutations of a JSON field: missing, wrong type, NaN, +-inf, huge
# integers, subnormals, ragged lists, unknown tags
JSON_VALUES = [MISSING, "abc", None, True, {}, [], float("nan"), float("inf"), float("-inf"),
               10 ** 400, 2 ** 64, -(10 ** 30), 5e-324, 1e-310, 0, -1, [1.0],
               [[1.0, 2.0], [3.0]], "gamma", {"family": "weibull"}, {"kind": "spline"}]
# and of a CSV token; None drops the field, "ragged" adds one
CSV_TOKENS = [None, "ragged", "", "abc", "nan", "inf", "-inf", "1" + "0" * 400, "1e-320",
              "5e-324", "0", "-1", "3", "1.5", "1e18", "9223372036854775808"]

MODEL = [[0.8, 0.2], [0.3, 0.7]]
# command -> (input, arguments after the input path); "config" is the system JSON
ARGS = {
    "simulate": ("config", ["--policy", "pcmu", "--policy", "fcfs", "--paths", "2"]),
    "lower-bound": ("config", ["--paths", "4", "--steps", "100"]),
    "select-model": ("config", []),
    "triage": ("triage", ["--zfl-grid", "0.1:0.6:4", "--paths", "8", "--steps", "100"]),
    "estimate": ("csv", []),
    "estimate --threshold": ("csv", ["--threshold", "0.5"]),
}


def _fields(node, prefix=()):
    """The path of every field below node: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _fields(value, prefix + (key,))


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def _name(original, path: tuple, value):
    """How a refusal names the field at path of the original document when the
    mutation to value deletes its key or changes its JSON type: its dotted
    path, a list entry (or a key below one) by its list's and a key inside a
    distribution tag by the tag's.  None for any other mutation, and for an
    integer past the float range, which the file reader refuses first."""
    node = original
    for key in path:
        if key not in (node if isinstance(node, dict) else
                       range(len(node)) if isinstance(node, list) else ()):
            return None
        node = node[key]
    deleted_key = value is MISSING and isinstance(path[-1], str)
    retyped = value is not MISSING and _json_type(value) != _json_type(node)
    huge = _json_type(value) == "number" and abs(value) > sys.float_info.max
    if huge or not (deleted_key or retyped):
        return None
    names = []
    for key in path:
        if isinstance(key, int):
            break
        names.append(key)
        if key.endswith("_dist"):
            break
    return ".".join(names)


@st.composite
def mutated_json(draw, original):
    """(text, names): the mutated document, and the names of its mutated fields
    when each mutation deletes a key or changes a JSON type (else None)."""
    doc, names = copy.deepcopy(original), []
    for _ in range(draw(st.integers(1, 2))):
        fields = list(_fields(doc))
        if not fields:
            break
        *parent, key = draw(st.sampled_from(fields))
        node = doc
        for k in parent:
            node = node[k]
        value = draw(st.sampled_from(JSON_VALUES))
        names.append(_name(original, (*parent, key), value))
        if value is MISSING:
            del node[key]
        else:
            node[key] = copy.deepcopy(value)
    return json.dumps(doc), None if None in names else names


@st.composite
def mutated_csv(draw):
    rows = [list(row) for row in VALIDATION]
    for _ in range(draw(st.integers(1, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        token = draw(st.sampled_from(CSV_TOKENS + ["weird"]))
        if token == "ragged":
            row.append("1")
        elif row:
            i = draw(st.integers(0, len(row) - 1))
            if token is None:
                del row[i]
            else:
                row[i] = token
    return "\n".join(",".join(row) for row in rows) + "\n", None


INPUTS = {"config": mutated_json(SYSTEM), "triage": mutated_json(TRIAGE), "csv": mutated_csv()}


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(ARGS)), data=st.data())
def test_any_mutated_input_is_a_run_or_one_error_line(command, data):
    kind, extra = ARGS[command]
    text, names = data.draw(INPUTS[kind], label=kind)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / f"input.{'csv' if kind == 'csv' else 'json'}", Path(tmp) / "out"
        path.write_text(text)
        args = [command.split()[0], "--csv" if kind == "csv" else "--config", str(path), *extra]
        if command == "select-model":
            (Path(tmp) / "model.json").write_text(json.dumps(MODEL))
            args += ["--model", str(Path(tmp) / "model.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = CliRunner().invoke(main, [*args, "--out", str(out)])
        assert result.exception is None or isinstance(result.exception, SystemExit), \
            (result.exception, result.output)
        assert "Traceback" not in result.output
        if result.exit_code == 0:
            assert (out / "manifest.json").exists()
            return
        assert result.exit_code == 1, result.output
        lines = [line for line in result.stderr.splitlines() if not line.startswith("warning: ")]
        assert len(lines) == 1 and lines[0].startswith("Error: "), result.stderr
        assert names is None or any(name in lines[0] for name in names), (names, lines[0])
        assert not out.exists()

"""README.md's examples run: every ```python block, in order, in one
namespace, so a name or argument the docs use and the package no longer
has fails the suite."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _validation_csv(n_rows: int = 60) -> str:
    """A small clean validation file: 1-based classes, scores that lean
    toward class 1 for class-1 rows, and service times."""
    rng = np.random.default_rng(7)
    true_class = 1 + np.arange(n_rows) % 2
    score = np.clip(np.where(true_class == 1, 0.7, 0.3) + rng.normal(0.0, 0.2, n_rows), 0.0, 1.0)
    predicted = np.where(score >= 0.5, 1, 2)
    service = rng.exponential(1.0, n_rows) + 0.01
    rows = [f"{k},{s:.4f},{p},{t:.4f}"
            for k, s, p, t in zip(true_class, score, predicted, service)]
    return "\n".join(["true_class,score,predicted_class,service_time", *rows]) + "\n"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    (tmp_path / "validation.csv").write_text(_validation_csv(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for i, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {i}", "exec"), namespace)
    assert capsys.readouterr().out   # the examples print their results

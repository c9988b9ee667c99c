"""The README's library snippet runs, as written, against the package."""

import re
from pathlib import Path

import numpy as np

from codechain import cli

ROOT = Path(__file__).resolve().parents[1]


def library_snippet() -> str:
    """The first python block under the README's "Library use" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_the_library_snippet_runs_on_a_default_synth_corpus(tmp_path, monkeypatch):
    assert cli.main(["synth", "--out-dir", str(tmp_path / "data")]) == 0
    monkeypatch.chdir(tmp_path)  # the snippet reads data/source.jsonl and data/target.jsonl
    scope = {}
    exec(compile(library_snippet(), str(ROOT / "README.md"), "exec"), scope)
    target, labels, weights = scope["target"], scope["labels"], scope["weights"]
    assert labels.scores.shape == (len(target), scope["source"].n_classes)
    assert weights.shape == (target.n_channels,) and ((weights >= 0.0) & (weights <= 1.0)).all()
    assert np.isfinite(labels.confidence).all()

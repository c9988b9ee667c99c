"""The README's snippets run, as written, against the package, and its
configuration tables name exactly the config fields."""

import base64
import re
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np

from codechain import cli, records, synth
from codechain import dataset as ds

ROOT = Path(__file__).resolve().parents[1]


def section(heading: str) -> str:
    """The text under a README level-2 heading, up to the next one."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def snippet(heading: str, language: str = "python") -> str:
    """The first block of a language under a README heading."""
    return re.search(rf"```{language}\n(.*?)```", section(heading), re.DOTALL).group(1)


def table_keys(text: str) -> list[set]:
    """Per markdown table of text, the backquoted names in its first column."""
    tables = re.findall(r"(?:^\|.*\n)+", text, re.MULTILINE)
    return [set(re.findall(r"`(\w+)`", " ".join(row.split("|")[1] for row in t.splitlines())))
            for t in tables]


def test_the_quick_start_commands_run_and_write_every_listed_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the commands read and write data/, model/ and out/
    lines = snippet("Quick start", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]
    assert [argv[:2] for argv in commands] == [["codechain", s] for s in ("synth", "fit", "label", "eval")]
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
    listed = re.findall(r"`(\w+/[\w.]+)`", section("Quick start").split("### Outputs", 1)[1])
    assert len(listed) == 8 and all(Path(name).is_file() for name in listed), listed


def test_the_configuration_tables_name_exactly_the_config_fields():
    run_keys, synth_keys = table_keys(section("Configuration"))
    assert run_keys == {f.name for f in fields(cli.RunConfig)}
    assert synth_keys == {f.name for f in fields(synth.SynthConfig)}


def test_the_library_snippet_runs_on_a_default_synth_corpus(tmp_path, monkeypatch):
    assert cli.main(["synth", "--out-dir", str(tmp_path / "data")]) == 0
    monkeypatch.chdir(tmp_path)  # the snippet reads data/source.jsonl and data/target.jsonl
    scope = {}
    exec(compile(snippet("Library use"), str(ROOT / "README.md"), "exec"), scope)
    target, labels, weights = scope["target"], scope["labels"], scope["weights"]
    assert labels.scores.shape == (len(target), scope["source"].n_classes)
    assert weights.shape == (target.n_channels,) and ((weights >= 0.0) & (weights <= 1.0)).all()
    assert np.isfinite(labels.confidence).all()


def test_the_data_format_line_writes_channels_that_load_bit_for_bit(tmp_path):
    # a transposed view, so the line must write the (channels, time) values row-major
    x = np.array([[1 / 3, -2.5e-310], [-0.0, 2.0], [5e-324, -7.0], [1e308, 0.1]]).T
    scope = {"base64": base64, "np": np, "x": x}
    exec(compile(snippet("Data format"), str(ROOT / "README.md"), "exec"), scope)
    header = {"kind": "corpus", "role": "target", "n_channels": 2, "length": 4, "n_classes": 2,
              "n_instances": 1, "channels_encoding": "base64-float64le"}
    path = tmp_path / "c.jsonl"
    records.write_record_file(path, header, [{"id": "a", "label": None, "channels": scope["channels"]}])
    back = ds.load_corpus(path)
    assert back.values.shape == (1, 2, 4)
    assert back.values[0].tobytes() == x.tobytes()

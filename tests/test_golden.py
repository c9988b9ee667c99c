"""Golden artifact hashes: every file that synth, fit, label and eval write.

Each case runs the whole CLI pipeline on a tiny corpus, driven by flags
or by a config file, and compares the sha256 of every file it wrote
with ``golden_hashes.json``. A change that moves an artifact byte fails
here, so a change meant to keep the bytes is checked by Tier-1 rather
than by hand. A change that moves bytes on purpose regenerates the file
in the same diff and says why:

    PYTHONPATH=src python tests/test_golden.py --write

Floats depend on numpy and its BLAS, so the file records the numpy
version it was made with and a failure names both versions.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from codechain import cli

GOLDEN = Path(__file__).with_name("golden_hashes.json")

# name -> (synth flags, flags given to fit, label and eval, target file).
# The default case pools 60 * 3 * 16 = 2880 patches, more than one block
# of the blocked nearest-code search; both Lloyd stages of the
# raw-embed-at-cap case stop at their iteration cap.
CASES = {
    "defaults": (
        ("--n-source", "60", "--n-target", "40", "--seed", "3"),
        (),
        "target.jsonl",
    ),
    "codes16-corrupt": (
        ("--n-source", "30", "--n-target", "20", "--seed", "4", "--noise", "0.3,0.3,0",
         "--corrupt-channel", "2", "--corrupt-magnitudes", "1.5"),
        ("--n-coarse", "16"),
        "target_corrupt_0.jsonl",
    ),
    "no-ca-prior-tau": (
        ("--n-source", "30", "--n-target", "20", "--length", "64", "--seed", "5"),
        ("--n-coarse", "4", "--n-fine", "8", "--no-use-ca", "--prior", "0.4,0.3,0.2,0.1",
         "--tau", "0.5", "--r-top", "0.3"),
        "target.jsonl",
    ),
    "d-dim-projection": (
        ("--n-source", "30", "--n-target", "20", "--seed", "6"),
        ("--d-dim", "5", "--projection-seed", "2"),
        "target.jsonl",
    ),
    "raw-embed-at-cap": (
        ("--n-source", "30", "--n-target", "20", "--seed", "7"),
        ("--embed-mode", "raw", "--n-fine", "16", "--max-iters", "3"),
        "target.jsonl",
    ),
    "config-file": ((), (), "target.jsonl"),
}

# name -> the config file every stage of that case reads (written as
# run.json, so its hash is pinned too). JSON ints stand in for floats
# ("tau": 2, "shift_scale": 2) and for regime cells: the header echoes
# keep a scalar as given and write a vector as floats.
CONFIG_FILES = {
    "config-file": {
        "tau": 2,
        "prior": [0.7, 0.3],
        "n_coarse": 4,
        "n_fine": 8,
        "seed": 8,
        "synth": {
            "n_classes": 2,
            "n_channels": 2,
            "n_primitives": 3,
            "length": 64,
            "n_source": 30,
            "n_target": 20,
            "shift_scale": 2,
            "noise": [0.2, 0],
            "class_probs_target": [0.75, 0.25],
            "class_regimes": [
                [[[0, 1, 0], [0.5, 0, 0.5], [1, 0, 0]], [[0.2, 0.8, 0], [0, 0, 1], [1, 0, 0]]],
                [[[0, 0, 1], [1, 0, 0], [0.5, 0.5, 0]], [[0, 1, 0], [0.1, 0.1, 0.8], [0, 0, 1]]],
            ],
        },
    },
}


def run_case(name: str, base: Path) -> dict[str, str]:
    """Run one case's pipeline under base; sha256 of every file written, by relative path."""
    synth_flags, run_flags, target = CASES[name]
    data, model, out = base / "data", base / "model", base / "out"
    if name in CONFIG_FILES:
        base.mkdir(parents=True, exist_ok=True)
        (base / "run.json").write_text(json.dumps(CONFIG_FILES[name]), encoding="utf-8")
        run_flags = ("--config", base / "run.json", *run_flags)
        synth_flags = ("--config", base / "run.json", *synth_flags)
    steps = (
        ("synth", "--out-dir", data, *synth_flags),
        ("fit", "--source", data / "source.jsonl", "--out-dir", model, *run_flags),
        ("label", "--target", data / target, "--quantizer", model / "quantizer.jsonl",
         "--transitions", model / "transitions.jsonl", "--out-dir", out, *run_flags),
        ("eval", "--labels", out / "labels.jsonl", "--truth", data / "target_truth.jsonl",
         "--subset", out / "selected.jsonl", "--out", out / "metrics.jsonl", *run_flags),
    )
    for argv in steps:
        code = cli.main([str(a) for a in argv])
        assert code == 0, f"{name}: {argv[0]} exited {code}"
    return {
        path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(base.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden_hashes(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_case(name, tmp_path)
    want = golden["cases"][name]
    moved = sorted(rel for rel in set(got) | set(want) if got.get(rel) != want.get(rel))
    assert not moved, (
        f"case {name!r}: artifacts differ from {GOLDEN.name}: {moved}; hashes were made "
        f"with numpy {golden['numpy']}, this run uses numpy {np.__version__}"
    )


# Everything fit, label and eval print for one case, line for line; the
# first line, synth's, names the temporary directory and is left out.
# `--write` does not touch these: a change that moves them on purpose
# edits them here and says why.
STDOUT_CASE = "no-ca-prior-tau"
STDOUT = """\
fit: 30 instances, 720 patches, d_dim=8
lloyd: coarse 11 iterations (converged), fine 15 iterations (converged)
coarse codes: 0/4 dead (0.0%), fine codes: 0/8 dead (0.0%)
recon mse: coarse 0.047117, coarse+fine 0.030130
class 0: mean self-transition 0.196, top transition 0->3 p=0.496
class 1: mean self-transition 0.229, top transition 1->0 p=0.510
class 2: mean self-transition 0.287, top transition 1->0 p=0.548
class 3: mean self-transition 0.225, top transition 2->0 p=0.656
label: 20 instances, mean confidence 0.5338, selected 6 (r_top=0.3)
label counts: 0:9 1:11 2:0 3:0
channel weights: 1.0000 1.0000 1.0000 (alignment disabled)
eval: n=20 accuracy=0.4000 macro_f1=0.2679
per-class f1: 0.5714 0.5000 0.0000 0.0000
top-r subset: n=6 accuracy=0.5000 macro_f1=0.2143
"""


def test_stage_stdout_matches_its_pinned_lines(tmp_path, capsys):
    run_case(STDOUT_CASE, tmp_path)
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("synth: wrote 30 source and 20 target instances to ")
    assert printed[1:] == STDOUT.splitlines()


def write_golden(scratch: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        cases = {name: run_case(name, scratch / name) for name in sorted(CASES)}
    text = json.dumps({"numpy": np.__version__, "cases": cases}, indent=1, sort_keys=True)
    GOLDEN.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_golden(Path(tmp))
    print(f"wrote {GOLDEN}")

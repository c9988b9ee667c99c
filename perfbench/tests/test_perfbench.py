"""Tests of the benchmark itself: reduced-size runs of every workload,
traced against untraced artifacts, and the span arithmetic.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from spans import layer_metrics, self_times  # noqa: E402


def _bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = list(bench.END_TO_END_UNITS) if trace == 0 else bench.per_layer_names()
    assert sorted(result["metrics"]) == sorted(want)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == bench.unit_of(name)
        assert f"{name} = {metric['value']!r} {metric['unit']}" in lines


def _stage(tmp, run_id, traced, argv):
    result = tmp / f"{run_id}.json"
    cmd = [sys.executable, str(BENCH / "stage.py"), str(ROOT / "src"), str(result), run_id, str(traced), "--", *argv]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    out = json.loads(result.read_text())
    assert out["rc"] == 0
    return out


def test_traced_stages_write_the_same_bytes_as_untraced(tmp_path):
    corpus = tmp_path / "corpus"
    synth = ["synth", "--out-dir", str(corpus), "--n-source", "40", "--n-target", "40", "--seed", "5"]
    _stage(tmp_path, "synth", 0, synth)
    outputs = {}
    for traced in (0, 1):
        fit, label = tmp_path / f"fit{traced}", tmp_path / f"label{traced}"
        _stage(tmp_path, f"fit{traced}", traced, ["fit", "--source", str(corpus / "source.jsonl"), "--out-dir", str(fit)])
        out = _stage(tmp_path, f"label{traced}", traced, [
            "label", "--target", str(corpus / "target.jsonl"), "--quantizer", str(fit / "quantizer.jsonl"),
            "--transitions", str(fit / "transitions.jsonl"), "--out-dir", str(label),
        ])
        assert ("spans" in out) == bool(traced)
        outputs[traced] = {p.name: p.read_bytes() for d in (fit, label) for p in sorted(d.iterdir())}
    assert len(outputs[0]) == 5
    assert outputs[0] == outputs[1]


def test_self_time_and_absent_spans():
    ms = 1_000_000
    spans = [
        {"name": "rvq.fit", "parent": -1, "start": 0, "end": 10 * ms},
        {"name": "rvq.encode", "parent": 0, "start": 1 * ms, "end": 4 * ms, "counts": {"patches": 6}},
        {"name": "rvq.encode", "parent": 0, "start": 5 * ms, "end": 6 * ms, "counts": {"patches": 6}},
    ]
    assert self_times(spans) == pytest.approx([0.006, 0.003, 0.001])
    got = layer_metrics("fit", spans, wall_s=0.015)
    assert got["fit.rvq.fit_s"] == pytest.approx(0.010)
    assert got["fit.rvq.encode_s"] == pytest.approx(0.004)
    assert got["fit.traced_wall_s"] == 0.015
    assert got["fit.unattributed_s"] == pytest.approx(0.005)
    # no records or markov spans and no fit counters: those metrics are absent, not zero
    assert "fit.records.read_s" not in got
    assert "fit.rvq.reencode_ratio" not in got


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", next(iter(bench.WORKLOADS)), "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, bench.unit_of(n)) for n in bench.per_layer_names()]

"""What the benchmark in perfbench/ relies on: a last line of strict JSON
holding every end-to-end metric as a finite number, every per-layer
metric when traced, and the public functions its span map names."""

import importlib
import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _refuse(token):
    raise ValueError(f"{token} is not a JSON number")


def _smoke_result(workload: str, trace: int) -> dict:
    """The strict-JSON last line of a smoke run, once it reports success."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_refuse)
    assert result["correct"] is True and result["failed"] == 0
    return result


def _declared(kind: str) -> list[str]:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


def test_a_smoke_run_ends_with_strict_json_holding_every_end_to_end_metric():
    result = _smoke_result("codes-16", trace=0)
    names = _declared("end_to_end")
    assert len(names) == 8
    for name in names:
        value = result["metrics"][name]["value"]
        assert type(value) in (int, float) and math.isfinite(value), (name, value)


def test_a_traced_smoke_run_reports_every_per_layer_metric():
    result = _smoke_result("shift-1k", trace=1)
    names = _declared("per_layer")
    assert len(names) >= 30
    missing = [name for name in names if name not in result["metrics"]]
    assert not missing, missing


def test_every_function_the_span_map_names_is_public_in_its_module():
    sys.path.insert(0, str(BENCH))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))
    text = (BENCH / "spans.py").read_text(encoding="utf-8")
    names = sorted({
        (module, function)
        for module, function in re.findall(r'"([a-z_]+)\.([a-z_]+)"', text)
        if module in spans.TRACED_MODULES
    })
    assert len(names) >= 10
    for module, function in names:
        home = importlib.import_module(f"codechain.{module}")
        obj = getattr(home, function, None)
        assert not function.startswith("_") and inspect.isfunction(obj), f"{module}.{function}"
        assert obj.__module__ == home.__name__, f"{module}.{function} is not defined in {module}"

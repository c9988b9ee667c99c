"""Benchmark of the codechain pipeline: synth -> fit -> label -> eval.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: it runs the program from ``src/`` of the checkout that
holds this directory, through the CLI contract only (``cli.main`` with
the ``synth``, ``fit``, ``label`` and ``eval`` subcommands, and the
record files they write). Every stage call runs alone in a fresh child
process (stage.py), timed around ``cli.main``, so each stage has its
own peak RSS. BLAS threads are capped at the usable core count.

One run repeats ``synth``, ``fit`` and ``label`` (``label_calls``
times) on each of the workload's corpora, each corpus from its own seed derived from
``--seed``, until ``--seconds`` have passed since the run began; then
``eval`` scores each corpus's labels once. Set-up (``synth``) repeats
with the rest, so a slow spell of the machine weighs on every stage
alike. A time is the median over all calls of its stage. Every call and
every output check counts in ``attempted``; a failure counts in
``failed`` and makes ``correct`` false. Every file a stage writes must
be byte-identical across the repetitions of a run, traced or not.

With ``--trace 0`` the last line holds the end-to-end metrics. With
``--trace 1`` every other call runs traced (spans.py) and the last line
holds the per-layer metrics (medians over the traced calls) plus each
stage's tracing overhead against the untraced calls of the same run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import LAYER_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    corpora: int  # independent corpora per run; more average out input-dependent work
    label_calls: int  # label calls per fit; more give a short label stage as many samples
    n_source: int
    n_target: int
    synth: tuple[str, ...]  # synth flags besides the corpus sizes and the seed
    run: tuple[str, ...]  # pipeline flags given to both fit and label
    target: str  # the corpus file that label reads
    accuracy_floor: float  # about 0.1 below the lowest accuracy of seeds 1-10 at the seed commit


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "shift-1k": Workload(
        corpora=1,
        label_calls=3,
        n_source=1000,
        n_target=1000,
        synth=("--shift-scale", "2.0", "--shift-offset", "1.0", "--target-regime-mix", "0.6", "--noise", "0.3"),
        run=(),
        target="target.jsonl",
        accuracy_floor=0.75,
    ),
    "codes-16": Workload(
        corpora=3,
        label_calls=1,
        n_source=300,
        n_target=300,
        synth=("--noise", "0.3,0.3,0", "--corrupt-channel", "2", "--corrupt-magnitudes", "1.5"),
        run=("--n-coarse", "16"),
        target="target_corrupt_0.jsonl",
        accuracy_floor=0.85,
    ),
}

R_TOP = 0.5
STAGE_TIMEOUT_S = 150
SMOKE_DIVISOR = 10  # --smoke divides both corpus sizes by this
FIT_ARTIFACTS = ("quantizer.jsonl", "transitions.jsonl")
LABEL_ARTIFACTS = ("labels.jsonl", "selected.jsonl", "alignment_report.tsv")

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "label_s": "s",
    "fit_peak_rss_mb": "MB",
    "label_peak_rss_mb": "MB",
    "accuracy": "1",
    "macro_f1": "1",
    "selected_accuracy": "1",
}


def unit_of(name: str) -> str:
    """Unit of an end-to-end or per-layer metric, from its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if ".bytes_" in name:
        return "bytes"
    if name.endswith("_calls") or "_iters_" in name:
        return "count"
    return "1"  # ratios and fractions


def per_layer_names() -> list[str]:
    names = []
    for stage, table in LAYER_METRICS.items():
        names += [*table, f"{stage}.traced_wall_s", f"{stage}.unattributed_s", f"{stage}.trace_overhead_frac"]
    return names


def read_records(path: Path) -> tuple[dict, list[dict]]:
    """(header, records) of a record file: one JSON object per line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:] if line.strip()]


class Run:
    """One benchmark run: its work directory, child processes and checks."""

    def __init__(self, workload: Workload, seed: int, work: Path, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.attempted = 0
        self.failed = 0
        self.calls = 0
        self.samples: dict[tuple[str, bool], list[dict]] = {}
        self.digests: dict[str, str] = {}
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        print(f"blas threads: {threads} (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, MKL_NUM_THREADS)")

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def stage(self, stage: str, cli_args: list[str], traced: bool) -> bool:
        """Run one CLI stage in a child process and keep its result."""
        run_id = f"{stage}-{self.calls}"
        self.calls += 1
        result_path = self.work / f"{run_id}.json"
        cmd = [sys.executable, str(HERE / "stage.py"), str(SRC), str(result_path), run_id, str(int(traced)), "--", *cli_args]
        with open(self.work / f"{run_id}.log", "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env, timeout=STAGE_TIMEOUT_S)
                ok = proc.returncode == 0 and result_path.is_file()
            except subprocess.TimeoutExpired:
                ok = False
        result = json.loads(result_path.read_text(encoding="utf-8")) if ok else None
        if not self.check(result is not None and result["rc"] == 0, f"{run_id} exited non-zero"):
            log_tail = (self.work / f"{run_id}.log").read_text(encoding="utf-8").splitlines()[-20:]
            print("\n".join(log_tail), file=sys.stderr)
            return False
        self.samples.setdefault((stage, traced), []).append(result)
        return True

    def same_bytes(self, folder: Path, names) -> None:
        """Check files against their bytes in the first repetition."""
        for name in names:
            key = str((folder / name).relative_to(self.work))
            if not self.check((folder / name).is_file(), f"{key} was not written"):
                continue
            digest = hashlib.sha256((folder / name).read_bytes()).hexdigest()
            first = self.digests.setdefault(key, digest)
            self.check(digest == first, f"{key} differs between repetitions of one seed")

    def setup(self, j: int, traced: bool) -> bool:
        w, corpus = self.workload, self.work / f"corpus-{j}"
        div = SMOKE_DIVISOR if self.smoke else 1
        args = [
            "synth", "--out-dir", str(corpus), "--seed", str(self.seed * 100 + j),
            "--n-source", str(w.n_source // div), "--n-target", str(w.n_target // div), *w.synth,
        ]
        if not self.stage("setup", args, traced):
            return False
        self.same_bytes(corpus, sorted(p.name for p in corpus.iterdir()))
        return True

    def pipeline(self, j: int, traced: bool) -> bool:
        w, corpus = self.workload, self.work / f"corpus-{j}"
        fit, label = self.work / f"fit-{j}", self.work / f"label-{j}"
        if not self.stage("fit", ["fit", "--source", str(corpus / "source.jsonl"), "--out-dir", str(fit), *w.run], traced):
            return False
        args = [
            "label", "--target", str(corpus / w.target), "--quantizer", str(fit / "quantizer.jsonl"),
            "--transitions", str(fit / "transitions.jsonl"), "--out-dir", str(label), "--r-top", str(R_TOP), *w.run,
        ]
        self.same_bytes(fit, FIT_ARTIFACTS)
        for _ in range(w.label_calls):
            if not self.stage("label", args, traced):
                return False
            self.same_bytes(label, LABEL_ARTIFACTS)
        return True

    def evaluate(self, j: int) -> dict | None:
        """eval's scores for corpus j, after checking its label files."""
        truth, label = self.work / f"corpus-{j}" / "target_truth.jsonl", self.work / f"label-{j}"
        out = self.work / f"eval-{j}.jsonl"
        args = ["eval", "--labels", str(label / "labels.jsonl"), "--truth", str(truth), "--subset", str(label / "selected.jsonl"), "--out", str(out)]
        if not self.stage("eval", args, False):
            return None
        try:
            splits = {rec["split"]: rec for rec in read_records(out)[1]}
            scores = {
                "accuracy": splits["all"]["accuracy"],
                "macro_f1": splits["all"]["macro_f1"],
                "selected_accuracy": splits["selected"]["accuracy"],
            }
            self.check_labels(truth, label)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            self.check(False, f"unreadable eval or label records of corpus {j}: {exc!r}")
            return None
        if not self.smoke:  # corpora a tenth the size give no stable accuracy
            floor = self.workload.accuracy_floor
            self.check(scores["accuracy"] >= floor, f"accuracy {scores['accuracy']} on corpus {j} below the floor {floor}")
        return scores

    def check_labels(self, truth_path: Path, label: Path) -> None:
        truth_header, truth = read_records(truth_path)
        ids = sorted(rec["id"] for rec in truth)
        k = truth_header["n_classes"]
        _, labels = read_records(label / "labels.jsonl")
        self.check(sorted(rec["id"] for rec in labels) == ids, "labels.jsonl is not one record per target id")
        self.check(all(0 <= rec["label"] < k for rec in labels), f"a label outside [0, {k})")
        self.check(
            all(len(rec["scores"]) == k and all(map(math.isfinite, rec["scores"])) for rec in labels),
            "a label record without a finite score for every class",
        )
        _, selected = read_records(label / "selected.jsonl")
        want = math.ceil(R_TOP * len(ids))
        self.check(len(selected) == want, f"selected.jsonl holds {len(selected)} records, not {want}")

    def median(self, stage: str, key: str, traced: bool = False) -> float:
        return statistics.median(r[key] for r in self.samples[(stage, traced)])


def measure(run: Run, seconds: float, trace: bool) -> dict | None:
    """Run the workload; returns the metrics of the requested kind."""
    g = run.workload.corpora
    start = time.perf_counter()
    reps, last = 0, 0.0
    while reps < (2 if trace else 1) or time.perf_counter() - start + last < seconds:
        rep_start = time.perf_counter()
        for j in range(g):
            traced = trace and (reps * g + j) % 2 == 1
            if not (run.setup(j, traced) and run.pipeline(j, traced)):
                return None
        last = time.perf_counter() - rep_start
        reps += 1
    for key, digest in sorted(run.digests.items()):
        print(f"sha256 {digest}  {key}")
    per_corpus = [run.evaluate(j) for j in range(g)]
    if None in per_corpus:
        return None
    for (stage, traced), results in sorted(run.samples.items()):
        print(f"samples: {stage} {'traced' if traced else 'untraced'} n={len(results)}")
    if not trace:
        return {
            "setup_s": run.median("setup", "wall_s"),
            "fit_s": run.median("fit", "wall_s"),
            "label_s": run.median("label", "wall_s"),
            "fit_peak_rss_mb": run.median("fit", "peak_rss_mb"),
            "label_peak_rss_mb": run.median("label", "peak_rss_mb"),
            **{name: statistics.mean(s[name] for s in per_corpus) for name in per_corpus[0]},
        }
    metrics = {}
    for stage in LAYER_METRICS:
        per_call = [layer_metrics(stage, r["spans"], r["wall_s"]) for r in run.samples[(stage, True)]]
        for name in per_call[0]:
            metrics[name] = statistics.median_low(m[name] for m in per_call if name in m)
        metrics[f"{stage}.trace_overhead_frac"] = run.median(stage, "wall_s", True) / run.median(stage, "wall_s") - 1.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="corpora a tenth the size, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "codechain" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'codechain' / 'cli.py'} is missing", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, work, args.smoke)
        metrics = measure(run, args.seconds, bool(args.trace)) or {}
    finally:
        shutil.rmtree(work)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for name, value in metrics.items():
        print(f"{name} = {value!r} {unit_of(name)}")
    correct = run.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": max(run.failed, int(not correct)),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

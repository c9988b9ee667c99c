"""Span recording around codechain's public functions, and the per-layer
metrics derived from the recorded spans.

The recorder works from outside the program: ``Tracer.install`` replaces
each public module-level function of the traced modules with a wrapper
that records a span. ``codechain.cli`` calls these functions as module
attributes (``rvq.fit``, ``ds.load_corpus``), and a module's own calls
go through its globals, which are the same dictionary, so both are seen.
A call made through a name bound by ``from .x import f`` is not seen:
``pseudolabel`` binds ``embed`` and ``encode`` that way, and ``rvq``
binds ``patchify``, so their calls through those names stay inside the
caller's span.

A span is a dict with the name (``<module>.<function>``), start and end
(``perf_counter_ns``), the index of its parent span (-1 at top level),
the run id, and counters a probe read from the call's arguments, return
value or files. Spans stay in memory until the stage ends.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import time

TRACED_MODULES = ("records", "dataset", "synth", "rvq", "markov", "transport", "pseudolabel")


def _file_bytes(bound, result):
    return {"bytes": os.path.getsize(bound.arguments["path"])}


def _fit_counts(bound, result):
    pool = sum(g.latents.size // g.latents.shape[-1] for g in bound.arguments["latent_grids"])
    return {
        "coarse_iters": len(result.coarse_losses),
        "fine_iters": len(result.fine_losses),
        "pool_patches": pool,
    }


def _encode_counts(bound, result):
    return {"patches": int(result.coarse_idx.size)}


# Counters read from arguments, return values and files, never from clocks.
PROBES = {
    "records.read_record_file": _file_bytes,
    "records.write_record_file": _file_bytes,
    "rvq.fit": _fit_counts,
    "rvq.encode": _encode_counts,
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def install(self, package: str = "codechain") -> None:
        """Wrap the public functions of the traced modules."""
        for short in TRACED_MODULES:
            try:
                module = importlib.import_module(f"{package}.{short}")
            except ModuleNotFoundError:
                continue  # a renamed module: its metrics are reported absent
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue  # imported from elsewhere; wrapped at its home module
                setattr(module, attr, self._wrap(f"{short}.{attr}", obj))

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None
        spans, stack, run_id = self.spans, self._stack, self.run_id

        def traced(*args, **kwargs):
            span = {
                "name": name,
                "run": run_id,
                "parent": stack[-1] if stack else -1,
                "start": time.perf_counter_ns(),
                "end": None,
            }
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                stack.pop()
            if probe is not None:
                try:
                    span["counts"] = probe(signature.bind(*args, **kwargs), result)
                except (AttributeError, KeyError, TypeError, ValueError, OSError):
                    pass  # a changed signature or return type: the counter is absent
            return result

        return traced


def self_times(spans: list[dict]) -> list[float]:
    """Seconds each span spent outside its child spans."""
    own = [(s["end"] - s["start"]) / 1e9 for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= (s["end"] - s["start"]) / 1e9
    return own


def _outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans of ``name`` with no ancestor of the same name."""
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p >= 0 and spans[p]["name"] != name:
            p = spans[p]["parent"]
        if p < 0:
            out.append(s)
    return out


def _total_s(spans, name):
    found = _outermost(spans, name)
    return sum(s["end"] - s["start"] for s in found) / 1e9 if found else None


def _calls(spans, name):
    n = sum(1 for s in spans if s["name"] == name)
    return n or None


def _count(spans, name, key):
    values = [s["counts"][key] for s in spans if s["name"] == name and key in s.get("counts", {})]
    return sum(values) if values else None


def _self_s(spans, name):
    own = self_times(spans)
    found = [own[i] for i, s in enumerate(spans) if s["name"] == name]
    return sum(found) if found else None


def _p50_ms(spans, name):
    found = [(s["end"] - s["start"]) / 1e6 for s in spans if s["name"] == name]
    return statistics.median(found) if found else None


def _ratio(a, b):
    return None if a is None or not b else a / b


def _read_write(stage):
    return {
        f"{stage}.records.read_s": lambda sp: _total_s(sp, "records.read_record_file"),
        f"{stage}.records.bytes_read": lambda sp: _count(sp, "records.read_record_file", "bytes"),
        f"{stage}.records.write_s": lambda sp: _total_s(sp, "records.write_record_file"),
        f"{stage}.records.bytes_written": lambda sp: _count(sp, "records.write_record_file", "bytes"),
        f"{stage}.dataset.load_corpus_s": lambda sp: _total_s(sp, "dataset.load_corpus"),
    }


# Per-layer metrics of one traced stage run, keyed by stage. Each returns
# None when its span or counter is absent, e.g. after a rename.
LAYER_METRICS = {
    "setup": {
        "setup.synth.generate_s": lambda sp: _total_s(sp, "synth.generate"),
        "setup.records.write_s": lambda sp: _total_s(sp, "records.write_record_file"),
        "setup.records.bytes_written": lambda sp: _count(sp, "records.write_record_file", "bytes"),
    },
    "fit": {
        **_read_write("fit"),
        "fit.rvq.embed_s": lambda sp: _total_s(sp, "rvq.embed_dataset"),
        "fit.rvq.fit_s": lambda sp: _total_s(sp, "rvq.fit"),
        "fit.rvq.lloyd_iters_coarse": lambda sp: _count(sp, "rvq.fit", "coarse_iters"),
        "fit.rvq.lloyd_iters_fine": lambda sp: _count(sp, "rvq.fit", "fine_iters"),
        "fit.rvq.encode_s": lambda sp: _total_s(sp, "rvq.encode"),
        "fit.rvq.reencode_ratio": lambda sp: _ratio(
            _count(sp, "rvq.encode", "patches"), _count(sp, "rvq.fit", "pool_patches")
        ),
        "fit.rvq.code_stats_s": lambda sp: _total_s(sp, "rvq.code_stats"),
        "fit.markov.build_class_tm_s": lambda sp: _total_s(sp, "markov.build_class_tm"),
        "fit.markov.build_channel_tm_s": lambda sp: _total_s(sp, "markov.build_channel_tm"),
    },
    "label": {
        **_read_write("label"),
        "label.rvq.embed_s": lambda sp: _total_s(sp, "rvq.embed_dataset"),
        "label.rvq.encode_s": lambda sp: _total_s(sp, "rvq.encode"),
        "label.rvq.encode_calls": lambda sp: _calls(sp, "rvq.encode"),
        "label.markov.build_channel_tm_s": lambda sp: _total_s(sp, "markov.build_channel_tm"),
        "label.transport.solve_emd_s": lambda sp: _total_s(sp, "transport.solve_emd"),
        "label.transport.solve_emd_calls": lambda sp: _calls(sp, "transport.solve_emd"),
        "label.transport.solve_emd_ms_p50": lambda sp: _p50_ms(sp, "transport.solve_emd"),
        "label.transport.channel_weights_self_s": lambda sp: _self_s(sp, "transport.channel_weights"),
        "label.pseudolabel.label_dataset_s": lambda sp: _total_s(sp, "pseudolabel.label_dataset"),
    },
}


def layer_metrics(stage: str, spans: list[dict], wall_s: float) -> dict:
    """Per-layer metrics of one traced run of ``stage``; absent ones are left out."""
    out = {}
    for name, fn in LAYER_METRICS[stage].items():
        value = fn(spans)
        if value is not None:
            out[name] = value
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] < 0) / 1e9
    out[f"{stage}.traced_wall_s"] = wall_s
    out[f"{stage}.unattributed_s"] = wall_s - top
    return out

"""Command-line pipeline: synth, fit, label, eval.

One JSON config file (the fields of RunConfig, plus an optional "synth"
object of synth.SynthConfig fields) drives every stage; each field's
--field-name flag overrides it. A field's flag, config-file type check
and header echo all derive from its dataclass annotation. Exit codes: 0
success, 1 usage or config error or a closed stdout, 2 data error, 3
internal invariant violation.

All output files use the shared record envelope and are byte-identical
across reruns with the same config; paths are deliberately left out of
the header echoes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import diagnostics, markov, pseudolabel, records, rvq, synth, transport
from .errors import CodechainError, ConfigError, DataError


@dataclass
class RunConfig:
    patch_length: int = 8
    n_coarse: int = 8
    n_fine: int = 64
    epsilon: float = 1e-8
    sigma: float = 0.2
    tau: float = 1.0
    r_top: float = 0.5
    use_ca: bool = True
    prior: str | list = "uniform"
    max_iters: int = 50
    seed: int = 0

    def __post_init__(self):
        records.require_finite(self)
        if self.patch_length < 2:
            raise ConfigError("patch_length must be >= 2")
        if self.n_coarse < 2 or self.n_fine < 2:
            raise ConfigError("n_coarse and n_fine must be >= 2")
        for name in ("epsilon", "sigma", "tau"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be > 0")
        if not 0.0 < self.r_top <= 1.0:
            raise ConfigError("r_top must lie in (0, 1]")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if isinstance(self.prior, str) and self.prior != "uniform":
            raise ConfigError(f"prior must be 'uniform' or a vector, got {self.prior!r}")
        if not isinstance(self.prior, str):
            pseudolabel.log_prior(self.prior, self.tau)


# field name -> annotation, in declaration order
_RUN_KINDS = typing.get_type_hints(RunConfig)
_SYNTH_KINDS = typing.get_type_hints(synth.SynthConfig)


def _members(kind) -> tuple:
    """The types an annotation admits: (int, NoneType) for int | None."""
    return typing.get_args(kind) or (kind,)


def _is_vector(kind) -> bool:
    return any(m in (tuple, list, np.ndarray) for m in _members(kind))


def _check(where, name: str, kind, value) -> None:
    """ConfigError unless a JSON value fits its field's annotation. An int
    fits a float field; a list of JSON numbers (4-D for class_regimes) a vector."""
    members = _members(kind)
    ok = type(value) in members or (type(value) is int and float in members)
    if isinstance(value, list):
        ok = _is_vector(kind)
        try:
            records.numbers(where, name, value, 4 if np.ndarray in members else 1)
        except DataError:
            ok = False
    if not ok:
        kind = getattr(kind, "__name__", kind)
        raise ConfigError(f"{where}: {name} = {json.dumps(value)} does not fit {kind}")


def _checked(where, kinds: dict, raw: dict) -> dict:
    """raw, unchanged, once every key names a field and every value fits it."""
    unknown = sorted(set(raw) - set(kinds))
    if unknown:
        raise ConfigError(f"{where}: unknown config keys {unknown}")
    for name, value in raw.items():
        _check(where, name, kinds[name], value)
    return raw


def _echo(cfg, names) -> dict:
    """Header echo of the named fields of a config, the ones its stage
    reads, in declaration order: vector fields as float lists, the rest as given."""
    out = {}
    for name, kind in typing.get_type_hints(type(cfg)).items():
        if name not in names:
            continue
        value = getattr(cfg, name)
        if _is_vector(kind) and value is not None and not isinstance(value, str):
            value = np.asarray(value, dtype=np.float64).tolist()
        out[name] = value
    return out


def load_run_config(args) -> tuple[RunConfig, dict]:
    """The --config file under the set run flags; returns (cfg, synth section)."""
    path, raw = args.config, {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: config is not valid JSON: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: config is not UTF-8 text") from exc
        except RecursionError as exc:
            raise ConfigError(f"{path}: config JSON is nested too deeply") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    synth_section = raw.pop("synth", {})
    if not isinstance(synth_section, dict):
        raise ConfigError(f"{path}: 'synth' section must be an object")
    _checked(f"{path}: synth", _SYNTH_KINDS, synth_section)
    data = {**_checked(path, _RUN_KINDS, raw), **_set_flags(args, _RUN_KINDS, "run_")}
    return RunConfig(**data), synth_section


def _parse_vector(text: str):
    """A float, or a tuple of floats when text holds commas."""
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad numeric value {text!r}") from exc
    return values if "," in text else values[0]


def _parse_prior(text: str):
    """"uniform", or the values of a vector flag."""
    return "uniform" if text == "uniform" else _parse_vector(text)


def build_synth_config(cfg: RunConfig, synth_section: dict, args) -> synth.SynthConfig:
    """The synth section under the synth flags; patch_length and seed default to the run's."""
    merged = {**synth_section, **_set_flags(args, _SYNTH_KINDS, "")}
    merged.setdefault("patch_length", cfg.patch_length)
    merged.setdefault("seed", cfg.seed)
    return synth.SynthConfig(**merged)


def cmd_synth(args) -> None:
    cfg, synth_section = load_run_config(args)
    scfg = build_synth_config(cfg, synth_section, args)
    mags = np.atleast_1d(() if args.corrupt_magnitudes is None else args.corrupt_magnitudes)
    if (args.corrupt_channel is None) != (args.corrupt_magnitudes is None):
        raise ConfigError("--corrupt-channel and --corrupt-magnitudes must be given together")
    if args.corrupt_seed is not None and args.corrupt_magnitudes is None:
        raise ConfigError("--corrupt-seed needs --corrupt-channel and --corrupt-magnitudes")
    noise_seed = scfg.seed + 1000 if args.corrupt_seed is None else args.corrupt_seed
    source, target = synth.generate(scfg)
    unlabeled = ds.strip_labels(target)
    # inject_channel_noise checks the channel, each magnitude and the seed, before anything is written
    variants = [synth.inject_channel_noise(unlabeled, args.corrupt_channel, float(m), noise_seed) for m in mags]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the run fields synth reads, patch_length and seed, are echoed resolved in scfg
    echo = {"run": _echo(cfg, ()), "synth": _echo(scfg, _SYNTH_KINDS)}
    ds.save_corpus(out_dir / "source.jsonl", source, config=echo)
    ds.save_corpus(out_dir / "target.jsonl", unlabeled, config=echo)
    ds.save_truth(out_dir / "target_truth.jsonl", target, config=echo)
    for i, (mag, noisy) in enumerate(zip(mags, variants)):
        corrupt = {"channel": int(args.corrupt_channel), "magnitude": float(mag), "seed": noise_seed}
        ds.save_corpus(out_dir / f"target_corrupt_{i}.jsonl", noisy, config={**echo, "corrupt": corrupt})
    line = f"synth: wrote {len(source)} source and {len(target)} target instances to {out_dir}"
    if mags.size:
        line += f" plus {mags.size} corrupted target variants"
    print(line)


def _lloyd_summary(stage: str, losses, max_iters: int) -> str:
    """Iterations of a Lloyd stage and whether it converged or hit its cap.

    The loss trace holds one loss per iteration, plus the loss of the
    pass after the last update when the stage stopped at its cap, so it
    converged exactly when the trace is no longer than max_iters.
    """
    if len(losses) <= max_iters:
        return f"{stage} {len(losses)} iterations (converged)"
    return f"{stage} {max_iters} iterations (stopped at max_iters={max_iters})"


# the RunConfig fields that fit and label read, and so the only ones their outputs echo
_FIT_FIELDS = ("patch_length", "n_coarse", "n_fine", "max_iters", "seed")
_LABEL_FIELDS = ("epsilon", "sigma", "tau", "r_top", "use_ca", "prior")


def cmd_fit(args) -> None:
    cfg, _ = load_run_config(args)
    source = ds.load_corpus(args.source)
    if source.role != "source":
        raise DataError(f"fit needs a source-role corpus, got role {source.role!r}")
    if source.n_classes < 2:
        raise DataError(f"the source header holds {source.n_classes} class; fitting needs >= 2")
    ds.require_transitions(source, cfg.patch_length)
    # a set, not np.unique (which imports numpy.ma), and sized by the records, not the header's n_classes
    present = set(source.labels.tolist())
    if len(present) < source.n_classes:
        first = min(set(range(len(present) + 1)) - present)
        raise DataError(f"source class {first} of {source.n_classes} has no instances")
    flat = np.flatnonzero(np.ptp(source.values, axis=(0, 2)) == 0.0)
    if flat.size:
        raise DataError(f"source channel {flat[0]} of {source.n_channels} holds a single value throughout")
    embedded = rvq.embed_dataset(source, cfg.patch_length)  # spends source.values
    fit_result = rvq.fit(
        [embedded], cfg.n_coarse, cfg.n_fine, max_iters=cfg.max_iters, seed=cfg.seed
    )
    quantizer = fit_result.quantizer
    codes = fit_result.coarse_idx
    class_tm = markov.build_class_tm(codes, source.labels, source.n_classes, cfg.n_coarse)
    channel_src = markov.build_channel_tm(codes, cfg.n_coarse)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    echo = {"run": _echo(cfg, _FIT_FIELDS)}
    rvq.save_quantizer(out_dir / "quantizer.jsonl", quantizer, cfg.patch_length, cfg.seed, config=echo)
    markov.save_transitions(out_dir / "transitions.jsonl", class_tm, channel_src, config=echo)

    mse = rvq.code_stats(quantizer, embedded.latents, codes, fit_result.fine_idx)
    print(f"fit: {len(source)} instances, {codes.size} patches, d_dim={quantizer.d_dim}")
    stages = (("coarse", fit_result.coarse_losses), ("fine", fit_result.fine_losses))
    print("lloyd: " + ", ".join(_lloyd_summary(*stage, cfg.max_iters) for stage in stages))
    print("recon mse: coarse {:.6f}, coarse+fine {:.6f}".format(*mse))
    for k, mean_tm in enumerate(class_tm.mean(axis=1)):
        i, j = np.unravel_index(int(np.argmax(mean_tm)), mean_tm.shape)
        print(
            f"class {k}: mean self-transition {float(np.diag(mean_tm).mean()):.3f}, "
            f"top transition {i}->{j} p={float(mean_tm[i, j]):.3f}"
        )


def cmd_label(args) -> None:
    cfg, _ = load_run_config(args)
    # both bundles are read and cross-checked before the (larger) target corpus
    quantizer, patch_length, _ = rvq.load_quantizer(args.quantizer)
    class_tm, channel_src = markov.load_transitions(args.transitions)
    n_classes, n_channels, n_codes = class_tm.shape[:3]
    if n_codes != len(quantizer.coarse):
        raise DataError("quantizer and transition bundle disagree on n_coarse")
    if n_classes < 2:
        raise DataError(f"the transition bundle holds {n_classes} class; labeling needs >= 2")
    costs = transport.cosine_cost(quantizer.coarse)
    probs = np.full(n_classes, 1.0 / n_classes) if cfg.prior == "uniform" else np.asarray(cfg.prior)
    if probs.shape != (n_classes,):
        raise ConfigError(f"prior needs {n_classes} entries, got {probs.size}")
    prior = pseudolabel.log_prior(probs, cfg.tau)
    # smoothed before the target is read, so an epsilon that overflows fails first
    class_tm, channel_src = (markov.smooth(tm, cfg.epsilon) for tm in (class_tm, channel_src))
    target = ds.load_corpus(args.target)
    if target.role != "target":
        raise DataError(f"label needs a target-role corpus, got role {target.role!r}")
    if target.n_channels != n_channels:
        raise DataError(f"target has {target.n_channels} channels but the transition bundle has {n_channels}")
    ds.require_transitions(target, patch_length)

    ids = target.ids
    codes, _ = rvq.encode(quantizer, rvq.embed_dataset(target, patch_length).latents, fine=False)
    del target  # frees the corpus buffer, which held the latents: only the codes are read from here on
    channel_trg = markov.build_channel_tm(codes, n_codes)
    computed, mean_costs = transport.channel_weights(
        channel_src, markov.smooth(channel_trg, cfg.epsilon), costs, cfg.sigma
    )
    used = computed if cfg.use_ca else np.ones(n_channels)
    if not used.any():
        raise ConfigError(f"sigma = {cfg.sigma} is too small: every channel weight underflows to 0")
    labels = pseudolabel.label_dataset(codes, class_tm, used, prior, ids)
    selected = pseudolabel.top_r_select(labels.confidence, cfg.r_top)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    echo = {"run": _echo(cfg, _LABEL_FIELDS)}
    pseudolabel.save_labels(out_dir / "labels.jsonl", labels, used, config=echo)
    pseudolabel.save_selection(
        out_dir / "selected.jsonl", labels, selected, cfg.r_top, config=echo
    )
    report_echo = dict(echo)
    report_echo["weights_used"] = used.tolist()
    transport.write_alignment_report(
        out_dir / "alignment_report.tsv", computed, mean_costs, cfg.sigma, config=report_echo
    )
    counts = np.bincount(labels.label, minlength=n_classes)
    print(
        f"label: {len(labels.ids)} instances, mean confidence {float(labels.confidence.mean()):.4f}, "
        f"selected {len(selected)} (r_top={cfg.r_top})"
    )
    print("label counts: " + " ".join(f"{k}:{int(c)}" for k, c in enumerate(counts)))
    print(
        "channel weights: "
        + " ".join(f"{float(w):.4f}" for w in used)
        + ("" if cfg.use_ca else " (alignment disabled)")
    )


def cmd_eval(args) -> None:
    load_run_config(args)  # checked like every stage's, then unused
    labels, _ = pseudolabel.load_labels(args.labels)
    truth, n_classes = ds.load_truth(args.truth)
    if labels.scores.shape[1] != n_classes:
        raise DataError(f"{args.labels}: {labels.scores.shape[1]} class scores, the truth has {n_classes} classes")
    ids = labels.ids.tolist()
    missing = [iid for iid in ids if iid not in truth]
    if missing:
        raise DataError(
            f"{len(missing)} labeled ids missing from the truth file, e.g. {missing[:3]}"
        )
    # the labeled ids are distinct and all in the truth, so equal counts mean equal sets
    if len(ids) < len(truth):
        raise DataError(f"the labels cover {len(ids)} of the {len(truth)} truth ids")
    true = np.array([truth[iid] for iid in ids])
    overall = diagnostics.accuracy_mf1(labels.label, true, n_classes)
    out_records = [{"split": "all", **overall}]
    if args.subset is not None:
        recs, _ = pseudolabel.load_selection(args.subset)
        if any(r["index"] >= len(ids) for r in recs):
            raise DataError("selection index out of range for the label file")
        if any(ids[r["index"]] != r["id"] for r in recs):
            raise DataError("selection id differs from the label id at its index")
        subset_idx = np.array([r["index"] for r in recs], dtype=np.int64)
        sub = diagnostics.accuracy_mf1(labels.label[subset_idx], true[subset_idx], n_classes)
        out_records.append({"split": "selected", **sub})
    # the metrics file is written before anything is printed, so a closed stdout cannot lose it
    if args.out is not None:
        records.write_record_file(
            args.out,
            # eval reads no RunConfig field, so it echoes none
            {"kind": "metrics", "n_classes": n_classes, "config": {"run": {}}},
            out_records,
        )
    line = "n={n} accuracy={accuracy:.4f} macro_f1={macro_f1:.4f}"
    print("eval: " + line.format_map(overall))
    print("per-class f1: " + " ".join(f"{x:.4f}" for x in overall["per_class_f1"]))
    if args.subset is not None:
        print("top-r subset: " + line.format_map(sub))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-8" and "-1,2" as options; take negative numbers and their lists as values
        number = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
        self._negative_number_matcher = re.compile(rf"^-{number}(,-?{number})*$")

    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise ConfigError(message)


def _set_flags(args, kinds: dict, prefix: str) -> dict:
    """The fields whose --field-name flag was given, read from dest prefix + name."""
    given = {name: getattr(args, prefix + name, None) for name in kinds}
    return {name: value for name, value in given.items() if value is not None}


def _add_flags(group, kinds: dict, prefix: str) -> None:
    """One --field-name flag per field, parsed by its annotation, into dest prefix + name."""
    for name, kind in kinds.items():
        flag, dest = "--" + name.replace("_", "-"), prefix + name
        if kind is bool:
            group.add_argument(flag, dest=dest, action=argparse.BooleanOptionalAction)
        elif _is_vector(kind):
            parse = _parse_prior if str in _members(kind) else _parse_vector
            group.add_argument(
                flag, dest=dest, type=parse, help="scalar or comma-separated values"
            )
        else:
            group.add_argument(flag, dest=dest, type=_members(kind)[0])


def _add_run_flags(parser) -> None:
    g = parser.add_argument_group("pipeline configuration")
    g.add_argument("--config", default=None, help="JSON config file")
    _add_flags(g, _RUN_KINDS, "run_")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="codechain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic source/target corpus pair")
    _add_run_flags(p_synth)
    p_synth.add_argument("--out-dir", required=True)
    # patch_length and seed come from the run flags; class_regimes only from a config file
    skip = ("patch_length", "seed", "class_regimes")
    _add_flags(p_synth, {k: v for k, v in _SYNTH_KINDS.items() if k not in skip}, "")
    p_synth.add_argument("--corrupt-channel", dest="corrupt_channel", type=int, default=None)
    p_synth.add_argument(
        "--corrupt-magnitudes",
        dest="corrupt_magnitudes",
        type=_parse_vector,
        default=None,
        help="comma-separated noise magnitudes, one corrupted target file each",
    )
    p_synth.add_argument("--corrupt-seed", dest="corrupt_seed", type=int, default=None)
    p_synth.set_defaults(func=cmd_synth)

    p_fit = sub.add_parser("fit", help="fit codebooks and transition matrices on a source corpus")
    _add_run_flags(p_fit)
    p_fit.add_argument("--source", required=True)
    p_fit.add_argument("--out-dir", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_label = sub.add_parser("label", help="pseudo-label a target corpus")
    _add_run_flags(p_label)
    p_label.add_argument("--target", required=True)
    p_label.add_argument("--quantizer", required=True)
    p_label.add_argument("--transitions", required=True)
    p_label.add_argument("--out-dir", required=True)
    p_label.set_defaults(func=cmd_label)

    p_eval = sub.add_parser("eval", help="score pseudo-labels against sealed truth")
    _add_run_flags(p_eval)
    p_eval.add_argument("--labels", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--subset", default=None, help="selection file to score as well")
    p_eval.add_argument("--out", default=None, help="write metrics as a record file")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, inside the exit-code mapping
        return 0
    except BrokenPipeError:
        # no input was bad; later writes, and the flush at exit, go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except CodechainError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""End-to-end command behavior, exit codes, and reproducible artifacts."""

import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from codechain import cli, records
from codechain import dataset as ds
from codechain import pseudolabel, rvq, synth, transport
from codechain.errors import InternalError


def run(*argv):
    return cli.main([str(a) for a in argv])


def synth_args(out_dir, **kw):
    base = dict(n_source=30, n_target=20, length=64, seed=4)
    base.update(kw)
    argv = ["synth", "--out-dir", out_dir]
    for key, value in base.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


@pytest.fixture()
def workspace(tmp_path):
    data = tmp_path / "data"
    model = tmp_path / "model"
    out = tmp_path / "out"
    assert run(*synth_args(data)) == 0
    assert run("fit", "--source", data / "source.jsonl", "--out-dir", model,
               "--n-coarse", 4, "--n-fine", 8) == 0
    return data, model, out


# ---------------------------------------------------------------- synth

def test_synth_writes_three_files(tmp_path):
    out = tmp_path / "d"
    assert run(*synth_args(out)) == 0
    for name in ("source.jsonl", "target.jsonl", "target_truth.jsonl"):
        assert (out / name).exists()
    target = ds.load_corpus(out / "target.jsonl")
    assert target.role == "target"
    assert all(label == ds.UNLABELED for label in target.labels)


def test_synth_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(*synth_args(a)) == 0
    assert run(*synth_args(b)) == 0
    for name in ("source.jsonl", "target.jsonl", "target_truth.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_rejects_zero_source(tmp_path):
    assert run(*synth_args(tmp_path / "x", n_source=0)) == 1


def test_synth_corrupt_variants(tmp_path):
    out = tmp_path / "d"
    argv = synth_args(out) + ["--corrupt-channel", "1", "--corrupt-magnitudes", "0,0.5,1.5"]
    assert run(*argv) == 0
    variants = sorted(out.glob("target_corrupt_*.jsonl"))
    assert len(variants) == 3
    base = ds.load_corpus(out / "target.jsonl")
    zero = ds.load_corpus(variants[0])
    for a, b in zip(base.values, zero.values):
        assert a.tobytes() == b.tobytes()
    noisy = ds.load_corpus(variants[2])
    assert base.values[0][1].tobytes() != noisy.values[0][1].tobytes()
    header, _ = records.read_record_file(variants[2], expected_kind="corpus")
    assert header["config"]["corrupt"]["magnitude"] == 1.5


def test_synth_corrupt_flags_must_pair(tmp_path):
    assert run(*synth_args(tmp_path / "x"), "--corrupt-channel", "1") == 1


@pytest.mark.parametrize(
    "flags, code",
    [
        (("--corrupt-channel", 1), 1),
        (("--corrupt-magnitudes", "0.5"), 1),
        (("--corrupt-channel", 3, "--corrupt-magnitudes", "0.5"), 2),
        (("--corrupt-channel", -1, "--corrupt-magnitudes", "0.5"), 2),
        (("--corrupt-channel", 1, "--corrupt-magnitudes", "0.5,-0.5"), 1),
        (("--corrupt-channel", 1, "--corrupt-magnitudes", "0.5", "--corrupt-seed", -1), 1),
    ],
    ids=["channel-alone", "magnitudes-alone", "channel-3-of-3", "channel-minus-1",
         "negative-magnitude", "negative-seed"],
)
def test_synth_checks_corrupt_flags_before_writing_anything(tmp_path, flags, code):
    out = tmp_path / "d"
    assert run(*synth_args(out), *flags) == code
    assert not out.exists()


# ---------------------------------------------------------------- fit

def test_fit_writes_bundles_and_reruns_identically(tmp_path, workspace):
    data, model, _ = workspace
    assert (model / "quantizer.jsonl").exists()
    assert (model / "transitions.jsonl").exists()
    again = tmp_path / "model2"
    assert run("fit", "--source", data / "source.jsonl", "--out-dir", again,
               "--n-coarse", 4, "--n-fine", 8) == 0
    for name in ("quantizer.jsonl", "transitions.jsonl"):
        assert (model / name).read_bytes() == (again / name).read_bytes()


def test_fit_reports_how_each_lloyd_stage_ended(workspace, tmp_path, capsys):
    data, model, _ = workspace
    source = ds.load_corpus(data / "source.jsonl")
    latents = rvq.embed_dataset(source, 8)
    fit = rvq.fit([latents], 4, 8, max_iters=1000, seed=0)
    assert len(fit.coarse_losses) <= 1000 and len(fit.fine_losses) <= 1000
    capsys.readouterr()
    assert run("fit", "--source", data / "source.jsonl", "--out-dir", tmp_path / "m",
               "--n-coarse", 4, "--n-fine", 8, "--max-iters", 1000) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == (
        f"lloyd: coarse {len(fit.coarse_losses)} iterations (converged), "
        f"fine {len(fit.fine_losses)} iterations (converged)"
    )
    # one iteration can never repeat an assignment, so both stages hit the cap
    assert run("fit", "--source", data / "source.jsonl", "--out-dir", tmp_path / "c",
               "--n-coarse", 4, "--n-fine", 8, "--max-iters", 1) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == (
        "lloyd: coarse 1 iterations (stopped at max_iters=1), "
        "fine 1 iterations (stopped at max_iters=1)"
    )


def test_fit_reports_dead_codes_from_the_usage_counts(workspace, tmp_path, monkeypatch, capsys):
    data, _, _ = workspace
    counts = (np.array([3, 0, 2, 0]), np.array([0, 0, 0, 5, 5, 5, 5, 5]), 0.25, 0.125)
    monkeypatch.setattr(rvq, "code_stats", lambda *args: counts)
    capsys.readouterr()
    assert run("fit", "--source", data / "source.jsonl", "--out-dir", tmp_path / "m",
               "--n-coarse", 4, "--n-fine", 8) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:4] == [
        "coarse codes: 2/4 dead (50.0%), fine codes: 3/8 dead (37.5%)",
        "recon mse: coarse 0.250000, coarse+fine 0.125000",
    ]


def test_fit_rejects_target_corpus(workspace, tmp_path):
    data, _, _ = workspace
    assert run("fit", "--source", data / "target.jsonl", "--out-dir", tmp_path / "m") == 2


def test_fit_missing_file_is_data_error(tmp_path):
    assert run("fit", "--source", tmp_path / "absent.jsonl", "--out-dir", tmp_path / "m") == 2


# ---------------------------------------------------------------- label

def test_label_writes_outputs(workspace, capsys):
    data, model, out = workspace
    code = run("label", "--target", data / "target.jsonl",
               "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl",
               "--out-dir", out)
    assert code == 0
    for name in ("labels.jsonl", "selected.jsonl", "alignment_report.tsv"):
        assert (out / name).exists()
    printed = capsys.readouterr().out
    assert "channel weights" in printed
    labels, header = pseudolabel.load_labels(out / "labels.jsonl")
    assert len(labels.ids) == 20
    assert len(header["channel_weights"]) == 3


def test_label_without_alignment_uses_unit_weights(workspace):
    data, model, out = workspace
    assert run("label", "--target", data / "target.jsonl",
               "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl",
               "--out-dir", out, "--no-use-ca") == 0
    _, header = pseudolabel.load_labels(out / "labels.jsonl")
    assert header["channel_weights"] == [1.0, 1.0, 1.0]
    # the report still carries the measured costs for inspection
    assert (out / "alignment_report.tsv").exists()


@pytest.mark.parametrize(
    "name, key, spoil",
    [
        ("quantizer.jsonl", "coarse", str),
        ("quantizer.jsonl", "coarse", lambda x: True),
        ("quantizer.jsonl", "fine", str),
        ("transitions.jsonl", "class_tms", str),
        ("transitions.jsonl", "channel_tms_source", str),
        ("transitions.jsonl", "epsilon", str),
        ("transitions.jsonl", "epsilon", lambda x: True),
        ("transitions.jsonl", "epsilon", lambda x: -1),
        ("transitions.jsonl", "epsilon", lambda x: 0),
        ("transitions.jsonl", "epsilon", lambda x: float("nan")),
    ],
    ids=["coarse-string", "coarse-bool", "fine-string", "class-tms-string",
         "channel-tms-string", "epsilon-string", "epsilon-bool", "epsilon-negative",
         "epsilon-zero", "epsilon-nan"],
)
def test_label_rejects_a_bundle_number_of_the_wrong_kind(workspace, capsys, name, key, spoil):
    data, model, out = workspace
    header, (rec,) = records.read_record_file(model / name)
    cells = rec
    while isinstance(cells[key], list):  # down to the first cell of an array
        cells, key = cells[key], 0
    cells[key] = spoil(cells[key])
    (model / name).write_text(json.dumps(header) + "\n" + json.dumps(rec) + "\n")
    assert run("label", "--target", data / "target.jsonl", "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl", "--out-dir", out) == 2
    assert "data error:" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["coarse", "fine"])
def test_label_rejects_a_codebook_of_zero_width_rows(workspace, capsys, key):
    data, model, out = workspace
    header, (rec,) = records.read_record_file(model / "quantizer.jsonl")
    rec[key] = [[], []]
    records.write_record_file(model / "quantizer.jsonl", header, [rec])
    assert run("label", "--target", data / "target.jsonl", "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl", "--out-dir", out) == 2
    assert "data error:" in capsys.readouterr().err


@pytest.mark.parametrize("spoil", ["quantizer", "transitions", "n_coarse"])
def test_label_checks_both_bundles_before_reading_the_target(workspace, tmp_path, monkeypatch, spoil):
    data, model, out = workspace
    if spoil == "n_coarse":  # a quantizer from another fit
        assert run("fit", "--source", data / "source.jsonl", "--out-dir", tmp_path / "other",
                   "--n-coarse", 5, "--n-fine", 8) == 0
        (tmp_path / "other" / "quantizer.jsonl").replace(model / "quantizer.jsonl")
    else:
        (model / f"{spoil}.jsonl").write_text('{"format": "codechain.v1", "kind": "corpus"}\n')
    monkeypatch.setattr(ds, "load_corpus", never_called)
    assert run("label", "--target", data / "target.jsonl",
               "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl",
               "--out-dir", out) == 2


def test_label_rejects_a_zero_norm_coarse_codeword_before_reading_the_target(workspace, monkeypatch, capsys):
    data, model, out = workspace
    header, (rec,) = records.read_record_file(model / "quantizer.jsonl")
    rec["coarse"][1] = [0.0] * len(rec["coarse"][1])
    records.write_record_file(model / "quantizer.jsonl", header, [rec])
    monkeypatch.setattr(ds, "load_corpus", never_called)
    assert run("label", "--target", data / "target.jsonl",
               "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl",
               "--out-dir", out) == 2
    assert "zero-norm codeword" in capsys.readouterr().err


def test_label_checks_the_prior_length_before_reading_the_target(workspace, monkeypatch, capsys):
    data, model, out = workspace
    monkeypatch.setattr(ds, "load_corpus", never_called)
    assert run("label", "--target", data / "target.jsonl",
               "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl",
               "--out-dir", out, "--prior", "0.5,0.5") == 1
    assert "config error: prior needs 4 entries" in capsys.readouterr().err


def rename_first_record(path, new_id):
    header, recs = records.read_record_file(path)
    recs = list(recs)
    recs[0]["id"] = new_id
    records.write_record_file(path, header, recs)


def test_an_id_ending_in_nul_is_labelled_and_scored_as_written(workspace):
    data, model, out = workspace
    rename_first_record(data / "target.jsonl", "trg-0000\u0000")
    rename_first_record(data / "target_truth.jsonl", "trg-0000\u0000")
    assert run("label", "--target", data / "target.jsonl",
               "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl",
               "--out-dir", out) == 0
    assert run("eval", "--labels", out / "labels.jsonl",
               "--truth", data / "target_truth.jsonl", "--subset", out / "selected.jsonl") == 0
    _, recs = records.read_record_file(out / "labels.jsonl")
    assert next(recs)["id"] == "trg-0000\u0000"


def test_label_channel_mismatch(workspace, tmp_path):
    data, model, out = workspace
    other = tmp_path / "other"
    assert run(*synth_args(other, n_channels=2)) == 0
    assert run("label", "--target", other / "target.jsonl",
               "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl",
               "--out-dir", out) == 2


def never_called(*args, **kwargs):
    raise AssertionError("called on a corpus that cannot be scored")


def test_label_single_patch_corpus_fails_before_encoding(tmp_path, monkeypatch):
    data, model = tmp_path / "data", tmp_path / "model"
    assert run(*synth_args(data, length=16)) == 0
    assert run("fit", "--source", data / "source.jsonl", "--out-dir", model,
               "--n-coarse", 4, "--n-fine", 8) == 0
    target = ds.load_corpus(data / "target.jsonl")
    ds.save_corpus(tmp_path / "one_patch.jsonl", replace(target, values=target.values[:, :, :12]))
    monkeypatch.setattr(rvq, "encode", never_called)
    monkeypatch.setattr(rvq, "embed", never_called)
    monkeypatch.setattr(rvq, "embed_dataset", never_called)
    assert run("label", "--target", tmp_path / "one_patch.jsonl",
               "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl",
               "--out-dir", tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()


def test_fit_single_patch_corpus_fails_before_embedding(tmp_path, monkeypatch):
    assert run(*synth_args(tmp_path / "data", length=16)) == 0
    source = ds.load_corpus(tmp_path / "data" / "source.jsonl")
    ds.save_corpus(tmp_path / "one_patch.jsonl", replace(source, values=source.values[:, :, :12]))
    monkeypatch.setattr(rvq, "embed", never_called)
    monkeypatch.setattr(rvq, "fit", never_called)
    monkeypatch.setattr(rvq, "embed_dataset", never_called)
    assert run("fit", "--source", tmp_path / "one_patch.jsonl", "--out-dir", tmp_path / "m") == 2


def test_fit_rejects_an_all_constant_source_channel_before_embedding(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    assert run(*synth_args(data)) == 0
    source = ds.load_corpus(data / "source.jsonl")
    values = source.values.copy()
    values[:, 1] = 0.25
    ds.save_corpus(data / "flat.jsonl", replace(source, values=values))
    monkeypatch.setattr(rvq, "embed", never_called)
    monkeypatch.setattr(rvq, "embed_dataset", never_called)
    assert run("fit", "--source", data / "flat.jsonl", "--out-dir", tmp_path / "m") == 2
    assert "data error: source channel 1 of 3 holds a single value throughout" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()
    values[0, 1, 0] = 0.5  # one differing value makes the channel usable
    ds.save_corpus(data / "flat.jsonl", replace(source, values=values))
    monkeypatch.undo()
    assert run("fit", "--source", data / "flat.jsonl", "--out-dir", tmp_path / "m",
               "--n-coarse", 4, "--n-fine", 8) == 0


def test_fit_rejects_a_source_class_with_no_instances_before_embedding(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    assert run(*synth_args(data), "--class-probs-source", "0.5,0.5,0,0") == 0
    monkeypatch.setattr(rvq, "embed", never_called)
    monkeypatch.setattr(rvq, "embed_dataset", never_called)
    assert run("fit", "--source", data / "source.jsonl", "--out-dir", tmp_path / "m") == 2
    assert "data error: source class 2 of 4 has no instances" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_internal_error_exits_3(workspace, monkeypatch, capsys):
    data, model, out = workspace

    def broken(*args, **kwargs):
        raise InternalError("transport basis is not connected")

    monkeypatch.setattr(transport, "channel_weights", broken)
    assert run("label", "--target", data / "target.jsonl",
               "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl",
               "--out-dir", out) == 3
    assert "internal error: transport basis is not connected" in capsys.readouterr().err


@pytest.fixture(scope="module")
def drifted(tmp_path_factory):
    """A fit and a target whose channel 2 drifts by a mean transport cost of about 0.28."""
    root = tmp_path_factory.mktemp("drifted")
    assert run("synth", "--out-dir", root / "data", "--seed", 5, "--n-source", 200, "--n-target", 200,
               "--noise", "0.3,0.3,0", "--corrupt-channel", 2, "--corrupt-magnitudes", 1.5) == 0
    assert run("fit", "--source", root / "data" / "source.jsonl", "--out-dir", root / "model",
               "--n-coarse", 16) == 0
    return root


def label_drifted(root, out, *flags):
    return run("label", "--target", root / "data" / "target_corrupt_0.jsonl",
               "--quantizer", root / "model" / "quantizer.jsonl",
               "--transitions", root / "model" / "transitions.jsonl",
               "--out-dir", out, "--n-coarse", 16, *flags)


def test_a_channel_weight_that_underflows_drops_its_channel(drifted, tmp_path):
    # exp(-(0.28 / 0.01)^2) is 0.0, while the other two channels keep a positive weight
    assert label_drifted(drifted, tmp_path, "--sigma", 0.01) == 0
    _, header = pseudolabel.load_labels(tmp_path / "labels.jsonl")
    weights = header["channel_weights"]
    assert weights[2] == 0.0 and weights[0] > 0.0 and weights[1] > 0.0
    assert (tmp_path / "alignment_report.tsv").read_text().endswith("\t0.0\n")


def test_label_with_every_used_weight_zero_is_a_config_error_naming_sigma(drifted, tmp_path, capsys):
    assert label_drifted(drifted, tmp_path / "out", "--sigma", 0.001) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "sigma" in err
    assert not (tmp_path / "out").exists()


def test_weights_that_are_only_reported_may_all_be_zero(drifted, tmp_path):
    assert label_drifted(drifted, tmp_path, "--sigma", 0.001, "--no-use-ca") == 0
    _, header = pseudolabel.load_labels(tmp_path / "labels.jsonl")
    assert header["channel_weights"] == [1.0, 1.0, 1.0]
    rows = (tmp_path / "alignment_report.tsv").read_text().splitlines()[3:]
    assert [row.split("\t")[2] for row in rows] == ["0.0", "0.0", "0.0"]


def test_label_help_has_no_threads_option(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["label", "--help"])
    assert "--threads" not in capsys.readouterr().out


# ---------------------------------------------------------------- eval

def test_eval_reports_metrics(workspace, tmp_path, capsys):
    data, model, out = workspace
    assert run("label", "--target", data / "target.jsonl",
               "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl",
               "--out-dir", out) == 0
    metrics_path = tmp_path / "metrics.jsonl"
    code = run("eval", "--labels", out / "labels.jsonl",
               "--truth", data / "target_truth.jsonl",
               "--subset", out / "selected.jsonl",
               "--out", metrics_path)
    assert code == 0
    printed = capsys.readouterr().out
    assert "accuracy=" in printed and "top-r subset" in printed
    header, rows = records.read_record_file(metrics_path, expected_kind="metrics")
    rows = list(rows)
    assert [r["split"] for r in rows] == ["all", "selected"]
    assert 0.0 <= rows[0]["accuracy"] <= 1.0


def test_eval_perfect_labels(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(*synth_args(data)) == 0
    truth, n_classes = ds.load_truth(data / "target_truth.jsonl")
    label = np.array(list(truth.values()))
    scores = np.eye(n_classes)[label]
    labels = pseudolabel.PseudoLabels(
        ids=np.array(list(truth), dtype=str),
        label=label,
        confidence=np.ones(len(label)),
        scores=scores,
        per_channel_posteriors=scores[:, None, :],
    )
    path = tmp_path / "labels.jsonl"
    pseudolabel.save_labels(path, labels, np.ones(3))
    assert run("eval", "--labels", path, "--truth", data / "target_truth.jsonl") == 0
    assert "accuracy=1.0000" in capsys.readouterr().out


def test_eval_disjoint_ids(workspace, tmp_path):
    data, model, out = workspace
    assert run("label", "--target", data / "target.jsonl",
               "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl",
               "--out-dir", out) == 0
    strangers = ds.DomainDataset(
        values=np.zeros((3, 1, 4)),
        ids=[f"stranger{k}" for k in range(3)],
        labels=[0, 0, 0],
        n_classes=4,
        role="target",
    )
    truth_path = tmp_path / "other_truth.jsonl"
    ds.save_truth(truth_path, strangers)
    assert run("eval", "--labels", out / "labels.jsonl", "--truth", truth_path) == 2


def eval_two_labels(tmp_path, selection):
    """Exit code of eval --subset on two labels "a", "b" and one selection record."""
    ids = ["a", "b"]
    truth = ds.DomainDataset(
        values=np.zeros((2, 1, 4)), ids=ids, labels=[0, 1], n_classes=2, role="target"
    )
    ds.save_truth(tmp_path / "truth.jsonl", truth)
    labels = pseudolabel.PseudoLabels(
        ids=np.array(ids),
        label=np.arange(2),
        confidence=np.ones(2),
        scores=np.eye(2),
        per_channel_posteriors=np.eye(2)[:, None, :],
    )
    pseudolabel.save_labels(tmp_path / "labels.jsonl", labels, np.ones(1))
    records.write_record_file(
        tmp_path / "sel.jsonl",
        {"kind": "selection", "r_top": 0.5, "n_selected": 1},
        [selection],
    )
    return run("eval", "--labels", tmp_path / "labels.jsonl", "--truth", tmp_path / "truth.jsonl",
               "--subset", tmp_path / "sel.jsonl")


@pytest.mark.parametrize("index", [True, 1.0, "1"])
def test_eval_rejects_a_selection_index_that_is_not_an_integer(tmp_path, capsys, index):
    assert eval_two_labels(tmp_path, {"index": index, "id": "b"}) == 2
    assert "selection index" in capsys.readouterr().err


@pytest.mark.parametrize("index, iid", [(1, "zzz-not-in-labels"), (0, "b")])
def test_eval_rejects_a_selection_id_that_differs_from_its_label(tmp_path, capsys, index, iid):
    assert eval_two_labels(tmp_path, {"index": index, "id": iid}) == 2
    assert "selection id" in capsys.readouterr().err


@pytest.mark.parametrize("label", [10**30, 2], ids=["10**30", "the-score-count"])
def test_eval_rejects_a_label_not_below_its_score_count(tmp_path, capsys, label):
    # three truth classes, so only the two scores make label 2 out of range
    truth = ds.DomainDataset(
        values=np.zeros((2, 1, 4)), ids=["a", "b"], labels=[0, 2], n_classes=3, role="target"
    )
    ds.save_truth(tmp_path / "truth.jsonl", truth)
    labels = pseudolabel.PseudoLabels(
        ids=np.array(["a", "b"]),
        label=np.arange(2),
        confidence=np.ones(2),
        scores=np.eye(2),
        per_channel_posteriors=np.eye(2)[:, None, :],
    )
    pseudolabel.save_labels(tmp_path / "labels.jsonl", labels, np.ones(1))
    header, recs = records.read_record_file(tmp_path / "labels.jsonl")
    recs = list(recs)
    recs[1]["label"] = label
    records.write_record_file(tmp_path / "labels.jsonl", header, recs)
    assert run("eval", "--labels", tmp_path / "labels.jsonl", "--truth", tmp_path / "truth.jsonl") == 2
    assert f"label {label} is not below its 2 scores" in capsys.readouterr().err


# ---------------------------------------------------------------- config

@pytest.mark.parametrize("stage", ["label", "eval"])
def test_a_closed_stdout_exits_1_after_writing_every_file(workspace, tmp_path, stage):
    data, model, out = workspace
    label = ["label", "--target", data / "target.jsonl", "--quantizer", model / "quantizer.jsonl",
             "--transitions", model / "transitions.jsonl", "--out-dir", out]
    argv = label
    if stage == "eval":
        assert run(*label) == 0
        argv = ["eval", "--labels", out / "labels.jsonl", "--truth", data / "target_truth.jsonl",
                "--subset", out / "selected.jsonl", "--out", tmp_path / "metrics.jsonl"]
    src = Path(cli.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "codechain.cli", *map(str, argv)],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert "error" not in proc.stderr
    written = ["metrics.jsonl"] if stage == "eval" else ["labels.jsonl", "selected.jsonl", "alignment_report.tsv"]
    for name in written:
        assert ((tmp_path if stage == "eval" else out) / name).stat().st_size > 0


def test_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"tau": 2.0, "sigma": 0.1}))
    out = tmp_path / "d"
    assert run(*synth_args(out), "--config", cfg_path, "--tau", "0.5") == 0
    header, _ = records.read_record_file(out / "source.jsonl", expected_kind="corpus")
    assert header["config"]["run"]["tau"] == 0.5
    assert header["config"]["run"]["sigma"] == 0.1


def test_config_file_synth_section(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"seed": 11, "synth": {"n_source": 7, "n_target": 5, "length": 32}}))
    out = tmp_path / "d"
    assert run("synth", "--out-dir", out, "--config", cfg_path) == 0
    assert len(ds.load_corpus(out / "source.jsonl")) == 7
    header, _ = records.read_record_file(out / "source.jsonl", expected_kind="corpus")
    assert header["config"]["synth"]["seed"] == 11


def test_unknown_config_key_rejected(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"tau": 1.0, "bogus": 3}))
    assert run(*synth_args(tmp_path / "d"), "--config", cfg_path) == 1


def test_bad_flag_value_is_config_error(tmp_path):
    assert run("synth", "--out-dir", tmp_path / "d", "--patch-length", "eight") == 1


SMALL_SYNTH = ("--n-source", 30, "--n-target", 20, "--length", 64)


@pytest.mark.parametrize(
    "config",
    [
        {"tau": "0.5"},
        {"max_iters": 2.5},
        {"synth": {"n_source": "7"}},
        {"use_ca": "no"},
        {"r_top": True},
        {"seed": -3},
        {"prior": [0.5, "0.5"]},
        {"prior": [True, False]},
        {"d_dim": 4.0},
        {"synth": {"length": 32.0}},
        {"synth": {"noise": "0.3"}},
        {"synth": {"noise": [[0.1, 0.2, 0.3]]}},
        {"synth": {"class_probs_source": [0.5, 0.5, 0, False]}},
        {"synth": {"class_regimes": [[[["1"]]]]}},
        {"synth": {"class_regimes": [[1.0], [0.5, 0.5]]}},
    ],
)
def test_ill_typed_config_value_is_config_error(tmp_path, capsys, config):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    assert run("synth", "--out-dir", tmp_path / "d", *SMALL_SYNTH, "--config", cfg_path) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "flags, config",
    [
        (("--seed", -1), None),
        (("--projection-seed", -1), None),
        ((), {"seed": -3}),
        ((), {"projection_seed": -1}),
        ((), {"synth": {"seed": -2}}),
        (("--corrupt-channel", 1, "--corrupt-magnitudes", "0.5", "--corrupt-seed", -1), None),
    ],
)
def test_negative_seed_is_config_error(tmp_path, capsys, flags, config):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config or {}))
    assert run("synth", "--out-dir", tmp_path / "d", *SMALL_SYNTH, *flags, "--config", cfg_path) == 1
    assert "config error" in capsys.readouterr().err


def absent_inputs(command, tmp_path):
    """The input flags of a stage, each naming a file that does not exist."""
    absent = tmp_path / "absent.jsonl"
    return {
        "fit": ("--source", absent, "--out-dir", tmp_path / "out"),
        "label": ("--target", absent, "--quantizer", absent, "--transitions", absent,
                  "--out-dir", tmp_path / "out"),
        "eval": ("--labels", absent, "--truth", absent),
    }[command]


@pytest.mark.parametrize("command", ["fit", "label", "eval"])
@pytest.mark.parametrize("section", [{"bogus": 1}, {"n_source": "7"}])
def test_every_stage_checks_the_config_synth_section(tmp_path, capsys, command, section):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"synth": section}))
    # the config is checked before any input is read
    assert run(command, *absent_inputs(command, tmp_path), "--config", cfg_path) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "label", "eval"])
@pytest.mark.parametrize(
    "prior", ["0.3,0.3,0.3,0.3", "1.2,-0.2", "1", "[0.5, 0.6]"],
    ids=["sum-0.9", "negative", "one-entry", "json-sum-1.1"],
)
def test_every_stage_rejects_a_bad_prior_before_reading_any_file(tmp_path, capsys, command, prior):
    assert run(command, *absent_inputs(command, tmp_path), "--prior", prior) == 1
    assert "config error: prior" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "label", "eval"])
@pytest.mark.parametrize(
    "flag, value, message",
    [("--embed-mode", "bogus", "embed mode must be one of"), ("--d-dim", "1", "d_dim must be >= 2")],
    ids=["embed-mode", "d-dim"],
)
def test_every_stage_rejects_a_bad_embedding_before_reading_any_file(tmp_path, capsys, command, flag, value, message):
    assert run(command, *absent_inputs(command, tmp_path), flag, value) == 1
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "fit", "label", "eval"])
@pytest.mark.parametrize("given", ["flag", "config"])
def test_every_stage_refuses_a_non_finite_run_number_before_any_file(tmp_path, capsys, command, given):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"tau": Infinity}')
    number = ("--sigma", "inf") if given == "flag" else ("--config", cfg_path)
    out = tmp_path / "out"
    # absent inputs: reading one would be a data error, exit 2
    inputs = ("--out-dir", out) if command == "synth" else absent_inputs(command, tmp_path)
    if command == "eval":
        inputs += ("--out", out)
    assert run(command, *inputs, *number) == 1
    name = "sigma" if given == "flag" else "tau"
    assert f"config error: {name} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_a_non_finite_fit_number_leaves_the_old_bundle_whole(workspace, capsys):
    data, model, _ = workspace
    before = {path.name: path.read_bytes() for path in model.iterdir()}
    assert run("fit", "--source", data / "source.jsonl", "--out-dir", model, "--epsilon", "inf") == 1
    assert "config error: epsilon must be finite" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in model.iterdir()} == before


@pytest.mark.parametrize(
    "flags, name",
    [
        (("--class-probs-source", "nan,0.5,0.5,0"), "class_probs_source"),
        (("--base-noise", "nan"), "base_noise"),
        (("--curvature-jitter", "nan"), "curvature_jitter"),
        (("--phase-jitter", "inf"), "phase_jitter"),
        (("--sine-freq", "inf"), "sine_freq"),
        (("--corrupt-channel", 1, "--corrupt-magnitudes", "0.5,inf"), "magnitude"),
    ],
)
def test_synth_refuses_a_non_finite_parameter_before_writing_anything(tmp_path, capsys, flags, name):
    out = tmp_path / "d"
    assert run("synth", "--out-dir", out, *SMALL_SYNTH, *flags) == 1
    assert f"config error: {name} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_synth_refuses_a_nan_regime_cell_in_a_config_file(tmp_path, capsys):
    regimes = synth.make_class_regimes(2, 1, 2).tolist()
    regimes[0][0][0][0] = float("nan")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(
        {"synth": {"n_classes": 2, "n_channels": 1, "n_primitives": 2, "class_regimes": regimes}}
    ))
    assert run("synth", "--out-dir", tmp_path / "d", *SMALL_SYNTH, "--config", cfg_path) == 1
    assert "config error: class_regimes must be finite" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_config_file_values_are_echoed_as_given(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"tau": 2, "use_ca": False, "prior": [1, 0],
                                    "synth": {"shift_scale": 2, "noise": [0, 0.5, 1]}}))
    assert run("synth", "--out-dir", tmp_path / "d", *SMALL_SYNTH, "--config", cfg_path) == 0
    line = (tmp_path / "d" / "source.jsonl").read_text().splitlines()[0]
    for text in ('"tau":2,', '"use_ca":false', '"prior":[1.0,0.0]', '"shift_scale":2.0',
                 '"noise":[0.0,0.5,1.0]'):
        assert text in line


def test_invalid_run_values_rejected(tmp_path, capsys):
    assert run(*synth_args(tmp_path / "d"), "--tau", "0") == 1
    assert run(*synth_args(tmp_path / "d"), "--r-top", "1.7") == 1
    capsys.readouterr()
    assert run(*synth_args(tmp_path / "d"), "--epsilon", "-1e-8") == 1
    assert "epsilon must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["-1e-8", "-2.5E+3", "-1.", "-.5", "-3"])
def test_a_negative_number_is_read_as_a_flag_value(text):
    args = cli.build_parser().parse_args(["synth", "--out-dir", "d", "--shift-offset", text])
    assert args.shift_offset == float(text)


def test_a_negative_comma_list_is_read_as_a_flag_value(tmp_path, capsys):
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert run(*synth_args(spaced), "--shift-offset", "-1,0.5,2") == 0
    assert run(*synth_args(joined), "--shift-offset=-1,0.5,2") == 0
    for name in ("source.jsonl", "target.jsonl", "target_truth.jsonl"):
        assert (spaced / name).read_bytes() == (joined / name).read_bytes()
    capsys.readouterr()
    assert run(*synth_args(tmp_path / "bad"), "--shift-offset", "-1,-x") == 1
    assert "expected one argument" in capsys.readouterr().err


RUN_OPTIONS = {
    ("-h --help", "help"),
    ("--config", "config"),
    ("--patch-length", "run_patch_length"),
    ("--n-coarse", "run_n_coarse"),
    ("--n-fine", "run_n_fine"),
    ("--embed-mode", "run_embed_mode"),
    ("--d-dim", "run_d_dim"),
    ("--projection-seed", "run_projection_seed"),
    ("--epsilon", "run_epsilon"),
    ("--sigma", "run_sigma"),
    ("--tau", "run_tau"),
    ("--r-top", "run_r_top"),
    ("--use-ca --no-use-ca", "run_use_ca"),
    ("--prior", "run_prior"),
    ("--max-iters", "run_max_iters"),
    ("--seed", "run_seed"),
}
# (option strings, dest) of every action; callers and perfbench pass these
OPTIONS = {
    "synth": RUN_OPTIONS | {
        ("--out-dir", "out_dir"),
        ("--n-classes", "n_classes"),
        ("--n-channels", "n_channels"),
        ("--length", "length"),
        ("--n-primitives", "n_primitives"),
        ("--sine-freq", "sine_freq"),
        ("--regime-stickiness", "regime_stickiness"),
        ("--n-source", "n_source"),
        ("--n-target", "n_target"),
        ("--base-noise", "base_noise"),
        ("--curvature-jitter", "curvature_jitter"),
        ("--phase-jitter", "phase_jitter"),
        ("--shift-scale", "shift_scale"),
        ("--shift-offset", "shift_offset"),
        ("--noise", "noise"),
        ("--target-regime-mix", "target_regime_mix"),
        ("--class-probs-source", "class_probs_source"),
        ("--class-probs-target", "class_probs_target"),
        ("--corrupt-channel", "corrupt_channel"),
        ("--corrupt-magnitudes", "corrupt_magnitudes"),
        ("--corrupt-seed", "corrupt_seed"),
    },
    "fit": RUN_OPTIONS | {("--source", "source"), ("--out-dir", "out_dir")},
    "label": RUN_OPTIONS | {
        ("--target", "target"),
        ("--quantizer", "quantizer"),
        ("--transitions", "transitions"),
        ("--out-dir", "out_dir"),
    },
    "eval": RUN_OPTIONS | {
        ("--labels", "labels"),
        ("--truth", "truth"),
        ("--subset", "subset"),
        ("--out", "out"),
    },
}


def test_every_subcommand_keeps_its_option_strings_and_dests():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(OPTIONS)
    for name, want in OPTIONS.items():
        actions = sub.choices[name]._actions
        assert {(" ".join(a.option_strings), a.dest) for a in actions} == want, name
        assert len(actions) == len(want)
    assert [len(OPTIONS[n]) for n in ("synth", "fit", "label", "eval")] == [37, 18, 20, 20]


def test_readme_tables_name_every_config_field():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    first_cells = [row.split("|")[1] for row in section.splitlines() if row.startswith("| `")]
    named = set(re.findall(r"`(\w+)`", " ".join(first_cells)))
    for cls in (cli.RunConfig, synth.SynthConfig):
        missing = {f.name for f in fields(cls)} - named
        assert not missing, f"{cls.__name__} fields missing from the README tables: {missing}"


def test_console_entrypoint_help():
    proc = subprocess.run(
        [sys.executable, "-m", "codechain.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for sub in ("synth", "fit", "label", "eval"):
        assert sub in proc.stdout


def test_cli_imports_numpy_but_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, codechain.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------- pipeline

def test_full_pipeline_reproducible(tmp_path):
    outputs = []
    for run_dir in ("one", "two"):
        base = tmp_path / run_dir
        assert run(*synth_args(base / "data")) == 0
        assert run("fit", "--source", base / "data" / "source.jsonl",
                   "--out-dir", base / "model", "--n-coarse", 4, "--n-fine", 8) == 0
        assert run("label", "--target", base / "data" / "target.jsonl",
                   "--quantizer", base / "model" / "quantizer.jsonl",
                   "--transitions", base / "model" / "transitions.jsonl",
                   "--out-dir", base / "out") == 0
        outputs.append(base)
    for rel in ("data/source.jsonl", "data/target.jsonl", "data/target_truth.jsonl",
                "model/quantizer.jsonl", "model/transitions.jsonl",
                "out/labels.jsonl", "out/selected.jsonl", "out/alignment_report.tsv"):
        a = (outputs[0] / rel).read_bytes()
        b = (outputs[1] / rel).read_bytes()
        assert a == b, rel

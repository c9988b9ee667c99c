"""End-to-end command behavior, exit codes, and reproducible artifacts."""

import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
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
        (("--corrupt-seed", 5), 1),
        (("--corrupt-seed", -1), 1),
    ],
    ids=["channel-alone", "magnitudes-alone", "channel-3-of-3", "channel-minus-1",
         "negative-magnitude", "negative-seed", "seed-alone", "negative-seed-alone"],
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


def test_fit_reports_a_stage_stopped_by_its_loss_rule_as_converged(workspace, tmp_path, monkeypatch, capsys):
    data, _, _ = workspace
    latents = rvq.embed_dataset(ds.load_corpus(data / "source.jsonl"), 8)
    fine = rvq.fit([latents], 4, 8, max_iters=50, seed=0).fine_losses
    assert fine[-2] - fine[-1] <= rvq._LOSS_TOL * fine[-2]
    capsys.readouterr()
    assert run("fit", "--source", data / "source.jsonl", "--out-dir", tmp_path / "m",
               "--n-coarse", 4, "--n-fine", 8) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(f", fine {len(fine)} iterations (converged)")
    # without the loss rule the same stage runs on, so the rule is what stopped it
    monkeypatch.setattr(rvq, "_LOSS_TOL", -np.inf)
    assert len(rvq.fit([latents], 4, 8, max_iters=50, seed=0).fine_losses) > len(fine)


def test_fit_reports_the_recon_mse_from_code_stats(workspace, tmp_path, monkeypatch, capsys):
    data, _, _ = workspace
    monkeypatch.setattr(rvq, "code_stats", lambda *args: (0.25, 0.125))
    capsys.readouterr()
    assert run("fit", "--source", data / "source.jsonl", "--out-dir", tmp_path / "m",
               "--n-coarse", 4, "--n-fine", 8) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "recon mse: coarse 0.250000, coarse+fine 0.125000"
    assert not any("dead" in line for line in lines)


def test_fit_rejects_target_corpus(workspace, tmp_path):
    data, _, _ = workspace
    assert run("fit", "--source", data / "target.jsonl", "--out-dir", tmp_path / "m") == 2


@pytest.mark.parametrize("where", ["header", "last-record"])
def test_a_corpus_byte_that_is_not_utf8_is_a_data_error_at_or_after_its_line(workspace, tmp_path, capsys, where):
    data, _, _ = workspace
    lines = (data / "source.jsonl").read_bytes().splitlines(keepends=True)
    bad_line = 1 if where == "header" else len(lines)
    lines[bad_line - 1] = b"\xff" + lines[bad_line - 1]
    source = tmp_path / "source.jsonl"
    source.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert run("fit", "--source", source, "--out-dir", tmp_path / "m") == 2
    err = capsys.readouterr().err
    no = int(err.removeprefix(f"data error: {source}:").split(":")[0])
    assert err == f"data error: {source}:{no}: not UTF-8 text at or after line {no}\n"
    assert 1 <= no <= bad_line
    assert not (tmp_path / "m").exists()


def test_a_truth_header_nested_too_deeply_is_a_data_error(labelled, tmp_path, capsys):
    truth = tmp_path / "truth.jsonl"
    truth.write_text('{"format":"codechain.v1","kind":"truth","n_classes":' + "[" * 100_000 + "]" * 100_000 + "}\n")
    capsys.readouterr()
    assert run("eval", "--labels", labelled["labels"], "--truth", truth, "--out", tmp_path / "metrics.jsonl") == 2
    assert capsys.readouterr().err == f"data error: {truth}:1: JSON nested too deeply\n"
    assert not (tmp_path / "metrics.jsonl").exists()


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


def test_label_holds_the_target_values_about_once(tmp_path):
    data, model = tmp_path / "data", tmp_path / "model"
    assert run(*synth_args(data, n_source=30, n_target=600, length=128)) == 0
    assert run("fit", "--source", data / "source.jsonl", "--out-dir", model, "--n-coarse", 4, "--n-fine", 8) == 0
    values_nbytes = ds.load_corpus(data / "target.jsonl").values.nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = run("label", "--target", data / "target.jsonl", "--quantizer", model / "quantizer.jsonl",
                   "--transitions", model / "transitions.jsonl", "--out-dir", tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == 0
    # the values, their read buffer's slack and the codes come to 1.4 times the values; the
    # corpus buffer becomes the latents, so a second latents-sized array breaks the bound
    assert peak <= 1.75 * values_nbytes


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
    ],
    ids=["coarse-string", "coarse-bool", "fine-string", "class-tms-string",
         "channel-tms-string"],
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


def test_label_rejects_a_corpus_with_json_list_channels(workspace, tmp_path, capsys):
    data, model, out = workspace
    values = ds.load_corpus(data / "target.jsonl").values
    header = {"kind": "corpus", "role": "target", "n_channels": 3, "length": 64, "n_classes": 4,
              "n_instances": len(values)}
    recs = [{"id": f"t{i}", "label": None, "channels": v.tolist()} for i, v in enumerate(values)]
    records.write_record_file(tmp_path / "old.jsonl", header, recs)
    assert run("label", "--target", tmp_path / "old.jsonl",
               "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl", "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert "data error:" in err and "channels_encoding None is not 'base64-float64le'" in err
    assert not out.exists()


@pytest.mark.parametrize("stage", ["fit", "label"])
def test_a_truncated_corpus_is_a_data_error_that_writes_nothing(workspace, tmp_path, capsys, stage):
    data, model, out = workspace
    name = "source.jsonl" if stage == "fit" else "target.jsonl"
    lines = (data / name).read_text().splitlines(keepends=True)
    short = tmp_path / name
    short.write_text("".join(lines[:15]))  # the header and the first 14 records
    argv = (["fit", "--source", short, "--out-dir", out] if stage == "fit" else
            ["label", "--target", short, "--quantizer", model / "quantizer.jsonl",
             "--transitions", model / "transitions.jsonl", "--out-dir", out])
    capsys.readouterr()
    assert run(*argv) == 2
    total = len(lines) - 1
    assert capsys.readouterr().err == (
        f"data error: {short}: corpus header n_instances is {total}, the file holds 14 records\n"
    )
    assert not out.exists()


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


def test_label_rejects_a_codeword_whose_squared_norm_overflows_before_reading_the_target(
    workspace, monkeypatch, capsys
):
    data, model, out = workspace
    header, (rec,) = records.read_record_file(model / "quantizer.jsonl")
    rec["coarse"][0] = [1e300] * len(rec["coarse"][0])
    records.write_record_file(model / "quantizer.jsonl", header, [rec])
    monkeypatch.setattr(ds, "load_corpus", never_called)
    assert run("label", "--target", data / "target.jsonl",
               "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl",
               "--out-dir", out) == 2
    assert "squared norm overflows" in capsys.readouterr().err
    assert not out.exists()


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


def test_label_refuses_a_one_class_transitions_bundle_before_reading_the_target(workspace, monkeypatch, capsys):
    data, model, out = workspace
    header, (rec,) = records.read_record_file(model / "transitions.jsonl")
    # a consistent one-class bundle: its header counts the one class it holds
    records.write_record_file(
        model / "transitions.jsonl", {**header, "n_classes": 1}, [{**rec, "class_tms": rec["class_tms"][:1]}]
    )
    monkeypatch.setattr(ds, "load_corpus", never_called)
    assert run("label", "--target", data / "target.jsonl", "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl", "--out-dir", out) == 2
    assert "holds 1 class; labeling needs >= 2" in capsys.readouterr().err


def test_label_refuses_a_source_role_corpus_before_embedding_it(workspace, monkeypatch, capsys):
    data, model, out = workspace
    monkeypatch.setattr(rvq, "embed_dataset", never_called)
    assert run("label", "--target", data / "source.jsonl", "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl", "--out-dir", out) == 2
    assert "data error: label needs a target-role corpus, got role 'source'" in capsys.readouterr().err
    assert not out.exists()


def test_label_single_patch_corpus_fails_before_encoding(tmp_path, monkeypatch):
    data, model = tmp_path / "data", tmp_path / "model"
    assert run(*synth_args(data, length=16)) == 0
    assert run("fit", "--source", data / "source.jsonl", "--out-dir", model,
               "--n-coarse", 4, "--n-fine", 8) == 0
    target = ds.load_corpus(data / "target.jsonl")
    ds.save_corpus(tmp_path / "one_patch.jsonl", replace(target, values=target.values[:, :, :12]))
    monkeypatch.setattr(rvq, "encode", never_called)
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
    monkeypatch.setattr(rvq, "embed_dataset", never_called)
    assert run("fit", "--source", data / "source.jsonl", "--out-dir", tmp_path / "m") == 2
    assert "data error: source class 2 of 4 has no instances" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("probs, n_classes, first", [("0.25,0.25,0.25,0.25", 2**63, 4), ("0.5,0,0.5,0", 4, 1)],
                         ids=["header-above-int64", "gap-between-classes"])
def test_fit_names_the_first_missing_source_class(tmp_path, capsys, probs, n_classes, first):
    data = tmp_path / "data"
    assert run(*synth_args(data), "--class-probs-source", probs) == 0
    header, recs = records.read_record_file(data / "source.jsonl")
    records.write_record_file(data / "edited.jsonl", {**header, "n_classes": n_classes}, list(recs))
    assert run("fit", "--source", data / "edited.jsonl", "--out-dir", tmp_path / "m") == 2
    assert f"data error: source class {first} of {n_classes} has no instances" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_fit_rejects_a_source_of_one_class_before_embedding(tmp_path, monkeypatch, capsys):
    # label would refuse every bundle fit on it: the transition bundle would hold 1 class
    data = tmp_path / "data"
    assert run(*synth_args(data)) == 0
    source = ds.load_corpus(data / "source.jsonl")
    ds.save_corpus(data / "one.jsonl", replace(source, labels=np.zeros(len(source)), n_classes=1))
    monkeypatch.setattr(rvq, "embed_dataset", never_called)
    assert run("fit", "--source", data / "one.jsonl", "--out-dir", tmp_path / "m") == 2
    assert "data error: the source header holds 1 class; fitting needs >= 2" in capsys.readouterr().err
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


def test_a_sigma_whose_ratio_overflows_is_a_config_error_and_nothing_else(drifted, tmp_path, capsys):
    # mean_cost / 5e-324 overflows to inf, whose weight exp(-inf) is 0, without a numpy warning
    assert label_drifted(drifted, tmp_path / "out", "--sigma", "5e-324") == 1
    err = capsys.readouterr().err
    assert err == "config error: sigma = 5e-324 is too small: every channel weight underflows to 0\n"
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


def test_label_smooths_with_its_own_epsilon_not_the_fit_one(workspace, tmp_path):
    data, _, _ = workspace
    model = tmp_path / "model_eps"
    assert run("fit", "--source", data / "source.jsonl", "--out-dir", model,
               "--n-coarse", 4, "--n-fine", 8, "--epsilon", 0.01) == 0
    argv = ("label", "--target", data / "target.jsonl", "--quantizer", model / "quantizer.jsonl",
            "--transitions", model / "transitions.jsonl")
    assert run(*argv, "--out-dir", tmp_path / "default") == 0
    assert run(*argv, "--out-dir", tmp_path / "typed", "--epsilon", 1e-8) == 0
    for name in ("labels.jsonl", "selected.jsonl", "alignment_report.tsv"):
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "typed" / name).read_bytes()


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


def test_eval_scores_a_selected_split_only_from_subset(workspace, tmp_path, capsys):
    data, model, out = workspace
    assert run("label", "--target", data / "target.jsonl",
               "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl",
               "--out-dir", out) == 0
    capsys.readouterr()
    printed = []
    for name, flags in (("plain", ()), ("typed", ("--r-top", 0.5))):
        assert run("eval", "--labels", out / "labels.jsonl", "--truth", data / "target_truth.jsonl",
                   "--out", tmp_path / f"{name}.jsonl", *flags) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and "top-r subset" not in printed[0]
    assert (tmp_path / "plain.jsonl").read_bytes() == (tmp_path / "typed.jsonl").read_bytes()


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


def test_eval_refuses_labels_that_cover_only_some_truth_ids(workspace, tmp_path, capsys):
    data, model, out = workspace
    assert run("label", "--target", data / "target.jsonl",
               "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl",
               "--out-dir", out) == 0
    header, recs = records.read_record_file(out / "labels.jsonl")
    records.write_record_file(tmp_path / "first5.jsonl", {**header, "n_instances": 5}, list(recs)[:5])
    capsys.readouterr()
    assert run("eval", "--labels", tmp_path / "first5.jsonl", "--truth", data / "target_truth.jsonl",
               "--out", tmp_path / "metrics.jsonl") == 2
    assert capsys.readouterr().err == "data error: the labels cover 5 of the 20 truth ids\n"
    assert not (tmp_path / "metrics.jsonl").exists()


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


def test_eval_rejects_a_selection_index_past_the_last_label(tmp_path, capsys):
    assert eval_two_labels(tmp_path, {"index": 2, "id": "b"}) == 2
    assert "selection index out of range for the label file" in capsys.readouterr().err


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
    )
    pseudolabel.save_labels(tmp_path / "labels.jsonl", labels, np.ones(1))
    header, recs = records.read_record_file(tmp_path / "labels.jsonl")
    recs = list(recs)
    recs[1]["label"] = label
    records.write_record_file(tmp_path / "labels.jsonl", header, recs)
    assert run("eval", "--labels", tmp_path / "labels.jsonl", "--truth", tmp_path / "truth.jsonl") == 2
    assert f"label {label} is not below its 2 scores" in capsys.readouterr().err


def test_eval_refuses_a_one_class_truth_file_as_a_data_error(tmp_path, capsys):
    truth = ds.DomainDataset(
        values=np.zeros((2, 1, 4)), ids=["a", "b"], labels=[0, 0], n_classes=1, role="target"
    )
    ds.save_truth(tmp_path / "truth.jsonl", truth)
    labels = pseudolabel.PseudoLabels(
        ids=np.array(["a", "b"]),
        label=np.zeros(2, dtype=np.int64),
        confidence=np.ones(2),
        scores=np.array([[1.0, 0.0], [1.0, 0.0]]),
    )
    pseudolabel.save_labels(tmp_path / "labels.jsonl", labels, np.ones(1))
    assert run("eval", "--labels", tmp_path / "labels.jsonl", "--truth", tmp_path / "truth.jsonl") == 2
    err = capsys.readouterr().err
    assert err == f"data error: {tmp_path / 'truth.jsonl'}: truth header n_classes 1 is below 2, too few to score\n"


def test_eval_refuses_labels_whose_class_count_differs_from_the_truth(workspace, tmp_path, capsys):
    data, model, out = workspace
    assert run("label", "--target", data / "target.jsonl",
               "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl",
               "--out-dir", out) == 0
    header, recs = records.read_record_file(data / "target_truth.jsonl")
    n_classes = header["n_classes"]
    header["n_classes"] = n_classes + 1
    records.write_record_file(tmp_path / "truth.jsonl", header, list(recs))
    capsys.readouterr()
    assert run("eval", "--labels", out / "labels.jsonl", "--truth", tmp_path / "truth.jsonl",
               "--out", tmp_path / "metrics.jsonl") == 2
    assert capsys.readouterr().err == (
        f"data error: {out / 'labels.jsonl'}: {n_classes} class scores, "
        f"the truth has {n_classes + 1} classes\n"
    )
    assert not (tmp_path / "metrics.jsonl").exists()


@pytest.mark.parametrize(
    "name, changes, message",
    [
        ("labels", {"n_classes": 7, "n_instances": 3}, "pseudo_labels header n_instances is 3, the file holds 20 records"),
        ("labels", {"n_classes": 7}, "pseudo_labels header n_classes is 7, the file holds 4 scores per record"),
        ("selected", {"n_selected": 99}, "selection header n_selected is 99, the file holds 10 records"),
        ("truth", {"n_instances": 5}, "truth header n_instances is 5, the file holds 20 records"),
    ],
    ids=["labels", "labels-n-classes", "selection", "truth"],
)
def test_eval_refuses_a_header_count_that_differs_from_the_file(workspace, tmp_path, capsys, name, changes, message):
    data, model, out = workspace
    assert run("label", "--target", data / "target.jsonl",
               "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl",
               "--out-dir", out) == 0
    files = {"labels": out / "labels.jsonl", "selected": out / "selected.jsonl",
             "truth": data / "target_truth.jsonl"}
    header, recs = records.read_record_file(files[name])
    files[name] = tmp_path / f"{name}.jsonl"
    records.write_record_file(files[name], {**header, **changes}, list(recs))
    capsys.readouterr()
    assert run("eval", "--labels", files["labels"], "--truth", files["truth"],
               "--subset", files["selected"], "--out", tmp_path / "metrics.jsonl") == 2
    assert capsys.readouterr().err == f"data error: {files[name]}: {message}\n"
    assert not (tmp_path / "metrics.jsonl").exists()


@pytest.fixture(scope="module")
def labelled(tmp_path_factory):
    """Every artifact of one synth, fit and label run, by name."""
    root = tmp_path_factory.mktemp("labelled")
    data, model, out = root / "data", root / "model", root / "out"
    assert run(*synth_args(data)) == 0
    assert run("fit", "--source", data / "source.jsonl", "--out-dir", model, "--n-coarse", 4, "--n-fine", 8) == 0
    assert run("label", "--target", data / "target.jsonl", "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl", "--out-dir", out) == 0
    return {"source": data / "source.jsonl", "target": data / "target.jsonl", "truth": data / "target_truth.jsonl",
            "quantizer": model / "quantizer.jsonl", "transitions": model / "transitions.jsonl",
            "labels": out / "labels.jsonl", "selected": out / "selected.jsonl"}


def stage_reading(name, files, out):
    """The command line of the stage that reads the named artifact."""
    if name == "source":
        return ["fit", "--source", files["source"], "--out-dir", out, "--n-coarse", 4, "--n-fine", 8]
    if name in ("target", "quantizer", "transitions"):
        return ["label", "--target", files["target"], "--quantizer", files["quantizer"],
                "--transitions", files["transitions"], "--out-dir", out]
    return ["eval", "--labels", files["labels"], "--truth", files["truth"], "--subset", files["selected"]]


@pytest.mark.parametrize("value", [2**63, 10**30], ids=["2**63", "10**30"])
@pytest.mark.parametrize("name", ["source", "target", "truth", "quantizer", "transitions", "labels", "selected"])
def test_an_integer_too_large_for_int64_in_any_artifact_exits_0_or_2(labelled, tmp_path, capsys, name, value):
    # every integer of the header and of the first record, and the label a target record holds as null
    header, recs = records.read_record_file(labelled[name])
    recs = list(recs)
    keys = [(0, key) for key, v in header.items() if type(v) is int]
    keys += [(1, key) for key, v in recs[0].items() if type(v) is int or key == "label"]
    assert len(keys) >= 2
    files = {**labelled, name: tmp_path / f"{name}.jsonl"}
    for line, key in keys:
        lines = [header, *recs]
        lines[line] = {**lines[line], key: value}
        records.write_record_file(files[name], lines[0], lines[1:])
        try:
            code = run(*stage_reading(name, files, tmp_path / "out"))
        except Exception as exc:  # the exit-code contract allows no traceback
            pytest.fail(f"{name} line {line} {key} {value}: {exc!r}")
        err = capsys.readouterr().err
        assert code == 0 or (code == 2 and err.startswith("data error: ")), (line, key, code, err)


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


def test_flags_override_config_file(workspace, tmp_path):
    data, model, out = workspace
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"tau": 2.0, "sigma": 0.1}))
    assert run("label", "--target", data / "target.jsonl", "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl", "--out-dir", out,
               "--config", cfg_path, "--tau", "0.5") == 0
    _, header = pseudolabel.load_labels(out / "labels.jsonl")
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


@pytest.mark.parametrize(
    "text, message",
    [
        ("{tau: 1}", "config is not valid JSON"),
        ("[1, 2]", "config must be a JSON object"),
        ('{"synth": [1]}', "'synth' section must be an object"),
    ],
    ids=["not-json", "a-list", "synth-a-list"],
)
def test_a_config_file_that_is_not_a_json_object_is_a_config_error(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(text)
    assert run(*synth_args(tmp_path / "d"), "--config", cfg_path) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "text, message",
    [(b"\xff{}", "config is not UTF-8 text"), (b"[" * 100_000 + b"]" * 100_000, "config JSON is nested too deeply")],
    ids=["not-utf8", "nested"],
)
def test_a_config_file_that_cannot_be_decoded_is_a_config_error(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_bytes(text)
    assert run("fit", "--source", tmp_path / "absent.jsonl", "--config", cfg_path, "--out-dir", tmp_path / "m") == 1
    assert capsys.readouterr().err == f"config error: {cfg_path}: {message}\n"
    assert not (tmp_path / "m").exists()


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
        {"n_coarse": 4.0},
        {"synth": {"length": 32.0}},
        {"synth": {"noise": "0.3"}},
        {"synth": {"noise": [[0.1, 0.2, 0.3]]}},
        {"synth": {"shift_offset": [1, 2]}},
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
        # the noise seed a ladder derives, seed + 1000, would be valid for either negative seed
        (("--seed", -1, "--corrupt-channel", 1, "--corrupt-magnitudes", "0.5"), None),
        ((), {"seed": -3}),
        (("--corrupt-channel", 1, "--corrupt-magnitudes", "0.5"), {"synth": {"seed": -2}}),
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
    "prior", ["0.3,0.3,0.3,0.3", "1.2,-0.2", "1"], ids=["sum-0.9", "negative", "one-entry"]
)
def test_every_stage_rejects_a_bad_prior_before_reading_any_file(tmp_path, capsys, command, prior):
    assert run(command, *absent_inputs(command, tmp_path), "--prior", prior) == 1
    assert "config error: prior" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "label", "eval"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        # the embedding and projection width flags are gone; a value each refused is still refused
        ("--embed-mode", "bogus", "unrecognized arguments: --embed-mode bogus"),
        ("--d-dim", "1", "unrecognized arguments: --d-dim 1"),
    ],
    ids=["embed-mode", "d-dim"],
)
def test_every_stage_rejects_a_bad_embedding_before_reading_any_file(tmp_path, capsys, command, flag, value, message):
    assert run(command, *absent_inputs(command, tmp_path), flag, value) == 1
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "label", "eval"])
def test_every_stage_refuses_a_json_prior_flag_before_reading_any_file(tmp_path, capsys, command):
    # a prior flag takes comma-separated values only; the JSON list belongs in a config file
    assert run(command, *absent_inputs(command, tmp_path), "--prior", "[0.5,0.5]") == 1
    assert "config error: bad numeric value '[0.5,0.5]'" in capsys.readouterr().err


def test_a_prior_flag_and_its_config_list_write_the_same_label_files(workspace, tmp_path):
    data, model, _ = workspace
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"prior": [0.4, 0.3, 0.2, 0.1]}))
    inputs = ("--target", data / "target.jsonl", "--quantizer", model / "quantizer.jsonl",
              "--transitions", model / "transitions.jsonl")
    flag, config = tmp_path / "flag", tmp_path / "config"
    assert run("label", *inputs, "--out-dir", flag, "--prior", "0.4,0.3,0.2,0.1") == 0
    assert run("label", *inputs, "--out-dir", config, "--config", cfg_path) == 0
    for name in ("labels.jsonl", "selected.jsonl", "alignment_report.tsv"):
        assert (flag / name).read_bytes() == (config / name).read_bytes(), name


@pytest.mark.parametrize("command", ["synth", "fit", "label", "eval"])
def test_every_stage_refuses_a_d_dim_above_patch_length_before_any_file(tmp_path, capsys, command):
    # refused as a projection that raises the dimension before d_dim was removed, refused as unknown now
    out = tmp_path / "out"
    inputs = ("--out-dir", out) if command == "synth" else absent_inputs(command, tmp_path)
    assert run(command, *inputs, "--d-dim", 9) == 1
    assert "config error: unrecognized arguments: --d-dim 9" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "fit", "label", "eval"])
@pytest.mark.parametrize("key", ["d_dim", "projection_seed", "embed_mode"])
def test_every_stage_refuses_a_removed_projection_key_before_any_file(tmp_path, capsys, command, key):
    out = tmp_path / "out"
    inputs = ("--out-dir", out) if command == "synth" else absent_inputs(command, tmp_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({key: 4}))
    assert run(command, *inputs, "--config", cfg_path) == 1
    assert f"config error: {cfg_path}: unknown config keys ['{key}']" in capsys.readouterr().err
    assert not out.exists()
    flag = "--" + key.replace("_", "-")
    assert run(command, *inputs, flag, 4) == 1
    assert f"config error: unrecognized arguments: {flag} 4" in capsys.readouterr().err
    assert not out.exists()


def assert_a_bundle_with_old_fields_labels_byte_identically(workspace, tmp_path, **old_fields):
    data, model, _ = workspace
    header, (rec,) = records.read_record_file(model / "quantizer.jsonl")
    old = tmp_path / "old_quantizer.jsonl"
    records.write_record_file(old, header, [{**rec, **old_fields}])
    inputs = ("--target", data / "target.jsonl", "--transitions", model / "transitions.jsonl")
    fresh, edited = tmp_path / "fresh", tmp_path / "edited"
    assert run("label", *inputs, "--quantizer", model / "quantizer.jsonl", "--out-dir", fresh) == 0
    assert run("label", *inputs, "--quantizer", old, "--out-dir", edited) == 0
    for name in ("labels.jsonl", "selected.jsonl", "alignment_report.tsv"):
        assert (fresh / name).read_bytes() == (edited / name).read_bytes(), name


def test_label_reads_a_bundle_with_the_removed_projection_fields_byte_identically(workspace, tmp_path):
    # how a bundle written before the projection was removed records an unprojected fit
    assert_a_bundle_with_old_fields_labels_byte_identically(workspace, tmp_path, embed_d_dim=None, projection_seed=0)


def test_label_reads_a_bundle_that_records_the_znorm_embedding_byte_identically(workspace, tmp_path):
    # how a bundle written before the embed_mode field was removed records the standardization
    assert_a_bundle_with_old_fields_labels_byte_identically(workspace, tmp_path, embed_mode="znorm")


def label_an_edited_bundle(workspace, tmp_path, **edits):
    """Fit 16-sample patches, apply edits to the bundle record, label an absent target: the exit code."""
    data, model, out = workspace
    assert run("fit", "--source", data / "source.jsonl", "--out-dir", model,
               "--n-coarse", 4, "--n-fine", 8, "--patch-length", 16) == 0
    header, (rec,) = records.read_record_file(model / "quantizer.jsonl")
    records.write_record_file(model / "quantizer.jsonl", header, [{**rec, **edits}])
    return run("label", "--target", tmp_path / "absent.jsonl", "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl", "--out-dir", out)


def test_label_refuses_a_bundle_that_projects_up_before_reading_the_target(workspace, tmp_path, capsys):
    # a 16-wide codebook that claims to project 8-sample patches
    assert label_an_edited_bundle(workspace, tmp_path, patch_length=8) == 2
    err = capsys.readouterr().err
    assert "data error:" in err and "quantizer codebook width 16 differs from its patch_length 8" in err
    assert not workspace[2].exists()


def test_label_refuses_a_bundle_whose_codebook_width_is_not_its_patch_length_before_reading_the_target(
    workspace, tmp_path, capsys
):
    # what a bundle fit with a projection from 32-sample patches to 16 dimensions recorded
    assert label_an_edited_bundle(workspace, tmp_path, patch_length=32, embed_d_dim=16, projection_seed=2) == 2
    err = capsys.readouterr().err
    assert "data error:" in err and "quantizer codebook width 16 differs from its patch_length 32" in err
    assert not workspace[2].exists()


def test_label_refuses_a_bundle_of_the_removed_raw_embedding_before_reading_the_target(workspace, tmp_path, capsys):
    assert label_an_edited_bundle(workspace, tmp_path, embed_mode="raw") == 2
    err = capsys.readouterr().err
    assert "data error:" in err and "quantizer embed_mode 'raw' is not 'znorm', the only embedding" in err
    assert not workspace[2].exists()


def test_label_refuses_a_tau_whose_prior_term_overflows_before_reading_the_target(workspace, monkeypatch, capsys):
    data, model, out = workspace
    monkeypatch.setattr(ds, "load_corpus", never_called)
    assert run("label", "--target", data / "target.jsonl", "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl", "--out-dir", out, "--tau", "1e-310") == 1
    assert "config error: tau = 1e-310 is too small" in capsys.readouterr().err
    assert not out.exists()


def test_label_refuses_an_epsilon_whose_smoothing_overflows_before_reading_the_target(workspace, tmp_path, capsys):
    data, model, out = workspace
    assert run("label", "--target", tmp_path / "absent.jsonl", "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl", "--out-dir", out, "--epsilon", "1e308") == 1
    assert "config error: epsilon = 1e+308 is too large" in capsys.readouterr().err
    assert not out.exists()


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
                                    "synth": {"n_classes": 2, "shift_scale": 2, "noise": [0, 0.5, 1]}}))
    data, model, out = tmp_path / "d", tmp_path / "m", tmp_path / "o"
    assert run("synth", "--out-dir", data, *SMALL_SYNTH, "--config", cfg_path) == 0
    line = (data / "source.jsonl").read_text().splitlines()[0]
    for text in ('"shift_scale":2.0', '"noise":[0.0,0.5,1.0]'):
        assert text in line
    # the run fields are echoed by label, the stage that reads them
    assert run("fit", "--source", data / "source.jsonl", "--out-dir", model,
               "--n-coarse", 4, "--n-fine", 8, "--config", cfg_path) == 0
    assert run("label", "--target", data / "target.jsonl", "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl", "--out-dir", out, "--config", cfg_path) == 0
    line = (out / "labels.jsonl").read_text().splitlines()[0]
    for text in ('"tau":2,', '"use_ca":false', '"prior":[1.0,0.0]'):
        assert text in line


def test_synth_echoes_no_run_field_and_its_resolved_patch_length(tmp_path):
    out = tmp_path / "d"
    assert run(*synth_args(out), "--tau", 5, "--n-coarse", 99, "--patch-length", 16,
               "--corrupt-channel", 1, "--corrupt-magnitudes", "0.5") == 0
    names = ["source.jsonl", "target.jsonl", "target_truth.jsonl", "target_corrupt_0.jsonl"]
    assert sorted(path.name for path in out.iterdir()) == sorted(names)
    for name in names:
        header, _ = records.read_record_file(out / name)
        assert header["config"]["run"] == {}
        assert header["config"]["synth"]["patch_length"] == 16


def test_label_echoes_only_the_run_fields_it_reads(workspace):
    data, model, out = workspace
    # the bundles decide n_coarse and patch_length; label reads neither flag
    assert run("label", "--target", data / "target.jsonl", "--quantizer", model / "quantizer.jsonl",
               "--transitions", model / "transitions.jsonl", "--out-dir", out,
               "--n-coarse", 16, "--patch-length", 32, "--tau", 3) == 0
    want = {"epsilon": 1e-8, "sigma": 0.2, "tau": 3.0, "r_top": 0.5, "use_ca": True, "prior": "uniform"}
    for name in ("labels.jsonl", "selected.jsonl"):
        header, _ = records.read_record_file(out / name)
        assert header["config"]["run"] == want
    first = (out / "alignment_report.tsv").read_text().splitlines()[0]
    assert json.loads(first.removeprefix("# config "))["run"] == want


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
    assert [len(OPTIONS[n]) for n in ("synth", "fit", "label", "eval")] == [34, 15, 17, 17]


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


def test_label_runs_without_importing_numpy_ma(workspace):
    # np.unique(..., axis=0) imports numpy.ma on its first call, which costs label tens of ms;
    # numpy.random would cost it 5 MB of RSS
    data, model, out = workspace
    argv = ["label", "--target", data / "target.jsonl", "--quantizer", model / "quantizer.jsonl",
            "--transitions", model / "transitions.jsonl", "--out-dir", out]
    script = (
        "import sys; from codechain import cli; "
        f"code = cli.main({[str(a) for a in argv]!r}); "
        "print(code, 'numpy.ma' in sys.modules, 'numpy.random' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False"


def test_fit_runs_without_importing_numpy_ma(workspace, tmp_path):
    # Lloyd draws its initial codewords at np.unique's ranks without calling np.unique(..., axis=0),
    # and from its own PCG64, since numpy.random would cost fit 5 MB of RSS
    data, _, _ = workspace
    argv = ["fit", "--source", data / "source.jsonl", "--out-dir", tmp_path / "refit"]
    script = (
        "import sys; from codechain import cli; "
        f"code = cli.main({[str(a) for a in argv]!r}); "
        "print(code, 'numpy.ma' in sys.modules, 'numpy.random' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False"


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

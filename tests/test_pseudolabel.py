"""Posteriors, weighted aggregation, labeling, and confident selection."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from codechain import dataset as ds
from codechain import markov, pseudolabel, records, rvq, synth
from codechain.errors import ConfigError, DataError
from oracles import log_likelihood


def disjoint_regimes():
    """Two classes on one channel with non-overlapping primitive use."""
    regimes = np.zeros((2, 1, 4, 4))
    regimes[0, 0] = 0.0
    regimes[0, 0, :, 0] = 0.0
    # class 0 alternates up/down ramps, class 1 stays on the sine
    regimes[0, 0, 0, 1] = 1.0
    regimes[0, 0, 1, 0] = 1.0
    regimes[0, 0, 2, 0] = 1.0
    regimes[0, 0, 3, 0] = 1.0
    regimes[1, 0, :, 3] = 1.0
    return regimes


@pytest.fixture(scope="module")
def fitted():
    cfg = synth.SynthConfig(
        n_classes=2,
        n_channels=1,
        length=64,
        patch_length=8,
        class_regimes=disjoint_regimes(),
        n_source=40,
        n_target=10,
        base_noise=0.01,
        curvature_jitter=0.0,
        phase_jitter=0.0,
        seed=3,
    )
    source, _ = synth.generate(cfg)
    latents = rvq.embed(ds.patchify(source.values, 8))
    fit = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=3, n_fine=4, max_iters=50, seed=0)
    codes, _ = rvq.encode(fit.quantizer, latents)
    class_tm = markov.smooth(markov.build_class_tm(codes, source.labels, 2, 3), 1e-8)
    return source, fit.quantizer, class_tm


def coarse_codes(quantizer, dataset, patch_length=8):
    codes, _ = rvq.encode(quantizer, rvq.embed(ds.patchify(dataset.values, patch_length)), fine=False)
    return codes


def uniform(n_classes, tau=1.0):
    """The log prior of the uniform class prior."""
    return pseudolabel.log_prior(np.full(n_classes, 1.0 / n_classes), tau)


# ---------------------------------------------------------------- prior

def test_prior_floors_and_renormalizes():
    probs = np.exp(pseudolabel.log_prior(np.array([1.0, 0.0]), 1.0))
    assert np.all(probs > 0)
    assert_allclose(probs.sum(), 1.0, atol=1e-12)


def test_prior_rejects_bad_tau():
    with pytest.raises(ConfigError):
        pseudolabel.log_prior(np.array([0.5, 0.5]), 0.0)


def test_uniform_prior():
    prior = uniform(4, tau=2.0)
    assert_allclose(np.exp(2.0 * prior), 0.25, atol=1e-15)
    assert_allclose(prior, np.log(0.25) / 2.0, atol=1e-15)


@pytest.mark.parametrize(
    "probs",
    [[1.0], [0.6, 0.6], [1.2, -0.2], [0.5, np.nan], [0.5, np.inf], [[0.5, 0.5]]],
    ids=["one-entry", "sum-above-1", "negative", "nan", "inf", "2-D"],
)
def test_log_prior_rejects_a_bad_prior_as_a_config_error(probs):
    with pytest.raises(ConfigError):
        pseudolabel.log_prior(probs, 1.0)


def test_log_prior_takes_the_floored_log_scaled_by_tau():
    prior = pseudolabel.log_prior([0.75, 0.25, 0.0], 0.5)
    p = np.maximum(np.array([0.75, 0.25, 0.0]), 1e-12)
    assert_array_equal(prior, np.log(p / p.sum()) / 0.5)


# ---------------------------------------------------------------- posterior

def test_posterior_symmetry():
    prior = uniform(3)
    post = pseudolabel.channel_posterior(np.array([-1.2, -1.2, -1.2]), prior)
    assert_allclose(post, 1.0 / 3.0, atol=1e-15)


def test_posterior_bayes_evaluation():
    prior = uniform(2)
    post = pseudolabel.channel_posterior(np.log(np.array([0.9, 0.1])), prior)
    assert_allclose(post, [0.9, 0.1], atol=1e-12)


def test_posterior_small_tau_follows_prior():
    prior = pseudolabel.log_prior(np.array([0.9, 0.1]), 0.001)
    post = pseudolabel.channel_posterior(np.log(np.array([0.01, 0.99])), prior)
    assert int(np.argmax(post)) == 0


def test_posterior_uniform_prior_tau_cancels():
    logliks = np.array([-3.0, -1.5, -2.2])
    a = pseudolabel.channel_posterior(logliks, uniform(3, tau=1.0))
    b = pseudolabel.channel_posterior(logliks, uniform(3, tau=7.0))
    assert_allclose(a, b, atol=1e-12)


def test_posterior_stable_at_extreme_logliks():
    prior = uniform(2)
    post = pseudolabel.channel_posterior(np.array([-1e6, -1e6 + 1]), prior)
    assert np.all(np.isfinite(post))
    assert_allclose(post.sum(), 1.0, atol=1e-9)


def test_posterior_monotone_in_prior():
    rng = np.random.default_rng(41)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        logliks = rng.uniform(-5, 0, size=k)
        base = rng.dirichlet(np.ones(k))
        target = int(rng.integers(0, k))
        boosted = base.copy()
        boosted[target] *= 3.0
        boosted /= boosted.sum()
        post_base = pseudolabel.channel_posterior(logliks, pseudolabel.log_prior(base, 1.0))
        post_boost = pseudolabel.channel_posterior(logliks, pseudolabel.log_prior(boosted, 1.0))
        assert post_boost[target] >= post_base[target] - 1e-12


# ---------------------------------------------------------------- aggregate

def test_aggregate_single_channel_identity():
    post = np.array([[0.3, 0.7]])
    out = pseudolabel.aggregate(post[None], np.array([1.0]))
    assert_allclose(out.scores[0], [0.3, 0.7], atol=0)
    assert out.label[0] == 1
    assert out.confidence[0] == 0.7


def test_aggregate_hand_values():
    post = np.array([[0.8, 0.2], [0.6, 0.4]])
    out = pseudolabel.aggregate(post[None], np.array([1.0, 1.0]))
    assert_allclose(out.scores[0], [0.7, 0.3], atol=1e-15)
    assert out.label[0] == 0


def test_aggregate_zero_weight_drops_channel():
    post = np.array([[0.8, 0.2], [0.6, 0.4]])
    out = pseudolabel.aggregate(post[None], np.array([1.0, 0.0]))
    assert_allclose(out.scores[0], [0.4, 0.1], atol=1e-15)
    assert out.label[0] == 0


def test_aggregate_tie_breaks_low():
    post = np.array([[0.5, 0.5]])
    out = pseudolabel.aggregate(post[None], np.array([1.0]))
    assert out.label[0] == 0


def test_aggregate_argmax_invariant_to_weight_scale():
    rng = np.random.default_rng(42)
    for _ in range(100):
        d, k = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        post = rng.dirichlet(np.ones(k), size=d)
        w = rng.uniform(0.05, 1.0, size=d)
        c = rng.uniform(0.1, 10.0)
        a = pseudolabel.aggregate(post[None], w)
        b = pseudolabel.aggregate(post[None], c * w)
        assert a.label[0] == b.label[0]
        assert_allclose(b.scores[0], c * a.scores[0], rtol=1e-12)


# ---------------------------------------------------------------- labeling

def test_label_recovers_source_classes(fitted):
    source, quantizer, class_tm = fitted
    target = ds.strip_labels(source)
    labels = pseudolabel.label_dataset(
        target,
        coarse_codes(quantizer, target),
        class_tm,
        np.ones(1),
        uniform(2),
    )
    assert labels.label.tolist() == source.labels.tolist()
    assert_allclose(labels.per_channel_posteriors.sum(axis=2), 1.0, atol=1e-9)


def test_label_rejects_source_role(fitted):
    source, quantizer, class_tm = fitted
    with pytest.raises(DataError):
        pseudolabel.label_dataset(
            source,
            coarse_codes(quantizer, source),
            class_tm,
            np.ones(1),
            uniform(2),
        )


def test_label_rejects_unsmoothed_model(fitted):
    source, quantizer, _ = fitted
    latents = rvq.embed(ds.patchify(source.values, 8))
    codes, _ = rvq.encode(quantizer, latents)
    raw_tm = markov.build_class_tm(codes, source.labels, 2, 3)
    target = ds.strip_labels(source)
    with pytest.raises(DataError):
        pseudolabel.label_dataset(
            target,
            coarse_codes(quantizer, target),
            raw_tm,
            np.ones(1),
            uniform(2),
        )


def test_batched_posteriors_match_the_log_likelihood_oracle():
    cfg = synth.SynthConfig(n_source=80, n_target=40, target_regime_mix=0.3, noise=0.5, seed=6)
    source, target = synth.generate(cfg)
    latents = rvq.embed(ds.patchify(source.values, 8))
    fit = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=8, n_fine=16, max_iters=50, seed=0)
    model = markov.smooth(markov.build_class_tm(fit.coarse_idx, source.labels, 4, 8), 1e-8)
    prior = pseudolabel.log_prior(np.array([0.4, 0.3, 0.2, 0.1]), 0.7)
    weights = np.array([0.9, 0.5, 0.2])
    target = ds.strip_labels(target)
    codes = coarse_codes(fit.quantizer, target)
    labels = pseudolabel.label_dataset(target, codes, model, weights, prior)
    assert labels.ids.tolist() == target.ids.tolist()
    for n in range(len(target)):
        oracle = np.stack([
            pseudolabel.channel_posterior(
                np.array([log_likelihood(codes[n, d], model[k, d]) for k in range(4)]), prior
            )
            for d in range(3)
        ])
        assert_allclose(labels.per_channel_posteriors[n], oracle, rtol=0, atol=1e-12)
        assert_allclose(labels.scores[n], (weights[:, None] * oracle).sum(axis=0) / 3, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- selection

def fake_labels(confidences):
    scores = np.array([[c, 1.0 - c] for c in confidences]).reshape(-1, 2)
    return pseudolabel.PseudoLabels(
        ids=np.array([f"i{i}" for i in range(len(confidences))], dtype=str),
        label=np.argmax(scores, axis=1),
        confidence=scores.max(axis=1),
        scores=scores,
        per_channel_posteriors=scores[:, None, :],
    )


def test_top_r_picks_highest_confidence():
    labels = fake_labels([0.9, 0.6, 0.99, 0.7, 0.8, 0.65, 0.72, 0.88, 0.61, 0.95])
    chosen = pseudolabel.top_r_select(labels.confidence, 0.2)
    assert_array_equal(chosen, [2, 9])


def test_top_r_full_fraction_keeps_all():
    labels = fake_labels([0.9, 0.6, 0.7])
    assert_array_equal(pseudolabel.top_r_select(labels.confidence, 1.0), [0, 1, 2])


def test_top_r_rounds_up():
    labels = fake_labels([0.9, 0.8, 0.7, 0.6, 0.95])
    assert len(pseudolabel.top_r_select(labels.confidence, 0.5)) == 3


def test_top_r_exact_product_not_inflated():
    labels = fake_labels([0.9] * 10)
    assert len(pseudolabel.top_r_select(labels.confidence, 0.2)) == 2


def test_top_r_ties_prefer_lower_index():
    labels = fake_labels([0.9, 0.9, 0.9, 0.9])
    assert_array_equal(pseudolabel.top_r_select(labels.confidence, 0.5), [0, 1])


def test_top_r_validates_fraction():
    labels = fake_labels([0.9, 0.8])
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ConfigError):
            pseudolabel.top_r_select(labels.confidence, bad)
    with pytest.raises(DataError):
        pseudolabel.top_r_select(np.array([]), 0.5)


# ---------------------------------------------------------------- io

def test_labels_round_trip(tmp_path):
    labels = fake_labels([0.9, 0.6, 0.75])
    path = tmp_path / "labels.jsonl"
    pseudolabel.save_labels(path, labels, np.array([0.8]))
    back, header = pseudolabel.load_labels(path)
    assert back.label.tolist() == labels.label.tolist()
    for n in range(len(labels.ids)):
        assert back.scores[n].tobytes() == labels.scores[n].tobytes()
        assert back.per_channel_posteriors[n].tobytes() == labels.per_channel_posteriors[n].tobytes()
    assert header["channel_weights"] == [0.8]


def test_selection_round_trip(tmp_path):
    labels = fake_labels([0.9, 0.6, 0.75, 0.95])
    chosen = pseudolabel.top_r_select(labels.confidence, 0.5)
    path = tmp_path / "sel.jsonl"
    pseudolabel.save_selection(path, labels, chosen, 0.5)
    rows, header = pseudolabel.load_selection(path)
    assert [r["index"] for r in rows] == list(chosen)
    assert [r["id"] for r in rows] == ["i0", "i3"]
    assert header["r_top"] == 0.5


def saved_labels_with(tmp_path, key, value):
    """A two-record labels file whose second record has rec[key] = value."""
    path = tmp_path / "labels.jsonl"
    pseudolabel.save_labels(path, fake_labels([0.9, 0.6]), np.ones(1))
    header, recs = records.read_record_file(path)
    recs = list(recs)
    recs[1][key] = value
    records.write_record_file(path, header, recs)
    return path


@pytest.mark.parametrize(
    "key, value",
    [
        ("label", 2.7),
        ("label", 1.0),
        ("label", True),
        ("label", "1"),
        ("label", -1),
        ("label", None),
        ("confidence", True),
        ("confidence", "0.9"),
        ("confidence", None),
        ("confidence", [0.9]),
    ],
)
def test_load_labels_rejects_a_label_or_confidence_of_the_wrong_kind(tmp_path, key, value):
    path = saved_labels_with(tmp_path, key, value)
    with pytest.raises(DataError, match=f"pseudo-label {key} "):
        pseudolabel.load_labels(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("scores", ["1.5", True]),
        ("scores", [0.5, None]),
        ("scores", 0.5),
        ("per_channel_posteriors", [[False, "0.25"]]),
        ("per_channel_posteriors", [[0.5, 0.5], [0.5]]),
        ("per_channel_posteriors", [0.5, 0.5]),
    ],
)
def test_load_labels_rejects_scores_that_are_not_json_numbers(tmp_path, key, value):
    path = saved_labels_with(tmp_path, key, value)
    with pytest.raises(DataError, match="pseudo-label scores"):
        pseudolabel.load_labels(path)


@pytest.mark.parametrize(
    "key, value",
    [("scores", [0.5, 0.3, 0.2]), ("per_channel_posteriors", [[0.6, 0.4], [0.6, 0.4]])],
)
def test_load_labels_rejects_scores_whose_shape_differs_between_records(tmp_path, key, value):
    path = saved_labels_with(tmp_path, key, value)
    with pytest.raises(DataError, match="pseudo-label scores differ in shape"):
        pseudolabel.load_labels(path)


@pytest.mark.parametrize("value", [7, True, None, "", ["i1"]])
def test_load_labels_rejects_an_id_that_is_not_a_string(tmp_path, value):
    path = saved_labels_with(tmp_path, "id", value)
    with pytest.raises(DataError, match="pseudo-label id .* is not a non-empty string"):
        pseudolabel.load_labels(path)


@pytest.mark.parametrize("value", ["i1\u0000", "\u0000"])
def test_load_labels_keeps_an_id_as_written(tmp_path, value):
    back, _ = pseudolabel.load_labels(saved_labels_with(tmp_path, "id", value))
    assert back.ids.tolist() == ["i0", value]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_load_labels_rejects_a_non_finite_confidence(tmp_path, token):
    path = saved_labels_with(tmp_path, "confidence", 0.25)
    path.write_text(path.read_text().replace('"confidence":0.25', f'"confidence":{token}'))
    with pytest.raises(DataError, match="is not a finite number"):
        pseudolabel.load_labels(path)


def test_load_labels_reads_an_integer_confidence(tmp_path):
    back, _ = pseudolabel.load_labels(saved_labels_with(tmp_path, "confidence", 1))
    assert back.confidence[1] == 1.0 and back.confidence.dtype == np.float64


@pytest.mark.parametrize("index", [1.0, 2.7, True, "0", -1, None])
def test_load_selection_rejects_an_index_that_is_not_a_non_negative_integer(tmp_path, index):
    path = tmp_path / "sel.jsonl"
    records.write_record_file(
        path, {"kind": "selection", "r_top": 0.5, "n_selected": 2},
        [{"index": 0, "id": "i0"}, {"index": index, "id": "i1"}],
    )
    with pytest.raises(DataError, match="selection index .* is not a non-negative integer"):
        pseudolabel.load_selection(path)

"""Posteriors, the weighted vote, labeling, and confident selection."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from codechain import dataset as ds
from codechain import markov, pseudolabel, records, rvq, synth
from codechain.errors import ConfigError, DataError
from oracles import log_likelihood, softmax


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
    latents = rvq._znorm(ds.patchify(source.values, 8))
    fit = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=3, n_fine=4, max_iters=50, seed=0)
    codes, _ = rvq.encode(fit.quantizer, latents)
    class_tm = markov.smooth(markov.build_class_tm(codes, source.labels, 2, 3), 1e-8)
    return source, fit.quantizer, class_tm


def coarse_codes(quantizer, dataset, patch_length=8):
    codes, _ = rvq.encode(quantizer, rvq._znorm(ds.patchify(dataset.values, patch_length)), fine=False)
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


@pytest.mark.parametrize("probs", [[0.25] * 4, [1.0, 0.0]], ids=["uniform", "floored"])
def test_log_prior_refuses_a_tau_whose_terms_overflow_without_a_warning(probs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="tau = 1e-310 is too small"):
            pseudolabel.log_prior(probs, 1e-310)


def test_log_prior_takes_the_floored_log_scaled_by_tau():
    prior = pseudolabel.log_prior([0.75, 0.25, 0.0], 0.5)
    p = np.maximum(np.array([0.75, 0.25, 0.0]), 1e-12)
    assert_array_equal(prior, np.log(p / p.sum()) / 0.5)


# ---------------------------------------------------------------- posterior

def vote_inputs(probs, weights=None, prior=None):
    """label_dataset's arguments for a chosen (N, D, K) array of transition probabilities.

    Channel d of instance n is the code sequence [n, n]: its one
    transition n -> n has probability probs[n, d, k] under class k, so
    its log-likelihood is ln(probs[n, d, k]) / 2. Every other transition
    has probability 1. weights default to 1 and the prior to uniform.
    """
    probs = np.asarray(probs, dtype=np.float64)
    n, d, k = probs.shape
    model = np.ones((k, d, n, n))
    model[:, :, np.arange(n), np.arange(n)] = probs.transpose(2, 1, 0)
    codes = np.repeat(np.arange(n), 2 * d).reshape(n, d, 2)
    weights = np.ones(d) if weights is None else weights
    prior = uniform(k) if prior is None else prior
    return codes, model, weights, prior, [f"i{i}" for i in range(n)]


def vote(probs, weights=None, prior=None):
    """label_dataset on vote_inputs(probs, weights, prior)."""
    return pseudolabel.label_dataset(*vote_inputs(probs, weights, prior))


def posteriors(probs, prior=None):
    """The (N, D, K) channel posteriors that vote(probs, prior=prior) weighs."""
    codes, model, _, prior, _ = vote_inputs(probs, prior=prior)
    return pseudolabel._posteriors(codes, model, prior)


def test_posterior_symmetry():
    post = posteriors([[[0.3, 0.3, 0.3]]], prior=uniform(3))
    assert_allclose(post, 1.0 / 3.0, atol=1e-15)


def test_posterior_bayes_evaluation():
    # log-likelihoods ln(0.9) and ln(0.1): a uniform prior leaves them as they are
    post = posteriors([[[0.81, 0.01]]])
    assert_allclose(post[0, 0], [0.9, 0.1], atol=1e-12)


def test_posterior_small_tau_follows_prior():
    prior = pseudolabel.log_prior(np.array([0.9, 0.1]), 0.001)
    post = posteriors([[[0.01**2, 0.99**2]]], prior=prior)
    assert int(np.argmax(post[0, 0])) == 0


def test_posterior_uniform_prior_tau_cancels():
    probs = np.exp(2.0 * np.array([[[-3.0, -1.5, -2.2]]]))
    a = posteriors(probs, prior=uniform(3, tau=1.0))
    b = posteriors(probs, prior=uniform(3, tau=7.0))
    assert_allclose(a, b, atol=1e-12)


def test_posterior_stable_at_extreme_logliks():
    # each logit is near -1040, so exp without the max shift underflows to 0 / 0
    probs = np.array([[[1e-304, 1e-303]]])
    post = posteriors(probs, prior=uniform(2, tau=1e-3))
    assert np.all(np.isfinite(post))
    assert_allclose(post.sum(), 1.0, atol=1e-9)
    assert_allclose(post[0, 0], softmax(np.log(probs[0, 0]) / 2), rtol=0, atol=1e-12)


def test_posterior_monotone_in_prior():
    rng = np.random.default_rng(41)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        probs = np.exp(2.0 * rng.uniform(-5, 0, size=(1, 1, k)))
        base = rng.dirichlet(np.ones(k))
        target = int(rng.integers(0, k))
        boosted = base.copy()
        boosted[target] *= 3.0
        boosted /= boosted.sum()
        post_base = posteriors(probs, prior=pseudolabel.log_prior(base, 1.0))
        post_boost = posteriors(probs, prior=pseudolabel.log_prior(boosted, 1.0))
        assert post_boost[0, 0, target] >= post_base[0, 0, target] - 1e-12


# ---------------------------------------------------------------- vote

def test_vote_single_channel_identity():
    out = vote([[[0.09, 0.49]]], np.array([1.0]))
    assert_array_equal(out.scores, posteriors([[[0.09, 0.49]]])[:, 0])
    assert_allclose(out.scores[0], [0.3, 0.7], atol=1e-15)
    assert out.label[0] == 1
    assert out.confidence[0] == out.scores[0, 1]


def test_vote_hand_values():
    out = vote([[[0.64, 0.04], [0.36, 0.16]]], np.array([1.0, 1.0]))
    post = posteriors([[[0.64, 0.04], [0.36, 0.16]]])
    assert_array_equal(out.scores, (post[:, 0] + post[:, 1]) / 2)
    assert_allclose(out.scores[0], [0.7, 0.3], atol=1e-15)
    assert out.label[0] == 0


def test_vote_zero_weight_drops_channel():
    out = vote([[[0.64, 0.04], [0.36, 0.16]]], np.array([1.0, 0.0]))
    assert_array_equal(out.scores, posteriors([[[0.64, 0.04], [0.36, 0.16]]])[:, 0] / 2)
    assert_allclose(out.scores[0], [0.4, 0.1], atol=1e-15)
    assert out.label[0] == 0


def test_vote_tie_breaks_low():
    out = vote([[[0.25, 0.25]]], np.array([1.0]))
    assert_array_equal(out.scores[0], [0.5, 0.5])
    assert out.label[0] == 0


def test_vote_argmax_invariant_to_weight_scale():
    rng = np.random.default_rng(42)
    for _ in range(100):
        d, k = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(k), size=(1, d))
        w = rng.uniform(0.05, 1.0, size=d)
        c = rng.uniform(0.1, 10.0)
        a = vote(probs, w)
        b = vote(probs, c * w)
        assert a.label[0] == b.label[0]
        assert_allclose(b.scores[0], c * a.scores[0], rtol=1e-12)


# ---------------------------------------------------------------- labeling

def test_label_recovers_source_classes(fitted):
    source, quantizer, class_tm = fitted
    codes = coarse_codes(quantizer, source)
    labels = pseudolabel.label_dataset(codes, class_tm, np.ones(1), uniform(2), source.ids)
    assert labels.label.tolist() == source.labels.tolist()
    assert labels.ids.tolist() == source.ids.tolist()
    assert_allclose(pseudolabel._posteriors(codes, class_tm, uniform(2)).sum(axis=2), 1.0, atol=1e-9)


def test_label_rejects_unsmoothed_model(fitted):
    source, quantizer, _ = fitted
    latents = rvq._znorm(ds.patchify(source.values, 8))
    codes, _ = rvq.encode(quantizer, latents)
    raw_tm = markov.build_class_tm(codes, source.labels, 2, 3)
    with pytest.raises(DataError, match="smooth it first"):
        pseudolabel.label_dataset(
            coarse_codes(quantizer, source), raw_tm, np.ones(1), uniform(2), source.ids
        )


@pytest.mark.parametrize("cell", [(1, 0, 1, 1), (0, 0, 0, 1)], ids=["on-a-transition", "off-every-transition"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_label_rejects_a_model_holding_inf_or_nan(cell, value):
    codes = np.array([[[1, 1, 1]]])
    model = np.full((2, 1, 2, 2), 0.5)
    model[cell] = value
    with pytest.raises(DataError, match="model must be finite"):
        pseudolabel.label_dataset(codes, model, np.ones(1), uniform(2), ["i0"])


@pytest.mark.parametrize(
    "change, message",
    [
        ({"prior": uniform(3)}, "model and prior disagree on the class count"),
        ({"prior": uniform(2)[:, None]}, "model and prior disagree on the class count"),
        ({"model": np.full((2, 2, 2), 0.5)}, "model and prior disagree on the class count"),
        ({"codes": np.zeros((1, 3), dtype=int)}, r"codes of shape \(1, 3\) are not"),
        ({"codes": np.zeros((1, 2, 3), dtype=int)}, r"codes of shape \(1, 2, 3\) are not"),
        ({"codes": np.zeros((1, 1, 1), dtype=int)}, r"codes of shape \(1, 1, 1\) are not"),
        ({"weights": np.ones(2)}, "2 weights do not match the 1 channels"),
        ({"ids": ["i0", "i1"]}, "2 ids do not match the 1 instances"),
        ({"codes": np.array([[[0, -1, 0]]])}, r"code out of range \[0, 2\)"),
        ({"codes": np.array([[[0, 2, 0]]])}, r"code out of range \[0, 2\)"),
    ],
    ids=["prior-3-classes", "prior-2-D", "model-3-D", "codes-2-D", "codes-2-channels", "codes-1-patch",
         "weights-2", "ids-2", "code-minus-1", "code-2-of-2"],
)
def test_label_refuses_inputs_that_disagree(change, message):
    args = {
        "codes": np.zeros((1, 1, 3), dtype=int), "model": np.full((2, 1, 2, 2), 0.5),
        "weights": np.ones(1), "prior": uniform(2), "ids": ["i0"],
    }
    with pytest.raises(DataError, match=message):
        pseudolabel.label_dataset(**{**args, **change})


def test_batched_posteriors_match_the_log_likelihood_oracle():
    cfg = synth.SynthConfig(n_source=80, n_target=40, target_regime_mix=0.3, noise=0.5, seed=6)
    source, target = synth.generate(cfg)
    latents = rvq._znorm(ds.patchify(source.values, 8))
    fit = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=8, n_fine=16, max_iters=50, seed=0)
    model = markov.smooth(markov.build_class_tm(fit.coarse_idx, source.labels, 4, 8), 1e-8)
    prior = pseudolabel.log_prior(np.array([0.4, 0.3, 0.2, 0.1]), 0.7)
    weights = np.array([0.9, 0.5, 0.2])
    codes = coarse_codes(fit.quantizer, target)
    labels = pseudolabel.label_dataset(codes, model, weights, prior, target.ids)
    post = pseudolabel._posteriors(codes, model, prior)
    assert labels.ids.tolist() == target.ids.tolist()
    for n in range(len(target)):
        oracle = np.stack([
            softmax(np.array([log_likelihood(codes[n, d], model[k, d]) for k in range(4)]) + prior)
            for d in range(3)
        ])
        assert_allclose(post[n], oracle, rtol=0, atol=1e-12)
        assert_allclose(labels.scores[n], (weights[:, None] * oracle).sum(axis=0) / 3, rtol=0, atol=1e-12)


def random_scoring_inputs(n, d, p, k, n_codes=8, seed=0):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, n_codes, size=(n, d, p))
    model = rng.dirichlet(np.ones(n_codes), size=(k, d, n_codes))
    prior = pseudolabel.log_prior(rng.dirichlet(np.ones(k)), 0.8)
    return codes, model, rng.uniform(0.1, 1.0, size=d), prior, [f"i{i}" for i in range(n)]


@pytest.mark.parametrize("n, d, p, k", [(50, 1, 2, 2), (40, 3, 3, 4), (30, 2, 17, 3), (20, 3, 40, 7), (1, 1, 129, 2)])
def test_step_by_step_scores_are_bitwise_the_gathered_sum_over_steps(n, d, p, k):
    codes, model, weights, prior, ids = random_scoring_inputs(n, d, p, k, seed=n * p + k)
    # the C library's log and exp, as label_dataset takes them
    log_probs = np.moveaxis(np.vectorize(math.log)(model), 0, -1)
    gathered = log_probs[np.arange(d)[None, :, None], codes[:, :, :-1], codes[:, :, 1:]]  # (n, d, p - 1, k)
    logits = gathered.sum(axis=2) / p + prior
    e = np.vectorize(math.exp)(logits - logits.max(axis=-1, keepdims=True))
    post = e / e.sum(axis=-1, keepdims=True)
    labels = pseudolabel.label_dataset(codes, model, weights, prior, ids)
    assert_array_equal(pseudolabel._posteriors(codes, model, prior), post)
    assert_array_equal(labels.scores, (weights[None, :, None] * post).sum(axis=1) / d)


def test_scoring_holds_no_gather_of_every_step():
    codes, model, weights, prior, ids = random_scoring_inputs(2000, 3, 16, 4)
    gather_bytes = 2000 * 3 * 15 * 4 * 8  # the (N, D, P - 1, K) float64 log-probabilities: 2.88 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        labels = pseudolabel.label_dataset(codes, model, weights, prior, ids)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert labels.scores.shape == (2000, 4)
    # a few (N, D, K) arrays: the running sum, one step's gather, the posteriors and their temporaries
    assert peak < gather_bytes


# ---------------------------------------------------------------- selection

def fake_labels(confidences):
    scores = np.array([[c, 1.0 - c] for c in confidences]).reshape(-1, 2)
    return pseudolabel.PseudoLabels(
        ids=np.array([f"i{i}" for i in range(len(confidences))], dtype=str),
        label=np.argmax(scores, axis=1),
        confidence=scores.max(axis=1),
        scores=scores,
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
    assert header["channel_weights"] == [0.8]


def test_a_label_record_holds_id_label_confidence_and_scores_only(tmp_path):
    path = tmp_path / "labels.jsonl"
    pseudolabel.save_labels(path, vote([[[0.64, 0.04], [0.36, 0.16]], [[0.2, 0.3], [0.1, 0.5]]]), np.ones(2))
    _, recs = records.read_record_file(path)
    for rec in recs:
        assert sorted(rec) == ["confidence", "id", "label", "scores"]


def with_channel_posteriors(path, value=lambda rec: [rec["scores"]]):
    """Rewrite a labels file as older builds wrote it, each record with per_channel_posteriors."""
    header, recs = records.read_record_file(path)
    records.write_record_file(path, header, [{**rec, "per_channel_posteriors": value(rec)} for rec in recs])
    return path


@pytest.mark.parametrize(
    "value",
    [lambda rec: [rec["scores"]], lambda rec: [[False, "0.25"]]],
    ids=["a-matrix", "not-numbers"],
)
def test_load_labels_ignores_the_channel_posteriors_of_an_older_file(tmp_path, value):
    labels = vote([[[0.64, 0.04], [0.36, 0.16]], [[0.2, 0.3], [0.1, 0.5]]])
    new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
    pseudolabel.save_labels(new, labels, np.ones(2))
    pseudolabel.save_labels(old, labels, np.ones(2))
    back, header = pseudolabel.load_labels(with_channel_posteriors(old, value))
    want, want_header = pseudolabel.load_labels(new)
    assert header == want_header
    for field, got in zip(back._fields, back):
        assert got.tolist() == getattr(want, field).tolist(), field


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("label", True, "pseudo-label label True is not a non-negative integer"),
        ("confidence", "0.9", "pseudo-label confidence '0.9' is not"),
        ("scores", [0.5, None], "pseudo-label scores"),
        ("scores", [0.5, 0.3, 0.2], "pseudo-label scores differ in shape"),
        ("id", "i0", "duplicate pseudo-label id 'i0'"),
    ],
)
def test_an_older_file_is_refused_for_the_same_reasons(tmp_path, key, value, message):
    path = with_channel_posteriors(saved_labels_with(tmp_path, key, value))
    with pytest.raises(DataError, match=message):
        pseudolabel.load_labels(path)


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
    ],
)
def test_load_labels_rejects_scores_that_are_not_json_numbers(tmp_path, key, value):
    path = saved_labels_with(tmp_path, key, value)
    with pytest.raises(DataError, match="pseudo-label scores"):
        pseudolabel.load_labels(path)


@pytest.mark.parametrize("key, value", [("scores", [0.5, 0.3, 0.2])])
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


def test_load_labels_rejects_a_repeated_id(tmp_path):
    with pytest.raises(DataError, match="duplicate pseudo-label id 'i0'"):
        pseudolabel.load_labels(saved_labels_with(tmp_path, "id", "i0"))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_load_labels_rejects_a_non_finite_confidence(tmp_path, token):
    path = saved_labels_with(tmp_path, "confidence", 0.25)
    path.write_text(path.read_text().replace('"confidence":0.25', f'"confidence":{token}'))
    with pytest.raises(DataError, match="is not a finite number"):
        pseudolabel.load_labels(path)


def test_load_labels_rejects_a_file_of_no_records(tmp_path):
    path = tmp_path / "labels.jsonl"
    pseudolabel.save_labels(path, fake_labels([]), np.ones(1))
    with pytest.raises(DataError, match="label file holds no records"):
        pseudolabel.load_labels(path)


def test_load_labels_reads_an_integer_confidence(tmp_path):
    back, _ = pseudolabel.load_labels(saved_labels_with(tmp_path, "confidence", 1))
    assert back.confidence[1] == 1.0 and back.confidence.dtype == np.float64


def with_header(path, key, value):
    """Rewrite a record file with header[key] = value; a value of ``...`` drops the key."""
    header, recs = records.read_record_file(path)
    header = {k: v for k, v in {**header, key: value}.items() if v is not ...}
    records.write_record_file(path, header, list(recs))
    return path


@pytest.mark.parametrize("count", [..., True, 0], ids=["missing", "bool", "zero"])
@pytest.mark.parametrize("key", ["n_instances", "n_classes"])
def test_load_labels_requires_positive_integer_header_counts(tmp_path, key, count):
    path = tmp_path / "labels.jsonl"
    pseudolabel.save_labels(path, fake_labels([0.9, 0.6]), np.ones(1))
    shown = None if count is ... else count
    with pytest.raises(DataError, match=f"pseudo_labels header {key} {shown!r} is not a positive integer"):
        pseudolabel.load_labels(with_header(path, key, count))


def test_an_older_file_is_refused_for_a_header_count_it_does_not_hold(tmp_path):
    path = tmp_path / "labels.jsonl"
    pseudolabel.save_labels(path, fake_labels([0.9, 0.6]), np.ones(1))
    with pytest.raises(DataError, match="pseudo_labels header n_instances is 3, the file holds 2 records"):
        pseudolabel.load_labels(with_header(with_channel_posteriors(path), "n_instances", 3))


@pytest.mark.parametrize("count", [..., True, 0], ids=["missing", "bool", "zero"])
def test_load_selection_requires_a_positive_integer_header_count(tmp_path, count):
    labels = fake_labels([0.9, 0.6, 0.75, 0.95])
    path = tmp_path / "sel.jsonl"
    pseudolabel.save_selection(path, labels, np.array([0, 3]), 0.5)
    shown = None if count is ... else count
    with pytest.raises(DataError, match=f"selection header n_selected {shown!r} is not a positive integer"):
        pseudolabel.load_selection(with_header(path, "n_selected", count))


@pytest.mark.parametrize("index", [1.0, 2.7, True, "0", -1, None])
def test_load_selection_rejects_an_index_that_is_not_a_non_negative_integer(tmp_path, index):
    path = tmp_path / "sel.jsonl"
    records.write_record_file(
        path, {"kind": "selection", "r_top": 0.5, "n_selected": 2},
        [{"index": 0, "id": "i0"}, {"index": index, "id": "i1"}],
    )
    with pytest.raises(DataError, match="selection index .* is not a non-negative integer"):
        pseudolabel.load_selection(path)


def test_load_selection_rejects_a_repeated_index(tmp_path):
    path = tmp_path / "sel.jsonl"
    records.write_record_file(
        path, {"kind": "selection", "r_top": 0.5, "n_selected": 2},
        [{"index": 1, "id": "i1"}, {"index": 1, "id": "i1"}],
    )
    with pytest.raises(DataError, match="duplicate selection index 1"):
        pseudolabel.load_selection(path)

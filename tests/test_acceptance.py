"""Acceptance suite: oracle agreement, trend reproduction, and invariants.

Each test covers one numbered criterion and finishes by printing a
single summary line with the measured values.
"""

import time
from collections import Counter

import numpy as np
from numpy.testing import assert_allclose, assert_array_equal

from codechain import cli, diagnostics, markov, pseudolabel, rvq, synth, transport
from codechain import dataset as ds
from oracles import pe_report
from test_pseudolabel import posteriors, vote
from test_transport import enumerate_emd


def report(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def embed_corpus(dataset, m=8):
    return rvq._znorm(ds.patchify(dataset.values, m))


def fit_source(source, n_coarse=8, n_fine=64, m=8, seed=0):
    latents = embed_corpus(source, m)
    fit = rvq.fit([rvq.CorpusLatents(latents)], n_coarse, n_fine, max_iters=50, seed=seed)
    codes, _ = rvq.encode(fit.quantizer, latents, fine=False)
    class_tm = markov.build_class_tm(codes, source.labels, source.n_classes, n_coarse)
    channel_src = markov.build_channel_tm(codes, n_coarse)
    return fit, codes, class_tm, channel_src


def label_target(target, quantizer, class_tm, channel_src, m=8, use_ca=True,
                 prior=None, tau=1.0, sigma=0.2, eps=1e-8):
    stripped = ds.strip_labels(target)
    codes_trg, _ = rvq.encode(quantizer, embed_corpus(stripped, m), fine=False)
    channel_trg = markov.build_channel_tm(codes_trg, len(quantizer.coarse))
    weights, _ = transport.channel_weights(
        markov.smooth(channel_src, eps),
        markov.smooth(channel_trg, eps),
        transport.cosine_cost(quantizer.coarse),
        sigma,
    )
    used = weights if use_ca else np.ones(target.n_channels)
    k = class_tm.shape[0]
    label_prior = pseudolabel.log_prior(np.full(k, 1.0 / k) if prior is None else prior, tau)
    labels = pseudolabel.label_dataset(
        codes_trg, markov.smooth(class_tm, eps), used, label_prior, stripped.ids
    )
    return labels, weights


def labeling_accuracy(labels, target):
    truth = target.labels
    pred = labels.label
    return diagnostics.accuracy_mf1(pred, truth, target.n_classes)


# ----------------------------------------------------------------------

def test_criterion_01_transition_counts_match_oracle():
    from test_markov import counter_oracle

    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        n_codes, n_classes, n_channels = int(rng.integers(2, 9)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        codes = rng.integers(0, n_codes, size=(int(rng.integers(1, 6)), n_channels, int(rng.integers(2, 65))))
        labels = rng.integers(0, n_classes, size=len(codes))
        tm = markov.build_class_tm(codes, labels, n_classes, n_codes)
        for k in range(n_classes):
            for d in range(n_channels):
                assert_array_equal(tm[k, d], counter_oracle(codes[labels == k, d], n_codes))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"200 sequence sets exact, {elapsed:.2f}s")


def test_criterion_02_transport_matches_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(500):
        n = int(rng.integers(2, 4))
        p = rng.dirichlet(np.ones(n) * rng.uniform(0.3, 3.0))
        q = rng.dirichlet(np.ones(n) * rng.uniform(0.3, 3.0))
        costs = transport.cosine_cost(rng.normal(size=(n, 4)))
        _, cost = transport.solve_emd(p, q, costs)
        assert abs(cost - enumerate_emd(p, q, costs)) < 1e-9
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(n) * 0.7)
        q = rng.dirichlet(np.ones(n) * 0.7)
        plan, _ = transport.solve_emd(p, q, transport.cosine_cost(rng.normal(size=(n, 4))))
        assert_allclose(plan.sum(axis=1), p, atol=1e-9)
        assert_allclose(plan.sum(axis=0), q, atol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"500 enumerated solves within 1e-9, {elapsed:.2f}s")


def test_criterion_03_noise_ladder_degrades_corrupted_channel_rank():
    start = time.perf_counter()
    magnitudes = [0.0, 0.75, 1.5, 2.5, 4.0]
    monotone = 0
    strict = 0
    n_seeds = 10
    for seed in range(n_seeds):
        cfg = synth.SynthConfig(
            n_source=200,
            n_target=200,
            class_probs_source=(0.7, 0.1, 0.1, 0.1),
            class_probs_target=(0.7, 0.1, 0.1, 0.1),
            noise=(1.0, 1.0, 0.0),
            seed=seed,
        )
        source, target = synth.generate(cfg)
        fit, _, _, channel_src = fit_source(source, seed=seed)
        cost = transport.cosine_cost(fit.quantizer.coarse)
        ranks = []
        for mag in magnitudes:
            noisy = synth.inject_channel_noise(target, 2, mag, seed=1000 + seed)
            codes, _ = rvq.encode(fit.quantizer, embed_corpus(ds.strip_labels(noisy)), fine=False)
            channel_trg = markov.build_channel_tm(codes, 8)
            w = transport.channel_weights(
                markov.smooth(channel_src, 1e-8), markov.smooth(channel_trg, 1e-8), cost, 0.2
            )[0]
            ranks.append(1 + int(np.sum(w < w[2])))
        if all(b <= a for a, b in zip(ranks, ranks[1:])):
            monotone += 1
        if ranks[-1] < ranks[0]:
            strict += 1
    elapsed = time.perf_counter() - start
    assert monotone >= 9, f"monotone in {monotone}/{n_seeds} seeds"
    assert strict == n_seeds, f"strict drop in only {strict}/{n_seeds} seeds"
    assert elapsed < 120.0
    report(3, f"rank monotone {monotone}/10, strict drop {strict}/10, {elapsed:.1f}s")


def test_criterion_04_amplitude_shift_only_labeling():
    start = time.perf_counter()
    cfg = synth.SynthConfig(
        n_source=200,
        n_target=200,
        shift_scale=(2.0, 0.5, 3.0),
        shift_offset=(1.0, -2.0, 0.0),
        seed=0,
    )
    source, target = synth.generate(cfg)
    fit, _, class_tm, channel_src = fit_source(source)
    labels, _ = label_target(target, fit.quantizer, class_tm, channel_src)
    rep = labeling_accuracy(labels, target)
    elapsed = time.perf_counter() - start
    assert rep["accuracy"] >= 0.90
    assert rep["macro_f1"] >= 0.88
    assert elapsed < 60.0
    report(4, f"accuracy {rep['accuracy']:.3f}, macro_f1 {rep['macro_f1']:.3f}, {elapsed:.1f}s")


def test_criterion_05_alignment_helps_with_corrupted_channel():
    start = time.perf_counter()
    with_ca = []
    without_ca = []
    for seed in range(10):
        cfg = synth.SynthConfig(
            n_source=150,
            n_target=150,
            noise=(0.0, 0.0, 3.0),
            target_regime_mix=0.25,
            seed=seed,
        )
        source, target = synth.generate(cfg)
        fit, _, class_tm, channel_src = fit_source(source, seed=seed)
        on, _ = label_target(target, fit.quantizer, class_tm, channel_src, use_ca=True)
        off, _ = label_target(target, fit.quantizer, class_tm, channel_src, use_ca=False)
        with_ca.append(labeling_accuracy(on, target)["accuracy"])
        without_ca.append(labeling_accuracy(off, target)["accuracy"])
    mean_on = float(np.mean(with_ca))
    mean_off = float(np.mean(without_ca))
    elapsed = time.perf_counter() - start
    assert mean_on >= mean_off
    report(5, f"mean accuracy with alignment {mean_on:.3f} vs without {mean_off:.3f}, {elapsed:.1f}s")


def test_criterion_06_informative_prior_and_low_tau_collapse():
    start = time.perf_counter()
    true_dist = (0.7, 0.1, 0.1, 0.1)
    with_prior = []
    with_uniform = []
    seed0_artifacts = None
    for seed in range(10):
        cfg = synth.SynthConfig(
            n_source=150,
            n_target=150,
            class_probs_target=true_dist,
            target_regime_mix=0.5,
            noise=0.8,
            seed=seed,
        )
        source, target = synth.generate(cfg)
        fit, _, class_tm, channel_src = fit_source(source, seed=seed)
        informed, _ = label_target(
            target, fit.quantizer, class_tm, channel_src, prior=true_dist, tau=1.0
        )
        uniform, _ = label_target(target, fit.quantizer, class_tm, channel_src)
        with_prior.append(labeling_accuracy(informed, target)["accuracy"])
        with_uniform.append(labeling_accuracy(uniform, target)["accuracy"])
        if seed == 0:
            seed0_artifacts = (target, fit.quantizer, class_tm, channel_src)
    mean_prior = float(np.mean(with_prior))
    mean_uniform = float(np.mean(with_uniform))
    assert mean_prior >= mean_uniform

    target, quantizer, class_tm, channel_src = seed0_artifacts
    collapsed, _ = label_target(
        target, quantizer, class_tm, channel_src, prior=true_dist, tau=0.01
    )
    counts = Counter(collapsed.label.tolist())
    majority_share = counts[0] / len(collapsed.label)
    elapsed = time.perf_counter() - start
    assert majority_share >= 0.95
    report(
        6,
        f"informed prior {mean_prior:.3f} vs uniform {mean_uniform:.3f}, "
        f"tau=0.01 majority share {majority_share:.2f}, {elapsed:.1f}s",
    )


def test_criterion_07_no_dead_coarse_codes_and_residual_gain():
    source, _ = synth.generate(synth.SynthConfig(n_source=200, n_target=200, seed=0))
    latents = embed_corpus(source)
    fit = rvq.fit([rvq.CorpusLatents(latents)], 8, 64, max_iters=50, seed=0)
    coarse_idx, fine_idx = rvq.encode(fit.quantizer, latents)
    coarse_counts = np.bincount(fit.coarse_idx.ravel(), minlength=len(fit.quantizer.coarse))
    mse_coarse, mse_coarse_fine = rvq.code_stats(fit.quantizer, latents, coarse_idx, fine_idx)
    coarse_dead_pct = 100.0 * (coarse_counts == 0).sum() / coarse_counts.size
    assert coarse_dead_pct == 0.0
    assert mse_coarse_fine <= mse_coarse + 1e-9
    report(
        7,
        f"coarse dead {coarse_dead_pct:.1f}%, "
        f"mse {mse_coarse_fine:.4f} <= {mse_coarse:.4f}",
    )


def test_criterion_08_coarse_codes_are_temporally_simpler():
    wins = 0
    pairs = []
    for seed in range(10):
        source, _ = synth.generate(synth.SynthConfig(n_source=120, n_target=8, seed=seed))
        latents = embed_corpus(source)
        fit = rvq.fit([rvq.CorpusLatents(latents)], 8, 64, max_iters=50, seed=seed)
        coarse_idx, fine_idx = rvq.encode(fit.quantizer, latents)
        coarse_pe, fine_pe = pe_report(fit.quantizer, coarse_idx, fine_idx)
        pairs.append((coarse_pe, fine_pe))
        if coarse_pe < fine_pe:
            wins += 1
    assert wins >= 9, f"coarse below fine in only {wins}/10 seeds"
    mean_c = float(np.mean([p[0] for p in pairs]))
    mean_f = float(np.mean([p[1] for p in pairs]))
    report(8, f"coarse PE below fine in {wins}/10 seeds (means {mean_c:.3f} vs {mean_f:.3f})")


def test_criterion_09_pipeline_is_byte_reproducible(tmp_path):
    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0

    def run_pipeline(base):
        run("synth", "--out-dir", base / "data", "--n-source", 60, "--n-target", 40,
            "--length", 64, "--seed", 5)
        run("fit", "--source", base / "data" / "source.jsonl", "--out-dir", base / "model")
        run("label", "--target", base / "data" / "target.jsonl",
            "--quantizer", base / "model" / "quantizer.jsonl",
            "--transitions", base / "model" / "transitions.jsonl",
            "--out-dir", base / "out")
        run("eval", "--labels", base / "out" / "labels.jsonl",
            "--truth", base / "data" / "target_truth.jsonl",
            "--subset", base / "out" / "selected.jsonl",
            "--out", base / "out" / "metrics.jsonl")

    artifacts = (
        "data/source.jsonl", "data/target.jsonl", "data/target_truth.jsonl",
        "model/quantizer.jsonl", "model/transitions.jsonl",
        "out/labels.jsonl", "out/selected.jsonl", "out/alignment_report.tsv",
        "out/metrics.jsonl",
    )
    run_pipeline(tmp_path / "one")
    run_pipeline(tmp_path / "two")
    for rel in artifacts:
        reference = (tmp_path / "one" / rel).read_bytes()
        assert (tmp_path / "two" / rel).read_bytes() == reference, rel
    report(9, f"{len(artifacts)} artifacts byte-identical across reruns")


# ----------------------------------------------------------------------

def test_criterion_10a_rows_always_stochastic():
    rng = np.random.default_rng(110)
    for _ in range(1000):
        n_codes = int(rng.integers(2, 7))
        seqs = rng.integers(0, n_codes, size=(int(rng.integers(1, 4)), 1, int(rng.integers(2, 30))))
        tm = markov.build_channel_tm(seqs, n_codes)[0]
        assert_allclose(tm.sum(axis=1), 1.0, atol=1e-9)
        smoothed = markov.smooth(tm, 10.0 ** rng.uniform(-10, -3))
        assert_allclose(smoothed.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(smoothed > 0)
    report("10a", "1000 estimated + smoothed matrices row-stochastic")


def test_criterion_10b_posteriors_live_on_the_simplex():
    rng = np.random.default_rng(111)
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        # log-likelihoods ln(p) / 2 in [-60, 0], now and then one at the least positive double
        probs = np.exp(2.0 * rng.uniform(-60.0, 0.0, size=(1, 1, k)))
        if rng.random() < 0.1:
            probs[0, 0, rng.integers(0, k)] = 5e-324
        prior = pseudolabel.log_prior(
            rng.dirichlet(np.ones(k) * rng.uniform(0.2, 3.0)),
            10.0 ** rng.uniform(-2, 1),
        )
        post = posteriors(probs, prior)
        assert np.all(post >= 0.0)
        assert abs(post.sum() - 1.0) <= 1e-9
    report("10b", "1000 posteriors nonnegative and normalized")


def test_criterion_10c_channel_weights_stay_in_unit_interval():
    rng = np.random.default_rng(112)
    for _ in range(1000):
        n = int(rng.integers(2, 4))
        src = rng.dirichlet(np.ones(n), size=(1, n))
        trg = rng.dirichlet(np.ones(n), size=(1, n))
        costs = transport.cosine_cost(rng.normal(size=(n, 3)))
        sigma = rng.uniform(0.05, 1.0)
        w, _ = transport.channel_weights(src, trg, costs, sigma)
        assert np.all(w > 0.0)
        assert np.all(w <= 1.0)
    report("10c", "1000 weight computations inside (0, 1]")


def test_criterion_10d_labels_invariant_to_weight_rescaling():
    rng = np.random.default_rng(113)
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        k = int(rng.integers(2, 6))
        n = int(rng.integers(3, 8))
        probs = rng.dirichlet(np.ones(k), size=(n, d))
        w = rng.uniform(0.05, 1.0, size=d)
        c = 10.0 ** rng.uniform(-2, 2)
        base = vote(probs, w)
        scaled = vote(probs, c * w)
        assert base.label.tolist() == scaled.label.tolist()
        r = rng.uniform(0.2, 1.0)
        assert_array_equal(
            pseudolabel.top_r_select(base.confidence, r), pseudolabel.top_r_select(scaled.confidence, r)
        )
    report("10d", "1000 weight rescalings preserve labels and top-r order")


def test_criterion_10e_codes_invariant_to_amplitude_shift():
    rng = np.random.default_rng(114)
    pool = rng.normal(size=(1, 120, 4))
    fit = rvq.fit([rvq.CorpusLatents(pool)], n_coarse=4, n_fine=4, max_iters=30, seed=0)
    for _ in range(1000):
        values = rng.normal(size=(2, 16))
        if rng.random() < 0.05:
            values[0, :4] = values[0, 0]  # constant patch edge case
        a = 10.0 ** rng.uniform(-2, 2, size=(2, 1))
        b = rng.uniform(-5.0, 5.0, size=(2, 1))
        plain = ds.patchify(values, 4)
        moved = ds.patchify(a * values + b, 4)
        g1 = rvq.encode(fit.quantizer, rvq._znorm(plain))
        g2 = rvq.encode(fit.quantizer, rvq._znorm(moved))
        assert_array_equal(g1[0], g2[0])
        assert_array_equal(g1[1], g2[1])
    report("10e", "1000 affine amplitude shifts leave code grids identical")

"""Synthetic corpus generation and controlled channel corruption."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from codechain import dataset as ds
from codechain import markov, rvq, synth
from codechain.errors import ConfigError, DataError


def small_cfg(**kw):
    base = dict(
        n_classes=2,
        n_channels=2,
        length=48,
        patch_length=8,
        n_source=20,
        n_target=12,
        seed=9,
    )
    base.update(kw)
    return synth.SynthConfig(**base)


# ---------------------------------------------------------------- config

def test_regimes_are_row_stochastic_with_sticky_rotation():
    regimes = synth.make_class_regimes(3, 2, 4, stickiness=0.7)
    assert regimes.shape == (3, 2, 4, 4)
    assert_allclose(regimes.sum(axis=-1), 1.0, atol=1e-12)
    for k in range(3):
        for d in range(2):
            for i in range(4):
                assert regimes[k, d, i, (i + 1 + k + d) % 4] == pytest.approx(0.7)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(length=50)  # not a multiple of patch_length
    with pytest.raises(ConfigError):
        small_cfg(length=8)  # single patch
    with pytest.raises(ConfigError):
        small_cfg(n_source=0)
    with pytest.raises(ConfigError):
        small_cfg(noise=-1.0)
    with pytest.raises(ConfigError):
        small_cfg(class_probs_source=(0.5, 0.2))
    with pytest.raises(ConfigError):
        small_cfg(target_regime_mix=1.5)


# ---------------------------------------------------------------- generate

def test_generate_shapes_roles_and_labels():
    source, target = synth.generate(small_cfg())
    assert source.role == "source" and target.role == "target"
    assert len(source) == 20 and len(target) == 12
    assert source.n_channels == 2 and source.length == 48
    assert all(label != ds.UNLABELED for label in source.labels)
    # target keeps labels for the sealed truth file
    assert all(label != ds.UNLABELED for label in target.labels)


def test_generate_is_deterministic():
    a_src, a_trg = synth.generate(small_cfg())
    b_src, b_trg = synth.generate(small_cfg())
    for a, b in ((a_src, b_src), (a_trg, b_trg)):
        assert_array_equal(a.ids, b.ids)
        assert a.values.tobytes() == b.values.tobytes()
        assert_array_equal(a.labels, b.labels)


def test_generate_different_seed_differs():
    a_src, _ = synth.generate(small_cfg())
    b_src, _ = synth.generate(small_cfg(seed=10))
    assert a_src.values[0].tobytes() != b_src.values[0].tobytes()


def test_label_counts_follow_probs():
    source, _ = synth.generate(synth.SynthConfig(n_source=200, n_target=8, seed=0))
    counts = np.bincount(source.labels, minlength=4)
    assert_array_equal(counts, [50, 50, 50, 50])
    skew, _ = synth.generate(
        synth.SynthConfig(n_source=200, n_target=8, seed=0, class_probs_source=(0.7, 0.1, 0.1, 0.1))
    )
    counts = np.bincount(skew.labels, minlength=4)
    assert_array_equal(counts, [140, 20, 20, 20])


def test_amplitude_shift_leaves_codes_unchanged():
    plain_cfg = small_cfg()
    shifted_cfg = small_cfg(shift_scale=(2.0, 0.5), shift_offset=(1.0, -3.0))
    _, plain = synth.generate(plain_cfg)
    _, shifted = synth.generate(shifted_cfg)
    # the shift is applied after emission without consuming rng draws
    assert_allclose(
        shifted.values[0],
        plain.values[0] * np.array([[2.0], [0.5]]) + np.array([[1.0], [-3.0]]),
        atol=1e-12,
    )
    source, _ = synth.generate(plain_cfg)
    latents = rvq.embed(ds.patchify(source.values, 8))
    fit = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=4, n_fine=6, max_iters=30, seed=0)
    a = rvq.encode(fit.quantizer, rvq.embed(ds.patchify(plain.values, 8)))
    b = rvq.encode(fit.quantizer, rvq.embed(ds.patchify(shifted.values, 8)))
    assert_array_equal(a[0], b[0])
    assert_array_equal(a[1], b[1])


def test_disjoint_primitive_supports_yield_disjoint_dominant_transitions():
    regimes = np.zeros((2, 1, 4, 4))
    # class 0 alternates the two ramps (any stray start state funnels
    # back to the up ramp), class 1 holds the sine
    regimes[0, 0, 0, 1] = 1.0
    regimes[0, 0, 1, 0] = 1.0
    regimes[0, 0, 2, 0] = 1.0
    regimes[0, 0, 3, 0] = 1.0
    regimes[1, 0, :, 3] = 1.0
    cfg = synth.SynthConfig(
        n_classes=2,
        n_channels=1,
        length=64,
        patch_length=8,
        class_regimes=regimes,
        n_source=30,
        n_target=4,
        base_noise=0.01,
        curvature_jitter=0.0,
        phase_jitter=0.0,
        seed=2,
    )
    source, _ = synth.generate(cfg)
    latents = rvq.embed(ds.patchify(source.values, 8))
    fit = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=3, n_fine=4, max_iters=40, seed=0)
    codes, _ = rvq.encode(fit.quantizer, latents)
    ctm = markov.build_class_tm(codes, source.labels, 2, 3)
    # rows never departed from fall back to uniform and stay below the
    # threshold, so only genuinely visited transitions count
    dominant = []
    for k in range(2):
        probs = ctm[k, 0]
        cells = {
            (i, int(np.argmax(probs[i])))
            for i in range(3)
            if probs[i].max() > 0.6
        }
        assert cells
        dominant.append(cells)
    assert not (dominant[0] & dominant[1])


def test_target_regime_mix_changes_transitions():
    base = small_cfg(n_target=40)
    mixed = small_cfg(n_target=40, target_regime_mix=0.8)
    _, a = synth.generate(base)
    _, b = synth.generate(mixed)
    assert a.values[0].tobytes() != b.values[0].tobytes()


# ---------------------------------------------------------------- noise

def test_inject_zero_magnitude_is_identity():
    _, target = synth.generate(small_cfg())
    out = synth.inject_channel_noise(target, 0, 0.0, seed=5)
    for a, b in zip(target.values, out.values):
        assert a.tobytes() == b.tobytes()


def test_inject_touches_only_one_channel():
    _, target = synth.generate(small_cfg())
    out = synth.inject_channel_noise(target, 1, 0.5, seed=5)
    for a, b in zip(target.values, out.values):
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() != b[1].tobytes()


def test_inject_variance_matches_magnitude():
    cfg = small_cfg(n_target=200, length=64)
    _, target = synth.generate(cfg)
    mag = 0.7
    out = synth.inject_channel_noise(target, 0, mag, seed=6)
    diffs = np.concatenate(
        [(b[0] - a[0]) for a, b in zip(target.values, out.values)]
    )
    assert abs(diffs.mean()) < 0.02
    assert abs(diffs.std() - mag) / mag < 0.05


def test_inject_same_seed_scales_exactly():
    _, target = synth.generate(small_cfg())
    one = synth.inject_channel_noise(target, 0, 1.0, seed=7)
    two = synth.inject_channel_noise(target, 0, 2.0, seed=7)
    for base, a, b in zip(target.values, one.values, two.values):
        # the draws scale exactly; add-then-subtract reintroduces 1 ulp
        d1 = a[0] - base[0]
        d2 = b[0] - base[0]
        assert_allclose(d2, 2.0 * d1, rtol=1e-12, atol=1e-14)


def test_inject_validation():
    _, target = synth.generate(small_cfg())
    with pytest.raises(DataError):
        synth.inject_channel_noise(target, 5, 0.1, seed=0)
    with pytest.raises(ConfigError):
        synth.inject_channel_noise(target, 0, -0.1, seed=0)

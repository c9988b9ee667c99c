"""Synthetic corpus generation and controlled channel corruption."""

import math

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


@pytest.mark.parametrize(
    "field, value",
    [
        ("class_probs_source", (math.nan, 1.0)),
        ("base_noise", math.nan),
        ("curvature_jitter", math.nan),
        ("phase_jitter", math.inf),
        ("sine_freq", math.inf),
        ("noise", (0.0, -math.inf)),
        ("shift_offset", 10**400),
    ],
    ids=["class-probs-nan", "base-noise-nan", "curvature-jitter-nan", "phase-jitter-inf",
         "sine-freq-inf", "noise-minus-inf", "shift-offset-10**400"],
)
def test_a_non_finite_parameter_is_a_config_error(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        small_cfg(**{field: value})


def test_a_nan_regime_cell_is_a_config_error():
    regimes = synth.make_class_regimes(2, 2, 4)
    regimes[1, 1, 0, 0] = math.nan
    with pytest.raises(ConfigError, match="class_regimes must be finite"):
        small_cfg(class_regimes=regimes)


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



def per_patch_generate(cfg):
    """Reference generator: one patch at a time, with rng.uniform for the
    jitter, one rng.standard_normal per patch and rng.choice for the next
    state. Returns ((values, labels), (values, labels)) for source and
    target."""
    regimes = cfg.resolved_regimes()
    mix = np.broadcast_to(np.asarray(cfg.target_regime_mix, dtype=np.float64), (cfg.n_channels,))
    mix = mix[None, :, None, None]
    regimes_trg = (1.0 - mix) * regimes + mix * (1.0 / cfg.n_primitives)
    scale, offset, noise = (
        np.broadcast_to(np.asarray(v, dtype=np.float64), (cfg.n_channels,))[:, None]
        for v in (cfg.shift_scale, cfg.shift_offset, cfg.noise)
    )
    p, m = cfg.n_primitives, cfg.patch_length
    t = np.linspace(-1.0, 1.0, m)
    cj, pj = cfg.curvature_jitter, cfg.phase_jitter
    rng = np.random.default_rng(cfg.seed)

    def patch(prim):
        if prim == 0:
            x = t + rng.uniform(-cj, cj) * t * t
        elif prim == 1:
            x = -(t + rng.uniform(-cj, cj) * t * t)
        elif prim == 2:
            x = np.zeros(m)
        else:
            phase = rng.uniform(-pj, pj)
            x = np.sin(2.0 * math.pi * cfg.sine_freq * (t + 1.0) / 2.0 + phase)
        return x + cfg.base_noise * rng.standard_normal(m)

    def series(regimes_k):
        channels = []
        for d in range(cfg.n_channels):
            state = int(rng.integers(p))
            row = []
            for _ in range(cfg.length // m):
                row.append(patch(state))
                state = int(rng.choice(p, p=regimes_k[d, state]))
            channels.append(np.concatenate(row))
        return np.stack(channels)

    def corpus(which, n, regs, shifted):
        counts = synth._class_counts(cfg.class_probs(which), n)
        labels = np.repeat(np.arange(cfg.n_classes), counts)[rng.permutation(n)]
        values = []
        for y in labels:
            x = series(regs[y])
            if shifted:
                x = scale * x + offset
                x = x + noise * rng.standard_normal(x.shape)
            values.append(x)
        return np.stack(values), labels

    return (
        corpus("source", cfg.n_source, regimes, False),
        corpus("target", cfg.n_target, regimes_trg, True),
    )


def random_regimes(rng, n_classes, n_channels, p):
    """Dirichlet rows with some cells zeroed (the first one included) and
    some rows one-hot."""
    regimes = rng.dirichlet(np.ones(p), size=(n_classes, n_channels, p))
    regimes[rng.random(regimes.shape) < 0.25] = 0.0
    one_hot = rng.random(regimes.shape[:-1]) < 0.2
    regimes[one_hot] = np.eye(p)[rng.integers(p, size=int(one_hot.sum()))]
    empty = regimes.sum(axis=-1) == 0.0
    regimes[empty] = np.eye(p)[rng.integers(p, size=int(empty.sum()))]
    return regimes / regimes.sum(axis=-1, keepdims=True)


def random_config(rng):
    n_classes, n_channels = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    p, m = int(rng.integers(2, 5)), int(rng.integers(2, 17))

    def per_channel(lo, hi):
        if rng.random() < 0.5:
            return float(rng.uniform(lo, hi))
        return tuple(float(x) for x in rng.uniform(lo, hi, n_channels))

    def magnitude(hi):
        return 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, hi))

    return synth.SynthConfig(
        n_classes=n_classes,
        n_channels=n_channels,
        length=m * int(rng.integers(2, 7)),
        patch_length=m,
        n_primitives=p,
        sine_freq=float(rng.uniform(0.5, 3.0)),
        regime_stickiness=float(rng.uniform(0.3, 1.0)),
        class_regimes=random_regimes(rng, n_classes, n_channels, p) if rng.random() < 0.5 else None,
        n_source=int(rng.integers(1, 7)),
        n_target=int(rng.integers(1, 7)),
        shift_scale=per_channel(0.5, 2.0),
        shift_offset=per_channel(-1.0, 1.0),
        noise=per_channel(0.0, 0.5) if rng.random() < 0.75 else 0.0,
        target_regime_mix=per_channel(0.0, 1.0) if rng.random() < 0.75 else 0.0,
        base_noise=magnitude(0.2),
        curvature_jitter=magnitude(0.5),
        phase_jitter=magnitude(math.pi),
        seed=int(rng.integers(2**32)),
    )


def test_generate_draws_the_per_patch_stream_bit_for_bit():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        cfg = random_config(rng)
        source, target = synth.generate(cfg)
        (src_values, src_labels), (trg_values, trg_labels) = per_patch_generate(cfg)
        assert source.values.tobytes() == src_values.tobytes(), cfg
        assert target.values.tobytes() == trg_values.tobytes(), cfg
        assert_array_equal(source.labels, src_labels)
        assert_array_equal(target.labels, trg_labels)
        assert source.ids.tolist() == [f"src-{i:04d}" for i in range(cfg.n_source)]
        assert target.ids.tolist() == [f"trg-{i:04d}" for i in range(cfg.n_target)]

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
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        synth.inject_channel_noise(target, 0, 0.1, seed=-1)
    for magnitude in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="magnitude must be finite"):
            synth.inject_channel_noise(target, 0, magnitude, seed=0)

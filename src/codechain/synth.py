"""Synthetic multivariate corpora with class-specific transition regimes.

Each channel of an instance is a Markov chain over a small bank of
patch primitives; the class determines the chain's transition regime.
Target-domain shift is layered on top: per-channel affine amplitude
scaling, additive noise, and an optional mixing of the transition
regimes toward uniform.

Determinism contract: a corpus is a function of its config alone. One
Generator seeded with cfg.seed is consumed in this order, and a change
to the order changes every corpus byte:

1. the source labels: one permutation of the class allocation;
2. per source instance and channel, one integers(n_primitives) for the
   start state, then per patch: one random() for the jitter of a ramp
   (curvature) or a sine (phase), none for a flat patch; one
   standard_normal(patch_length) for the within-patch noise; one
   random() bisected into the cumulative regime row for the next state,
   which is the draw and the index Generator.choice(p, p=row) gives
   (made after the last patch too);
3. the target labels, then per target instance the draws of step 2
   under the mixed regimes, followed by one
   standard_normal((n_channels, length)) for the target noise.

The affine shift draws nothing, so two configs differing only in
scale/offset emit identical chains and identical pre-shift values.

Each domain is filled in blocks of _BLOCK instances: the block's draws
are made in the order above, each patch's noise straight into the
domain's array, then all of the block's patches are shaped at once and
the target's shift is applied. Shaping and shift are elementwise, so the
block size moves no byte.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from . import records
from .dataset import DomainDataset
from .errors import ConfigError, DataError

PRIMITIVES = ("up_ramp", "down_ramp", "flat", "sine")


def _per_channel(value, n_channels: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(n_channels, float(arr))
    if arr.shape != (n_channels,):
        raise ConfigError(f"{name} must be a scalar or a length-{n_channels} vector")
    return arr


@dataclass(frozen=True)
class SynthConfig:
    """Generator parameters.

    class_regimes, when given, is a (n_classes, n_channels, P, P)
    row-stochastic array over the first n_primitives primitives of the
    bank; when None, a default separable regime set is built. Shift
    fields apply to the target domain only. base_noise and the jitter
    magnitudes add within-primitive variability in both domains (pure
    primitives would collapse to a handful of latent points under
    per-patch standardization).
    """

    n_classes: int = 4
    n_channels: int = 3
    length: int = 128
    patch_length: int = 8
    n_primitives: int = 4
    sine_freq: float = 1.5
    regime_stickiness: float = 0.8
    class_regimes: np.ndarray | None = None
    n_source: int = 200
    n_target: int = 200
    class_probs_source: tuple | None = None
    class_probs_target: tuple | None = None
    shift_scale: float | tuple = 1.0
    shift_offset: float | tuple = 0.0
    noise: float | tuple = 0.0
    target_regime_mix: float | tuple = 0.0
    base_noise: float = 0.05
    curvature_jitter: float = 0.35
    phase_jitter: float = math.pi
    seed: int = 0

    def __post_init__(self):
        records.require_finite(self)
        if self.n_classes < 2:
            raise ConfigError("n_classes must be >= 2")
        if self.n_channels < 1:
            raise ConfigError("n_channels must be >= 1")
        if self.patch_length < 2:
            raise ConfigError("patch_length must be >= 2")
        if self.length < self.patch_length or self.length % self.patch_length != 0:
            raise ConfigError("length must be a positive multiple of patch_length")
        if self.length // self.patch_length < 2:
            raise ConfigError("need at least 2 patches per series")
        if not 2 <= self.n_primitives <= len(PRIMITIVES):
            raise ConfigError(f"n_primitives must lie in [2, {len(PRIMITIVES)}]")
        if not 0.0 < self.regime_stickiness <= 1.0:
            raise ConfigError("regime_stickiness must lie in (0, 1]")
        if self.n_source < 1 or self.n_target < 1:
            raise ConfigError("n_source and n_target must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.sine_freq > 0.0:
            raise ConfigError("sine_freq must be > 0")
        for name in ("base_noise", "curvature_jitter", "phase_jitter"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0")
        mix = _per_channel(self.target_regime_mix, self.n_channels, "target_regime_mix")
        if np.any(mix < 0.0) or np.any(mix > 1.0):
            raise ConfigError("target_regime_mix must lie in [0, 1]")
        if np.any(_per_channel(self.shift_scale, self.n_channels, "shift_scale") <= 0.0):
            raise ConfigError("shift_scale must be > 0")
        if np.any(_per_channel(self.noise, self.n_channels, "noise") < 0.0):
            raise ConfigError("noise must be >= 0")
        _per_channel(self.shift_offset, self.n_channels, "shift_offset")
        self.class_probs("source")
        self.class_probs("target")
        self.resolved_regimes()

    def resolved_regimes(self) -> np.ndarray:
        if self.class_regimes is None:
            return make_class_regimes(
                self.n_classes, self.n_channels, self.n_primitives, self.regime_stickiness
            )
        try:
            arr = np.asarray(self.class_regimes, dtype=np.float64)
        except ValueError as exc:  # ragged nesting
            raise ConfigError("class_regimes must be a nested array of numbers") from exc
        shape = (self.n_classes, self.n_channels, self.n_primitives, self.n_primitives)
        if arr.shape != shape:
            raise ConfigError(f"class_regimes must have shape {shape}, got {arr.shape}")
        if np.any(arr < 0.0) or np.max(np.abs(arr.sum(axis=-1) - 1.0)) > 1e-9:
            raise ConfigError("class_regimes rows must be non-negative and sum to 1")
        return arr

    def class_probs(self, which: str) -> np.ndarray:
        raw = self.class_probs_source if which == "source" else self.class_probs_target
        if raw is None:
            return np.full(self.n_classes, 1.0 / self.n_classes)
        arr = np.asarray(raw, dtype=np.float64)
        if arr.shape != (self.n_classes,) or np.any(arr < 0.0) or abs(arr.sum() - 1.0) > 1e-9:
            raise ConfigError(f"class_probs_{which} must be a length-{self.n_classes} distribution")
        return arr


def make_class_regimes(
    n_classes: int, n_channels: int, n_primitives: int, stickiness: float = 0.8
) -> np.ndarray:
    """Separable default regimes: class k on channel d favors the
    transition i -> (i + 1 + k + d) mod P with the given stickiness, the
    rest of each row is uniform."""
    p = n_primitives
    off = (1.0 - stickiness) / (p - 1)
    out = np.full((n_classes, n_channels, p, p), off)
    for k in range(n_classes):
        for d in range(n_channels):
            for i in range(p):
                out[k, d, i, (i + 1 + k + d) % p] = stickiness
    return out


def _class_counts(probs: np.ndarray, n: int) -> np.ndarray:
    """Largest-remainder allocation of n instances to classes."""
    raw = probs * n
    counts = np.floor(raw).astype(np.int64)
    short = n - int(counts.sum())
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


_BLOCK = 64  # instances shaped at once: numpy's per-call cost is amortised, the temporaries stay small


def _emit_domain(rng, cdf: list, labels: np.ndarray, cfg: SynthConfig, shift=None) -> np.ndarray:
    """(len(labels), n_channels, length) values of one domain, instance i of class labels[i].

    cdf[k][d][i] is row i of class k's channel-d regime, cumulated and
    normalised as Generator.choice does. shift, for the target, holds
    the per-channel scale, offset and noise.
    """
    n_patches, m = cfg.length // cfg.patch_length, cfg.patch_length
    t = np.linspace(-1.0, 1.0, m)
    sine_arg = 2.0 * math.pi * cfg.sine_freq * (t + 1.0) / 2.0
    limit = (cfg.curvature_jitter, cfg.curvature_jitter, 0.0, cfg.phase_jitter)
    random, standard_normal, integers = rng.random, rng.standard_normal, rng.integers
    out = np.empty((len(labels), cfg.n_channels, n_patches, m))
    patches = iter(out.reshape(-1, m))
    eta = None if shift is None else np.empty((min(_BLOCK, len(labels)), *out.shape[1:]))
    for start in range(0, len(labels), _BLOCK):
        block = labels[start:start + _BLOCK].tolist()
        states, jitters = [], []
        for i, y in enumerate(block):
            for cdf_d in cdf[y]:
                state = int(integers(cfg.n_primitives))
                for _ in range(n_patches):
                    states.append(state)
                    # Generator.uniform(lo, hi) is lo + (hi - lo) * random(); a flat patch draws none
                    jitters.append(-limit[state] + 2.0 * limit[state] * random() if state != 2 else 0.0)
                    standard_normal(out=next(patches))
                    state = bisect_right(cdf_d[state], random())
            if shift is not None:
                standard_normal(out=eta[i])
        x = out[start:start + len(block)]
        u = np.array(jitters).reshape(*x.shape[:-1], 1)
        ramp = t + u * t * t
        # a flat patch is 0.0 + base_noise * noise, +0.0 where base_noise is 0, as one patch at a time gives
        shapes = np.choose(np.array(states).reshape(u.shape), (ramp, -ramp, 0.0, np.sin(sine_arg + u)))
        x[...] = shapes + cfg.base_noise * x
        if shift is not None:
            scale, offset, noise = (v[:, None, None] for v in shift)
            x[...] = (scale * x + offset) + noise * eta[:len(x)]
    return out.reshape(len(labels), cfg.n_channels, cfg.length)


def generate(cfg: SynthConfig) -> tuple[DomainDataset, DomainDataset]:
    """Build (source, target) corpora, each shaped per block of instances.

    Both datasets carry labels; the target's are meant for sealed
    evaluation only and are stripped before a target corpus is written
    for labeling.
    """
    regimes = cfg.resolved_regimes()
    mix = _per_channel(cfg.target_regime_mix, cfg.n_channels, "target_regime_mix")
    scale = _per_channel(cfg.shift_scale, cfg.n_channels, "shift_scale")
    offset = _per_channel(cfg.shift_offset, cfg.n_channels, "shift_offset")
    noise = _per_channel(cfg.noise, cfg.n_channels, "noise")

    uniform = 1.0 / cfg.n_primitives
    regimes_trg = (1.0 - mix[None, :, None, None]) * regimes + mix[None, :, None, None] * uniform
    cdf_src, cdf_trg = (
        (c / c[..., -1:]).tolist() for c in (regimes.cumsum(axis=-1), regimes_trg.cumsum(axis=-1))
    )

    rng = np.random.default_rng(cfg.seed)

    def draw_labels(which: str, n: int) -> np.ndarray:
        counts = _class_counts(cfg.class_probs(which), n)
        labels = np.repeat(np.arange(cfg.n_classes), counts)
        return labels[rng.permutation(n)]

    src_labels = draw_labels("source", cfg.n_source)
    src_values = _emit_domain(rng, cdf_src, src_labels, cfg)
    trg_labels = draw_labels("target", cfg.n_target)
    trg_values = _emit_domain(rng, cdf_trg, trg_labels, cfg, (scale, offset, noise))

    return tuple(
        DomainDataset(values, [f"{prefix}-{i:04d}" for i in range(len(values))], labels, cfg.n_classes, role)
        for values, labels, prefix, role in (
            (src_values, src_labels, "src", "source"), (trg_values, trg_labels, "trg", "target")
        )
    )


def inject_channel_noise(
    dataset: DomainDataset, channel: int, magnitude: float, seed: int
) -> DomainDataset:
    """Additive Gaussian noise on one channel, other channels untouched.

    The noise draw depends only on (seed, instance order, length), so
    the same seed at two magnitudes yields exactly scaled noise.
    """
    if not 0 <= channel < dataset.n_channels:
        raise DataError(f"channel {channel} out of range [0, {dataset.n_channels})")
    if not (math.isfinite(magnitude) and magnitude >= 0.0):
        raise ConfigError("magnitude must be finite and >= 0")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    eta = rng.standard_normal((len(dataset), dataset.length))
    values = dataset.values.copy()
    if magnitude > 0.0:
        values[:, channel] = values[:, channel] + magnitude * eta
    return replace(dataset, values=values)

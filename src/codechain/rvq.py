"""Residual coarse/fine codebooks over latent patch vectors.

Patches are embedded by per-patch standardization (mean removed, scaled
by the standard deviation with a small floor, so constant patches map to
the zero vector), optionally followed by a fixed random orthogonal
projection. Quantization is a two-stage residual scheme with cosine
geometry: both the latent and the codewords are L2-normalized before
the nearest-neighbor search, first against the coarse book, then the
residual against the fine book. Stored codewords stay un-normalized.

Codebooks are fit with Lloyd iterations rather than gradient descent.
For both stages the assignment metric and the mean update form a
monotone descent pair, and empty codes are re-seeded from the point
with the largest current quantization error, so a fit on the training
pool terminates with every code in use.

The nearest-code search evaluates |p|^2 - 2 p.c + |c|^2 over row
blocks of at most _BLOCK points, each in one (block, k) buffer that
stays in cache, instead of one (n, k) array. The blocks are near-equal,
so none holds a single row, and every float operation is the one the
whole-array formula would do: assignments and errors are bitwise the
same. A Lloyd stage sums |p|^2 once, not once per call. The mean update
sums each code's members with one np.bincount per latent dimension,
which adds in point order exactly as np.add.at would, at a fraction of
its cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import records
from .dataset import DomainDataset, patchify
from .errors import ConfigError, DataError

EMBED_MODES = ("znorm", "raw")
_STD_FLOOR = 1e-8
_BLOCK = 2048  # points per block of the nearest-code search


def l2_normalize(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """v / ||v||, with zero vectors mapped to themselves."""
    norms = np.linalg.norm(x, axis=axis, keepdims=True)
    return x / np.where(norms == 0.0, 1.0, norms)


@dataclass(frozen=True)
class EmbedSpec:
    """How raw patches become latent vectors.

    mode "znorm" standardizes each patch; "raw" passes values through.
    d_dim, when set below the patch length, applies a fixed random
    orthogonal projection drawn from projection_seed.
    """

    mode: str = "znorm"
    d_dim: int | None = None
    projection_seed: int = 0

    def __post_init__(self):
        if self.mode not in EMBED_MODES:
            raise ConfigError(f"embed mode must be one of {EMBED_MODES}, got {self.mode!r}")
        if self.d_dim is not None and self.d_dim < 2:
            raise ConfigError("d_dim must be >= 2")

    def projection(self, patch_length: int) -> np.ndarray | None:
        """The (patch_length, d_dim) projection, or None when dimensions match."""
        if self.d_dim is None or self.d_dim == patch_length:
            return None
        if self.d_dim > patch_length:
            raise ConfigError(
                f"d_dim {self.d_dim} exceeds patch_length {patch_length}; projection cannot raise dimension"
            )
        rng = np.random.default_rng(self.projection_seed)
        g = rng.standard_normal((patch_length, self.d_dim))
        q, r = np.linalg.qr(g)
        # canonical column signs so the projection is unique
        return q * np.sign(np.diag(r))[None, :]


def embed(patches: np.ndarray, spec: EmbedSpec = EmbedSpec()) -> np.ndarray:
    """Map patches (..., patch_length) to latent vectors (..., latent_dim).

    Standardization uses the population std with a 1e-8 floor; an exactly
    constant patch becomes the zero vector, which downstream assignment
    resolves to code 0 by the lowest-index tie rule.
    """
    patches = np.asarray(patches, dtype=np.float64)
    if spec.mode == "znorm":
        mean = patches.mean(axis=-1, keepdims=True)
        std = patches.std(axis=-1, keepdims=True)
        lat = (patches - mean) / (std + _STD_FLOOR)
    else:
        lat = patches.copy()
    proj = spec.projection(patches.shape[-1])
    if proj is not None:
        lat = lat @ proj
    return lat


@dataclass(frozen=True)
class CorpusLatents:
    """Latent vectors of a whole corpus: (n_instances, n_channels, n_patches, d_dim)."""

    latents: np.ndarray


def embed_dataset(
    dataset: DomainDataset, patch_length: int, spec: EmbedSpec = EmbedSpec()
) -> CorpusLatents:
    """Patchify and embed every series of a corpus in one call."""
    return CorpusLatents(embed(patchify(dataset.values, patch_length), spec))


@dataclass(frozen=True)
class ResidualQuantizer:
    """Coarse and fine codebooks: (n_codes, d_dim) float64 arrays of the
    same width, each of at least 2 distinct finite rows."""

    coarse: np.ndarray
    fine: np.ndarray

    def __post_init__(self):
        for name in ("coarse", "fine"):
            vectors = np.asarray(getattr(self, name), dtype=np.float64)
            if vectors.ndim != 2:
                raise DataError("codebook vectors must be 2-D (n_codes, d_dim)")
            if vectors.shape[0] < 2:
                raise DataError("codebook needs at least 2 codes")
            if not np.all(np.isfinite(vectors)):
                raise DataError("codebook contains non-finite vectors")
            if len(np.unique(vectors, axis=0)) != len(vectors):
                raise DataError("codebook contains duplicate vectors")
            object.__setattr__(self, name, vectors)
        if self.coarse.shape[1] != self.fine.shape[1]:
            raise DataError("coarse and fine codebooks differ in width")

    @property
    def d_dim(self) -> int:
        return self.coarse.shape[1]


class Codes(NamedTuple):
    """Coarse and fine code indices, each shaped like the latents without their last axis."""

    coarse_idx: np.ndarray
    fine_idx: np.ndarray | None


@dataclass(frozen=True)
class QuantizerFit:
    """Fit output: the quantizer, its training assignments, and loss traces.

    coarse_idx / fine_idx are what encode assigns to the training
    latents under the fitted quantizer, shaped like the pooled latents
    without their last axis. coarse_losses / fine_losses
    are mean squared quantization errors per Lloyd iteration of each
    stage.
    """

    quantizer: ResidualQuantizer
    coarse_idx: np.ndarray
    fine_idx: np.ndarray
    coarse_losses: tuple[float, ...]
    fine_losses: tuple[float, ...]


def _block_bounds(n: int) -> np.ndarray:
    """Row bounds of ceil(n / _BLOCK) near-equal blocks of at most _BLOCK rows.

    Near-equal blocks hold at least 2 rows whenever n does, so each goes
    through the same matrix-matrix product as the whole array would; a
    1-row block would take numpy's vector-matrix path, whose sums can
    round differently.
    """
    n_blocks = max(1, -(-n // _BLOCK))
    return np.arange(n_blocks + 1) * n // n_blocks


def _nearest(
    points: np.ndarray, codewords: np.ndarray, sq_norms: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Assignment to the nearest L2-normalized codeword; ties -> lowest index.

    Returns (assignment, squared error). sq_norms, when given, must be
    (points * points).sum(axis=1); a Lloyd stage passes it in so it is
    summed once per stage rather than once per call.
    """
    cn = l2_normalize(codewords, axis=1)
    # p @ (2c) holds the same products as (2p) @ c, since doubling is exact
    twice = 2.0 * cn
    c_sq = (cn * cn).sum(axis=1)
    if sq_norms is None:
        sq_norms = (points * points).sum(axis=1)
    n = len(points)
    assign = np.empty(n, dtype=np.intp)
    err = np.empty(n)
    bounds = _block_bounds(n)
    buf = np.empty((int(np.diff(bounds).max()), len(cn)))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # |p|^2 - 2 p.c + |c|^2, evaluated in that order inside one (block, k) buffer
        d2 = buf[: hi - lo]
        np.matmul(points[lo:hi], twice.T, out=d2)
        np.subtract(sq_norms[lo:hi, None], d2, out=d2)
        d2 += c_sq
        best = np.argmin(d2, axis=1)
        assign[lo:hi] = best
        err[lo:hi] = d2[np.arange(hi - lo), best]
    return assign, np.maximum(err, 0.0, out=err)


def _reseed_empty(points, sq_norms, centroids, assign, err, n_codes):
    """Re-seed codes with no members from the worst-quantized point."""
    for _ in range(n_codes):
        used = np.bincount(assign, minlength=n_codes)
        empty = np.flatnonzero(used == 0)
        if empty.size == 0:
            break
        centroids = centroids.copy()
        centroids[empty[0]] = points[int(np.argmax(err))]
        assign, err = _nearest(points, centroids, sq_norms)
    return centroids, assign, err


def _code_sums(columns, assign, n_codes):
    """Per-code sums of the points, given as (d_dim, n) columns: (n_codes, d_dim).

    bincount adds each code's members in point order, as np.add.at over
    the rows would, so the sums are bitwise the same.
    """
    return np.stack(
        [np.bincount(assign, weights=col, minlength=n_codes) for col in columns], axis=1
    )


def _lloyd(points, n_codes, max_iters, rng):
    """Lloyd iterations under the normalized-codeword metric.

    Initial codewords are drawn without replacement from the distinct
    rows of the pool. Per iteration: assign, re-seed empties, record the
    mean error, stop when assignments repeat, update means. The recorded
    trace is non-increasing. It holds one loss per iteration when the
    assignments repeated within max_iters, and max_iters + 1 (the last
    from a re-sync after the final update) when the stage hit its cap.
    """
    distinct = np.unique(points, axis=0)
    if len(distinct) < n_codes:
        raise DataError(
            f"need at least {n_codes} distinct vectors to fit {n_codes} codes, have {len(distinct)}"
        )
    centroids = distinct[rng.choice(len(distinct), size=n_codes, replace=False)]
    sq_norms = (points * points).sum(axis=1)
    columns = points.T.copy()
    losses: list[float] = []
    prev = None
    for _ in range(max_iters):
        assign, err = _nearest(points, centroids, sq_norms)
        centroids, assign, err = _reseed_empty(points, sq_norms, centroids, assign, err, n_codes)
        losses.append(float(err.mean()))
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        sums = _code_sums(columns, assign, n_codes)
        counts = np.bincount(assign, minlength=n_codes).astype(np.float64)
        centroids = sums / counts[:, None]
    else:
        # ran out of iterations after an update: re-sync assignments
        assign, err = _nearest(points, centroids, sq_norms)
        centroids, assign, err = _reseed_empty(points, sq_norms, centroids, assign, err, n_codes)
        losses.append(float(err.mean()))
    return centroids, assign, losses


def fit(
    latent_grids: Sequence[CorpusLatents],
    n_coarse: int,
    n_fine: int,
    max_iters: int = 50,
    seed: int = 0,
) -> QuantizerFit:
    """Fit coarse then fine codebooks on the latents of the given corpora.

    The corpora are pooled along their first axis. The coarse stage
    clusters L2-normalized latents; the fine stage clusters the
    residuals against the chosen normalized coarse codewords.
    Deterministic given (inputs, seed).
    """
    if n_coarse < 2 or n_fine < 2:
        raise ConfigError("n_coarse and n_fine must be >= 2")
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    grids = [np.asarray(g.latents, dtype=np.float64) for g in latent_grids]
    if not grids or any(g.ndim < 2 or g.size == 0 for g in grids):
        raise DataError("no latent vectors to fit on")
    if len({g.shape[1:] for g in grids}) > 1:
        raise DataError("pooled corpora must share every latent axis but the first")
    latents = np.concatenate(grids)
    d_dim = latents.shape[-1]
    pool = latents.reshape(-1, d_dim)
    if n_coarse >= len(pool):
        raise DataError(f"n_coarse {n_coarse} must be below the pooled patch count {len(pool)}")
    if n_fine >= len(pool):
        raise DataError(f"n_fine {n_fine} must be below the pooled patch count {len(pool)}")

    rng = np.random.default_rng(seed)
    zn = l2_normalize(pool, axis=1)
    coarse_vecs, coarse_assign, coarse_losses = _lloyd(zn, n_coarse, max_iters, rng)
    residuals = zn - l2_normalize(coarse_vecs, axis=1)[coarse_assign]
    fine_vecs, _, fine_losses = _lloyd(residuals, n_fine, max_iters, rng)

    quantizer = ResidualQuantizer(coarse=coarse_vecs, fine=fine_vecs)
    codes = encode(quantizer, latents)
    return QuantizerFit(
        quantizer=quantizer,
        coarse_idx=codes.coarse_idx,
        fine_idx=codes.fine_idx,
        coarse_losses=tuple(coarse_losses),
        fine_losses=tuple(fine_losses),
    )


def encode(quantizer: ResidualQuantizer, latents: np.ndarray, fine: bool = True) -> Codes:
    """Coarse and fine code indices of latents (..., d_dim), lowest index on ties.

    With fine=False only the coarse stage runs and fine_idx is None.
    """
    lat = np.asarray(latents, dtype=np.float64)
    if lat.ndim < 1 or lat.shape[-1] != quantizer.d_dim:
        raise DataError(
            f"latents of shape {lat.shape} do not match quantizer d_dim {quantizer.d_dim}"
        )
    zn = l2_normalize(lat.reshape(-1, quantizer.d_dim), axis=1)
    coarse_idx, _ = _nearest(zn, quantizer.coarse)
    if not fine:
        return Codes(coarse_idx.reshape(lat.shape[:-1]), None)
    residual = zn - l2_normalize(quantizer.coarse, axis=1)[coarse_idx]
    fine_idx, _ = _nearest(residual, quantizer.fine)
    return Codes(coarse_idx.reshape(lat.shape[:-1]), fine_idx.reshape(lat.shape[:-1]))


def reconstruct(
    quantizer: ResidualQuantizer, coarse_idx: np.ndarray, fine_idx: np.ndarray | None = None
) -> np.ndarray:
    """Sum of the raw (un-normalized) code vectors for each patch.

    Without fine indices, only the coarse vectors are summed.
    """
    coarse_idx = np.asarray(coarse_idx, dtype=np.int64)
    if coarse_idx.min() < 0 or coarse_idx.max() >= len(quantizer.coarse):
        raise DataError("coarse index out of range for this quantizer")
    out = quantizer.coarse[coarse_idx]
    if fine_idx is not None:
        fine_idx = np.asarray(fine_idx, dtype=np.int64)
        if fine_idx.shape != coarse_idx.shape:
            raise DataError("coarse and fine indices must share a shape")
        if fine_idx.min() < 0 or fine_idx.max() >= len(quantizer.fine):
            raise DataError("fine index out of range for this quantizer")
        out = out + quantizer.fine[fine_idx]
    return out


def code_stats(
    quantizer: ResidualQuantizer,
    latents: np.ndarray,
    coarse_idx: np.ndarray,
    fine_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(coarse_counts, fine_counts, mse_coarse, mse_coarse_fine).

    The counts are the uses of each coarse and fine code. Each MSE
    compares the raw code-vector sums against the L2-normalized latents
    the assignment actually quantizes.
    """
    latents = np.asarray(latents, dtype=np.float64)
    coarse_idx = np.asarray(coarse_idx, dtype=np.int64)
    if latents.shape[:-1] != coarse_idx.shape:
        raise DataError("code indices and latents must align")
    if coarse_idx.size == 0:
        raise DataError("no codes given")
    zn = l2_normalize(latents, axis=-1)
    rec_c = reconstruct(quantizer, coarse_idx)
    rec_cf = reconstruct(quantizer, coarse_idx, fine_idx)
    denom = coarse_idx.size * quantizer.d_dim
    return (
        np.bincount(coarse_idx.ravel(), minlength=len(quantizer.coarse)),
        np.bincount(np.ravel(fine_idx), minlength=len(quantizer.fine)),
        float(((zn - rec_c) ** 2).sum()) / denom,
        float(((zn - rec_cf) ** 2).sum()) / denom,
    )


def save_quantizer(
    path,
    quantizer: ResidualQuantizer,
    embed_spec: EmbedSpec,
    patch_length: int,
    seed: int,
    config: dict | None = None,
) -> None:
    header = {
        "kind": "quantizer",
        "d_dim": quantizer.d_dim,
        "n_coarse": len(quantizer.coarse),
        "n_fine": len(quantizer.fine),
        "config": config,
    }
    rec = {
        "coarse": quantizer.coarse.tolist(),
        "fine": quantizer.fine.tolist(),
        "embed_mode": embed_spec.mode,
        "embed_d_dim": embed_spec.d_dim,
        "projection_seed": embed_spec.projection_seed,
        "patch_length": patch_length,
        "seed": seed,
    }
    records.write_record_file(path, header, [rec])


def load_quantizer(path) -> tuple[ResidualQuantizer, EmbedSpec, int, int]:
    """Load (quantizer, embed_spec, patch_length, fit seed) from a bundle.

    The codebooks are matrices of JSON numbers. patch_length, the
    header's d_dim and a set embed_d_dim are positive JSON integers;
    seed and projection_seed are non-negative ones. An embedding the
    bundle describes but EmbedSpec rejects is a DataError.
    """
    header, rec = records.read_one(path, "quantizer")

    def whole(field: str, value, least: int = 1) -> int:
        return records.whole_number(path, f"quantizer {field}", value, least)

    quantizer = ResidualQuantizer(
        coarse=records.numbers(path, "quantizer coarse", rec.get("coarse"), 2),
        fine=records.numbers(path, "quantizer fine", rec.get("fine"), 2),
    )
    d_dim = whole("header d_dim", header.get("d_dim", quantizer.d_dim))
    if d_dim != quantizer.d_dim:
        raise DataError(
            f"{path}: quantizer header d_dim {d_dim} differs from its codebook width {quantizer.d_dim}"
        )
    embed_d_dim = rec.get("embed_d_dim")
    try:
        spec = EmbedSpec(
            mode=rec.get("embed_mode"),
            d_dim=None if embed_d_dim is None else whole("embed_d_dim", embed_d_dim),
            projection_seed=whole("projection_seed", rec.get("projection_seed", 0), 0),
        )
    except ConfigError as exc:
        raise DataError(f"{path}: quantizer {exc}") from exc
    patch_length = whole("patch_length", rec.get("patch_length"))
    return quantizer, spec, patch_length, whole("seed", rec.get("seed"), 0)

"""Residual coarse/fine codebooks over latent patch vectors.

Patches are embedded by per-patch standardization: the mean removed,
scaled by the standard deviation with a small floor, so a latent is as
wide as its patch and blind to its offset and scale, and exactly the
flat patches map to the zero vector. Quantization is a two-stage
residual scheme with cosine geometry: both the latent and the codewords are L2-normalized before
the nearest-neighbor search, first against the coarse book, then the
residual against the fine book. Stored codewords stay un-normalized.

Codebooks are fit with Lloyd iterations rather than gradient descent.
For both stages the assignment metric and the mean update form a
monotone descent pair, and empty codes are re-seeded from the point
with the largest current quantization error, so a fit on the training
pool terminates with every code in use. A stage stops when its
assignments repeat, when a pass lowers the mean error by no more than
_LOSS_TOL of the pass before (the same rule for both stages), or at its
cap of max_iters updates, whichever comes first. Both stages draw their
initial codewords from one PCG64 seeded with the fit seed, which repeats
numpy 2.4's default_rng(seed).choice draw for draw on Python ints: fit
never imports numpy.random (5 MB of RSS for a few draws), and a numpy
release that changes its Generator streams moves no codebook byte.

The nearest-code search ranks codes by |c|^2 - 2 p.c, as |p - c|^2
would, over near-equal row blocks of at most _BLOCK points: one product
of a block's [p, 1] rows with the rows [-2c, |c|^2] fills one (block, k)
buffer that stays in cache, and its argmin, the search's only output, is
the assignment. No block holds a single row, so each goes through the
matrix-matrix product the whole array would. The last bits of its
entries depend on the BLAS kernel; the assignments agreed with the
whole-array argmin under all six OpenBLAS kernels tested (SkylakeX,
Haswell, Zen, Sandybridge, Nehalem, Prescott). The mean update sums each
code's members with one np.bincount per latent dimension, which adds in
point order exactly as np.add.at would, at a fraction of its cost; fit
lays its pool out by columns, so each such column is contiguous. A
pass's loss comes from those sums: a code's members err by
sum |p|^2 - 2 c.sums + count |c|^2 in all, taken elementwise with
sum |p|^2 once per stage, so it reads no GEMM output and its bytes are
the same under every kernel.

Row-wise steps (embedding, normalization, |p|^2, residuals, errors) run
over the same row blocks, each row alone, so their bytes are the
whole-array formula's. embed_dataset writes the latents over the corpus
values. fit holds them and one pool-sized array (normalized latents, then
residuals), code_stats one, and encode none: each block runs end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import records
from ._pcg64 import PCG64
from .dataset import DomainDataset, patchify
from .errors import ConfigError, DataError

_STD_FLOOR = 1e-8
_BLOCK = 2048  # points per block of the nearest-code search
_LOSS_TOL = 1e-4  # a Lloyd stage stops once a pass lowers its loss by at most this fraction


def l2_normalize(x: np.ndarray) -> np.ndarray:
    """v / ||v|| over the last axis, with zero vectors mapped to themselves."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.where(norms == 0.0, 1.0, norms)


def _znorm(b: np.ndarray) -> np.ndarray:
    """Standardized patches (..., patch_length), the flat ones exactly zero: a rounded
    mean leaves them equal tiny deviations, which L2 normalization would blow up."""
    # the mean once: np.std takes the same mean, squares and sums, so every byte is b.std's
    dev = b - b.mean(axis=-1, keepdims=True)
    z = dev / (np.sqrt(np.square(dev).sum(axis=-1, keepdims=True) / b.shape[-1]) + _STD_FLOOR)
    z[(b == b[..., :1]).all(axis=-1)] = 0.0
    return z


@dataclass(frozen=True)
class CorpusLatents:
    """Latent vectors of a whole corpus: (n_instances, n_channels, n_patches, d_dim)."""

    latents: np.ndarray


def embed_dataset(dataset: DomainDataset, patch_length: int) -> CorpusLatents:
    """Patchify and embed every series of a corpus, consuming dataset.values: the latents
    are written over the start of its buffer, so read the values before the call, never after.
    Series blocks are embedded in order, each read before it is written."""
    grid = patchify(dataset.values, patch_length)
    latents = dataset.values.reshape(-1)[: grid.size].reshape(grid.shape)
    series = (-1, *grid.shape[-2:])
    _by_blocks(latents.reshape(series), _znorm, grid.reshape(series), rows_each=grid.shape[-2])
    return CorpusLatents(latents)


@dataclass(frozen=True)
class ResidualQuantizer:
    """Coarse and fine codebooks: (n_codes, d_dim) float64 arrays of the
    same width, each of at least 2 distinct rows whose squared norms are finite."""

    coarse: np.ndarray
    fine: np.ndarray

    def __post_init__(self):
        for name in ("coarse", "fine"):
            vectors = np.asarray(getattr(self, name), dtype=np.float64)
            if vectors.ndim != 2:
                raise DataError("codebook vectors must be 2-D (n_codes, d_dim)")
            if vectors.shape[0] < 2:
                raise DataError("codebook needs at least 2 codes")
            with np.errstate(over="ignore"):  # a row whose squares overflow would normalize to 0
                if not np.all(np.isfinite(np.square(vectors).sum(axis=1))):
                    raise DataError("codebook contains non-finite vectors or one whose squared norm overflows")
            # a set of row tuples sees -0.0 as 0.0, like np.unique, without importing numpy.ma
            if len(set(map(tuple, vectors.tolist()))) != len(vectors):
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


def _block_bounds(n: int, rows_each: int = 1) -> np.ndarray:
    """Bounds of ceil(n * rows_each / _BLOCK) near-equal blocks of n items of rows_each rows.

    Near-equal blocks of rows hold at least 2 whenever n does, so each
    goes through the same matrix-matrix product as the whole array would;
    a 1-row block would take numpy's vector-matrix path, whose sums can
    round differently.
    """
    n_blocks = max(1, -(-n * rows_each // _BLOCK))
    return np.arange(n_blocks + 1) * n // n_blocks


def _by_blocks(out: np.ndarray, row_wise, *arrays, rows_each: int = 1) -> np.ndarray:
    """out = row_wise(*arrays), computed and stored one block at a time."""
    bounds = _block_bounds(len(out), rows_each)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        out[lo:hi] = row_wise(*(a[lo:hi] for a in arrays))
    return out


def _sq_norms(points: np.ndarray) -> np.ndarray:
    """|p|^2 of every row, summed over C-ordered squares by blocks, so any layout gives the same bytes."""
    return _by_blocks(np.empty(len(points)), lambda p: np.multiply(p, p, order="C").sum(axis=1), points)


def _nearest(points: np.ndarray, codewords: np.ndarray) -> np.ndarray:
    """Assignment to the nearest L2-normalized codeword; ties -> lowest index."""
    cn = l2_normalize(codewords)
    # a row [p, 1] times a row [-2c, |c|^2] is |c|^2 - 2 p.c; doubling is exact
    lifted = np.concatenate([-2.0 * cn, (cn * cn).sum(axis=1)[:, None]], axis=1)
    n, d = points.shape
    assign = np.empty(n, dtype=np.intp)
    bounds = _block_bounds(n)
    rows = int(np.diff(bounds).max())
    padded = np.ones((rows, d + 1))  # [p, 1] rows
    buf = np.empty((rows, len(cn)))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block, g = padded[: hi - lo], buf[: hi - lo]
        block[:, :d] = points[lo:hi]
        np.matmul(block, lifted.T, out=g)
        assign[lo:hi] = np.argmin(g, axis=1)
    return assign


def _reseed_empty(points, centroids, assign, n_codes):
    """Re-seed codes with no members from the worst-quantized point."""
    for _ in range(n_codes):
        used = np.bincount(assign, minlength=n_codes)
        empty = np.flatnonzero(used == 0)
        if empty.size == 0:
            break
        cn = l2_normalize(centroids)
        err = _by_blocks(np.empty(len(points)), lambda p, a: np.square(p - cn[a], order="C").sum(axis=1), points, assign)
        centroids = centroids.copy()
        centroids[empty[0]] = points[int(np.argmax(err))]
        assign = _nearest(points, centroids)
    return centroids, assign


def _code_sums(columns, assign, n_codes):
    """Per-code sums of the points, given as (d_dim, n) columns: (n_codes, d_dim).

    bincount adds each code's members in point order, as np.add.at over
    the rows would, so the sums are bitwise the same.
    """
    return np.stack(
        [np.bincount(assign, weights=col, minlength=n_codes) for col in columns], axis=1
    )


def _draw_distinct(points, n_codes, rng):
    """np.unique(points, axis=0)[rng.choice(n_distinct, n_codes, replace=False)], in O(n) memory.

    np.unique's order is lexicographic over float columns (-0.0 equals 0.0):
    one argsort of the first column, then each run of tied first values
    re-sorted stably on every column, last first. A rank takes its run's first row.
    """
    order = np.argsort(points[:, 0])
    tie = np.flatnonzero(np.diff(points[order, 0]) == 0.0)  # sorted row i ties with row i + 1
    tied = np.zeros(len(points), dtype=bool)  # a mask: np.union1d would import numpy.ma
    tied[tie] = tied[tie + 1] = True
    run = np.sort(order[tied])
    for col in points.T[::-1]:
        run = run[np.argsort(col[run], kind="stable")]
    order[tied] = run
    same = np.all([col[order[tie]] == col[order[tie + 1]] for col in points.T], axis=0)
    starts = np.delete(np.arange(len(points)), tie[same] + 1)
    if len(starts) < n_codes:
        raise DataError(f"need at least {n_codes} distinct vectors to fit {n_codes} codes, have {len(starts)}")
    return points[order[starts[rng.choice(len(starts), size=n_codes, replace=False)]]]


def _lloyd(points, n_codes, max_iters, rng):
    """Lloyd iterations under the normalized-codeword metric.

    Initial codewords are distinct pool rows drawn at np.unique's ranks
    (_draw_distinct). Each of at most max_iters + 1 passes assigns,
    re-seeds empties, sums each code's members and records the mean
    error read off those sums, then stops when the passes run out, when
    the assignments repeat, or when the loss fell by at most _LOSS_TOL
    of the previous pass's loss; else the same sums update the means.
    The recorded trace is non-increasing. It holds at most
    max_iters losses when the stage converged (by either rule), and
    max_iters + 1 when the stage hit its cap.
    """
    centroids = _draw_distinct(points, n_codes, rng)
    sq_total = _sq_norms(points).sum()
    losses: list[float] = []
    prev = None
    for it in range(max_iters + 1):
        centroids, assign = _reseed_empty(points, centroids, _nearest(points, centroids), n_codes)
        sums = _code_sums(points.T, assign, n_codes)
        counts = np.bincount(assign, minlength=n_codes).astype(np.float64)
        cn = l2_normalize(centroids)
        # the members' |p - c|^2 sum to their |p|^2 - 2 c.sums + counts |c|^2, elementwise
        losses.append(float(sq_total - 2.0 * (cn * sums).sum() + (counts * (cn * cn).sum(axis=1)).sum()) / len(points))
        if it == max_iters:
            break
        if prev is not None and (
            np.array_equal(assign, prev) or losses[-2] - losses[-1] <= _LOSS_TOL * losses[-2]
        ):
            break
        prev = assign
        centroids = sums / counts[:, None]
    return centroids, assign, losses


def fit(
    latent_grids: Sequence[CorpusLatents], n_coarse: int, n_fine: int, max_iters: int = 50, seed: int = 0
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
    latents = grids[0] if len(grids) == 1 else np.concatenate(grids)
    pool = latents.reshape(-1, latents.shape[-1])
    for name, n_codes in (("n_coarse", n_coarse), ("n_fine", n_fine)):
        if n_codes >= len(pool):
            raise DataError(f"{name} {n_codes} must be below the pooled patch count {len(pool)}")

    rng = PCG64(seed)
    # column-major, so the mean update hands np.bincount contiguous columns
    work = _by_blocks(np.empty(pool.shape[::-1]).T, l2_normalize, pool)
    coarse_vecs, coarse_assign, coarse_losses = _lloyd(work, n_coarse, max_iters, rng)
    cn = l2_normalize(coarse_vecs)
    _by_blocks(work, lambda w, a: w - cn[a], work, coarse_assign)  # residuals, in place
    fine_vecs, _, fine_losses = _lloyd(work, n_fine, max_iters, rng)

    quantizer = ResidualQuantizer(coarse=coarse_vecs, fine=fine_vecs)
    codes = encode(quantizer, latents)
    return QuantizerFit(quantizer, codes.coarse_idx, codes.fine_idx, tuple(coarse_losses), tuple(fine_losses))


def encode(quantizer: ResidualQuantizer, latents: np.ndarray, fine: bool = True) -> Codes:
    """Coarse and fine code indices of latents (..., d_dim), lowest index on ties.

    With fine=False only the coarse stage runs and fine_idx is None.
    """
    lat = np.asarray(latents, dtype=np.float64)
    if lat.ndim < 1 or lat.shape[-1] != quantizer.d_dim:
        raise DataError(f"latents of shape {lat.shape} do not match quantizer d_dim {quantizer.d_dim}")
    rows = lat.reshape(-1, quantizer.d_dim)
    cn = l2_normalize(quantizer.coarse)
    coarse_idx = np.empty(len(rows), dtype=np.intp)
    fine_idx = np.empty(len(rows), dtype=np.intp) if fine else None
    bounds = _block_bounds(len(rows))
    # each row block runs end to end, each search a one-block _nearest
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        z = l2_normalize(rows[lo:hi])
        coarse_idx[lo:hi] = _nearest(z, quantizer.coarse)
        if fine:
            fine_idx[lo:hi] = _nearest(z - cn[coarse_idx[lo:hi]], quantizer.fine)
    return Codes(coarse_idx.reshape(lat.shape[:-1]), fine_idx.reshape(lat.shape[:-1]) if fine else None)


def code_stats(
    quantizer: ResidualQuantizer, latents: np.ndarray, coarse_idx: np.ndarray, fine_idx: np.ndarray
) -> tuple[float, float]:
    """(mse_coarse, mse_coarse_fine): the mean squared error of coarse[c] and
    of coarse[c] + fine[f] against the L2-normalized latents the assignment
    quantizes. Each index array is shaped like the latents without their last
    axis, non-empty, and in [0, len(book)): numpy would wrap a negative index.
    Squared errors fill one latents-shaped array, summed in whole-array order.
    """
    latents = np.asarray(latents, dtype=np.float64)
    c, f = (np.asarray(i, dtype=np.int64) for i in (coarse_idx, fine_idx))
    for name, i, book in (("coarse", c, quantizer.coarse), ("fine", f, quantizer.fine)):
        if i.shape + book.shape[1:] != latents.shape or i.size == 0:
            raise DataError(f"{name} indices {i.shape} are empty or misaligned with latents {latents.shape}")
        if i.min() < 0 or i.max() >= len(book):
            raise DataError(f"{name} index out of range [0, {len(book)}) for this quantizer")
    rows, c, f = latents.reshape(-1, latents.shape[-1]), c.ravel(), f.ravel()
    err = np.empty(latents.shape)
    mse = []
    for rec in (lambda i, j: quantizer.coarse[i], lambda i, j: quantizer.coarse[i] + quantizer.fine[j]):
        _by_blocks(err.reshape(rows.shape), lambda z, i, j: (l2_normalize(z) - rec(i, j)) ** 2, rows, c, f)
        mse.append(float(err.sum()) / err.size)
    return tuple(mse)


def save_quantizer(
    path, quantizer: ResidualQuantizer, patch_length: int, seed: int, config: dict | None = None
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
        "patch_length": patch_length,
        "seed": seed,
    }
    records.write_record_file(path, header, [rec])


def load_quantizer(path) -> tuple[ResidualQuantizer, int, int]:
    """Load (quantizer, patch_length, fit seed) from a bundle.

    The codebooks are matrices of JSON numbers. patch_length and the
    header's d_dim are positive JSON integers, and the seed is a
    non-negative one. The header's n_coarse and n_fine must be the
    codebooks' lengths. A latent is as wide as its patch, so a codebook
    width other than patch_length is a DataError, and so is an older
    bundle's embed_mode other than "znorm", the only embedding.
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
    for key, book in (("n_coarse", quantizer.coarse), ("n_fine", quantizer.fine)):
        records.require_count(path, header, key, len(book), "codes")
    patch_length = whole("patch_length", rec.get("patch_length"))
    if patch_length != quantizer.d_dim:
        raise DataError(
            f"{path}: quantizer codebook width {quantizer.d_dim} differs from its patch_length {patch_length}"
        )
    if rec.get("embed_mode", "znorm") != "znorm":
        raise DataError(f"{path}: quantizer embed_mode {rec['embed_mode']!r} is not 'znorm', the only embedding")
    return quantizer, patch_length, whole("seed", rec.get("seed"), 0)

"""Embedding, residual codebook fitting, and code assignment."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from codechain import _pcg64, records, rvq, synth
from codechain import dataset as ds
from codechain.errors import ConfigError, DataError
from oracles import unique_draw


def grid_from(values, m):
    return ds.patchify(np.asarray(values, dtype=np.float64), m)


def latent_from(points):
    # one channel, one latent row per point
    arr = np.asarray(points, dtype=np.float64)
    return arr[None, :, :]


def cluster_cloud(n_dirs, per_dir, d, seed=0, spread=0.02):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n_dirs, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    points = np.repeat(dirs, per_dir, axis=0) + spread * rng.normal(size=(n_dirs * per_dir, d))
    return latent_from(points), dirs


# ---------------------------------------------------------------- embed

def test_embed_removes_mean_and_scales():
    grid = grid_from([[1.0, 2.0, 3.0, 4.0]], 4)
    latent = rvq._znorm(grid)[0, 0]
    std = np.std([1.0, 2.0, 3.0, 4.0])
    assert std == 1.118033988749895
    assert_allclose(latent, np.array([-1.5, -0.5, 0.5, 1.5]) / (std + 1e-8), rtol=0, atol=0)
    assert abs(latent.mean()) < 1e-15


def test_embed_constant_patch_is_zero():
    grid = grid_from([[5.0, 5.0, 5.0, 5.0]], 4)
    assert_array_equal(rvq._znorm(grid)[0, 0], np.zeros(4))


def test_embed_unit_power():
    rng = np.random.default_rng(1)
    grid = grid_from(rng.normal(size=(3, 32)), 8)
    latents = rvq._znorm(grid)
    power = (latents ** 2).sum(axis=-1) / 8
    assert_allclose(power, 1.0, atol=1e-6)


@pytest.mark.parametrize("m", [3, 5, 7, 10, 12, 33])
def test_embed_maps_a_flat_patch_to_exactly_zero_at_any_patch_length(m):
    # a rounded mean left -7.3e-4 in every slot of the length-3 patch -53566.94
    rng = np.random.default_rng(m)
    values = rng.normal(size=2000) * 10.0 ** rng.integers(-6, 7, size=2000)
    values[0] = -53566.94
    flat = np.repeat(values[:, None], m, axis=1)
    assert not rvq._znorm(flat).any()
    noisy = flat.copy()
    noisy[:, -1] = np.nextafter(noisy[:, -1], np.inf)
    assert rvq._znorm(noisy).any(axis=-1).all()


# ---------------------------------------------------------------- codebooks

def with_each_book(bad):
    """Quantizer arguments that put a bad book first as coarse, then as fine."""
    good = np.array([[1.0, 0.0], [0.0, 1.0]])
    return [{"coarse": bad, "fine": good}, {"coarse": good, "fine": bad}]


def test_codebook_needs_two_distinct_finite_rows():
    for bad, message in [
        (np.array([1.0, 0.0]), "must be 2-D"),
        (np.array([[1.0, 0.0]]), "at least 2 codes"),
        (np.array([[1.0, 0.0], [1.0, 0.0]]), "duplicate vectors"),
        (np.array([[1.0, 0.0], [np.inf, 0.0]]), "non-finite"),
        # finite entries whose squares overflow; pytest turns a numpy overflow warning into a failure
        (np.array([[1.0, 0.0], [1e300, 1e300]]), "squared norm overflows"),
    ]:
        for books in with_each_book(bad):
            with pytest.raises(DataError, match=message):
                rvq.ResidualQuantizer(**books)


def test_quantizer_rejects_books_of_different_widths():
    with pytest.raises(DataError, match="differ in width"):
        rvq.ResidualQuantizer(coarse=np.eye(2), fine=np.eye(3))
    q = rvq.ResidualQuantizer(coarse=[[1, 0, 0], [0, 1, 0]], fine=np.eye(3))
    assert q.d_dim == 3 and q.coarse.dtype == np.float64


def test_l2_normalize_zero_stays_zero():
    assert_array_equal(rvq.l2_normalize(np.zeros(3)), np.zeros(3))
    v = rvq.l2_normalize(np.array([3.0, 4.0]))
    assert_allclose(v, [0.6, 0.8], atol=0)


# ---------------------------------------------------------------- encode

def axis_quantizer():
    coarse = np.array([[1.0, 0.0], [0.0, 1.0]])
    fine = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    return rvq.ResidualQuantizer(coarse=coarse, fine=fine)


def test_encode_axis_example():
    q = axis_quantizer()
    coarse_idx, fine_idx = rvq.encode(q, latent_from([[0.9, 0.1]]))
    assert coarse_idx[0, 0] == 0
    # residual l2(z) - e0 points almost straight up
    assert fine_idx[0, 0] == 1


def test_encode_parallel_latent_picks_that_code():
    rng = np.random.default_rng(4)
    vectors = rng.normal(size=(6, 5))
    q = rvq.ResidualQuantizer(coarse=vectors, fine=rng.normal(size=(4, 5)))
    z = 2.5 * vectors[3]
    coarse_idx, fine_idx = rvq.encode(q, latent_from([z]))
    assert coarse_idx[0, 0] == 3


def test_encode_zero_latent_ties_to_lowest_index():
    q = axis_quantizer()
    coarse_idx, fine_idx = rvq.encode(q, latent_from([[0.0, 0.0]]))
    # every coarse code is at distance 1 from the zero vector, tie -> 0
    assert coarse_idx[0, 0] == 0
    # residual is -e0 = (-1, 0), exactly fine code 2
    assert fine_idx[0, 0] == 2


def test_encode_zero_latent_goes_to_the_least_rounded_normalized_norm():
    # a flat patch's zero latent scores |c|^2 of each normalized codeword, which rounds to
    # 1 + 2^-52, 1 - 2^-53, 1 - 2^-52 and exactly 1 here: code 2 wins, not the lowest index
    coarse = np.array([[1.0, 5.0], [1.0, 2.0], [1.0, 1.0], [1.0, 0.0]])
    cn = rvq.l2_normalize(coarse)
    least = np.argmin((cn * cn).sum(axis=1))
    assert least == 2
    q = rvq.ResidualQuantizer(coarse=coarse, fine=np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert rvq.encode(q, latent_from([[0.0, 0.0]])).coarse_idx[0, 0] == least


@pytest.mark.parametrize(
    "rows", [[[1.0, 2.0], [0.0, 1.0], [1.0, 2.0]], [[0.0, 1.0], [-0.0, 1.0]], [[3.0, 1.0], [1.0, 3.0], [3.0, 1.0]]]
)
def test_codebook_rejects_a_duplicate_vector_wherever_it_sits(rows):
    for books in with_each_book(np.array(rows)):
        with pytest.raises(DataError, match="duplicate vectors"):
            rvq.ResidualQuantizer(**books)


def test_encode_tie_on_duplicate_direction_prefers_lower():
    coarse = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    fine = np.array([[0.5, 0.5], [-0.5, 0.5]])
    q = rvq.ResidualQuantizer(coarse=coarse, fine=fine)
    coarse_idx, fine_idx = rvq.encode(q, latent_from([[3.0, 0.2]]))
    assert coarse_idx[0, 0] == 0


def test_encode_matches_exhaustive_scan():
    rng = np.random.default_rng(5)
    for _ in range(200):
        nc, nf, d = rng.integers(2, 9), rng.integers(2, 9), rng.integers(2, 6)
        coarse = rng.normal(size=(nc, d))
        fine = rng.normal(size=(nf, d))
        q = rvq.ResidualQuantizer(coarse=coarse, fine=fine)
        z = rng.normal(size=d)
        coarse_idx, fine_idx = rvq.encode(q, latent_from([z]))
        zn = rvq.l2_normalize(z)
        cd = [np.sum((zn - rvq.l2_normalize(v)) ** 2) for v in coarse]
        c_best = int(np.argmin(cd))
        assert coarse_idx[0, 0] == c_best
        r = zn - rvq.l2_normalize(coarse[c_best])
        fd = [np.sum((r - rvq.l2_normalize(v)) ** 2) for v in fine]
        assert fine_idx[0, 0] == int(np.argmin(fd))


# ---------------------------------------------------------------- fit

def test_fit_separated_directions_uses_every_code():
    latents, _ = cluster_cloud(8, 25, 6, seed=6)
    result = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=8, n_fine=4, max_iters=50, seed=0)
    coarse_idx, fine_idx = rvq.encode(result.quantizer, latents)
    used = np.bincount(coarse_idx.reshape(-1), minlength=8)
    assert np.all(used > 0)


def test_fit_losses_non_increasing():
    latents, _ = cluster_cloud(5, 30, 4, seed=7, spread=0.3)
    result = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=4, n_fine=6, max_iters=40, seed=1)
    for trace in (result.coarse_losses, result.fine_losses):
        arr = np.asarray(trace)
        assert arr.size >= 1 and np.all(np.isfinite(arr))
        assert np.all(np.diff(arr) <= 1e-12)


@pytest.mark.parametrize("n_coarse, n_fine", [(8, 64), (64, 8)])
@pytest.mark.parametrize("max_iters", [3, 50])
def test_each_stage_records_the_brute_force_mean_error_of_its_last_pass(n_coarse, n_fine, max_iters):
    latents = rvq._znorm(np.random.default_rng(0).normal(size=(200, 3, 16, 8)))
    result = rvq.fit([rvq.CorpusLatents(latents)], n_coarse, n_fine, max_iters=max_iters, seed=1)
    q = result.quantizer
    pool = rvq.l2_normalize(latents.reshape(-1, 8))
    residuals = pool - rvq.l2_normalize(q.coarse)[result.coarse_idx.ravel()]
    # each stage's last pass measures the returned codewords against the assignments fit returns
    stages = (
        (pool, q.coarse, result.coarse_idx, result.coarse_losses),
        (residuals, q.fine, result.fine_idx, result.fine_losses),
    )
    for points, book, idx, losses in stages:
        brute = ((points - rvq.l2_normalize(book)[idx.ravel()]) ** 2).sum(axis=1).mean()
        assert abs(losses[-1] - brute) <= 1e-12


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    # points, width, codes
    shape=st.tuples(st.integers(4, 60), st.integers(2, 4), st.integers(2, 5)),
    max_iters=st.integers(1, 30),
    on_grid=st.booleans(),
)
# without the loss rule this stage runs to its cap, its loss flat for most of the way
@example(seed=4, shape=(60, 4, 5), max_iters=30, on_grid=True)
def test_a_lloyd_stage_stops_at_its_cap_a_repeat_or_a_small_loss_drop(seed, shape, max_iters, on_grid):
    n, d, k = shape
    rng = np.random.default_rng(seed)
    # unit rows from a small integer grid, like the coarse stage's pool, repeat and tie often;
    # Gaussian rows stand in for the fine stage's residuals
    if on_grid:
        points = rvq.l2_normalize(rng.integers(-2, 3, size=(n, d)).astype(np.float64))
    else:
        points = rng.normal(size=(n, d))
    assume(len(set(map(tuple, points.tolist()))) >= k)
    centroids, assign, losses = rvq._lloyd(points, k, max_iters, rng)
    losses = np.asarray(losses)
    drops = losses[:-1] - losses[1:]
    assert 2 <= len(losses) <= max_iters + 1
    assert np.all(drops >= -1e-12 * losses[:-1])
    # the loss rule can only have ended the stage on its last pass
    assert np.all(drops[:-1] > rvq._LOSS_TOL * losses[:-2])
    capped = len(losses) == max_iters + 1
    # repeated assignments leave each codeword the mean of its members
    counts = np.bincount(assign, minlength=k).astype(np.float64)
    repeated = np.array_equal(rvq._code_sums(points.T, assign, k) / counts[:, None], centroids)
    small_drop = drops[-1] <= rvq._LOSS_TOL * losses[-2]
    assert capped or repeated or small_drop


def test_fit_is_deterministic():
    latents, _ = cluster_cloud(4, 20, 3, seed=8)
    a = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=3, n_fine=4, max_iters=30, seed=5)
    b = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=3, n_fine=4, max_iters=30, seed=5)
    assert a.quantizer.coarse.tobytes() == b.quantizer.coarse.tobytes()
    assert a.quantizer.fine.tobytes() == b.quantizer.fine.tobytes()
    assert a.coarse_losses == b.coarse_losses


def test_fit_insufficient_data():
    latents = latent_from(np.random.default_rng(0).normal(size=(3, 4)))
    with pytest.raises(DataError):
        rvq.fit([rvq.CorpusLatents(latents)], n_coarse=5, n_fine=2)
    with pytest.raises(DataError):
        rvq.fit([rvq.CorpusLatents(latents)], n_coarse=2, n_fine=10)


# ---------------------------------------------------------------- codebook sums

def test_codebook_sums_rebuild_a_latent_whose_indices_encode_recovers():
    # unit coarse and fine codes 120 degrees apart: their sum is unit
    # norm again, so normalized assignment recovers both indices exactly
    c0 = np.array([1.0, 0.0])
    f0 = np.array([-0.5, math.sqrt(3.0) / 2.0])
    coarse = np.stack([c0, np.array([0.0, -1.0])])
    fine = np.stack([f0, np.array([0.6, -0.8])])
    q = rvq.ResidualQuantizer(coarse=coarse, fine=fine)
    z = coarse[0] + fine[0]
    coarse_idx, fine_idx = rvq.encode(q, latent_from([z]))
    assert coarse_idx[0, 0] == 0 and fine_idx[0, 0] == 0
    assert_array_equal(q.coarse[coarse_idx] + q.fine[fine_idx], latent_from([z]))


# ---------------------------------------------------------------- stats, io

def test_code_stats_mse_matches_a_direct_reconstruction():
    latents, _ = cluster_cloud(4, 30, 5, seed=9, spread=0.4)
    result = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=4, n_fine=8, max_iters=50, seed=2)
    q = result.quantizer
    coarse_idx, fine_idx = rvq.encode(q, latents)
    mse_coarse, mse_coarse_fine = rvq.code_stats(q, latents, coarse_idx, fine_idx)
    zn = latents / np.linalg.norm(latents, axis=-1, keepdims=True)
    assert_allclose(mse_coarse, ((zn - q.coarse[coarse_idx]) ** 2).mean(), rtol=1e-12)
    assert_allclose(
        mse_coarse_fine, ((zn - q.coarse[coarse_idx] - q.fine[fine_idx]) ** 2).mean(), rtol=1e-12
    )
    assert mse_coarse_fine <= mse_coarse + 1e-9


@pytest.mark.parametrize("book", ["coarse", "fine"])
@pytest.mark.parametrize("case", ["misaligned", "negative", "too-large"])
def test_code_stats_refuses_indices_that_do_not_fit_their_book(book, case):
    q = axis_quantizer()  # 2 coarse codes, 4 fine codes
    idx = {"coarse": np.array([[0, 1]]), "fine": np.array([[2, 3]])}
    idx[book] = {
        "misaligned": np.array([[0]]),
        "negative": np.array([[0, -1]]),  # numpy indexing would wrap it to the last code
        "too-large": np.array([[0, len(getattr(q, book))]]),
    }[case]
    match = "indices .* misaligned" if case == "misaligned" else "index out of range"
    with pytest.raises(DataError, match=f"{book} {match}"):
        rvq.code_stats(q, np.ones((1, 2, 2)), idx["coarse"], idx["fine"])


def test_code_stats_refuses_empty_indices():
    empty = np.zeros((1, 0), dtype=np.int64)
    with pytest.raises(DataError, match="coarse indices .* are empty"):
        rvq.code_stats(axis_quantizer(), np.ones((1, 0, 2)), empty, empty)


def test_quantizer_round_trip_bit_exact(tmp_path):
    latents, _ = cluster_cloud(3, 15, 4, seed=10)
    result = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=3, n_fine=4, max_iters=20, seed=3)
    path = tmp_path / "q.jsonl"
    rvq.save_quantizer(path, result.quantizer, patch_length=4, seed=3)
    back, back_m, back_seed = rvq.load_quantizer(path)
    assert back.coarse.tobytes() == result.quantizer.coarse.tobytes()
    assert back.fine.tobytes() == result.quantizer.fine.tobytes()
    assert (back_m, back_seed) == (4, 3)


@pytest.mark.parametrize(
    "part, key, value",
    [
        ("record", "patch_length", 8.9),
        ("record", "patch_length", "4"),
        ("record", "patch_length", True),
        ("record", "patch_length", 0),
        ("record", "seed", True),
        ("record", "seed", 3.0),
        ("record", "seed", -1),
        ("record", "seed", None),
        ("header", "d_dim", 4.0),
        ("header", "d_dim", True),
        ("header", "d_dim", "4"),
    ],
)
def test_load_quantizer_rejects_a_field_that_is_not_an_integer(tmp_path, part, key, value):
    latents, _ = cluster_cloud(3, 15, 4, seed=10)
    result = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=3, n_fine=4, max_iters=5, seed=3)
    path = tmp_path / "q.jsonl"
    rvq.save_quantizer(path, result.quantizer, patch_length=4, seed=3)
    header, recs = records.read_record_file(path)
    rec = next(recs)
    recs.close()
    (header if part == "header" else rec)[key] = value
    records.write_record_file(path, header, [rec])
    with pytest.raises(DataError, match=f"{key} .* is not a (positive|non-negative) integer"):
        rvq.load_quantizer(path)


def test_load_quantizer_rejects_a_header_d_dim_that_differs_from_the_codebooks(tmp_path):
    latents, _ = cluster_cloud(3, 15, 4, seed=10)
    result = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=3, n_fine=4, max_iters=5, seed=3)
    path = tmp_path / "q.jsonl"
    rvq.save_quantizer(path, result.quantizer, patch_length=4, seed=3)
    header, recs = records.read_record_file(path)
    rec = next(recs)
    recs.close()
    header["d_dim"] = 5
    records.write_record_file(path, header, [rec])
    with pytest.raises(DataError, match="header d_dim 5 differs from its codebook width 4"):
        rvq.load_quantizer(path)


@pytest.mark.parametrize("key", ["n_coarse", "n_fine"])
def test_load_quantizer_rejects_a_header_code_count_its_book_does_not_hold(tmp_path, key):
    latents, _ = cluster_cloud(3, 15, 4, seed=10)
    result = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=3, n_fine=4, max_iters=5, seed=3)
    path = tmp_path / "q.jsonl"
    rvq.save_quantizer(path, result.quantizer, patch_length=4, seed=3)
    header, (rec,) = records.read_record_file(path)
    held = header[key]
    records.write_record_file(path, {**header, key: held + 5}, [rec])
    with pytest.raises(DataError, match=f"quantizer header {key} is {held + 5}, the file holds {held} codes"):
        rvq.load_quantizer(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        # an older bundle records its embedding; only "znorm", the one embedding there is, loads
        ("embed_mode", "bogus", "embed_mode 'bogus' is not 'znorm', the only embedding"),
        ("embed_mode", None, "embed_mode None is not 'znorm', the only embedding"),
        ("embed_mode", "raw", "embed_mode 'raw' is not 'znorm', the only embedding"),
        ("patch_length", 5, "codebook width 4 differs from its patch_length 5"),
    ],
    ids=["unknown-mode", "null-mode", "raw-mode", "width-not-patch-length"],
)
def test_load_quantizer_rejects_an_embedding_spec_as_a_data_error(tmp_path, key, value, message):
    latents, _ = cluster_cloud(3, 15, 4, seed=10)
    result = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=3, n_fine=4, max_iters=5, seed=3)
    path = tmp_path / "q.jsonl"
    rvq.save_quantizer(path, result.quantizer, patch_length=4, seed=3)
    header, recs = records.read_record_file(path)
    rec = next(recs)
    recs.close()
    rec[key] = value
    records.write_record_file(path, header, [rec])
    with pytest.raises(DataError, match=message) as exc:
        rvq.load_quantizer(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("key", ["coarse", "fine"])
@pytest.mark.parametrize("spoil", ["string", "bool", "ragged"])
def test_load_quantizer_rejects_codebook_cells_that_are_not_json_numbers(tmp_path, key, spoil):
    latents, _ = cluster_cloud(3, 15, 4, seed=10)
    result = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=3, n_fine=4, max_iters=5, seed=3)
    path = tmp_path / "q.jsonl"
    rvq.save_quantizer(path, result.quantizer, patch_length=4, seed=3)
    header, (rec,) = records.read_record_file(path)
    rows = rec[key]
    if spoil == "string":
        rows[0][0] = str(rows[0][0])
    elif spoil == "bool":
        rows[0][0] = True
    else:
        rows[1].pop()
    records.write_record_file(path, header, [rec])
    with pytest.raises(DataError, match=f"quantizer {key} is not a 2-D array of JSON numbers"):
        rvq.load_quantizer(path)


def test_encode_dataset_shapes():
    rng = np.random.default_rng(11)
    latents = rvq._znorm(ds.patchify(rng.normal(size=(4, 2, 20)), 5))
    result = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=2, n_fine=2, max_iters=10, seed=0)
    coarse_idx, fine_idx = rvq.encode(result.quantizer, latents)
    assert len(coarse_idx) == 4
    for c, f in zip(coarse_idx, fine_idx):
        assert c.shape == (2, 4)
        assert f.shape == (2, 4)


def test_fit_assignments_equal_a_fresh_encode_of_the_training_latents():
    source, _ = synth.generate(synth.SynthConfig(n_source=60, n_target=4, seed=12))
    latents = rvq._znorm(ds.patchify(source.values, 8))
    result = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=8, n_fine=16, max_iters=50, seed=0)
    coarse_idx, fine_idx = rvq.encode(result.quantizer, latents)
    assert result.coarse_idx.shape == result.fine_idx.shape == latents.shape[:-1]
    assert_array_equal(result.coarse_idx, coarse_idx)
    assert_array_equal(result.fine_idx, fine_idx)
    # exhaustive scan over both books, by explicit squared differences
    zn = rvq.l2_normalize(latents.reshape(-1, latents.shape[-1]))
    cn = rvq.l2_normalize(result.quantizer.coarse)
    fn = rvq.l2_normalize(result.quantizer.fine)
    c_best = ((zn[:, None, :] - cn[None]) ** 2).sum(axis=2).argmin(axis=1)
    r = zn - cn[c_best]
    f_best = ((r[:, None, :] - fn[None]) ** 2).sum(axis=2).argmin(axis=1)
    assert_array_equal(result.coarse_idx.ravel(), c_best)
    assert_array_equal(result.fine_idx.ravel(), f_best)


def test_fit_pools_corpora_along_the_instance_axis():
    rng = np.random.default_rng(14)
    a = rvq._znorm(ds.patchify(rng.normal(size=(5, 2, 24)), 6))
    b = rvq._znorm(ds.patchify(rng.normal(size=(3, 2, 24)), 6))
    pooled = rvq.fit([rvq.CorpusLatents(a), rvq.CorpusLatents(b)], n_coarse=3, n_fine=4, seed=1)
    joined = rvq.fit([rvq.CorpusLatents(np.concatenate([a, b]))], n_coarse=3, n_fine=4, seed=1)
    assert pooled.coarse_idx.shape == (8, 2, 4)
    assert_array_equal(pooled.quantizer.coarse, joined.quantizer.coarse)
    assert_array_equal(pooled.fine_idx, joined.fine_idx)
    with pytest.raises(DataError):
        rvq.fit([rvq.CorpusLatents(a), rvq.CorpusLatents(a[:, :1])], n_coarse=3, n_fine=4)
    with pytest.raises(DataError):
        rvq.fit([], n_coarse=3, n_fine=4)


def test_embed_dataset_embeds_the_whole_corpus():
    source, _ = synth.generate(synth.SynthConfig(n_source=6, n_target=2, seed=15))
    values = source.values.copy()  # the call consumes source.values
    got = rvq.embed_dataset(source, 8).latents
    assert got.shape == (6, source.n_channels, source.length // 8, 8)
    assert_array_equal(got, rvq._znorm(ds.patchify(values, 8)))


@pytest.mark.parametrize("length", [128, 129], ids=["znorm-128", "znorm-129"])
def test_embed_dataset_writes_the_latents_of_its_values_over_them(length):
    # 4800 series of 16 patches: several blocks, and at length 129 a remainder left behind each series
    rng = np.random.default_rng(length)
    values = rng.normal(size=(1600, 3, length)) * rng.uniform(0.1, 10.0, size=(1600, 3, 1))
    values[0, 1] = 2.5  # constant patches go to the zero vector
    source = ds.DomainDataset(values.copy(), [f"i{n}" for n in range(1600)], np.zeros(1600), 1, "source")
    got = rvq.embed_dataset(source, 8).latents
    want = rvq._znorm(ds.patchify(values, 8))
    assert got.shape == want.shape == (1600, 3, 16, 8)
    assert got.tobytes() == want.tobytes()
    assert np.shares_memory(got, source.values)


@pytest.mark.parametrize("length", [128, 129])
def test_embed_dataset_holds_a_quarter_pool_beyond_its_input_at_any_series_length(length):
    # 48000 patches of width 8: a 2048-row block is small beside the pool
    values = np.random.default_rng(1).normal(size=(1000, 3, length))
    source = ds.DomainDataset(values.copy(), [f"i{n}" for n in range(1000)], np.zeros(1000), 1, "source")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        latents = rvq.embed_dataset(source, 8).latents
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert latents.tobytes() == rvq._znorm(ds.patchify(values, 8)).tobytes()
    # a few blocks come to 0.11 pools at length 128 and 0.13 at 129; a copy of the strided patches breaks it
    assert peak <= 0.25 * latents.nbytes


def test_whole_corpus_embed_and_encode_match_one_instance_at_a_time():
    source, _ = synth.generate(synth.SynthConfig(n_source=12, n_target=4, seed=13))
    latents = rvq._znorm(ds.patchify(source.values, 8))
    q = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=4, n_fine=8, max_iters=20, seed=0).quantizer
    coarse_idx, fine_idx = rvq.encode(q, latents)
    coarse_only, no_fine = rvq.encode(q, latents, fine=False)
    assert no_fine is None
    assert_array_equal(coarse_only, coarse_idx)
    for n, values in enumerate(source.values):
        one = rvq._znorm(ds.patchify(values, 8))
        assert one.tobytes() == latents[n].tobytes()
        c, f = rvq.encode(q, one)
        assert_array_equal(c, coarse_idx[n])
        assert_array_equal(f, fine_idx[n])


# ---------------------------------------------------------------- blocked assignment

def unblocked_nearest(points, codewords):
    """The whole-array formula: the argmin of g = [p, 1] @ [-2c, |c|^2]^T in one (n, k) product."""
    cn = rvq.l2_normalize(codewords)
    lifted = np.hstack([-2.0 * cn, (cn * cn).sum(axis=1)[:, None]])
    return np.argmin(np.hstack([points, np.ones((len(points), 1))]) @ lifted.T, axis=1)


def oracle_points(n, d, seed):
    """Unit rows as Lloyd sees them, with a zero row first and one in the middle.

    The last row stays random: a 1-row block would go through numpy's
    vector-matrix product, whose sums round differently for most rows.
    """
    rng = np.random.default_rng(seed)
    points = rvq.l2_normalize(rng.normal(size=(n, d)))
    points[0] = 0.0
    points[n // 2] = 0.0
    return points


@pytest.mark.parametrize(
    "n", [1, 2, rvq._BLOCK - 1, rvq._BLOCK, rvq._BLOCK + 1, 3 * rvq._BLOCK + 5]
)
@pytest.mark.parametrize("k", [8, 64])
def test_blocked_nearest_is_bitwise_the_unblocked_formula(n, k):
    points = oracle_points(n, 8, seed=n + k)
    codewords = np.random.default_rng(k).normal(size=(k, 8))
    assign = rvq._nearest(points, codewords)
    assert assign.tobytes() == unblocked_nearest(points, codewords).tobytes()
    # brute force: explicit squared differences against every codeword
    cn = rvq.l2_normalize(codewords)
    scan = ((points[:, None, :] - cn[None]) ** 2).sum(axis=2)
    assert_array_equal(assign, scan.argmin(axis=1))
    # a zero vector goes to the normalized codeword of least rounded norm
    assert assign[0] == assign[n // 2] == np.argmin((cn * cn).sum(axis=1))


@pytest.mark.parametrize("n", range(1, 24))
def test_blocks_never_exceed_the_block_size_nor_leave_a_single_row(n, monkeypatch):
    monkeypatch.setattr(rvq, "_BLOCK", 5)
    bounds = rvq._block_bounds(n)
    sizes = np.diff(bounds)
    assert bounds[0] == 0 and bounds[-1] == n
    assert sizes.max() <= 5 and len(sizes) == -(-n // 5)
    assert n == 1 or sizes.min() >= 2
    points = oracle_points(n, 8, seed=n)
    codewords = np.random.default_rng(n).normal(size=(64, 8))
    assert rvq._nearest(points, codewords).tobytes() == unblocked_nearest(points, codewords).tobytes()


def test_exact_ties_across_a_block_edge_go_to_the_lowest_index():
    d = 8
    e = np.eye(d)
    # codes 1 and 2 tie for any point on the e0 + e1 diagonal; codes 2 and
    # 3 normalize to the same vector, so they tie for every point
    codewords = np.stack([e[2], e[1], e[0], 3.0 * e[0]])
    n = rvq._BLOCK + 7
    points = oracle_points(n, d, seed=3)
    edge = int(rvq._block_bounds(n)[1])
    diagonal = (e[0] + e[1]) / math.sqrt(2.0)
    rows = np.arange(edge - 3, edge + 3)
    points[rows[::2]] = diagonal
    points[rows[1::2]] = e[0]
    points[edge + 3] = 0.0
    assign = rvq._nearest(points, codewords)
    assert_array_equal(assign[rows], [1, 2, 1, 2, 1, 2])
    assert assign[edge + 3] == 0
    assert assign.tobytes() == unblocked_nearest(points, codewords).tobytes()


def test_a_column_major_pool_gives_the_bytes_of_a_c_ordered_copy():
    # fit lays its working pool out by columns; rows must still sum and rank as they would in C order
    points = oracle_points(3 * rvq._BLOCK + 5, 8, seed=11)
    columns = np.asfortranarray(points)
    for k in (8, 64):
        codewords = np.random.default_rng(k + 1).normal(size=(k, 8))
        assert rvq._nearest(columns, codewords).tobytes() == rvq._nearest(points, codewords).tobytes()
    want = rvq._lloyd(points, 8, 6, _pcg64.PCG64(3))
    got = rvq._lloyd(columns, 8, 6, _pcg64.PCG64(3))
    assert got[0].tobytes() == want[0].tobytes()  # centroids
    assert got[1].tobytes() == want[1].tobytes()  # assignments
    assert got[2] == want[2] and len(want[2]) > 2  # the loss trace, float for float


@pytest.mark.parametrize("column_major", [False, True])
def test_nearest_holds_one_block_buffer_beside_its_outputs(column_major):
    # 48000 rows of width 8 against 64 codes: a whole (n, k) product would be 24.6 MB
    points = oracle_points(48000, 8, seed=5)
    # fit passes its pool laid out by columns; copying a block in must not copy the whole pool
    if column_major:
        points = np.asfortranarray(points)
    codewords = np.random.default_rng(6).normal(size=(64, 8))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assign = rvq._nearest(points, codewords)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    rows = int(np.diff(rvq._block_bounds(len(points))).max())
    # the output, the (block, k) and (block, d + 1) buffers and a few block vectors
    budget = assign.nbytes + rows * (64 + 9) * 8 + rows * (2 * 8 + 8) * 8
    assert peak <= budget


@pytest.mark.parametrize("n_codes", [3, 64])
def test_code_sums_equal_add_at_bitwise(n_codes):
    rng = np.random.default_rng(n_codes)
    points = rng.normal(size=(5000, 8)) * 10.0 ** rng.uniform(-8, 8, size=(5000, 1))
    assign = rng.integers(0, n_codes - 1, size=5000)  # the last code stays empty
    want = np.zeros((n_codes, 8))
    np.add.at(want, assign, points)
    got = rvq._code_sums(points.T.copy(), assign, n_codes)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # a Lloyd stage passes the strided view, one column copied at a time
    assert rvq._code_sums(points.T, assign, n_codes).tobytes() == want.tobytes()


def test_an_empty_code_is_reseeded_at_the_worst_quantized_point():
    points = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [-1.0, 0.0]])
    # code 2 duplicates code 0, so ties to the lower index leave it empty
    centroids = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assign = rvq._nearest(points, centroids)
    err = ((points - centroids[assign]) ** 2).sum(axis=1)
    assert np.bincount(assign, minlength=3)[2] == 0 and int(np.argmax(err)) == 3
    new, assign = rvq._reseed_empty(points, centroids, assign, 3)
    assert_array_equal(new, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    assert_array_equal(centroids[2], [1.0, 0.0])  # the caller's array is left as it was
    assert_array_equal(assign, [0, 1, 1, 2])
    assert (np.bincount(assign, minlength=3) > 0).all()


# ---------------------------------------------------------------- distinct draw

# few values, so pools repeat rows, tie on leading columns and mix -0.0 with 0.0
TIED = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]) | st.floats(-4.0, 4.0, width=16)


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(
    points=st.integers(1, 4).flatmap(
        lambda d: hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(d)), elements=TIED)
    ),
    n_codes=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    points=np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [1.0, 0.0], [-0.0, -1.0]]),
    n_codes=3,
    seed=0,
)
@example(points=np.array([[-0.0, 0.0], [0.0, -0.0], [0.0, 0.0]]), n_codes=2, seed=1)
def test_the_distinct_draw_takes_np_uniques_rows_at_the_same_ranks(points, n_codes, seed):
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    n_distinct = len(np.unique(points, axis=0))
    # the same distinct count, read off the refusal of one code too many
    with pytest.raises(DataError, match=f"have {n_distinct}$"):
        rvq._draw_distinct(points, n_distinct + 1, np.random.default_rng(seed))
    try:
        want = unique_draw(points, n_codes, want_rng)
    except DataError as exc:
        with pytest.raises(DataError, match=f"^{re.escape(str(exc))}$"):
            rvq._draw_distinct(points, n_codes, got_rng)
        return
    got = rvq._draw_distinct(points, n_codes, got_rng)
    assert_array_equal(got, want)  # as np.unique sees rows: -0.0 equals 0.0
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


# ---------------------------------------------------------------- initial-codeword generator

# small populations, both sides of choice's tail-shuffle cutoff (n > 10000 and k > n // 50),
# and one past 2**32, whose draws take the 64-bit bounded path
DRAWS = st.one_of(st.integers(1, 300), st.integers(9_990, 12_000), st.just(2**33)).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, min(n, 400)))
)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(seed=st.integers(0, 2**140), draws=st.lists(DRAWS, min_size=2, max_size=3))
@example(seed=0, draws=[(8, 8), (10_001, 10_001)])
@example(seed=2**32, draws=[(48_000, 8), (48_000, 64)])
@example(seed=2**128 + 1, draws=[(2**33, 5), (3, 2), (2**33, 1)])
def test_the_fit_generator_draws_as_numpys_default_rng(seed, draws):
    assert _pcg64._seed_words(seed) == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
    want, got = np.random.default_rng(seed), _pcg64.PCG64(seed)
    for n, k in draws:
        expected = want.choice(n, size=k, replace=False)
        drawn = got.choice(n, size=k, replace=False)
        assert drawn.dtype == expected.dtype and drawn.tolist() == expected.tolist()
    # the same state after the draws, down to the buffered half-word
    state = want.bit_generator.state
    assert (got.state, got.inc) == (state["state"]["state"], state["state"]["inc"])
    assert got.half == (state["uinteger"] if state["has_uint32"] else None)
    assert [got.next64() for _ in range(3)] == want.bit_generator.random_raw(3).tolist()


def test_fit_holds_one_pool_sized_working_array_beside_the_latents():
    # 19200 rows of width 8: the row blocks and the (block, k) buffer are small beside the pool
    latents = rvq._znorm(np.random.default_rng(0).normal(size=(400, 3, 16, 8)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fit = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=4, n_fine=8, max_iters=3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert fit.coarse_idx.shape == latents.shape[:-1]
    # the working array, a few (n,) index, error and norm vectors (1/8 pool each) and the blocks
    # come to 2.0 pools; one more copy of the pool, or a gather of it, breaks the bound
    assert peak <= 2.5 * latents.nbytes


def test_encode_holds_no_pool_sized_array():
    # 48000 rows of width 8: the row blocks and the (block, k) buffer are small beside the pool
    latents = rvq._znorm(np.random.default_rng(2).normal(size=(1000, 3, 16, 8)))
    quantizer = rvq.fit([rvq.CorpusLatents(latents[:50])], n_coarse=8, n_fine=16, max_iters=3).quantizer
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        codes = rvq.encode(quantizer, latents, fine=False)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert_array_equal(codes.coarse_idx, rvq.encode(quantizer, latents).coarse_idx)
    # the (n,) index output is 1/8 pool and the blocks add about as much; a normalized copy is a whole pool
    assert peak <= 0.5 * latents.nbytes

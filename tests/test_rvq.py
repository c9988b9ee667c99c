"""Embedding, residual codebook fitting, and code assignment."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from codechain import records, rvq, synth
from codechain import dataset as ds
from codechain.errors import ConfigError, DataError


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
    latent = rvq.embed(grid)[0, 0]
    std = np.std([1.0, 2.0, 3.0, 4.0])
    assert std == 1.118033988749895
    assert_allclose(latent, np.array([-1.5, -0.5, 0.5, 1.5]) / (std + 1e-8), rtol=0, atol=0)
    assert abs(latent.mean()) < 1e-15


def test_embed_constant_patch_is_zero():
    grid = grid_from([[5.0, 5.0, 5.0, 5.0]], 4)
    assert_array_equal(rvq.embed(grid)[0, 0], np.zeros(4))


def test_embed_unit_power():
    rng = np.random.default_rng(1)
    grid = grid_from(rng.normal(size=(3, 32)), 8)
    latents = rvq.embed(grid)
    power = (latents ** 2).sum(axis=-1) / 8
    assert_allclose(power, 1.0, atol=1e-6)


def test_embed_raw_mode_keeps_patches():
    grid = grid_from([[1.0, 2.0, 3.0, 4.0]], 4)
    latents = rvq.embed(grid, rvq.EmbedSpec(mode="raw"))
    assert_array_equal(latents, grid)


def test_projection_is_orthogonal_and_seeded():
    spec = rvq.EmbedSpec(mode="znorm", d_dim=6, projection_seed=11)
    q1 = spec.projection(8)
    q2 = rvq.EmbedSpec(mode="znorm", d_dim=6, projection_seed=11).projection(8)
    q3 = rvq.EmbedSpec(mode="znorm", d_dim=6, projection_seed=12).projection(8)
    assert q1.shape == (8, 6)
    assert_allclose(q1.T @ q1, np.eye(6), atol=1e-12)
    assert_array_equal(q1, q2)
    assert not np.array_equal(q1, q3)


def test_projected_embedding_shape():
    rng = np.random.default_rng(2)
    grid = grid_from(rng.normal(size=(2, 24)), 8)
    spec = rvq.EmbedSpec(mode="znorm", d_dim=5)
    latents = rvq.embed(grid, spec)
    assert latents.shape == (2, 3, 5)
    plain = rvq.embed(grid)
    assert_allclose(latents, plain @ spec.projection(8), atol=0)


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


# ---------------------------------------------------------------- reconstruct

def test_reconstruct_exact_on_codebook_sums():
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
    recon = rvq.reconstruct(q, coarse_idx, fine_idx)[0, 0]
    assert_array_equal(recon, z)


def test_reconstruct_coarse_only():
    q = axis_quantizer()
    coarse_idx = np.array([[0, 1]], dtype=np.int64)
    fine_idx = np.array([[2, 3]], dtype=np.int64)
    both = rvq.reconstruct(q, coarse_idx, fine_idx)
    coarse_only = rvq.reconstruct(q, coarse_idx)
    assert_array_equal(coarse_only[0], q.coarse[[0, 1]])
    assert_array_equal(both[0], q.coarse[[0, 1]] + q.fine[[2, 3]])


# ---------------------------------------------------------------- stats, io

def test_code_stats_counts_and_mse():
    latents, _ = cluster_cloud(4, 30, 5, seed=9, spread=0.4)
    result = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=4, n_fine=8, max_iters=50, seed=2)
    coarse_idx, fine_idx = rvq.encode(result.quantizer, latents)
    coarse_counts, fine_counts, mse_coarse, mse_coarse_fine = rvq.code_stats(
        result.quantizer, latents, coarse_idx, fine_idx
    )
    assert coarse_counts.sum() == latents.shape[0] * latents.shape[1]
    assert fine_counts.sum() == coarse_counts.sum()
    assert mse_coarse_fine <= mse_coarse + 1e-9
    assert coarse_counts.shape == (len(result.quantizer.coarse),)
    assert fine_counts.shape == (len(result.quantizer.fine),)


def test_quantizer_round_trip_bit_exact(tmp_path):
    latents, _ = cluster_cloud(3, 15, 4, seed=10)
    result = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=3, n_fine=4, max_iters=20, seed=3)
    spec = rvq.EmbedSpec(mode="znorm", d_dim=4, projection_seed=7)
    path = tmp_path / "q.jsonl"
    rvq.save_quantizer(path, result.quantizer, spec, patch_length=4, seed=3)
    back, back_spec, back_m, back_seed = rvq.load_quantizer(path)
    assert back.coarse.tobytes() == result.quantizer.coarse.tobytes()
    assert back.fine.tobytes() == result.quantizer.fine.tobytes()
    assert back_spec == spec
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
        ("record", "projection_seed", "3"),
        ("record", "projection_seed", 7.5),
        ("record", "projection_seed", False),
        ("record", "embed_d_dim", 4.0),
        ("record", "embed_d_dim", "4"),
        ("header", "d_dim", 4.0),
        ("header", "d_dim", True),
        ("header", "d_dim", "4"),
    ],
)
def test_load_quantizer_rejects_a_field_that_is_not_an_integer(tmp_path, part, key, value):
    latents, _ = cluster_cloud(3, 15, 4, seed=10)
    result = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=3, n_fine=4, max_iters=5, seed=3)
    spec = rvq.EmbedSpec(mode="znorm", d_dim=4, projection_seed=7)
    path = tmp_path / "q.jsonl"
    rvq.save_quantizer(path, result.quantizer, spec, patch_length=4, seed=3)
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
    rvq.save_quantizer(path, result.quantizer, rvq.EmbedSpec(), patch_length=4, seed=3)
    header, recs = records.read_record_file(path)
    rec = next(recs)
    recs.close()
    header["d_dim"] = 5
    records.write_record_file(path, header, [rec])
    with pytest.raises(DataError, match="header d_dim 5 differs from its codebook width 4"):
        rvq.load_quantizer(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("embed_mode", "bogus", "embed mode must be one of"),
        ("embed_mode", None, "embed mode must be one of"),
        ("embed_d_dim", 1, "d_dim must be >= 2"),
    ],
    ids=["unknown-mode", "null-mode", "d-dim-1"],
)
def test_load_quantizer_rejects_an_embedding_spec_as_a_data_error(tmp_path, key, value, message):
    latents, _ = cluster_cloud(3, 15, 4, seed=10)
    result = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=3, n_fine=4, max_iters=5, seed=3)
    path = tmp_path / "q.jsonl"
    rvq.save_quantizer(path, result.quantizer, rvq.EmbedSpec(mode="znorm"), patch_length=4, seed=3)
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
    rvq.save_quantizer(path, result.quantizer, rvq.EmbedSpec(mode="znorm"), patch_length=4, seed=3)
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
    latents = rvq.embed(ds.patchify(rng.normal(size=(4, 2, 20)), 5))
    result = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=2, n_fine=2, max_iters=10, seed=0)
    coarse_idx, fine_idx = rvq.encode(result.quantizer, latents)
    assert len(coarse_idx) == 4
    for c, f in zip(coarse_idx, fine_idx):
        assert c.shape == (2, 4)
        assert f.shape == (2, 4)


def test_fit_assignments_equal_a_fresh_encode_of_the_training_latents():
    source, _ = synth.generate(synth.SynthConfig(n_source=60, n_target=4, seed=12))
    latents = rvq.embed(ds.patchify(source.values, 8))
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
    a = rvq.embed(ds.patchify(rng.normal(size=(5, 2, 24)), 6))
    b = rvq.embed(ds.patchify(rng.normal(size=(3, 2, 24)), 6))
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
    spec = rvq.EmbedSpec(d_dim=5, projection_seed=2)
    got = rvq.embed_dataset(source, 8, spec).latents
    assert got.shape == (6, source.n_channels, source.length // 8, 5)
    assert_array_equal(got, rvq.embed(ds.patchify(source.values, 8), spec))


def test_whole_corpus_embed_and_encode_match_one_instance_at_a_time():
    source, _ = synth.generate(synth.SynthConfig(n_source=12, n_target=4, seed=13))
    spec = rvq.EmbedSpec(mode="znorm", d_dim=6, projection_seed=3)
    latents = rvq.embed(ds.patchify(source.values, 8), spec)
    q = rvq.fit([rvq.CorpusLatents(latents)], n_coarse=4, n_fine=8, max_iters=20, seed=0).quantizer
    coarse_idx, fine_idx = rvq.encode(q, latents)
    coarse_only, no_fine = rvq.encode(q, latents, fine=False)
    assert no_fine is None
    assert_array_equal(coarse_only, coarse_idx)
    for n, values in enumerate(source.values):
        one = rvq.embed(ds.patchify(values, 8), spec)
        assert one.tobytes() == latents[n].tobytes()
        c, f = rvq.encode(q, one)
        assert_array_equal(c, coarse_idx[n])
        assert_array_equal(f, fine_idx[n])


# ---------------------------------------------------------------- blocked assignment

def unblocked_nearest(points, codewords):
    """The whole-array formula: |p|^2 - 2 p.c + |c|^2 in one (n, k) buffer."""
    cn = rvq.l2_normalize(codewords, axis=1)
    d2 = (2.0 * points) @ cn.T
    np.subtract((points * points).sum(axis=1)[:, None], d2, out=d2)
    d2 += (cn * cn).sum(axis=1)[None, :]
    assign = np.argmin(d2, axis=1)
    return assign, np.maximum(d2[np.arange(len(points)), assign], 0.0)


def oracle_points(n, d, seed):
    """Unit rows as Lloyd sees them, with a zero row first and one in the middle.

    The last row stays random: a 1-row block would go through numpy's
    vector-matrix product, whose sums round differently for most rows.
    """
    rng = np.random.default_rng(seed)
    points = rvq.l2_normalize(rng.normal(size=(n, d)), axis=1)
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
    assign, err = rvq._nearest(points, codewords)
    want_assign, want_err = unblocked_nearest(points, codewords)
    assert assign.tobytes() == want_assign.tobytes()
    assert err.tobytes() == want_err.tobytes()
    sq_norms = (points * points).sum(axis=1)
    again, again_err = rvq._nearest(points, codewords, sq_norms)
    assert again.tobytes() == assign.tobytes() and again_err.tobytes() == err.tobytes()
    # brute force: explicit squared differences against every codeword
    cn = rvq.l2_normalize(codewords, axis=1)
    scan = ((points[:, None, :] - cn[None]) ** 2).sum(axis=2)
    assert_array_equal(assign, scan.argmin(axis=1))
    assert_allclose(err, scan.min(axis=1), rtol=0, atol=1e-12)
    # a zero vector goes to the normalized codeword of least rounded norm
    c_sq = (cn * cn).sum(axis=1)
    assert assign[0] == assign[n // 2] == np.argmin(c_sq)
    assert err[0] == err[n // 2] == c_sq.min()


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
    assign, err = rvq._nearest(points, codewords)
    want_assign, want_err = unblocked_nearest(points, codewords)
    assert assign.tobytes() == want_assign.tobytes()
    assert err.tobytes() == want_err.tobytes()


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
    assign, err = rvq._nearest(points, codewords)
    assert_array_equal(assign[rows], [1, 2, 1, 2, 1, 2])
    assert assign[edge + 3] == 0
    assert err[rows[1::2]].max() == 0.0
    want_assign, want_err = unblocked_nearest(points, codewords)
    assert assign.tobytes() == want_assign.tobytes()
    assert err.tobytes() == want_err.tobytes()


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

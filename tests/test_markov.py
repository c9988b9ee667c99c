"""Transition estimation, smoothing, and sequence log-likelihoods."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from codechain import markov, records
from codechain.errors import ConfigError, DataError
from oracles import log_likelihood


def counter_oracle(sequences, n_codes):
    """Transition matrix by plain dict counting, one float division per row."""
    counts = Counter()
    for seq in sequences:
        for a, b in zip(seq[:-1], seq[1:]):
            counts[(int(a), int(b))] += 1
    probs = np.zeros((n_codes, n_codes))
    for i in range(n_codes):
        row_total = sum(counts[(i, j)] for j in range(n_codes))
        if row_total == 0:
            probs[i, :] = 1.0 / n_codes
        else:
            for j in range(n_codes):
                probs[i, j] = counts[(i, j)] / row_total
    return probs


def grid(coarse_rows):
    """(channels, patches) coarse codes of one instance."""
    return np.asarray(coarse_rows, dtype=np.int64)


def pooled_tm(sequences, n_codes):
    """build_channel_tm over equal-length sequences, each one single-channel instance."""
    return markov.build_channel_tm(np.asarray(sequences, dtype=np.int64)[:, None, :], n_codes)[0]


# ---------------------------------------------------------------- estimate

def test_estimate_alternating_pair():
    tm = pooled_tm([[0, 1, 0, 1, 0]], 2)
    assert_array_equal(tm, [[0.0, 1.0], [1.0, 0.0]])


def test_estimate_unseen_row_uniform():
    tm = pooled_tm([[0, 0, 0]], 2)
    assert_array_equal(tm, [[1.0, 0.0], [0.5, 0.5]])


def test_estimate_pools_sequences():
    tm = pooled_tm([[0, 1], [1, 1]], 2)
    assert_array_equal(tm, [[0.0, 1.0], [0.0, 1.0]])


def test_estimate_matches_counter_oracle():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n_codes = int(rng.integers(2, 9))
        seqs = rng.integers(0, n_codes, size=(int(rng.integers(1, 5)), int(rng.integers(2, 65))))
        tm = pooled_tm(seqs, n_codes)
        assert_array_equal(tm, counter_oracle(seqs, n_codes))


def test_estimate_rejects_bad_input():
    with pytest.raises(DataError):
        markov.build_channel_tm(np.zeros((0, 1, 2), dtype=np.int64), 2)
    with pytest.raises(DataError):
        pooled_tm([[0]], 2)
    with pytest.raises(DataError):
        pooled_tm([[0, 5]], 2)
    with pytest.raises(ConfigError):
        pooled_tm([[0, 1]], 1)


# ---------------------------------------------------------------- class/channel

def test_class_tm_single_instance_and_uniform_fallback():
    g = grid([[0, 1, 0, 1], [1, 1, 1, 1]])
    with pytest.warns(UserWarning):
        ctm = markov.build_class_tm([g], [0], n_classes=2, n_codes=2)
    assert_array_equal(ctm[0, 0], counter_oracle([g[0]], 2))
    assert_array_equal(ctm[0, 1], [[0.5, 0.5], [0.0, 1.0]])
    for d in range(2):
        assert_array_equal(ctm[1, d], np.full((2, 2), 0.5))


def test_class_tm_order_invariant():
    rng = np.random.default_rng(22)
    grids = [grid(rng.integers(0, 3, size=(2, 6))) for _ in range(6)]
    labels = [0, 1, 0, 1, 1, 0]
    a = markov.build_class_tm(grids, labels, 2, 3)
    order = [3, 0, 5, 1, 4, 2]
    b = markov.build_class_tm([grids[i] for i in order], [labels[i] for i in order], 2, 3)
    for k in range(2):
        for d in range(2):
            assert_array_equal(a[k, d], b[k, d])


def test_class_tm_matches_counter_oracle_per_class_and_channel():
    rng = np.random.default_rng(28)
    for _ in range(20):
        n_classes, n_channels, n_codes = (int(x) for x in rng.integers(2, 5, size=3))
        codes = rng.integers(0, n_codes, size=(int(rng.integers(1, 9)), n_channels, int(rng.integers(2, 12))))
        labels = rng.integers(0, n_classes, size=len(codes))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ctm = markov.build_class_tm(codes, labels, n_classes, n_codes)
        assert ctm.shape == (n_classes, n_channels, n_codes, n_codes)
        for k in range(n_classes):
            for d in range(n_channels):
                assert_array_equal(ctm[k, d], counter_oracle(list(codes[labels == k, d]), n_codes))


def test_class_tm_label_out_of_range():
    g = grid([[0, 1]])
    with pytest.raises(DataError):
        markov.build_class_tm([g], [2], n_classes=2, n_codes=2)


def test_disjoint_regimes_have_disjoint_support():
    a = grid([[0, 1, 0, 1, 0, 1]])
    b = grid([[2, 3, 2, 3, 2, 3]])
    ctm = markov.build_class_tm([a, b], [0, 1], n_classes=2, n_codes=4)
    support0 = set(zip(*np.nonzero(ctm[0, 0][:2, :])))
    support1 = set(zip(*np.nonzero(ctm[1, 0][2:, :])))
    # observed transitions: class 0 stays in {0,1}, class 1 in {2,3}
    assert {(i, j) for i, j in support0} == {(0, 1), (1, 0)}
    assert {(i + 2, j) for i, j in support1} == {(2, 3), (3, 2)}


def test_channel_tm_pools_classes():
    rng = np.random.default_rng(23)
    grids = [grid(rng.integers(0, 3, size=(1, 8))) for _ in range(5)]
    pooled = markov.build_channel_tm(grids, 3)
    direct = counter_oracle([g[0] for g in grids], 3)
    assert_array_equal(pooled[0], direct)


def test_channel_tm_equals_class_tm_for_single_class():
    rng = np.random.default_rng(24)
    grids = [grid(rng.integers(0, 2, size=(2, 7))) for _ in range(4)]
    ctm = markov.build_class_tm(grids, [0] * 4, n_classes=1, n_codes=2)
    chtm = markov.build_channel_tm(grids, 2)
    for d in range(2):
        assert_array_equal(ctm[0, d], chtm[d])


# ---------------------------------------------------------------- smoothing

def test_smooth_formula():
    tm = np.array([[0.0, 1.0], [1.0, 0.0]])
    eps = 1e-8
    out = markov.smooth(tm, eps)
    assert_allclose(out, np.array([[eps, 1 + eps], [1 + eps, eps]]) / (1 + 2 * eps), rtol=0, atol=0)
    assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_smooth_uniform_fixed_point():
    tm = np.full((3, 3), 1.0 / 3.0)
    out = markov.smooth(tm, 1e-6)
    assert_allclose(out, tm, rtol=1e-14)


def test_smooth_min_entry_bound():
    rng = np.random.default_rng(25)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        probs = rng.dirichlet(np.ones(n), size=n)
        eps = 10.0 ** rng.uniform(-9, -2)
        out = markov.smooth(probs, eps)
        assert out.min() >= eps / (1 + n * eps) - 1e-18
        assert np.all(out > 0)


def test_smooth_acts_on_every_matrix_of_a_stack():
    rng = np.random.default_rng(29)
    stack = rng.dirichlet(np.ones(3), size=(2, 4, 3))
    out = markov.smooth(stack, 1e-4)
    for k in range(2):
        for d in range(4):
            assert_array_equal(out[k, d], markov.smooth(stack[k, d], 1e-4))


def test_smooth_requires_positive_epsilon():
    tm = np.eye(2) * 1.0
    with pytest.raises(ConfigError):
        markov.smooth(tm, 0.0)


# ---------------------------------------------------------------- likelihood

def test_log_likelihood_hand_value():
    tm = np.array([[0.5, 0.5], [0.5, 0.5]])
    value = log_likelihood(np.array([0, 1]), tm)
    assert value == math.log(0.5) / 2
    assert_allclose(value, -0.34657359027997264, rtol=0, atol=0)


def test_log_likelihood_self_loop_near_zero():
    eps = 1e-8
    tm = markov.smooth(np.array([[1.0, 0.0], [0.5, 0.5]]), eps)
    value = log_likelihood(np.array([0, 0, 0, 0]), tm)
    assert abs(value) <= 3 * eps


def test_log_likelihood_per_transition_divides_by_n_minus_1():
    tm = np.full((2, 2), 0.5)
    seq = np.array([0, 1, 0])
    assert_allclose(log_likelihood(seq, tm), 2 * math.log(0.5) / 3, atol=0)
    assert_allclose(log_likelihood(seq, tm, per_transition=True), math.log(0.5), atol=0)


def test_log_likelihood_rejects_zero_transition():
    tm = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DataError) as exc:
        log_likelihood(np.array([0, 0]), tm)
    assert "smooth" in str(exc.value)


def test_log_likelihood_needs_two_steps():
    tm = np.full((2, 2), 0.5)
    with pytest.raises(DataError):
        log_likelihood(np.array([0]), tm)


def test_own_tm_maximizes_likelihood():
    rng = np.random.default_rng(26)
    eps = 1e-8
    for _ in range(50):
        n_codes = int(rng.integers(2, 5))
        seq = rng.integers(0, n_codes, size=int(rng.integers(8, 40)))
        other = rng.integers(0, n_codes, size=int(rng.integers(8, 40)))
        own = markov.smooth(pooled_tm([seq], n_codes), eps)
        alt = markov.smooth(pooled_tm([other], n_codes), eps)
        assert log_likelihood(seq, own) >= log_likelihood(seq, alt) - 1e-9


def test_reversal_changes_likelihood():
    tm = np.array([[0.9, 0.1], [0.5, 0.5]])
    fwd = log_likelihood(np.array([0, 1]), tm)
    rev = log_likelihood(np.array([1, 0]), tm)
    assert fwd != rev


# ---------------------------------------------------------------- io

def test_transitions_round_trip(tmp_path):
    rng = np.random.default_rng(27)
    grids = [grid(rng.integers(0, 3, size=(2, 9))) for _ in range(6)]
    labels = [0, 1, 1, 0, 1, 0]
    ctm = markov.build_class_tm(grids, labels, 2, 3)
    ch_src = markov.build_channel_tm(grids[:3], 3)
    path = tmp_path / "t.jsonl"
    markov.save_transitions(path, ctm, ch_src, 1e-8)
    back_ctm, back_src, eps = markov.load_transitions(path)
    assert eps == 1e-8
    for k in range(2):
        for d in range(2):
            assert back_ctm[k, d].tobytes() == ctm[k, d].tobytes()
    for d in range(2):
        assert back_src[d].tobytes() == ch_src[d].tobytes()


def test_transitions_round_trip_without_target(tmp_path):
    g = grid([[0, 1, 0, 1]])
    with pytest.warns(UserWarning):
        ctm = markov.build_class_tm([g], [0], 2, 2)
    ch = markov.build_channel_tm([g], 2)
    path = tmp_path / "t.jsonl"
    markov.save_transitions(path, ctm, ch, 1e-6)
    _, _, eps = markov.load_transitions(path)
    assert eps == 1e-6
    header, (rec,) = records.read_record_file(path, expected_kind="transitions")
    assert "channel_tms_target" not in rec
    # a bundle written with the old null field still loads
    records.write_record_file(path, header, [{**rec, "channel_tms_target": None}])
    assert markov.load_transitions(path)[2] == 1e-6


def test_load_transitions_rejects_rows_that_do_not_sum_to_one(tmp_path):
    g = grid([[0, 1, 0, 1]])
    ctm = markov.build_class_tm([g, g], [0, 1], 2, 2)
    ch = markov.build_channel_tm([g], 2)
    for bad_class, bad_channel in ((0.5 * ctm, ch), (ctm, -ch)):
        path = tmp_path / "t.jsonl"
        markov.save_transitions(path, bad_class, bad_channel, 1e-8)
        with pytest.raises(DataError):
            markov.load_transitions(path)


def two_code_bundle(tmp_path):
    """A transitions bundle whose cells are all 0.0 or 1.0, and its (header, record)."""
    g = grid([[0, 1, 0, 1]])
    path = tmp_path / "t.jsonl"
    markov.save_transitions(
        path, markov.build_class_tm([g, g], [0, 1], 2, 2), markov.build_channel_tm([g], 2), 1e-8
    )
    header, (rec,) = records.read_record_file(path)
    return path, header, rec


@pytest.mark.parametrize("key", ["class_tms", "channel_tms_source"])
@pytest.mark.parametrize("cell", ["1.0", True])
def test_load_transitions_rejects_cells_that_are_not_json_numbers(tmp_path, key, cell):
    path, header, rec = two_code_bundle(tmp_path)
    matrices = rec[key][0] if key == "class_tms" else rec[key]
    assert matrices[0][0][1] == 1.0
    matrices[0][0][1] = cell
    records.write_record_file(path, header, [rec])
    with pytest.raises(DataError, match=f"transitions {key} is not a"):
        markov.load_transitions(path)


@pytest.mark.parametrize("token", ['"1e-8"', "true", "-1", "0", "-0.0", "NaN", "Infinity", "null"])
def test_load_transitions_rejects_an_epsilon_that_is_not_a_positive_number(tmp_path, token):
    path, _, _ = two_code_bundle(tmp_path)
    text = path.read_text()
    assert '"epsilon":1e-08' in text
    path.write_text(text.replace('"epsilon":1e-08', f'"epsilon":{token}'))
    with pytest.raises(DataError, match="transitions epsilon .* is not a positive finite number"):
        markov.load_transitions(path)


def test_save_transitions_rejects_mismatched_shapes(tmp_path):
    g = grid([[0, 1, 0, 1], [1, 1, 0, 0]])
    ctm = markov.build_class_tm([g, g], [0, 1], 2, 2)
    with pytest.raises(DataError):
        markov.save_transitions(tmp_path / "t.jsonl", ctm, markov.build_channel_tm([g[:1]], 2), 1e-8)

"""Property tests: generated inputs, a bounded number of examples each.

Every test runs at most 50 derandomized examples, so the suite stays
fast and gives the same result on every run.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from codechain import dataset as ds
from codechain import markov, pseudolabel, records, rvq, transport
from oracles import linprog_emd_cost

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

BOUNDED = settings(derandomize=True, max_examples=50, deadline=None, database=None)

# every finite double, with the edge cases of the JSON float repr drawn often
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 1e308, -1e308]
)


@BOUNDED
@given(
    seed=st.integers(0, 2**32 - 1),
    # instances, channels, classes, codes, patches
    shape=st.tuples(*(st.integers(lo, hi) for lo, hi in ((1, 6), (1, 5), (2, 4), (2, 5), (2, 8)))),
    data=st.data(),
)
def test_permuting_channels_with_their_model_and_weights_keeps_the_scores(seed, shape, data):
    n, d, k, c, t = shape
    perm = np.array(data.draw(st.permutations(range(d))))
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, c, size=(n, d, t))
    model = markov.smooth(rng.dirichlet(np.ones(c), size=(k, d, c)), 1e-8)
    weights = rng.uniform(0.0, 1.0, size=d)
    prior = pseudolabel.log_prior(rng.dirichlet(np.ones(k)), rng.uniform(0.1, 5.0))
    ids = [f"t{i}" for i in range(n)]
    base = pseudolabel.label_dataset(codes, model, weights, prior, ids)
    permuted = pseudolabel.label_dataset(codes[:, perm], model[:, perm], weights[perm], prior, ids)
    assert_allclose(permuted.scores, base.scores, rtol=0, atol=1e-12)
    assert_array_equal(
        pseudolabel._posteriors(codes[:, perm], model[:, perm], prior),
        pseudolabel._posteriors(codes, model, prior)[:, perm],
    )


@st.composite
def corpora(draw):
    """(ids, labels, values) of a small target corpus with 3 classes."""
    ids = draw(st.lists(st.text(min_size=1), min_size=1, max_size=4, unique=True))
    labels = draw(st.lists(st.integers(ds.UNLABELED, 2), min_size=len(ids), max_size=len(ids)))
    shape = (len(ids), draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    return ids, labels, draw(hnp.arrays(np.float64, shape, elements=FLOATS))


@BOUNDED
@given(corpus=corpora())
@example(
    corpus=(
        ["trg-0\u0000", "\u0000", "naïve-中"],
        [0, ds.UNLABELED, 2],
        np.array([-0.0, 5e-324, 1e308, -1e308, 0.1, 2.2250738585072014e-308]).reshape(3, 1, 2),
    )
)
def test_a_corpus_file_round_trips_exactly(tmp_path_factory, corpus):
    ids, labels, values = corpus
    path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
    written = ds.DomainDataset(values=values, ids=ids, labels=labels, n_classes=3, role="target")
    ds.save_corpus(path, written)
    back = ds.load_corpus(path)
    assert back.ids.tolist() == ids
    assert back.labels.tolist() == labels
    # bytes, not values: -0.0 == 0.0 would hide a lost sign
    assert back.values.tobytes() == values.tobytes()


@BOUNDED
@given(
    seed=st.integers(0, 2**32 - 1),
    # instances, channels, classes, codes, patches
    shape=st.tuples(*(st.integers(lo, hi) for lo, hi in ((1, 6), (1, 4), (1, 4), (2, 6), (2, 9)))),
    eps=st.floats(1e-12, 1.0),
)
def test_smoothed_class_matrices_are_positive_and_stochastic(seed, shape, eps):
    n, d, k, c, t = shape
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, c, size=(n, d, t))
    labels = rng.integers(0, k, size=n)
    tm = markov.smooth(markov.build_class_tm(codes, labels, k, c), eps)
    assert (tm > 0.0).all()
    assert_allclose(tm.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


@st.composite
def marginal(draw, n):
    """A distribution over n codes in which any entry may be exactly 0."""
    w = np.array(draw(st.lists(st.just(0.0) | st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    w[draw(st.integers(0, n - 1))] += 0.5
    return w / w.sum()


@BOUNDED
@given(n=st.integers(2, 12), data=st.data())
def test_emd_cost_equals_the_linear_program_optimum(n, data):
    optimize = pytest.importorskip("scipy.optimize")
    p, q = data.draw(marginal(n)), data.draw(marginal(n))
    costs = data.draw(hnp.arrays(np.float64, (n, n), elements=st.just(0.0) | st.floats(0.0, 2.0)))
    _, cost = transport.solve_emd(p, q, costs)
    assert abs(cost - linprog_emd_cost(optimize, p, q, costs)) <= 1e-9


@BOUNDED
@given(n=st.integers(2, 16), gap=st.floats(-1e-9, 1e-9), data=st.data())
def test_the_least_cost_start_is_a_feasible_spanning_tree(n, gap, data):
    a, b = data.draw(marginal(n)), data.draw(marginal(n)) * (1.0 + gap)
    # a few distinct values, so many costs tie
    costs = data.draw(hnp.arrays(np.float64, (n, n), elements=st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    flows, adjacent = transport._least_cost_start(a, b, transport.cost_order(costs))
    assert len(flows) == 2 * n - 1
    # the adjacency lists hold the flows' cells, once from each end
    assert sorted((i, v - n) for i in range(n) for v in adjacent[i]) == sorted(flows)
    assert sorted((v, j) for j in range(n) for v in adjacent[n + j]) == sorted(flows)
    transport._spanning_tree(adjacent, costs.tolist())  # raises on a cycle or an unreached node
    assert min(flows.values()) >= 0.0
    flow = np.zeros((n, n))
    for cell, t in flows.items():
        flow[cell] = t
    # only the last row or column to stay open can be left short, by the gap between the sums
    tol = abs(a.sum() - b.sum()) + 1e-15
    assert np.abs(flow.sum(axis=1) - a).max() <= tol
    assert np.abs(flow.sum(axis=0) - b).max() <= tol


# finite doubles up to 6e153 in magnitude, with the JSON repr edge cases drawn often: 4 * 6e153 ** 2
# stays below the largest double, so a row of width up to 4 has the finite squared norm ResidualQuantizer requires
CODEWORD_FLOATS = st.floats(min_value=-6e153, max_value=6e153) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 6e153, -6e153]
)


def codebook(d):
    """2 to 5 rows of width d, distinct as np.unique sees them (-0.0 equals 0.0)."""
    return st.lists(
        st.tuples(*[CODEWORD_FLOATS] * d), min_size=2, max_size=5, unique_by=lambda row: tuple(x + 0.0 for x in row)
    ).map(np.array)


@BOUNDED
@given(books=st.integers(1, 4).flatmap(lambda d: st.tuples(codebook(d), codebook(d))))
@example(books=(np.array([[-0.0, 5e-324], [6e153, -6e153]]), np.array([[0.0, -2.5e-310], [-0.0, 1e-300]])))
def test_a_quantizer_file_round_trips_exactly(tmp_path_factory, books):
    written = rvq.ResidualQuantizer(coarse=books[0], fine=books[1])
    path = tmp_path_factory.getbasetemp() / "quantizer.jsonl"
    rvq.save_quantizer(path, written, patch_length=written.d_dim, seed=0)
    back, _, _ = rvq.load_quantizer(path)
    assert back.coarse.shape == written.coarse.shape and back.fine.shape == written.fine.shape
    # bytes, not values: -0.0 == 0.0 would hide a lost sign
    assert back.coarse.tobytes() == written.coarse.tobytes()
    assert back.fine.tobytes() == written.fine.tobytes()


# JSON values as records hold them: ints past 2**53, ids with NULs and non-ASCII text, nesting
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**80), 2**80) | FLOATS | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)


@BOUNDED
@given(obj=JSON_VALUES)
@example(obj={"id": "i1\x00", "label": 2**53 + 1, "scores": [0.1, -0.0, 5e-324], "z": {"\u00fc\u20ac\U0001d11e": [[10**30]]}})
@example(obj={"\x00": None, "\u00e9t\u00e9": [True, False, -(2**64)], "": {"": []}})
def test_dump_line_writes_what_json_dumps_wrote(obj):
    assert records.dump_line(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "minus-inf"])
def test_dump_line_refuses_a_non_finite_float_and_then_writes_on(value):
    with pytest.raises(ValueError):
        records.dump_line({"id": "i0", "scores": [0.5, [value]]})
    assert records.dump_line({"b": [1.5], "a": "\x00"}) == '{"a":"\\u0000","b":[1.5]}'


@BOUNDED
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 3), st.integers(1, 16)),
    kind=st.sampled_from(["random", "flat", "near-flat"]),
    offset=st.sampled_from([0.0, 1.0, -2.5, 3e3, -1e8, 1e12]),
    spread=st.floats(1e-9, 1e6),
)
def test_znorm_is_bitwise_the_mean_and_std_formula(seed, shape, kind, offset, spread):
    rng = np.random.default_rng(seed)
    b = np.full(shape, offset)
    if kind == "random":
        b += spread * rng.standard_normal(shape)
    elif kind == "near-flat":  # one entry per patch an ulp or a spread away
        step = np.nextafter(offset, np.inf) - offset if rng.random() < 0.5 else spread
        b[..., rng.integers(shape[-1])] += step
    want = (b - b.mean(axis=-1, keepdims=True)) / (b.std(axis=-1, keepdims=True) + rvq._STD_FLOOR)
    want[(b == b[..., :1]).all(axis=-1)] = 0.0
    assert rvq._znorm(b).tobytes() == want.tobytes()


PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_a_failing_property_test_fails_alone_under_the_suite_warning_filters(tmp_path):
    # a warning raised while hypothesis reports a failure must not abort the run
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    filters = tomllib.loads(pyproject.read_text())["tool"]["pytest"]["ini_options"]["filterwarnings"]
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    (tmp_path / "test_probe.py").write_text(PROBE)
    before = sorted(path.name for path in pyproject.parent.iterdir())
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out and proc.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
    assert sorted(path.name for path in pyproject.parent.iterdir()) == before

"""Property tests: generated inputs, a bounded number of examples each.

Every test runs at most 50 derandomized examples, so the suite stays
fast and gives the same result on every run.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from codechain import dataset as ds
from codechain import markov, pseudolabel

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
    target = ds.DomainDataset(
        values=np.zeros((n, d, 1)), ids=[f"t{i}" for i in range(n)],
        labels=np.full(n, ds.UNLABELED), n_classes=k, role="target",
    )
    base = pseudolabel.label_dataset(target, codes, model, weights, prior)
    permuted = pseudolabel.label_dataset(target, codes[:, perm], model[:, perm], weights[perm], prior)
    assert_allclose(permuted.scores, base.scores, rtol=0, atol=1e-12)
    assert_array_equal(permuted.per_channel_posteriors, base.per_channel_posteriors[:, perm])


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

"""Cosine costs, exact transport solving, and channel alignment weights."""

import itertools
import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from codechain import transport
from codechain.errors import DataError
from oracles import linprog_emd_cost


def enumerate_emd(p, q, costs):
    """Minimum cost over every basic feasible solution of the polytope.

    A basis is any 2n-1 cells; flows solve the marginal equations. Bases
    whose system is inconsistent or produces negative flow are skipped.
    """
    n = len(p)
    cells = list(itertools.product(range(n), range(n)))
    rows = []
    for i in range(n):
        row = np.zeros(len(cells))
        for idx, (a, b) in enumerate(cells):
            if a == i:
                row[idx] = 1.0
        rows.append((row, p[i]))
    for j in range(n):
        row = np.zeros(len(cells))
        for idx, (a, b) in enumerate(cells):
            if b == j:
                row[idx] = 1.0
        rows.append((row, q[j]))
    A = np.stack([r for r, _ in rows])
    b = np.array([v for _, v in rows])
    best = math.inf
    cost_vec = np.array([costs[i][j] for i, j in cells])
    for basis in itertools.combinations(range(len(cells)), 2 * n - 1):
        sub = A[:, basis]
        flows, *_ = np.linalg.lstsq(sub, b, rcond=None)
        if np.max(np.abs(sub @ flows - b)) > 1e-9:
            continue
        if np.min(flows) < -1e-9:
            continue
        best = min(best, float(cost_vec[list(basis)] @ flows))
    return best


def random_cost(rng, n):
    return transport.cosine_cost(rng.normal(size=(n, 4)))


def tm_from(matrices):
    """(n_channels, n, n) transition matrices from nested rows."""
    return np.asarray(matrices, dtype=np.float64)


# ---------------------------------------------------------------- cost matrix

def test_cosine_cost_identical_orthogonal_antipodal():
    vectors = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0], [-1.0, 0.0]])
    cost = transport.cosine_cost(vectors)
    assert cost[0, 1] == 0.0
    assert cost[0, 2] == 1.0
    assert cost[0, 3] == 2.0
    assert_array_equal(np.diag(cost), np.zeros(4))
    assert_array_equal(cost, cost.T)
    assert np.all((cost >= 0) & (cost <= 2))


def test_cosine_cost_rejects_zero_vector():
    with pytest.raises(DataError):
        transport.cosine_cost(np.array([[0.0, 0.0], [1.0, 0.0]]))


# ---------------------------------------------------------------- solver

def test_emd_equal_marginals_cost_zero():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(n))
        plan, cost = transport.solve_emd(p, p.copy(), random_cost(rng, n))
        assert cost <= 1e-12
        assert_allclose(plan.sum(axis=1), p, atol=1e-9)
        assert_allclose(plan.sum(axis=0), p, atol=1e-9)


def test_emd_single_mass_move():
    costs = np.array([[0.0, 0.5], [0.5, 0.0]])
    plan, cost = transport.solve_emd(np.array([1.0, 0.0]), np.array([0.0, 1.0]), costs)
    assert_allclose(cost, 0.5, atol=0)
    assert_allclose(plan[0, 1], 1.0, atol=1e-12)


def test_emd_hand_worked_two_by_two():
    costs = np.array([[0.0, 1.0], [1.0, 0.0]])
    _, cost = transport.solve_emd(np.array([0.5, 0.5]), np.array([0.25, 0.75]), costs)
    assert_allclose(cost, 0.25, atol=1e-12)


def test_emd_matches_basis_enumeration():
    rng = np.random.default_rng(32)
    for _ in range(200):
        n = int(rng.integers(2, 4))
        p = rng.dirichlet(np.ones(n) * rng.uniform(0.3, 3.0))
        q = rng.dirichlet(np.ones(n) * rng.uniform(0.3, 3.0))
        costs = random_cost(rng, n)
        _, cost = transport.solve_emd(p, q, costs)
        assert abs(cost - enumerate_emd(p, q, costs)) < 1e-9


def test_emd_marginals_up_to_eight():
    rng = np.random.default_rng(33)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(n) * 0.5)
        q = rng.dirichlet(np.ones(n) * 0.5)
        plan, _ = transport.solve_emd(p, q, random_cost(rng, n))
        assert_allclose(plan.sum(axis=1), p, atol=1e-9)
        assert_allclose(plan.sum(axis=0), q, atol=1e-9)
        assert np.all(plan >= 0)


def test_emd_symmetry_for_symmetric_cost():
    rng = np.random.default_rng(34)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        costs = random_cost(rng, n)
        _, fwd = transport.solve_emd(p, q, costs)
        _, bwd = transport.solve_emd(q, p, costs)
        assert abs(fwd - bwd) < 1e-9


def test_emd_sparse_marginals_within_tolerance():
    # marginal sums may legitimately disagree by up to 1e-9
    costs = np.array([[0.0, 1.0], [1.0, 0.0]])
    _, cost = transport.solve_emd(np.array([1.0, 0.0]), np.array([1.0 - 1e-9, 0.0]), costs)
    assert cost < 1e-8
    _, cost = transport.solve_emd(np.array([0.0, 1.0]), np.array([0.0, 1.0]), costs)
    assert cost <= 1e-12


def sparse_or_dense_marginals(rng, n, sparse):
    p = rng.random(n)
    q = rng.random(n)
    if sparse:  # most codes carry no mass
        p *= rng.random(n) < 0.25
        q *= rng.random(n) < 0.25
        p[rng.integers(n)] += 0.5
        q[rng.integers(n)] += 0.5
    return p / p.sum(), q / q.sum()


@pytest.mark.parametrize("n", [12, 16, 24, 32, 48, 64])
def test_emd_matches_highs_beyond_enumeration(n):
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(1000 + n)
    for trial in range(4):
        p, q = sparse_or_dense_marginals(rng, n, sparse=trial % 2)
        costs = random_cost(rng, n)
        _, cost = transport.solve_emd(p, q, costs)
        assert abs(cost - linprog_emd_cost(optimize, p, q, costs)) <= 1e-9


def trace_pivots(monkeypatch):
    """Snapshot the solver's state after each pivot's subtree re-walk.

    The first walk of a solve comes from _spanning_tree; every later
    _walk call comes straight from solve_emd, right after a pivot, and
    its frame holds the basis, the maintained tree and the chosen cells.
    """
    pivots = []
    walk = transport._walk

    def traced(*args):
        walk(*args)
        frame = sys._getframe(1)
        if frame.f_code.co_name != "solve_emd":
            return
        solver = frame.f_locals
        pivots.append(
            {
                "in_basis": solver["in_basis"].copy(),
                "rows": solver["rows"],
                "tree": (list(solver["dual"]), list(solver["parent"]), list(solver["depth"])),
                "entering": solver["entering"],
                "theta": solver["theta"],
                "first_candidate": divmod(int(np.argmax(solver["candidates"])), solver["n"]),
            }
        )

    monkeypatch.setattr(transport, "_walk", traced)
    return pivots


def test_maintained_tree_equals_a_fresh_walk_at_every_pivot(monkeypatch):
    pivots = trace_pivots(monkeypatch)
    rng = np.random.default_rng(41)
    for n in range(2, 33):
        for sparse in (False, True):
            p, q = sparse_or_dense_marginals(rng, n, sparse)
            transport.solve_emd(p, q, random_cost(rng, n))
    assert len(pivots) > 1000
    for pivot in pivots:
        dual, parent, depth = pivot["tree"]
        _, fresh_dual, fresh_parent, fresh_depth = transport._spanning_tree(
            pivot["in_basis"], pivot["rows"]
        )
        assert_array_equal(np.array(dual).view(np.uint64), np.array(fresh_dual).view(np.uint64))
        assert parent == fresh_parent
        assert depth == fresh_depth


def degenerate_case(rng, n):
    """Integer marginals, a permutation of them, small integer costs."""
    counts = rng.integers(0, 4, size=n)
    counts[rng.integers(n)] += 1
    p = counts / counts.sum()
    q = rng.permutation(counts) / counts.sum()
    costs = rng.integers(0, 3, size=(n, n)).astype(np.float64)
    costs += costs.T
    np.fill_diagonal(costs, 0.0)
    return p, q, costs


def test_degenerate_pivots_follow_blands_rule_and_terminate(monkeypatch):
    optimize = pytest.importorskip("scipy.optimize")
    monkeypatch.setattr(transport, "_PERTURB", 0.0)
    pivots = trace_pivots(monkeypatch)
    rng = np.random.default_rng(42)
    for n in [2, 3] * 10 + list(range(4, 17)) * 15:
        p, q, costs = degenerate_case(rng, n)
        _, cost = transport.solve_emd(p, q, costs)
        oracle = enumerate_emd(p, q, costs) if n <= 3 else linprog_emd_cost(optimize, p, q, costs)
        assert abs(cost - oracle) <= 1e-9
    degenerate = [pivot for pivot in pivots if pivot["theta"] == 0.0]
    assert len(degenerate) > 100
    for pivot in degenerate:
        assert pivot["entering"] == pivot["first_candidate"]


def test_emd_rejects_bad_marginals():
    costs = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DataError):
        transport.solve_emd(np.array([0.7, 0.2]), np.array([0.5, 0.5]), costs)
    with pytest.raises(DataError):
        transport.solve_emd(np.array([1.5, -0.5]), np.array([0.5, 0.5]), costs)


@pytest.mark.parametrize("p", [[np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5], [-np.inf, 1.0, 1.0]],
                         ids=["nan", "inf", "minus-inf"])
def test_emd_rejects_a_non_finite_marginal_as_data_error(p):
    costs = np.ones((3, 3)) - np.eye(3)
    with pytest.raises(DataError):
        transport.solve_emd(np.array(p), np.full(3, 1.0 / 3.0), costs)
    with pytest.raises(DataError):
        transport.solve_emd(np.full(3, 1.0 / 3.0), np.array(p), costs)


# ---------------------------------------------------------------- weights

def test_identical_tms_give_weight_one():
    rng = np.random.default_rng(35)
    probs = rng.dirichlet(np.ones(3), size=3)
    src = tm_from([probs])
    trg = tm_from([probs.copy()])
    costs = random_cost(rng, 3)
    weights, mean_costs = transport.channel_weights(src, trg, costs, sigma=0.2)
    assert weights[0] == 1.0
    assert mean_costs[0] == 0.0


def test_mean_cost_equal_to_sigma_gives_inverse_e():
    costs = np.array([[0.0, 1.0], [1.0, 0.0]])
    src = tm_from([[[1.0, 0.0], [0.0, 1.0]]])
    trg = tm_from([[[0.0, 1.0], [1.0, 0.0]]])
    weights, mean_costs = transport.channel_weights(src, trg, costs, sigma=1.0)
    assert_allclose(mean_costs[0], 1.0, atol=1e-12)
    assert_allclose(weights[0], math.exp(-1.0), atol=1e-12)


def test_weights_decrease_with_cost():
    costs = np.array([[0.0, 1.0], [1.0, 0.0]])
    near = tm_from([[[0.9, 0.1], [0.1, 0.9]]])
    far = tm_from([[[0.1, 0.9], [0.9, 0.1]]])
    ident = tm_from([[[1.0, 0.0], [0.0, 1.0]]])
    w_near = transport.channel_weights(ident, near, costs, sigma=0.2)[0][0]
    w_far = transport.channel_weights(ident, far, costs, sigma=0.2)[0][0]
    assert 0 < w_far < w_near < 1
    assert transport.channel_weights(ident, ident, costs, sigma=0.2)[0][0] == 1.0


def test_a_weight_that_underflows_is_zero_not_an_error():
    costs = np.array([[0.0, 1.0], [1.0, 0.0]])
    ident = tm_from([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
    far = tm_from([[[0.1, 0.9], [0.9, 0.1]], [[1.0, 0.0], [0.0, 1.0]]])
    weights, mean_costs = transport.channel_weights(ident, far, costs, sigma=0.01)
    assert_allclose(mean_costs, [0.9, 0.0], atol=1e-12)
    assert_array_equal(weights, [0.0, 1.0])


def test_weights_permutation_equivariant():
    rng = np.random.default_rng(36)
    n = 4
    src_probs = rng.dirichlet(np.ones(n), size=n)
    trg_probs = rng.dirichlet(np.ones(n), size=n)
    vectors = rng.normal(size=(n, 3))
    costs = transport.cosine_cost(vectors)
    base, _ = transport.channel_weights(
        tm_from([src_probs]),
        tm_from([trg_probs]),
        costs,
        sigma=0.3,
    )
    perm = np.array([2, 0, 3, 1])
    permuted, _ = transport.channel_weights(
        tm_from([src_probs[perm][:, perm]]),
        tm_from([trg_probs[perm][:, perm]]),
        transport.cosine_cost(vectors[perm]),
        sigma=0.3,
    )
    assert_allclose(base, permuted, atol=1e-12)


# ---------------------------------------------------------------- report

def test_alignment_report_is_deterministic(tmp_path):
    weights, mean_costs = np.array([1.0, 0.5]), np.array([0.0, 0.166])
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    transport.write_alignment_report(p1, weights, mean_costs, 0.2, config={"sigma": 0.2})
    transport.write_alignment_report(p2, weights, mean_costs, 0.2, config={"sigma": 0.2})
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert "sigma" in text
    assert text.count("\n") >= 4

"""Cosine costs, exact transport solving, and channel alignment weights."""

import hashlib
import itertools
import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from codechain import transport
from codechain.errors import DataError, InternalError
from oracles import linprog_emd_cost, two_heap_tree_flows


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


@pytest.mark.parametrize("d", [3, 8, 16, 64])
def test_cosine_cost_of_a_pair_is_that_pairs_own_sum(d):
    # no GEMM, whose rounding depends on the BLAS kernel and on the other rows
    v = np.random.default_rng(d).normal(size=(12, d))
    u = v / np.linalg.norm(v, axis=1)[:, None]
    want = [[0.0 if i == j else 1.0 - np.clip(np.sum(u[i] * u[j]), -1.0, 1.0) for j in range(12)] for i in range(12)]
    assert transport.cosine_cost(v).tobytes() == np.array(want).tobytes()


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
    """Snapshot the solver's state at each walk that follows a pivot.

    solve_emd walks its basis in full with _spanning_tree at the start,
    and the subtree a pivot cuts off with _walk after every pivot; the
    solver's frame then holds the entering cell, the flow it moved and
    the reduced costs it was chosen from.
    """
    pivots = []
    walk = transport._walk

    def traced(*args):
        solver = sys._getframe(1).f_locals
        if "entering" in solver:
            pivots.append(
                {
                    "entering": solver["entering"],
                    "theta": solver["theta"],
                    "first_candidate": divmod(
                        int(np.argmax(solver["reduced"] < -transport._PRICE_TOL * solver["scale"])), solver["n"]
                    ),
                }
            )
        return walk(*args)

    monkeypatch.setattr(transport, "_walk", traced)
    return pivots


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


def degenerate_batch():
    """215 degenerate cases at 2 to 16 codes."""
    rng = np.random.default_rng(42)
    for n in [2, 3] * 10 + list(range(4, 17)) * 15:
        yield degenerate_case(rng, n)


def test_degenerate_pivots_follow_blands_rule_and_terminate(monkeypatch):
    optimize = pytest.importorskip("scipy.optimize")
    monkeypatch.setattr(transport, "_PERTURB", 0.0)
    pivots = trace_pivots(monkeypatch)
    for p, q, costs in degenerate_batch():
        n = len(p)
        _, cost = transport.solve_emd(p, q, costs)
        oracle = enumerate_emd(p, q, costs) if n <= 3 else linprog_emd_cost(optimize, p, q, costs)
        assert abs(cost - oracle) <= 1e-9
    degenerate = [pivot for pivot in pivots if pivot["theta"] == 0.0]
    assert len(degenerate) > 100
    for pivot in degenerate:
        assert pivot["entering"] == pivot["first_candidate"]


def test_a_walk_whose_duals_do_not_price_the_plan_fails_the_certificate(monkeypatch):
    rng = np.random.default_rng(0)
    p, q = rng.dirichlet(np.ones(8)), rng.dirichlet(np.ones(8))
    costs = transport.cosine_cost(rng.normal(size=(8, 4)))
    _, optimum = transport.solve_emd(p, q, costs)
    start, _ = transport._least_cost_start(p, q, transport.cost_order(costs))
    assert sum(flow * costs[cell] for cell, flow in start.items()) > optimum + 0.01
    walk = transport._spanning_tree

    def zero_duals(*args):
        # every reduced cost is then a cost, so no cell enters and the simplex stops at its start
        dual, parent, depth = walk(*args)
        return [0.0] * len(dual), parent, depth

    monkeypatch.setattr(transport, "_spanning_tree", zero_duals)
    with pytest.raises(InternalError, match="optimality certificate failed"):
        transport.solve_emd(p, q, costs)


def pinned_batch():
    """Dense and sparse marginals at 2 to 64 codes, then degenerate integer cases.

    The costs are symmetric uniform draws, not cosine costs, so no BLAS
    product enters the inputs and the pinned bytes depend only on the solver.
    """
    rng = np.random.default_rng(23)
    for n in (2, 3, 8, 16, 32, 64):
        for trial in range(4):
            p, q = sparse_or_dense_marginals(rng, n, sparse=trial % 2)
            costs = rng.random((n, n))
            costs += costs.T
            np.fill_diagonal(costs, 0.0)
            yield p, q, costs
    for n in [2, 3] * 5 + list(range(4, 17)) * 2:
        yield degenerate_case(rng, n)


# sha256 of every plan's bytes and cost's repr over pinned_batch; a change
# that moves a plan under tied optima, or reorders a float sum, moves it
PINNED_EMD_SHA256 = "be3f91d316c99b15fe26b3c2e17f49af92288eae8794a8c079a15c43637000c8"


def test_emd_plans_and_costs_keep_their_bytes():
    digest = hashlib.sha256()
    for p, q, costs in pinned_batch():
        plan, cost = transport.solve_emd(p, q, costs)
        digest.update(plan.tobytes())
        digest.update(repr(cost).encode())
    assert digest.hexdigest() == PINNED_EMD_SHA256


@pytest.mark.parametrize(
    "batch, perturb",
    [(pinned_batch, transport._PERTURB), (degenerate_batch, 0.0)],
    ids=["pinned", "degenerate-unperturbed"],
)
def test_basic_cells_price_at_zero_so_the_entering_cell_is_never_basic(monkeypatch, batch, perturb):
    """solve_emd takes the argmin of the reduced costs over every cell,
    basic ones too; that is the non-basic Dantzig cell only because the
    full walk, and the walk after each pivot, price every basic cell at
    0 up to rounding, far above -1e-12."""
    monkeypatch.setattr(transport, "_PERTURB", perturb)
    spanning_tree, walk = transport._spanning_tree, transport._walk
    previous: set = set()
    pivots = 0

    def check(solver, adjacent, costs, dual):
        nonlocal previous
        n = len(costs)
        basis = {(i, v - n) for i in range(n) for v in adjacent[i]}
        assert basis == set(solver["flows"])  # the two halves of the basis agree
        for i, j in basis:
            assert abs(costs[i][j] - dual[i] - dual[n + j]) <= 1e-13
        previous = basis

    def first_walk(adjacent, costs):
        tree = spanning_tree(adjacent, costs)
        check(sys._getframe(1).f_locals, adjacent, costs, tree[0])
        return tree

    def pivot_walk(adjacent, costs, tree, up, nodes):
        nonlocal pivots
        solver = sys._getframe(1).f_locals
        if "entering" not in solver:  # the full walk inside _spanning_tree
            return walk(adjacent, costs, tree, up, nodes)
        assert solver["entering"] not in previous
        pivots += 1
        walk(adjacent, costs, tree, up, nodes)
        check(solver, adjacent, costs, tree[0])

    monkeypatch.setattr(transport, "_spanning_tree", first_walk)
    monkeypatch.setattr(transport, "_walk", pivot_walk)
    for p, q, costs in batch():
        transport.solve_emd(p, q, costs)
    assert pivots > 500


@pytest.mark.parametrize(
    "batch, perturb",
    [(pinned_batch, transport._PERTURB), (degenerate_batch, 0.0)],
    ids=["pinned", "degenerate-unperturbed"],
)
def test_each_pivot_walk_leaves_the_tree_a_full_walk_gives(monkeypatch, batch, perturb):
    """After every pivot only the cut-off subtree is walked again; the
    duals, parents and depths it leaves are bitwise a fresh full walk's."""
    monkeypatch.setattr(transport, "_PERTURB", perturb)
    walk = transport._walk
    pivots = 0

    def checked(adjacent, costs, tree, up, nodes):
        nonlocal pivots
        walk(adjacent, costs, tree, up, nodes)
        if "entering" in sys._getframe(1).f_locals:  # the walk after a pivot
            pivots += 1
            dual, parent, depth = tree
            fresh_dual, fresh_parent, fresh_depth = transport._spanning_tree(adjacent, costs)
            assert np.array(dual).tobytes() == np.array(fresh_dual).tobytes()
            assert parent == fresh_parent
            assert depth == fresh_depth

    monkeypatch.setattr(transport, "_walk", checked)
    for p, q, costs in batch():
        transport.solve_emd(p, q, costs)
    assert pivots > 500


def test_one_precomputed_order_serves_every_pair_under_its_costs():
    for p, q, costs in pinned_batch():
        order = transport.cost_order(costs)
        for a, b in [(p, q), (q, p), (p, p)]:
            plan, cost = transport.solve_emd(a, b, costs)
            ordered_plan, ordered_cost = transport.solve_emd(a, b, costs, order=order)
            assert ordered_plan.tobytes() == plan.tobytes()
            assert repr(ordered_cost) == repr(cost)


@pytest.mark.parametrize(
    "adjacent, message",
    [([[2, 3], [2, 3], [0, 1], [0, 1]], "basis contains a cycle"), ([[2], [3], [0], [1]], "basis is not connected")],
    ids=["cycle", "disconnected"],
)
def test_the_walk_refuses_a_basis_that_is_not_a_spanning_tree(adjacent, message):
    # two rows (nodes 0, 1) and two columns (nodes 2, 3): one 4-cycle, or two separate cells
    costs = [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(InternalError, match=message):
        transport._spanning_tree(adjacent, costs)


@pytest.mark.parametrize(
    "batch, perturb",
    [(pinned_batch, transport._PERTURB), (degenerate_batch, 0.0)],
    ids=["pinned", "degenerate-unperturbed"],
)
def test_leaf_stripping_keeps_the_two_heap_order(monkeypatch, batch, perturb):
    """One heap of nodes yields the lowest row, else the lowest column, as
    two heaps did: every basis solve_emd re-solves gets the same flow bytes."""
    monkeypatch.setattr(transport, "_PERTURB", perturb)
    strip = transport._tree_flows
    calls = 0

    def checked(adjacent, p, q):
        nonlocal calls
        calls += 1
        flow = strip(adjacent, p, q)
        assert flow.tobytes() == two_heap_tree_flows(adjacent, p, q).tobytes()
        return flow

    monkeypatch.setattr(transport, "_tree_flows", checked)
    cases = list(batch())
    for p, q, costs in cases:
        transport.solve_emd(p, q, costs)
    assert calls == len(cases)


def test_leaf_stripping_refuses_a_basis_with_a_cycle():
    # rows 0, 1 and columns 2, 3 joined in one 4-cycle: no node has degree 1
    adjacent = [[2, 3], [2, 3], [0, 1], [0, 1]]
    p = q = np.array([0.5, 0.5])
    with pytest.raises(InternalError, match="basis contains a cycle"):
        transport._tree_flows(adjacent, p, q)


def test_emd_rejects_bad_marginals():
    costs = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DataError):
        transport.solve_emd(np.array([0.7, 0.2]), np.array([0.5, 0.5]), costs)
    with pytest.raises(DataError):
        transport.solve_emd(np.array([1.5, -0.5]), np.array([0.5, 0.5]), costs)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_marginal_totals_more_than_1e9_apart_are_a_data_error(n):
    # each total lies within 1e-9 of 1, but no plan has row sums p and column sums q
    rng = np.random.default_rng(50 + n)
    costs = random_cost(rng, n)
    for _ in range(50):
        p = rng.dirichlet(np.ones(n)) * (1.0 + 0.9e-9)
        q = rng.dirichlet(np.ones(n)) * (1.0 - 0.9e-9)
        for a, b in [(p, q), (q, p)]:
            with pytest.raises(DataError, match="totals must agree within 1e-9"):
                transport.solve_emd(a, b, costs)


def test_one_code_takes_the_simplex_path_and_moves_its_mass():
    rng = np.random.default_rng(59)
    for _ in range(50):
        # totals within 1e-9 of 1 and 0.8e-9 to 0.9e-9 apart, under a cost near 2
        gap = rng.choice([-1.0, 1.0]) * rng.uniform(0.4e-9, 0.45e-9)
        p, q = np.array([1.0 + gap]), np.array([1.0 - gap])
        costs = rng.uniform(1.5, 2.0, size=(1, 1))
        plan, cost = transport.solve_emd(p, q, costs)
        assert abs(cost - enumerate_emd(p, q, costs)) < 1e-9
        assert plan.tobytes() == p[:, None].tobytes() and cost == p[0] * costs[0, 0]
        assert_allclose(plan.sum(axis=1), p, atol=1e-9)
        assert_allclose(plan.sum(axis=0), q, atol=1e-9)


@pytest.mark.parametrize("scale", [2.0, 2000.0])
@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_totals_up_to_1e9_apart_are_certified_at_any_cost_scale(n, scale):
    # the re-solved plan meets one marginal only up to the totals' gap, so
    # the certificate must price the plan's own sums, not p and q
    rng = np.random.default_rng(60 + n)
    for _ in range(50):
        costs = rng.random((n, n))
        costs = (costs + costs.T) * (scale / 2.0)
        np.fill_diagonal(costs, 0.0)
        a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        exact = transport.solve_emd(a, b, costs)[1]
        for p, q in [(a * (1.0 + 0.45e-9), b * (1.0 - 0.45e-9)), (a * (1.0 - 0.45e-9), b * (1.0 + 0.45e-9))]:
            plan, cost = transport.solve_emd(p, q, costs)
            assert_allclose(plan.sum(axis=1), p, atol=1e-9)
            assert_allclose(plan.sum(axis=0), q, atol=1e-9)
            assert abs(cost - exact) <= scale * 1e-9


@pytest.mark.parametrize("scale", [2e5, 2e8])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_large_costs_are_solved_to_the_highs_optimum(n, scale):
    # rounding in the duals grows with the costs: an absolute tolerance let a
    # basic cell enter (a KeyError later) and failed the certificate on optimal plans
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(70 + n)
    for _ in range(50):
        costs = rng.random((n, n))
        costs = (costs + costs.T) * (scale / 2.0)
        np.fill_diagonal(costs, 0.0)
        p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        plan, cost = transport.solve_emd(p, q, costs)
        assert_allclose(plan.sum(axis=1), p, atol=1e-9)
        assert_allclose(plan.sum(axis=0), q, atol=1e-9)
        assert abs(cost - linprog_emd_cost(optimize, p, q, costs)) <= scale * 1e-9


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


@pytest.mark.parametrize("rows", [6, 3], ids=["extra-rows", "missing-rows"])
def test_non_square_transition_matrices_are_a_data_error(rows):
    rng = np.random.default_rng(37)
    src = rng.dirichlet(np.ones(4), size=(2, rows))
    trg = rng.dirichlet(np.ones(4), size=(2, rows))
    with pytest.raises(DataError, match="n_codes, n_codes"):
        transport.channel_weights(src, trg, random_cost(rng, 4), sigma=0.2)


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

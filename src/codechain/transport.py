"""Cosine cost matrices, exact EMD, and channel alignment weights.

solve_emd is a classical primal transportation simplex: north-west
corner start, MODI (u/v) pricing on the basis tree and stepping-stone
pivots along the unique tree cycle. The most negative reduced cost
enters (Dantzig); a pivot that would move no flow enters the first
negative cell in row-major order instead, and the smallest tied cell
leaves, so degenerate pivots follow Bland's rule and cannot cycle. The
basis is a spanning tree over the n rows and n columns, walked once
from row 0 for the duals and a parent and depth per node; each pivot
re-walks only the subtree its leaving cell cuts off, and the cycle of
an entering cell is read off by climbing parent pointers from its ends.
The marginals are perturbed internally by a tiny constant to keep the
start nondegenerate; the plan is re-solved on the optimal basis from
the true marginals and certified by a fresh walk before returning.
"""

from __future__ import annotations

import numpy as np

from . import records
from .errors import ConfigError, DataError, InternalError

_PERTURB = 1e-12
_PRICE_TOL = 1e-12
_CERT_TOL = 1e-9
_MARGINAL_TOL = 1e-9
_MAX_PIVOTS = 100000


def cosine_cost(vectors: np.ndarray) -> np.ndarray:
    """(n, n) ground cost 1 - cosine similarity between the rows of an
    (n, d) codeword array: symmetric, zero on the diagonal, entries in [0, 2]."""
    v = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms == 0.0):
        raise DataError("cosine cost undefined for a zero-norm codeword")
    u = v / norms[:, None]
    sim = np.clip(u @ u.T, -1.0, 1.0)
    costs = 1.0 - sim
    np.fill_diagonal(costs, 0.0)
    return 0.5 * (costs + costs.T)


def _northwest_corner(a: np.ndarray, b: np.ndarray):
    """Initial basic solution; always exactly 2n-1 basic cells."""
    n = a.size
    flow = np.zeros((n, n))
    in_basis = np.zeros((n, n), dtype=bool)
    a = a.copy()
    b = b.copy()
    i = j = 0
    while True:
        t = min(a[i], b[j])
        flow[i, j] = t
        in_basis[i, j] = True
        a[i] -= t
        b[j] -= t
        if i == n - 1 and j == n - 1:
            break
        # advance exactly one pointer per step: 2n-2 steps, 2n-1 cells,
        # and neither pointer can run past its last index even when the
        # marginal sums disagree at the 1e-9 tolerance
        if a[i] == 0.0 and i < n - 1:
            i += 1
        elif j < n - 1:
            j += 1
        else:
            i += 1
    return flow, in_basis


def _walk(adjacent, costs, dual, parent, depth, edges) -> None:
    """Hang each (parent, child) edge's child and walk the subtree below it.

    costs is nested lists; node i < n is row i and node n + j column j.
    Each dual is c_ij - dual[parent], so it is the chain of subtractions
    along its path from row 0 whichever walk reaches it. A basis with a
    cycle raises after 2n nodes.
    """
    n = len(costs)
    stack = list(edges)
    for _ in range(2 * n):
        if not stack:
            return
        up, node = stack.pop()
        parent[node] = up
        depth[node] = depth[up] + 1
        cost = costs[up][node - n] if up < n else costs[node][up - n]
        dual[node] = cost - dual[up]
        for nxt in adjacent[node]:
            if nxt != up:
                stack.append((node, nxt))
    raise InternalError("transport basis contains a cycle")


def _spanning_tree(in_basis: np.ndarray, costs: list[list[float]]):
    """Walk the basis tree once from row 0: adjacency, duals, parents, depths.

    costs is nested lists. The duals satisfy u_i + v_j = c_ij on every
    basic cell, anchored at u_0 = 0; the root's parent is -1.
    """
    n = len(costs)
    adjacent: list[list[int]] = [[] for _ in range(2 * n)]
    for i, j in zip(*(idx.tolist() for idx in np.nonzero(in_basis))):
        adjacent[i].append(n + j)
        adjacent[n + j].append(i)
    dual = [0.0] * (2 * n)
    parent = [-1] * (2 * n)
    depth = [-1] * (2 * n)
    depth[0] = 0
    _walk(adjacent, costs, dual, parent, depth, [(0, nxt) for nxt in adjacent[0]])
    if min(depth) < 0:
        raise InternalError("transport basis is not connected")
    return adjacent, dual, parent, depth


def _basis_cycle(parent: list[int], depth: list[int], entering: tuple[int, int]):
    """The unique cycle created by adding the entering cell to the tree.

    Returned cells start at the entering cell and alternate +/- along
    the cycle: then comes the tree path from column j0 to row i0, found
    by climbing the parent pointers of both ends until they meet.
    """
    n = len(parent) // 2

    def edge(node: int) -> tuple[int, int]:
        """The basic cell joining a node to its parent."""
        up = parent[node]
        return (up, node - n) if node >= n else (node, up - n)

    i0, j0 = entering
    a, b = n + j0, i0
    from_col: list[tuple[int, int]] = []
    from_row: list[tuple[int, int]] = []
    while a != b:
        if depth[a] >= depth[b]:
            from_col.append(edge(a))
            a = parent[a]
        else:
            from_row.append(edge(b))
            b = parent[b]
    return [entering] + from_col + from_row[::-1]


def _tree_flows(in_basis: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve the basic flows on a spanning-tree basis by leaf stripping."""
    n = p.size
    flow = np.zeros((n, n))
    remaining = in_basis.copy()
    supply = p.astype(np.float64).copy()
    demand = q.astype(np.float64).copy()
    row_deg = remaining.sum(axis=1)
    col_deg = remaining.sum(axis=0)
    for _ in range(int(in_basis.sum())):
        rows = np.flatnonzero(row_deg == 1)
        if rows.size:
            i = int(rows[0])
            j = int(np.flatnonzero(remaining[i])[0])
            f = supply[i]
        else:
            cols = np.flatnonzero(col_deg == 1)
            if cols.size == 0:
                raise InternalError("transport basis contains a cycle")
            j = int(cols[0])
            i = int(np.flatnonzero(remaining[:, j])[0])
            f = demand[j]
        flow[i, j] = f
        supply[i] -= f
        demand[j] -= f
        remaining[i, j] = False
        row_deg[i] -= 1
        col_deg[j] -= 1
    return flow


def solve_emd(p: np.ndarray, q: np.ndarray, costs: np.ndarray) -> tuple[np.ndarray, float]:
    """(plan, cost): exact optimal transport between two discrete distributions.

    p and q must sum to 1 within 1e-9 with non-negative entries; costs
    is an (n, n) non-negative matrix. The plan has row sums p and column
    sums q within 1e-9 and globally minimal total cost.
    """
    costs = np.asarray(costs, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n = p.size
    if p.shape != (n,) or q.shape != (n,) or costs.shape != (n, n):
        raise DataError("p, q must be length-n vectors and costs n x n")
    if n < 1:
        raise DataError("empty marginals")
    if not np.all(np.isfinite(costs)) or costs.min() < 0.0:
        raise DataError("costs must be finite and non-negative")
    if not (p.min() >= -1e-12 and q.min() >= -1e-12):  # False for a NaN entry
        raise DataError("marginals must be non-negative numbers")
    if abs(p.sum() - 1.0) > _MARGINAL_TOL or abs(q.sum() - 1.0) > _MARGINAL_TOL:
        raise DataError("marginals must sum to 1 within 1e-9")
    p = np.maximum(p, 0.0)
    q = np.maximum(q, 0.0)
    if n == 1:
        return np.array([[1.0]]), float(costs[0, 0])

    # perturbed marginals keep every basic flow strictly positive
    pp = p + _PERTURB
    qq = q.copy()
    qq[-1] += n * _PERTURB

    flow, in_basis = _northwest_corner(pp, qq)
    rows = costs.tolist()
    adjacent, dual, parent, depth = _spanning_tree(in_basis, rows)
    for _ in range(_MAX_PIVOTS):
        duals = np.array(dual)
        reduced = costs - duals[:n, None] - duals[None, n:]
        candidates = np.logical_and(~in_basis, reduced < -_PRICE_TOL)
        if not candidates.any():
            break
        # Dantzig's entering cell, or Bland's when Dantzig's moves no flow
        for flat in (np.argmin(np.where(candidates, reduced, np.inf)), np.argmax(candidates)):
            entering = divmod(int(flat), n)
            cycle = _basis_cycle(parent, depth, entering)
            minus = cycle[1::2]
            theta = min(flow[c] for c in minus)
            if theta > 0.0:
                break
        leaving = min(c for c in minus if flow[c] == theta)
        for idx, cell in enumerate(cycle):
            flow[cell] += theta if idx % 2 == 0 else -theta
        flow[leaving] = 0.0
        in_basis[leaving] = False
        in_basis[entering] = True
        # the leaving cell cuts off the subtree below its lower end; the
        # entering cell re-hangs it from whichever of its ends lies outside
        i, j = leaving
        adjacent[i].remove(n + j)
        adjacent[n + j].remove(i)
        cut = n + j if parent[n + j] == i else i
        i0, j0 = entering
        node = n + j0
        while depth[node] > depth[cut]:
            node = parent[node]
        outer, inner = (i0, n + j0) if node == cut else (n + j0, i0)
        adjacent[outer].append(inner)
        adjacent[inner].append(outer)
        _walk(adjacent, rows, dual, parent, depth, [(outer, inner)])
    else:
        raise InternalError("transportation simplex failed to terminate")

    # re-solve the optimal basis on the true marginals
    plan = np.maximum(_tree_flows(in_basis, p, q), 0.0)
    if (
        np.max(np.abs(plan.sum(axis=1) - p)) > _MARGINAL_TOL
        or np.max(np.abs(plan.sum(axis=0) - q)) > _MARGINAL_TOL
    ):
        raise InternalError("transport plan violates its marginals")
    # certify the final basis from a fresh walk, not the maintained duals
    duals = np.array(_spanning_tree(in_basis, rows)[1])
    if float((costs - duals[:n, None] - duals[None, n:]).min()) < -_CERT_TOL:
        raise InternalError("transport optimality certificate failed")
    return plan, float((plan * costs).sum())


def channel_weights(
    src: np.ndarray, trg: np.ndarray, costs: np.ndarray, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """(weights, mean_costs): exp(-(mean row-wise EMD / sigma)^2) per channel.

    src and trg are (n_channels, n_codes, n_codes) transition matrices
    over the same codes; each matrix row is transported onto its
    counterpart row under the (n_codes, n_codes) ground cost, and the
    n_codes row costs are averaged into mean_costs. Weights lie in
    [0, 1]: identical matrices give 1, and weights shrink toward 0 as
    the matrices drift apart, reaching 0 when the exponent underflows.
    """
    if not sigma > 0.0:
        raise ConfigError("sigma must be > 0")
    src = np.asarray(src, dtype=np.float64)
    trg = np.asarray(trg, dtype=np.float64)
    if src.ndim != 3 or src.shape[0] != trg.shape[0]:
        raise DataError("source and target disagree on channel count")
    n_channels, n_codes = src.shape[0], src.shape[-1]
    if src.shape != trg.shape or np.shape(costs) != (n_codes, n_codes):
        raise DataError("transition matrices and cost matrix disagree on n_codes")
    mean_costs = np.empty(n_channels)
    for d in range(n_channels):
        total = 0.0
        for i in range(n_codes):
            total += solve_emd(src[d, i], trg[d, i], costs)[1]
        mean_costs[d] = total / n_codes
    return np.exp(-((mean_costs / sigma) ** 2)), mean_costs


def write_alignment_report(
    path, weights: np.ndarray, mean_costs: np.ndarray, sigma: float, config: dict | None = None
) -> None:
    """Tab-separated per-channel report; deterministic bytes."""
    lines = [
        "# config " + records.dump_line(config),
        "# sigma " + repr(float(sigma)),
        "channel\tmean_cost\tweight",
    ]
    for d, (cost, weight) in enumerate(zip(mean_costs, weights)):
        lines.append(f"{d}\t{float(cost)!r}\t{float(weight)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

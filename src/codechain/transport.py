"""Cosine cost matrices, exact EMD, and channel alignment weights.

solve_emd is a classical primal transportation simplex: least-cost
start, MODI (u/v) pricing on the basis tree and stepping-stone pivots
along the unique tree cycle. The most negative reduced cost enters
(Dantzig); only when that pivot would move no flow is the first
negative cell in row-major order scanned for, and it enters instead,
while the smallest tied cell leaves, so degenerate pivots follow
Bland's rule and cannot cycle. The basis is a spanning tree over the n
rows and n columns, held once: adjacency lists plus one flow per basic
cell, both built by the start; each pivot moves flow around the cycle,
drops the leaving cell and adds the entering one. The tree is walked
in full once from row 0 for the duals and a parent and depth per node.
A pivot finds its cycle by one climb of parent pointers from both ends
of the entering cell; the leaving cell cuts off the subtree of the end
whose climb it lies on, and only that subtree is walked again, hung
from the other end, which leaves every value bitwise a full walk's.
Every size, n = 1 too, takes this path; no plan meets marginal totals
more than 1e-9 apart, so they are a DataError. A tiny perturbation of
the marginals keeps the start nondegenerate; the plan is re-solved on
the optimal basis from the true marginals by stripping leaves off the
same lists, and certified before returning: the final duals must price
no cell below 0 and give, on the plan's own row and column sums, a dual
objective equal to its cost, which by weak duality proves it optimal.
The entering test and the certificate scale their tolerances by the
largest cost, when above 1, since the duals' rounding grows with it.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from . import records
from .errors import ConfigError, DataError, InternalError
from .records import libm

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
    # an elementwise product and sum, not a GEMM, whose rounding would depend on the BLAS kernel;
    # entries (i, j) and (j, i) sum the same products in the same order, so costs is symmetric bit for bit
    sim = np.clip((u[:, None, :] * u[None, :, :]).sum(axis=-1), -1.0, 1.0)
    costs = 1.0 - sim
    np.fill_diagonal(costs, 0.0)
    return costs


def cost_order(costs: np.ndarray) -> list[tuple[int, int]]:
    """The cells (i, j) of an (n, n) cost matrix in the order the
    least-cost start takes them: the stable argsort of costs, ties to
    the lowest flat index."""
    rows, cols = np.divmod(np.argsort(costs, axis=None, kind="stable"), len(costs))
    return list(zip(rows.tolist(), cols.tolist()))


def _least_cost_start(a: np.ndarray, b: np.ndarray, order: list[tuple[int, int]]):
    """Initial basis by the least-cost rule: (flows, adjacent).

    flows maps each of the exactly 2n - 1 basic cells (i, j) to its
    flow; adjacent lists each node's neighbours in the basis tree, node
    i < n being row i and n + j column j. Cells are taken in order, as
    cost_order returns it, skipping any whose row or column is crossed
    out. Each taken cell crosses out exactly one line, its row once the
    row's supply is spent, else its column, and both at the last cell.
    The last open row or column is never crossed out before that cell,
    so the start stays a spanning tree even when the marginal sums
    disagree at the 1e-9 tolerance.
    """
    n = a.size
    flows: dict[tuple[int, int], float] = {}
    adjacent: list[list[int]] = [[] for _ in range(2 * n)]
    a = a.tolist()
    b = b.tolist()
    row_open = [True] * n
    col_open = [True] * n
    rows_left = cols_left = n
    for i, j in order:
        if not (row_open[i] and col_open[j]):
            continue
        t = min(a[i], b[j])
        flows[i, j] = t
        adjacent[i].append(n + j)
        adjacent[n + j].append(i)
        a[i] -= t
        b[j] -= t
        if rows_left == 1 and cols_left == 1:
            break
        if cols_left == 1 or (rows_left > 1 and a[i] == 0.0):
            row_open[i] = False
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1
    return flows, adjacent


def _walk(adjacent: list[list[int]], costs: list[list[float]], tree, up: int, nodes) -> None:
    """Hang nodes from up and walk the subtrees below them, in place.

    tree holds the (dual, parent, depth) lists, final at up. Each node
    gets its parent, its depth and the dual that prices its cell at 0
    from its parent's alone, so they depend only on its path from row 0.
    A walk that reaches 2n nodes has met a cycle and raises.
    """
    dual, parent, depth = tree
    n = len(costs)
    stack = [(up, node) for node in nodes]
    for _ in range(2 * n):
        if not stack:
            break
        up, node = stack.pop()
        parent[node] = up
        depth[node] = depth[up] + 1
        cost = costs[up][node - n] if up < n else costs[node][up - n]
        dual[node] = cost - dual[up]
        for nxt in adjacent[node]:
            if nxt != up:
                stack.append((node, nxt))
    else:
        raise InternalError("transport basis contains a cycle")


def _spanning_tree(adjacent: list[list[int]], costs: list[list[float]]):
    """Walk the basis tree in full from row 0: (dual, parent, depth).

    adjacent lists each node's neighbours, as _least_cost_start builds
    them, and costs is nested lists. The duals satisfy u_i + v_j = c_ij
    on every basic cell, anchored at u_0 = 0; the root's parent is -1. A
    basis with a cycle raises from _walk, one that leaves a node
    unreached raises after it.
    """
    n = len(costs)
    tree = ([0.0] * (2 * n), [-1] * (2 * n), [0] + [-1] * (2 * n - 1))
    _walk(adjacent, costs, tree, 0, adjacent[0])
    if min(tree[2]) < 0:
        raise InternalError("transport basis is not connected")
    return tree


def _basis_cycle(parent: list[int], depth: list[int], entering: tuple[int, int]):
    """The unique cycle created by adding the entering cell to the tree: (cells, k).

    cells start at the entering cell and alternate +/- along the cycle,
    then follow the tree path from column j0 to row i0, found by climbing
    parent pointers from both ends until they meet; the k cells after
    the entering one come from column j0's climb.
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
    return [entering] + from_col + from_row[::-1], len(from_col)


def _tree_flows(adjacent: list[list[int]], p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve the basic flows on a spanning-tree basis by leaf stripping.

    Each step strips the lowest-numbered node of degree 1 (rows, nodes
    0..n-1, before columns, nodes n..2n-1): its one cell carries the
    leaf's leftover mass, which comes off the other end. A degree only
    falls, so a node joins the heap once, on reaching degree 1, and is
    skipped there once stripped to 0.
    """
    n = p.size
    remaining = [list(nodes) for nodes in adjacent]
    leaves = [v for v in range(2 * n) if len(remaining[v]) == 1]
    mass = p.tolist() + q.tolist()
    flow = np.zeros((n, n))
    for _ in range(sum(map(len, remaining[:n]))):
        while leaves and len(remaining[leaves[0]]) != 1:
            heapq.heappop(leaves)
        if not leaves:
            raise InternalError("transport basis contains a cycle")
        leaf = heapq.heappop(leaves)
        other = remaining[leaf].pop()
        remaining[other].remove(leaf)
        i, j = (leaf, other - n) if leaf < n else (other, leaf - n)
        flow[i, j] = mass[leaf]
        mass[other] -= mass[leaf]
        if len(remaining[other]) == 1:
            heapq.heappush(leaves, other)
    return flow


def solve_emd(
    p: np.ndarray, q: np.ndarray, costs: np.ndarray, *, order: list[tuple[int, int]] | None = None
) -> tuple[np.ndarray, float]:
    """(plan, cost): exact optimal transport between two discrete distributions.

    p and q must have non-negative entries and each sum to 1 within
    1e-9, and their sums may differ by at most 1e-9; costs is an (n, n)
    non-negative finite matrix. The plan has row sums p and column sums
    q within 1e-9 and globally minimal total cost. order is
    cost_order(costs), computed here when not given; callers that solve
    many pairs under one cost matrix compute it once.
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
    if abs(p.sum() - q.sum()) > _MARGINAL_TOL:
        raise DataError("marginal totals must agree within 1e-9")
    p = np.maximum(p, 0.0)
    q = np.maximum(q, 0.0)

    # perturbed marginals keep every basic flow strictly positive
    pp = p + _PERTURB
    qq = q.copy()
    qq[-1] += n * _PERTURB

    flows, adjacent = _least_cost_start(pp, qq, cost_order(costs) if order is None else order)
    rows = costs.tolist()
    scale = max(1.0, float(costs.max()))
    tree = dual, parent, depth = _spanning_tree(adjacent, rows)
    for _ in range(_MAX_PIVOTS):
        duals = np.array(dual)
        # a basic cell prices at 0 up to rounding, far above -_PRICE_TOL * scale, so it never enters
        reduced = costs - duals[:n, None] - duals[None, n:]
        entering = divmod(int(np.argmin(reduced)), n)
        if not reduced[entering] < -_PRICE_TOL * scale:
            break
        cycle, k = _basis_cycle(parent, depth, entering)
        theta, leaving = min((flows[c], c) for c in cycle[1::2])
        if not theta > 0.0:  # Dantzig's cell moves no flow: Bland's, the first negative cell, enters
            entering = divmod(int(np.argmax(reduced < -_PRICE_TOL * scale)), n)
            cycle, k = _basis_cycle(parent, depth, entering)
            theta, leaving = min((flows[c], c) for c in cycle[1::2])
        flows[entering] = 0.0
        for idx, cell in enumerate(cycle):
            flows[cell] += theta if idx % 2 == 0 else -theta
        del flows[leaving]
        adjacent[leaving[0]].remove(n + leaving[1])
        adjacent[n + leaving[1]].remove(leaving[0])
        adjacent[entering[0]].append(n + entering[1])
        adjacent[n + entering[1]].append(entering[0])
        # walk again the subtree cut off, that of the end whose climb held the leaving cell
        hang, root = (entering[0], n + entering[1]) if cycle.index(leaving) <= k else (n + entering[1], entering[0])
        _walk(adjacent, rows, tree, hang, [root])
    else:
        raise InternalError("transportation simplex failed to terminate")

    # re-solve the optimal basis on the true marginals
    plan = np.maximum(_tree_flows(adjacent, p, q), 0.0)
    out, into = plan.sum(axis=1), plan.sum(axis=0)
    if np.max(np.abs(out - p)) > _MARGINAL_TOL or np.max(np.abs(into - q)) > _MARGINAL_TOL:
        raise InternalError("transport plan violates its marginals")
    # certify the final basis: its duals leave no cell, basic ones too, a
    # reduced cost below 0, and by weak duality a dual objective on the plan's
    # own row and column sums equal to its cost then proves the plan optimal
    # for them however the duals were found; p and q themselves would miss by
    # a dual times the totals' gap, which costs above 1 lift past 1e-9
    cost = float((plan * costs).sum())
    cert_tol = _CERT_TOL * scale
    if float(reduced.min()) < -cert_tol or abs(cost - (duals[:n] @ out + duals[n:] @ into)) > cert_tol:
        raise InternalError("transport optimality certificate failed")
    return plan, cost


def channel_weights(
    src: np.ndarray, trg: np.ndarray, costs: np.ndarray, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """(weights, mean_costs): exp(-(mean row-wise EMD / sigma)^2) per channel.

    src and trg are (n_channels, n_codes, n_codes) transition matrices
    over the same codes; each matrix row is transported onto its
    counterpart row under the (n_codes, n_codes) ground cost, and the
    n_codes row costs are averaged into mean_costs. Weights lie in
    [0, 1]: identical matrices give 1, and weights shrink toward 0 as
    the matrices drift apart, reaching 0 once the exponent underflows or overflows.
    """
    if not sigma > 0.0:
        raise ConfigError("sigma must be > 0")
    src = np.asarray(src, dtype=np.float64)
    trg = np.asarray(trg, dtype=np.float64)
    if src.ndim != 3 or src.shape[0] != trg.shape[0]:
        raise DataError("source and target disagree on channel count")
    n_channels, n_codes = src.shape[0], src.shape[-1]
    shape = (n_channels, n_codes, n_codes)
    if src.shape != shape or trg.shape != shape or np.shape(costs) != (n_codes, n_codes):
        raise DataError("transition matrices must be (n_channels, n_codes, n_codes) over the costs' n_codes")
    order = cost_order(costs)
    mean_costs = np.empty(n_channels)
    for d in range(n_channels):
        total = 0.0
        for i in range(n_codes):
            total += solve_emd(src[d, i], trg[d, i], costs, order=order)[1]
        mean_costs[d] = total / n_codes
    with np.errstate(over="ignore"):
        return libm(math.exp, -((mean_costs / sigma) ** 2)), mean_costs


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
    with records.replacing(path) as fh:
        fh.write("\n".join(lines) + "\n")

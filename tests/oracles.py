"""Reference implementations that tests compare the program against,
and the permutation-entropy measure that only tests take."""

import heapq
import math

import numpy as np

from codechain.errors import ConfigError, DataError, InternalError
from codechain.rvq import ResidualQuantizer


def log_likelihood(
    sequence: np.ndarray, probs: np.ndarray, per_transition: bool = False
) -> float:
    """Sequence-length-normalized log probability of a code sequence.

    Sums ln p(s[t+1] | s[t]) under one (n, n) matrix and divides by the
    sequence length N (or by N - 1 when per_transition is set). Requires
    a smoothed matrix: any zero-probability transition raises instead of
    returning -inf. One sequence at a time, the per-instance oracle for
    the batched scorer in pseudolabel.label_dataset.
    """
    probs = np.asarray(probs, dtype=np.float64)
    seq = np.asarray(sequence, dtype=np.int64)
    if seq.ndim != 1 or seq.size < 2:
        raise DataError("sequence must be 1-D with length >= 2")
    if seq.min() < 0 or seq.max() >= probs.shape[0]:
        raise DataError(f"code out of range [0, {probs.shape[0]}) in sequence")
    p = probs[seq[:-1], seq[1:]]
    if np.any(p <= 0.0):
        raise DataError(
            "zero transition probability encountered; smooth the matrix before scoring"
        )
    denom = seq.size - 1 if per_transition else seq.size
    return float(np.log(p).sum() / denom)


def softmax(logits: np.ndarray) -> np.ndarray:
    """exp(x) / sum(exp(x)) of one vector, shifted by its max so no term overflows."""
    e = np.exp(np.asarray(logits, dtype=np.float64) - np.max(logits))
    return e / e.sum()


def linprog_emd_cost(optimize, p, q, costs):
    """Optimal transport cost as a plain LP, solved by HiGHS."""
    n = p.size
    rows = np.kron(np.eye(n), np.ones((1, n)))  # sum_j x_ij = p_i
    cols = np.kron(np.ones((1, n)), np.eye(n))  # sum_i x_ij = q_j
    res = optimize.linprog(
        costs.ravel(),
        A_eq=np.vstack([rows, cols]),
        b_eq=np.concatenate([p, q]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


def unique_draw(points: np.ndarray, n_codes: int, rng: np.random.Generator) -> np.ndarray:
    """Lloyd's initial codewords through np.unique, which rvq._draw_distinct must match.

    np.unique sorts the distinct rows of the pool, and rng.choice picks
    n_codes of their ranks without replacement.
    """
    distinct = np.unique(points, axis=0)
    if len(distinct) < n_codes:
        raise DataError(
            f"need at least {n_codes} distinct vectors to fit {n_codes} codes, have {len(distinct)}"
        )
    return distinct[rng.choice(len(distinct), size=n_codes, replace=False)]


def two_heap_tree_flows(adjacent: list[list[int]], p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Basic flows on a spanning-tree basis by leaf stripping, from two heaps.

    The leaf order that transport._tree_flows must keep: each step strips
    the lowest-index row of degree 1, else the lowest-index column of
    degree 1, row i being node i and column j node n + j.
    """
    n = p.size
    remaining = [list(nodes) for nodes in adjacent]
    rows = [v for v in range(n) if len(remaining[v]) == 1]
    cols = [v for v in range(n, 2 * n) if len(remaining[v]) == 1]
    mass = p.tolist() + q.tolist()
    flow = np.zeros((n, n))
    for _ in range(sum(map(len, remaining[:n]))):
        for heap in (rows, cols):
            while heap and len(remaining[heap[0]]) != 1:
                heapq.heappop(heap)
        if not (rows or cols):
            raise InternalError("transport basis contains a cycle")
        leaf = heapq.heappop(rows or cols)
        other = remaining[leaf].pop()
        remaining[other].remove(leaf)
        i, j = (leaf, other - n) if leaf < n else (other, leaf - n)
        flow[i, j] = mass[leaf]
        mass[other] -= mass[leaf]
        if len(remaining[other]) == 1:
            heapq.heappush(rows if other < n else cols, other)
    return flow


def permutation_entropy(series: np.ndarray, order: int = 3, delay: int = 1) -> float:
    """Normalized permutation entropy in [0, 1].

    Each window of `order` samples spaced `delay` apart is reduced to
    its ordinal pattern via a stable argsort, so ties rank the earlier
    index first. The Shannon entropy of the pattern distribution is
    divided by ln(order!).
    """
    if order < 2:
        raise ConfigError("order must be >= 2")
    if delay < 1:
        raise ConfigError("delay must be >= 1")
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise DataError("series must be 1-D")
    if not np.all(np.isfinite(series)):
        raise DataError("series must be finite")
    span = (order - 1) * delay
    if series.size < order * delay + 1:
        raise DataError(
            f"series of length {series.size} too short for order={order}, delay={delay}"
        )
    n_windows = series.size - span
    idx = np.arange(n_windows)[:, None] + np.arange(order)[None, :] * delay
    patterns = np.argsort(series[idx], axis=1, kind="stable")
    # encode each pattern as a single integer for counting
    base = order ** np.arange(order)
    codes = patterns @ base
    _, counts = np.unique(codes, return_counts=True)
    probs = counts / counts.sum()
    entropy = float(-(probs * np.log(probs)).sum())
    return entropy / math.log(math.factorial(order))


def pe_report(
    quantizer: ResidualQuantizer,
    coarse_idx: np.ndarray,
    fine_idx: np.ndarray,
    order: int = 3,
    delay: int = 1,
) -> tuple[float, float]:
    """Mean permutation entropy of coarse vs fine code-vector traces.

    coarse_idx and fine_idx are (n_instances, n_channels, n_patches).
    For every instance and channel, the sequence of assigned raw
    codewords is flattened into one series (patch after patch), once
    with coarse vectors and once with fine vectors, and scored with
    permutation_entropy. Returns (mean coarse PE, mean fine PE).
    """
    coarse_idx = np.asarray(coarse_idx, dtype=np.int64)
    fine_idx = np.asarray(fine_idx, dtype=np.int64)
    if coarse_idx.ndim != 3 or coarse_idx.shape != fine_idx.shape:
        raise DataError("coarse and fine indices must share an (instances, channels, patches) shape")
    if coarse_idx.size == 0:
        raise DataError("no codes given")
    n_series = coarse_idx.shape[0] * coarse_idx.shape[1]
    coarse_series = quantizer.coarse[coarse_idx].reshape(n_series, -1)
    fine_series = quantizer.fine[fine_idx].reshape(n_series, -1)
    coarse_pe = [permutation_entropy(x, order, delay) for x in coarse_series]
    fine_pe = [permutation_entropy(x, order, delay) for x in fine_series]
    return float(np.mean(coarse_pe)), float(np.mean(fine_pe))

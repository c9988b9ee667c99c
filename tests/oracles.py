"""Reference implementations that tests compare the program against."""

import numpy as np

from codechain.errors import DataError


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

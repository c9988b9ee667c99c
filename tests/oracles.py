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

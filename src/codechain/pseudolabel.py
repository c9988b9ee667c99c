"""Channel-wise Bayesian posteriors and weighted pseudo-label aggregation.

Each channel scores every class by the likelihood of its coarse-code
sequence under that class's transition matrix, combined with a label
prior whose influence is tempered by tau. Channel posteriors are then
averaged with the alignment weights; the aggregate scores are reported
as-is (not renormalized), so confidence reflects both class preference
and how much total weight the channels carried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from . import records
from .dataset import JSON_NUMBERS, DomainDataset
from .errors import ConfigError, DataError
from .transport import ChannelWeights

_PRIOR_FLOOR = 1e-12


@dataclass(frozen=True)
class LabelPrior:
    """Class prior with temperature tau; entries floored at 1e-12."""

    probs: np.ndarray
    tau: float = 1.0

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size < 2:
            raise DataError("prior must be a 1-D vector with >= 2 classes")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise DataError("prior entries must be finite and non-negative")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise DataError("prior must sum to 1 within 1e-9")
        if not self.tau > 0.0:
            raise ConfigError("tau must be > 0")
        probs = np.maximum(probs, _PRIOR_FLOOR)
        probs = probs / probs.sum()
        object.__setattr__(self, "probs", probs)

    @property
    def n_classes(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, n_classes: int, tau: float = 1.0) -> "LabelPrior":
        return cls(probs=np.full(n_classes, 1.0 / n_classes), tau=tau)


def channel_posterior(logliks: np.ndarray, prior: LabelPrior) -> np.ndarray:
    """softmax over the last (class) axis of loglik + log(prior)/tau.

    logliks is (..., n_classes); every class vector of the result sums
    to 1.
    """
    logliks = np.asarray(logliks, dtype=np.float64)
    if logliks.ndim < 1 or logliks.shape[-1] != prior.n_classes:
        raise DataError("log-likelihoods do not match the prior's class count")
    if not np.all(np.isfinite(logliks)):
        raise DataError("log-likelihoods must be finite")
    logits = logliks + np.log(prior.probs) / prior.tau
    logits = logits - logits.max(axis=-1, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class PseudoLabel:
    instance_id: str
    scores: np.ndarray
    label: int
    confidence: float
    per_channel_posteriors: np.ndarray


def aggregate(posteriors: np.ndarray, weights, ids: Sequence[str] | None = None) -> list[PseudoLabel]:
    """Weight-averaged class scores per instance; argmax label, ties to the lowest index.

    posteriors is (n_instances, n_channels, n_classes); weights is a
    ChannelWeights or a plain vector. Scores are
    sum_d w_d * posterior_d / n_channels, deliberately not renormalized.
    ids name the instances in order (empty strings when not given).
    """
    post = np.asarray(posteriors, dtype=np.float64)
    if post.ndim != 3:
        raise DataError("posteriors must be 3-D (instances, channels, classes)")
    w = weights.weights if isinstance(weights, ChannelWeights) else np.asarray(weights, dtype=np.float64)
    if w.shape != (post.shape[1],):
        raise DataError("weights do not match the posterior channel count")
    ids = [""] * len(post) if ids is None else [str(i) for i in ids]
    if len(ids) != len(post):
        raise DataError("ids do not match the posterior instance count")
    scores = (w[None, :, None] * post).sum(axis=1) / post.shape[1]
    labels = np.argmax(scores, axis=1)
    confidences = scores[np.arange(len(scores)), labels]
    return [
        PseudoLabel(
            instance_id=iid,
            scores=scores[n],
            label=int(labels[n]),
            confidence=float(confidences[n]),
            per_channel_posteriors=post[n],
        )
        for n, iid in enumerate(ids)
    ]


def label_dataset(
    target: DomainDataset,
    codes: np.ndarray,
    model: np.ndarray,
    weights: ChannelWeights,
    prior: LabelPrior,
) -> list[PseudoLabel]:
    """Pseudo-label every target instance from its coarse codes, in one batch.

    codes is (n_instances, n_channels, n_patches); model holds the
    smoothed (strictly positive) (n_classes, n_channels, n_codes,
    n_codes) class matrices. One gather takes log p(to | from) of every
    transition under every class; the (n_instances, n_channels,
    n_classes) log-likelihoods are sum_t ln p(s[t+1] | s[t]) / n_patches,
    the log probability of each code sequence normalised by its length.
    Those become per-channel posteriors, then weighted scores. Results
    are ordered like the dataset.
    """
    if target.role != "target":
        raise DataError(f"labeling expects a target dataset, got role {target.role!r}")
    model = np.asarray(model, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.int64)
    if model.ndim != 4 or model.shape[0] != prior.n_classes:
        raise DataError("model and prior disagree on the class count")
    if model.shape[1] != target.n_channels:
        raise DataError("model and dataset disagree on the channel count")
    if weights.n_channels != target.n_channels:
        raise DataError("weights and dataset disagree on the channel count")
    if codes.ndim != 3 or codes.shape[:2] != (len(target), target.n_channels) or codes.shape[2] < 2:
        raise DataError(
            f"codes of shape {codes.shape} are not (instances, channels, >= 2 patches) of the dataset"
        )
    if codes.size and (codes.min() < 0 or codes.max() >= model.shape[-1]):
        raise DataError(f"code out of range [0, {model.shape[-1]})")
    if np.any(model <= 0.0):
        raise DataError("model has zero transition probabilities; smooth it first")
    log_probs = np.moveaxis(np.log(model), 0, -1)  # (channels, from, to, classes)
    channel = np.arange(target.n_channels)[None, :, None]
    gathered = log_probs[channel, codes[:, :, :-1], codes[:, :, 1:]]
    logliks = gathered.sum(axis=2) / codes.shape[2]
    return aggregate(channel_posterior(logliks, prior), weights, target.ids)


def top_r_select(labels: Sequence[PseudoLabel], r_top: float) -> np.ndarray:
    """Indices of the ceil(r_top * n) most confident labels, ascending.

    Confidence ties resolve to the lower index; the count is guarded
    against float artifacts in r_top * n.
    """
    if not 0.0 < r_top <= 1.0:
        raise ConfigError(f"r_top must lie in (0, 1], got {r_top}")
    n = len(labels)
    if n == 0:
        raise DataError("no labels to select from")
    k = int(math.ceil(r_top * n - 1e-9))
    k = max(1, min(k, n))
    conf = np.asarray([pl.confidence for pl in labels], dtype=np.float64)
    order = np.argsort(-conf, kind="stable")
    return np.sort(order[:k])


def save_labels(path, labels: Sequence[PseudoLabel], weights: ChannelWeights, config: dict | None = None) -> None:
    header = {
        "kind": "pseudo_labels",
        "n_instances": len(labels),
        "n_classes": int(labels[0].scores.size) if labels else 0,
        "channel_weights": [float(x) for x in weights.weights],
    }
    if config is not None:
        header["config"] = config
    recs = (
        {
            "id": pl.instance_id,
            "label": pl.label,
            "confidence": pl.confidence,
            "scores": [float(x) for x in pl.scores],
            "per_channel_posteriors": pl.per_channel_posteriors.tolist(),
        }
        for pl in labels
    )
    records.write_record_file(path, header, recs)


def load_labels(path) -> tuple[list[PseudoLabel], dict]:
    """Pseudo-labels from a file: label a non-negative JSON integer,
    confidence a finite JSON number (never a bool), scores a vector and
    per_channel_posteriors a matrix of JSON numbers."""
    header, recs = records.read_record_file(path, expected_kind="pseudo_labels")
    out = []
    for rec in recs:
        for key in ("id", "label", "confidence", "scores", "per_channel_posteriors"):
            if key not in rec:
                raise DataError(f"{path}: pseudo-label record missing {key!r}")
        confidence = rec["confidence"]
        if type(confidence) not in (int, float) or not math.isfinite(confidence):
            raise DataError(f"{path}: pseudo-label confidence {confidence!r} is not a finite number")
        try:
            scores = np.asarray(rec["scores"], dtype=np.float64)
            posteriors = np.asarray(rec["per_channel_posteriors"], dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{path}: pseudo-label scores are not numbers") from exc
        # asarray would also read strings and bools as numbers
        if scores.ndim != 1 or posteriors.ndim != 2 or not JSON_NUMBERS.issuperset(
            map(type, chain(rec["scores"], chain.from_iterable(rec["per_channel_posteriors"])))
        ):
            raise DataError(f"{path}: pseudo-label scores are not a vector and matrix of numbers")
        out.append(
            PseudoLabel(
                instance_id=rec["id"],
                scores=scores,
                label=records.whole_number(path, "pseudo-label label", rec["label"], least=0),
                confidence=float(confidence),
                per_channel_posteriors=posteriors,
            )
        )
    return out, header


def save_selection(path, labels: Sequence[PseudoLabel], indices: np.ndarray, r_top: float, config: dict | None = None) -> None:
    header = {"kind": "selection", "r_top": r_top, "n_selected": int(len(indices))}
    if config is not None:
        header["config"] = config
    recs = (
        {
            "index": int(i),
            "id": labels[int(i)].instance_id,
            "label": labels[int(i)].label,
            "confidence": labels[int(i)].confidence,
        }
        for i in indices
    )
    records.write_record_file(path, header, recs)


def load_selection(path) -> tuple[list[dict], dict]:
    """Selection records; each index is a non-negative JSON integer."""
    header, recs = records.read_record_file(path, expected_kind="selection")
    recs = list(recs)
    for rec in recs:
        if "id" not in rec or "index" not in rec:
            raise DataError(f"{path}: selection record missing 'id' or 'index'")
        records.whole_number(path, "selection index", rec["index"], least=0)
    return recs, header

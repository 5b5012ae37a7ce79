"""Evaluation metrics used across the paper's experiments.

Vision tasks report top-1/top-5 accuracy; GLUE tasks report accuracy, F1
(QQP/MRPC), Spearman correlation (STS-B) or Matthews correlation (CoLA);
BERT pre-training reports masked-language-model loss.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np


def top_k_accuracy(logits: np.ndarray, targets: np.ndarray, k: int = 1) -> float:
    """Fraction of samples whose true label is within the top-k predictions."""
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ValueError("expected logits of shape (N, C)")
    k = min(k, logits.shape[1])
    top_k = np.argpartition(-logits, kth=k - 1, axis=1)[:, :k]
    return float(np.mean(np.any(top_k == targets[:, None], axis=1)))


def accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    return top_k_accuracy(logits, targets, k=1)


def f1_score(predictions: np.ndarray, targets: np.ndarray, positive_class: int = 1) -> float:
    """Binary F1 score, used for QQP and MRPC.

    Degenerate inputs are well-defined: with no true positives (including a
    batch with no positive predictions, no positive targets, or no samples at
    all) both precision and recall are 0/0 — the score is defined as 0.0.
    """
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.size == 0 or targets.size == 0:
        return 0.0
    tp = float(np.sum((predictions == positive_class) & (targets == positive_class)))
    fp = float(np.sum((predictions == positive_class) & (targets != positive_class)))
    fn = float(np.sum((predictions != positive_class) & (targets == positive_class)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def matthews_corrcoef(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Matthews correlation coefficient, used for CoLA.

    Single-class targets or predictions (and empty batches) zero the
    denominator — the 0/0 case is defined as 0.0, matching sklearn.
    """
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.size == 0 or targets.size == 0:
        return 0.0
    tp = float(np.sum((predictions == 1) & (targets == 1)))
    tn = float(np.sum((predictions == 0) & (targets == 0)))
    fp = float(np.sum((predictions == 1) & (targets == 0)))
    fn = float(np.sum((predictions == 0) & (targets == 1)))
    denom = np.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / denom


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``; tied values share the mean of their ranks."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return (last - (counts - 1) / 2.0)[group]


def spearman_correlation(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Spearman rank correlation, used for STS-B: Pearson on tie-averaged ranks.

    Constant (zero-variance) arrays and empty batches have no defined rank
    correlation (0/0 inside the formula) — both return 0.0 instead of NaN,
    as does a NaN anywhere in either input.  Arrays of different lengths
    raise ``ValueError``.
    """
    predictions = np.asarray(predictions).reshape(-1)
    targets = np.asarray(targets).reshape(-1)
    if predictions.size == 0 or targets.size == 0:
        return 0.0
    if predictions.size != targets.size:
        raise ValueError(f"spearman_correlation needs inputs of equal length, got "
                         f"{predictions.size} predictions and {targets.size} targets")
    if np.isnan(predictions).any() or np.isnan(targets).any():
        return 0.0
    if np.allclose(predictions, predictions[0]) or np.allclose(targets, targets[0]):
        return 0.0
    return float(np.corrcoef(_average_ranks(predictions), _average_ranks(targets))[0, 1])


def classification_metric(name: str, logits: np.ndarray, targets: np.ndarray) -> float:
    """Dispatch a GLUE-style metric by name."""
    if name == "accuracy":
        return accuracy(logits, targets)
    predictions = np.argmax(logits, axis=1) if logits.ndim == 2 else logits
    if name == "f1":
        return f1_score(predictions, targets)
    if name == "matthews":
        return matthews_corrcoef(predictions, targets)
    if name == "spearman":
        return spearman_correlation(logits.reshape(-1), targets)
    raise KeyError(f"unknown metric {name!r}")


def mlm_loss(logits: np.ndarray, labels: np.ndarray, ignore_index: int = -100) -> float:
    """Mean cross-entropy over masked positions only (BERT pre-training metric)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    flat_logits = logits.reshape(-1, logits.shape[-1])
    flat_labels = labels.reshape(-1)
    valid = flat_labels != ignore_index
    if not valid.any():
        return 0.0
    selected = flat_logits[valid]
    shifted = selected - selected.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(selected)), flat_labels[valid]].mean())


class AverageMeter:
    """Running average over mini-batches (loss, accuracy, time)."""

    def __init__(self):
        self.total = 0.0
        self.count = 0

    def update(self, value: float, n: int = 1) -> None:
        self.total += float(value) * n
        self.count += n

    @property
    def average(self) -> float:
        """Running mean; 0.0 before the first ``update`` (never 0/0)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    @property
    def avg(self) -> float:
        """Torch-style alias for :attr:`average` (same empty-meter semantics)."""
        return self.average

    def reset(self) -> None:
        self.total = 0.0
        self.count = 0

"""Top-2 classification and outcome partitioning (paper §III-B).

After each adaptive-learning pass, DistHD queries the partially-trained model
for the two most similar classes of every training sample and partitions
samples into three outcomes:

- **correct** — true label is the most similar class;
- **partially correct** — true label is the *second* most similar class;
- **incorrect** — true label is outside the top 2.

The partially-correct and incorrect sets feed Algorithm 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hdc.memory import AssociativeMemory


def top2_labels(
    memory: AssociativeMemory,
    encoded: np.ndarray,
    *,
    query_norms=None,
) -> np.ndarray:
    """``(n, 2)`` array of each sample's two most-similar class labels.

    ``query_norms`` are ``encoded``'s precomputed ``(n,)`` row norms.
    """
    if memory.n_classes < 2:
        raise ValueError("top-2 classification requires at least 2 classes")
    labels, _ = memory.topk(encoded, k=2, query_norms=query_norms)
    return labels


@dataclass
class OutcomePartition:
    """Index sets and per-sample top-2 labels for one training iteration.

    Attributes
    ----------
    correct, partial, incorrect:
        Integer index arrays into the training batch.
    top1, top2:
        ``(n,)`` most-similar and second-most-similar class per sample.
    """

    correct: np.ndarray
    partial: np.ndarray
    incorrect: np.ndarray
    top1: np.ndarray
    top2: np.ndarray

    @property
    def n_samples(self) -> int:
        return int(self.top1.shape[0])

    def rates(self) -> dict:
        """Fractions of the batch per outcome (sums to 1)."""
        n = max(self.n_samples, 1)
        return {
            "correct": self.correct.size / n,
            "partial": self.partial.size / n,
            "incorrect": self.incorrect.size / n,
        }

    def top2_accuracy(self) -> float:
        """Fraction of samples whose true label is within the top 2."""
        n = max(self.n_samples, 1)
        return (self.correct.size + self.partial.size) / n


def partition_outcomes(
    memory: AssociativeMemory,
    encoded: np.ndarray,
    labels: np.ndarray,
    *,
    query_norms=None,
) -> OutcomePartition:
    """Partition a training batch by top-2 outcome against ``memory``."""
    labels = np.asarray(labels, dtype=np.int64)
    pair = top2_labels(memory, encoded, query_norms=query_norms)
    if pair.shape[0] != labels.shape[0]:
        raise ValueError(
            f"encoded and labels disagree on sample count: "
            f"{pair.shape[0]} vs {labels.shape[0]}"
        )
    top1, top2 = pair[:, 0], pair[:, 1]
    is_correct = top1 == labels
    is_partial = ~is_correct & (top2 == labels)
    is_incorrect = ~is_correct & ~is_partial
    return OutcomePartition(
        correct=np.flatnonzero(is_correct),
        partial=np.flatnonzero(is_partial),
        incorrect=np.flatnonzero(is_incorrect),
        top1=top1,
        top2=top2,
    )


def topk_accuracy_from_memory(
    memory: AssociativeMemory,
    encoded: np.ndarray,
    labels: np.ndarray,
    k: int,
) -> float:
    """Top-``k`` accuracy of ``memory`` on an encoded batch.

    A prediction is top-``k`` correct when the true label appears among the
    ``k`` most similar classes (the paper's definition, §I).
    """
    labels = np.asarray(labels, dtype=np.int64)
    topk, _ = memory.topk(encoded, k=k)
    return float(np.mean(np.any(topk == labels[:, None], axis=1)))

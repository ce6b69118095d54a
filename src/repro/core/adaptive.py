"""Algorithm 1 — similarity-weighted adaptive learning.

One iteration walks the (already encoded) training batch; for each sample
whose most-similar class is wrong, the model moves the wrongly-matched class
hypervector away from the sample and the true class hypervector toward it,
each scaled by how *surprising* the sample is:

    C_pred ← C_pred − η · (1 − δ(H, C_pred)) · H
    C_true ← C_true + η · (1 − δ(H, C_true)) · H

A sample already similar to a class (δ ≈ 1) contributes almost nothing —
this is the paper's guard against model saturation.

``adaptive_fit_iteration`` processes the data in mini-batches: similarities
for a whole batch are computed matrix-wise against the current model, and
because every update coefficient comes from those batch-start similarities,
the (typically few) mispredicted samples' updates commute and are applied as
one weight-matrix GEMM per mini-batch (no per-sample Python loop).  The
paper's sequential semantics survive *between* batches: each batch sees the
model as updated by all earlier batches.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hdc.memory import AssociativeMemory, check_query_norms


def adaptive_update_sample(
    memory: AssociativeMemory,
    encoded,
    label: int,
    lr: float,
) -> bool:
    """Apply the Algorithm-1 update for a single encoded sample.

    Returns ``True`` when the sample was already classified correctly
    (no update applied).
    """
    sims = memory.similarities(encoded.reshape(1, -1))[0]
    predicted = int(np.argmax(sims))
    if predicted == label:
        return True
    memory.update_misclassified(
        encoded.reshape(1, -1),
        np.array([predicted], dtype=np.int64),
        np.array([label], dtype=np.int64),
        sims[[predicted]],
        sims[[label]],
        lr,
    )
    return False


def adaptive_fit_iteration(
    memory: AssociativeMemory,
    encoded,
    labels,
    *,
    lr: float = 0.05,
    batch_size: Optional[int] = None,
    shuffle_rng: Optional[np.random.Generator] = None,
    query_norms=None,
) -> float:
    """Run one adaptive-learning pass over ``encoded`` data.

    Parameters
    ----------
    memory:
        Class-hypervector memory, updated in place.
    encoded:
        ``(n, D)`` encoded training batch (NumPy or backend-native).
    labels:
        ``(n,)`` integer labels.
    lr:
        Learning rate ``η``.
    batch_size:
        Samples per similarity computation; within a batch, mispredicted
        samples apply their updates against similarities computed at batch
        start (the paper's matrix-wise grouping), so the whole batch is one
        grouped update.  ``None`` processes the full set as one batch.
    shuffle_rng:
        Optional generator used to shuffle sample order each pass.
    query_norms:
        Optional ``(n,)`` row norms of ``encoded``, computed once per
        version of a cached encoding; each mini-batch takes its rows'
        norms from it instead of recomputing them.

    Returns
    -------
    float
        Training accuracy of the model *as it stood at batch starts* during
        this pass (fraction of samples that needed no update).
    """
    b = memory.backend
    H = memory.as_encoded(encoded)
    labels = np.asarray(labels, dtype=np.int64)
    if H.shape[0] != labels.shape[0]:
        raise ValueError(
            f"encoded and labels disagree on sample count: "
            f"{H.shape[0]} vs {labels.shape[0]}"
        )
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    n = H.shape[0]
    check_query_norms(query_norms, n)
    size = n if batch_size is None else min(int(batch_size), n)
    if size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")

    # A shuffle only matters when there is more than one mini-batch: with
    # the whole set as a single batch, every update coefficient comes from
    # the same batch-start similarities and the grouped update is
    # order-independent, so the permutation (and with it a full (n, D)
    # gather copy per pass) is skipped.  Unshuffled mini-batches likewise
    # use contiguous row views instead of index gathers.
    shuffled = shuffle_rng is not None and size < n
    order = shuffle_rng.permutation(n) if shuffled else None

    n_correct = 0
    for start in range(0, n, size):
        stop = min(start + size, n)
        batch_norms = None
        if shuffled:
            idx = order[start:stop]
            batch = b.take_rows(H, idx)
            batch_labels = labels[idx]
            if query_norms is not None:
                batch_norms = b.take_rows(query_norms, idx)
        else:
            batch = b.slice_rows(H, start, stop)
            batch_labels = labels[start:stop]
            if query_norms is not None:
                batch_norms = b.slice_rows(query_norms, start, stop)
        # (b, k) against the model at batch start
        sims = memory.similarities(batch, query_norms=batch_norms)
        predicted = np.argmax(sims, axis=1)
        wrong = np.flatnonzero(predicted != batch_labels)
        n_correct += (stop - start) - wrong.size
        if wrong.size:
            wrong_pred = predicted[wrong]
            wrong_true = batch_labels[wrong]
            memory.update_misclassified(
                b.take_rows(batch, wrong),
                wrong_pred,
                wrong_true,
                sims[wrong, wrong_pred],
                sims[wrong, wrong_true],
                lr,
            )
    return n_correct / n


def singlepass_fit(
    memory: AssociativeMemory, encoded, labels
) -> None:
    """Naive single-pass HDC training: bundle every sample into its class.

    The classic one-shot initialisation (Rahimi et al.); adaptive iterations
    then refine from this starting point.
    """
    memory.accumulate(encoded, labels)

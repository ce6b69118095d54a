"""The serving core both front ends share: admission, then staged scoring.

:class:`~repro.serve.server.ModelServer` and the fleet worker
(:mod:`repro.serve.fleet.worker`) answer requests the same way:

- :func:`admit` is the one admission check a request gets, at submit
  time, so a malformed or non-finite row is rejected with ``ValueError``
  before it can share a batch with well-formed requests;
- :func:`score_requests` scores a batch of ``(kind, rows)`` requests
  and splits the results back per request.  A
  :class:`~repro.deploy.staged.StagedModel` is scored in one pass through
  its own :meth:`~repro.deploy.staged.StagedModel.staged_scores`, which
  times the encode and score stages, whatever the mix of kinds; any other
  servable model (a classical archive, a live estimator) is scored by its
  own ``predict`` / ``decision_scores``, untimed, each method on the rows
  of its own kind's requests only.

A request's ``kind`` is :data:`PREDICT` (label rows) or :data:`SCORES`
(``(n, k)`` score rows).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.deploy.staged import StagedModel
from repro.utils.validation import check_matrix

__all__ = ["PREDICT", "SCORES", "admit", "score_requests"]

PREDICT = "predict"
SCORES = "scores"


def admit(X: Any, n_features: Optional[int]) -> np.ndarray:
    """Validate one request's rows: a non-empty, finite float64 matrix
    ``n_features`` wide (any width when ``None``).  Raises
    ``ValueError``."""
    rows = check_matrix(X, "X")
    if n_features is not None and rows.shape[1] != n_features:
        raise ValueError(
            f"served model expects {n_features} features, got {rows.shape[1]}"
        )
    return rows


def _stack(blocks: Sequence[np.ndarray]) -> np.ndarray:
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _split(out: np.ndarray, blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Cut ``out``, computed over ``blocks`` stacked, back per block."""
    pieces = []
    stop = 0
    for block in blocks:
        start, stop = stop, stop + block.shape[0]
        pieces.append(out[start:stop])
    return pieces


def score_requests(
    model: Any, requests: Sequence[Tuple[str, np.ndarray]]
) -> Tuple[List[np.ndarray], Optional[float], Optional[float]]:
    """Score ``requests``: ``(results, encode_s, score_s)``.

    ``results`` holds one array per request, in order: label rows for
    :data:`PREDICT`, score rows for :data:`SCORES`.  ``encode_s`` /
    ``score_s`` are the stage times of a :class:`StagedModel` and
    ``None`` for any other model.
    """
    kinds = {kind for kind, _ in requests}
    for kind in kinds:
        if kind not in (PREDICT, SCORES):
            raise ValueError(f"unknown request kind {kind!r}")
    blocks = [rows for _, rows in requests]
    if isinstance(model, StagedModel):
        scores, encode_s, score_s = model.staged_scores(_stack(blocks))
        out = {SCORES: scores}
        if PREDICT in kinds:
            out[PREDICT] = model.classes_[np.argmax(scores, axis=1)]
        split = {kind: _split(out[kind], blocks) for kind in kinds}
        results = [split[kind][i] for i, (kind, _) in enumerate(requests)]
        return results, encode_s, score_s
    # Any other model: each method sees only its own kind's rows.
    pieces: Dict[str, Iterator[np.ndarray]] = {}
    for kind in kinds:
        own = [rows for k, rows in requests if k == kind]
        method = model.predict if kind == PREDICT else model.decision_scores
        pieces[kind] = iter(_split(np.asarray(method(_stack(own))), own))
    return [next(pieces[kind]) for kind, _ in requests], None, None

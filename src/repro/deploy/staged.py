"""The two-stage inference protocol every servable HDC artifact implements.

An HDC classifier infers in two stages: it encodes a query into
hyperdimensional space, then scores the encoding against the class
hypervectors.  :class:`StagedModel` makes that split the artifact's
contract: a subclass supplies :meth:`~StagedModel.encode` and
:meth:`~StagedModel.score_encoded`, and the base class builds
``decision_scores``, ``predict`` and ``score`` on top of them once.

Because :meth:`~StagedModel.staged_scores` *is* the path
``decision_scores`` runs, a caller that times the two stages (the
serving core, :mod:`repro.serve.core`) scores exactly what the artifact
itself scores.
"""

from __future__ import annotations

import abc
import time
from typing import Any, List, Tuple

import numpy as np

from repro.backend.base import refresh_windows


class StagedModel(abc.ABC):
    """A fitted HDC artifact whose inference is encode, then score.

    Subclasses set ``classes_`` and ``n_features_`` and report the
    encoded width as :attr:`encoded_dim`.  Queries are encoded and scored
    one row window at a time, so the full ``(n, D)`` encoding never
    exists at once.  The windows are the training refresh's,
    :func:`repro.backend.base.refresh_windows` at width ``D`` (2^19
    encoded cells, 128 rows at D = 4096).
    """

    classes_: np.ndarray
    n_features_: int

    @property
    @abc.abstractmethod
    def encoded_dim(self) -> int:
        """Width ``D`` of :meth:`encode`'s output (its encoder's ``dim``)."""

    @abc.abstractmethod
    def encode(self, X: Any) -> Any:
        """Encode ``(n, q)`` queries into ``(n, D)`` hypervectors.

        Implementations call their encoder's public ``encode``, which
        validates shape, width and finiteness, so a row that reaches the
        artifact unchecked is still rejected with ``ValueError``.
        """

    @abc.abstractmethod
    def score_encoded(self, encoded: Any) -> np.ndarray:
        """``(n, k)`` float64 class scores for an encoded query block."""

    def staged_scores(self, X: Any) -> Tuple[np.ndarray, float, float]:
        """Score ``X`` one row window at a time, timing the two stages.

        Returns ``(scores, encode_s, score_s)``: the ``(n, k)`` scores
        and the ``time.perf_counter`` seconds spent in :meth:`encode`
        and in :meth:`score_encoded`, summed over the windows.
        """
        n = len(X) if np.ndim(X) == 2 else 0
        bounds = refresh_windows(n, self.encoded_dim)
        windows = [X] if len(bounds) <= 1 else [X[a:b] for a, b in bounds]
        blocks: List[np.ndarray] = []
        encode_s = score_s = 0.0
        for window in windows:
            start = time.perf_counter()
            encoded = self.encode(window)
            mid = time.perf_counter()
            blocks.append(self.score_encoded(encoded))
            end = time.perf_counter()
            encode_s += mid - start
            score_s += end - mid
        scores = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        return scores, encode_s, score_s

    def decision_scores(self, X: Any) -> np.ndarray:
        """``(n, k)`` similarity scores of queries against the classes."""
        return self.staged_scores(X)[0]

    def predict(self, X: Any) -> np.ndarray:
        """Most-similar class label per query."""
        return self.classes_[np.argmax(self.decision_scores(X), axis=1)]

    def score(self, X: Any, y: Any) -> float:
        """Top-1 accuracy."""
        return float(np.mean(self.predict(X) == np.asarray(y).ravel()))

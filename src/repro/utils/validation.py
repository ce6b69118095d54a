"""Array-validation helpers shared by estimators, encoders and metrics.

These mirror the checks scikit-learn performs in ``check_array`` but stay
deliberately small: they coerce to float64/int64 NumPy arrays, enforce shape
and finiteness, and raise uniform, descriptive ``ValueError`` messages.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def check_matrix(
    X,
    name: str = "X",
    *,
    dtype=np.float64,
    allow_empty: bool = False,
    ensure_finite: bool = True,
) -> np.ndarray:
    """Coerce ``X`` to a 2-D array and validate it.

    Raises ``ValueError`` for wrong dimensionality, empty input (unless
    ``allow_empty``) and non-finite entries (unless ``ensure_finite`` is off).
    """
    arr = np.asarray(X, dtype=dtype)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if not allow_empty and (arr.shape[0] == 0 or arr.shape[1] == 0):
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if ensure_finite and arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinity")
    return arr


def check_vector(
    y, name: str = "y", *, dtype=None, allow_empty: bool = False
) -> np.ndarray:
    """Coerce ``y`` to a 1-D array."""
    arr = np.asarray(y) if dtype is None else np.asarray(y, dtype=dtype)
    arr = np.ravel(arr)
    if not allow_empty and arr.shape[0] == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def check_paired(X, y, x_name: str = "X", y_name: str = "y") -> Tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix and its label vector together."""
    X = check_matrix(X, x_name)
    y = check_vector(y, y_name)
    if X.shape[0] != y.shape[0]:
        raise ValueError(
            f"{x_name} and {y_name} disagree on sample count: "
            f"{X.shape[0]} vs {y.shape[0]}"
        )
    return X, y


def check_labels(
    y, n_classes: Optional[int] = None, name: str = "y"
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate integer class labels.

    Returns ``(labels, classes)`` where ``labels`` is the validated int64
    vector and ``classes`` the sorted unique values.  When ``n_classes`` is
    given, labels must lie in ``[0, n_classes)``.
    """
    labels = check_vector(y, name)
    if labels.dtype.kind not in "iu":
        as_int = labels.astype(np.int64)
        if not np.array_equal(as_int, labels.astype(np.float64)):
            raise ValueError(f"{name} must contain integer class labels")
        labels = as_int
    labels = labels.astype(np.int64)
    classes = np.unique(labels)
    if n_classes is not None:
        if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
            raise ValueError(
                f"{name} must lie in [0, {n_classes}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
    return labels, classes


def check_probability(p: float, name: str = "p") -> float:
    """Validate a probability-like scalar in [0, 1]."""
    value = float(p)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


# --------------------------------------------------------------- scalar knobs
#
# Constructor-parameter checks shared by DistHDConfig and the HDC baseline
# classifiers, so every model rejects a bad ``dim`` / ``lr`` / ``iterations``
# with the same message instead of five hand-rolled copies.


def check_positive_int(value, name: str) -> int:
    """Validate a strictly positive integer knob (``dim``, ``iterations``)."""
    if value is None or int(value) <= 0 or int(value) != value:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return int(value)


def check_positive_float(value, name: str) -> float:
    """Validate a strictly positive float knob (``lr``, ``bandwidth``)."""
    result = float(value)
    if result <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return result


def check_optional_positive_int(value, name: str) -> Optional[int]:
    """Validate a knob that is either ``None`` or a positive integer
    (``batch_size``, ``convergence_patience``)."""
    if value is None:
        return None
    if int(value) <= 0 or int(value) != value:
        raise ValueError(f"{name} must be positive or None, got {value}")
    return int(value)


def check_unit_interval(value, name: str) -> float:
    """Validate a fraction-in-[0, 1] knob (``regen_rate``).

    Same range contract as :func:`check_probability`; this name keeps
    constructor-knob validation greppable alongside the other check_*
    knob helpers.
    """
    return check_probability(value, name)


def check_non_negative_float(value, name: str) -> float:
    """Validate a non-negative float knob (``convergence_tol``)."""
    result = float(value)
    if result < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return result


def check_convergence_params(patience, tol) -> Tuple[Optional[int], float]:
    """Validate the shared early-stopping pair (patience, tol)."""
    return (
        check_optional_positive_int(patience, "convergence_patience"),
        check_non_negative_float(tol, "convergence_tol"),
    )


def check_n_jobs(value, name: str = "n_jobs") -> Optional[int]:
    """Validate a worker-count knob: ``None`` (serial), ``-1`` (all cores),
    or a positive integer.  Resolution to an actual worker count happens in
    :func:`repro.engine.executor.resolve_n_jobs`."""
    if value is None:
        return None
    if int(value) != value or (int(value) <= 0 and int(value) != -1):
        raise ValueError(
            f"{name} must be None, -1, or a positive integer, got {value}"
        )
    return int(value)


def check_features_match(n_expected: int, n_got: int, who: str = "estimator") -> None:
    """Raise if an estimator trained on ``n_expected`` features sees ``n_got``."""
    if n_expected != n_got:
        raise ValueError(
            f"{who} was fit with {n_expected} features but received {n_got}"
        )

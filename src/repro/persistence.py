"""Model persistence: save/load fitted classifiers as ``.npz`` archives.

Every registered model's deployable state is small and fully array-valued
(encoder parameters / weight matrices + label mapping), so a flat NumPy
archive is the natural format — no pickle, no code execution on load,
portable to microcontroller toolchains that can read ``.npz``.

Two families of archive:

- **HDC models** (DistHD, OnlineHD, NeuralHD, BaselineHD) store encoder
  parameters plus the class memory and load as a :class:`LoadedHDCModel` —
  an inference-only view (training state such as histories and configs is
  intentionally not persisted); quantised deployments additionally record
  their precision and load back as a fixed-point
  :class:`~repro.deploy.quantized.QuantizedHDCModel`;
- **classical models** (MLP, linear/RFF SVM, kNN) store their weight
  arrays and load back as real classifier instances, inference-ready.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Tuple, Union

import numpy as np

from repro.backend import resolve_dtype
from repro.baselines.baselinehd import BaselineHDClassifier
from repro.baselines.knn import KNNClassifier
from repro.baselines.mlp import MLPClassifier
from repro.baselines.neuralhd import NeuralHDClassifier
from repro.baselines.onlinehd import OnlineHDClassifier
from repro.baselines.svm import LinearSVMClassifier, RFFSVMClassifier
from repro.core.disthd import DistHDClassifier
from repro.deploy.quantized import QuantizedHDCModel, QuantizedTrainer
from repro.deploy.staged import StagedModel
from repro.hdc.encoders.id_level import IDLevelEncoder
from repro.hdc.encoders.projection import RandomProjectionEncoder
from repro.hdc.encoders.rbf import RBFEncoder
from repro.hdc.encoders.structured import (
    FastfoodRBFEncoder,
    StructuredProjectionEncoder,
)
from repro.hdc.memory import AssociativeMemory

# Format history: 2 → 3 added the array dtype / trained-backend fields;
# 3 → 4 added the ``quantized_packed`` flag for bit-packed 1-bit deploys;
# 4 → 5 added the structured (SORF/Fastfood) encoder kinds with their
# diagonal/slot/scale parameters.  Loaders accept every version <= current
# (older archives default the missing fields).
_FORMAT_VERSION = 5


def _as_saved(backend, array) -> np.ndarray:
    """Materialise a possibly backend-native array as NumPy for the archive."""
    if backend is not None:
        return np.asarray(backend.to_numpy(array))
    return np.asarray(array)


def _encoder_payload(encoder) -> dict:
    b = getattr(encoder, "backend", None)
    if isinstance(encoder, FastfoodRBFEncoder):
        return {
            "encoder_kind": "fastfood-rbf",
            "enc_signs": _as_saved(b, encoder.signs),
            "enc_src_slots": np.asarray(encoder.src_slots, dtype=np.int64),
            "enc_scales": _as_saved(b, encoder.scales),
            "enc_phases": _as_saved(b, encoder.phases),
            "enc_bandwidth": np.float64(encoder.bandwidth),
            "enc_regenerated": np.int64(encoder.regenerated_count),
        }
    if isinstance(encoder, StructuredProjectionEncoder):
        return {
            "encoder_kind": "structured",
            "enc_signs": _as_saved(b, encoder.signs),
            "enc_src_slots": np.asarray(encoder.src_slots, dtype=np.int64),
            "enc_scales": _as_saved(b, encoder.scales),
            "enc_activation": encoder.activation,
            "enc_regenerated": np.int64(encoder.regenerated_count),
        }
    if isinstance(encoder, RBFEncoder):
        return {
            "encoder_kind": "rbf",
            "enc_base_vectors": _as_saved(b, encoder.base_vectors),
            "enc_phases": _as_saved(b, encoder.phases),
            "enc_bandwidth": np.float64(encoder.bandwidth),
            "enc_regenerated": np.int64(encoder.regenerated_count),
        }
    if isinstance(encoder, RandomProjectionEncoder):
        return {
            "encoder_kind": "projection",
            "enc_base_vectors": _as_saved(b, encoder.base_vectors),
            "enc_activation": encoder.activation,
        }
    if isinstance(encoder, IDLevelEncoder):
        return {
            "encoder_kind": "id-level",
            "enc_id_vectors": np.asarray(encoder.id_vectors),
            "enc_level_vectors": np.asarray(encoder.level_vectors),
            "enc_feature_range": np.asarray(encoder.feature_range),
        }
    raise TypeError(f"cannot serialise encoder type {type(encoder).__name__}")


def _restore_encoder(kind: str, data, n_features: int, dim: int, dtype):
    """Rebuild an encoder on the NumPy backend at the archived dtype.

    Models trained under any backend reload (and predict) under NumPy; the
    arrays themselves were materialised backend-neutrally at save time.
    """
    if kind == "rbf":
        encoder = RBFEncoder(
            n_features, dim, bandwidth=float(data["enc_bandwidth"]), seed=0,
            dtype=dtype,
        )
        encoder.base_vectors = np.asarray(data["enc_base_vectors"], dtype=dtype)
        encoder.phases = np.asarray(data["enc_phases"], dtype=dtype)
        encoder.regenerated_count = int(data["enc_regenerated"])
        return encoder
    if kind in ("fastfood-rbf", "structured"):
        if kind == "fastfood-rbf":
            encoder = FastfoodRBFEncoder(
                n_features, dim, bandwidth=float(data["enc_bandwidth"]),
                seed=0, dtype=dtype,
            )
            encoder.phases = np.asarray(data["enc_phases"], dtype=dtype)
        else:
            encoder = StructuredProjectionEncoder(
                n_features, dim, activation=str(data["enc_activation"]),
                seed=0, dtype=dtype,
            )
        encoder.signs = np.asarray(data["enc_signs"], dtype=dtype)
        encoder.scales = np.asarray(data["enc_scales"], dtype=dtype)
        encoder.src_slots = np.asarray(data["enc_src_slots"], dtype=np.int64)
        encoder._identity_slots = bool(
            np.array_equal(encoder.src_slots, np.arange(dim, dtype=np.int64))
        )
        encoder.regenerated_count = int(data["enc_regenerated"])
        return encoder
    if kind == "projection":
        encoder = RandomProjectionEncoder(
            n_features, dim, activation=str(data["enc_activation"]), seed=0,
            dtype=dtype,
        )
        encoder.base_vectors = np.asarray(data["enc_base_vectors"], dtype=dtype)
        return encoder
    if kind == "id-level":
        levels = np.asarray(data["enc_level_vectors"])
        low, high = np.asarray(data["enc_feature_range"])
        encoder = IDLevelEncoder(
            n_features, dim, n_levels=levels.shape[0],
            feature_range=(float(low), float(high)), seed=0, dtype=dtype,
        )
        encoder.id_vectors = np.asarray(data["enc_id_vectors"])
        encoder.level_vectors = levels
        return encoder
    raise ValueError(f"unknown encoder kind {kind!r} in archive")


class LoadedHDCModel(StagedModel):
    """A fitted, inference-only HDC model restored from disk.

    Exposes the inference half of the estimator protocol (``predict``,
    ``predict_topk``, ``decision_scores``, ``score``) through the
    :class:`~repro.deploy.staged.StagedModel` encode/score pipeline;
    training state (histories, configs) is intentionally not persisted.
    """

    def __init__(self, model_kind: str, encoder, memory: AssociativeMemory,
                 classes: np.ndarray, n_features: int) -> None:
        self.model_kind = model_kind
        self.encoder_ = encoder
        self.memory_ = memory
        self.classes_ = classes
        self.n_features_ = int(n_features)

    @property
    def encoded_dim(self) -> int:
        return int(self.encoder_.dim)

    def encode(self, X) -> Any:
        return self.encoder_.encode(X)

    def score_encoded(self, encoded) -> np.ndarray:
        return self.memory_.similarities(encoded)

    def predict_topk(self, X, k: int = 2) -> np.ndarray:
        scores = self.decision_scores(X)
        if not 1 <= k <= scores.shape[1]:
            raise ValueError(f"k must lie in [1, {scores.shape[1]}], got {k}")
        return self.classes_[np.argsort(-scores, axis=1)[:, :k]]


# --------------------------------------------------------------------- HDC


def _hdc_payload(model) -> dict:
    memory = model.memory_
    vectors = memory.numpy_vectors()
    return {
        "memory_vectors": vectors,
        "array_dtype": np.dtype(vectors.dtype).name,
        "trained_backend": memory.backend.name,
        **_encoder_payload(model.encoder_),
    }


def _hdc_load(kind: str, data, classes, n_features: int):
    memory_vectors = np.asarray(data["memory_vectors"])
    # Format < 3 archives carry no dtype field; their arrays are float64.
    dtype = resolve_dtype(
        str(data["array_dtype"]) if "array_dtype" in data else None
    )
    n_classes, dim = memory_vectors.shape
    encoder = _restore_encoder(
        str(data["encoder_kind"]), data, n_features, dim, dtype
    )
    memory = AssociativeMemory(n_classes, dim, dtype=dtype)
    memory.set_vectors(memory_vectors)
    return LoadedHDCModel(kind, encoder, memory, classes, n_features)


def _hdc_fitted(model) -> bool:
    return getattr(model, "memory_", None) is not None


def _quantized_payload(model: QuantizedTrainer) -> dict:
    return {
        **_hdc_payload(model),
        "quantized_bits": np.int64(model.bits),
        "quantized_packed": np.bool_(model.packed),
    }


def _quantized_load(kind: str, data, classes, n_features: int):
    """Rebuild the fixed-point deployment, not just its float decode.

    The stored memory vectors already lie on the ``quantized_bits`` grid,
    so re-quantising at the same precision reproduces the deployed codes
    (packed artifacts re-pack the reproduced codes to the same words, so
    even injected faults round-trip — a flipped sign survives the decode);
    the result keeps ``inject_faults`` / ``footprint_report`` working.
    The temporary float view is not retained (``retain_base=False``) —
    the archive holds no training state worth refreshing from, and a
    loaded edge artifact should stay self-contained.  Format < 4 archives
    carry no packed flag and load unpacked.
    """
    base = _hdc_load(kind, data, classes, n_features)
    packed = (
        bool(data["quantized_packed"]) if "quantized_packed" in data else False
    )
    return QuantizedHDCModel(
        base, bits=int(data["quantized_bits"]), packed=packed,
        retain_base=False,
    )


def _quantized_fitted(model: QuantizedTrainer) -> bool:
    return model.deployed_ is not None


# --------------------------------------------------------------- classical


def _mlp_payload(model: MLPClassifier) -> dict:
    payload = {
        "hidden_sizes": np.asarray(model.hidden_sizes, dtype=np.int64),
        "n_layers": np.int64(len(model.weights_)),
    }
    for i, (w, b) in enumerate(zip(model.weights_, model.biases_)):
        payload[f"mlp_w_{i}"] = w
        payload[f"mlp_b_{i}"] = b
    return payload


def _mlp_load(kind: str, data, classes, n_features: int) -> MLPClassifier:
    model = MLPClassifier(
        hidden_sizes=tuple(int(h) for h in np.asarray(data["hidden_sizes"]))
    )
    n_layers = int(data["n_layers"])
    model.weights_ = [np.asarray(data[f"mlp_w_{i}"]) for i in range(n_layers)]
    model.biases_ = [np.asarray(data[f"mlp_b_{i}"]) for i in range(n_layers)]
    model.classes_ = classes
    model.n_features_ = n_features
    return model


def _mlp_fitted(model: MLPClassifier) -> bool:
    return bool(model.weights_)


def _svm_payload(model: LinearSVMClassifier) -> dict:
    return {
        "svm_coef": model.coef_,
        "svm_intercept": model.intercept_,
        "svm_fit_intercept": np.bool_(model.fit_intercept),
    }


def _svm_load(kind: str, data, classes, n_features: int) -> LinearSVMClassifier:
    model = LinearSVMClassifier(
        fit_intercept=bool(data["svm_fit_intercept"])
    )
    model.coef_ = np.asarray(data["svm_coef"])
    model.intercept_ = np.asarray(data["svm_intercept"])
    model.classes_ = classes
    model.n_features_ = n_features
    return model


def _svm_fitted(model: LinearSVMClassifier) -> bool:
    return model.coef_ is not None


def _rff_payload(model: RFFSVMClassifier) -> dict:
    gamma = np.float64(np.nan if model.gamma is None else model.gamma)
    return {
        "rff_frequencies": model.frequencies_,
        "rff_phases": model.phases_,
        "rff_gamma": gamma,
        **{f"inner_{k}": v for k, v in _svm_payload(model.svm_).items()},
    }


def _rff_load(kind: str, data, classes, n_features: int) -> RFFSVMClassifier:
    frequencies = np.asarray(data["rff_frequencies"])
    gamma = float(data["rff_gamma"])
    model = RFFSVMClassifier(
        n_components=frequencies.shape[0],
        gamma=None if np.isnan(gamma) else gamma,
    )
    model.frequencies_ = frequencies
    model.phases_ = np.asarray(data["rff_phases"])
    inner = LinearSVMClassifier(
        fit_intercept=bool(data["inner_svm_fit_intercept"])
    )
    inner.coef_ = np.asarray(data["inner_svm_coef"])
    inner.intercept_ = np.asarray(data["inner_svm_intercept"])
    inner.classes_ = np.arange(inner.coef_.shape[0])
    inner.n_features_ = frequencies.shape[0]
    model.svm_ = inner
    model.classes_ = classes
    model.n_features_ = n_features
    return model


def _rff_fitted(model: RFFSVMClassifier) -> bool:
    return model.svm_ is not None and model.svm_.coef_ is not None


def _knn_payload(model: KNNClassifier) -> dict:
    return {
        "knn_train_x": model._train_x,
        "knn_train_y": model._train_y,
        "knn_k": np.int64(model.k),
        "knn_weights": model.weights,
    }


def _knn_load(kind: str, data, classes, n_features: int) -> KNNClassifier:
    model = KNNClassifier(
        k=int(data["knn_k"]), weights=str(data["knn_weights"])
    )
    model._train_x = np.asarray(data["knn_train_x"])
    model._train_y = np.asarray(data["knn_train_y"])
    model.classes_ = classes
    model.n_features_ = n_features
    return model


def _knn_fitted(model: KNNClassifier) -> bool:
    return model._train_x is not None


# ------------------------------------------------------------- dispatch

# kind -> (model class, payload fn, load fn, fitted-check fn)
_FORMATS: Dict[str, Tuple[type, Callable, Callable, Callable]] = {
    "DistHDClassifier": (DistHDClassifier, _hdc_payload, _hdc_load, _hdc_fitted),
    "OnlineHDClassifier": (
        OnlineHDClassifier, _hdc_payload, _hdc_load, _hdc_fitted
    ),
    "NeuralHDClassifier": (
        NeuralHDClassifier, _hdc_payload, _hdc_load, _hdc_fitted
    ),
    "BaselineHDClassifier": (
        BaselineHDClassifier, _hdc_payload, _hdc_load, _hdc_fitted
    ),
    "QuantizedTrainer": (
        QuantizedTrainer, _quantized_payload, _quantized_load, _quantized_fitted
    ),
    "MLPClassifier": (MLPClassifier, _mlp_payload, _mlp_load, _mlp_fitted),
    "LinearSVMClassifier": (
        LinearSVMClassifier, _svm_payload, _svm_load, _svm_fitted
    ),
    "RFFSVMClassifier": (RFFSVMClassifier, _rff_payload, _rff_load, _rff_fitted),
    "KNNClassifier": (KNNClassifier, _knn_payload, _knn_load, _knn_fitted),
}


def save_model(model, path: Union[str, Path]) -> Path:
    """Serialise a fitted classifier to ``path`` (``.npz``).

    Returns the written path.  Raises ``TypeError`` for unsupported model
    types and ``RuntimeError`` for unfitted models.
    """
    kind = type(model).__name__
    if kind not in _FORMATS:
        raise TypeError(
            f"save_model supports {sorted(_FORMATS)}, got {kind}"
        )
    _, payload_fn, _, fitted_fn = _FORMATS[kind]
    if model.classes_ is None or not fitted_fn(model):
        raise RuntimeError(f"{kind} is not fitted; nothing to save")

    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    payload = {
        "format_version": np.int64(_FORMAT_VERSION),
        "model_kind": kind,
        "classes": np.asarray(model.classes_),
        "n_features": np.int64(model.n_features_),
        **payload_fn(model),
    }
    np.savez_compressed(path, **payload)
    return path


def load_model(path: Union[str, Path]):
    """Restore a model saved by :func:`save_model`.

    HDC archives load as an inference-only :class:`LoadedHDCModel`;
    classical archives load as real classifier instances.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"])
        if version > _FORMAT_VERSION:
            raise ValueError(
                f"archive format {version} is newer than supported "
                f"({_FORMAT_VERSION})"
            )
        kind = str(data["model_kind"])
        if kind not in _FORMATS:
            raise ValueError(f"unknown model kind {kind!r} in archive")
        _, _, load_fn, _ = _FORMATS[kind]
        classes = np.asarray(data["classes"])
        n_features = int(data["n_features"])
        return load_fn(kind, data, classes, n_features)

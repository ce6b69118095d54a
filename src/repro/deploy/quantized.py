"""Fixed-point HDC inference models.

An HDC classifier's deployable state is tiny: the encoder parameters and the
``(k, D)`` class memory.  :class:`QuantizedHDCModel` freezes a fitted
classifier into that state with the class memory quantised to a chosen
precision — the exact configuration the paper's Fig. 8 robustness study
exercises, packaged for deployment:

- 1-bit mode stores one bit per memory cell (the paper's most robust
  operating point) and scores queries against the sign pattern;
- multi-bit modes store two's-complement fixed-point codes;
- ``packed=True`` (1-bit only) stores the class memory as ``(k, ceil(D/64))``
  ``uint64`` words and scores queries *in the packed domain* — the query is
  sign-binarised and bit-packed, and similarity is XOR + popcount
  (:mod:`repro.hdc.packed`), a fully binary operating point that cuts the
  resident class memory ~64x below the float image the unpacked 1-bit
  scorer materialises;
- :meth:`inject_faults` flips memory bits in place, modelling an unreliable
  edge device over its lifetime (on packed artifacts the flips are literal
  XOR masks on the words).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.backend import default_backend
from repro.deploy.staged import StagedModel
from repro.hdc.memory import AssociativeMemory, as_numpy_vectors
from repro.hdc.ops import cosine_similarity
from repro.hdc.packed import flip_packed_bits, pack_code_rows, unpack_rows
from repro.noise.bitflip import flip_bits
from repro.noise.quantization import QuantizedTensor, dequantize, quantize
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_probability


class QuantizedHDCModel(StagedModel):
    """A frozen, fixed-point inference copy of a fitted HDC classifier.

    Inference is the :class:`~repro.deploy.staged.StagedModel` pipeline:
    the frozen encoder, then :meth:`score_encoded` against the quantised
    memory.

    Parameters
    ----------
    classifier:
        Any fitted library HDC classifier (DistHD, BaselineHD, NeuralHD,
        OnlineHD) — anything exposing ``encoder_``, ``memory_`` and
        ``classes_``.
    bits:
        Class-memory precision (1, 2, 4 or 8).
    packed:
        Store the 1-bit class memory bit-packed (64 cells per ``uint64``
        word) and run inference entirely in the packed domain: queries are
        sign-binarised, packed and scored via XOR + popcount.  Requires
        ``bits=1``.  This is a *fully binary* operating point — the query
        is binarised too, so predictions match an unpacked implementation
        of the same binary scorer bit-for-bit, but differ from the
        float-query cosine scoring of ``packed=False`` (see
        ``docs/performance.md``).
    retain_base:
        Keep a reference to ``classifier`` so :meth:`refresh` can
        re-quantize from its updated state (the online-adaptation
        promotion path).  Pass ``False`` for a self-contained edge
        artifact: the base classifier (and its full-precision class
        memory) becomes collectable once the caller drops it, and
        :meth:`refresh` is unavailable.

    Examples
    --------
    >>> from repro import DistHDClassifier, load_dataset
    >>> from repro.deploy import QuantizedHDCModel
    >>> ds = load_dataset("diabetes", scale=0.005, seed=0)
    >>> clf = DistHDClassifier(dim=64, iterations=3, seed=0)
    >>> _ = clf.fit(ds.train_x, ds.train_y)
    >>> model = QuantizedHDCModel(clf, bits=1)
    >>> model.memory_bytes < clf.memory_.vectors.nbytes
    True
    """

    def __init__(self, classifier, bits: int = 8, *,
                 packed: bool = False,
                 retain_base: bool = True) -> None:
        if getattr(classifier, "encoder_", None) is None or \
                getattr(classifier, "memory_", None) is None or \
                getattr(classifier, "classes_", None) is None:
            raise TypeError(
                "QuantizedHDCModel needs a fitted HDC classifier with "
                "encoder_, memory_ and classes_"
            )
        if packed and int(bits) != 1:
            raise ValueError(
                f"packed=True requires bits=1 (a packed cell is one bit), "
                f"got bits={bits}"
            )
        self.classifier = classifier if retain_base else None
        self.bits = int(bits)
        self.packed = bool(packed)
        self.refresh_count = 0
        self._freeze(classifier)

    def _freeze(self, classifier) -> None:
        """Snapshot the classifier's current state into the fixed-point
        image (shared by construction and :meth:`refresh`).

        Freezes through NumPy regardless of training backend/dtype: the
        fixed-point image is backend-neutral by construction.  The
        encoder is deep-copied, not aliased: the base classifier's
        encoder keeps training (dimension regeneration rewrites its base
        vectors in place), and a served artifact scoring through a live
        encoder against a frozen class memory would return predictions
        from a torn encoder/memory combination.
        """
        import copy

        memory = classifier.memory_
        self.encoder = copy.deepcopy(classifier.encoder_)
        self.classes_ = np.asarray(classifier.classes_)
        self.n_features_ = int(self.encoder.n_features)
        self._base_itemsize = int(
            np.dtype(getattr(memory, "dtype", np.float64)).itemsize
        )
        quantized = quantize(as_numpy_vectors(memory), self.bits)
        self._n_cells = int(quantized.codes.size)
        self._dim = int(quantized.shape[-1])
        if self.packed:
            # Freeze as (k, ceil(D/64)) uint64 words — the codes are not
            # retained; the packed image *is* the class memory.
            self._quantized: Optional[QuantizedTensor] = None
            self._packed_scale = float(quantized.scale)
            self._packed_words: Optional[np.ndarray] = pack_code_rows(
                quantized.codes.reshape(quantized.shape)
            )
        else:
            self._quantized = quantized
            self._packed_scale = 0.0
            self._packed_words = None

    # ----------------------------------------------------------------- state

    def refresh(self) -> "QuantizedHDCModel":
        """Re-quantize from the base classifier's *current* state, in place.

        The promotion half of online adaptation: after ``partial_fit``
        updates the base classifier, ``refresh()`` re-freezes its class
        memory (and re-binds its encoder, which regeneration may have
        mutated) at the same precision without rebuilding the deploy
        wrapper.  Accumulated ``inject_faults`` damage is discarded — the
        refreshed image is a clean re-quantization.

        Not thread-safe against concurrent inference on *this* object:
        refresh an off-rotation artifact (see ``docs/serving.md``), or
        stop traffic first.
        """
        if self.classifier is None:
            raise RuntimeError(
                "cannot refresh: built with retain_base=False (no base "
                "classifier reference)"
            )
        if (
            getattr(self.classifier, "memory_", None) is None
            or getattr(self.classifier, "encoder_", None) is None
            or getattr(self.classifier, "classes_", None) is None
        ):
            raise RuntimeError(
                "cannot refresh: base classifier has no fitted "
                "encoder_/memory_/classes_ state"
            )
        self._freeze(self.classifier)
        self.refresh_count += 1
        return self

    @property
    def memory_bytes(self) -> int:
        """Deployed class-memory size in bytes.

        Packed mode reports the actual word storage (``k * ceil(D/64) * 8``);
        unpacked modes report the memory image packed at ``bits`` wide.
        """
        if self.packed:
            assert self._packed_words is not None
            return int(self._packed_words.nbytes)
        assert self._quantized is not None
        return (self._quantized.n_bits_total + 7) // 8

    @property
    def packed_words(self) -> Optional[np.ndarray]:
        """The ``(k, ceil(D/64))`` ``uint64`` class-memory words
        (``None`` unless ``packed=True``).  This is the live image —
        mutating it changes the served model."""
        return self._packed_words

    def _quantized_image(self) -> QuantizedTensor:
        """The memory as a :class:`QuantizedTensor` (reconstructed from the
        words in packed mode — decode/persistence paths only, never the
        inference hot path)."""
        if not self.packed:
            assert self._quantized is not None
            return self._quantized
        assert self._packed_words is not None
        k = self._packed_words.shape[0]
        codes = unpack_rows(self._packed_words, self._dim)
        return QuantizedTensor(
            codes.ravel(), 1, self._packed_scale, (k, self._dim)
        )

    @property
    def class_vectors(self) -> np.ndarray:
        """The decoded (float) class memory currently in use."""
        return dequantize(self._quantized_image())

    def inject_faults(self, error_rate: float, seed: SeedLike = None) -> int:
        """Flip ``error_rate`` of the memory bits in place.

        Models accumulated hardware error on a deployed device.  Returns the
        number of bits flipped.  On a packed artifact the flips are literal
        XOR masks applied to the ``uint64`` words (pad bits are never
        touched), with the same exactly-``round(rate * total)`` flip-count
        contract as the unpacked path.
        """
        if self.packed:
            assert self._packed_words is not None
            check_probability(error_rate, "error_rate")
            total_bits = self._packed_words.shape[0] * self._dim
            n_flips = int(round(error_rate * total_bits))
            return flip_packed_bits(
                self._packed_words, n_flips, self._dim, as_rng(seed)
            )
        assert self._quantized is not None
        flipped = flip_bits(self._quantized, error_rate, seed)
        n_flips = int(round(error_rate * self._quantized.n_bits_total))
        self._quantized = flipped
        return n_flips

    # ------------------------------------------------------------- inference

    @property
    def encoded_dim(self) -> int:
        return int(self.encoder.dim)

    def encode(self, X: Any) -> Any:
        """The encoder stage: the frozen encoder's validating ``encode``."""
        return self.encoder.encode(X)

    def score_encoded(self, encoded: Any) -> np.ndarray:
        """The scorer stage: scores for an already-encoded query block.

        Unpacked modes compute cosine similarity of the (float) encoding
        against the decoded memory; packed mode sign-binarises + packs the
        encoding and scores ``(D − 2·hamming) / D`` against the word image
        via XOR + popcount.  Both return ``(n, k)`` float64.
        """
        backend = getattr(self.encoder, "backend", None)
        if self.packed:
            assert self._packed_words is not None
            b = backend if backend is not None else default_backend()
            q_words = b.packbits_rows(encoded)
            return b.hamming_scores_packed(
                q_words, self._packed_words, self._dim
            )
        if backend is not None:
            encoded = backend.to_numpy(encoded)
        return np.asarray(
            cosine_similarity(encoded, self.class_vectors), dtype=np.float64
        )

    def footprint_report(self) -> Dict[str, Any]:
        """Deployment footprint summary (class memory + encoder).

        Always reflects the *current* quantized image and encoder — after
        :meth:`refresh` the float reference size uses the base memory's
        actual storage dtype (a float32-trained model compresses 4x at
        8 bits, not the 8x a hard-coded float64 reference used to claim)
        and the encoder parameters are re-counted against the re-bound,
        possibly regenerated encoder.

        Packed artifacts gain the packed rows: the word storage in bytes,
        words per class, and the compression both against the float base
        memory and against the unpacked 1-bit path.  The unpacked-1-bit
        reference is the float64 image that path decodes its ``uint8``
        codes into on every ``decision_scores`` call — the resident memory
        the packed scorer actually eliminates (64 bits per cell vs 1; the
        code array itself is reported separately).
        """
        encoder_floats = 0
        for attr in (
            "base_vectors", "phases", "id_vectors", "level_vectors",
            "signs", "scales",
        ):
            value = getattr(self.encoder, attr, None)
            if value is not None:
                encoder_floats += int(np.asarray(value).size)
        float_bytes = self._n_cells * self._base_itemsize
        report: Dict[str, Any] = {
            "bits": self.bits,
            "packed": self.packed,
            "memory_bytes": self.memory_bytes,
            "float_memory_bytes": float_bytes,
            "compression": float_bytes / max(self.memory_bytes, 1),
            "encoder_parameters": encoder_floats,
            "refresh_count": self.refresh_count,
        }
        if self.packed:
            assert self._packed_words is not None
            packed_bytes = int(self._packed_words.nbytes)
            # The unpacked 1-bit path stores uint8 codes and scores against
            # the float64 image it decodes them into; the decode image is
            # the resident memory the packed scorer eliminates (64 bits per
            # cell vs 1), so the headline compression is measured there.
            unpacked_codes_bytes = self._n_cells
            unpacked_serving_bytes = (
                self._n_cells * np.dtype(np.float64).itemsize
            )
            report.update(
                {
                    "packed_bytes": packed_bytes,
                    "words_per_class": int(self._packed_words.shape[1]),
                    "unpacked_1bit_bytes": unpacked_codes_bytes,
                    "unpacked_1bit_serving_bytes": unpacked_serving_bytes,
                    "compression_vs_unpacked": (
                        unpacked_serving_bytes / max(packed_bytes, 1)
                    ),
                }
            )
        return report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        packed = ", packed=True" if self.packed else ""
        return (
            f"QuantizedHDCModel(bits={self.bits}{packed}, "
            f"memory_bytes={self.memory_bytes})"
        )


class QuantizedTrainer:
    """Train an HDC classifier, then serve it from fixed-point memory.

    The trainable counterpart of :class:`QuantizedHDCModel`, so quantised
    deployment is constructible through the model registry like any other
    learner: ``fit`` trains the wrapped (float) classifier and immediately
    freezes it; all inference then runs against the quantised memory image.

    Parameters
    ----------
    classifier:
        A fresh, unfitted HDC classifier (anything exposing ``encoder_`` /
        ``memory_`` / ``classes_`` after fitting).
    bits:
        Class-memory precision (1, 2, 4 or 8).
    packed:
        Freeze bit-packed and score in the packed domain (requires
        ``bits=1``; see :class:`QuantizedHDCModel`).
    """

    def __init__(self, classifier, bits: int = 8, *,
                 packed: bool = False) -> None:
        if bits not in (1, 2, 4, 8):
            raise ValueError(f"bits must be 1, 2, 4 or 8, got {bits}")
        if packed and int(bits) != 1:
            raise ValueError(
                f"packed=True requires bits=1, got bits={bits}"
            )
        self.classifier = classifier
        self.bits = int(bits)
        self.packed = bool(packed)
        self.deployed_: Optional[QuantizedHDCModel] = None

    # -------------------------------------------------------------- training

    def fit(self, X, y) -> "QuantizedTrainer":
        """Fit the wrapped classifier, then freeze it at ``bits`` precision."""
        self.classifier.fit(X, y)
        self.deployed_ = QuantizedHDCModel(
            self.classifier, bits=self.bits, packed=self.packed,
        )
        return self

    def partial_fit(self, X, y, classes=None) -> "QuantizedTrainer":
        """Incrementally train the wrapped classifier, then re-freeze.

        Each call delegates to the classifier's ``partial_fit`` and
        refreshes the fixed-point image (building it on the first call),
        so the served state always reflects the latest mini-batch.
        """
        self.classifier.partial_fit(X, y, classes=classes)
        if self.deployed_ is None:
            self.deployed_ = QuantizedHDCModel(
                self.classifier, bits=self.bits, packed=self.packed,
            )
        else:
            self.deployed_.refresh()
        return self

    def refresh(self) -> "QuantizedTrainer":
        """Re-quantize the frozen image from the wrapped classifier."""
        self._check_fitted()
        self.deployed_.refresh()
        return self

    # ------------------------------------------------------------- inference

    def _check_fitted(self) -> None:
        if self.deployed_ is None:
            raise RuntimeError(
                "QuantizedTrainer is not fitted; call fit(X, y) first"
            )

    def decision_scores(self, X) -> np.ndarray:
        """Cosine similarities against the quantised class memory."""
        self._check_fitted()
        return self.deployed_.decision_scores(X)

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        return self.deployed_.predict(X)

    def score(self, X, y) -> float:
        self._check_fitted()
        return self.deployed_.score(X, y)

    def footprint_report(self) -> dict:
        """Deployment footprint of the frozen model."""
        self._check_fitted()
        return self.deployed_.footprint_report()

    # --------------------------------------------- persistence-facing state

    @property
    def classes_(self):
        return getattr(self.classifier, "classes_", None)

    @property
    def n_features_(self):
        return getattr(self.classifier, "n_features_", None)

    @property
    def encoder_(self):
        return getattr(self.classifier, "encoder_", None)

    @property
    def memory_(self):
        """The quantised memory, decoded to float (what inference uses)."""
        if self.deployed_ is None:
            return None
        vectors = self.deployed_.class_vectors
        memory = AssociativeMemory(vectors.shape[0], vectors.shape[1])
        memory.set_vectors(vectors)
        return memory

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "fitted" if self.deployed_ is not None else "unfitted"
        packed = ", packed=True" if self.packed else ""
        return (
            f"QuantizedTrainer({type(self.classifier).__name__}, "
            f"bits={self.bits}{packed}, {state})"
        )

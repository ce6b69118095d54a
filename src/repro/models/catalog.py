"""Registrations for every classifier shipped with the library.

Importing this module (or :mod:`repro.models`) populates the registry with
the paper's model zoo — DistHD plus its six comparators — and the deploy
variants.  Tags encode capabilities:

- ``"hdc"`` / ``"classical"`` — model family;
- ``"paper"`` — appears in the paper's Fig. 4/5 comparison;
- ``"streaming"`` — implements ``partial_fit`` (incremental training);
- ``"deploy"`` — edge-deployment variant;
- ``"persistable"`` — round-trips through ``save_model`` / ``load_model``.

Each registration declares the hyper-parameters the grid-search layer
sweeps by default (``ModelSpec.default_grid``), mirroring the paper's
"common practice of grid search" at analog-friendly scales.
"""

from __future__ import annotations

from repro.baselines.baselinehd import BaselineHDClassifier
from repro.baselines.knn import KNNClassifier
from repro.baselines.mlp import MLPClassifier
from repro.baselines.neuralhd import NeuralHDClassifier
from repro.baselines.onlinehd import OnlineHDClassifier
from repro.baselines.svm import LinearSVMClassifier, RFFSVMClassifier
from repro.core.disthd import DistHDClassifier
from repro.deploy.quantized import QuantizedTrainer
from repro.models.registry import Hyperparam, register_model

_SEED = Hyperparam("seed", None, description="RNG seed")
_LR = Hyperparam("lr", 0.05, (0.01, 0.05, 0.1), "learning rate")
_HDC_DIM = Hyperparam(
    "dim", 500, (250, 500, 1000), "hypervector dimensionality D"
)
_ITERATIONS = Hyperparam("iterations", 20, (), "max training iterations")
_BACKEND = Hyperparam(
    "backend", "numpy", (), "array backend (numpy, see repro.backend)"
)
_DTYPE = Hyperparam(
    "dtype", "float32", (), "hot-path compute dtype (float32 | float64)"
)
_N_JOBS = Hyperparam(
    "n_jobs", None, (),
    "parallel workers for sharded fit (None/1 serial, -1 all cores)",
)
_ENCODER = Hyperparam(
    "encoder", "rbf", (),
    "encoder spec from the registry (rbf | fastfood-rbf | projection-* | "
    "structured-*)",
)
_BANDWIDTH = Hyperparam(
    "bandwidth", 0.5, (), "RBF-family encoder kernel width"
)


def _make_mlp(dim=None, hidden_sizes=None, **params) -> MLPClassifier:
    """Build an MLP; ``dim`` is a uniform capacity alias for one hidden layer."""
    if hidden_sizes is None:
        hidden_sizes = (int(dim),) if dim is not None else (128,)
    elif dim is not None:
        raise TypeError("pass either dim or hidden_sizes, not both")
    return MLPClassifier(hidden_sizes=hidden_sizes, **params)


def _make_rff_svm(dim=None, n_components=None, **params) -> RFFSVMClassifier:
    """Build an RFF-SVM; ``dim`` aliases the random-feature count."""
    if n_components is None:
        n_components = int(dim) if dim is not None else 500
    elif dim is not None:
        raise TypeError("pass either dim or n_components, not both")
    return RFFSVMClassifier(n_components=n_components, **params)


def _register_all() -> None:
    register_model(
        "disthd",
        DistHDClassifier,
        tags=("hdc", "dynamic", "paper", "streaming", "persistable"),
        description="DistHD: learner-aware dynamic encoding (the paper)",
        hyperparams=(
            _HDC_DIM,
            _LR,
            Hyperparam(
                "regen_rate", 0.10, (0.05, 0.10, 0.20), "regeneration rate R"
            ),
            _ENCODER,
            _BANDWIDTH,
            Hyperparam("alpha", 1.0, (), "true-label distance weight"),
            Hyperparam("beta", 1.0, (), "wrong-label proximity weight"),
            Hyperparam("theta", 0.25, (), "second wrong-label weight"),
            _ITERATIONS,
            _N_JOBS,
            _BACKEND,
            _DTYPE,
            _SEED,
        ),
    )
    register_model(
        "baselinehd",
        BaselineHDClassifier,
        tags=("hdc", "static", "paper", "baseline", "streaming", "persistable"),
        description="Static record-based HDC + perceptron retraining "
        "(Rahimi et al. ISLPED'16)",
        hyperparams=(
            Hyperparam(
                "dim", 4000, (2000, 4000, 8000), "hypervector dimensionality D"
            ),
            _LR,
            Hyperparam(
                "encoder", "id-level", (),
                "id-level | sign | any registry spec (rbf, fastfood-rbf, ...)",
            ),
            _ITERATIONS,
            _N_JOBS,
            _BACKEND,
            _DTYPE,
            _SEED,
        ),
    )
    register_model(
        "neuralhd",
        NeuralHDClassifier,
        tags=("hdc", "dynamic", "paper", "baseline", "persistable"),
        description="Variance-ranked dynamic encoding (Zou et al. SC'21)",
        hyperparams=(
            _HDC_DIM,
            _LR,
            Hyperparam(
                "regen_rate", 0.10, (0.05, 0.10, 0.20), "regeneration rate"
            ),
            _ENCODER,
            _BANDWIDTH,
            _ITERATIONS,
            _N_JOBS,
            _BACKEND,
            _DTYPE,
            _SEED,
        ),
    )
    register_model(
        "onlinehd",
        OnlineHDClassifier,
        tags=("hdc", "paper", "baseline", "streaming", "persistable"),
        description="Adaptive similarity-weighted HDC, static encoder",
        hyperparams=(
            _HDC_DIM, _LR, _ENCODER, _BANDWIDTH, _ITERATIONS, _N_JOBS,
            _BACKEND, _DTYPE, _SEED,
        ),
    )
    register_model(
        "mlp",
        _make_mlp,
        tags=("classical", "dnn", "paper", "baseline", "persistable"),
        description="NumPy MLP (ReLU + softmax + Adam) — the SOTA-DNN "
        "comparator",
        hyperparams=(
            Hyperparam("dim", 128, (64, 128, 256), "hidden-layer width"),
            Hyperparam("lr", 1e-3, (1e-3, 1e-2), "Adam learning rate"),
            Hyperparam("epochs", 30, (), "training epochs"),
            _SEED,
        ),
    )
    register_model(
        "svm",
        LinearSVMClassifier,
        tags=("classical", "paper", "baseline", "persistable"),
        description="One-vs-rest linear SVM (squared hinge + Adam)",
        hyperparams=(
            Hyperparam("C", 1.0, (0.1, 1.0, 10.0), "inverse regularisation"),
            Hyperparam("epochs", 30, (), "training epochs"),
            _SEED,
        ),
    )
    register_model(
        "rff-svm",
        _make_rff_svm,
        tags=("classical", "paper", "baseline", "persistable"),
        description="Approximate RBF-kernel SVM via random Fourier features",
        hyperparams=(
            Hyperparam("dim", 500, (250, 500, 1000), "random-feature count"),
            Hyperparam("gamma", None, (), "RBF width (None = 1/sqrt(q))"),
            _SEED,
        ),
    )
    register_model(
        "knn",
        KNNClassifier,
        tags=("classical", "baseline", "persistable"),
        description="Brute-force k-nearest-neighbours sanity baseline",
        hyperparams=(
            Hyperparam("k", 5, (3, 5, 9), "neighbour count"),
            Hyperparam("weights", "uniform", (), "uniform | distance votes"),
        ),
    )

    # ------------------------------------------------------ deploy variants

    def _make_disthd_stream(**params) -> DistHDClassifier:
        streaming_defaults = dict(
            regen_rate=0.2, selection="union",
            reservoir_size=512, regen_every=10,
        )
        streaming_defaults.update(params)
        return DistHDClassifier(**streaming_defaults)

    register_model(
        "disthd-stream",
        _make_disthd_stream,
        tags=("hdc", "dynamic", "deploy", "streaming", "persistable"),
        description="DistHD tuned for partial_fit streams (union selection, "
        "reservoir regeneration)",
        hyperparams=(
            _HDC_DIM,
            _LR,
            Hyperparam(
                "reservoir_size", 512, (), "regeneration reservoir size"
            ),
            Hyperparam(
                "regen_every", 10, (), "batches between regeneration steps"
            ),
            _ENCODER,
            _BACKEND,
            _DTYPE,
            _SEED,
        ),
    )

    def _make_disthd_quantized(
        bits=8, packed=False, **params
    ) -> QuantizedTrainer:
        return QuantizedTrainer(
            DistHDClassifier(**params), bits=bits, packed=packed
        )

    register_model(
        "disthd-quantized",
        _make_disthd_quantized,
        tags=("hdc", "deploy", "quantized", "persistable"),
        description="DistHD trained in float, served from fixed-point "
        "class memory (Fig. 8 deployment); packed=True bit-packs the "
        "1-bit memory and scores via XOR + popcount",
        hyperparams=(
            Hyperparam("bits", 8, (1, 2, 4, 8), "class-memory precision"),
            Hyperparam(
                "packed", False, (False, True),
                "bit-packed 1-bit storage + XOR/popcount scoring",
            ),
            _HDC_DIM,
            _ENCODER,
            _LR,
            _ITERATIONS,
            _N_JOBS,
            _BACKEND,
            _DTYPE,
            _SEED,
        ),
    )


_register_all()

"""Shared benchmark configuration.

The paper's evaluation ran on an i9-12900 against the full UCI datasets; the
benchmarks here run the same model zoo against scaled-down synthetic analogs
so the whole suite finishes in minutes.  The *shape* of each figure (who
wins, by roughly what factor, where crossovers fall) is what the assertions
check; ``test_headline_claims.py`` prints paper-vs-measured values side
by side.

Scaling conventions:

- ``DIM_LO`` stands in for the paper's compressed D = 0.5k and ``DIM_HI``
  for the effective D* = 4k — the same 8× ratio;
- per-dataset ``scale`` factors keep every analog around 600–1300 training
  samples;
- every model trains with a fixed iteration budget (no early stop) so
  convergence curves are comparable.
"""

from __future__ import annotations

from functools import lru_cache

from repro.datasets.loaders import Dataset, load_dataset
from repro.models import make_model

# The 8x dimensionality ratio of the paper (0.5k vs 4k), scaled down.
DIM_LO = 128
DIM_HI = 1024

ITERATIONS = 20
SEED = 0

# Analog sizes: published counts × scale, floored per class.
SCALES = {
    "mnist": 0.015,
    "ucihar": 0.12,
    "isolet": 0.12,
    "pamap2": 0.004,
    "diabetes": 0.015,
}

ALL_DATASETS = tuple(SCALES)


@lru_cache(maxsize=None)
def bench_dataset(name: str, seed: int = SEED) -> Dataset:
    """The scaled analog used across benchmarks (cached per session)."""
    return load_dataset(name, scale=SCALES[name], seed=seed)


def make_disthd(dim: int = DIM_LO, seed: int = SEED, **overrides):
    params = dict(
        dim=dim, iterations=ITERATIONS, convergence_patience=None, seed=seed
    )
    params.update(overrides)
    return make_model("disthd", **params)


def make_neuralhd(dim: int = DIM_LO, seed: int = SEED, **overrides):
    params = dict(
        dim=dim, iterations=ITERATIONS, convergence_patience=None, seed=seed
    )
    params.update(overrides)
    return make_model("neuralhd", **params)


def make_onlinehd(dim: int = DIM_LO, seed: int = SEED, **overrides):
    params = dict(
        dim=dim, iterations=ITERATIONS, convergence_patience=None, seed=seed
    )
    params.update(overrides)
    return make_model("onlinehd", **params)


def make_baselinehd(dim: int = DIM_HI, seed: int = SEED, **overrides):
    params = dict(
        dim=dim, iterations=ITERATIONS, convergence_patience=None, seed=seed
    )
    params.update(overrides)
    return make_model("baselinehd", **params)


def make_mlp(seed: int = SEED, **overrides):
    params = dict(dim=128, epochs=ITERATIONS, seed=seed)
    params.update(overrides)
    return make_model("mlp", **params)


def make_svm(seed: int = SEED, **overrides):
    params = dict(epochs=ITERATIONS, seed=seed)
    params.update(overrides)
    return make_model("svm", **params)


def fig4_model_zoo(seed: int = SEED):
    """The Fig. 4 / Fig. 5 comparison set, as (name, factory) pairs."""
    return [
        ("DNN", lambda: make_mlp(seed=seed)),
        ("SVM", lambda: make_svm(seed=seed)),
        ("BaselineHD-lo", lambda: make_baselinehd(dim=DIM_LO, seed=seed)),
        ("BaselineHD-hi", lambda: make_baselinehd(dim=DIM_HI, seed=seed)),
        ("NeuralHD", lambda: make_neuralhd(seed=seed)),
        ("DistHD", lambda: make_disthd(seed=seed)),
    ]

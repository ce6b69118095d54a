"""The top-level facade: names in, results out.

Everything the CLI, the examples, and most user code need lives here, built
on the two registries (:mod:`repro.models` and :mod:`repro.datasets`):

- :func:`make_model` / :func:`list_models` — build any registered
  classifier by name;
- :func:`run_experiment` — one declarative :class:`ExperimentSpec`
  (model name + dataset name + options) to one
  :class:`~repro.pipeline.experiment.ExperimentResult`;
- :func:`compare` — the Fig. 4-style multi-model comparison on one dataset.

Example::

    from repro import run_experiment, compare

    result = run_experiment(model="disthd", dataset="ucihar",
                            scale=0.05, model_params={"dim": 500})
    rows = compare(["disthd", "baselinehd", "mlp"], dataset="isolet",
                   scale=0.05, dim=256)
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.datasets.loaders import Dataset, load_dataset
from repro.models.registry import get_model_spec, list_models, make_model
from repro.noise.robustness import quality_loss_sweep
from repro.persistence import load_model, save_model
from repro.pipeline.experiment import ExperimentResult
from repro.pipeline.experiment import run_experiment as _run_on_dataset

__all__ = [
    "ExperimentSpec",
    "build_model",
    "compare",
    "list_models",
    "load_model",
    "make_model",
    "run_experiment",
    "save_model",
    "serve_model",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative (model, dataset, options) experiment description.

    Attributes
    ----------
    model:
        Registered model name (see :func:`list_models`).
    dataset:
        Registered dataset name (see
        :func:`repro.datasets.registry.list_datasets`).
    model_params:
        Hyper-parameter overrides forwarded to the model factory.
    scale:
        Fraction of the published sample counts to generate.
    seed:
        Seed for the dataset analog and (when the model declares a ``seed``
        hyper-parameter and ``model_params`` doesn't override it) the model.
    noise_bits:
        When set (1, 2, 4 or 8), additionally run a Fig. 8-style bit-flip
        robustness sweep at that memory precision; results land in
        ``result.extras`` as ``quality_loss@<rate>`` / ``noisy_acc@<rate>``
        plus ``quantized_clean_acc`` (the zero-flip reference at that
        precision, which quality losses are measured against).
    error_rates:
        Bit-flip rates for the robustness sweep.
    inference_repeats:
        Repeat test-split prediction, report the fastest run.
    backend / dtype:
        Compute backend name and hot-path dtype for models that declare the
        corresponding hyper-parameters (the HDC family); ``None`` leaves the
        model's own defaults in place.  An explicit entry in
        ``model_params`` always wins.
    encoder:
        Encoder spec (see :func:`repro.hdc.encoders.make_encoder` —
        ``"rbf"``, ``"fastfood-rbf"``, ...) for models that declare an
        ``encoder`` hyper-parameter; ``None`` keeps each model's own
        default.  ``model_params`` wins as usual.
    n_jobs:
        Parallel workers for models that declare an ``n_jobs``
        hyper-parameter (the sharding-capable HDC family): more than one
        worker routes their ``fit`` through data-parallel
        :func:`~repro.engine.shard.shard_fit`.  ``None`` keeps the
        model's own default (serial); ``model_params`` wins as usual.
    """

    model: str = "disthd"
    dataset: str = "ucihar"
    model_params: Mapping[str, object] = field(default_factory=dict)
    scale: float = 0.02
    seed: int = 0
    noise_bits: Optional[int] = None
    error_rates: Tuple[float, ...] = (0.01, 0.05, 0.10)
    inference_repeats: int = 1
    backend: Optional[str] = None
    dtype: Optional[str] = None
    encoder: Optional[str] = None
    n_jobs: Optional[int] = None

    def with_overrides(self, **kwargs) -> "ExperimentSpec":
        """A copy of this spec with the given fields replaced."""
        return replace(self, **kwargs)


def _coerce_spec(
    spec: Union[ExperimentSpec, Mapping, None], overrides: Mapping
) -> ExperimentSpec:
    if spec is None:
        spec = ExperimentSpec()
    elif isinstance(spec, Mapping):
        spec = ExperimentSpec(**spec)
    elif isinstance(spec, str):
        # run_experiment("disthd", dataset="ucihar") convenience form.
        spec = ExperimentSpec(model=spec)
    elif not isinstance(spec, ExperimentSpec):
        raise TypeError(
            "spec must be an ExperimentSpec, a mapping, or a model name; "
            f"got {type(spec).__name__}"
        )
    if overrides:
        valid = {f.name for f in fields(ExperimentSpec)}
        unknown = set(overrides) - valid
        if unknown:
            raise TypeError(
                f"unknown experiment options {sorted(unknown)}; "
                f"valid: {sorted(valid)}"
            )
        spec = spec.with_overrides(**overrides)
    return spec


def build_model(name: str, params: Mapping = (), *, seed: Optional[int] = None):
    """``make_model`` plus seed injection.

    Forwards ``params`` to the registered factory; when the model declares a
    ``seed`` hyper-parameter and ``params`` doesn't set one, ``seed`` is
    injected so experiments are reproducible by default (models without a
    seed knob, e.g. kNN, are left alone).
    """
    params = dict(params)
    if (
        seed is not None
        and "seed" not in params
        and "seed" in get_model_spec(name).param_names()
    ):
        params["seed"] = seed
    return make_model(name, **params)


def run_experiment(
    spec: Union[ExperimentSpec, Mapping, str, None] = None,
    *,
    data: Optional[Dataset] = None,
    **overrides,
) -> ExperimentResult:
    """Run one (model, dataset) experiment described by ``spec``.

    ``spec`` may be an :class:`ExperimentSpec`, a mapping of its fields, a
    bare model name, or omitted entirely with fields passed as keywords::

        run_experiment(model="disthd", dataset="isolet", scale=0.05)

    Pass ``data=`` to reuse an already-generated :class:`Dataset` (its name
    must still be given for the report row via ``dataset``).  Returns the
    full :class:`~repro.pipeline.experiment.ExperimentResult` metric record.
    """
    spec = _coerce_spec(spec, overrides)
    dataset = (
        data if data is not None
        else load_dataset(spec.dataset, scale=spec.scale, seed=spec.seed)
    )
    params = dict(spec.model_params)
    declared = get_model_spec(spec.model).param_names()
    for knob in ("backend", "dtype", "encoder", "n_jobs"):
        value = getattr(spec, knob)
        if value is not None and knob in declared and knob not in params:
            params[knob] = value
    if (
        spec.noise_bits is not None
        and "bits" in declared
        and "bits" not in params
    ):
        # Quantised deployments store at their own precision; keep it in
        # step with the sweep precision (an explicit model_params["bits"]
        # mismatch is surfaced by perturb_classifier instead).
        params["bits"] = spec.noise_bits
    model = build_model(spec.model, params, seed=spec.seed)
    result = _run_on_dataset(
        model, dataset,
        model_name=spec.model,
        inference_repeats=spec.inference_repeats,
    )
    if spec.noise_bits is not None:
        points = quality_loss_sweep(
            model, dataset.test_x, dataset.test_y,
            bits=spec.noise_bits, error_rates=spec.error_rates,
            seed=spec.seed,
        )
        for point in points:
            result.extras[f"quality_loss@{point.error_rate:g}"] = (
                point.quality_loss
            )
            result.extras[f"noisy_acc@{point.error_rate:g}"] = (
                point.noisy_accuracy
            )
        if points:
            result.extras["quantized_clean_acc"] = points[0].clean_accuracy
    return result


def serve_model(
    model=None,
    *,
    path=None,
    max_batch_size: int = 64,
    **server_options,
):
    """Front a fitted model with a micro-batching :class:`ModelServer`.

    Pass either a fitted model object (``model=``) or a
    :func:`save_model` archive path (``path=``, or a ``str``/``Path`` as
    the positional argument).  Returns a started
    :class:`~repro.serve.server.ModelServer` — use it as a context
    manager or ``close()`` it when done::

        from repro import serve_model

        with serve_model(path="disthd-v1.npz") as server:
            labels = server.predict(rows)     # batched with queued peers
            server.deploy("disthd-v2.npz")    # atomic hot-swap
            print(server.stats())

    ``max_batch_size`` caps the rows of one batch (the server batches
    whatever is queued, without waiting for more); remaining keyword
    options forward to the :class:`~repro.serve.server.ModelServer`
    constructor.  See ``docs/serving.md``.
    """
    from repro.serve.server import ModelServer

    if (model is None) == (path is None):
        raise TypeError("serve_model needs exactly one of model= or path=")
    return ModelServer(
        model if model is not None else path,
        max_batch_size=max_batch_size,
        **server_options,
    )


#: One entry of :func:`compare`'s model list: a registered name, a
#: ``(label, name)`` pair, or ``(label, name, params)``.
ModelRef = Union[str, Tuple[str, str], Tuple[str, str, Mapping]]


def _normalize_ref(ref: ModelRef) -> Tuple[str, str, Dict[str, object]]:
    if isinstance(ref, str):
        return ref, ref, {}
    if isinstance(ref, Sequence) and 2 <= len(ref) <= 3:
        label, name = str(ref[0]), str(ref[1])
        params = dict(ref[2]) if len(ref) == 3 else {}
        return label, name, params
    raise TypeError(
        "each model must be a name, (label, name) or (label, name, params); "
        f"got {ref!r}"
    )


def compare(
    models: Sequence[ModelRef],
    dataset: Union[str, Dataset] = "ucihar",
    *,
    scale: float = 0.02,
    seed: int = 0,
    **options,
) -> List[ExperimentResult]:
    """Run several models against one dataset (the Fig. 4 shape).

    ``models`` entries are registered names, optionally as
    ``(label, name)`` / ``(label, name, params)`` tuples so one model can
    appear at several operating points::

        compare([
            "disthd",
            ("BaselineHD (D=4k)", "baselinehd", {"dim": 4000}),
        ], dataset="mnist", scale=0.01)

    The dataset is generated once and shared; extra keyword ``options``
    (e.g. ``noise_bits``, ``inference_repeats``) apply to every run.
    Returns one :class:`~repro.pipeline.experiment.ExperimentResult` per
    entry, in input order.
    """
    if isinstance(dataset, Dataset):
        data, dataset_name = dataset, dataset.name
    else:
        data = load_dataset(dataset, scale=scale, seed=seed)
        dataset_name = str(dataset)
    results: List[ExperimentResult] = []
    for ref in models:
        label, name, params = _normalize_ref(ref)
        spec = ExperimentSpec(
            model=name, dataset=dataset_name, model_params=params,
            scale=scale, seed=seed, **options,
        )
        result = run_experiment(spec, data=data)
        result.model_name = label
        results.append(result)
    return results

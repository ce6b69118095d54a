"""The array-compute seam (``repro.backend``).

The HDC hot paths — encoding, similarity search, adaptive updates,
regeneration — are written against the small
:class:`~repro.backend.base.ArrayBackend` protocol instead of NumPy
directly.  :class:`NumpyBackend` is the one shipped implementation and the
default; ``backend=`` also takes an ``ArrayBackend`` instance::

    from repro import make_model

    clf = make_model("disthd", backend="numpy", dtype="float32")  # default

See ``docs/performance.md`` for backend selection and dtype trade-offs.
"""

from repro.backend.base import ArrayBackend, auto_chunk_rows, resolve_dtype
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.registry import (
    BackendLike,
    default_backend,
    get_backend,
    list_backends,
)

__all__ = [
    "ArrayBackend",
    "BackendLike",
    "auto_chunk_rows",
    "NumpyBackend",
    "default_backend",
    "get_backend",
    "list_backends",
    "resolve_dtype",
]

"""Backend resolution: turn a ``backend=`` spec into an instance.

Everything that accepts ``backend=`` resolves through :func:`get_backend`.
The library ships one backend, NumPy, and it is the default; a caller
with its own engine passes an :class:`ArrayBackend` instance, which
threads through unchanged.
"""

from __future__ import annotations

from typing import Tuple, Union

from repro.backend.base import ArrayBackend
from repro.backend.numpy_backend import NumpyBackend

BackendLike = Union[None, str, ArrayBackend]

_NUMPY = NumpyBackend()


def get_backend(spec: BackendLike = None) -> ArrayBackend:
    """Resolve a backend spec to an :class:`ArrayBackend` instance.

    ``None`` and ``"numpy"`` (case-insensitive) return the shared NumPy
    backend; an :class:`ArrayBackend` instance passes through unchanged so
    callers can thread a custom backend end to end.
    """
    if spec is None:
        return _NUMPY
    if isinstance(spec, ArrayBackend):
        return spec
    if isinstance(spec, str):
        if spec.strip().lower() != _NUMPY.name:
            raise KeyError(
                f"unknown backend {spec!r}; available: {list(list_backends())}"
            )
        return _NUMPY
    raise TypeError(
        f"backend must be None, a name, or an ArrayBackend, got "
        f"{type(spec).__name__}"
    )


def list_backends() -> Tuple[str, ...]:
    """Backend names :func:`get_backend` resolves."""
    return (_NUMPY.name,)


def default_backend() -> ArrayBackend:
    """The library-wide default backend (NumPy)."""
    return _NUMPY

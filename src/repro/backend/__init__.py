"""Pluggable compute backends for the inference hot path.

See :mod:`repro.backend.base` for the interface and selection rules
(explicit scope > ``REPRO_BACKEND`` env var > numpy reference), and
``docs/API.md`` ("Compute backends") for the user-facing contract.
"""

from repro.backend.base import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    BackendLike,
    ComputeBackend,
    activation_fn,
    active_backend,
    available_backends,
    default_backend,
    get_backend,
    register_backend,
    resolve_backend,
    use_backend,
)
from repro.backend.gather import GatherGEMMBackend
from repro.backend.int8 import Int8Backend
from repro.backend.numpy_ref import NumpyBackend

register_backend("numpy", NumpyBackend)
register_backend("gather", GatherGEMMBackend)
register_backend("int8", Int8Backend)

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "BackendLike",
    "ComputeBackend",
    "GatherGEMMBackend",
    "Int8Backend",
    "NumpyBackend",
    "activation_fn",
    "active_backend",
    "available_backends",
    "default_backend",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "use_backend",
]

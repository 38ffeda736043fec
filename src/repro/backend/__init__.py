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
from repro.backend.numpy_ref import NumpyBackend

register_backend("numpy", NumpyBackend)
register_backend("gather", GatherGEMMBackend)

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "BackendLike",
    "ComputeBackend",
    "GatherGEMMBackend",
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

"""Pluggable transport backends (see ``docs/backends.md``).

The registry maps backend names to factories taking the cluster spec;
:func:`resolve_backend` is the single selection point used by
:class:`~repro.cluster.transport.Transport`:

explicit instance > explicit name > ``REPRO_BACKEND`` env > ``"batched"``.

:mod:`.shm` (and with it ``multiprocessing`` and the wire codec) loads only
when the ``"shm"`` backend is built or ``SharedMemoryBackend`` is named.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import TYPE_CHECKING

from .base import BackendError, PoolRef, TransportBackend
from .local import BatchedBackend, LocalBackend

if TYPE_CHECKING:
    from ..topology import ClusterSpec
    from .shm import SharedMemoryBackend


def _make_shm(spec: ClusterSpec) -> TransportBackend:
    from .shm import SharedMemoryBackend

    return SharedMemoryBackend(spec.world_size)


#: name -> factory(spec) for every backend that ships.
BACKEND_REGISTRY: dict[str, Callable[[ClusterSpec], TransportBackend]] = {
    "local": lambda spec: LocalBackend(),
    "batched": lambda spec: BatchedBackend(),
    "shm": _make_shm,
}

DEFAULT_BACKEND = "batched"

#: Environment override consulted when neither config nor caller names one.
BACKEND_ENV_VAR = "REPRO_BACKEND"


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(BACKEND_REGISTRY)


def resolve_backend(
    backend: TransportBackend | str | None, spec: ClusterSpec
) -> TransportBackend:
    """Resolve a backend selector to a live (unattached) backend instance.

    ``backend`` may be an instance (returned as-is), a registry name, or
    ``None`` — which falls back to ``$REPRO_BACKEND`` and then the default.
    """
    if isinstance(backend, TransportBackend):
        return backend
    name = backend if backend is not None else os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    try:
        factory = BACKEND_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown transport backend {name!r}; options: {available_backends()}"
        ) from None
    return factory(spec)


def __getattr__(name: str) -> type[SharedMemoryBackend]:
    if name == "SharedMemoryBackend":
        from .shm import SharedMemoryBackend

        return SharedMemoryBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BACKEND_ENV_VAR",
    "BACKEND_REGISTRY",
    "BackendError",
    "BatchedBackend",
    "DEFAULT_BACKEND",
    "LocalBackend",
    "PoolRef",
    "SharedMemoryBackend",
    "TransportBackend",
    "available_backends",
    "resolve_backend",
]

"""Simulated distributed cluster: links, topology, and the transport
(virtual clocks and traffic stats live on it as float64 vectors).

``SharedMemoryBackend`` resolves on first use, like the ``"shm"`` registry
entry (see :mod:`.backends`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .backends import (
    BackendError,
    BatchedBackend,
    LocalBackend,
    TransportBackend,
    available_backends,
    resolve_backend,
)
from .netmodel import GBPS, Link, NVLINK, TCP_10G, TCP_25G, TCP_100G, preset
from .topology import ClusterSpec, paper_cluster
from .transport import Message, TrafficStats, Transport, payload_nbytes
from .worker import WorkerContext, make_workers

if TYPE_CHECKING:
    from .backends.shm import SharedMemoryBackend

__all__ = [
    "BackendError",
    "BatchedBackend",
    "LocalBackend",
    "SharedMemoryBackend",
    "TransportBackend",
    "available_backends",
    "resolve_backend",
    "Link",
    "GBPS",
    "NVLINK",
    "TCP_10G",
    "TCP_25G",
    "TCP_100G",
    "preset",
    "ClusterSpec",
    "paper_cluster",
    "Message",
    "Transport",
    "TrafficStats",
    "payload_nbytes",
    "WorkerContext",
    "make_workers",
]


def __getattr__(name: str) -> type[SharedMemoryBackend]:
    if name == "SharedMemoryBackend":
        from .backends.shm import SharedMemoryBackend

        return SharedMemoryBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

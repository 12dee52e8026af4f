"""Stable-storage modelling: stores, footprints, GC policies."""

from repro.storage.store import (
    CheckpointRecord,
    StableStore,
    StorageError,
)
from repro.storage.timeline import StorageReport, simulate_storage

__all__ = [
    "CheckpointRecord",
    "StableStore",
    "StorageError",
    "StorageReport",
    "simulate_storage",
]

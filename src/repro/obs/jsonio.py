"""Canonical JSON: one encoding for every serialised artifact.

Cache payloads, trace lines, metric snapshots and ``--json`` CLI reports
all need the same property: *equal values encode to equal bytes*, on any
machine, in any process.  That is what makes the result cache
content-addressable, trace files diffable, and golden tests byte-exact.
The recipe is plain ``json.dumps`` with sorted keys and no whitespace --
kept here (rather than inlined at each call site) so no producer can
drift.
"""

from __future__ import annotations

import json
from typing import Any

# ``json.dumps`` with non-default options builds a fresh JSONEncoder per
# call; every wire frame comes through here, so hold the one encoder.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def jsonable(value: object) -> object:
    """A JSON-safe, deterministic rendition of an arbitrary value.

    Scalars pass through, sequences and mappings recurse (mapping keys
    stringified and sorted), anything else falls back to ``repr`` --
    which is stable for the dataclasses used throughout this codebase.
    """
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items())}
    return repr(value)


def canonical_dumps(doc: Any) -> str:
    """Encode ``doc`` as canonical (sorted, compact) JSON text."""
    return _ENCODE(doc)


def canonical_bytes(doc: Any) -> bytes:
    """Encode ``doc`` as canonical JSON bytes (cache/trace payloads)."""
    return canonical_dumps(doc).encode("utf-8")

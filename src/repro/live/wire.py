"""Datagram codec for the live runtime.

One JSON object per UDP datagram, versioned, with a short ``k`` kind
tag matching the sim's :class:`~repro.net.message.MessageKind` values.
JSON keeps the wire human-debuggable (``tcpdump -A`` readable) and
dependency-free; datagrams stay well under loopback MTU.

Message kinds and required fields:

``request``      ``id`` ``attempt`` ``client`` ``service`` (seconds)
``response``     ``id`` ``attempt`` ``server`` ``enq`` ``start`` ``done``
``reject``       ``id`` ``attempt`` ``server``
``poll``         ``pid``
``poll_reply``   ``pid`` ``server`` ``q`` ``at``
``publish``      ``server`` ``entries`` ``at``
``subscribe``    ``client``

Decoding is strict: ``id`` ``attempt`` ``client`` ``server`` ``pid``
``q`` are integers, ``service`` ``enq`` ``start`` ``done`` ``at`` are
finite numbers (``service`` >= 0), ``entries`` is a list of
``[service name, partition]`` pairs. Any other datagram is a
:class:`WireError`, which both endpoints count and drop.

Times are seconds on the *sender's* clock. Within the in-process
loopback harness every component shares one ``WallClock`` so they are
directly comparable; the standalone ``repro serve`` path documents the
cross-clock caveat (clients fall back to duration arithmetic).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict

__all__ = ["WIRE_VERSION", "WireError", "encode_message", "decode_message", "KINDS"]

WIRE_VERSION = 1

#: Wire kind tag -> required fields (beyond ``v`` and ``k``).
KINDS: Dict[str, tuple] = {
    "request": ("id", "attempt", "client", "service"),
    "response": ("id", "attempt", "server", "enq", "start", "done"),
    "reject": ("id", "attempt", "server"),
    "poll": ("pid",),
    "poll_reply": ("pid", "server", "q", "at"),
    "publish": ("server", "entries", "at"),
    "subscribe": ("client",),
}


#: fields that must be JSON integers (never booleans)
_INT_FIELDS = frozenset({"id", "attempt", "client", "server", "pid", "q"})


class WireError(ValueError):
    """Raised for malformed, unversioned, or unknown datagrams."""


def _is_int(value: Any) -> bool:
    return type(value) is int


def _is_time(value: Any) -> bool:
    return _is_int(value) or (type(value) is float and math.isfinite(value))


def _is_entries(value: Any) -> bool:
    return isinstance(value, list) and all(
        isinstance(entry, list)
        and len(entry) == 2
        and isinstance(entry[0], str)
        and _is_int(entry[1])
        for entry in value
    )


def _valid(name: str, value: Any) -> bool:
    if name in _INT_FIELDS:
        return _is_int(value)
    if name == "entries":
        return _is_entries(value)
    return _is_time(value) and (name != "service" or value >= 0)


def encode_message(kind: str, **fields: Any) -> bytes:
    """Encode one datagram. Validates the kind and required fields."""
    required = KINDS.get(kind)
    if required is None:
        raise WireError(f"unknown wire kind: {kind!r}")
    missing = [name for name in required if name not in fields]
    if missing:
        raise WireError(f"{kind} datagram missing fields: {missing}")
    payload = {"v": WIRE_VERSION, "k": kind}
    payload.update(fields)
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def decode_message(data: bytes) -> Dict[str, Any]:
    """Decode and validate one datagram; returns the field dict."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # undecodable bytes, bad JSON, an over-long integer literal, or
        # nesting deeper than the parser recurses
        raise WireError(f"undecodable datagram: {exc}") from exc
    if not isinstance(payload, dict):
        raise WireError(f"datagram is not an object: {type(payload).__name__}")
    version = payload.get("v")
    if not (_is_int(version) and version == WIRE_VERSION):
        raise WireError(f"unsupported wire version: {version!r} (expected {WIRE_VERSION})")
    kind = payload.get("k")
    required = KINDS.get(kind) if isinstance(kind, str) else None
    if required is None:
        raise WireError(f"unknown wire kind: {kind!r}")
    missing = [name for name in required if name not in payload]
    if missing:
        raise WireError(f"{kind} datagram missing fields: {missing}")
    bad = [name for name in required if not _valid(name, payload[name])]
    if bad:
        raise WireError(f"{kind} datagram has malformed fields: {bad}")
    return payload

"""Datagram codec for the live runtime: one fixed binary layout per kind.

The ``!BB`` header (``WIRE_VERSION``, the kind's code), then the kind's
fields in ``KINDS`` order, ints as ``q``, times (seconds, sender's clock)
as ``d``, through one precompiled :class:`struct.Struct` per kind::

    request (1)     qqqd    id attempt client service          34 bytes
    response (2)    qqqddd  id attempt server enq start done   50 bytes
    reject (3)      qqq     id attempt server                  26 bytes
    poll (4)        q       pid                                10 bytes
    poll_reply (5)  qqqd    pid server q at                    34 bytes
    publish (6)     qdH     server at count, then per entry    20 bytes
                    Hq      name length, partition; the name   + 10 + name
    subscribe (7)   q       client                             10 bytes

Strict both ways: encoding a value its slot cannot carry and decoding
anything but exactly one layout (a v1 JSON datagram reads as version
123) raise :class:`WireError`; whatever decodes re-encodes to the
identical bytes. The cost is ``tcpdump -A`` readability: both ends come
from one checkout, so read a captured payload with :func:`decode_message`.
"""

from __future__ import annotations

import math
import struct
from typing import Any, Dict

__all__ = ["WIRE_VERSION", "WireError", "encode_message", "decode_message", "KINDS"]

WIRE_VERSION = 2

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

_TIMES = frozenset({"service", "enq", "start", "done", "at"})  # the d fields; the rest q
_ENTRY = struct.Struct("!Hq")
#: kind -> (code, whole-datagram layout, fields, time fields); _BY_CODE keys the code byte
_LAYOUTS = {
    kind: (code, struct.Struct("!BB" + ("qdH" if kind == "publish" else "".join(
        "d" if name in _TIMES else "q" for name in names))),
        names, tuple(name for name in names if name in _TIMES))
    for code, (kind, names) in enumerate(KINDS.items(), start=1)
}
_BY_CODE = {bytes([c]): (k, s, ("v", "k", *f), t) for k, (c, s, f, t) in _LAYOUTS.items()}


class WireError(ValueError):
    """Raised for malformed, unversioned, or unknown datagrams."""


def _fits(name: str, value: Any) -> bool:
    """Whether ``value`` fits ``name``'s slot (packing bounds ``entries``' sizes)."""
    if name in _TIMES:
        return (isinstance(value, float) or type(value) is int and abs(value) <= 2**53) and (
            math.isfinite(value) and (value >= 0 or name != "service"))
    if name == "entries":
        return isinstance(value, (list, tuple)) and all(
            isinstance(e, (list, tuple)) and len(e) == 2 and isinstance(e[0], str)
            and type(e[1]) is int for e in value)
    return type(value) is int and -(2**63) <= value < 2**63


def encode_message(kind: str, **fields: Any) -> bytes:
    """Encode one datagram; a value that does not fit its slot is a WireError."""
    if kind not in _LAYOUTS:
        raise WireError(f"unknown wire kind: {kind!r}")
    code, layout, names, _ = _LAYOUTS[kind]
    try:
        values = [fields[name] for name in names]
    except KeyError:
        missing = [name for name in names if name not in fields]
        raise WireError(f"{kind} datagram missing fields: {missing}") from None
    if not all(map(_fits, names, values)):
        bad = [name for name, value in zip(names, values) if not _fits(name, value)]
        raise WireError(f"{kind} datagram has malformed fields: {bad}")
    if kind != "publish":
        return layout.pack(WIRE_VERSION, code, *values)
    try:
        blobs = [(name.encode("utf-8"), part) for name, part in fields["entries"]]
        head = layout.pack(WIRE_VERSION, code, fields["server"], fields["at"], len(blobs))
        return head + b"".join([_ENTRY.pack(len(blob), part) + blob for blob, part in blobs])
    except (UnicodeEncodeError, struct.error) as exc:
        raise WireError(f"publish datagram has malformed fields: ['entries'] ({exc})") from exc


def decode_message(data: bytes) -> Dict[str, Any]:
    """Decode and validate one datagram; returns the field dict."""
    if not data or data[0] != WIRE_VERSION:
        raise WireError(f"unsupported wire version: {list(data[:1])} (expected [{WIRE_VERSION}])")
    if data[1:2] not in _BY_CODE:
        raise WireError(f"unknown wire kind code: {list(data[1:2])}")
    kind, layout, keys, times = _BY_CODE[data[1:2]]
    if kind != "publish":
        if len(data) != layout.size:
            raise WireError(f"{kind} datagram is {len(data)} bytes (expected {layout.size})")
        msg = dict(zip(keys, layout.unpack(data)), k=kind)
    else:
        try:
            _, _, server, at, count = layout.unpack_from(data)
            end, entries = layout.size, []
            for _ in range(count):
                size, partition = _ENTRY.unpack_from(data, end)
                (name,) = struct.unpack_from(f"{size}s", data, end + _ENTRY.size)
                entries.append([name.decode("utf-8"), partition])
                end += _ENTRY.size + size
            if end != len(data):
                raise ValueError(f"{len(data) - end} trailing bytes")
        except (struct.error, ValueError) as exc:  # a short or overrunning entry, bad UTF-8
            raise WireError(f"publish datagram has malformed fields: ['entries'] ({exc})") from exc
        msg = {"v": WIRE_VERSION, "k": kind, "server": server, "entries": entries, "at": at}
    if not all(map(_fits, times, map(msg.__getitem__, times))):
        bad = [name for name in times if not _fits(name, msg[name])]
        raise WireError(f"{kind} datagram has malformed fields: {bad}")
    return msg

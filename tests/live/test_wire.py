"""Datagram codec: round-trips, validation, versioning, hostile input."""

import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.wire import KINDS, WIRE_VERSION, WireError, decode_message, encode_message

_EXAMPLES = {
    "request": {"id": 7, "attempt": 0, "client": 4, "service": 0.01},
    "response": {"id": 7, "attempt": 0, "server": 1, "enq": 1.0, "start": 1.1, "done": 1.2},
    "reject": {"id": 7, "attempt": 1, "server": 2},
    "poll": {"pid": 33},
    "poll_reply": {"pid": 33, "server": 0, "q": 2, "at": 5.5},
    "publish": {"server": 3, "entries": [["svc", 0], ["héllo", -2]], "at": 2.0},
    "subscribe": {"client": 9},
}

#: the fields a datagram carries as ``d``; every other scalar is a ``q``
_TIMES = {"service", "enq", "start", "done", "at"}
#: the kind codes: 1-7 in ``KINDS`` order
_CODES = {kind: code for code, kind in enumerate(KINDS, start=1)}


def _raw(fields):
    """Pack ``fields`` straight through ``struct``, past every encoder check.

    ``v`` defaults to ``WIRE_VERSION``; ``k`` is a kind name or a raw
    code; a publish's ``entries`` is ``(count, the bytes after the count)``.
    """
    kind = fields["k"]
    head = struct.pack("!BB", fields.get("v", WIRE_VERSION), _CODES.get(kind, kind))
    if kind == "publish":
        count, body = fields["entries"]
        return head + struct.pack("!qdH", fields["server"], fields["at"], count) + body
    names = KINDS.get(kind, ())
    fmt = "!" + "".join("d" if name in _TIMES else "q" for name in names)
    return head + struct.pack(fmt, *(fields[name] for name in names))


def _entry(name: bytes, partition: int, size=None) -> bytes:
    return struct.pack("!Hq", len(name) if size is None else size, partition) + name


def test_every_kind_round_trips():
    assert set(_EXAMPLES) == set(KINDS)
    for kind, fields in _EXAMPLES.items():
        data = encode_message(kind, **fields)
        msg = decode_message(data)
        assert msg["k"] == kind
        assert msg["v"] == WIRE_VERSION
        for name, value in fields.items():
            assert msg[name] == value
        assert encode_message(kind, **{n: msg[n] for n in KINDS[kind]}) == data


def test_encode_rejects_unknown_kind_and_missing_fields():
    with pytest.raises(WireError, match="unknown wire kind"):
        encode_message("gossip", x=1)
    with pytest.raises(WireError, match="missing fields"):
        encode_message("request", id=1, attempt=0)


def test_decode_rejects_garbage():
    with pytest.raises(WireError, match="unsupported wire version"):
        decode_message(b"")
    with pytest.raises(WireError, match=r"unsupported wire version: \[255\]"):
        decode_message(b"\xff\xfe not a datagram")
    with pytest.raises(WireError, match=r"unknown wire kind code: \[\]"):
        decode_message(bytes([WIRE_VERSION]))
    with pytest.raises(WireError, match=r"poll datagram is 9 bytes \(expected 10\)"):
        decode_message(encode_message("poll", pid=1)[:-1])


def test_decode_rejects_wrong_version_and_missing_fields():
    poll = encode_message("poll", pid=1)
    for version in (0, 1, WIRE_VERSION + 1, 255):
        with pytest.raises(WireError, match="unsupported wire version"):
            decode_message(bytes([version]) + poll[1:])
    # a v1 (JSON) datagram reads as version 123, the byte '{'
    with pytest.raises(WireError, match=r"unsupported wire version: \[123\]"):
        decode_message(json.dumps(dict(v=1, k="poll", pid=1)).encode())
    for code in (0, len(KINDS) + 1, 255):
        with pytest.raises(WireError, match="unknown wire kind"):
            decode_message(bytes([WIRE_VERSION, code]) + poll[2:])
    # the binary form of a missing field is a short datagram
    with pytest.raises(WireError, match=r"request datagram is 26 bytes \(expected 34\)"):
        decode_message(encode_message("request", **_EXAMPLES["request"])[:-8])


def test_datagrams_are_compact_single_objects():
    """Each kind packs to its layout's exact size: the ``!BB`` header,
    8 bytes per field, and a publish's 2-byte count plus, per entry, a
    2-byte name length, an 8-byte partition and the UTF-8 name."""
    sizes = {"request": 34, "response": 50, "reject": 26, "poll": 10,
             "poll_reply": 34, "publish": 20 + (10 + 3) + (10 + 6), "subscribe": 10}
    for kind, fields in _EXAMPLES.items():
        assert len(encode_message(kind, **fields)) == sizes[kind], kind
    assert len(encode_message("publish", server=0, entries=[], at=0.0)) == 20
    assert len(encode_message("poll", pid=2**63 - 1)) == 10


# ----------------------------------------------------------------------
# strict decode: a malformed datagram is a counted WireError, nothing else
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "fields, bad",
    [
        ({"k": "request", "id": 1, "attempt": 0, "client": 4, "service": math.nan}, "service"),
        ({"k": "request", "id": 1, "attempt": 0, "client": 4, "service": -0.5}, "service"),
        ({"k": "response", "id": 1, "attempt": 0, "server": 1, "enq": math.inf,
          "start": 1.1, "done": 1.2}, "enq"),
        ({"k": "response", "id": 1, "attempt": 0, "server": 1, "enq": 1.0,
          "start": math.nan, "done": 1.2}, "start"),
        ({"k": "poll_reply", "pid": 3, "server": 0, "q": 2, "at": -math.inf}, "at"),
        ({"k": "publish", "server": 3, "entries": (1, _entry(b"\xff", 0)), "at": 2.0},
         "entries"),
        ({"k": "publish", "server": 3, "entries": (2, _entry(b"svc", 0)), "at": 2.0},
         "entries"),
        ({"k": "publish", "server": 3, "entries": (1, _entry(b"svc", 0, size=4)), "at": 2.0},
         "entries"),
        ({"k": "publish", "server": 3, "entries": (1, _entry(b"svc", 0) + b"x"), "at": 2.0},
         "entries"),
        ({"k": "publish", "server": 3, "entries": (0, b""), "at": math.nan}, "at"),
    ],
)
def test_decode_rejects_malformed_fields(fields, bad):
    with pytest.raises(WireError, match=rf"{fields['k']} datagram has malformed fields: \['{bad}'\]"):
        decode_message(_raw(fields))


# ----------------------------------------------------------------------
# the encoder emits only what its decoder accepts
# ----------------------------------------------------------------------

_SURROGATE = "\ud800"


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("request", "id", True),
        ("request", "id", 1.0),
        ("request", "id", "1"),
        ("request", "id", None),
        ("request", "attempt", 2**63),
        ("request", "client", -(2**63) - 1),
        ("request", "service", -1.0),
        ("request", "service", math.nan),
        ("request", "service", "0.1"),
        ("request", "service", True),
        ("request", "service", 2**53 + 1),
        ("response", "enq", math.inf),
        ("response", "done", -math.inf),
        ("poll_reply", "q", 2.5),
        ("poll_reply", "at", math.nan),
        ("publish", "at", math.inf),
        ("publish", "entries", "svc"),
        ("publish", "entries", {"svc": 0}),
        ("publish", "entries", [["svc"]]),
        ("publish", "entries", [[b"svc", 0]]),
        ("publish", "entries", [[1, 0]]),
        ("publish", "entries", [["svc", "0"]]),
        ("publish", "entries", [["svc", True]]),
        ("publish", "entries", [["svc", 2**63]]),
        ("publish", "entries", [[_SURROGATE, 0]]),
        ("publish", "entries", [["x" * 65_536, 0]]),
        ("publish", "entries", [["", 0]] * 65_536),
    ],
)
def test_encode_rejects_what_does_not_fit_its_slot(kind, field, value):
    """Regression: ``id=True``, ``service=-1.0`` and ``at=nan`` each
    encoded to a datagram the decoder then refused."""
    fields = {**_EXAMPLES[kind], field: value}
    with pytest.raises(WireError, match=rf"{kind} datagram has malformed fields: \['{field}'\]"):
        encode_message(kind, **fields)


def test_encode_takes_the_widest_values_that_fit():
    wide = {"id": -(2**63), "attempt": 2**63 - 1, "client": 0, "service": -0.0}
    assert decode_message(encode_message("request", **wide)) == {"v": WIRE_VERSION,
                                                                "k": "request", **wide}
    msg = decode_message(encode_message("request", id=1, attempt=0, client=0, service=2**53))
    assert msg["service"] == 2**53 and type(msg["service"]) is float
    entries = [["x" * 65_535, 2**63 - 1]] + [["é", -(2**63)]] * 3
    data = encode_message("publish", server=0, entries=entries, at=-1e308)
    assert decode_message(data)["entries"] == entries


_ANY_VALUE = st.one_of(
    st.integers(-(2**64), 2**64),
    st.booleans(),
    st.floats(),  # NaN and +-inf included
    st.text(max_size=4),
    st.none(),
)
_ANY_ENTRIES = st.one_of(
    st.lists(st.tuples(st.text(max_size=5), st.integers(-(2**64), 2**64)), max_size=4),
    st.lists(st.lists(_ANY_VALUE, max_size=3), max_size=3),
    _ANY_VALUE,
)


@st.composite
def _encodable(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    fields = {name: draw(_ANY_ENTRIES if name == "entries" else _ANY_VALUE)
              for name in KINDS[kind]}
    return kind, fields


@given(case=_encodable())
@settings(deadline=None)
def test_every_accepted_encode_decodes_to_equal_fields(case):
    kind, fields = case
    try:
        data = encode_message(kind, **fields)
    except WireError:
        return
    msg = decode_message(data)
    assert (msg["v"], msg["k"]) == (WIRE_VERSION, kind)
    for name, value in fields.items():
        if name == "entries":
            value = [list(entry) for entry in value]
        assert msg[name] == value, name


# ----------------------------------------------------------------------
# endpoints count what they cannot decode and keep serving
# ----------------------------------------------------------------------

def test_malformed_datagrams_are_counted_and_the_server_keeps_serving(clock, probe):
    """Regression: ``"service": "x"`` killed the server's worker task (every
    later request went unanswered, ``wire_errors`` stayed 0), and
    ``"k": [1]`` escaped both ``datagram_received`` handlers as a TypeError.
    Their binary counterparts, and a datagram of the previous (JSON) wire
    version, are each one ``wire_errors`` on both endpoints."""
    from repro.core.registry import make_policy
    from repro.live.client import LiveCluster
    from repro.live.server import LiveServer

    junk = [
        _raw({"k": "request", "id": 1, "attempt": 0, "client": 9, "service": math.nan}),
        _raw({"k": 99}),
        encode_message("request", id=1, attempt=0, client=9, service=0.001)[:-1],
        json.dumps({"v": 1, "k": "request", "id": 1, "attempt": 0, "client": 9,
                    "service": 0.001}).encode(),
    ]
    server = LiveServer(0, clock, mode="sleep")
    for data in junk:
        probe.sock.sendto(data, server.address)
    probe.send(server.address, "request", id=2, attempt=0, client=9, service=0.001)
    reply = probe.wait(clock, "response")[0]
    assert (reply["k"], reply["id"]) == ("response", 2)
    assert server.wire_errors == len(junk)

    cluster = LiveCluster({0: server.address}, make_policy("random"), clock)
    for data in junk:
        cluster.datagram_received(data, server.address)
    assert cluster.wire_errors == len(junk)


# ----------------------------------------------------------------------
# hostile input: junk bytes decode and round-trip, or raise WireError
# ----------------------------------------------------------------------

_VALID = [encode_message(kind, **fields) for kind, fields in sorted(_EXAMPLES.items())]
_JUNK_TIME = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.5]))
_JUNK_INT = st.integers(-(2**63), 2**63 - 1)


@st.composite
def _mutated(draw):
    """A valid datagram of any kind, truncated, extended, with a byte
    flipped, or spliced with another."""
    data = bytearray(draw(st.sampled_from(_VALID)))
    how = draw(st.sampled_from(["truncate", "extend", "flip", "splice"]))
    if how == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif how == "extend":
        data += draw(st.binary(min_size=1, max_size=16))
    elif how == "flip":
        at = draw(st.integers(0, len(data) - 1))
        data[at] ^= draw(st.integers(1, 255))
    else:
        other = draw(st.sampled_from(_VALID))
        data = data[:draw(st.integers(0, len(data)))] + other[draw(st.integers(0, len(other))):]
    return bytes(data)


@st.composite
def _field_junk(draw):
    """Fields packed straight through ``struct``: any int, any time (NaN,
    +-inf and negative service included), other version bytes, unknown
    kind codes, and publish counts and name lengths that overrun."""
    kind = draw(st.sampled_from([*sorted(KINDS), 0, len(KINDS) + 1, 255]))
    fields = {"k": kind, "v": draw(st.sampled_from([WIRE_VERSION] * 8 + [0, 1, 123, 255]))}
    for name in KINDS.get(kind, ()):
        fields[name] = draw(_JUNK_TIME if name in _TIMES else _JUNK_INT)
    if kind == "publish":
        names = draw(st.lists(st.binary(max_size=6), max_size=3))
        body = b"".join(_entry(name, draw(_JUNK_INT), size=draw(
            st.one_of(st.just(len(name)), st.integers(0, 0xFFFF)))) for name in names)
        fields["entries"] = (draw(st.one_of(st.just(len(names)), st.integers(0, 0xFFFF))), body)
    return _raw(fields)


@given(data=st.one_of(st.binary(max_size=64), _mutated(), _field_junk()))
@settings(deadline=None)  # the example budget is the profile's (conftest.py)
def test_junk_datagrams_decode_or_raise_wire_error(data):
    try:
        msg = decode_message(data)
    except WireError:
        return
    assert msg["v"] == WIRE_VERSION
    assert encode_message(msg["k"], **{name: msg[name] for name in KINDS[msg["k"]]}) == data

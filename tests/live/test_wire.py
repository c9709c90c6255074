"""Datagram codec: round-trips, validation, versioning, hostile input."""

import asyncio
import json

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
    "publish": {"server": 3, "entries": [["svc", 0]], "at": 2.0},
    "subscribe": {"client": 9},
}


def test_every_kind_round_trips():
    assert set(_EXAMPLES) == set(KINDS)
    for kind, fields in _EXAMPLES.items():
        data = encode_message(kind, **fields)
        msg = decode_message(data)
        assert msg["k"] == kind
        assert msg["v"] == WIRE_VERSION
        for name, value in fields.items():
            assert msg[name] == value


def test_encode_rejects_unknown_kind_and_missing_fields():
    with pytest.raises(WireError, match="unknown wire kind"):
        encode_message("gossip", x=1)
    with pytest.raises(WireError, match="missing fields"):
        encode_message("request", id=1, attempt=0)


def test_decode_rejects_garbage():
    with pytest.raises(WireError, match="undecodable"):
        decode_message(b"\xff\xfe not json")
    with pytest.raises(WireError, match="undecodable"):
        decode_message(b"{truncated")
    with pytest.raises(WireError, match="not an object"):
        decode_message(b"[1,2,3]")


def test_decode_rejects_wrong_version_and_missing_fields():
    blob = dict(v=WIRE_VERSION + 1, k="poll", pid=1)
    with pytest.raises(WireError, match="unsupported wire version"):
        decode_message(json.dumps(blob).encode())
    with pytest.raises(WireError, match="unknown wire kind"):
        decode_message(json.dumps(dict(v=WIRE_VERSION, k="nope")).encode())
    with pytest.raises(WireError, match="missing fields"):
        decode_message(json.dumps(dict(v=WIRE_VERSION, k="poll")).encode())


def test_datagrams_are_compact_single_objects():
    data = encode_message("poll", pid=123)
    assert b" " not in data  # compact separators
    assert len(data) < 64


# ----------------------------------------------------------------------
# strict decode: a malformed datagram is a counted WireError, nothing else
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "fields, bad",
    [
        ({"k": "request", "id": 1, "attempt": 0, "client": 4, "service": "x"}, "service"),
        ({"k": "request", "id": 1, "attempt": 0, "client": 4, "service": -0.5}, "service"),
        ({"k": "request", "id": True, "attempt": 0, "client": 4, "service": 0.1}, "id"),
        ({"k": "response", "id": 1, "attempt": 0, "server": 1, "enq": 1.0,
          "start": float("nan"), "done": 1.2}, "start"),
        ({"k": "poll_reply", "pid": 3, "server": 0, "q": 2.5, "at": 1.0}, "q"),
        ({"k": "publish", "server": 3, "entries": [["svc", "0"]], "at": 2.0}, "entries"),
        ({"k": "publish", "server": 3, "entries": "svc", "at": 2.0}, "entries"),
    ],
)
def test_decode_rejects_malformed_fields(fields, bad):
    with pytest.raises(WireError, match=rf"malformed fields: \['{bad}'\]"):
        decode_message(json.dumps({"v": WIRE_VERSION, **fields}).encode())


def test_decode_rejects_unhashable_kind_and_boolean_version():
    with pytest.raises(WireError, match="unknown wire kind"):
        decode_message(b'{"v": 1, "k": [1]}')
    with pytest.raises(WireError, match="unsupported wire version"):
        decode_message(b'{"v": true, "k": "poll", "pid": 1}')


def test_malformed_datagrams_are_counted_and_the_server_keeps_serving():
    """Regression: ``"service": "x"`` killed the server's worker task (every
    later request went unanswered, ``wire_errors`` stayed 0), and
    ``"k": [1]`` escaped both ``datagram_received`` handlers as a TypeError."""
    from repro.core.registry import make_policy
    from repro.live.client import LiveCluster
    from repro.live.clock import WallClock
    from repro.live.server import LiveServer

    junk = [
        json.dumps({"v": 1, "k": "request", "id": 1, "attempt": 0, "client": 9,
                    "service": "x"}).encode(),
        b'{"v": 1, "k": [1]}',
    ]

    async def scenario():
        loop = asyncio.get_running_loop()
        clock = WallClock(loop)
        server = LiveServer(0, clock, mode="sleep")
        replies = asyncio.Queue()

        class Probe(asyncio.DatagramProtocol):
            def datagram_received(self, data, addr):
                replies.put_nowait(data)

        server_transport, _ = await loop.create_datagram_endpoint(
            lambda: server, local_addr=("127.0.0.1", 0)
        )
        probe, _ = await loop.create_datagram_endpoint(Probe, local_addr=("127.0.0.1", 0))
        try:
            for data in junk:
                probe.sendto(data, server.address)
            probe.sendto(
                encode_message("request", id=2, attempt=0, client=9, service=0.001),
                server.address,
            )
            reply = decode_message(await asyncio.wait_for(replies.get(), timeout=5))
            assert (reply["k"], reply["id"]) == ("response", 2)
            assert server.wire_errors == len(junk)

            cluster = LiveCluster({0: server.address}, make_policy("random"), clock)
            for data in junk:
                cluster.datagram_received(data, server.address)
            assert cluster.wire_errors == len(junk)
        finally:
            server.close()
            probe.close()
            server_transport.close()

    asyncio.run(asyncio.wait_for(scenario(), timeout=20))


_JUNK_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),  # NaN and +-inf included
    st.text(max_size=6),
    st.sampled_from(sorted(KINDS)),
)
_FIELD_NAMES = sorted({"v", "k", *(name for names in KINDS.values() for name in names)})
_JUNK = st.recursive(
    _JUNK_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(_FIELD_NAMES), inner, max_size=4),
    ),
    max_leaves=8,
)


@st.composite
def _datagrams(draw):
    """Raw bytes; JSON-shaped junk; and well-formed datagrams of every
    kind with one or two fields replaced by junk."""
    shape = draw(st.sampled_from(["bytes", "junk", "mutated"]))
    if shape == "bytes":
        return draw(st.binary(max_size=64))
    if shape == "junk":
        return json.dumps(draw(_JUNK)).encode()
    kind = draw(st.sampled_from(sorted(_EXAMPLES)))
    fields = {"v": WIRE_VERSION, "k": kind, **_EXAMPLES[kind]}
    for name in draw(st.lists(st.sampled_from(sorted(fields)), min_size=1, max_size=2)):
        fields[name] = draw(_JUNK)
    return json.dumps(fields).encode()


@given(data=_datagrams())
@settings(deadline=None)  # the example budget is the profile's (conftest.py)
def test_junk_datagrams_decode_or_raise_wire_error(data):
    try:
        msg = decode_message(data)
    except WireError:
        return
    assert isinstance(msg, dict) and msg["v"] == WIRE_VERSION
    # whatever decodes, the handlers can read without raising
    for name in KINDS[msg["k"]]:
        value = msg[name]
        if name == "entries":
            assert [(str(s), int(p)) for s, p in value] is not None
        else:
            assert float(value) == float(value)  # finite numbers, no NaN

"""Property tests: the wire codec round-trips every message type.

``decode(encode(m)) == m`` for every type in ``core/messages.py`` (plus
the whole control plane), and malformed datagrams — damaged v2 frames,
hostile v1 JSON, arbitrary bytes — are rejected with
:class:`~repro.live.codec.CodecError`, never any other exception, so the
transport can treat decoding as total.  A golden corpus pins that v1 JSON
datagrams (no longer encoded) still decode.

CI runs this file a second time under the ``codec-fuzz`` hypothesis
profile (``--hypothesis-profile=codec-fuzz``, 2000 examples per test).
"""

from __future__ import annotations

import dataclasses
import json
import struct
import typing
from typing import Any, Dict, List, Optional

import pytest
from hypothesis import given, strategies as st

from repro.core import messages as m
from repro.core.messages import MESSAGE_TYPES
from repro.live import codec
from repro.live import control as c
from repro.live.control import CONTROL_TYPES
from repro.live.transport import DatagramEndpoint

ALL_TYPES = MESSAGE_TYPES + CONTROL_TYPES

node_ids = st.integers(min_value=0, max_value=(1 << 48) - 1)
wire_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


def _strategy_for(annotation):
    origin = typing.get_origin(annotation)
    if origin is typing.Union:
        return st.one_of(
            *[_strategy_for(arg) for arg in typing.get_args(annotation)]
        )
    if annotation is type(None):
        return st.none()
    if annotation is bool:
        return st.booleans()
    if annotation is int:
        return node_ids
    if annotation is float:
        return wire_floats
    if annotation is str:
        return st.text(max_size=30)
    if origin is tuple:
        args = typing.get_args(annotation)
        if len(args) == 2 and args[1] is Ellipsis:
            return st.lists(_strategy_for(args[0]), max_size=6).map(tuple)
        return st.tuples(*[_strategy_for(arg) for arg in args])
    raise AssertionError(f"no strategy for annotation {annotation!r}")


def _instances(cls):
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return st.builds(
        cls, **{f.name: _strategy_for(hints[f.name]) for f in fields}
    )


any_message = st.one_of(*[_instances(cls) for cls in ALL_TYPES])


@given(any_message)
def test_round_trip(message):
    data = codec.encode(message)
    decoded = codec.decode(data)
    assert decoded == message
    assert type(decoded) is type(message)


@given(any_message)
def test_encoding_is_deterministic(message):
    assert codec.encode(message) == codec.encode(message)


@pytest.mark.parametrize("cls", ALL_TYPES, ids=lambda c: c.__name__)
def test_every_type_round_trips_at_defaults(cls):
    """Each type individually (the parametrized ids make failures obvious)."""
    fields = dataclasses.fields(cls)
    kwargs = {}
    for field in fields:
        if field.default is not dataclasses.MISSING:
            continue
        if field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            continue
        annotation = typing.get_type_hints(cls)[field.name]
        if annotation is int:
            kwargs[field.name] = 1
        elif annotation is float:
            kwargs[field.name] = 1.0
        elif annotation is str:
            kwargs[field.name] = "x"
        else:
            kwargs[field.name] = ()
    message = cls(**kwargs)
    assert codec.decode(codec.encode(message)) == message


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"not json",
        b"\xff\xfe\x00",
        b"[1, 2, 3]",
        b'"Join"',
        b"{}",
        b'{"t": "Join"}',  # missing version
        b'{"t": "Join", "v": 999}',  # unknown version
        b'{"t": "NoSuchType", "v": 1}',
        b'{"t": "Join", "v": 1}',  # missing fields
        b'{"t": "Join", "v": 1, "sender": 1, "origin": 2, "weight": 3, "extra": 4}',
        b'{"t": "Join", "v": 1, "sender": "evil", "origin": 2, "weight": 3}',
        b'{"t": "Join", "v": 1, "sender": 1, "origin": 2, "weight": true}',
        b'{"t": "CvFetchReply", "v": 1, "sender": 1, "seq": 2, "view": 7}',
        b'{"t": 5, "v": 1}',
    ],
    ids=repr,
)
def test_malformed_payloads_raise_codec_error(payload):
    with pytest.raises(codec.CodecError):
        codec.decode(payload)


@given(st.binary(max_size=200))
def test_arbitrary_bytes_never_raise_anything_else(data):
    try:
        codec.decode(data)
    except codec.CodecError:
        pass  # the one permitted outcome for garbage


@given(st.dictionaries(st.text(max_size=8), st.integers(), max_size=6))
def test_arbitrary_json_objects_never_raise_anything_else(payload):
    data = json.dumps(payload).encode()
    try:
        codec.decode(data)
    except codec.CodecError:
        pass


def test_deeply_nested_payload_is_a_codec_error_not_recursion():
    depth = 2000
    for payload in (
        b"[" * depth + b"]" * depth,
        b'{"t":"CvFetchReply","v":1,"sender":1,"seq":1,"view":'
        + b"[" * depth
        + b"]" * depth
        + b"}",
    ):
        with pytest.raises(codec.CodecError):
            codec.decode(payload)


def test_oversized_datagram_rejected():
    huge = b'{"t": "Join", "v": 1, ' + b" " * codec.MAX_DATAGRAM_BYTES + b"}"
    with pytest.raises(codec.CodecError):
        codec.decode(huge)


def test_unregistered_type_cannot_encode():
    @dataclasses.dataclass(frozen=True)
    class Rogue:
        x: int = 0

    with pytest.raises(codec.CodecError):
        codec.encode(Rogue())


def test_reserved_envelope_field_names_rejected():
    @dataclasses.dataclass(frozen=True)
    class EnvelopeClash:
        t: int = 0

    with pytest.raises(ValueError, match="reserved"):
        codec.register_wire_type(EnvelopeClash)

    @dataclasses.dataclass(frozen=True)
    class VersionClash:
        v: int = 0

    with pytest.raises(ValueError, match="reserved"):
        codec.register_wire_type(VersionClash)


def test_duplicate_registration_name_rejected():
    @dataclasses.dataclass(frozen=True)
    class Join:  # clashes with the protocol's Join
        x: int = 0

    with pytest.raises(ValueError):
        codec.register_wire_type(Join)


def test_all_protocol_messages_registered():
    registered = set(codec.wire_types())
    for cls in ALL_TYPES:
        assert cls in registered


# -- damaged real datagrams (ISSUE satellite) --------------------------------
#
# The fault layer injects loss, duplication and delay deliberately, but a
# real network also *damages* payloads.  Whatever arrives — a truncated
# prefix, two datagrams concatenated by a buggy relay, a bit flip — must
# come out of decode() as either a well-formed message or a CodecError
# (i.e. a counted drop at the transport), never any other exception.


@given(any_message, st.data())
def test_truncated_datagrams_are_codec_errors(message, data):
    payload = codec.encode(message)
    cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    # Frames are self-delimiting: decoding a strict prefix runs out of
    # bytes before the last field, always a clean rejection.
    with pytest.raises(codec.CodecError):
        codec.decode(payload[:cut])


@given(any_message)
def test_duplicated_payload_in_one_datagram_is_a_codec_error(message):
    payload = codec.encode(message)
    # Two messages fused into one datagram (relay bug, buffer reuse): the
    # second frame is trailing bytes after the first and must be a
    # counted drop.
    with pytest.raises(codec.CodecError):
        codec.decode(payload + payload)
    # A *re-delivered* identical datagram, by contrast, simply decodes
    # again — duplication is the fault injector's job to produce and the
    # protocol's job to tolerate.
    assert codec.decode(payload) == codec.decode(payload)


@given(any_message, st.data())
def test_bit_flipped_datagrams_never_raise_anything_else(message, data):
    payload = bytearray(codec.encode(message))
    index = data.draw(
        st.integers(min_value=0, max_value=len(payload) - 1), label="byte"
    )
    bit = data.draw(st.integers(min_value=0, max_value=7), label="bit")
    payload[index] ^= 1 << bit
    try:
        decoded = codec.decode(bytes(payload))
    except codec.CodecError:
        return  # counted drop: the common case
    # A flip inside a value (e.g. one digit of an int) can still be a
    # well-formed payload; that must decode to a registered message, not
    # anything half-built.
    assert type(decoded) in codec.wire_types()


@given(any_message, st.data())
def test_damaged_datagrams_are_counted_drops_at_the_transport(message, data):
    """End to end: damage through DatagramEndpoint is malformed += 1."""
    payload = bytearray(codec.encode(message))
    mode = data.draw(st.sampled_from(["truncate", "duplicate", "bitflip"]))
    if mode == "truncate":
        cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        damaged = bytes(payload[:cut])
    elif mode == "duplicate":
        damaged = bytes(payload) * 2
    else:
        index = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        payload[index] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
        damaged = bytes(payload)
    received = []
    endpoint = DatagramEndpoint(lambda m, addr: received.append(m))
    endpoint._on_datagram(damaged, ("127.0.0.1", 1))
    assert endpoint.stats.datagrams_received == 1
    assert endpoint.stats.handler_errors == 0
    if endpoint.stats.malformed:
        assert received == []  # dropped, silently and exactly once
    else:
        # Damage that still parses must have delivered a real message.
        assert len(received) == 1
        assert type(received[0]) in codec.wire_types()


# -- wire format v2: malformed frames ----------------------------------------


def _frame(tag: bytes, body: bytes) -> bytes:
    """A v2 frame around *body*, with a correct tag-length byte."""
    return bytes((codec.WIRE_VERSION, len(tag))) + tag + body


def _u32(value: int) -> bytes:
    return struct.pack("<I", value)


_NOTIFY_BODY = struct.pack("<qqq", 1, 2, 3)
#: CvFetchReply is ``sender, seq`` (one scalar run) then ``view`` (array).
_FETCH_HEAD = struct.pack("<qq", 1, 2)
#: FaultRequest is ``probe`` | ``plan`` (str) | ``merge`` (bool).
_FAULT_REQUEST_HEAD = struct.pack("<q", 1) + _u32(0)


def _directory(rows: int, table: List[bytes], nodes, hosts, ports) -> bytes:
    body = _u32(rows) + _u32(len(table))
    for text in table:
        body += _u32(len(text)) + text
    body += struct.pack(f"<{len(nodes)}q", *nodes)
    body += struct.pack(f"<{len(hosts)}I", *hosts)
    body += struct.pack(f"<{len(ports)}q", *ports)
    return _frame(b"DirectoryReply", body)


@codec.register_wire_type
@dataclasses.dataclass(frozen=True)
class NestedWireProbe:
    """Exercises the layouts no protocol type uses today."""

    pair: typing.Tuple[int, str]
    groups: typing.Tuple[typing.Tuple[int, ...], ...]
    names: typing.Tuple[str, ...]
    flags: typing.Tuple[bool, ...]
    rows: typing.Tuple[typing.Tuple[bool, float], ...]


def _probe(flags: bytes, rows: bytes) -> bytes:
    """A NestedWireProbe frame: empty pair/groups/names, then *flags* and
    *rows* as raw bodies."""
    head = struct.pack("<q", 0) + _u32(0) + _u32(0) + _u32(0)
    return _frame(b"NestedWireProbe", head + flags + rows)


MALFORMED_V2 = {
    "version byte only": bytes((codec.WIRE_VERSION,)),
    "tag runs past the end": bytes((codec.WIRE_VERSION, 6)) + b"Noti",
    "unknown tag": _frame(b"NoSuchType", b""),
    "empty tag": _frame(b"", _NOTIFY_BODY),
    "tag is a prefix of a real tag": _frame(b"Noti", _NOTIFY_BODY),
    "unknown version byte": bytes((3, 6)) + b"Notify" + _NOTIFY_BODY,
    "short scalar body": _frame(b"Notify", _NOTIFY_BODY[:-1]),
    "no body": _frame(b"Notify", b""),
    "trailing byte after scalars": _frame(b"Notify", _NOTIFY_BODY + b"\x00"),
    "bool byte 2": _frame(b"FaultRequest", _FAULT_REQUEST_HEAD + b"\x02"),
    "bool byte 255": _frame(b"FaultRequest", _FAULT_REQUEST_HEAD + b"\xff"),
    "bool missing": _frame(b"FaultRequest", _FAULT_REQUEST_HEAD),
    "array count past the end": _frame(
        b"CvFetchReply", _FETCH_HEAD + _u32(5) + struct.pack("<q", 7)
    ),
    "array count 2**32 - 1": _frame(b"CvFetchReply", _FETCH_HEAD + _u32(2**32 - 1)),
    "array length truncated": _frame(b"CvFetchReply", _FETCH_HEAD + b"\x01\x00"),
    "trailing byte after array": _frame(
        b"CvFetchReply", _FETCH_HEAD + _u32(1) + struct.pack("<q", 7) + b"\x00"
    ),
    "string length past the end": _frame(b"FaultUpdate", _u32(10) + b"abc"),
    "string length 2**32 - 1": _frame(b"FaultUpdate", _u32(2**32 - 1) + b"abc"),
    "string not UTF-8": _frame(b"FaultUpdate", _u32(2) + b"\xff\xfe"),
    "string cut in a UTF-8 sequence": _frame(b"FaultUpdate", _u32(1) + b"\xc3"),
    "string table index past the end": _directory(1, [b"h"], [1], [1], [2]),
    "string table index with no table": _directory(1, [], [1], [0], [2]),
    "string table count past the end": _frame(
        b"DirectoryReply", _u32(0) + _u32(1000)
    ),
    "string table entry not UTF-8": _directory(1, [b"\xff"], [1], [0], [2]),
    "columnar row count past the end": _frame(
        b"DirectoryReply", _u32(5) + _u32(0) + struct.pack("<q", 1)
    ),
    "columnar row count 2**32 - 1": _frame(
        b"DirectoryReply", _u32(2**32 - 1) + _u32(0)
    ),
    "trailing byte after columns": _directory(1, [b"h"], [1], [0], [2]) + b"\x00",
    "array bool byte 2": _probe(_u32(1) + b"\x02", _u32(0)),
    "columnar bool byte 2": _probe(
        _u32(0), _u32(1) + b"\x02" + struct.pack("<d", 0.5)
    ),
    "tuple-of-str count past the end": _frame(
        b"ChaosReply", _u32(0) + _u32(3) + _u32(1) + b"a"
    ),
}


@pytest.mark.parametrize(
    "frame", list(MALFORMED_V2.values()), ids=list(MALFORMED_V2)
)
def test_malformed_v2_frames_raise_codec_error(frame):
    with pytest.raises(codec.CodecError):
        codec.decode(frame)


def test_malformed_table_frames_are_near_misses():
    """The hand-built frames above are damaged, not gibberish: repairing
    the damage yields frames that decode."""
    assert codec.decode(_frame(b"Notify", _NOTIFY_BODY)) == m.Notify(1, 2, 3)
    assert codec.decode(
        _frame(b"FaultRequest", _FAULT_REQUEST_HEAD + b"\x01")
    ) == c.FaultRequest(probe=1, plan="", merge=True)
    assert codec.decode(
        _frame(b"CvFetchReply", _FETCH_HEAD + _u32(1) + struct.pack("<q", 7))
    ) == m.CvFetchReply(sender=1, seq=2, view=(7,))
    assert codec.decode(_directory(1, [b"h"], [1], [0], [2])) == c.DirectoryReply(
        entries=((1, "h", 2),)
    )
    assert codec.decode(_frame(b"FaultUpdate", _u32(2) + "é".encode())) == (
        c.FaultUpdate(plan="é")
    )
    assert codec.decode(
        _probe(_u32(1) + b"\x01", _u32(1) + b"\x00" + struct.pack("<d", 0.5))
    ) == NestedWireProbe((0, ""), (), (), (True,), ((False, 0.5),))


@given(st.sampled_from(ALL_TYPES), st.binary(max_size=200))
def test_random_v2_bodies_never_raise_anything_else(cls, body):
    """A registered tag followed by garbage: the binary parser's surface."""
    try:
        decoded = codec.decode(_frame(cls.__name__.encode("ascii"), body))
    except codec.CodecError:
        return
    assert type(decoded) is cls


def test_v2_frame_layout():
    data = codec.encode(m.Notify(sender=1, monitor=2, target=3))
    assert data == b"\x02\x06Notify" + _NOTIFY_BODY
    assert len(data) == 32
    directory = c.DirectoryReply(entries=((1, "h", 2), (3, "h", 4)))
    # One table entry serves both rows' host column.
    assert codec.encode(directory) == _directory(
        2, [b"h"], [1, 3], [0, 0], [2, 4]
    )


# -- int64 range -------------------------------------------------------------

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@pytest.mark.parametrize("value", [INT64_MIN, -1, 0, INT64_MAX])
def test_int64_edges_round_trip(value):
    for message in (
        m.Notify(sender=value, monitor=INT64_MIN, target=INT64_MAX),
        m.CvFetchReply(sender=1, seq=value, view=(value, INT64_MIN, INT64_MAX)),
        c.DirectoryReply(entries=((value, "h", INT64_MAX), (INT64_MIN, "", value))),
        c.StatusReply(node=value, ps=((value, 0.5),), ts=(value,)),
    ):
        assert codec.decode(codec.encode(message)) == message


@pytest.mark.parametrize("value", [2**63, INT64_MIN - 1, 2**200])
@pytest.mark.parametrize(
    "make",
    [
        lambda v: m.Notify(sender=1, monitor=v, target=3),
        lambda v: m.CvFetchReply(sender=1, seq=2, view=(1, v)),
        lambda v: c.DirectoryReply(entries=((1, "h", 2), (v, "h", 2))),
        lambda v: c.IntroducerSync(sender="a", entries=((1, "h", v, 0.5),)),
    ],
    ids=["scalar", "array", "column", "column-4"],
)
def test_int_outside_int64_is_a_codec_error_on_encode(make, value):
    with pytest.raises(codec.CodecError):
        codec.encode(make(value))


@pytest.mark.parametrize(
    "message",
    [
        m.Notify(sender="evil", monitor=2, target=3),
        m.Notify(sender=1.5, monitor=2, target=3),
        m.CvFetchReply(sender=1, seq=2, view=(1, "x")),
        m.CvFetchReply(sender=1, seq=2, view=7),
        c.DirectoryReply(entries=((1, "h"),)),
        c.DirectoryReply(entries=((1, "h", 2), (1, "h", 2, 3))),
        c.DirectoryReply(entries=((1, 5, 2),)),
        c.FaultUpdate(plan=7),
        c.FaultUpdate(plan="\ud800"),  # a lone surrogate has no UTF-8 form
        c.ChaosReply(introducers_killed=(1,)),
        m.HistoryReply(sender=1, subject=2, availability="x"),
    ],
    ids=repr,
)
def test_wrongly_typed_values_are_codec_errors_on_encode(message):
    with pytest.raises(codec.CodecError):
        codec.encode(message)


# -- registration-time compilation -------------------------------------------


@pytest.mark.parametrize(
    "annotation",
    [Optional[int], List[int], Dict[str, int], Any, bytes, tuple, typing.Tuple[()]],
    ids=repr,
)
def test_unsupported_annotation_rejected_at_registration(annotation):
    cls = dataclasses.make_dataclass("Unsupported", [("payload", annotation)])
    with pytest.raises(TypeError):
        codec.register_wire_type(cls)
    assert cls not in codec.wire_types()


@given(_instances(NestedWireProbe))
def test_nested_layouts_round_trip(message):
    assert codec.decode(codec.encode(message)) == message


def test_nested_tuples_compile_element_by_element():
    cls = NestedWireProbe
    message = cls(
        pair=(INT64_MAX, "é"),
        groups=((1, 2), (), (3,)),
        names=("a", "", "a"),
        flags=(True, False),
        rows=((False, 0.5), (True, -1.0)),
    )
    assert codec.decode(codec.encode(message)) == message
    assert codec.decode(codec.encode(cls((0, ""), (), (), (), ()))) == cls(
        (0, ""), (), (), (), ()
    )
    with pytest.raises(codec.CodecError):
        codec.encode(cls((1, "a", 2), (), (), (), ()))  # wrong fixed arity


# -- v1 JSON: decode-only ----------------------------------------------------

#: An integer literal past the interpreter's int-parsing digit limit.
HUGE_INT_V1 = (
    b'{"t":"Join","v":1,"sender":' + b"1" * 5000 + b',"origin":2,"weight":3}'
)


def test_v1_int_past_the_digit_limit_is_a_codec_error():
    with pytest.raises(codec.CodecError):
        codec.decode(HUGE_INT_V1)


def test_v1_int_past_the_digit_limit_is_a_counted_drop_at_the_endpoint():
    received = []
    endpoint = DatagramEndpoint(lambda message, addr: received.append(message))
    endpoint._on_datagram(HUGE_INT_V1, ("127.0.0.1", 1))
    assert endpoint.stats.malformed == 1
    assert endpoint.stats.handler_errors == 0
    assert received == []


#: One v1 datagram per registered type, as the v1 encoder (canonical JSON,
#: sorted keys, minimal separators) wrote it.  Checked in as bytes so the
#: v1 decoder is pinned against real v1 output, not against itself.
V1_CORPUS = [
    (
        b'{"introducers_killed":["introducers_killed-5\\u00e9","int'
        b'roducers_killed-6\\u00e9"],"t":"ChaosReply","v":1,"victim'
        b's":[2007,3007]}',
        c.ChaosReply(
            victims=(2007, 3007),
            introducers_killed=('introducers_killed-5é', 'introducers_killed-6é'),
        ),
    ),
    (
        b'{"downtime":8.25,"kill":7007,"kill_introducers":9007,"t"'
        b':"ChaosRequest","v":1}',
        c.ChaosRequest(kill=7007, downtime=8.25, kill_introducers=9007),
    ),
    (
        b'{"sender":10007,"seq":11007,"t":"CvFetchReply","v":1,"vi'
        b'ew":[13007,14007]}',
        m.CvFetchReply(sender=10007, seq=11007, view=(13007, 14007)),
    ),
    (
        b'{"sender":15007,"seq":16007,"t":"CvFetchRequest","v":1}',
        m.CvFetchRequest(sender=15007, seq=16007),
    ),
    (
        b'{"sender":17007,"seq":18007,"t":"CvPing","v":1}',
        m.CvPing(sender=17007, seq=18007),
    ),
    (
        b'{"sender":19007,"seq":20007,"t":"CvPong","v":1}',
        m.CvPong(sender=19007, seq=20007),
    ),
    (
        b'{"entries":[[23007,"entries-24\\u00e9",25007],[27007,"ent'
        b'ries-28\\u00e9",29007]],"t":"DirectoryReply","v":1}',
        c.DirectoryReply(
            entries=((23007, 'entries-24é', 25007), (27007, 'entries-28é', 29007)),
        ),
    ),
    (
        b'{"node":30007,"t":"DirectoryRequest","v":1}',
        c.DirectoryRequest(node=30007),
    ),
    (
        b'{"probe":31007,"t":"DownAck","v":1}',
        c.DownAck(probe=31007),
    ),
    (
        b'{"probe":32007,"t":"DownRequest","v":1}',
        c.DownRequest(probe=32007),
    ),
    (
        b'{"applied":34007,"probe":33007,"t":"FaultReply","v":1}',
        c.FaultReply(probe=33007, applied=34007),
    ),
    (
        b'{"merge":true,"plan":"plan-36\\u00e9","probe":35007,"t":"'
        b'FaultRequest","v":1}',
        c.FaultRequest(probe=35007, plan='plan-36é', merge=True),
    ),
    (
        b'{"plan":"plan-38\\u00e9","t":"FaultUpdate","v":1}',
        c.FaultUpdate(plan='plan-38é'),
    ),
    (
        b'{"node":39007,"t":"Goodbye","v":1}',
        c.Goodbye(node=39007),
    ),
    (
        b'{"node":40007,"t":"Heartbeat","v":1}',
        c.Heartbeat(node=40007),
    ),
    (
        b'{"host":"host-43\\u00e9","node":41007,"port":42007,"t":"H'
        b'ello","v":1}',
        c.Hello(node=41007, port=42007, host='host-43é'),
    ),
    (
        b'{"alive":45007,"epoch":44.25,"t":"HelloAck","v":1}',
        c.HelloAck(epoch=44.25, alive=45007),
    ),
    (
        b'{"availability":48.25,"sender":46007,"subject":47007,"t"'
        b':"HistoryReply","v":1}',
        m.HistoryReply(sender=46007, subject=47007, availability=48.25),
    ),
    (
        b'{"sender":49007,"subject":50007,"t":"HistoryRequest","v"'
        b':1}',
        m.HistoryRequest(sender=49007, subject=50007),
    ),
    (
        b'{"entries":[[55007,"entries-56\\u00e9",57007,58.25],[6000'
        b'7,"entries-61\\u00e9",62007,63.25]],"epoch":52.25,"sender'
        b'":"sender-51\\u00e9","t":"IntroducerSync","v":1}',
        c.IntroducerSync(
            sender='sender-51é',
            epoch=52.25,
            entries=((55007, 'entries-56é', 57007, 58.25), (60007, 'entries-61é', 62007, 63.25)),
        ),
    ),
    (
        b'{"origin":65007,"sender":64007,"t":"Join","v":1,"weight"'
        b':66007}',
        m.Join(sender=64007, origin=65007, weight=66007),
    ),
    (
        b'{"sender":67007,"seq":68007,"t":"MonitorPing","v":1}',
        m.MonitorPing(sender=67007, seq=68007),
    ),
    (
        b'{"sender":69007,"seq":70007,"t":"MonitorPong","v":1}',
        m.MonitorPong(sender=69007, seq=70007),
    ),
    (
        b'{"monitor":72007,"sender":71007,"t":"Notify","target":73'
        b'007,"v":1}',
        m.Notify(sender=71007, monitor=72007, target=73007),
    ),
    (
        b'{"cvs":77007,"epoch":81.25,"hash_algorithm":"hash_algori'
        b'thm-78\\u00e9","introducer_host":"introducer_host-79\\u00e'
        b'9","introducer_port":80007,"k":76007,"nodes":75007,"prob'
        b'e":74007,"t":"OverlayInfoReply","v":1}',
        c.OverlayInfoReply(
            probe=74007,
            nodes=75007,
            k=76007,
            cvs=77007,
            hash_algorithm='hash_algorithm-78é',
            introducer_host='introducer_host-79é',
            introducer_port=80007,
            epoch=81.25,
        ),
    ),
    (
        b'{"probe":82007,"t":"OverlayInfoRequest","v":1}',
        c.OverlayInfoRequest(probe=82007),
    ),
    (
        b'{"alive":85007,"crashes":89007,"discovered_pairs":87007,'
        b'"elapsed":86.25,"expected_pairs":88007,"nodes":84007,"pr'
        b'obe":83007,"t":"OverlayStatusReply","v":1}',
        c.OverlayStatusReply(
            probe=83007,
            nodes=84007,
            alive=85007,
            elapsed=86.25,
            discovered_pairs=87007,
            expected_pairs=88007,
            crashes=89007,
        ),
    ),
    (
        b'{"probe":90007,"t":"OverlayStatusRequest","v":1}',
        c.OverlayStatusRequest(probe=90007),
    ),
    (
        b'{"sender":91007,"t":"Pr2Refresh","v":1}',
        m.Pr2Refresh(sender=91007),
    ),
    (
        b'{"monitors":[95007,96007],"sender":92007,"subject":93007'
        b',"t":"ReportReply","v":1}',
        m.ReportReply(sender=92007, subject=93007, monitors=(95007, 96007)),
    ),
    (
        b'{"min_monitors":99007,"sender":97007,"subject":98007,"t"'
        b':"ReportRequest","v":1}',
        m.ReportRequest(sender=97007, subject=98007, min_monitors=99007),
    ),
    (
        b'{"cache_hits":106007,"cache_misses":107007,"client_error'
        b's":103007,"monitors_rejected":109007,"monitors_verified"'
        b':108007,"ok":102007,"probe":100007,"queries_timed_out":1'
        b'10007,"rate_limited":105007,"requests":101007,"server_er'
        b'rors":104007,"t":"ServeStatusReply","v":1}',
        c.ServeStatusReply(
            probe=100007,
            requests=101007,
            ok=102007,
            client_errors=103007,
            server_errors=104007,
            rate_limited=105007,
            cache_hits=106007,
            cache_misses=107007,
            monitors_verified=108007,
            monitors_rejected=109007,
            queries_timed_out=110007,
        ),
    ),
    (
        b'{"probe":111007,"t":"ServeStatusRequest","v":1}',
        c.ServeStatusRequest(probe=111007),
    ),
    (
        b'{"bytes_sent":132007,"computations":129007,"cv":[127007,'
        b'128007],"cv_reseeds":142007,"datagrams_malformed":135007'
        b',"datagrams_received":134007,"datagrams_sent":133007,"ha'
        b'ndler_errors":137007,"histories_served":140007,"introduc'
        b'er_failovers":141007,"joins_throttled":138007,"memory_en'
        b'tries":130007,"node":112007,"now":114.25,"probe":113007,'
        b'"ps":[[118007,119.25],[121007,122.25]],"reports_served":'
        b'139007,"started_at":115.25,"t":"StatusReply","tick_error'
        b's":136007,"ts":[124007,125007],"useless_pings":131007,"v'
        b'":1}',
        c.StatusReply(
            node=112007,
            probe=113007,
            now=114.25,
            started_at=115.25,
            ps=((118007, 119.25), (121007, 122.25)),
            ts=(124007, 125007),
            cv=(127007, 128007),
            computations=129007,
            memory_entries=130007,
            useless_pings=131007,
            bytes_sent=132007,
            datagrams_sent=133007,
            datagrams_received=134007,
            datagrams_malformed=135007,
            tick_errors=136007,
            handler_errors=137007,
            joins_throttled=138007,
            reports_served=139007,
            histories_served=140007,
            introducer_failovers=141007,
            cv_reseeds=142007,
        ),
    ),
    (
        b'{"probe":143007,"t":"StatusRequest","v":1}',
        c.StatusRequest(probe=143007),
    ),
]


def test_v1_corpus_covers_every_registered_type():
    assert sorted(type(expected).__name__ for _, expected in V1_CORPUS) == sorted(
        cls.__name__ for cls in ALL_TYPES
    )


@pytest.mark.parametrize(
    "payload, expected", V1_CORPUS, ids=[type(e).__name__ for _, e in V1_CORPUS]
)
def test_v1_golden_datagram_decodes(payload, expected):
    decoded = codec.decode(payload)
    assert decoded == expected
    assert type(decoded) is type(expected)
    # And the same message survives the trip to v2.
    assert codec.decode(codec.encode(decoded)) == expected
